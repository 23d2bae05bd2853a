//! Kernel equivalence: the event-driven simulation kernel skips cycles only
//! when they are provably no-ops, the guarded core pipeline skips a stage
//! only when it is provably dead, and the epoch-parallel kernel steps
//! disjoint core partitions concurrently only up to a horizon the coherence
//! fabric proves interaction-free — so for every ordering engine and
//! workload all five schedules (dense, event-driven, epoch-parallel at 1, 2
//! and 4 threads) must produce byte-identical [`MachineResult`]s — cycle
//! counts, per-core counters, runtime breakdowns and retired-load values
//! alike.
//!
//! This is the safety net for the whole quiescence analysis, for the stage
//! guards of `Core::step`, and for the epoch-parallel merge order: any wake
//! hint that fires too late, any state change the activity report misses,
//! any mis-attributed skipped cycle, any stage skipped while it was live, or
//! any cross-thread emission merged into the fabric out of serial order
//! shows up here as a field-level mismatch. (The guards run in every
//! schedule, dense included; `tests/result_goldens.rs` holds them to the
//! results recorded before they existed.)

use ifence_sim::{Machine, MachineResult};
use invisifence_repro::prelude::*;

const MAX_CYCLES: u64 = 30_000_000;
const INSTRUCTIONS: usize = 900;

/// The kernel schedules held to byte-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelMode {
    /// Poll every core every cycle (the debug reference).
    Dense,
    /// Skip provably quiescent cycles.
    Event,
    /// Cores partitioned across this many worker threads stepping
    /// epoch-synchronously (one thread is the serial event-driven kernel).
    EpochParallel(usize),
}

impl KernelMode {
    const ALL: [KernelMode; 5] = [
        KernelMode::Dense,
        KernelMode::Event,
        KernelMode::EpochParallel(1),
        KernelMode::EpochParallel(2),
        KernelMode::EpochParallel(4),
    ];

    fn apply(self, cfg: &mut MachineConfig) {
        cfg.dense_kernel = self == KernelMode::Dense;
        cfg.machine_threads = match self {
            KernelMode::EpochParallel(threads) => threads,
            _ => 1,
        };
    }
}

/// Every engine kind the simulator implements ([`EngineKind::all`]), so a
/// newly added kind is held to the equivalence guarantee automatically.
fn engines() -> Vec<EngineKind> {
    EngineKind::all().to_vec()
}

fn run_with_kernel(engine: EngineKind, workload: &WorkloadSpec, mode: KernelMode) -> MachineResult {
    let mut cfg = MachineConfig::small_test(engine);
    mode.apply(&mut cfg);
    let programs = workload.generate(cfg.cores, INSTRUCTIONS, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result(MAX_CYCLES)
}

/// Compares one alternative schedule against the dense reference field by
/// field, so a mismatch names the offending part before the full structural
/// equality check.
fn assert_matches_reference(
    dense: &MachineResult,
    other: &MachineResult,
    mode: KernelMode,
    engine: EngineKind,
    workload: &str,
) {
    let label = engine.label();
    assert_eq!(
        dense.cycles, other.cycles,
        "{label} on {workload}: {mode:?} cycle count diverges from dense"
    );
    for (core, (d, o)) in dense.per_core.iter().zip(&other.per_core).enumerate() {
        assert_eq!(
            d.breakdown, o.breakdown,
            "{label} on {workload}: {mode:?} core {core} breakdown diverges"
        );
        assert_eq!(
            d.counters, o.counters,
            "{label} on {workload}: {mode:?} core {core} counters diverge"
        );
    }
    assert_eq!(
        dense.load_results, other.load_results,
        "{label} on {workload}: {mode:?} retired-load values diverge"
    );
    // …then require full structural equality (finished, deadlocked, label).
    assert_eq!(dense, other, "{label} on {workload}: {mode:?} results diverge");
}

fn assert_equivalent(engine: EngineKind, workload: &WorkloadSpec) {
    let dense = run_with_kernel(engine, workload, KernelMode::Dense);
    assert!(dense.finished, "{} on {} did not finish", engine.label(), workload.name);
    for mode in KernelMode::ALL {
        if mode == KernelMode::Dense {
            continue;
        }
        let other = run_with_kernel(engine, workload, mode);
        assert_matches_reference(&dense, &other, mode, engine, &workload.name);
    }
}

#[test]
fn every_engine_is_equivalent_on_barnes() {
    let workload = presets::barnes();
    for engine in engines() {
        assert_equivalent(engine, &workload);
    }
}

#[test]
fn every_engine_is_equivalent_on_apache() {
    let workload = presets::apache();
    for engine in engines() {
        assert_equivalent(engine, &workload);
    }
}

#[test]
fn litmus_runs_are_equivalent_across_kernels() {
    // Litmus programs are adversarially contended, exercising deferral,
    // rollback and replay paths the statistical workloads rarely hit.
    for (name, test) in [
        ("store-buffering", LitmusTest::store_buffering(15, false)),
        ("message-passing", LitmusTest::message_passing(15, true)),
        ("iriw", LitmusTest::iriw(15, false)),
    ] {
        for engine in [
            EngineKind::Conventional(ConsistencyModel::Sc),
            EngineKind::InvisiContinuous { commit_on_violate: true },
            EngineKind::Aso(ConsistencyModel::Sc),
        ] {
            let run = |mode: KernelMode| {
                let mut cfg = MachineConfig::small_test(engine);
                mode.apply(&mut cfg);
                cfg.seed = 1;
                let mut programs = test.programs().to_vec();
                while programs.len() < cfg.cores {
                    programs.push(Program::new());
                }
                Machine::new(cfg, programs).expect("valid config").into_result(MAX_CYCLES)
            };
            let dense = run(KernelMode::Dense);
            assert!(dense.finished, "{} on {name} did not finish", engine.label());
            for mode in KernelMode::ALL {
                if mode == KernelMode::Dense {
                    continue;
                }
                let other = run(mode);
                assert_eq!(dense, other, "{} on {name}: {mode:?} results diverge", engine.label());
            }
        }
    }
}

#[test]
fn epoch_parallel_runs_are_repeat_deterministic() {
    // Byte-identity to dense already implies determinism, but this test
    // fails more legibly if a data race ever slips in: the same 4-thread
    // run, executed three times, must reproduce itself exactly.
    let workload = presets::apache();
    let engine = EngineKind::InvisiSelective(ConsistencyModel::Sc);
    let mode = KernelMode::EpochParallel(4);
    let reference = run_with_kernel(engine, &workload, mode);
    assert!(reference.finished);
    for repeat in 1..3 {
        let again = run_with_kernel(engine, &workload, mode);
        assert_eq!(reference, again, "repeat {repeat} of the same {mode:?} run diverges");
    }
}

#[test]
fn all_modes_are_distinct_configurations() {
    // Guard against the modes silently collapsing into one another (e.g. a
    // future refactor making machine_threads imply dense_kernel). Note
    // EpochParallel(1) intentionally shares Event's configuration: one
    // worker thread is the serial event-driven kernel.
    let mut seen = Vec::new();
    for mode in KernelMode::ALL {
        if mode == KernelMode::EpochParallel(1) {
            continue;
        }
        let mut cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Sc));
        mode.apply(&mut cfg);
        let fingerprint = (cfg.dense_kernel, cfg.machine_threads);
        assert!(!seen.contains(&fingerprint), "{mode:?} duplicates another mode");
        seen.push(fingerprint);
    }
}
