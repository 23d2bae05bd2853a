//! Kernel equivalence: the event-driven simulation kernel skips cycles only
//! when they are provably no-ops, and the guarded core pipeline skips a
//! stage only when it is provably dead — so for every ordering engine and
//! workload the event-driven schedule must produce a [`MachineResult`]
//! byte-identical to the dense (poll-every-cycle) reference: cycle counts,
//! per-core counters, runtime breakdowns and retired-load values alike. A
//! 64-core machine on an 8×8 torus is held to the same standard.
//!
//! This is the safety net for the whole quiescence analysis and for the
//! stage guards of `Core::step`: any wake hint that fires too late, any
//! state change the activity report misses, any mis-attributed skipped
//! cycle or any stage skipped while it was live shows up here as a
//! field-level mismatch. (The guards run in both schedules, dense included;
//! `tests/result_goldens.rs` holds them to the results recorded before they
//! existed.)

use ifence_sim::{Machine, MachineResult};
use invisifence_repro::prelude::*;

const MAX_CYCLES: u64 = 30_000_000;
const INSTRUCTIONS: usize = 900;

/// Every engine kind the simulator implements ([`EngineKind::all`]), so a
/// newly added kind is held to the equivalence guarantee automatically.
fn engines() -> Vec<EngineKind> {
    EngineKind::all().to_vec()
}

/// Runs `workload` on `cfg` under the dense kernel (`dense`) or the
/// event-driven one.
fn run_with_kernel(mut cfg: MachineConfig, workload: &WorkloadSpec, dense: bool) -> MachineResult {
    cfg.dense_kernel = dense;
    let programs = workload.generate(cfg.cores, INSTRUCTIONS, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result(MAX_CYCLES)
}

/// Compares the event-driven result against the dense reference field by
/// field, so a mismatch names the offending part before the full structural
/// equality check.
fn assert_matches_reference(
    dense: &MachineResult,
    event: &MachineResult,
    engine: EngineKind,
    workload: &str,
) {
    let label = engine.label();
    assert_eq!(
        dense.cycles, event.cycles,
        "{label} on {workload}: event-driven cycle count diverges from dense"
    );
    for (core, (d, e)) in dense.per_core.iter().zip(&event.per_core).enumerate() {
        assert_eq!(
            d.breakdown, e.breakdown,
            "{label} on {workload}: event-driven core {core} breakdown diverges"
        );
        assert_eq!(
            d.counters, e.counters,
            "{label} on {workload}: event-driven core {core} counters diverge"
        );
    }
    assert_eq!(
        dense.load_results, event.load_results,
        "{label} on {workload}: event-driven retired-load values diverge"
    );
    // …then require full structural equality (finished, deadlocked, label).
    assert_eq!(dense, event, "{label} on {workload}: event-driven results diverge");
}

/// Runs `cfg` under the dense reference and the event-driven kernel,
/// requiring the two to match.
fn assert_equivalent(cfg: MachineConfig, workload: &WorkloadSpec) {
    let engine = cfg.engine;
    let dense = run_with_kernel(cfg.clone(), workload, true);
    assert!(dense.finished, "{} on {} did not finish", engine.label(), workload.name);
    let event = run_with_kernel(cfg, workload, false);
    assert_matches_reference(&dense, &event, engine, &workload.name);
}

#[test]
fn every_engine_is_equivalent_on_barnes() {
    let workload = presets::barnes();
    for engine in engines() {
        assert_equivalent(MachineConfig::small_test(engine), &workload);
    }
}

#[test]
fn every_engine_is_equivalent_on_apache() {
    let workload = presets::apache();
    for engine in engines() {
        assert_equivalent(MachineConfig::small_test(engine), &workload);
    }
}

#[test]
fn wide_torus_is_equivalent_on_apache() {
    // Scales the 4-core test machine to an 8×8 torus so the routing tables,
    // the wake index and commit-on-violate deferral all see 64 nodes.
    let workload = presets::apache();
    for engine in [
        EngineKind::Conventional(ConsistencyModel::Sc),
        EngineKind::InvisiSelective(ConsistencyModel::Sc),
        EngineKind::InvisiContinuous { commit_on_violate: true },
    ] {
        let mut cfg = MachineConfig::small_test(engine);
        cfg.cores = 64;
        cfg.interconnect.mesh_width = 8;
        cfg.interconnect.mesh_height = 8;
        assert_equivalent(cfg, &workload);
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
            let run = |dense: bool| {
                let mut cfg = MachineConfig::small_test(engine);
                cfg.dense_kernel = dense;
                cfg.seed = 1;
                let mut programs = test.programs().to_vec();
                while programs.len() < cfg.cores {
                    programs.push(Program::new());
                }
                Machine::new(cfg, programs).expect("valid config").into_result(MAX_CYCLES)
            };
            let dense = run(true);
            assert!(dense.finished, "{} on {name} did not finish", engine.label());
            assert_eq!(dense, run(false), "{} on {name}: results diverge", engine.label());
        }
    }
}
