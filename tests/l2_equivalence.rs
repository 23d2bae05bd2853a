//! Equivalence guard for the finite-L2 refactor.
//!
//! The fabric used to model the shared L2 as an infinite map whose memory
//! latency was paid only on the first touch of a block. The refactor replaced
//! that with a banked, finite, set-associative L2 (directory state embedded
//! in its tags) over an explicit DRAM tier. Three properties pin the
//! refactor down:
//!
//! 1. **Pre-refactor byte-equivalence** — with the L2 capacity set
//!    effectively infinite (`size_bytes = 0`), cycle counts are *identical*
//!    to the pre-refactor fabric for every engine kind × Barnes/Apache. The
//!    golden values below were captured by running the pre-refactor tree at
//!    exactly these parameters (small test machine, 700 instructions/core,
//!    default seed, 30 M-cycle limit). The ASO rows were re-captured when
//!    ASO's commit and abort began clearing the L1 speculative bits its
//!    drained stores set (a model change for ASO alone).
//! 2. **Capacity neutrality** — a finite L2 large enough to hold the working
//!    set produces `MachineResult`s byte-identical to the unbounded one: the
//!    capacity machinery adds no timing perturbation until it is exercised.
//! 3. **Capacity pressure is real** — with a small L2, large-working-set
//!    workloads see non-zero capacity misses, evictions and inclusion
//!    recalls, and the stall-breakdown invariant (the slowest core's bucket
//!    sum equals executed cycles) still holds exactly.

use ifence_sim::{Machine, MachineResult};
use invisifence_repro::prelude::*;

const MAX_CYCLES: u64 = 30_000_000;
const INSTRUCTIONS: usize = 700;

/// Pre-refactor cycle counts: (engine label, workload, cycles), captured on
/// the flat-map fabric at the parameters used by `run` (ASO rows since
/// re-captured, see the module documentation).
const GOLDEN_CYCLES: [(&str, &str, u64); 28] = [
    ("sc", "Barnes", 1568),
    ("tso", "Barnes", 3260),
    ("rmo", "Barnes", 1121),
    ("Invisi_sc", "Barnes", 1727),
    ("Invisi_tso", "Barnes", 1559),
    ("Invisi_rmo", "Barnes", 1121),
    ("Invisi_sc-2ckpt", "Barnes", 1393),
    ("Invisi_tso-2ckpt", "Barnes", 1988),
    ("Invisi_rmo-2ckpt", "Barnes", 1121),
    ("Invisi_cont", "Barnes", 6874),
    ("Invisi_cont_CoV", "Barnes", 6874),
    ("ASOsc", "Barnes", 1121),
    ("ASOtso", "Barnes", 1121),
    ("ASOrmo", "Barnes", 1121),
    ("sc", "Apache", 3344),
    ("tso", "Apache", 5171),
    ("rmo", "Apache", 1537),
    ("Invisi_sc", "Apache", 3711),
    ("Invisi_tso", "Apache", 3068),
    ("Invisi_rmo", "Apache", 1644),
    ("Invisi_sc-2ckpt", "Apache", 2834),
    ("Invisi_tso-2ckpt", "Apache", 2503),
    ("Invisi_rmo-2ckpt", "Apache", 1649),
    ("Invisi_cont", "Apache", 7802),
    ("Invisi_cont_CoV", "Apache", 8923),
    ("ASOsc", "Apache", 2800),
    ("ASOtso", "Apache", 2357),
    ("ASOrmo", "Apache", 1431),
];

fn run(engine: EngineKind, workload: &WorkloadSpec, l2_size_bytes: usize) -> MachineResult {
    let mut cfg = MachineConfig::small_test(engine);
    cfg.l2.size_bytes = l2_size_bytes;
    let programs = workload.generate(cfg.cores, INSTRUCTIONS, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result(MAX_CYCLES)
}

#[test]
fn unbounded_l2_reproduces_the_pre_refactor_fabric() {
    for workload in [presets::barnes(), presets::apache()] {
        for engine in EngineKind::all() {
            let result = run(engine, &workload, 0);
            let label = format!("{}/{}", engine.label(), workload.name);
            assert!(result.finished, "{label}: run must finish");
            let golden = GOLDEN_CYCLES
                .iter()
                .find(|(e, w, _)| *e == engine.label() && *w == workload.name)
                .unwrap_or_else(|| panic!("{label}: no golden recorded"))
                .2;
            assert_eq!(
                result.cycles, golden,
                "{label}: the unbounded-L2 fabric must be cycle-identical to the \
                 pre-refactor flat-map fabric"
            );
            assert!(
                !result.fabric.had_capacity_pressure(),
                "{label}: unbounded L2 never evicts or recalls: {:?}",
                result.fabric
            );
            assert!(result.fabric.l2_misses > 0, "{label}: cold misses are still DRAM fetches");
        }
    }
}

#[test]
fn finite_l2_that_fits_the_working_set_is_byte_identical_to_unbounded() {
    // 16 MB dwarfs every test workload's footprint, so the finite machinery
    // (banked sets, LRU, victim selection) must be timing-neutral: the whole
    // MachineResult — cycles, per-core counters and breakdowns, fabric
    // counters, retired-load values — is byte-identical to the unbounded run.
    for workload in [presets::barnes(), presets::apache()] {
        for engine in EngineKind::all() {
            let unbounded = run(engine, &workload, 0);
            let finite = run(engine, &workload, 16 * 1024 * 1024);
            assert_eq!(
                unbounded,
                finite,
                "{}/{}: an unexercised finite L2 must not perturb anything",
                engine.label(),
                workload.name
            );
        }
    }
}

#[test]
fn small_l2_sees_capacity_misses_and_recalls_on_large_working_sets() {
    // A 16 KB shared L2 (256 blocks) against Apache's multi-thousand-block
    // footprint: capacity misses, evictions and inclusion recalls must all
    // occur, the recalled cores must observe them, and the run must still
    // finish with exact cycle accounting.
    for engine in [
        EngineKind::Conventional(ConsistencyModel::Rmo),
        EngineKind::InvisiSelective(ConsistencyModel::Rmo),
    ] {
        let result = run(engine, &presets::apache(), 16 * 1024);
        let label = format!("{}/Apache@16KB", engine.label());
        assert!(result.finished, "{label}: run must finish under capacity pressure");
        assert!(!result.deadlocked, "{label}: no deadlock");
        let fabric = &result.fabric;
        let l2_blocks = (16 * 1024 / 64) as u64;
        assert!(
            fabric.l2_misses > l2_blocks,
            "{label}: misses ({}) must exceed the L2's {l2_blocks}-block capacity — \
             capacity misses, not just cold ones",
            fabric.l2_misses
        );
        assert!(fabric.had_capacity_pressure(), "{label}: capacity pressure expected: {fabric:?}");
        assert!(fabric.l2_evictions > 0, "{label}: evictions must occur: {fabric:?}");
        assert!(fabric.l2_recalls > 0, "{label}: inclusion recalls must occur: {fabric:?}");
        assert!(fabric.dram_reads >= fabric.l2_misses, "{label}: every miss reads DRAM");
        let recalls_received: u64 =
            result.per_core.iter().map(|c| c.counters.l2_recalls_received).sum();
        assert!(recalls_received > 0, "{label}: cores must observe the recalls");

        // The stall-breakdown invariant survives capacity pressure: the
        // slowest core accounts for exactly every executed cycle.
        let slowest = result.per_core.iter().map(|c| c.breakdown.total()).max().unwrap();
        assert_eq!(
            slowest,
            result.cycles - 1,
            "{label}: breakdown buckets must sum exactly to executed cycles"
        );
    }
}

#[test]
fn shrinking_the_l2_never_speeds_up_a_run() {
    // Monotonicity smoke: the same workload through 16 KB / 256 KB /
    // unbounded L2s — miss counts must not increase with capacity, and the
    // tiny configuration must be strictly slower than the unbounded one.
    let engine = EngineKind::Conventional(ConsistencyModel::Rmo);
    let tiny = run(engine, &presets::apache(), 16 * 1024);
    let small = run(engine, &presets::apache(), 256 * 1024);
    let unbounded = run(engine, &presets::apache(), 0);
    assert!(tiny.fabric.l2_misses >= small.fabric.l2_misses);
    assert!(small.fabric.l2_misses >= unbounded.fabric.l2_misses);
    assert!(
        tiny.cycles > unbounded.cycles,
        "16 KB ({}) must be slower than unbounded ({})",
        tiny.cycles,
        unbounded.cycles
    );
}
