//! Long-trace smoke test: run Apache on the paper machine with a
//! trace budget that would be hostile to the materialized path (CI uses
//! `IFENCE_INSTRS=1000000`, i.e. 16 million instructions machine-wide), and
//! assert that per-core trace state stayed bounded by the replay window —
//! not the trace length.
//!
//! Under the old `Vec<Instruction>`-per-core design this run would
//! materialize all 16 million instructions before simulation began; with
//! streaming sources, generation overlaps simulation and the resident
//! high-water mark stays O(ROB + speculation depth).
//!
//! ```text
//! IFENCE_INSTRS=1000000 cargo run --release --example long_trace_smoke
//! ```

use invisifence_repro::prelude::*;
use std::time::Instant;

fn main() {
    let params = ExperimentParams::from_env();
    let workload: Workload = presets::apache().into();
    let engine = EngineKind::InvisiSelective(ConsistencyModel::Rmo);

    let mut cfg = MachineConfig::with_engine(engine);
    cfg.seed = params.seed;
    let cores = cfg.cores;
    println!(
        "long-trace smoke: {} on {}, {} instructions/core x {} cores (seed {})",
        engine.label(),
        workload.name(),
        params.instructions_per_core,
        cores,
        params.seed
    );

    let sources = workload.sources(cores, params.instructions_per_core, params.seed);
    let mut machine = Machine::from_sources(cfg, sources).expect("valid config");
    let start = Instant::now();
    let result = machine.run(params.max_cycles);
    let elapsed = start.elapsed().as_secs_f64();

    assert!(!result.deadlocked, "deadlock: {:?}", result.deadlock_diagnostic);
    assert!(result.finished, "run hit the cycle limit ({} cycles)", result.cycles);
    let retired: u64 = result.per_core.iter().map(|c| c.counters.instructions_retired).sum();
    assert!(
        retired >= (params.instructions_per_core * cores) as u64,
        "not all instructions retired"
    );

    // The point of the exercise: trace state is bounded by the replay window
    // (ROB depth + speculation depth + one generation structure), never by
    // the trace length. 10% of the trace is a deliberately loose ceiling —
    // in practice the window is a few hundred instructions.
    let window = machine.max_trace_resident();
    let budget = (params.instructions_per_core / 10).max(4_096);
    assert!(
        window <= budget,
        "resident window {window} exceeded the O(window) bound {budget} — \
         trace state is scaling with trace length again"
    );

    println!(
        "finished: {} cycles, {} instructions retired, {:.1}s wall clock",
        result.cycles, retired, elapsed
    );
    println!(
        "max resident trace window: {window} instructions/core (trace length {}, bound {budget})",
        params.instructions_per_core
    );
}
