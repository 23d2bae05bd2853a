//! Phase-profiler smoke: asserts that the kernel phase profiler
//!
//! 1. changes **no simulated result** — a run with profiling off and a run
//!    with profiling force-enabled produce byte-identical [`MachineResult`]s
//!    (the profiler observes host wall clock only);
//! 2. actually measures — with profiling on, every serial-kernel phase
//!    (core stepping, fabric stepping, delivery routing) accumulates
//!    non-zero time, and the phase total stays within the measured section's
//!    wall clock (each phase is a disjoint slice of it);
//! 3. measures the epoch-parallel kernel's merge phase at two machine
//!    threads, again without changing the result.
//!
//! ```text
//! IFENCE_PROFILE=1 cargo run --release --example profile_smoke
//! ```
//!
//! The `IFENCE_PROFILE=1` in the invocation is the CI leg's point: the env
//! path and the programmatic path must agree. The example force-sets the
//! flag itself, so it also passes without the variable.

use ifence_sim::Machine;
use ifence_stats::{Phase, PhaseProfile};
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::presets;
use std::time::Instant;

fn run_once(threads: usize) -> ifence_sim::MachineResult {
    let mut cfg = MachineConfig::with_engine(EngineKind::Conventional(ConsistencyModel::Sc));
    cfg.machine_threads = threads;
    let instrs = std::env::var("IFENCE_INSTRS").ok().and_then(|v| v.parse().ok()).unwrap_or(3_000);
    let programs = presets::apache().generate(cfg.cores, instrs, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result(u64::MAX)
}

fn main() {
    let profile = PhaseProfile::global();

    // 1. Profiling must not change a single simulated result. (If CI runs
    // this with IFENCE_PROFILE=1 the "off" run needs an explicit disable —
    // which is exactly the cross-check the env path needs anyway.)
    profile.set_enabled(false);
    let off = run_once(1);
    profile.set_enabled(true);
    let start = profile.snapshot();
    let wall_start = Instant::now();
    let on = run_once(1);
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    let delta = profile.snapshot().delta(&start);
    assert_eq!(off, on, "profiling must be invisible to every simulated result");

    // 2. The serial kernel's phases all accumulated, and their sum does not
    // exceed the section's wall clock (phases are disjoint slices of it;
    // machine construction and finalisation sit outside every phase).
    for phase in [Phase::CoreStep, Phase::FabricStep, Phase::DeliveryRouting] {
        assert!(delta.nanos(phase) > 0, "phase {} measured nothing in a serial run", phase.label());
        assert!(delta.count(phase) > 0, "phase {} recorded no intervals", phase.label());
    }
    assert_eq!(delta.nanos(Phase::Merge), 0, "the serial kernel has no merge phase");
    let total_ms = delta.total_nanos() as f64 / 1e6;
    assert!(
        total_ms <= wall_ms,
        "phase total {total_ms:.1}ms exceeds the section wall clock {wall_ms:.1}ms"
    );
    assert!(
        total_ms >= 0.05 * wall_ms,
        "phase total {total_ms:.1}ms is implausibly small next to {wall_ms:.1}ms of wall clock"
    );
    // The residual — wall clock no phase claimed (machine construction,
    // finalisation) — is what `profile_other_ms` records in bench
    // trajectories; it must be the non-negative remainder of the two
    // quantities asserted above.
    let other_ms = (wall_ms - total_ms).max(0.0);

    // 3. The epoch-parallel kernel's merge phase accumulates (and stays
    // byte-identical while profiled, like every kernel).
    let epoch_start = profile.snapshot();
    let epoch = run_once(2);
    let epoch_delta = profile.snapshot().delta(&epoch_start);
    assert_eq!(off, epoch, "the profiled epoch kernel must stay byte-identical");
    assert!(
        epoch_delta.count(Phase::Merge) > 0,
        "the epoch kernel's merge phase recorded no intervals"
    );

    println!("{}", delta.report());
    println!(
        "profile smoke passed: byte-identical on/off, all serial phases non-zero, \
         phase total {total_ms:.1}ms within {wall_ms:.1}ms wall clock \
         ({other_ms:.1}ms residual outside every phase), epoch merge measured"
    );
}
