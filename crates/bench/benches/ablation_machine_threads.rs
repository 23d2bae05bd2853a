//! Ablation: wall-clock scaling of the deterministic epoch-parallel machine
//! kernel — one simulated machine's cores partitioned across 1/2/4/8 worker
//! threads, with all other knobs fixed.
//!
//! Every thread count simulates the identical machine and produces
//! byte-identical results (asserted here and in
//! `tests/kernel_equivalence.rs`); only the wall-clock time differs. The
//! speedup ceiling is set by the epoch length the coherence fabric can
//! prove interaction-free (`next_interaction_bound`): paper-scale latencies
//! (8-cycle directory occupancy, 100-cycle torus hops) give each worker
//! hundreds of core-cycles of independent work per barrier crossing, so the
//! kernel scales until the host runs out of hardware threads — on a
//! single-hardware-thread host the extra workers only add barrier overhead
//! and every ratio flattens to ≤1, which is expected and honest.
//!
//! Each thread count appends its own `BENCH_results.json` row (detail
//! "1 thread" / "2 threads" / …, plus a structured `machine_threads` field
//! so consumers can filter numerically), so the scaling trajectory is
//! tracked per count across invocations. `IFENCE_THREADS` overrides the config at
//! machine construction and would collapse all counts into one — the bench
//! refuses to run under it rather than record meaningless ratios.

use ifence_bench::{paper_params, print_header, BenchRun};
use ifence_stats::ColumnTable;
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::presets;
use std::time::Instant;

/// Repetitions per cell (minimum taken): wall-clock comparisons on a shared
/// machine need more than one sample per point.
fn reps() -> usize {
    std::env::var("IFENCE_BENCH_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3).max(1)
}

fn timed_run(
    engine: EngineKind,
    threads: usize,
    params: &ifence_sim::ExperimentParams,
    workload: &ifence_workloads::WorkloadSpec,
) -> (u64, f64) {
    let mut cycles = 0;
    let mut best = f64::INFINITY;
    for rep in 0..reps() {
        let mut cfg = MachineConfig::with_engine(engine);
        cfg.seed = params.seed;
        cfg.machine_threads = threads;
        let programs = workload.generate(cfg.cores, params.instructions_per_core, params.seed);
        let machine = ifence_sim::Machine::new(cfg, programs).expect("valid config");
        let start = Instant::now();
        let result = machine.into_result(params.max_cycles);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert!(result.finished, "{}: run did not finish", engine.label());
        if rep == 0 {
            cycles = result.cycles;
        } else {
            assert_eq!(cycles, result.cycles, "{}: cycles differ across reps", engine.label());
        }
        best = best.min(elapsed);
    }
    (cycles, best)
}

fn main() {
    if std::env::var("IFENCE_THREADS").is_ok() {
        eprintln!(
            "ablation_machine_threads: IFENCE_THREADS is set, which overrides every \
             configured thread count and would collapse the ablation into one point; \
             unset it and re-run."
        );
        return;
    }
    let params = paper_params();
    let _run = print_header(
        "Ablation",
        "epoch-parallel machine kernel: intra-machine worker threads 1/2/4/8",
        &params,
    );
    let host = ifence_sim::available_jobs();
    let workload = presets::apache();
    let engines = [
        EngineKind::Conventional(ConsistencyModel::Sc),
        EngineKind::InvisiSelective(ConsistencyModel::Sc),
    ];
    let thread_counts = [1usize, 2, 4, 8];
    // Timed serially (never through the parallel sweep): concurrent cells
    // would contend for cores and corrupt the wall-clock comparison. Count
    // by count, so each count's trajectory row times exactly its own runs.
    let mut measured = vec![Vec::new(); engines.len()];
    for &threads in &thread_counts {
        let detail = format!("{threads} thread{}", if threads == 1 { "" } else { "s" });
        let _count_run = BenchRun::start("ablation_machine_threads", &detail, &params)
            .with_u64("machine_threads", threads as u64);
        for (i, engine) in engines.iter().enumerate() {
            measured[i].push(timed_run(*engine, threads, &params, &workload));
        }
    }
    let mut table = ColumnTable::new([
        "engine", "cycles", "1T ms", "2T ms", "4T ms", "8T ms", "2T vs 1T", "4T vs 1T", "8T vs 1T",
    ]);
    for (engine, runs) in engines.iter().zip(&measured) {
        let [(serial_cycles, serial_ms), (_, t2_ms), (_, t4_ms), (_, t8_ms)] = runs[..] else {
            unreachable!("four thread counts per engine");
        };
        for (threads, &(cycles, _)) in thread_counts.iter().zip(&runs[..]) {
            assert_eq!(
                serial_cycles,
                cycles,
                "{}: {threads}-thread kernel disagrees on simulated cycles",
                engine.label()
            );
        }
        table.push_row([
            engine.label(),
            serial_cycles.to_string(),
            format!("{serial_ms:.1}"),
            format!("{t2_ms:.1}"),
            format!("{t4_ms:.1}"),
            format!("{t8_ms:.1}"),
            format!("{:.2}x", serial_ms / t2_ms.max(1e-9)),
            format!("{:.2}x", serial_ms / t4_ms.max(1e-9)),
            format!("{:.2}x", serial_ms / t8_ms.max(1e-9)),
        ]);
    }
    println!("{table}");
    println!(
        "(speedups are wall-clock ratios against the 1-thread serial kernel; simulated results \
         are byte-identical at every thread count — this host exposes {host} hardware \
         thread{}, so counts beyond that only measure barrier overhead)",
        if host == 1 { "" } else { "s" }
    );
}
