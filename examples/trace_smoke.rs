//! Telemetry smoke: the trace layer's two invariants at CI scale.
//!
//! 1. **Tracing is invisible** — a traced run's [`MachineResult`] is
//!    byte-identical (structurally and re-encoded) to the untraced run, on
//!    both the serial event-driven kernel and the epoch-parallel kernel.
//! 2. **The stream is kernel-invariant** — the JSONL trace exported through
//!    the store codec is byte-identical across all five kernel modes
//!    (dense / event-driven / epoch-parallel at 1, 2 and 4 threads).
//!
//! ```text
//! IFENCE_TRACE=1 cargo run --release --example trace_smoke
//! ```
//!
//! The `IFENCE_TRACE=1` in the invocation is the CI leg's point: when the
//! variable is set, the example additionally asserts that the *environment*
//! path collects events on a machine whose config never asked for tracing —
//! the same override the `ifence` CLI documents. Without the variable the
//! example still runs the two invariants above.

use ifence_sim::{Machine, MachineResult};
use ifence_stats::MachineTrace;
use ifence_store::{trace_to_jsonl, JsonCodec};
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::presets;

const MODES: [(&str, bool, usize); 5] = [
    // (label, dense_kernel, machine_threads)
    ("dense", true, 1),
    ("event", false, 1),
    ("epoch-1", false, 1),
    ("epoch-2", false, 2),
    ("epoch-4", false, 4),
];

fn run(
    engine: EngineKind,
    mode: (&str, bool, usize),
    trace: bool,
    instrs: usize,
) -> (MachineResult, MachineTrace) {
    let (_, dense, threads) = mode;
    let mut cfg = MachineConfig::small_test(engine);
    cfg.dense_kernel = dense;
    cfg.machine_threads = threads;
    cfg.trace = trace;
    let programs = presets::apache().generate(cfg.cores, instrs, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result_with_trace(u64::MAX)
}

fn main() {
    let instrs = std::env::var("IFENCE_INSTRS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_500);
    let engine = EngineKind::InvisiSelective(ConsistencyModel::Sc);
    let env_trace_on = matches!(std::env::var("IFENCE_TRACE").as_deref(), Ok("1"));

    // 1. Tracing must not change a single simulated result — serial
    // event-driven and epoch-parallel both. (Under IFENCE_TRACE=1 the "untraced" runs are
    // env-traced too, which only strengthens the check: the comparison is
    // then traced-vs-traced against the explicitly traced config.)
    let (untraced, env_stream) = run(engine, MODES[1], false, instrs);
    assert!(untraced.finished, "smoke workload must finish");
    if env_trace_on {
        assert!(
            !env_stream.events.is_empty(),
            "IFENCE_TRACE=1 must enable collection without a config change"
        );
    } else {
        assert!(env_stream.events.is_empty(), "untraced runs must collect nothing");
    }
    let (traced, reference) = run(engine, MODES[1], true, instrs);
    assert_eq!(untraced, traced, "tracing changed the simulated result (serial kernel)");
    assert_eq!(
        untraced.to_json().encode(),
        traced.to_json().encode(),
        "tracing changed the encoded result"
    );
    let (epoch_untraced, _) = run(engine, MODES[4], false, instrs);
    let (epoch_traced, _) = run(engine, MODES[4], true, instrs);
    assert_eq!(untraced, epoch_untraced, "epoch kernel diverged untraced");
    assert_eq!(untraced, epoch_traced, "tracing changed the simulated result (epoch kernel)");
    assert_eq!(reference.dropped, 0, "the smoke scale must trace losslessly");
    assert!(!reference.events.is_empty(), "traced smoke run collected no events");

    // 2. The JSONL stream is byte-identical across all five kernel modes.
    let reference_jsonl = trace_to_jsonl(&reference);
    for mode in MODES {
        let (result, stream) = run(engine, mode, true, instrs);
        assert_eq!(untraced, result, "{} traced result diverges", mode.0);
        assert_eq!(
            trace_to_jsonl(&stream),
            reference_jsonl,
            "{} trace stream diverges from the event-driven reference",
            mode.0
        );
    }

    println!(
        "trace smoke passed: byte-identical results traced/untraced (serial + epoch), \
         {} event(s) byte-identical across all {} kernel modes{}",
        reference.events.len(),
        MODES.len(),
        if env_trace_on { ", env override collects" } else { "" }
    );
}
