//! The repository benchmark: how fast the simulator runs the paper's 16-core
//! machine (Fig. 6), end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload apache-sc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Everything runs in one process on one thread (`machine_threads = 1`, no
//! sweep workers). Caches start empty: the model is not warmed, so Apache's
//! L2 misses are nearly all cold misses, identical for every engine. The
//! repository holds no reference results for its synthetic traces, so the
//! model is unvalidated and no error figure is reported.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it give
//! the git revision, the result digest and the raw timings.
//!
//! # Workloads
//!
//! Each is one cell, run for [`INSTRUCTIONS_PER_CORE`] instructions per core
//! with traces generated from `--seed`:
//!
//! | workload | cell | why |
//! |---|---|---|
//! | `apache-sc` | Apache, conventional SC | lock-heavy write sharing gives the heaviest coherence traffic and no speculation; the only cell whose engine takes the leap/epoch-merge route by default |
//! | `apache-invisi` | Apache, InvisiFence-Selective-SC | the same L2 misses as `apache-sc`, but about half of the program is squashed and re-fetched, so the engine and rollback layers do most of their work here; never takes the leap route |
//! | `barnes-cov` | Barnes, InvisiFence-Continuous with commit-on-violate | mostly private, read-heavy, few aborts, smallest fabric share: the core pipeline dominates, the control on which fabric or rollback changes should not move |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Measured on the public path, `Machine::from_sources(..).into_result(..)`,
//! with tracing and the phase profiler off, after one warm-up run.
//!
//! Simulation times are normalized to a quiet host: between consecutive runs
//! a fixed, memory-bound probe ([`hostspeed`]) measures how much slower than
//! uncontended the host is at that moment, and each `into_result` time is
//! divided by the mean factor of the probes on either side of it. On a
//! shared host other tenants slow the simulator by up to 2× for minutes at a
//! time, far past any useful regression bound; the probe slows with it and
//! cancels most of that drift. The raw times and the factors are printed on
//! the line before the result.
//!
//! * `sim_mips` — program instructions (`instructions_per_core × cores`) per
//!   normalized second of `into_result`, over the median run among those
//!   that fit in `--seconds`. Retired instructions would count squashed
//!   speculative retirements, so more aborts would look like more
//!   throughput.
//! * `setup_s` — median time of trace-source construction plus
//!   `Machine::from_sources`, over the set-ups of the timed runs. Each run
//!   sets up its own machine, so the samples span the whole window rather
//!   than one burst that a moment of host noise could cover. Set-up is not
//!   normalized: it allocates small structures rather than walking a large
//!   working set, and while the probe's factor ranged from 1.2 to 2.5 the
//!   raw set-up median moved far less, so dividing by the factor made it
//!   noisier.
//! * `peak_rss_mb` — the process's peak resident memory (`VmHWM`) after the
//!   warm-up run, before the probe allocates; streaming traces keep it
//!   small.
//! * `sim_cycles` — simulated cycles, exact; a speed-only change must leave
//!   it unchanged.
//! * `pass_rate` — runs that passed the correctness gate / runs attempted,
//!   i.e. one minus the error rate (`failed / attempted` in the JSON line).
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A separate run drives the same machine through [`replica`], a copy of the
//! serial event kernel loop that times every call into a layer from outside
//! the program. Times are medians over the traced runs that fit in
//! `--seconds`; counts are exact. Before measuring, this is what each
//! per-layer metric should move:
//!
//! | metric | mostly moves |
//! |---|---|
//! | `coherence.{step_ms, request_ms, respond_ms, step_calls, requests, replies, busy_retries, queue_depth_mean}`, `coherence.deliveries.{fill, invalidate, downgrade}` | `sim_mips` on apache-sc and apache-invisi; little on barnes-cov |
//! | `cpu.{handle_delivery_ms, handle_delivery_calls}` | `sim_mips` on apache-sc |
//! | `cpu.{step_ms, step_calls, ns_per_step}` | `sim_mips` on barnes-cov and apache-invisi |
//! | `workloads.{fetch_ms, fetches, refetch_ratio}` | `sim_mips` on apache-invisi; about nothing on apache-sc |
//! | `invisifence.{speculations, abort_ratio, squashed_instrs, cov_deferrals, spec_cycle_share}` | `sim_cycles` and `sim_mips` on apache-invisi and barnes-cov; zero on apache-sc |
//! | `sim.{stepped_cycles, jumps, mean_jump_cycles, core_steps, core_sleep_ratio, loop_self_ms}` | `sim_mips` on all three |
//! | `profile.{core_step_ms, fabric_step_ms, delivery_routing_ms, merge_ms}` | `profile.merge_ms` moves `sim_mips` on apache-sc only |
//! | `mem.{l1_miss_ratio, l2_miss_ratio, sb_forwards, l2_miss_latency_mean}` | `sim_cycles` only |
//!
//! `cpu.step_ms` includes `workloads.fetch_ms`, which is nested inside it.
//! `sim.loop_self_ms` is the replica's own time: its wall time minus every
//! top-level layer call. The `profile.*` figures come from the program's
//! own phase profiler on one extra run of the default kernel route.
//!
//! The tracing overhead is `sim.tracing_overhead`: the traced replica's wall
//! time (`sim.traced_ms`) over the same replica with its timers compiled out
//! (`sim.untraced_ms`).
//!
//! # Correctness gate
//!
//! A run fails, and counts in `failed`, if it did not finish or deadlocked;
//! if the machine resolved its dense, batch or leap kernel, its thread count,
//! the phase profiler or event tracing differently from the configuration
//! defaults (a stray `IFENCE_DENSE`, `IFENCE_BATCH`, `IFENCE_LEAP`,
//! `IFENCE_THREADS`, `IFENCE_PROFILE` or `IFENCE_TRACE` would change the
//! program being measured); if its result digest differs from the first run
//! of its set; or if a replica's result differs from `into_result`.
//!
//! The digest is FNV-1a over the store's canonical JSON encoding of
//! `MachineResult`, computed outside the timed region. A speed-only change
//! proves it changed no simulated output by leaving the digest unchanged.

mod gitrev;
mod hostspeed;
mod replica;

use ifence_sim::{ExperimentParams, Machine, MachineResult};
use ifence_stats::{Phase, PhaseProfile, ProfileSnapshot, SimCounters};
use ifence_store::{Json, JsonCodec};
use ifence_types::{fnv1a, BoxedSource, ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::{presets, Workload};
use replica::{LayerCounts, LayerTimes};
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Trace length per core of every workload.
pub const INSTRUCTIONS_PER_CORE: usize = 50_000;
/// Timed `into_result` runs made even when `--seconds` has already elapsed.
const MIN_TIMED_RUNS: usize = 3;

/// The workload names `--workload` accepts.
const WORKLOADS: [&str; 3] = ["apache-sc", "apache-invisi", "barnes-cov"];

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 0 {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

fn millis(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// One benchmark workload: a trace, an engine and the run parameters.
struct Cell {
    workload: Workload,
    engine: EngineKind,
    params: ExperimentParams,
}

impl Cell {
    /// The named workload on the paper's 16-core machine.
    fn paper(name: &str, seed: u64) -> Option<Cell> {
        let params = ExperimentParams {
            instructions_per_core: INSTRUCTIONS_PER_CORE,
            seed,
            machine_threads: 1,
            ..ExperimentParams::default()
        };
        Cell::with_params(name, params)
    }

    fn with_params(name: &str, params: ExperimentParams) -> Option<Cell> {
        let (spec, engine) = match name {
            "apache-sc" => (presets::apache(), EngineKind::Conventional(ConsistencyModel::Sc)),
            "apache-invisi" => {
                (presets::apache(), EngineKind::InvisiSelective(ConsistencyModel::Sc))
            }
            "barnes-cov" => {
                (presets::barnes(), EngineKind::InvisiContinuous { commit_on_violate: true })
            }
            _ => return None,
        };
        Some(Cell { workload: spec.into(), engine, params })
    }

    fn config(&self) -> MachineConfig {
        self.params.config_for(self.engine)
    }

    fn sources(&self, cfg: &MachineConfig) -> Vec<BoxedSource> {
        self.workload.sources(cfg.cores, self.params.instructions_per_core, self.params.seed)
    }

    fn machine(&self) -> Machine {
        let cfg = self.config();
        let sources = self.sources(&cfg);
        Machine::from_sources(cfg, sources).expect("the benchmark configuration is valid")
    }

    fn program_instructions(&self) -> u64 {
        (self.params.instructions_per_core * self.config().cores) as u64
    }

    fn describe(&self) -> String {
        let cfg = self.config();
        format!(
            "program={} engine={} cores={} instrs_per_core={} seed={}",
            self.workload.name(),
            self.engine.label(),
            cfg.cores,
            self.params.instructions_per_core,
            self.params.seed
        )
    }
}

/// FNV-1a over the store's canonical JSON encoding of `result`.
fn digest(result: &MachineResult) -> u64 {
    fnv1a(result.to_json().encode().as_bytes())
}

/// Runs attempted and failed, for the correctness gate.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one run, failed when it has any problem (each is reported on
    /// standard error).
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for problem in problems {
                eprintln!("FAIL {what}: {problem}");
            }
        }
    }
}

/// Ways `machine` resolved its kernel differently from the defaults of its
/// configuration (environment overrides), plus an unexpected profiler or
/// tracing state.
fn kernel_problems(machine: &Machine, profiling: bool) -> Vec<String> {
    let defaults = MachineConfig::with_engine(machine.config().engine);
    let cores = machine.config().cores;
    let any_leap_core = (0..cores).any(|i| machine.core(i).leap_transparent());
    let expect_leap = defaults.leap_kernel && defaults.batch_kernel && any_leap_core;
    let mut problems = Vec::new();
    let mut check = |what: &str, got: String, want: String| {
        if got != want {
            problems.push(format!("{what} resolved to {got}, the default is {want}"));
        }
    };
    check("dense kernel", machine.dense_kernel().to_string(), defaults.dense_kernel.to_string());
    check("batch kernel", machine.batch_kernel().to_string(), defaults.batch_kernel.to_string());
    check("leap kernel", machine.leap_kernel().to_string(), expect_leap.to_string());
    check(
        "machine threads",
        machine.machine_threads().to_string(),
        defaults.machine_threads.to_string(),
    );
    check("phase profiler", PhaseProfile::global().enabled().to_string(), profiling.to_string());
    check(
        "event tracing",
        machine.core(0).stats().trace.is_enabled().to_string(),
        defaults.trace.to_string(),
    );
    problems
}

/// Problems with a finished run's `result` against the first run's digest.
fn result_problems(result: &MachineResult, reference: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if result.deadlocked {
        problems.push(format!("deadlocked: {:?}", result.deadlock_diagnostic));
    } else if !result.finished {
        problems.push(format!("did not finish within {} cycles", result.cycles));
    }
    let got = digest(result);
    if got != reference {
        problems.push(format!("digest {got:#018x} differs from the first run's {reference:#018x}"));
    }
    problems
}

/// The untimed first run of a set: warms the process up and fixes the
/// reference result and digest.
fn reference_run(cell: &Cell, tally: &mut Tally) -> (MachineResult, u64) {
    let machine = cell.machine();
    let mut problems = kernel_problems(&machine, false);
    let result = machine.into_result(cell.params.max_cycles);
    let reference = digest(&result);
    problems.extend(result_problems(&result, reference));
    tally.record("reference run", problems);
    println!(
        "result digest={reference:#018x} cycles={} finished={}",
        result.cycles, result.finished
    );
    (result, reference)
}

/// What the end-to-end run measured.
#[derive(Debug, Clone)]
struct EndToEnd {
    program_instructions: u64,
    /// Median normalized `into_result` time, seconds.
    run_s: f64,
    /// Median set-up time, seconds.
    setup_s: f64,
    peak_rss_mb: f64,
    sim_cycles: u64,
}

fn end_to_end_metrics(e: &EndToEnd, tally: &Tally) -> Vec<Metric> {
    vec![
        metric("sim_mips", ratio(e.program_instructions as f64, e.run_s) / 1e6, "MIPS"),
        metric("setup_s", e.setup_s, "s"),
        metric("peak_rss_mb", e.peak_rss_mb, "MB"),
        metric("sim_cycles", e.sim_cycles as f64, "cycles"),
        metric("pass_rate", 1.0 - ratio(tally.failed as f64, tally.attempted as f64), "ratio"),
    ]
}

/// After a warm-up run, times set-up and `into_result` of fresh machines
/// for `seconds` (at least [`MIN_TIMED_RUNS`] runs), with tracing and the
/// profiler off. A host-speed probe runs before the first machine and after
/// each one; each `into_result` time is divided by the mean slowdown of the
/// probes on either side of it.
fn measure_end_to_end(cell: &Cell, seconds: u64, tally: &mut Tally) -> Result<EndToEnd, String> {
    let (result, reference) = reference_run(cell, tally);
    // Read before the probe allocates, so that only the simulator counts.
    let peak_rss_mb = peak_rss_mb()?;
    let mut probe = hostspeed::Probe::new();
    let mut before = probe.slowdown();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut setups, mut runs, mut raw_runs, mut factors) = (vec![], vec![], vec![], vec![]);
    while runs.len() < MIN_TIMED_RUNS || Instant::now() < deadline {
        let started = Instant::now();
        let machine = black_box(cell.machine());
        let setup_s = started.elapsed().as_secs_f64();
        let mut problems = kernel_problems(&machine, false);
        let started = Instant::now();
        let run = machine.into_result(cell.params.max_cycles);
        let run_s = started.elapsed().as_secs_f64();
        let after = probe.slowdown();
        let factor = (before + after) / 2.0;
        before = after;
        setups.push(setup_s);
        runs.push(run_s / factor);
        raw_runs.push(run_s);
        factors.push(factor);
        problems.extend(result_problems(&run, reference));
        tally.record("timed run", problems);
    }
    println!(
        "into_result runs={} raw_min_s={:.6} raw_median_s={:.6} normalized_median_s={:.6} \
         host_slowdown min={:.3} median={:.3} max={:.3}",
        runs.len(),
        raw_runs.iter().copied().fold(f64::INFINITY, f64::min),
        median(raw_runs),
        median(runs.clone()),
        factors.iter().copied().fold(f64::INFINITY, f64::min),
        median(factors.clone()),
        factors.iter().copied().fold(0.0, f64::max),
    );
    Ok(EndToEnd {
        program_instructions: cell.program_instructions(),
        run_s: median(runs),
        setup_s: median(setups),
        peak_rss_mb,
        sim_cycles: result.cycles,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What the traced runs measured.
#[derive(Debug, Clone)]
struct Layers {
    program_instructions: u64,
    result: MachineResult,
    counts: LayerCounts,
    /// Median per-layer times over the traced runs.
    times: LayerTimes,
    /// Median wall time of the untimed replica, nanoseconds.
    untraced: u64,
    profile: ProfileSnapshot,
}

fn per_layer_metrics(l: &Layers) -> Vec<Metric> {
    let c = &l.counts;
    let t = &l.times;
    let mut counters = SimCounters::new();
    let mut core_cycles = 0;
    for core in &l.result.per_core {
        counters.merge(&core.counters);
        core_cycles += core.breakdown.total();
    }
    let fabric = &l.result.fabric;
    let hists = &l.result.histograms;
    let count = |n: u64| n as f64;
    vec![
        metric("coherence.step_ms", millis(t.fabric_step), "ms"),
        metric("coherence.request_ms", millis(t.request), "ms"),
        metric("coherence.respond_ms", millis(t.respond), "ms"),
        metric("coherence.step_calls", count(c.fabric_steps), "count"),
        metric("coherence.requests", count(c.requests), "count"),
        metric("coherence.replies", count(c.replies), "count"),
        metric("coherence.busy_retries", count(fabric.busy_retries), "count"),
        metric("coherence.queue_depth_mean", hists.fabric_queue_depth.mean(), "events"),
        metric("coherence.deliveries.fill", count(c.fills), "count"),
        metric("coherence.deliveries.invalidate", count(c.invalidates), "count"),
        metric("coherence.deliveries.downgrade", count(c.downgrades), "count"),
        metric("cpu.handle_delivery_ms", millis(t.handle_delivery), "ms"),
        metric("cpu.handle_delivery_calls", count(c.handle_delivery_calls), "count"),
        metric("cpu.step_ms", millis(t.core_step), "ms"),
        metric("cpu.step_calls", count(c.core_steps), "count"),
        metric("cpu.ns_per_step", ratio(t.core_step as f64, c.core_steps as f64), "ns"),
        metric("workloads.fetch_ms", millis(t.fetch), "ms"),
        metric("workloads.fetches", count(c.fetches), "count"),
        metric(
            "workloads.refetch_ratio",
            ratio(c.fetches as f64, l.program_instructions as f64),
            "ratio",
        ),
        metric("invisifence.speculations", count(counters.speculations_started), "count"),
        metric("invisifence.abort_ratio", counters.abort_ratio(), "ratio"),
        metric("invisifence.squashed_instrs", count(counters.instructions_squashed), "count"),
        metric("invisifence.cov_deferrals", count(counters.cov_deferrals), "count"),
        metric(
            "invisifence.spec_cycle_share",
            ratio(counters.cycles_speculating as f64, core_cycles as f64),
            "ratio",
        ),
        metric("sim.stepped_cycles", count(c.stepped_cycles), "cycles"),
        metric("sim.jumps", count(c.jumps), "count"),
        metric("sim.mean_jump_cycles", ratio(c.jumped_cycles as f64, c.jumps as f64), "cycles"),
        metric("sim.core_steps", count(c.core_steps), "count"),
        metric(
            "sim.core_sleep_ratio",
            1.0 - ratio(
                c.core_steps as f64,
                (l.result.per_core.len() as u64 * l.result.cycles) as f64,
            ),
            "ratio",
        ),
        metric("sim.loop_self_ms", millis(t.loop_self()), "ms"),
        metric("sim.traced_ms", millis(t.total), "ms"),
        metric("sim.untraced_ms", millis(l.untraced), "ms"),
        metric("sim.tracing_overhead", ratio(t.total as f64, l.untraced as f64), "ratio"),
        metric("profile.core_step_ms", l.profile.millis(Phase::CoreStep), "ms"),
        metric("profile.fabric_step_ms", l.profile.millis(Phase::FabricStep), "ms"),
        metric("profile.delivery_routing_ms", l.profile.millis(Phase::DeliveryRouting), "ms"),
        metric("profile.merge_ms", l.profile.millis(Phase::Merge), "ms"),
        metric("mem.l1_miss_ratio", counters.l1_miss_ratio(), "ratio"),
        metric("mem.l2_miss_ratio", fabric.l2_miss_ratio(), "ratio"),
        metric("mem.sb_forwards", count(counters.sb_forwards), "count"),
        metric("mem.l2_miss_latency_mean", hists.l2_miss_latency.mean(), "cycles"),
    ]
}

/// Problems with a replica run against the reference result.
fn replica_problems(
    trace: &replica::Trace,
    reference: &MachineResult,
    digest_ref: u64,
) -> Vec<String> {
    let mut problems = result_problems(&trace.result, digest_ref);
    if trace.result != *reference {
        problems.push("replica result differs from Machine::into_result".to_string());
    }
    problems
}

/// Alternates traced and untimed replica runs for `seconds` (at least one
/// pair), then makes one profiled run of the default kernel route.
fn measure_layers(cell: &Cell, seconds: u64, tally: &mut Tally) -> Layers {
    let (reference, digest_ref) = reference_run(cell, tally);
    let cfg = cell.config();
    let max_cycles = cell.params.max_cycles;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut counts = None;
    while traced.is_empty() || Instant::now() < deadline {
        let run = replica::run::<true>(&cfg, cell.sources(&cfg), max_cycles)
            .expect("the benchmark configuration is valid");
        let mut problems = replica_problems(&run, &reference, digest_ref);
        if *counts.get_or_insert(run.counts) != run.counts {
            problems.push("replica call counts differ between runs".to_string());
        }
        tally.record("traced replica", problems);
        traced.push(run.times);
        let run = replica::run::<false>(&cfg, cell.sources(&cfg), max_cycles)
            .expect("the benchmark configuration is valid");
        let mut problems = replica_problems(&run, &reference, digest_ref);
        if counts != Some(run.counts) {
            problems.push("untimed replica call counts differ from the traced run".to_string());
        }
        tally.record("untimed replica", problems);
        untraced.push(run.times.total as f64);
    }
    let profiler = PhaseProfile::global();
    profiler.set_enabled(true);
    let before = profiler.snapshot();
    let machine = cell.machine();
    let mut problems = kernel_problems(&machine, true);
    let profiled = machine.into_result(max_cycles);
    let profile = profiler.snapshot().delta(&before);
    profiler.set_enabled(false);
    problems.extend(result_problems(&profiled, digest_ref));
    tally.record("profiled run", problems);
    println!("replica runs traced={} untimed={}", traced.len(), untraced.len());
    let med = |field: fn(&LayerTimes) -> u64| {
        median(traced.iter().map(|t| field(t) as f64).collect()) as u64
    };
    let times = LayerTimes {
        core_step: med(|t| t.core_step),
        handle_delivery: med(|t| t.handle_delivery),
        fabric_step: med(|t| t.fabric_step),
        request: med(|t| t.request),
        respond: med(|t| t.respond),
        fetch: med(|t| t.fetch),
        total: med(|t| t.total),
    };
    Layers {
        program_instructions: cell.program_instructions(),
        result: reference,
        counts: counts.expect("at least one traced run"),
        times,
        untraced: median(untraced) as u64,
        profile,
    }
}

/// The final output line.
fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Json::Object(vec![
                ("value".to_string(), Json::Float(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    Json::Object(vec![
        ("correct".to_string(), Json::Bool(tally.failed == 0)),
        ("attempted".to_string(), Json::UInt(tally.attempted)),
        ("failed".to_string(), Json::UInt(tally.failed)),
        ("metrics".to_string(), Json::Object(metrics)),
    ])
    .encode()
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <apache-sc|apache-invisi|barnes-cov> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value:?}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cell = Cell::paper(&args.workload, args.seed).expect("workload names are validated");
    let revision = gitrev::revision(Path::new(".")).unwrap_or_else(|| "unknown".to_string());
    let mode = if args.trace { "per-layer" } else { "end-to-end" };
    println!("perfbench rev={revision} workload={} mode={mode} {}", args.workload, cell.describe());
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer_metrics(&measure_layers(&cell, args.seconds, &mut tally))
    } else {
        match measure_end_to_end(&cell, args.seconds, &mut tally) {
            Ok(e2e) => end_to_end_metrics(&e2e, &tally),
            Err(message) => {
                eprintln!("perfbench: {message}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "rev={revision} attempted={} failed={} error_rate={}",
        tally.attempted,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64)
    );
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// `(name, unit)` of every metric BENCHMARK.json declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let Some(Json::Array(items)) = doc.field(key) else { panic!("no {key} array") };
        let text = |item: &Json, field: &str| match item.field(field) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key} entry field {field}: {other:?}"),
        };
        items.iter().map(|item| (text(item, "name"), text(item, "unit"))).collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    /// One small end-to-end and one small traced measurement on the 4-core
    /// quick machine, so the whole pipeline runs under test. A single test
    /// makes both because the profiled run switches the process-global
    /// profiler on.
    #[test]
    fn measurements_pass_the_gate_and_emit_the_declared_metrics() {
        for name in WORKLOADS {
            let cell = Cell::with_params(name, ExperimentParams::quick_test()).expect("known");
            let mut tally = Tally::default();
            let e2e = measure_end_to_end(&cell, 0, &mut tally).expect("Linux exposes VmHWM");
            assert_eq!((tally.failed, tally.attempted), (0, 1 + MIN_TIMED_RUNS as u64), "{name}");
            let metrics = end_to_end_metrics(&e2e, &tally);
            assert!(metrics.iter().all(|m| m.value > 0.0), "{name}: {metrics:?}");
            assert_eq!(emitted(&metrics), declared("end_to_end"));

            let mut tally = Tally::default();
            let layers = measure_layers(&cell, 0, &mut tally);
            assert_eq!((tally.failed, tally.attempted), (0, 4), "{name}");
            assert!(!PhaseProfile::global().enabled(), "the profiler is switched back off");
            let metrics = per_layer_metrics(&layers);
            assert_eq!(emitted(&metrics), declared("per_layer"));
            assert!(metrics.iter().all(|m| m.value.is_finite() && m.value >= 0.0));
            let line = result_line(&tally, &metrics);
            assert!(Json::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> = declared("end_to_end")
            .into_iter()
            .chain(declared("per_layer"))
            .map(|(n, _)| n)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
        assert!(!valid_name("sim mips") && !valid_name("") && !valid_name("a/b"));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_string));
        let args = parse("--workload barnes-cov --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(args, Args { workload: "barnes-cov".into(), seed: 7, seconds: 10, trace: true });
        assert!(parse("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload apache-sc --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload apache-sc --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload apache-sc --seed 1 --seconds 10").is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
