//! `ifence` — the workspace's command-line driver.
//!
//! Makes the whole evaluation drivable without editing examples: sweeps and
//! figure regeneration run through the persistent experiment store (resume
//! after interruption; warm re-runs are pure cache hits), stored sweeps can
//! be re-rendered (`report`) and compared (`diff`), and the litmus suite is
//! one command away.
//!
//! ```text
//! ifence figures [--figure all|ID] [--workloads Barnes,Apache] [common options]
//! ifence sweep --engines sc,Invisi_rmo [--workloads Barnes,Apache] [--name NAME]
//! ifence litmus [--iterations N]
//! ifence report [<name>]
//! ifence diff <name-a> <name-b> [--threshold PCT] [--against DIR]
//! ifence trace record [--engine LABEL] [--workloads NAME] [--out FILE]
//! ifence trace summarize [FILE]
//! ifence trace filter FILE [--kind K] [--core N] [--cycles A..B] [--out FILE]
//! ifence trace diff FILE_A FILE_B
//!
//! common options:
//!   --store DIR    experiment store root   (default: $IFENCE_STORE or .ifence-store)
//!   --no-store     run without caching
//!   --instrs N     instructions per core   (default: $IFENCE_INSTRS or 100000)
//!   --seed N       workload seed           (default: $IFENCE_SEED or built-in)
//!   --jobs N       sweep worker threads    (default: $IFENCE_JOBS or cores)
//!   --quick        reduced 4-core test machine with short traces
//! ```
//!
//! Exit codes: 0 success; 1 usage or I/O error; 2 `diff` found regressions
//! beyond the threshold, `litmus` observed a forbidden outcome, or
//! `trace diff` found diverging streams.

use ifence_sim::figures::{run_figures, select_figures, FigureContext, SECTIONS};
use ifence_sim::sweep::{engine_configs, manifest_for_grid, ExperimentMatrix};
use ifence_sim::{run_litmus, ExperimentParams, Machine};
use ifence_stats::{ColumnTable, MachineTrace, PhaseProfile, TraceKind};
use ifence_store::{diff_sweeps, trace_from_jsonl, trace_to_jsonl, ExperimentStore};
use ifence_types::EngineKind;
use ifence_workloads::{presets, LitmusKind, LitmusTest, Workload};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ifence: {message}");
            1
        }
    });
}

const USAGE: &str = "usage: ifence <command> [options]

commands:
  figures   regenerate the paper's figures (cached & resumable with a store)
  sweep     run a custom (engines x workloads) grid and store it by name
  litmus    run the litmus suite across every ordering engine
  report    re-render a stored sweep's tables without simulating
  diff      compare two stored sweeps and flag deltas beyond a threshold
  trace     record, summarize, filter and diff structured trace streams

common options:
  --store DIR   experiment store root (default: $IFENCE_STORE or .ifence-store)
  --no-store    disable the result cache for this run
  --instrs N    instructions per core
  --seed N      workload-generation seed
  --jobs N      sweep worker threads
  --quick       reduced 4-core test machine with short traces

run `ifence <command> --help` for command-specific options.";

/// Everything parsed from the command line.
struct Cli {
    command: String,
    positional: Vec<String>,
    store_dir: Option<PathBuf>,
    no_store: bool,
    instrs: Option<usize>,
    seed: Option<u64>,
    jobs: Option<usize>,
    quick: bool,
    engines: Option<String>,
    workloads: Option<String>,
    name: Option<String>,
    figure: Option<String>,
    threshold: Option<f64>,
    against: Option<PathBuf>,
    iterations: Option<usize>,
    engine: Option<String>,
    kind: Option<String>,
    core: Option<u32>,
    cycles: Option<String>,
    out: Option<PathBuf>,
    help: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            command: String::new(),
            positional: Vec::new(),
            store_dir: None,
            no_store: false,
            instrs: None,
            seed: None,
            jobs: None,
            quick: false,
            engines: None,
            workloads: None,
            name: None,
            figure: None,
            threshold: None,
            against: None,
            iterations: None,
            engine: None,
            kind: None,
            core: None,
            cycles: None,
            out: None,
            help: false,
        };
        let mut iter = args.iter();
        let Some(command) = iter.next() else {
            return Err(format!("missing command\n{USAGE}"));
        };
        cli.command = command.clone();
        let value = |iter: &mut std::slice::Iter<'_, String>, flag: &str| {
            iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--store" => cli.store_dir = Some(PathBuf::from(value(&mut iter, "--store")?)),
                "--no-store" => cli.no_store = true,
                "--instrs" => cli.instrs = Some(parse_num(&value(&mut iter, "--instrs")?)?),
                "--seed" => cli.seed = Some(parse_num(&value(&mut iter, "--seed")?)?),
                "--jobs" => cli.jobs = Some(parse_num(&value(&mut iter, "--jobs")?)?),
                "--quick" => cli.quick = true,
                "--engines" => cli.engines = Some(value(&mut iter, "--engines")?),
                "--workloads" => cli.workloads = Some(value(&mut iter, "--workloads")?),
                "--name" => cli.name = Some(value(&mut iter, "--name")?),
                "--figure" => cli.figure = Some(value(&mut iter, "--figure")?),
                "--threshold" => {
                    let raw = value(&mut iter, "--threshold")?;
                    cli.threshold =
                        Some(raw.parse::<f64>().map_err(|_| format!("bad --threshold {raw:?}"))?);
                }
                "--against" => cli.against = Some(PathBuf::from(value(&mut iter, "--against")?)),
                "--iterations" => {
                    cli.iterations = Some(parse_num(&value(&mut iter, "--iterations")?)?)
                }
                "--engine" => cli.engine = Some(value(&mut iter, "--engine")?),
                "--kind" => cli.kind = Some(value(&mut iter, "--kind")?),
                "--core" => cli.core = Some(parse_num(&value(&mut iter, "--core")?)?),
                "--cycles" => cli.cycles = Some(value(&mut iter, "--cycles")?),
                "--out" => cli.out = Some(PathBuf::from(value(&mut iter, "--out")?)),
                "--help" | "-h" => cli.help = true,
                other if other.starts_with('-') => return Err(format!("unknown option {other}")),
                other => cli.positional.push(other.to_string()),
            }
        }
        Ok(cli)
    }

    fn params(&self) -> ExperimentParams {
        let mut params =
            if self.quick { ExperimentParams::quick_test() } else { ExperimentParams::from_env() };
        if let Some(instrs) = self.instrs {
            params.instructions_per_core = instrs.max(1);
        }
        if let Some(seed) = self.seed {
            params.seed = seed;
        }
        if let Some(jobs) = self.jobs {
            params.parallelism = jobs.max(1);
        }
        params
    }

    fn open_store(&self) -> Result<Option<ExperimentStore>, String> {
        if self.no_store {
            return Ok(None);
        }
        let root = self.store_dir.clone().unwrap_or_else(ExperimentStore::default_root);
        ExperimentStore::open(&root)
            .map(Some)
            .map_err(|e| format!("cannot open store {}: {e}", root.display()))
    }

    fn workload_list(&self) -> Result<Vec<Workload>, String> {
        let workloads: Vec<Workload> = match &self.workloads {
            None => presets::all_workloads(),
            Some(names) => names
                .split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .map(|n| {
                    presets::workload_by_name(n).ok_or_else(|| {
                        format!(
                            "unknown workload {n:?} (known: {})",
                            presets::all_workloads()
                                .iter()
                                .map(|w| w.name().to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        if workloads.is_empty() {
            return Err("--workloads selected no workloads".to_string());
        }
        Ok(workloads)
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.trim().parse::<T>().map_err(|_| format!("expected a number, got {raw:?}"))
}

/// Prints the kernel phase profile this process accumulated, when profiling
/// is on (`IFENCE_PROFILE=1`). Host wall clock only — simulated results are
/// unaffected by the profiler either way.
fn print_phase_profile() {
    let profile = PhaseProfile::global();
    if profile.enabled() {
        println!("{}", profile.snapshot().report());
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let cli = Cli::parse(args)?;
    if cli.help && cli.command.is_empty() {
        println!("{USAGE}");
        return Ok(0);
    }
    match cli.command.as_str() {
        "figures" => cmd_figures(&cli),
        "sweep" => cmd_sweep(&cli),
        "litmus" => cmd_litmus(&cli),
        "report" => cmd_report(&cli),
        "diff" => cmd_diff(&cli),
        "trace" => cmd_trace(&cli),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn cmd_figures(cli: &Cli) -> Result<i32, String> {
    if cli.help {
        let ids: Vec<&str> = SECTIONS.iter().map(|section| section.id).collect();
        println!(
            "usage: ifence figures [--figure all|ID] [--workloads NAMES] [common options]\n\n\
             Regenerates the paper's tables and sensitivity sweeps; --figure picks one\n\
             section by id ({}). With a store (the default), every cell is\n\
             cached: an interrupted run resumes where it stopped and a warm re-run\n\
             performs zero simulations.",
            ids.join(", ")
        );
        return Ok(0);
    }
    let sections = select_figures(cli.figure.as_deref().unwrap_or("all"))?;
    let workloads = cli.workload_list()?;
    let params = cli.params();
    let store = cli.open_store()?;
    let ctx = match &store {
        Some(store) => FigureContext::with_store(&params, store),
        None => FigureContext::new(&params),
    };
    // The sweep worker count is deliberately not printed: the output is
    // byte-identical for a fixed seed at any --jobs.
    println!(
        "machine: {}; {} instructions/core, seed {}",
        if params.full_machine { "16-core paper baseline" } else { "4-core reduced test machine" },
        params.instructions_per_core,
        params.seed
    );
    let (tables, cache) = run_figures(sections, &workloads, &ctx);
    for (title, table) in &tables {
        println!("== {title} ==");
        println!("{table}");
    }
    if let Some(store) = &store {
        println!(
            "store {}: {} cells served from cache, {} simulated this run ({} total entries)",
            store.root().display(),
            cache.hits,
            cache.misses,
            store.len()
        );
    }
    print_phase_profile();
    Ok(0)
}

/// Every engine label, for "unknown engine" errors.
fn engine_labels() -> String {
    EngineKind::all().iter().map(|e| e.label()).collect::<Vec<_>>().join(", ")
}

fn cmd_sweep(cli: &Cli) -> Result<i32, String> {
    if cli.help {
        println!(
            "usage: ifence sweep --engines LABELS [--workloads NAMES] [--name NAME] [common options]\n\n\
             Runs a custom (engines x workloads) grid through the cached sweep engine\n\
             and stores it under NAME (default: \"sweep\") for `ifence report`/`diff`.\n\
             Engine labels match the figures: sc tso rmo Invisi_sc Invisi_tso Invisi_rmo\n\
             Invisi_sc-2ckpt Invisi_cont Invisi_cont_CoV ASOsc ..."
        );
        return Ok(0);
    }
    let engines: Vec<EngineKind> = match &cli.engines {
        None => EngineKind::all().to_vec(),
        Some(labels) => labels
            .split(',')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| {
                EngineKind::from_label(l).ok_or_else(|| {
                    format!("unknown engine label {l:?} (known: {})", engine_labels())
                })
            })
            .collect::<Result<_, _>>()?,
    };
    if engines.is_empty() {
        return Err("--engines selected no engines".to_string());
    }
    let workloads = cli.workload_list()?;
    let params = cli.params();
    let store = cli.open_store()?;
    let configs = engine_configs(&engines, &params);
    let sweep = ExperimentMatrix::new(&configs, &workloads).run_cached(&params, store.as_ref());

    let name = cli.name.clone().unwrap_or_else(|| "sweep".to_string());
    if let Some(store) = &store {
        let manifest = manifest_for_grid(
            &name,
            &format!("custom sweep {name}"),
            &configs,
            &workloads,
            &params,
        );
        store.write_manifest(&manifest).map_err(|e| format!("cannot write manifest: {e}"))?;
    }

    println!("{}", sweep_table(&engines, &sweep.rows));
    println!(
        "cache: {} hits, {} misses{}",
        sweep.cache.hits,
        sweep.cache.misses,
        match &store {
            Some(store) =>
                format!("; stored as {:?} in {}", ifence_store::slug(&name), store.root().display()),
            None => " (store disabled)".to_string(),
        }
    );
    print_phase_profile();
    Ok(0)
}

/// A generic sweep rendering: cycles and speedup-vs-first-config per cell.
fn sweep_table(
    engines: &[EngineKind],
    rows: &[(String, Vec<ifence_stats::RunSummary>)],
) -> ColumnTable {
    let mut header = vec!["workload".to_string(), "metric".to_string()];
    header.extend(engines.iter().map(|e| e.label()));
    let mut table = ColumnTable::new(header);
    for (workload, runs) in rows {
        let baseline = &runs[0];
        let mut cycles = vec![workload.clone(), "cycles".to_string()];
        let mut speedup = vec![String::new(), "speedup".to_string()];
        for run in runs {
            cycles.push(run.cycles.to_string());
            speedup.push(format!("{:.3}", run.speedup_over(baseline)));
        }
        table.push_row(cycles);
        table.push_row(speedup);
    }
    table
}

fn cmd_litmus(cli: &Cli) -> Result<i32, String> {
    if cli.help {
        println!(
            "usage: ifence litmus [--iterations N]\n\n\
             Runs the litmus suite (MP, SB, LB, IRIW; fenced and unfenced) under every\n\
             ordering engine and reports forbidden-outcome counts. Exits 2 if an engine\n\
             shows an outcome its consistency model forbids. Litmus programs are fixed\n\
             (not generated), so the common sweep options do not apply here."
        );
        return Ok(0);
    }
    let iterations = cli.iterations.unwrap_or(25);
    const MAX_CYCLES: u64 = 60_000_000;
    let mut table = ColumnTable::new(["pattern", "fenced", "engine", "forbidden", "verdict"]);
    let mut violations = 0usize;
    for kind in LitmusKind::ALL {
        for fenced in [false, true] {
            let test = LitmusTest::new(kind, iterations, fenced);
            for engine in EngineKind::all() {
                let forbidden = run_litmus(engine, &test, MAX_CYCLES);
                let verdict = if forbidden == 0 {
                    "ok"
                } else if test.must_forbid(engine.model()) {
                    violations += 1;
                    "VIOLATION"
                } else {
                    "relaxed (allowed)"
                };
                table.push_row([
                    kind.label().to_string(),
                    fenced.to_string(),
                    engine.label(),
                    forbidden.to_string(),
                    verdict.to_string(),
                ]);
            }
        }
    }
    println!("{table}");
    if violations > 0 {
        eprintln!("ifence: {violations} consistency violation(s) observed");
        return Ok(2);
    }
    println!("all engines enforce their consistency models ({iterations} iterations/pattern)");
    print_phase_profile();
    Ok(0)
}

fn cmd_report(cli: &Cli) -> Result<i32, String> {
    if cli.help {
        println!(
            "usage: ifence report [<name>] [common options]\n\n\
             Re-renders a stored sweep's tables from the experiment store without\n\
             running any simulation, including the fabric's memory-hierarchy columns\n\
             (L2 hits/misses, evictions/recalls, DRAM traffic). With no <name>, lists\n\
             the stored sweeps."
        );
        return Ok(0);
    }
    let store =
        cli.open_store()?.ok_or_else(|| "report needs a store (omit --no-store)".to_string())?;
    let Some(name) = cli.positional.first() else {
        let names = store.manifest_names().map_err(|e| e.to_string())?;
        if names.is_empty() {
            println!("store {} has no sweeps yet", store.root().display());
        } else {
            println!("stored sweeps in {}:", store.root().display());
            for name in names {
                println!("  {name}");
            }
        }
        return Ok(0);
    };
    let manifest = store
        .read_manifest(name)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no sweep named {name:?} in {}", store.root().display()))?;
    let rows = store.resolve(&manifest)?;
    println!(
        "{} ({} instructions/core, seed {})",
        manifest.figure, manifest.instructions_per_core, manifest.seed
    );
    let mut table = ColumnTable::new(
        [
            "workload",
            "config",
            "cycles",
            "runtime % of first",
            "l2 hit/miss",
            "l2 evict/recall",
            "dram rd/wb",
            "breakdown",
        ]
        .into_iter()
        .map(str::to_string),
    );
    for (workload, runs) in &rows {
        let baseline = &runs[0];
        for run in runs {
            let fabric = &run.fabric;
            table.push_row([
                workload.clone(),
                run.config.clone(),
                run.cycles.to_string(),
                format!("{:.1}", run.normalized_runtime(baseline)),
                format!("{}/{}", fabric.l2_hits, fabric.l2_misses),
                format!("{}/{}", fabric.l2_evictions, fabric.l2_recalls),
                format!("{}/{}", fabric.dram_reads, fabric.dram_writebacks),
                run.breakdown.to_string(),
            ]);
        }
    }
    println!("{table}");
    Ok(0)
}

fn cmd_diff(cli: &Cli) -> Result<i32, String> {
    if cli.help {
        println!(
            "usage: ifence diff <name-a> <name-b> [--threshold PCT] [--against DIR] [common options]\n\n\
             Compares two stored sweeps cell by cell. <name-b> resolves in the store\n\
             given by --against (default: the same store as <name-a>). Cells whose\n\
             cycle delta or breakdown shift exceeds the threshold (default 2%) are\n\
             flagged; flagged slowdowns exit 2 — a perf-regression gate."
        );
        return Ok(0);
    }
    let [name_a, name_b] = cli.positional.as_slice() else {
        return Err("diff needs two sweep names (see ifence diff --help)".to_string());
    };
    let store_a =
        cli.open_store()?.ok_or_else(|| "diff needs a store (omit --no-store)".to_string())?;
    // Without --against both sides resolve in the already-open store; only a
    // genuinely different directory is opened (and indexed) a second time.
    let against = match &cli.against {
        Some(dir) => Some(
            ExperimentStore::open(dir)
                .map_err(|e| format!("cannot open --against store {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let store_b = against.as_ref().unwrap_or(&store_a);
    let manifest_a = store_a
        .read_manifest(name_a)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no sweep named {name_a:?} in {}", store_a.root().display()))?;
    let manifest_b = store_b
        .read_manifest(name_b)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no sweep named {name_b:?} in {}", store_b.root().display()))?;
    let threshold = cli.threshold.unwrap_or(2.0);
    let report = diff_sweeps(&store_a, &manifest_a, store_b, &manifest_b, threshold)?;
    println!("{}", report.table());
    for unmatched in &report.unmatched {
        println!("unmatched: {unmatched}");
    }
    println!(
        "{} cell(s) compared, {} flagged beyond {:.1}%, {} regression(s)",
        report.rows.len(),
        report.flagged(),
        threshold,
        report.regressions()
    );
    Ok(if report.regressions() > 0 { 2 } else { 0 })
}

const TRACE_USAGE: &str = "usage: ifence trace <verb> [options]

verbs:
  record     run one traced simulation and emit its JSONL event stream
             [--engine LABEL] [--workloads NAME] [--out FILE] [common options]
  summarize  render a stream's per-kind counts and cycle span  [FILE]
  filter     keep a stream's matching events
             FILE [--kind K] [--core N] [--cycles A..B] [--out FILE]
  diff       compare two streams line by line; exits 2 on divergence
             FILE_A FILE_B

Tracing never changes simulated results, and the stream is byte-identical
across every kernel mode (see tests/trace_equivalence.rs). Event kinds:
spec_begin spec_commit spec_abort cov_defer_start cov_defer_end
sb_high_water l2_eviction l2_recall dram_fetch deadlock.";

fn cmd_trace(cli: &Cli) -> Result<i32, String> {
    if cli.help {
        println!("{TRACE_USAGE}");
        return Ok(0);
    }
    let Some(verb) = cli.positional.first() else {
        return Err(format!("trace needs a verb\n{TRACE_USAGE}"));
    };
    match verb.as_str() {
        "record" => trace_record(cli),
        "summarize" => trace_summarize(cli),
        "filter" => trace_filter(cli),
        "diff" => trace_diff(cli),
        other => Err(format!("unknown trace verb {other:?}\n{TRACE_USAGE}")),
    }
}

/// Writes a JSONL stream to `--out` (or stdout when absent), reporting where
/// it went on stderr so stdout stays a clean pipeable stream.
fn write_stream(out: &Option<PathBuf>, jsonl: &str, events: usize) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, jsonl)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {events} event(s) to {}", path.display());
        }
        None => print!("{jsonl}"),
    }
    Ok(())
}

/// Reads a JSONL stream from a file argument.
fn read_stream(path: &str) -> Result<MachineTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    trace_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn trace_record(cli: &Cli) -> Result<i32, String> {
    let label = cli.engine.as_deref().unwrap_or("Invisi_sc");
    let engine = EngineKind::from_label(label)
        .ok_or_else(|| format!("unknown engine label {label:?} (known: {})", engine_labels()))?;
    let workloads = cli.workload_list()?;
    let workload = &workloads[0];
    if workloads.len() > 1 {
        eprintln!("trace record runs one workload; using {:?}", workload.name());
    }
    let params = cli.params();
    let mut cfg = params.config_for(engine);
    cfg.trace = true;
    let sources = workload.sources(cfg.cores, params.instructions_per_core, params.seed);
    let machine = Machine::from_sources(cfg, sources).expect("derived configuration is valid");
    let (result, trace) = machine.into_result_with_trace(params.max_cycles);
    let jsonl = trace_to_jsonl(&trace);
    eprintln!(
        "{} on {}: {} cycle(s), {} event(s){}{}",
        engine.label(),
        workload.name(),
        result.cycles,
        trace.events.len(),
        if trace.dropped > 0 {
            format!(", {} dropped by the ring (raise the shard capacity)", trace.dropped)
        } else {
            String::new()
        },
        if result.finished { "" } else { " [run did not finish]" },
    );
    write_stream(&cli.out, &jsonl, trace.events.len())?;
    Ok(0)
}

fn trace_summarize(cli: &Cli) -> Result<i32, String> {
    let Some(path) = cli.positional.get(1) else {
        return Err("trace summarize needs a stream FILE (from trace record --out)".to_string());
    };
    let trace = read_stream(path)?;
    let mut table = ColumnTable::new(["kind", "events", "value min", "value max", "value mean"]);
    for (kind, count) in trace.counts_by_kind() {
        if count == 0 {
            continue;
        }
        let values =
            trace.events.iter().filter(|e| e.kind == kind).map(|e| e.value).collect::<Vec<_>>();
        let sum: u64 = values.iter().sum();
        table.push_row([
            kind.label().to_string(),
            count.to_string(),
            values.iter().min().unwrap().to_string(),
            values.iter().max().unwrap().to_string(),
            format!("{:.1}", sum as f64 / count as f64),
        ]);
    }
    println!("{table}");
    match (trace.events.first(), trace.events.last()) {
        (Some(first), Some(last)) => {
            let cores = {
                let mut cores: Vec<u32> = trace.events.iter().map(|e| e.core).collect();
                cores.sort_unstable();
                cores.dedup();
                cores.len()
            };
            println!(
                "{} event(s) over cycles {}..={} from {} core(s)/home node(s)",
                trace.events.len(),
                first.cycle,
                last.cycle,
                cores
            );
        }
        _ => println!("empty stream"),
    }
    Ok(0)
}

/// Parses the `--cycles A..B` filter (inclusive on both ends; either bound
/// may be omitted).
fn parse_cycle_range(raw: &str) -> Result<(u64, u64), String> {
    let Some((lo, hi)) = raw.split_once("..") else {
        return Err(format!("bad --cycles {raw:?} (expected A..B, A.. or ..B)"));
    };
    let lo = if lo.is_empty() { 0 } else { parse_num(lo)? };
    let hi = if hi.is_empty() { u64::MAX } else { parse_num(hi)? };
    if lo > hi {
        return Err(format!("bad --cycles {raw:?} (empty range)"));
    }
    Ok((lo, hi))
}

fn trace_filter(cli: &Cli) -> Result<i32, String> {
    let Some(path) = cli.positional.get(1) else {
        return Err("trace filter needs a stream FILE".to_string());
    };
    let kind = match &cli.kind {
        None => None,
        Some(label) => Some(TraceKind::from_label(label).ok_or_else(|| {
            format!(
                "unknown --kind {label:?} (known: {})",
                TraceKind::ALL.map(TraceKind::label).join(", ")
            )
        })?),
    };
    let cycles = cli.cycles.as_deref().map(parse_cycle_range).transpose()?;
    let mut trace = read_stream(path)?;
    let before = trace.events.len();
    trace.events.retain(|event| {
        kind.map_or(true, |k| event.kind == k)
            && cli.core.map_or(true, |c| event.core == c)
            && cycles.map_or(true, |(lo, hi)| (lo..=hi).contains(&event.cycle))
    });
    eprintln!("{} of {before} event(s) match", trace.events.len());
    write_stream(&cli.out, &trace_to_jsonl(&trace), trace.events.len())?;
    Ok(0)
}

fn trace_diff(cli: &Cli) -> Result<i32, String> {
    let (Some(path_a), Some(path_b)) = (cli.positional.get(1), cli.positional.get(2)) else {
        return Err("trace diff needs two stream FILEs".to_string());
    };
    // Parse both sides first so malformed streams are an error (exit 1),
    // not a divergence (exit 2); the comparison itself is on the canonical
    // re-encoded lines, so formatting noise cannot mask or fake a diff.
    let a = trace_to_jsonl(&read_stream(path_a)?);
    let b = trace_to_jsonl(&read_stream(path_b)?);
    let lines_a: Vec<&str> = a.lines().collect();
    let lines_b: Vec<&str> = b.lines().collect();
    if lines_a == lines_b {
        println!("streams are identical ({} event(s))", lines_a.len());
        return Ok(0);
    }
    match lines_a.iter().zip(&lines_b).position(|(x, y)| x != y) {
        Some(index) => {
            println!("streams diverge at event {}:", index + 1);
            println!("  {path_a}: {}", lines_a[index]);
            println!("  {path_b}: {}", lines_b[index]);
        }
        None => {
            println!("streams diverge in length: {} vs {} event(s)", lines_a.len(), lines_b.len())
        }
    }
    Ok(2)
}
