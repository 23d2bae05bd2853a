//! The paper's tables and sensitivity sweeps, as one ordered list of
//! sections.
//!
//! [`SECTIONS`] is the single front end for every figure: each [`Section`]
//! has the `--figure` id that selects it, the title `ifence figures` prints
//! above it, and a driver that renders its [`ColumnTable`].
//! [`select_figures`] turns an id (or `all`) into sections and
//! [`run_figures`] runs them in order under one [`FigureContext`].
//!
//! * Static tables (Figs. 2, 5, 6, 7) render the model's own description of
//!   the paper's tables; Fig. 4 adds the measured time in speculation.
//! * Simulated figures (Figs. 1, 8–12) run the configurations a figure
//!   compares over the selected workloads through the sweep engine and
//!   return both the raw [`RunSummary`] data ([`FigureData`]) and the table.
//! * Sensitivity sweeps (L2 capacity and the store-buffer, minimum-chunk
//!   and commit-on-violate-timeout ablations) run configuration points ×
//!   engines × workloads; each point is a grid of whole machine
//!   configurations, cached under its own keys.
//!
//! With a store, every cell is cached, so a suite shares cells across
//! sections (conventional SC appears in Figs. 1, 8 and 12; the ablations'
//! default points are Figs. 8 and 12 cells), an interrupted run resumes and
//! a warm re-run performs zero simulations.

use crate::runner::ExperimentParams;
use crate::sweep::{engine_configs, manifest_for_grid, ExperimentMatrix, SweepRun};
use ifence_consistency::figure2_rows;
use ifence_stats::{ColumnTable, RunSummary};
use ifence_store::{CacheStats, ExperimentStore};
use ifence_types::{ConsistencyModel, CycleClass, EngineKind, MachineConfig};
use ifence_workloads::{presets, Workload};
use invisifence::{figure4_rows, figure5_rows};

/// How a figure run executes: the experiment parameters plus an optional
/// experiment store. With a store, every cell is looked up before dispatch
/// and written behind after completion, and the run leaves a named manifest
/// (`sweeps/<figure-slug>.json`) behind for `ifence report` / `ifence diff`.
#[derive(Clone, Copy)]
pub struct FigureContext<'a> {
    /// Experiment parameters shared by every cell.
    pub params: &'a ExperimentParams,
    /// The result cache, if the run should be cached and resumable.
    pub store: Option<&'a ExperimentStore>,
}

impl<'a> FigureContext<'a> {
    /// An uncached context: every cell is simulated.
    pub fn new(params: &'a ExperimentParams) -> Self {
        FigureContext { params, store: None }
    }

    /// A cached context: cells are served from and persisted to `store`.
    pub fn with_store(params: &'a ExperimentParams, store: &'a ExperimentStore) -> Self {
        FigureContext { params, store: Some(store) }
    }
}

/// The results of one figure: per-workload summaries for every configuration
/// the figure compares, in figure order.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Which figure this is (e.g. "Figure 8").
    pub figure: String,
    /// Configuration labels, in bar order.
    pub configs: Vec<String>,
    /// `(workload, summaries)` where `summaries[i]` ran under `configs[i]`.
    pub per_workload: Vec<(String, Vec<RunSummary>)>,
    /// How many cells were cache hits versus simulated (all misses when no
    /// store was in play).
    pub cache: CacheStats,
}

/// Runs one grid under `ctx` and, with a store, leaves its manifest behind.
fn run_grid(
    name: &str,
    figure: &str,
    configs: &[MachineConfig],
    workloads: &[Workload],
    ctx: &FigureContext<'_>,
) -> SweepRun {
    let sweep = ExperimentMatrix::new(configs, workloads).run_cached(ctx.params, ctx.store);
    if let Some(store) = ctx.store {
        let manifest = manifest_for_grid(name, figure, configs, workloads, ctx.params);
        if let Err(err) = store.write_manifest(&manifest) {
            eprintln!("warning: could not write manifest for {name}: {err}");
        }
    }
    sweep
}

impl FigureData {
    fn run(
        figure: &str,
        engines: &[EngineKind],
        workloads: &[Workload],
        ctx: &FigureContext<'_>,
    ) -> Self {
        let configs = engine_configs(engines, ctx.params);
        let sweep = run_grid(figure, figure, &configs, workloads, ctx);
        FigureData {
            figure: figure.to_string(),
            configs: engines.iter().map(|e| e.label()).collect(),
            per_workload: sweep.rows,
            cache: sweep.cache,
        }
    }

    /// Runs a sensitivity sweep: each `(label, columns)` point is one grid
    /// over `workloads`, recorded as its own manifest (`"{name} {label}"`).
    /// The columns are point-major — with `n` columns per point,
    /// `configs[p * n + c]` is column `c` of point `p`, labelled
    /// `engine@label`.
    fn run_points(
        name: &str,
        points: &[(String, Vec<MachineConfig>)],
        workloads: &[Workload],
        ctx: &FigureContext<'_>,
    ) -> Self {
        let figure = format!("{name} sweep");
        let mut data = FigureData {
            figure: figure.clone(),
            configs: Vec::new(),
            per_workload: workloads.iter().map(|w| (w.name().to_string(), Vec::new())).collect(),
            cache: CacheStats::default(),
        };
        for (label, columns) in points {
            let sweep = run_grid(&format!("{name} {label}"), &figure, columns, workloads, ctx);
            data.cache.merge(sweep.cache);
            data.configs.extend(columns.iter().map(|c| format!("{}@{label}", c.engine.label())));
            for (row, (_, runs)) in data.per_workload.iter_mut().zip(sweep.rows) {
                row.1.extend(runs);
            }
        }
        data
    }

    /// The summary for (workload, config label), if present.
    pub fn summary(&self, workload: &str, config: &str) -> Option<&RunSummary> {
        let idx = self.configs.iter().position(|c| c == config)?;
        self.per_workload.iter().find(|(w, _)| w == workload).and_then(|(_, runs)| runs.get(idx))
    }

    /// Geometric-mean speedup of `config` over `baseline` across workloads.
    pub fn mean_speedup(&self, config: &str, baseline: &str) -> f64 {
        let mut product = 1.0_f64;
        let mut count = 0usize;
        for (w, _) in &self.per_workload {
            if let (Some(run), Some(base)) = (self.summary(w, config), self.summary(w, baseline)) {
                product *= run.speedup_over(base);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            product.powf(1.0 / count as f64)
        }
    }
}

/// One section of `ifence figures`: a paper table or a sensitivity sweep.
pub struct Section {
    /// The `--figure` id that selects this section alone.
    pub id: &'static str,
    /// The heading printed above the table.
    pub title: &'static str,
    driver: fn(&mut Suite<'_>) -> ColumnTable,
}

/// What one invocation's sections share: the context, the selected
/// workloads, the accumulated cache counters and, once a section has needed
/// it, the selective matrix behind Figs. 4 and 8–10 (run at most once).
struct Suite<'a> {
    ctx: FigureContext<'a>,
    workloads: &'a [Workload],
    cache: CacheStats,
    selective: Option<FigureData>,
}

impl Suite<'_> {
    /// Adds a driver's cache counters to the suite's and passes its table on.
    fn table(&mut self, (data, table): (FigureData, ColumnTable)) -> ColumnTable {
        self.cache.merge(data.cache);
        table
    }

    fn selective(&mut self) -> &FigureData {
        if self.selective.is_none() {
            let data = selective_matrix(self.workloads, &self.ctx);
            self.cache.merge(data.cache);
            self.selective = Some(data);
        }
        self.selective.as_ref().expect("selective matrix just ran")
    }
}

/// Every section `ifence figures` prints, in the order `all` runs them.
pub const SECTIONS: &[Section] = &[
    Section {
        id: "1",
        title: "Figure 1: ordering stalls in conventional implementations",
        driver: |s| s.table(figure1(s.workloads, &s.ctx)),
    },
    Section {
        id: "2",
        title: "Figure 2: memory consistency models and their conventional implementations",
        driver: |_| figure2(),
    },
    Section {
        id: "4",
        title: "Figure 4: properties of the InvisiFence variants",
        driver: |s| figure4(s.selective()),
    },
    Section {
        id: "5",
        title: "Figure 5: comparison of speculative implementations of memory consistency",
        driver: |_| figure5(),
    },
    Section {
        id: "6",
        title: "Figure 6: simulator parameters (paper baseline configuration)",
        driver: |_| figure6(),
    },
    Section {
        id: "7",
        title: "Figure 7: workloads (synthetic approximations; see PAPER.md, \"Modelling approximations\")",
        driver: |_| figure7(),
    },
    Section {
        id: "8",
        title: "Figure 8: speedup over conventional SC",
        driver: |s| figure8(s.selective()),
    },
    Section {
        id: "9",
        title: "Figure 9: runtime breakdown (normalised to SC)",
        driver: |s| figure9(s.selective()),
    },
    Section {
        id: "10",
        title: "Figure 10: % of cycles spent speculating",
        driver: |s| figure10(s.selective()),
    },
    Section {
        id: "11",
        title: "Figure 11: comparison with ASO",
        driver: |s| s.table(figure11(s.workloads, &s.ctx)),
    },
    Section {
        id: "12",
        title: "Figure 12: continuous speculation and commit-on-violate",
        driver: |s| s.table(figure12(s.workloads, &s.ctx)),
    },
    Section {
        id: "l2",
        title: "L2 capacity sensitivity (finite shared L2 + DRAM tier; runtime normalised per \
                engine to the unbounded point)",
        driver: |s| s.table(l2_capacity_sweep(s.workloads, &s.ctx)),
    },
    Section {
        id: "sb",
        title: "Ablation: InvisiFence-RMO store-buffer capacity",
        driver: |s| s.table(store_buffer_ablation(s.workloads, &s.ctx)),
    },
    Section {
        id: "chunk",
        title: "Ablation: minimum chunk size of InvisiFence-Continuous",
        driver: |s| s.table(chunk_size_ablation(s.workloads, &s.ctx)),
    },
    Section {
        id: "cov",
        title: "Ablation: commit-on-violate timeout of InvisiFence-Continuous (0: no \
                commit-on-violate)",
        driver: |s| s.table(cov_timeout_ablation(s.workloads, &s.ctx)),
    },
];

/// The sections `--figure <which>` selects: one section by its id, or every
/// section, in order, for `all`.
///
/// # Errors
/// An unknown id, with the list of valid ones.
pub fn select_figures(which: &str) -> Result<&'static [Section], String> {
    if which == "all" {
        return Ok(SECTIONS);
    }
    match SECTIONS.iter().position(|section| section.id == which) {
        Some(i) => Ok(&SECTIONS[i..=i]),
        None => {
            let ids: Vec<&str> = SECTIONS.iter().map(|section| section.id).collect();
            Err(format!("unknown --figure {which:?} (use all, {})", ids.join(", ")))
        }
    }
}

/// Runs `sections` in order under one context and returns `(title, table)`
/// pairs plus the aggregate cache counters. This is what `ifence figures`
/// and the cache-warm CI smoke execute — with a store, an interrupted suite
/// resumes and a warm re-run performs zero simulations.
pub fn run_figures(
    sections: &[Section],
    workloads: &[Workload],
    ctx: &FigureContext<'_>,
) -> (Vec<(String, ColumnTable)>, CacheStats) {
    let mut suite = Suite { ctx: *ctx, workloads, cache: CacheStats::default(), selective: None };
    let tables = sections
        .iter()
        .map(|section| (section.title.to_string(), (section.driver)(&mut suite)))
        .collect();
    (tables, suite.cache)
}

const SELECTIVE_ENGINES: [EngineKind; 6] = [
    EngineKind::Conventional(ConsistencyModel::Sc),
    EngineKind::Conventional(ConsistencyModel::Tso),
    EngineKind::Conventional(ConsistencyModel::Rmo),
    EngineKind::InvisiSelective(ConsistencyModel::Sc),
    EngineKind::InvisiSelective(ConsistencyModel::Tso),
    EngineKind::InvisiSelective(ConsistencyModel::Rmo),
];

/// Figure 1: ordering stalls (SB drain / SB full) in conventional SC, TSO and
/// RMO, as a percentage of each configuration's execution time.
pub fn figure1(workloads: &[Workload], ctx: &FigureContext<'_>) -> (FigureData, ColumnTable) {
    let engines = [
        EngineKind::Conventional(ConsistencyModel::Sc),
        EngineKind::Conventional(ConsistencyModel::Tso),
        EngineKind::Conventional(ConsistencyModel::Rmo),
    ];
    let data = FigureData::run("Figure 1", &engines, workloads, ctx);
    let mut table =
        ColumnTable::new(["workload", "model", "SB drain %", "SB full %", "total ordering %"]);
    for (workload, runs) in &data.per_workload {
        for run in runs {
            let drain = 100.0 * run.breakdown.fraction(CycleClass::SbDrain);
            let full = 100.0 * run.breakdown.fraction(CycleClass::SbFull);
            table.push_row([
                workload.clone(),
                run.config.clone(),
                format!("{drain:.1}"),
                format!("{full:.1}"),
                format!("{:.1}", drain + full),
            ]);
        }
    }
    (data, table)
}

/// Figure 2: the consistency models' definitions and conventional
/// implementations.
pub fn figure2() -> ColumnTable {
    let mut table = ColumnTable::new([
        "Model",
        "Relaxations",
        "SB organization",
        "SB granularity",
        "Load",
        "Store",
        "Atomic",
        "Full fence",
    ]);
    for row in figure2_rows() {
        table.push_row([
            row.model.label().to_uppercase(),
            row.relaxations.to_string(),
            row.sb_organization.to_string(),
            row.sb_granularity.to_string(),
            row.load_retirement.to_string(),
            row.store_retirement.to_string(),
            row.atomic_retirement.to_string(),
            row.fence_retirement.to_string(),
        ]);
    }
    table
}

/// Figure 4: properties of the InvisiFence variants, with the measured time
/// in speculation of the selective variants on the matrix's first workload
/// beside the paper's quoted ranges.
pub fn figure4(selective: &FigureData) -> ColumnTable {
    let mut table = ColumnTable::new([
        "Variant",
        "Speculates on?",
        "% time speculating (paper)",
        "% time speculating (measured)",
        "Min. chunk size",
        "Snoops load Q?",
    ]);
    let workload = &selective.per_workload[0].0;
    let measured = |config: &str| {
        selective
            .summary(workload, config)
            .map(|s| format!("{:.0}%", 100.0 * s.speculation_fraction))
            .unwrap_or_else(|| "-".to_string())
    };
    for row in figure4_rows() {
        let measured_value = match row.variant {
            "INVISIFENCE-SELECTIVE rmo" => measured("Invisi_rmo"),
            "INVISIFENCE-SELECTIVE tso" => measured("Invisi_tso"),
            "INVISIFENCE-SELECTIVE sc" => measured("Invisi_sc"),
            _ => "~100% (by construction)".to_string(),
        };
        table.push_row([
            row.variant.to_string(),
            row.speculates_on.to_string(),
            row.time_speculating.to_string(),
            measured_value,
            row.min_chunk_size.to_string(),
            if row.snoops_load_queue { "Yes" } else { "No" }.to_string(),
        ]);
    }
    table
}

/// Figure 5: qualitative comparison of BulkSC, InvisiFence and ASO.
pub fn figure5() -> ColumnTable {
    let mut table = ColumnTable::new([
        "Dimension",
        "BulkSC",
        "INVISIFENCE-CONTINUOUS",
        "INVISIFENCE-SELECTIVE",
        "ASO",
    ]);
    for row in figure5_rows() {
        table.push_row([
            row.dimension.to_string(),
            row.bulksc.to_string(),
            row.invisifence_continuous.to_string(),
            row.invisifence_selective.to_string(),
            row.aso.to_string(),
        ]);
    }
    table
}

/// Figure 6: the paper machine's parameters, plus the state InvisiFence adds
/// to it.
pub fn figure6() -> ColumnTable {
    let mut table = ColumnTable::new(["Component", "Configuration"]);
    for (k, v) in MachineConfig::paper_baseline().figure6_rows() {
        table.push_row([k, v]);
    }
    let invisi = MachineConfig::with_engine(EngineKind::InvisiSelective(ConsistencyModel::Rmo));
    table.push_row([
        "InvisiFence state".to_string(),
        format!(
            "{} bytes over the conventional baseline (paper: ~1 KB)",
            invisi.speculative_state_bytes()
        ),
    ]);
    table
}

/// Figure 7: the workloads and the synthetic parameters that approximate
/// them.
pub fn figure7() -> ColumnTable {
    let mut table = ColumnTable::new([
        "Workload",
        "Description",
        "mem frac",
        "store frac",
        "CS rate",
        "locks",
        "shared frac",
    ]);
    for w in presets::all_presets() {
        table.push_row([
            w.name.clone(),
            w.description.clone(),
            format!("{:.2}", w.mem_fraction),
            format!("{:.2}", w.store_fraction),
            format!("{:.4}", w.critical_section_rate),
            w.locks.to_string(),
            format!("{:.2}", w.shared_fraction),
        ]);
    }
    table
}

/// Runs the six configurations shared by Figures 4 and 8–10 (conventional
/// and InvisiFence-Selective variants of SC, TSO, RMO).
pub fn selective_matrix(workloads: &[Workload], ctx: &FigureContext<'_>) -> FigureData {
    FigureData::run("Figures 8-10", &SELECTIVE_ENGINES, workloads, ctx)
}

/// Figure 8: speedups over conventional SC, one row per workload and a last
/// row with each configuration's geometric mean across workloads.
pub fn figure8(data: &FigureData) -> ColumnTable {
    let mut header = vec!["workload".to_string()];
    header.extend(data.configs.iter().cloned());
    let mut table = ColumnTable::new(header);
    for (workload, runs) in &data.per_workload {
        let baseline = &runs[0];
        let mut row = vec![workload.clone()];
        for run in runs {
            row.push(format!("{:.3}", run.speedup_over(baseline)));
        }
        table.push_row(row);
    }
    let mut geomean = vec!["geomean".to_string()];
    for config in &data.configs {
        geomean.push(format!("{:.3}", data.mean_speedup(config, &data.configs[0])));
    }
    table.push_row(geomean);
    table
}
/// Figure 9: runtime breakdown of each configuration, normalised to
/// conventional SC (each cell is `total% | busy/other/full/drain/violation`).
pub fn figure9(data: &FigureData) -> ColumnTable {
    let mut table = ColumnTable::new([
        "workload",
        "config",
        "runtime % of sc",
        "Busy",
        "Other",
        "SB full",
        "SB drain",
        "Violation",
    ]);
    for (workload, runs) in &data.per_workload {
        let baseline = &runs[0];
        for run in runs {
            let parts = run.normalized_breakdown(baseline);
            table.push_row([
                workload.clone(),
                run.config.clone(),
                format!("{:.1}", run.normalized_runtime(baseline)),
                format!("{:.1}", parts[CycleClass::Busy.index()]),
                format!("{:.1}", parts[CycleClass::Other.index()]),
                format!("{:.1}", parts[CycleClass::SbFull.index()]),
                format!("{:.1}", parts[CycleClass::SbDrain.index()]),
                format!("{:.1}", parts[CycleClass::Violation.index()]),
            ]);
        }
    }
    table
}

/// Figure 10: percentage of cycles each InvisiFence-Selective variant spends
/// in speculation.
pub fn figure10(data: &FigureData) -> ColumnTable {
    let mut table = ColumnTable::new(["workload", "config", "% cycles speculating"]);
    for (workload, runs) in &data.per_workload {
        for run in runs {
            if run.config.starts_with("Invisi") {
                table.push_row([
                    workload.clone(),
                    run.config.clone(),
                    format!("{:.1}", 100.0 * run.speculation_fraction),
                ]);
            }
        }
    }
    table
}

/// Figure 11: ASOsc versus InvisiFence-SC with one and two checkpoints,
/// runtime normalised to ASOsc.
pub fn figure11(workloads: &[Workload], ctx: &FigureContext<'_>) -> (FigureData, ColumnTable) {
    let engines = [
        EngineKind::Aso(ConsistencyModel::Sc),
        EngineKind::InvisiSelective(ConsistencyModel::Sc),
        EngineKind::InvisiSelectiveTwoCkpt(ConsistencyModel::Sc),
    ];
    let data = FigureData::run("Figure 11", &engines, workloads, ctx);
    let mut table = ColumnTable::new(["workload", "config", "runtime % of ASOsc", "Violation %"]);
    for (workload, runs) in &data.per_workload {
        let baseline = &runs[0];
        for run in runs {
            let parts = run.normalized_breakdown(baseline);
            table.push_row([
                workload.clone(),
                run.config.clone(),
                format!("{:.1}", run.normalized_runtime(baseline)),
                format!("{:.1}", parts[CycleClass::Violation.index()]),
            ]);
        }
    }
    (data, table)
}

/// Figure 12: conventional SC and RMO versus InvisiFence-Continuous (with and
/// without commit-on-violate) and InvisiFence-RMO, normalised to SC.
pub fn figure12(workloads: &[Workload], ctx: &FigureContext<'_>) -> (FigureData, ColumnTable) {
    let engines = [
        EngineKind::Conventional(ConsistencyModel::Sc),
        EngineKind::InvisiContinuous { commit_on_violate: false },
        EngineKind::Conventional(ConsistencyModel::Rmo),
        EngineKind::InvisiContinuous { commit_on_violate: true },
        EngineKind::InvisiSelective(ConsistencyModel::Rmo),
    ];
    let data = FigureData::run("Figure 12", &engines, workloads, ctx);
    let mut table =
        ColumnTable::new(["workload", "config", "runtime % of sc", "Violation %", "SB drain %"]);
    for (workload, runs) in &data.per_workload {
        let baseline = &runs[0];
        for run in runs {
            let parts = run.normalized_breakdown(baseline);
            table.push_row([
                workload.clone(),
                run.config.clone(),
                format!("{:.1}", run.normalized_runtime(baseline)),
                format!("{:.1}", parts[CycleClass::Violation.index()]),
                format!("{:.1}", parts[CycleClass::SbDrain.index()]),
            ]);
        }
    }
    (data, table)
}

/// The capacity points of the L2 sensitivity sweep, as `(label, bytes)`
/// pairs ending at the unbounded sentinel. Paper-scale machines sweep around
/// the paper's 8 MB; the reduced test machine sweeps around its 256 KB.
pub fn l2_capacity_points(params: &ExperimentParams) -> Vec<(String, usize)> {
    let mb = 1024 * 1024;
    let kb = 1024;
    if params.full_machine {
        vec![
            ("2MB".to_string(), 2 * mb),
            ("4MB".to_string(), 4 * mb),
            ("8MB".to_string(), 8 * mb),
            ("16MB".to_string(), 16 * mb),
            ("unbounded".to_string(), 0),
        ]
    } else {
        vec![
            ("16KB".to_string(), 16 * kb),
            ("64KB".to_string(), 64 * kb),
            ("256KB".to_string(), 256 * kb),
            ("unbounded".to_string(), 0),
        ]
    }
}

const CAPACITY_ENGINES: [EngineKind; 2] = [
    EngineKind::Conventional(ConsistencyModel::Rmo),
    EngineKind::InvisiSelective(ConsistencyModel::Rmo),
];

/// L2-capacity sensitivity sweep: conventional RMO and InvisiFence-RMO at
/// every capacity point of [`l2_capacity_points`]. Now that the L2 is a real
/// finite cache, miss latencies are an *outcome* — this sweep shows runtime,
/// L2 miss ratio, inclusion recalls and DRAM traffic responding to capacity.
pub fn l2_capacity_sweep(
    workloads: &[Workload],
    ctx: &FigureContext<'_>,
) -> (FigureData, ColumnTable) {
    let points: Vec<(String, Vec<MachineConfig>)> = l2_capacity_points(ctx.params)
        .into_iter()
        .map(|(label, bytes)| {
            let mut columns = engine_configs(&CAPACITY_ENGINES, ctx.params);
            for cfg in &mut columns {
                cfg.l2.size_bytes = bytes;
            }
            (label, columns)
        })
        .collect();
    let data = FigureData::run_points("L2 capacity", &points, workloads, ctx);

    let mut table = ColumnTable::new([
        "workload",
        "L2 capacity",
        "engine",
        "cycles",
        "L2 miss %",
        "recalls",
        "DRAM reads",
        "runtime % of unbounded",
    ]);
    let engines_n = CAPACITY_ENGINES.len();
    for (workload, runs) in &data.per_workload {
        for (p, (label, _)) in points.iter().enumerate() {
            for e in 0..engines_n {
                let run = &runs[p * engines_n + e];
                // The unbounded point is always last: the per-engine baseline.
                let baseline = &runs[(points.len() - 1) * engines_n + e];
                table.push_row([
                    workload.clone(),
                    label.clone(),
                    run.config.clone(),
                    run.cycles.to_string(),
                    format!("{:.1}", 100.0 * run.fabric.l2_miss_ratio()),
                    run.fabric.l2_recalls.to_string(),
                    run.fabric.dram_reads.to_string(),
                    format!("{:.1}", run.normalized_runtime(baseline)),
                ]);
            }
        }
    }
    (data, table)
}

/// Points of a one-engine ablation: `engine`'s default configuration with
/// `set` applied for each value, labelled by the value.
fn ablation_points<T: Copy + ToString>(
    engine: EngineKind,
    values: &[T],
    params: &ExperimentParams,
    set: fn(&mut MachineConfig, T),
) -> Vec<(String, Vec<MachineConfig>)> {
    values
        .iter()
        .map(|&value| {
            let mut cfg = params.config_for(engine);
            set(&mut cfg, value);
            (value.to_string(), vec![cfg])
        })
        .collect()
}

/// Runs a one-column-per-point ablation and renders one row per (workload,
/// point): the workload, the point label, then `metrics` of its run.
fn ablation_table(
    name: &str,
    header: &[&str],
    points: &[(String, Vec<MachineConfig>)],
    workloads: &[Workload],
    ctx: &FigureContext<'_>,
    metrics: fn(&RunSummary) -> Vec<String>,
) -> (FigureData, ColumnTable) {
    let data = FigureData::run_points(name, points, workloads, ctx);
    let mut table = ColumnTable::new(header.iter().copied());
    for (workload, runs) in &data.per_workload {
        for ((label, _), run) in points.iter().zip(runs) {
            let mut row = vec![workload.clone(), label.clone()];
            row.extend(metrics(run));
            table.push_row(row);
        }
    }
    (data, table)
}

/// Store-buffer capacity ablation (the paper's Section 6.1 sensitivity
/// study behind its 8- and 32-entry choices): InvisiFence-RMO with 2 to 32
/// entries. The 8-entry point is the default, shared with Figure 8.
pub fn store_buffer_ablation(
    workloads: &[Workload],
    ctx: &FigureContext<'_>,
) -> (FigureData, ColumnTable) {
    let engine = EngineKind::InvisiSelective(ConsistencyModel::Rmo);
    let points = ablation_points(engine, &[2usize, 4, 8, 16, 32], ctx.params, |cfg, entries| {
        cfg.store_buffer.entries = entries;
    });
    ablation_table(
        "store buffer",
        &["workload", "SB entries", "cycles", "SB-full cycles"],
        &points,
        workloads,
        ctx,
        |run| vec![run.cycles.to_string(), run.breakdown.get(CycleClass::SbFull).to_string()],
    )
}

/// Minimum-chunk-size ablation for InvisiFence-Continuous (the paper uses
/// about 100 instructions; that point is shared with Figure 12).
pub fn chunk_size_ablation(
    workloads: &[Workload],
    ctx: &FigureContext<'_>,
) -> (FigureData, ColumnTable) {
    let engine = EngineKind::InvisiContinuous { commit_on_violate: false };
    let points = ablation_points(engine, &[25usize, 50, 100, 200, 400], ctx.params, |cfg, n| {
        cfg.speculation.min_chunk_instructions = n;
    });
    ablation_table(
        "min chunk",
        &["workload", "min chunk (instr)", "cycles", "Violation cycles", "chunks committed"],
        &points,
        workloads,
        ctx,
        |run| {
            vec![
                run.cycles.to_string(),
                run.breakdown.get(CycleClass::Violation).to_string(),
                run.counters.speculations_committed.to_string(),
            ]
        },
    )
}

/// Commit-on-violate timeout ablation for InvisiFence-Continuous (the paper
/// evaluates 4000 cycles): how the timeout trades violations against delay.
/// Timeout 0 is plain InvisiFence-Continuous without commit-on-violate (the
/// timeout is read only with commit-on-violate on); it and the 4000-cycle
/// point are shared with Figure 12.
pub fn cov_timeout_ablation(
    workloads: &[Workload],
    ctx: &FigureContext<'_>,
) -> (FigureData, ColumnTable) {
    let engine = EngineKind::InvisiContinuous { commit_on_violate: true };
    let mut points = ablation_points(engine, &[500u64, 4000, 16000], ctx.params, |cfg, cycles| {
        cfg.speculation.cov_timeout = cycles;
    });
    let plain = ctx.params.config_for(EngineKind::InvisiContinuous { commit_on_violate: false });
    points.insert(0, ("0".to_string(), vec![plain]));
    ablation_table(
        "CoV timeout",
        &[
            "workload",
            "CoV timeout (cycles)",
            "cycles",
            "Violation cycles",
            "CoV commits",
            "CoV timeouts",
        ],
        &points,
        workloads,
        ctx,
        |run| {
            vec![
                run.cycles.to_string(),
                run.breakdown.get(CycleClass::Violation).to_string(),
                run.counters.cov_commits.to_string(),
                run.counters.cov_timeouts.to_string(),
            ]
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        let mut p = ExperimentParams::quick_test();
        p.instructions_per_core = 800;
        p
    }

    fn one_workload() -> Vec<Workload> {
        vec![presets::barnes().into()]
    }

    fn temp_store(tag: &str) -> (ExperimentStore, std::path::PathBuf) {
        let root =
            std::env::temp_dir().join(format!("ifence-figures-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        (ExperimentStore::open(&root).unwrap(), root)
    }

    #[test]
    fn figure1_reports_percentages_per_model() {
        let (data, table) = figure1(&one_workload(), &FigureContext::new(&quick()));
        assert_eq!(data.configs, vec!["sc", "tso", "rmo"]);
        assert_eq!(table.len(), 3);
        let text = table.to_string();
        assert!(text.contains("Barnes"));
        assert!(text.contains("SB drain %"));
    }

    #[test]
    fn selective_matrix_produces_all_six_configs_and_speedups() {
        let data = selective_matrix(&one_workload(), &FigureContext::new(&quick()));
        assert_eq!(data.configs.len(), 6);
        let fig8 = figure8(&data);
        let fig9 = figure9(&data);
        let fig10 = figure10(&data);
        assert_eq!(fig8.len(), 2, "one row per workload plus the geometric mean");
        assert_eq!(fig9.len(), 6);
        assert_eq!(fig10.len(), 3, "one row per InvisiFence variant");
        // SC speedup over itself is exactly 1.0.
        let sc = data.summary("Barnes", "sc").unwrap();
        assert!((sc.speedup_over(sc) - 1.0).abs() < 1e-12);
        // Every configuration completed the same architectural work.
        for (_, runs) in &data.per_workload {
            for run in runs {
                assert!(run.counters.instructions_retired > 0);
            }
        }
        assert!(data.mean_speedup("Invisi_sc", "sc") > 0.0);
        assert!(data.summary("Barnes", "nonexistent").is_none());
        assert_eq!(figure4(&data).len(), 4, "one row per InvisiFence variant");
    }

    #[test]
    fn figure_tables_are_byte_identical_across_parallelism() {
        let workloads = one_workload();
        let mut serial = quick();
        serial.parallelism = 1;
        let mut parallel = quick();
        parallel.parallelism = 8;
        let (serial_ctx, parallel_ctx) =
            (FigureContext::new(&serial), FigureContext::new(&parallel));
        let (_, t1) = figure1(&workloads, &serial_ctx);
        let (_, t8) = figure1(&workloads, &parallel_ctx);
        assert_eq!(t1.to_string(), t8.to_string());
        let fig8_serial = figure8(&selective_matrix(&workloads, &serial_ctx)).to_string();
        let fig8_parallel = figure8(&selective_matrix(&workloads, &parallel_ctx)).to_string();
        assert_eq!(fig8_serial, fig8_parallel);
    }

    #[test]
    fn cached_figure_run_leaves_a_manifest_and_warms_to_pure_hits() {
        let (store, root) = temp_store("cache");
        let workloads = one_workload();
        let params = quick();
        let ctx = FigureContext::with_store(&params, &store);

        let (cold, cold_table) = figure1(&workloads, &ctx);
        assert_eq!(cold.cache.misses, 3);
        assert_eq!(cold.cache.hits, 0);
        let (warm, warm_table) = figure1(&workloads, &ctx);
        assert!(warm.cache.all_hits(), "warm re-run must be pure hits: {:?}", warm.cache);
        assert_eq!(warm_table.to_string(), cold_table.to_string());

        // The run left a resolvable manifest behind.
        let manifest = store.read_manifest("Figure 1").unwrap().expect("manifest written");
        assert_eq!(manifest.configs, vec!["sc", "tso", "rmo"]);
        let rows = store.resolve(&manifest).unwrap();
        assert_eq!(rows, warm.per_workload);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn uncached_run_reports_all_misses() {
        let (data, _) = figure1(&one_workload(), &FigureContext::new(&quick()));
        assert_eq!(data.cache.hits, 0);
        assert_eq!(data.cache.misses, 3, "uncached cells count as misses");
    }

    #[test]
    fn every_section_id_selects_exactly_its_section() {
        for section in SECTIONS {
            let selected = select_figures(section.id).unwrap();
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].title, section.title);
        }
        let all = select_figures("all").unwrap();
        assert_eq!(all.len(), SECTIONS.len());
        let mut ids: Vec<&str> = all.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), SECTIONS.len(), "section ids are unique");
    }

    #[test]
    fn unknown_section_id_lists_the_valid_ones() {
        let err = select_figures("8-10").err().expect("unknown id is an error");
        for section in SECTIONS {
            assert!(err.contains(section.id), "{err:?} lists {}", section.id);
        }
        assert!(err.contains("all"));
    }

    #[test]
    fn run_all_figures_covers_every_section() {
        let (sections, cache) = run_figures(
            select_figures("all").unwrap(),
            &one_workload(),
            &FigureContext::new(&quick()),
        );
        let titles: Vec<&str> = sections.iter().map(|(title, _)| title.as_str()).collect();
        let expected: Vec<&str> = SECTIONS.iter().map(|s| s.title).collect();
        assert_eq!(titles, expected);
        assert!(sections.iter().all(|(_, table)| !table.is_empty()));
        // 3 (fig1) + 6 (figs 4, 8-10, run once) + 3 (fig11) + 5 (fig12) + 8
        // (L2 capacity: 4 points × 2 engines) + 5 (sb) + 5 (chunk) + 4 (cov)
        // cells, one workload.
        assert_eq!(cache.total(), 39);
    }

    #[test]
    fn ablation_tables_have_one_row_per_point_per_workload() {
        let workloads: Vec<Workload> = vec![presets::barnes().into(), presets::apache().into()];
        let ctx_params = quick();
        let ctx = FigureContext::new(&ctx_params);
        for (driver, points) in [
            (store_buffer_ablation as fn(&[Workload], &FigureContext<'_>) -> _, 5),
            (chunk_size_ablation, 5),
            (cov_timeout_ablation, 4),
        ] {
            let (data, table) = driver(&workloads, &ctx);
            assert_eq!(data.configs.len(), points);
            assert_eq!(table.len(), points * workloads.len(), "{}", data.figure);
            assert_eq!(data.cache.total(), points * workloads.len());
        }
    }

    #[test]
    fn default_ablation_points_are_store_hits_shared_with_figures_8_and_12() {
        let (store, root) = temp_store("ablation-share");
        let params = quick();
        let ctx = FigureContext::with_store(&params, &store);
        let workloads = one_workload();
        let fig8 = selective_matrix(&workloads, &ctx);
        let (fig12, _) = figure12(&workloads, &ctx);

        let (sb, _) = store_buffer_ablation(&workloads, &ctx);
        assert_eq!((sb.cache.hits, sb.cache.misses), (1, 4), "sb-8 is Figure 8's Invisi_rmo");
        assert_eq!(sb.summary("Barnes", "Invisi_rmo@8"), fig8.summary("Barnes", "Invisi_rmo"));
        let (chunk, _) = chunk_size_ablation(&workloads, &ctx);
        assert_eq!((chunk.cache.hits, chunk.cache.misses), (1, 4), "chunk-100 is Invisi_cont");
        assert_eq!(
            chunk.summary("Barnes", "Invisi_cont@100"),
            fig12.summary("Barnes", "Invisi_cont")
        );
        let (cov, _) = cov_timeout_ablation(&workloads, &ctx);
        assert_eq!((cov.cache.hits, cov.cache.misses), (2, 2), "cov-0 and cov-4000 are shared");
        assert_eq!(cov.summary("Barnes", "Invisi_cont@0"), fig12.summary("Barnes", "Invisi_cont"));
        assert_eq!(
            cov.summary("Barnes", "Invisi_cont_CoV@4000"),
            fig12.summary("Barnes", "Invisi_cont_CoV")
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn l2_capacity_sweep_shows_capacity_responding() {
        let params = quick();
        let (data, table) = l2_capacity_sweep(&one_workload(), &FigureContext::new(&params));
        let points = l2_capacity_points(&params);
        assert_eq!(data.configs.len(), points.len() * 2, "two engines per capacity point");
        assert_eq!(table.len(), points.len() * 2, "one row per (capacity, engine)");
        let (_, runs) = &data.per_workload[0];
        // Tightest capacity (first point) versus unbounded (last point),
        // conventional RMO column: the small L2 must miss at least as often
        // and run at least as long.
        let tight = &runs[0];
        let unbounded = &runs[(points.len() - 1) * 2];
        assert!(tight.fabric.l2_misses >= unbounded.fabric.l2_misses);
        assert!(tight.cycles >= unbounded.cycles);
        assert_eq!(unbounded.fabric.l2_evictions, 0, "unbounded point never evicts");
    }

    #[test]
    fn l2_capacity_points_cover_paper_and_test_machines() {
        let paper = ExperimentParams::default();
        let points = l2_capacity_points(&paper);
        assert!(points.iter().any(|(l, s)| l == "8MB" && *s == 8 * 1024 * 1024));
        assert_eq!(points.last().unwrap().1, 0, "sweeps end at the unbounded sentinel");
        let small = l2_capacity_points(&quick());
        assert!(small.len() >= 3);
        assert_eq!(small.last().unwrap().1, 0);
    }

    #[test]
    fn figure11_and_figure12_tables_have_expected_rows() {
        let p = quick();
        let ctx = FigureContext::new(&p);
        let (data11, table11) = figure11(&one_workload(), &ctx);
        assert_eq!(data11.configs, vec!["ASOsc", "Invisi_sc", "Invisi_sc-2ckpt"]);
        assert_eq!(table11.len(), 3);
        let (data12, table12) = figure12(&one_workload(), &ctx);
        assert_eq!(
            data12.configs,
            vec!["sc", "Invisi_cont", "rmo", "Invisi_cont_CoV", "Invisi_rmo"]
        );
        assert_eq!(table12.len(), 5);
    }
}
