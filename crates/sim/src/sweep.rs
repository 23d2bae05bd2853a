//! Parallel experiment-sweep engine.
//!
//! Every figure and sensitivity sweep of the paper compares a grid of
//! (machine configuration × workload) cells, and each cell is an
//! independent, deterministic simulation: the result of a cell is fully
//! determined by the [`MachineConfig`], the workload spec and the
//! [`ExperimentParams`] (trace length and seed), never by when or on which
//! thread the cell happens to run. That independence is what this module
//! exploits: an [`ExperimentMatrix`] executes its cells across a pool of
//! scoped worker threads and collects the results in grid order, so the
//! output is **byte-identical for a fixed seed regardless of the worker
//! count** — only the wall-clock time changes.
//!
//! A grid column is a whole [`MachineConfig`], not just an ordering engine,
//! so a configuration ablation (store-buffer size, L2 capacity, ...) is the
//! same kind of grid as a figure: its cells are cached under their own keys,
//! since [`CellKey`] hashes the full configuration. [`engine_configs`] builds
//! the plain columns, one per engine.
//!
//! The worker count comes from [`ExperimentParams::parallelism`] (defaulting
//! to the number of available cores, overridable with the `IFENCE_JOBS`
//! environment variable).
//!
//! # Example
//!
//! ```
//! use ifence_sim::sweep::{engine_configs, ExperimentMatrix};
//! use ifence_sim::ExperimentParams;
//! use ifence_types::{ConsistencyModel, EngineKind};
//! use ifence_workloads::{Workload, WorkloadSpec};
//!
//! let mut params = ExperimentParams::quick_test();
//! params.instructions_per_core = 400;
//! let engines = [
//!     EngineKind::Conventional(ConsistencyModel::Rmo),
//!     EngineKind::InvisiSelective(ConsistencyModel::Rmo),
//! ];
//! let configs = engine_configs(&engines, &params);
//! let workloads = [Workload::from(WorkloadSpec::uniform("demo"))];
//! let grid = ExperimentMatrix::new(&configs, &workloads).run(&params);
//! assert_eq!(grid.len(), 1);
//! assert_eq!(grid[0].1.len(), 2);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::runner::{run_config, ExperimentParams};
use ifence_stats::RunSummary;
use ifence_store::{CacheStats, CellKey, ExperimentStore, ManifestRow, SweepManifest};
use ifence_types::{EngineKind, MachineConfig};
use ifence_workloads::Workload;

/// Applies `f` to every item with up to `jobs` worker threads and returns the
/// results **in input order**, regardless of how the items were scheduled.
///
/// Workers pull the next unclaimed index from a shared counter, so long and
/// short items load-balance automatically. `jobs <= 1` degrades to a plain
/// serial loop on the calling thread.
///
/// # Panics
/// Propagates a panic from any invocation of `f` once all workers have been
/// joined.
fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("worker filled every slot")
        })
        .collect()
}

/// One grid column per engine: each engine's default machine configuration
/// at the given parameters ([`ExperimentParams::config_for`]).
pub fn engine_configs(engines: &[EngineKind], params: &ExperimentParams) -> Vec<MachineConfig> {
    engines.iter().map(|&engine| params.config_for(engine)).collect()
}

/// The content-addressed store key for one `(configuration × workload)` cell
/// at the given parameters — the single place key derivation happens, so
/// lookups before dispatch and write-behinds after completion can never
/// disagree.
pub fn cell_key(config: &MachineConfig, workload: &Workload, params: &ExperimentParams) -> CellKey {
    CellKey::new(config, workload, params.instructions_per_core, params.max_cycles)
}

/// The store manifest describing a `(configs × workloads)` grid at the given
/// parameters — the single place manifest rows and their cell hashes are
/// derived (shared by the figure drivers and the `ifence sweep` CLI, so the
/// two can never drift apart in how they address cells). Columns are
/// labelled by engine, so the configurations of one manifest must run
/// distinct engines.
pub fn manifest_for_grid(
    name: &str,
    figure: &str,
    configs: &[MachineConfig],
    workloads: &[Workload],
    params: &ExperimentParams,
) -> SweepManifest {
    SweepManifest {
        name: ifence_store::slug(name),
        figure: figure.to_string(),
        configs: configs.iter().map(|c| c.engine.label()).collect(),
        instructions_per_core: params.instructions_per_core as u64,
        seed: params.seed,
        rows: workloads
            .iter()
            .map(|w| ManifestRow {
                workload: w.name().to_string(),
                cells: configs.iter().map(|c| cell_key(c, w, params).hash).collect(),
            })
            .collect(),
    }
}

/// The outcome of a cached sweep: the grid rows plus how much of the grid
/// was served from the store.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// `(workload name, summaries)` rows, exactly as [`ExperimentMatrix::run`]
    /// returns them — byte-identical whether a cell was simulated or loaded.
    pub rows: Vec<(String, Vec<RunSummary>)>,
    /// Cache-effectiveness counters ([`CacheStats::default`] when no store
    /// was supplied).
    pub cache: CacheStats,
}

/// The (configuration × workload) grid of one experiment sweep.
///
/// Cells are executed on a worker pool and collected workload-major, in the
/// exact order a serial double loop over `workloads` then `configs` would
/// produce. Every cell runs with the same [`ExperimentParams`] — notably the
/// same seed, since comparing configurations is only meaningful on identical
/// traces — so the grid is deterministic for a fixed seed at any
/// parallelism.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentMatrix<'a> {
    configs: &'a [MachineConfig],
    workloads: &'a [Workload],
}

impl<'a> ExperimentMatrix<'a> {
    /// A matrix running each of `configs` on each of `workloads` (steady
    /// presets and phased scenarios alike — every cell streams its traces).
    pub fn new(configs: &'a [MachineConfig], workloads: &'a [Workload]) -> Self {
        ExperimentMatrix { configs, workloads }
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.configs.len() * self.workloads.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every cell and returns `(workload name, summaries)` rows where
    /// `summaries[i]` ran under `configs[i]`.
    pub fn run(&self, params: &ExperimentParams) -> Vec<(String, Vec<RunSummary>)> {
        self.run_cached(params, None).rows
    }

    /// Like [`ExperimentMatrix::run`], but consulting (and feeding) an
    /// experiment store when one is supplied:
    ///
    /// * **Lookup before dispatch** — every cell's [`CellKey`] is checked
    ///   against the store first; hits never reach the worker pool.
    /// * **Write-behind after collection** — each simulated cell is
    ///   persisted the moment its worker finishes (atomic shard rewrite),
    ///   so an interrupted sweep resumes from its last completed cell and a
    ///   warm re-run of the whole grid performs zero simulations.
    ///
    /// The returned rows are byte-identical to an uncached run: a cell's
    /// summary is a pure function of its key, and the JSON codec round-trips
    /// every field exactly. Store I/O failures degrade to recomputation (a
    /// warning on stderr), never to a failed sweep.
    pub fn run_cached(
        &self,
        params: &ExperimentParams,
        store: Option<&ExperimentStore>,
    ) -> SweepRun {
        let cells: Vec<(usize, usize)> = (0..self.workloads.len())
            .flat_map(|w| (0..self.configs.len()).map(move |c| (w, c)))
            .collect();
        let mut slots: Vec<Option<RunSummary>> = vec![None; cells.len()];
        let keys: Vec<Option<CellKey>> = match store {
            Some(store) => cells
                .iter()
                .enumerate()
                .map(|(i, &(w, c))| {
                    let key = cell_key(&self.configs[c], &self.workloads[w], params);
                    slots[i] = store.get(&key);
                    Some(key)
                })
                .collect(),
            None => vec![None; cells.len()],
        };
        let hits = slots.iter().filter(|s| s.is_some()).count();
        let misses: Vec<usize> =
            slots.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(i, _)| i).collect();
        let computed = parallel_map(&misses, params.effective_jobs(), |_, &i| {
            let (w, c) = cells[i];
            let summary = run_config(&self.configs[c], &self.workloads[w], params);
            if let (Some(store), Some(key)) = (store, keys[i].as_ref()) {
                if let Err(err) = store.put(key, &summary) {
                    eprintln!(
                        "warning: could not persist cell {} to {}: {err}",
                        key.hex(),
                        store.root().display()
                    );
                }
            }
            summary
        });
        for (i, summary) in misses.iter().zip(computed) {
            slots[*i] = Some(summary);
        }
        let mut rows: Vec<(String, Vec<RunSummary>)> = self
            .workloads
            .iter()
            .map(|w| (w.name().to_string(), Vec::with_capacity(self.configs.len())))
            .collect();
        for ((w, _), summary) in cells.into_iter().zip(slots) {
            rows[w].1.push(summary.expect("every slot filled by lookup or computation"));
        }
        SweepRun { rows, cache: CacheStats { hits, misses: misses.len() } }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::ConsistencyModel;
    use ifence_workloads::presets;

    fn quick(parallelism: usize) -> ExperimentParams {
        let mut p = ExperimentParams::quick_test();
        p.instructions_per_core = 600;
        p.parallelism = parallelism;
        p
    }

    fn columns(engines: &[EngineKind]) -> Vec<MachineConfig> {
        engine_configs(engines, &ExperimentParams::quick_test())
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 8, 64] {
            let out = parallel_map(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<usize> = parallel_map(&[], 8, |_, x: &usize| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn matrix_rows_are_workload_major_and_engine_ordered() {
        let engines = [
            EngineKind::Conventional(ConsistencyModel::Rmo),
            EngineKind::InvisiSelective(ConsistencyModel::Rmo),
        ];
        let workloads = [presets::barnes().into(), presets::ocean().into()];
        let configs = columns(&engines);
        let matrix = ExperimentMatrix::new(&configs, &workloads);
        assert_eq!(matrix.len(), 4);
        assert!(!matrix.is_empty());
        let rows = matrix.run(&quick(2));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "Barnes");
        assert_eq!(rows[1].0, "Ocean");
        for (_, runs) in &rows {
            assert_eq!(runs[0].config, "rmo");
            assert_eq!(runs[1].config, "Invisi_rmo");
        }
    }

    #[test]
    fn cached_sweep_is_byte_identical_and_warms_to_pure_hits() {
        let engines = [
            EngineKind::Conventional(ConsistencyModel::Sc),
            EngineKind::InvisiSelective(ConsistencyModel::Rmo),
        ];
        let workloads = [presets::barnes().into(), presets::apache().into()];
        let configs = columns(&engines);
        let matrix = ExperimentMatrix::new(&configs, &workloads);
        let params = quick(4);
        let uncached = matrix.run(&params);

        let root =
            std::env::temp_dir().join(format!("ifence-sweep-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ExperimentStore::open(&root).unwrap();
        let cold = matrix.run_cached(&params, Some(&store));
        assert_eq!(cold.cache, CacheStats { hits: 0, misses: 4 });
        assert_eq!(cold.rows, uncached, "caching must not change results");

        let warm = matrix.run_cached(&params, Some(&store));
        assert_eq!(warm.cache, CacheStats { hits: 4, misses: 0 });
        assert!(warm.cache.all_hits());
        assert_eq!(warm.rows, uncached, "stored summaries must round-trip exactly");

        // Different parameters miss: the trace budget is part of the key.
        let mut longer = params;
        longer.instructions_per_core += 1;
        let other = matrix.run_cached(&longer, Some(&store));
        assert_eq!(other.cache.hits, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn partially_filled_store_resumes_the_remaining_cells() {
        // Simulate an interrupted sweep: only the first engine's column was
        // persisted before the "crash". The re-run serves that column from
        // the store and simulates only the rest.
        let engines = [
            EngineKind::Conventional(ConsistencyModel::Tso),
            EngineKind::InvisiSelective(ConsistencyModel::Tso),
        ];
        let workloads = [presets::ocean().into()];
        let params = quick(2);
        let root =
            std::env::temp_dir().join(format!("ifence-sweep-resume-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ExperimentStore::open(&root).unwrap();
        ExperimentMatrix::new(&columns(&engines[..1]), &workloads)
            .run_cached(&params, Some(&store));
        assert_eq!(store.len(), 1);

        let resumed =
            ExperimentMatrix::new(&columns(&engines), &workloads).run_cached(&params, Some(&store));
        assert_eq!(resumed.cache, CacheStats { hits: 1, misses: 1 });
        let full = ExperimentMatrix::new(&columns(&engines), &workloads).run(&params);
        assert_eq!(resumed.rows, full);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sweep_is_deterministic_across_parallelism() {
        // Same seed ⇒ identical cycles and identical aggregated per-core
        // stats (breakdown + counters) whether the grid runs on one worker or
        // many. This is the property that makes IFENCE_JOBS purely a
        // wall-clock knob.
        let engines = [
            EngineKind::Conventional(ConsistencyModel::Rmo),
            EngineKind::InvisiSelective(ConsistencyModel::Rmo),
        ];
        let workloads = [presets::barnes().into(), Workload::from(presets::server_swings())];
        let configs = columns(&engines);
        let matrix = ExperimentMatrix::new(&configs, &workloads);
        let serial = matrix.run(&quick(1));
        for jobs in [2, 8] {
            let parallel = matrix.run(&quick(jobs));
            assert_eq!(serial, parallel, "results diverged at parallelism {jobs}");
        }
        for (workload, runs) in &serial {
            for run in runs {
                assert!(run.cycles > 0, "{workload}/{} ran", run.config);
            }
        }
    }
}
