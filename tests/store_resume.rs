//! The experiment store's acceptance properties, end to end:
//!
//! 1. A figure-suite run **interrupted halfway** resumes from the store and
//!    produces byte-identical figure data and tables to an uninterrupted
//!    cold run.
//! 2. A **warm re-run** of the same command performs zero simulations
//!    (asserted through the cache-hit counters).
//! 3. Cells are shared **across figures**: Figure 12 reuses conventional
//!    SC/RMO cells that Figure 1 already simulated.

use ifence_sim::figures::{self, run_figures, FigureContext, SECTIONS};
use ifence_sim::ExperimentParams;
use ifence_store::ExperimentStore;
use ifence_workloads::{presets, Workload};
use std::path::PathBuf;

fn params() -> ExperimentParams {
    let mut p = ExperimentParams::quick_test();
    p.instructions_per_core = 900;
    p
}

fn suite() -> Vec<Workload> {
    // One steady preset and the phased scenario: both trace paths cross the
    // store.
    vec![presets::barnes().into(), Workload::from(presets::server_swings())]
}

fn fresh_store(tag: &str) -> (ExperimentStore, PathBuf) {
    let root =
        std::env::temp_dir().join(format!("ifence-resume-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    (ExperimentStore::open(&root).expect("store opens"), root)
}

#[test]
fn interrupted_figure_run_resumes_and_matches_cold_run_byte_for_byte() {
    let params = params();
    let workloads = suite();

    // Reference: an uninterrupted cold run in its own store.
    let (cold_store, cold_root) = fresh_store("cold");
    let cold_ctx = FigureContext::with_store(&params, &cold_store);
    let (cold_sections, cold_cache) = run_figures(SECTIONS, &workloads, &cold_ctx);
    // 17 paper-figure cells, the L2-capacity sweep's 8 (4 capacity points ×
    // 2 engines) and the ablations' 14 (5 store-buffer sizes, 5 chunk sizes,
    // 4 CoV timeouts) per workload.
    assert_eq!(cold_cache.hits + cold_cache.misses, 39 * workloads.len());
    assert!(cold_cache.misses > 0, "a cold run simulates");
    // Figures share cells (e.g. conventional SC appears in Figures 1, 8 and
    // 12), so even a cold *suite* run gets intra-suite hits.
    assert!(cold_cache.hits > 0, "figures share cells within one suite run");

    // "Interrupted" run: the process died after Figure 1 and the Figures
    // 8-10 matrix; only their cells were persisted.
    let (resume_store, resume_root) = fresh_store("resume");
    let resume_ctx = FigureContext::with_store(&params, &resume_store);
    let _ = figures::figure1(&workloads, &resume_ctx);
    let _ = figures::selective_matrix(&workloads, &resume_ctx);
    let persisted_midway = resume_store.len();
    assert!(persisted_midway > 0, "the interrupted run left cells behind");

    // Resume: the full suite against the half-filled store.
    let (resumed_sections, resumed_cache) = run_figures(SECTIONS, &workloads, &resume_ctx);
    assert!(
        resumed_cache.hits >= persisted_midway,
        "resume must serve at least the persisted cells from the store \
         ({} hits, {persisted_midway} persisted)",
        resumed_cache.hits
    );
    assert!(
        resumed_cache.misses < cold_cache.misses,
        "resume must simulate strictly less than the cold run"
    );

    // Byte-identical output: every section title and rendered table.
    assert_eq!(cold_sections.len(), resumed_sections.len());
    for ((cold_title, cold_table), (resumed_title, resumed_table)) in
        cold_sections.iter().zip(&resumed_sections)
    {
        assert_eq!(cold_title, resumed_title);
        assert_eq!(
            cold_table.to_string(),
            resumed_table.to_string(),
            "{cold_title}: resumed table differs from cold run"
        );
    }

    // And the underlying figure data (not just its rendering) is equal.
    let cold_data = figures::selective_matrix(&workloads, &cold_ctx);
    let resumed_data = figures::selective_matrix(&workloads, &resume_ctx);
    assert_eq!(cold_data.configs, resumed_data.configs);
    assert_eq!(
        cold_data.per_workload, resumed_data.per_workload,
        "per-cell summaries must be byte-identical after a resume"
    );

    std::fs::remove_dir_all(&cold_root).unwrap();
    std::fs::remove_dir_all(&resume_root).unwrap();
}

#[test]
fn warm_rerun_of_the_full_suite_performs_zero_simulations() {
    let params = params();
    let workloads = suite();
    let (store, root) = fresh_store("warm");
    let ctx = FigureContext::with_store(&params, &store);

    let (cold_sections, _) = run_figures(SECTIONS, &workloads, &ctx);
    let entries_after_cold = store.len();

    let (warm_sections, warm_cache) = run_figures(SECTIONS, &workloads, &ctx);
    assert_eq!(warm_cache.misses, 0, "a warm re-run must not simulate anything");
    assert_eq!(warm_cache.hits, 39 * workloads.len(), "every lookup must hit");
    assert!(warm_cache.all_hits());
    assert_eq!(store.len(), entries_after_cold, "a warm run adds no entries");
    for ((_, cold_table), (_, warm_table)) in cold_sections.iter().zip(&warm_sections) {
        assert_eq!(cold_table.to_string(), warm_table.to_string());
    }

    // The suite's manifests are all present and resolvable.
    let names = store.manifest_names().unwrap();
    for expected in [
        "figure-1",
        "figures-8-10",
        "figure-11",
        "figure-12",
        "l2-capacity-unbounded",
        "store-buffer-8",
        "min-chunk-100",
        "cov-timeout-0",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing manifest {expected}: {names:?}");
        let manifest = store.read_manifest(expected).unwrap().expect("manifest readable");
        store.resolve(&manifest).expect("manifest cells all in store");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn figure_cells_are_shared_across_figures() {
    let params = params();
    let workloads = suite();
    let (store, root) = fresh_store("shared");
    let ctx = FigureContext::with_store(&params, &store);

    let (fig1, _) = figures::figure1(&workloads, &ctx);
    assert_eq!(fig1.cache.misses, 3 * workloads.len(), "cold Figure 1 simulates everything");

    // Figure 12 includes conventional SC and RMO, which Figure 1 already
    // simulated: 2 of its 5 engines per workload come from the store.
    let (fig12, _) = figures::figure12(&workloads, &ctx);
    assert_eq!(fig12.cache.hits, 2 * workloads.len());
    assert_eq!(fig12.cache.misses, 3 * workloads.len());
    std::fs::remove_dir_all(&root).unwrap();
}
