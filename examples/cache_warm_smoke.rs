//! Cache-warm smoke: runs a reduced figure sweep twice through a fresh
//! experiment store and asserts the second run is **100% cache hits** and at
//! least **5× faster** in wall clock — the CI gate for the result cache.
//!
//! ```text
//! cargo run --release --example cache_warm_smoke
//! ```
//!
//! The store lives in a per-process temporary directory (always cold at
//! start, removed on success), so the smoke measures the cache itself, not
//! leftover state.

use ifence_sim::figures::{run_figures, FigureContext, SECTIONS};
use ifence_sim::ExperimentParams;
use ifence_store::ExperimentStore;
use ifence_workloads::presets;
use std::time::Instant;

fn main() {
    let mut params = ExperimentParams::quick_test();
    // A meaty enough cold run that the ≥5× wall-clock assertion is about
    // simulation cost, not timer noise.
    params.instructions_per_core =
        std::env::var("IFENCE_INSTRS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_500);
    let workloads = presets::all_workloads();

    let root = std::env::temp_dir().join(format!("ifence-cache-warm-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ExperimentStore::open(&root).expect("store opens");
    let ctx = FigureContext::with_store(&params, &store);

    let cold_start = Instant::now();
    let (cold_sections, cold_cache) = run_figures(SECTIONS, &workloads, &ctx);
    let cold_elapsed = cold_start.elapsed();

    let warm_start = Instant::now();
    let (warm_sections, warm_cache) = run_figures(SECTIONS, &workloads, &ctx);
    let warm_elapsed = warm_start.elapsed();

    println!(
        "cold: {} cells ({} simulated, {} intra-suite hits) in {:.1} ms",
        cold_cache.total(),
        cold_cache.misses,
        cold_cache.hits,
        1000.0 * cold_elapsed.as_secs_f64()
    );
    println!(
        "warm: {} cells ({} simulated, {} hits) in {:.1} ms",
        warm_cache.total(),
        warm_cache.misses,
        warm_cache.hits,
        1000.0 * warm_elapsed.as_secs_f64()
    );

    assert!(cold_cache.misses > 0, "cold run must simulate");
    assert_eq!(warm_cache.misses, 0, "warm run must be 100% cache hits");
    assert_eq!(warm_cache.hits, cold_cache.total(), "warm run covers the same cells");
    assert!(warm_cache.all_hits());

    for ((title, cold_table), (_, warm_table)) in cold_sections.iter().zip(&warm_sections) {
        assert_eq!(
            cold_table.to_string(),
            warm_table.to_string(),
            "{title}: warm table must be byte-identical"
        );
    }

    let speedup = cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9);
    println!("warm speedup: {speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "warm re-run must be at least 5x faster (got {speedup:.1}x: cold {:?}, warm {:?})",
        cold_elapsed,
        warm_elapsed
    );

    std::fs::remove_dir_all(&root).expect("cleanup");
    println!("cache-warm smoke passed");
}
