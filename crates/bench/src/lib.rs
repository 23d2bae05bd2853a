//! Shared plumbing for the benchmark harness.
//!
//! Every table and figure of the paper has a `cargo bench` target in
//! `benches/` (they are plain binaries, not Criterion timing loops, because
//! what they produce is the figure's *data*). The experiment size is taken
//! from the `IFENCE_INSTRS` / `IFENCE_SEED` environment variables,
//! defaulting to 100 000 instructions per core on the 16-core paper machine
//! (traces stream through bounded replay windows, so the budget is
//! simulation time, not memory). Experiment grids run through the parallel
//! sweep engine in [`ifence_sim::sweep`] on `IFENCE_JOBS` worker threads
//! (default: available cores) — the emitted tables are byte-identical at any
//! job count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ifence_sim::runner::{process_env, EnvLookup};
use ifence_sim::ExperimentParams;
use ifence_workloads::{presets, Workload};

pub use ifence_sim::sweep;

/// Experiment parameters for figure regeneration (paper machine, environment
/// overridable).
pub fn paper_params() -> ExperimentParams {
    ExperimentParams::from_env()
}

/// The runnable workload suite: the seven Figure 7 presets plus the phased
/// `ServerSwings` scenario, or a subset selected with the `IFENCE_WORKLOADS`
/// environment variable (comma-separated names). Unknown names warn on
/// stderr and are skipped; if none is known, the whole suite runs.
pub fn workload_suite() -> Vec<Workload> {
    workload_suite_from(&process_env)
}

/// Like [`workload_suite`], but reading `IFENCE_WORKLOADS` through an
/// injected lookup (testable without process-global environment mutation).
pub fn workload_suite_from(lookup: EnvLookup<'_>) -> Vec<Workload> {
    match lookup("IFENCE_WORKLOADS") {
        Some(names) => {
            let mut selected = Vec::new();
            for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                match presets::workload_by_name(name) {
                    Some(workload) => selected.push(workload),
                    None => {
                        eprintln!("warning: ignoring unknown workload {name:?} in IFENCE_WORKLOADS")
                    }
                }
            }
            if selected.is_empty() {
                presets::all_workloads()
            } else {
                selected
            }
        }
        None => presets::all_workloads(),
    }
}

/// Prints the standard header for a figure-regeneration bench target.
///
/// Takes the caller's already-built params rather than re-reading the
/// environment, so an unparseable `IFENCE_*` value warns exactly once.
pub fn print_header(figure: &str, description: &str, params: &ExperimentParams) {
    println!("================================================================================");
    println!("{figure}: {description}");
    // The sweep worker count is deliberately not printed: output must be
    // byte-identical for a fixed seed at any IFENCE_JOBS value.
    println!(
        "machine: 16-core paper baseline; {} instructions/core, seed {} (override with IFENCE_INSTRS / IFENCE_SEED / IFENCE_WORKLOADS / IFENCE_JOBS)",
        params.instructions_per_core, params.seed
    );
    println!("================================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_defaults_to_all_workloads_including_phased() {
        let suite = workload_suite_from(&|_| None);
        assert_eq!(suite.len(), 8, "seven presets plus ServerSwings");
        assert_eq!(suite.last().unwrap().name(), "ServerSwings");
    }

    #[test]
    fn suite_can_be_narrowed_by_env() {
        let env = |name: &str| (name == "IFENCE_WORKLOADS").then(|| "Barnes, Ocean".to_string());
        let suite = workload_suite_from(&env);
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].name(), "Barnes");
        // A misspelt name is skipped (with a warning), not a reason to run
        // the whole suite.
        let env =
            |name: &str| (name == "IFENCE_WORKLOADS").then(|| "Barnse, Ocean,Apache".to_string());
        let suite = workload_suite_from(&env);
        let names: Vec<&str> = suite.iter().map(Workload::name).collect();
        assert_eq!(names, ["Ocean", "Apache"]);
    }

    #[test]
    fn phased_scenario_is_selectable_by_name() {
        let env = |name: &str| (name == "IFENCE_WORKLOADS").then(|| "ServerSwings".to_string());
        let suite = workload_suite_from(&env);
        assert_eq!(suite.len(), 1);
        assert!(matches!(suite[0], Workload::Phased(_)));
    }

    #[test]
    fn params_come_from_injected_environment() {
        let env = |name: &str| (name == "IFENCE_INSTRS").then(|| "777".to_string());
        let p = ExperimentParams::from_env_with(&env);
        assert_eq!(p.instructions_per_core, 777);
    }
}
