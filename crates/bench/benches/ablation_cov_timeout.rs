//! Ablation: commit-on-violate deferral timeout (the paper evaluates 4000
//! cycles; this sweep shows how the choice trades violations against delay).

use ifence_bench::{paper_params, print_header, sweep};
use ifence_stats::ColumnTable;
use ifence_types::{CycleClass, EngineKind};
use ifence_workloads::presets;

fn main() {
    let params = paper_params();
    print_header("Ablation", "Commit-on-violate timeout sweep for InvisiFence-Continuous", &params);
    let workload = presets::zeus();
    let mut table = ColumnTable::new([
        "CoV timeout (cycles)",
        "cycles",
        "Violation cycles",
        "CoV commits",
        "CoV timeouts",
    ]);
    let timeouts = [0u64, 500, 4000, 16000];
    let rows = sweep::parallel_map(&timeouts, params.effective_jobs(), |_, &timeout| {
        let mut cfg = ifence_types::MachineConfig::with_engine(EngineKind::InvisiContinuous {
            commit_on_violate: timeout > 0,
        });
        cfg.speculation.cov_timeout = timeout.max(1);
        cfg.seed = params.seed;
        let programs = workload.generate(cfg.cores, params.instructions_per_core, params.seed);
        let mut machine = ifence_sim::Machine::new(cfg, programs).expect("valid config");
        let result = machine.run(params.max_cycles);
        let summary = result.summary(workload.name.clone());
        [
            timeout.to_string(),
            summary.cycles.to_string(),
            summary.breakdown.get(CycleClass::Violation).to_string(),
            summary.counters.cov_commits.to_string(),
            summary.counters.cov_timeouts.to_string(),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    println!("{table}");
}
