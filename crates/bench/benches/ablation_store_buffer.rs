//! Ablation: store-buffer capacity sensitivity (the paper's Section 6.1
//! sensitivity study behind the 8-entry / 32-entry choices).

use ifence_bench::{paper_params, print_header, sweep};
use ifence_stats::ColumnTable;
use ifence_types::{ConsistencyModel, EngineKind};
use ifence_workloads::presets;

fn main() {
    let params = paper_params();
    print_header("Ablation", "InvisiFence-RMO store-buffer capacity sensitivity", &params);
    let workload = presets::apache();
    let mut table = ColumnTable::new(["SB entries", "cycles", "SB-full cycles"]);
    let sizes = [2usize, 4, 8, 16, 32];
    let rows = sweep::parallel_map(&sizes, params.effective_jobs(), |_, &entries| {
        // Rebuild the experiment with a custom store-buffer size by adjusting
        // the derived configuration through the runner's seam: the runner uses
        // MachineConfig::with_engine, so emulate it here directly.
        let mut cfg = ifence_types::MachineConfig::with_engine(EngineKind::InvisiSelective(
            ConsistencyModel::Rmo,
        ));
        cfg.store_buffer.entries = entries;
        cfg.seed = params.seed;
        let programs = workload.generate(cfg.cores, params.instructions_per_core, params.seed);
        let mut machine = ifence_sim::Machine::new(cfg, programs).expect("valid config");
        let result = machine.run(params.max_cycles);
        let summary = result.summary(workload.name.clone());
        [
            entries.to_string(),
            summary.cycles.to_string(),
            summary.breakdown.get(ifence_types::CycleClass::SbFull).to_string(),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    println!("{table}");
}
