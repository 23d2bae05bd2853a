//! Ablation: minimum chunk size for InvisiFence-Continuous (the paper uses
//! ~100 instructions).

use ifence_bench::{paper_params, print_header, sweep};
use ifence_stats::ColumnTable;
use ifence_types::{CycleClass, EngineKind};
use ifence_workloads::presets;

fn main() {
    let params = paper_params();
    print_header("Ablation", "Minimum chunk size sweep for InvisiFence-Continuous", &params);
    let workload = presets::barnes();
    let mut table =
        ColumnTable::new(["min chunk (instr)", "cycles", "Violation cycles", "chunks committed"]);
    let chunks = [25usize, 50, 100, 200, 400];
    let rows = sweep::parallel_map(&chunks, params.effective_jobs(), |_, &chunk| {
        let mut cfg = ifence_types::MachineConfig::with_engine(EngineKind::InvisiContinuous {
            commit_on_violate: false,
        });
        cfg.speculation.min_chunk_instructions = chunk;
        cfg.seed = params.seed;
        let programs = workload.generate(cfg.cores, params.instructions_per_core, params.seed);
        let mut machine = ifence_sim::Machine::new(cfg, programs).expect("valid config");
        let result = machine.run(params.max_cycles);
        let summary = result.summary(workload.name.clone());
        [
            chunk.to_string(),
            summary.cycles.to_string(),
            summary.breakdown.get(CycleClass::Violation).to_string(),
            summary.counters.speculations_committed.to_string(),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    println!("{table}");
}
