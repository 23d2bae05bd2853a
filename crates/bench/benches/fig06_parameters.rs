//! Figure 6: simulated-machine parameters.

use ifence_bench::{paper_params, print_header};
use ifence_stats::ColumnTable;
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};

fn main() {
    let params = paper_params();
    print_header("Figure 6", "Simulator parameters (paper baseline configuration)", &params);
    let mut table = ColumnTable::new(["Component", "Configuration"]);
    for (k, v) in MachineConfig::paper_baseline().figure6_rows() {
        table.push_row([k, v]);
    }
    println!("{table}");
    let invisi = MachineConfig::with_engine(EngineKind::InvisiSelective(ConsistencyModel::Rmo));
    println!(
        "InvisiFence additional state over the conventional baseline: {} bytes (paper: ~1 KB)",
        invisi.speculative_state_bytes()
    );
}
