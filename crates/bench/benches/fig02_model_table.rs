//! Figure 2: consistency-model definitions and conventional implementations.

use ifence_bench::{paper_params, print_header};
use ifence_consistency::figure2_rows;
use ifence_stats::ColumnTable;

fn main() {
    let params = paper_params();
    print_header(
        "Figure 2",
        "Memory consistency models: definitions and conventional implementations",
        &params,
    );
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
    println!("{table}");
}
