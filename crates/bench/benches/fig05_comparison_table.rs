//! Figure 5: qualitative comparison of BulkSC, InvisiFence and ASO.

use ifence_bench::{paper_params, print_header};
use ifence_stats::ColumnTable;
use invisifence::figure5_rows;

fn main() {
    let params = paper_params();
    print_header(
        "Figure 5",
        "Comparison of speculative implementations of memory consistency",
        &params,
    );
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
    println!("{table}");
}
