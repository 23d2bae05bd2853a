//! Figure 11: runtime of ASO versus InvisiFence-SC with one and two
//! checkpoints, normalised to ASOsc.

use ifence_bench::{paper_params, print_header, workload_suite};
use ifence_sim::figures;

fn main() {
    let params = paper_params();
    print_header(
        "Figure 11",
        "ASOsc vs Invisi_sc (1 checkpoint) vs Invisi_sc (2 checkpoints)",
        &params,
    );
    let (_, table) = figures::figure11(&workload_suite(), &params);
    println!("{table}");
}
