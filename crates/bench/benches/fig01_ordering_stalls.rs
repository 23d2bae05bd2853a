//! Figure 1: ordering stalls in conventional SC/TSO/RMO implementations.

use ifence_bench::{paper_params, print_header, workload_suite};
use ifence_sim::figures;

fn main() {
    let params = paper_params();
    print_header(
        "Figure 1",
        "Ordering stalls (SB drain / SB full) as a percent of execution time for conventional SC, TSO and RMO",
        &params,
    );
    let (_, table) = figures::figure1(&workload_suite(), &params);
    println!("{table}");
}
