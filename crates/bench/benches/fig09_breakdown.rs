//! Figure 9: execution-time breakdown of conventional and InvisiFence
//! configurations, normalised to conventional SC.

use ifence_bench::{paper_params, print_header, workload_suite};
use ifence_sim::figures;

fn main() {
    let params = paper_params();
    print_header(
        "Figure 9",
        "Runtime breakdown (Busy / Other / SB full / SB drain / Violation), normalised to SC",
        &params,
    );
    let data = figures::selective_matrix(&workload_suite(), &params);
    println!("{}", figures::figure9(&data));
}
