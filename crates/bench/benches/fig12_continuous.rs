//! Figure 12: conventional SC/RMO versus InvisiFence-Continuous with and
//! without commit-on-violate, and InvisiFence-RMO.

use ifence_bench::{paper_params, print_header, workload_suite};
use ifence_sim::figures;

fn main() {
    let params = paper_params();
    print_header(
        "Figure 12",
        "sc, Invisi_cont, rmo, Invisi_cont_CoV, Invisi_rmo (normalised to SC)",
        &params,
    );
    let (_, table) = figures::figure12(&workload_suite(), &params);
    println!("{table}");
}
