//! Figure 10: percentage of cycles the InvisiFence-Selective variants spend in
//! speculation.

use ifence_bench::{paper_params, print_header, workload_suite};
use ifence_sim::figures;

fn main() {
    let params = paper_params();
    print_header(
        "Figure 10",
        "Percent of cycles spent in speculation (Invisi_sc, Invisi_tso, Invisi_rmo)",
        &params,
    );
    let data = figures::selective_matrix(&workload_suite(), &params);
    println!("{}", figures::figure10(&data));
}
