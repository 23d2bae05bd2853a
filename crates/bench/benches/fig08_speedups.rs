//! Figure 8: speedups of InvisiFence-Selective and conventional TSO/RMO over
//! conventional SC.

use ifence_bench::{paper_params, print_header, workload_suite};
use ifence_sim::figures;

fn main() {
    let params = paper_params();
    print_header(
        "Figure 8",
        "Speedups over conventional SC (sc, tso, rmo, Invisi_sc, Invisi_tso, Invisi_rmo)",
        &params,
    );
    let data = figures::selective_matrix(&workload_suite(), &params);
    println!("{}", figures::figure8(&data));
    for config in ["tso", "rmo", "Invisi_sc", "Invisi_tso", "Invisi_rmo"] {
        println!(
            "geometric-mean speedup of {config} over sc: {:.3}",
            data.mean_speedup(config, "sc")
        );
    }
}
