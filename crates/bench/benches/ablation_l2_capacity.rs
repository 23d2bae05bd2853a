//! Ablation: L2-capacity sensitivity of the memory hierarchy.
//!
//! The shared L2 is a real banked, finite, inclusive cache with directory
//! state embedded in its tags and a DRAM tier behind it, so miss latencies
//! are an *outcome* of capacity instead of a first-touch constant. This
//! target sweeps the capacity around the paper's 8 MB (Figure 6) — down to
//! configurations that thrash and up to the unbounded sentinel that
//! reproduces the pre-capacity fabric — for conventional RMO and
//! InvisiFence-RMO, reporting cycles, L2 miss ratio, inclusion recalls and
//! DRAM traffic per point.

use ifence_bench::{paper_params, print_header, workload_suite};
use ifence_sim::figures::l2_capacity_sweep;

fn main() {
    let params = paper_params();
    print_header(
        "Ablation",
        "L2 capacity sensitivity: finite banked L2 + DRAM tier vs the unbounded sentinel",
        &params,
    );
    let workloads = workload_suite();
    let (_, table) = l2_capacity_sweep(&workloads, &params);
    println!("{table}");
    println!(
        "(runtime normalised per engine to the unbounded point; recalls are inclusion \
         invalidations the L2 sent to evict lines still held by L1s)"
    );
}
