//! Figure 4: properties of the InvisiFence variants, with the measured
//! time-in-speculation from a (reduced) Figure 10 run alongside the paper's
//! quoted ranges.

use ifence_bench::{paper_params, print_header, workload_suite};
use ifence_sim::figures;
use ifence_stats::ColumnTable;
use invisifence::figure4_rows;

fn main() {
    let params = paper_params();
    print_header("Figure 4", "Properties of INVISIFENCE variants", &params);
    let mut table = ColumnTable::new([
        "Variant",
        "Speculates on?",
        "% time speculating (paper)",
        "% time speculating (measured)",
        "Min. chunk size",
        "Snoops load Q?",
    ]);
    // Measure the selective variants on the first workload of the suite.
    let suite = workload_suite();
    let measured = figures::selective_matrix(&suite[..1], &params);
    let workload = &measured.per_workload[0].0;
    let lookup = |cfg: &str| {
        measured
            .summary(workload, cfg)
            .map(|s| format!("{:.0}%", 100.0 * s.speculation_fraction))
            .unwrap_or_else(|| "-".to_string())
    };
    for row in figure4_rows() {
        let measured_value = match row.variant {
            "INVISIFENCE-SELECTIVE rmo" => lookup("Invisi_rmo"),
            "INVISIFENCE-SELECTIVE tso" => lookup("Invisi_tso"),
            "INVISIFENCE-SELECTIVE sc" => lookup("Invisi_sc"),
            _ => "~100% (by construction)".to_string(),
        };
        table.push_row([
            row.variant.to_string(),
            row.speculates_on.to_string(),
            row.time_speculating.to_string(),
            measured_value,
            row.min_chunk_size.to_string(),
            if row.snoops_load_queue { "Yes" } else { "No" }.to_string(),
        ]);
    }
    println!("{table}");
}
