//! Derived results: run summaries, speedups, confidence intervals and
//! plain-text tables used by the figure harness.

use crate::{CoreStats, CycleBreakdown, FabricStats, Log2Hist, RunHistograms, SimCounters};
use ifence_types::Cycle;
use std::fmt;

/// Aggregated result of one simulation run (one workload × one configuration).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Label of the configuration (e.g. "Invisi_rmo").
    pub config: String,
    /// Label of the workload (e.g. "Apache").
    pub workload: String,
    /// Total simulated cycles (wall-clock of the run: the slowest core).
    pub cycles: Cycle,
    /// Machine-wide cycle breakdown (sum over cores).
    pub breakdown: CycleBreakdown,
    /// Machine-wide event counters (sum over cores).
    pub counters: SimCounters,
    /// Shared-L2 / DRAM counters gathered by the coherence fabric.
    pub fabric: FabricStats,
    /// Machine-wide telemetry histograms (episode length, deferral window,
    /// store-buffer occupancy, L2 miss latency, fabric queue depth).
    pub histograms: RunHistograms,
    /// Fraction of cycles spent speculating (Figure 10).
    pub speculation_fraction: f64,
}

impl RunSummary {
    /// Builds a summary from per-core statistics, the run's wall-clock cycles
    /// and the fabric's memory-hierarchy counters.
    pub fn from_parts(
        config: impl Into<String>,
        workload: impl Into<String>,
        cycles: Cycle,
        cores: &[CoreStats],
        fabric: FabricStats,
    ) -> Self {
        let mut agg = CoreStats::new();
        for c in cores {
            agg.merge(c);
        }
        let speculation_fraction = agg.speculation_fraction();
        RunSummary {
            config: config.into(),
            workload: workload.into(),
            cycles,
            breakdown: agg.breakdown,
            counters: agg.counters,
            fabric,
            // The per-core histograms aggregate here; the fabric's two are
            // only known to the machine, which overwrites this field in
            // `MachineResult::summary`.
            histograms: RunHistograms::from_parts(&[agg.hists], Log2Hist::new(), Log2Hist::new()),
            speculation_fraction,
        }
    }

    /// Speedup of this run relative to a baseline run of the same workload
    /// (baseline cycles / this run's cycles). Greater than 1.0 means faster.
    pub fn speedup_over(&self, baseline: &RunSummary) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Runtime of this run normalized to a baseline (percent; the quantity on
    /// the y-axis of Figures 9, 11 and 12). Lower is better.
    pub fn normalized_runtime(&self, baseline: &RunSummary) -> f64 {
        if baseline.cycles == 0 {
            return 0.0;
        }
        100.0 * self.cycles as f64 / baseline.cycles as f64
    }

    /// The per-bucket breakdown scaled so the bars sum to
    /// [`RunSummary::normalized_runtime`] — i.e. segment heights in the same
    /// units the paper plots.
    pub fn normalized_breakdown(&self, baseline: &RunSummary) -> [f64; 5] {
        let own_total = self.breakdown.total();
        if own_total == 0 || baseline.cycles == 0 {
            return [0.0; 5];
        }
        let scale = self.normalized_runtime(baseline);
        let mut out = self.breakdown.fractions();
        for v in &mut out {
            *v *= scale;
        }
        out
    }
}

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// 95% confidence half-interval of the mean of `values`, using the normal
/// approximation the SimFlex sampling methodology reports. Returns 0.0 for
/// fewer than two samples.
pub fn confidence_interval_95(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() as f64 - 1.0);
    1.96 * (var / values.len() as f64).sqrt()
}

/// A simple fixed-width text table used by the bench harness to print
/// figure data in a stable, diff-able format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ColumnTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        ColumnTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let mut row: Vec<String> = row.into_iter().map(Into::into).collect();
        while row.len() < self.header.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns true if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        widths
    }
}

impl fmt::Display for ColumnTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, cell) in row.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(cell.len());
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:w$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::CycleClass;

    fn summary(cycles: Cycle, busy: u64, drain: u64) -> RunSummary {
        let mut s = RunSummary { cycles, ..Default::default() };
        s.breakdown.add(CycleClass::Busy, busy);
        s.breakdown.add(CycleClass::SbDrain, drain);
        s
    }

    #[test]
    fn speedup_and_normalized_runtime_are_inverses() {
        let base = summary(1000, 800, 200);
        let fast = summary(500, 450, 50);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((fast.normalized_runtime(&base) - 50.0).abs() < 1e-12);
        assert!((base.normalized_runtime(&base) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_breakdown_sums_to_normalized_runtime() {
        let base = summary(1000, 800, 200);
        let run = summary(800, 700, 100);
        let parts = run.normalized_breakdown(&base);
        let sum: f64 = parts.iter().sum();
        assert!((sum - run.normalized_runtime(&base)).abs() < 1e-9);
    }

    #[test]
    fn zero_cycle_edge_cases() {
        let zero = RunSummary::default();
        let base = summary(100, 100, 0);
        assert_eq!(zero.speedup_over(&base), 0.0);
        assert_eq!(base.normalized_runtime(&zero), 0.0);
        assert_eq!(base.normalized_breakdown(&zero), [0.0; 5]);
    }

    #[test]
    fn from_cores_aggregates() {
        let mut c1 = CoreStats::new();
        c1.breakdown.add(CycleClass::Busy, 10);
        c1.counters.instructions_retired = 100;
        let mut c2 = CoreStats::new();
        c2.breakdown.add(CycleClass::Other, 5);
        c2.counters.instructions_retired = 50;
        let s = RunSummary::from_parts("cfg", "wl", 10, &[c1, c2], FabricStats::default());
        assert_eq!(s.breakdown.total(), 15);
        assert_eq!(s.counters.instructions_retired, 150);
        assert_eq!(s.config, "cfg");
        assert_eq!(s.workload, "wl");
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(confidence_interval_95(&[1.0]), 0.0);
        let ci = confidence_interval_95(&[1.0, 2.0, 3.0, 4.0]);
        assert!(ci > 0.0 && ci < 2.0);
        // Identical samples have zero variance and therefore zero interval.
        assert_eq!(confidence_interval_95(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn table_renders_all_rows() {
        let mut t = ColumnTable::new(["workload", "sc", "tso"]);
        t.push_row(["Apache", "1.00", "1.24"]);
        t.push_row(["Ocean"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.to_string();
        assert!(text.contains("Apache"));
        assert!(text.contains("workload"));
        assert!(text.lines().count() >= 4);
    }
}
