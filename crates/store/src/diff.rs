//! Comparing two stored sweeps: cycle-count and breakdown deltas with a
//! regression threshold.
//!
//! `ifence diff <a> <b>` resolves two manifests against their stores and
//! reports, for every `(workload, config)` cell present in both, the cycle
//! delta (percent, positive = `b` slower) and the per-class runtime-
//! breakdown shift (percentage points of each run's own total). Cells whose
//! cycle delta exceeds the threshold are flagged; flagged slowdowns count as
//! regressions, which the CLI turns into a non-zero exit code — the
//! perf-trajectory gate the bench harness never had.

use crate::store::{ExperimentStore, SweepManifest};
use ifence_stats::{ColumnTable, RunSummary};
use ifence_types::CycleClass;

/// The comparison of one `(workload, config)` cell across two sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Workload display name.
    pub workload: String,
    /// Config label.
    pub config: String,
    /// Cycles in the baseline sweep.
    pub cycles_a: u64,
    /// Cycles in the compared sweep.
    pub cycles_b: u64,
    /// Cycle delta in percent of the baseline (positive = `b` is slower).
    pub delta_pct: f64,
    /// Per-[`CycleClass`] breakdown shift in percentage points (of each
    /// run's own total), in `CycleClass::ALL` order.
    pub breakdown_delta_pp: [f64; 5],
    /// DRAM traffic (reads + writebacks) delta in percent of the baseline's
    /// traffic (positive = `b` moved more blocks; 0 when the baseline moved
    /// none).
    pub dram_delta_pct: f64,
    /// L2 miss-ratio shift in percentage points (`b` minus `a`).
    pub l2_miss_delta_pp: f64,
    /// True when the cycle delta, any breakdown shift, or a fabric delta
    /// exceeds the threshold.
    pub flagged: bool,
}

/// The full comparison of two sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Baseline sweep name.
    pub name_a: String,
    /// Compared sweep name.
    pub name_b: String,
    /// Flagging threshold, in percent / percentage points.
    pub threshold_pct: f64,
    /// Per-cell comparisons, in the baseline manifest's order.
    pub rows: Vec<DiffRow>,
    /// Cells present in only one of the sweeps, as `workload/config` labels.
    pub unmatched: Vec<String>,
}

impl DiffReport {
    /// Cells whose deltas exceeded the threshold (in either direction).
    pub fn flagged(&self) -> usize {
        self.rows.iter().filter(|r| r.flagged).count()
    }

    /// Flagged cells where the compared sweep is *slower* — the ones that
    /// should fail a regression gate.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.flagged && r.cycles_b > r.cycles_a).count()
    }

    /// Renders the report as a fixed-width table (a `!` marks flagged rows).
    pub fn table(&self) -> ColumnTable {
        let mut table = ColumnTable::new([
            "workload",
            "config",
            &format!("cycles {}", self.name_a),
            &format!("cycles {}", self.name_b),
            "delta %",
            "largest breakdown shift",
            "dram delta %",
            "l2 miss shift",
            "flag",
        ]);
        for row in &self.rows {
            let (class, shift) = CycleClass::ALL
                .iter()
                .zip(row.breakdown_delta_pp.iter())
                .max_by(|(_, a), (_, b)| a.abs().total_cmp(&b.abs()))
                .expect("five breakdown classes");
            table.push_row([
                row.workload.clone(),
                row.config.clone(),
                row.cycles_a.to_string(),
                row.cycles_b.to_string(),
                format!("{:+.2}", row.delta_pct),
                format!("{} {:+.2}pp", class.label(), shift),
                format!("{:+.2}", row.dram_delta_pct),
                format!("{:+.2}pp", row.l2_miss_delta_pp),
                if row.flagged { "!".to_string() } else { String::new() },
            ]);
        }
        table
    }
}

/// Compares two resolved sweeps cell by cell.
///
/// # Errors
/// Returns a description when `threshold_pct` is negative or not finite (a
/// NaN or infinite threshold would flag nothing, so the regression gate
/// would always pass), or when a manifest's cells cannot be resolved against
/// its store.
pub fn diff_sweeps(
    store_a: &ExperimentStore,
    manifest_a: &SweepManifest,
    store_b: &ExperimentStore,
    manifest_b: &SweepManifest,
    threshold_pct: f64,
) -> Result<DiffReport, String> {
    if !threshold_pct.is_finite() || threshold_pct < 0.0 {
        return Err(format!(
            "diff threshold must be a finite, non-negative percentage, got {threshold_pct}"
        ));
    }
    let rows_a = store_a.resolve(manifest_a)?;
    let rows_b = store_b.resolve(manifest_b)?;
    let lookup_b = |workload: &str, config: &str| -> Option<&RunSummary> {
        rows_b
            .iter()
            .find(|(w, _)| w == workload)
            .and_then(|(_, runs)| runs.iter().find(|r| r.config == config))
    };
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for (workload, runs) in &rows_a {
        for run_a in runs {
            let Some(run_b) = lookup_b(workload, &run_a.config) else {
                unmatched
                    .push(format!("{workload}/{} (only in {})", run_a.config, manifest_a.name));
                continue;
            };
            rows.push(compare_cell(workload, run_a, run_b, threshold_pct));
        }
    }
    for (workload, runs) in &rows_b {
        for run_b in runs {
            let in_a = rows_a
                .iter()
                .find(|(w, _)| w == workload)
                .is_some_and(|(_, r)| r.iter().any(|x| x.config == run_b.config));
            if !in_a {
                unmatched
                    .push(format!("{workload}/{} (only in {})", run_b.config, manifest_b.name));
            }
        }
    }
    Ok(DiffReport {
        name_a: manifest_a.name.clone(),
        name_b: manifest_b.name.clone(),
        threshold_pct,
        rows,
        unmatched,
    })
}

fn compare_cell(workload: &str, a: &RunSummary, b: &RunSummary, threshold_pct: f64) -> DiffRow {
    let delta_pct = if a.cycles == 0 {
        0.0
    } else {
        100.0 * (b.cycles as f64 - a.cycles as f64) / a.cycles as f64
    };
    let fractions_a = a.breakdown.fractions();
    let fractions_b = b.breakdown.fractions();
    let mut breakdown_delta_pp = [0.0; 5];
    for i in 0..5 {
        breakdown_delta_pp[i] = 100.0 * (fractions_b[i] - fractions_a[i]);
    }
    let dram_a = a.fabric.dram_reads + a.fabric.dram_writebacks;
    let dram_b = b.fabric.dram_reads + b.fabric.dram_writebacks;
    let dram_delta_pct =
        if dram_a == 0 { 0.0 } else { 100.0 * (dram_b as f64 - dram_a as f64) / dram_a as f64 };
    let l2_miss_delta_pp = 100.0 * (b.fabric.l2_miss_ratio() - a.fabric.l2_miss_ratio());
    let flagged = delta_pct.abs() > threshold_pct
        || breakdown_delta_pp.iter().any(|pp| pp.abs() > threshold_pct)
        || dram_delta_pct.abs() > threshold_pct
        || l2_miss_delta_pp.abs() > threshold_pct;
    DiffRow {
        workload: workload.to_string(),
        config: a.config.clone(),
        cycles_a: a.cycles,
        cycles_b: b.cycles,
        delta_pct,
        breakdown_delta_pp,
        dram_delta_pct,
        l2_miss_delta_pp,
        flagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::CellKey;
    use crate::store::ManifestRow;
    use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
    use ifence_workloads::presets;

    fn summary(config: &str, cycles: u64, busy: u64, drain: u64) -> RunSummary {
        let mut s = RunSummary {
            config: config.to_string(),
            workload: "Barnes".to_string(),
            cycles,
            ..Default::default()
        };
        s.breakdown.add(CycleClass::Busy, busy);
        s.breakdown.add(CycleClass::SbDrain, drain);
        s
    }

    fn store_with(
        tag: &str,
        seeds_and_summaries: &[(u64, RunSummary)],
    ) -> (ExperimentStore, SweepManifest) {
        let root =
            std::env::temp_dir().join(format!("ifence-diff-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ExperimentStore::open(&root).unwrap();
        let mut cells = Vec::new();
        let mut configs = Vec::new();
        for (seed, summary) in seeds_and_summaries {
            let mut cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Sc));
            cfg.seed = *seed;
            let key = CellKey::new(&cfg, &presets::barnes().into(), 100, 1_000);
            store.put(&key, summary).unwrap();
            cells.push(key.hash);
            configs.push(summary.config.clone());
        }
        let manifest = SweepManifest {
            name: tag.to_string(),
            figure: tag.to_string(),
            configs,
            instructions_per_core: 100,
            seed: 7,
            rows: vec![ManifestRow { workload: "Barnes".to_string(), cells }],
        };
        store.write_manifest(&manifest).unwrap();
        (store, manifest)
    }

    #[test]
    fn flags_cycle_regressions_beyond_threshold() {
        let (store_a, man_a) = store_with("base", &[(1, summary("sc", 1000, 900, 100))]);
        let (store_b, man_b) = store_with("slow", &[(2, summary("sc", 1100, 900, 200))]);
        let report = diff_sweeps(&store_a, &man_a, &store_b, &man_b, 5.0).unwrap();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert!((row.delta_pct - 10.0).abs() < 1e-9);
        assert!(row.flagged);
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.flagged(), 1);
        let text = report.table().to_string();
        assert!(text.contains('!'), "flagged rows are marked: {text}");
        // A generous threshold un-flags the same delta.
        let relaxed = diff_sweeps(&store_a, &man_a, &store_b, &man_b, 50.0).unwrap();
        assert_eq!(relaxed.regressions(), 0);
        cleanup(&store_a, &store_b);
    }

    #[test]
    fn non_finite_and_negative_thresholds_are_rejected() {
        let (store_a, man_a) = store_with("gate-base", &[(1, summary("sc", 1000, 900, 100))]);
        let (store_b, man_b) = store_with("gate-slow", &[(2, summary("sc", 2000, 900, 1100))]);
        for threshold in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let err = diff_sweeps(&store_a, &man_a, &store_b, &man_b, threshold)
                .expect_err("a threshold that can never (or always) flag must be rejected");
            assert!(err.contains("threshold"), "{err}");
        }
        let strict = diff_sweeps(&store_a, &man_a, &store_b, &man_b, 0.0).unwrap();
        assert_eq!(strict.regressions(), 1, "a zero threshold flags any slowdown");
        cleanup(&store_a, &store_b);
    }

    #[test]
    fn speedups_are_flagged_but_not_regressions() {
        let (store_a, man_a) = store_with("base2", &[(1, summary("sc", 1000, 900, 100))]);
        let (store_b, man_b) = store_with("fast", &[(2, summary("sc", 500, 450, 50))]);
        let report = diff_sweeps(&store_a, &man_a, &store_b, &man_b, 5.0).unwrap();
        assert_eq!(report.flagged(), 1, "a 50% speedup is still worth flagging");
        assert_eq!(report.regressions(), 0, "but it is not a regression");
        cleanup(&store_a, &store_b);
    }

    #[test]
    fn fabric_deltas_are_computed_and_flag() {
        let mut base = summary("sc", 1000, 900, 100);
        base.fabric.l2_hits = 90;
        base.fabric.l2_misses = 10;
        base.fabric.dram_reads = 10;
        let mut hot = summary("sc", 1000, 900, 100);
        hot.fabric.l2_hits = 80;
        hot.fabric.l2_misses = 20;
        hot.fabric.dram_reads = 20;
        let (store_a, man_a) = store_with("fab-base", &[(1, base)]);
        let (store_b, man_b) = store_with("fab-hot", &[(2, hot)]);
        let report = diff_sweeps(&store_a, &man_a, &store_b, &man_b, 5.0).unwrap();
        let row = &report.rows[0];
        assert!((row.dram_delta_pct - 100.0).abs() < 1e-9, "{}", row.dram_delta_pct);
        assert!((row.l2_miss_delta_pp - 10.0).abs() < 1e-9, "{}", row.l2_miss_delta_pp);
        assert!(row.flagged, "fabric deltas alone must flag the cell");
        assert_eq!(report.regressions(), 0, "equal cycle counts are not a cycle regression");
        let text = report.table().to_string();
        assert!(text.contains("+100.00"), "dram delta is rendered: {text}");
        cleanup(&store_a, &store_b);
    }

    #[test]
    fn unmatched_cells_are_reported() {
        let (store_a, man_a) = store_with(
            "wide",
            &[(1, summary("sc", 1000, 900, 100)), (2, summary("tso", 800, 700, 100))],
        );
        let (store_b, man_b) = store_with("narrow", &[(3, summary("sc", 1000, 900, 100))]);
        let report = diff_sweeps(&store_a, &man_a, &store_b, &man_b, 5.0).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.unmatched.len(), 1);
        assert!(report.unmatched[0].contains("tso"));
        cleanup(&store_a, &store_b);
    }

    fn cleanup(a: &ExperimentStore, b: &ExperimentStore) {
        let _ = std::fs::remove_dir_all(a.root());
        let _ = std::fs::remove_dir_all(b.root());
    }
}
