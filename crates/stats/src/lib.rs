//! Cycle accounting and result reporting for the InvisiFence reproduction.
//!
//! The paper reports three kinds of quantity, all produced by this crate:
//!
//! * **Runtime breakdowns** (Figures 9, 11, 12): every simulated cycle is
//!   attributed to exactly one [`CycleClass`](ifence_types::CycleClass) bucket via [`CycleBreakdown`].
//!   Speculative cycles are accounted provisionally and re-attributed to the
//!   `Violation` bucket if the speculation aborts
//!   ([`breakdown::ProvisionalBreakdown`]).
//! * **Event counters** (speculations started/committed/aborted, store-buffer
//!   occupancy, cache misses, …) via [`SimCounters`].
//! * **Derived figures** — speedups, normalized breakdowns, percent-of-time
//!   metrics and confidence intervals over multiple seeds — via [`report`].
//!
//! It also hosts the host-side kernel phase profiler ([`profile`]): opt-in
//! wall-clock accumulation over the simulation kernel's phases, which
//! measures the simulator rather than the simulated machine.
//!
//! The deterministic telemetry layer lives here too: always-on
//! log2-bucketed histograms ([`hist`]) of episode/deferral/occupancy/latency
//! distributions, and the opt-in structured trace-event layer ([`trace`])
//! whose merged stream is byte-identical across every kernel mode.
//!
//! # Example
//!
//! ```
//! use ifence_stats::CycleBreakdown;
//! use ifence_types::CycleClass;
//!
//! let mut b = CycleBreakdown::new();
//! b.add(CycleClass::Busy, 70);
//! b.add(CycleClass::SbDrain, 30);
//! assert_eq!(b.total(), 100);
//! assert!((b.fraction(CycleClass::SbDrain) - 0.3).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod counters;
pub mod fabric;
pub mod hist;
pub mod profile;
pub mod report;
pub mod trace;

pub use breakdown::{CycleBreakdown, ProvisionalBreakdown};
pub use counters::SimCounters;
pub use fabric::FabricStats;
pub use hist::{CoreHists, Log2Hist, RunHistograms, LOG2_BUCKETS};
pub use profile::{Phase, PhaseProfile, PhaseTimer, ProfileSnapshot};
pub use report::{confidence_interval_95, mean, ColumnTable, RunSummary};
pub use trace::{MachineTrace, TraceEvent, TraceKind, TraceSink, DEFAULT_TRACE_CAPACITY};

/// Per-core statistics gathered during one simulation run.
///
/// Equality compares the *simulated* state only — breakdown, counters and
/// histograms. The trace sink is observability plumbing (its contents are a
/// function of the same simulated execution, but it is drained separately
/// and never serialized with the stats), so it is excluded: a traced and an
/// untraced run produce equal `CoreStats`.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Cycle-by-cycle attribution.
    pub breakdown: CycleBreakdown,
    /// Event counters.
    pub counters: SimCounters,
    /// Always-on log2 histograms of this core's episode, deferral and
    /// store-buffer-occupancy distributions.
    pub hists: CoreHists,
    /// Opt-in structured trace-event shard (disabled by default).
    pub trace: TraceSink,
}

impl PartialEq for CoreStats {
    fn eq(&self, other: &Self) -> bool {
        self.breakdown == other.breakdown
            && self.counters == other.counters
            && self.hists == other.hists
    }
}

impl CoreStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another core's statistics into this one (used to aggregate a
    /// whole machine). Trace shards are not merged — they are drained per
    /// core and canonically ordered by [`MachineTrace::from_shards`].
    pub fn merge(&mut self, other: &CoreStats) {
        self.breakdown.merge(&other.breakdown);
        self.counters.merge(&other.counters);
        self.hists.merge(&other.hists);
    }

    /// Fraction of cycles spent in post-retirement speculation
    /// (committed or aborted) — the quantity plotted in Figure 10.
    pub fn speculation_fraction(&self) -> f64 {
        let total = self.breakdown.total();
        if total == 0 {
            return 0.0;
        }
        self.counters.cycles_speculating as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::CycleClass;

    #[test]
    fn core_stats_merge_adds_both_parts() {
        let mut a = CoreStats::new();
        a.breakdown.add(CycleClass::Busy, 10);
        a.counters.instructions_retired = 5;
        let mut b = CoreStats::new();
        b.breakdown.add(CycleClass::SbFull, 4);
        b.counters.instructions_retired = 7;
        a.merge(&b);
        assert_eq!(a.breakdown.total(), 14);
        assert_eq!(a.counters.instructions_retired, 12);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = CoreStats::new();
        assert_eq!(s.speculation_fraction(), 0.0);
    }

    #[test]
    fn equality_ignores_the_trace_sink_but_not_histograms() {
        let mut traced = CoreStats::new();
        traced.trace.enable(0, 0);
        traced.trace.emit_at(5, trace::TraceKind::SpecBegin, 1);
        let untraced = CoreStats::new();
        assert_eq!(traced, untraced, "trace state must not affect equality");
        let mut with_hist = CoreStats::new();
        with_hist.hists.episode_len.record(4);
        assert_ne!(with_hist, untraced, "histograms are simulated state");
    }

    #[test]
    fn merge_aggregates_histograms() {
        let mut a = CoreStats::new();
        a.hists.episode_len.record(8);
        let mut b = CoreStats::new();
        b.hists.episode_len.record(16);
        b.hists.deferral.record(100);
        a.merge(&b);
        assert_eq!(a.hists.episode_len.count(), 2);
        assert_eq!(a.hists.deferral.count(), 1);
    }
}
