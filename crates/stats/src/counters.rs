//! Event counters gathered during simulation.

/// Raw event counts for one core (or, after aggregation, a whole machine).
///
/// Every field is a simple additive counter so machine-level statistics are
/// obtained by summing per-core values with [`SimCounters::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Instructions retired (committed to architectural state).
    pub instructions_retired: u64,
    /// Loads retired.
    pub loads_retired: u64,
    /// Stores retired.
    pub stores_retired: u64,
    /// Atomic read-modify-writes retired.
    pub atomics_retired: u64,
    /// Memory fences retired.
    pub fences_retired: u64,
    /// Instructions squashed and re-executed due to speculation aborts or
    /// in-window replay.
    pub instructions_squashed: u64,

    /// L1 data-cache hits (demand accesses).
    pub l1_hits: u64,
    /// L1 data-cache misses (demand accesses).
    pub l1_misses: u64,
    /// Store-buffer forwarding hits (loads satisfied by an older buffered store).
    pub sb_forwards: u64,
    /// Stores written into the store buffer.
    pub sb_inserts: u64,
    /// Stores written from the store buffer into the L1.
    pub sb_drains: u64,
    /// Exclusive prefetches issued on behalf of stores.
    pub store_prefetches: u64,

    /// Post-retirement speculative episodes begun.
    pub speculations_started: u64,
    /// Speculative episodes committed.
    pub speculations_committed: u64,
    /// Speculative episodes aborted due to memory-ordering violations.
    pub speculations_aborted: u64,
    /// Speculative episodes aborted for structural reasons (cache overflow of
    /// a speculatively-accessed block, irreversible operations, …).
    pub speculations_aborted_structural: u64,
    /// Cycles spent executing speculatively (committed or not).
    pub cycles_speculating: u64,
    /// External requests deferred by the commit-on-violate policy. ASO's
    /// commit drain defers through the same path, so its held requests are
    /// counted here too.
    pub cov_deferrals: u64,
    /// Deferred requests that ultimately allowed a commit (violation avoided).
    pub cov_commits: u64,
    /// Deferred requests that timed out and forced an abort.
    pub cov_timeouts: u64,

    /// External invalidations received by the L1.
    pub external_invalidations: u64,
    /// Of those, inclusion recalls: invalidations issued because the home
    /// node's L2 evicted the line (finite-capacity pressure), not because a
    /// remote core wrote it.
    pub l2_recalls_received: u64,
    /// External read-downgrades received by the L1.
    pub external_downgrades: u64,
    /// In-window (load-queue) ordering squashes.
    pub in_window_replays: u64,

    /// Coherence transactions issued by this core (GetS/GetM/Upgrade).
    pub coherence_requests: u64,
    /// Writebacks (dirty or clean) issued by this core's L1.
    pub writebacks: u64,
}

impl SimCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &SimCounters) {
        self.instructions_retired += other.instructions_retired;
        self.loads_retired += other.loads_retired;
        self.stores_retired += other.stores_retired;
        self.atomics_retired += other.atomics_retired;
        self.fences_retired += other.fences_retired;
        self.instructions_squashed += other.instructions_squashed;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.sb_forwards += other.sb_forwards;
        self.sb_inserts += other.sb_inserts;
        self.sb_drains += other.sb_drains;
        self.store_prefetches += other.store_prefetches;
        self.speculations_started += other.speculations_started;
        self.speculations_committed += other.speculations_committed;
        self.speculations_aborted += other.speculations_aborted;
        self.speculations_aborted_structural += other.speculations_aborted_structural;
        self.cycles_speculating += other.cycles_speculating;
        self.cov_deferrals += other.cov_deferrals;
        self.cov_commits += other.cov_commits;
        self.cov_timeouts += other.cov_timeouts;
        self.external_invalidations += other.external_invalidations;
        self.l2_recalls_received += other.l2_recalls_received;
        self.external_downgrades += other.external_downgrades;
        self.in_window_replays += other.in_window_replays;
        self.coherence_requests += other.coherence_requests;
        self.writebacks += other.writebacks;
    }

    /// L1 miss ratio over demand accesses (0.0 when no accesses occurred).
    pub fn l1_miss_ratio(&self) -> f64 {
        let accesses = self.l1_hits + self.l1_misses;
        if accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / accesses as f64
        }
    }

    /// Fraction of speculative episodes that aborted (0.0 when none ran).
    pub fn abort_ratio(&self) -> f64 {
        let total = self.speculations_committed + self.speculations_aborted;
        if total == 0 {
            0.0
        } else {
            self.speculations_aborted as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_everything() {
        let mut a = SimCounters::new();
        a.l1_hits = 10;
        a.speculations_started = 2;
        let mut b = SimCounters::new();
        b.l1_hits = 5;
        b.speculations_started = 1;
        b.writebacks = 9;
        a.merge(&b);
        assert_eq!(a.l1_hits, 15);
        assert_eq!(a.speculations_started, 3);
        assert_eq!(a.writebacks, 9);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let c = SimCounters::new();
        assert_eq!(c.l1_miss_ratio(), 0.0);
        assert_eq!(c.abort_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute_correctly() {
        let mut c = SimCounters::new();
        c.l1_hits = 90;
        c.l1_misses = 10;
        c.speculations_committed = 3;
        c.speculations_aborted = 1;
        assert!((c.l1_miss_ratio() - 0.1).abs() < 1e-12);
        assert!((c.abort_ratio() - 0.25).abs() < 1e-12);
    }
}
