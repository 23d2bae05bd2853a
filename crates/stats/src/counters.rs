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

const _: () = assert!(size_of::<SimCounters>() == SimCounters::FIELDS * size_of::<u64>());

impl SimCounters {
    /// The counter count. With it, the `size_of` assertion above rejects a
    /// counter missing from [`SimCounters::fields_mut`]; the borrow check
    /// rejects one listed twice.
    const FIELDS: usize = 26;

    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every counter with its JSON key, in struct order: the one listing
    /// that [`SimCounters::merge`] and the store's encoder and decoder walk.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); Self::FIELDS] {
        [
            ("instructions_retired", &mut self.instructions_retired),
            ("loads_retired", &mut self.loads_retired),
            ("stores_retired", &mut self.stores_retired),
            ("atomics_retired", &mut self.atomics_retired),
            ("fences_retired", &mut self.fences_retired),
            ("instructions_squashed", &mut self.instructions_squashed),
            ("l1_hits", &mut self.l1_hits),
            ("l1_misses", &mut self.l1_misses),
            ("sb_forwards", &mut self.sb_forwards),
            ("sb_inserts", &mut self.sb_inserts),
            ("sb_drains", &mut self.sb_drains),
            ("store_prefetches", &mut self.store_prefetches),
            ("speculations_started", &mut self.speculations_started),
            ("speculations_committed", &mut self.speculations_committed),
            ("speculations_aborted", &mut self.speculations_aborted),
            ("speculations_aborted_structural", &mut self.speculations_aborted_structural),
            ("cycles_speculating", &mut self.cycles_speculating),
            ("cov_deferrals", &mut self.cov_deferrals),
            ("cov_commits", &mut self.cov_commits),
            ("cov_timeouts", &mut self.cov_timeouts),
            ("external_invalidations", &mut self.external_invalidations),
            ("l2_recalls_received", &mut self.l2_recalls_received),
            ("external_downgrades", &mut self.external_downgrades),
            ("in_window_replays", &mut self.in_window_replays),
            ("coherence_requests", &mut self.coherence_requests),
            ("writebacks", &mut self.writebacks),
        ]
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &SimCounters) {
        let mut other = *other;
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *mine += *theirs;
        }
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
