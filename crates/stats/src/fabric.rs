//! Memory-hierarchy counters gathered by the coherence fabric.

/// Event counts for the shared L2 and the DRAM tier behind it, gathered by
/// the coherence fabric over one run. Unlike [`crate::SimCounters`] these are
/// machine-wide (there is one fabric), not per-core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Demand accesses that found their block L2-resident.
    pub l2_hits: u64,
    /// Demand accesses that missed in the L2 and fetched from DRAM.
    pub l2_misses: u64,
    /// L2 lines displaced by capacity/conflict pressure — both holderless
    /// victims dropped directly and recalled victims dropped once their L1
    /// holders acknowledged (so `l2_recalls <= l2_evictions` in steady
    /// state).
    pub l2_evictions: u64,
    /// Of those evictions, the ones that first had to recall (invalidate)
    /// L1 holders to preserve inclusion.
    pub l2_recalls: u64,
    /// Blocks fetched from DRAM into the L2.
    pub dram_reads: u64,
    /// Dirty blocks written from the L2 back to DRAM.
    pub dram_writebacks: u64,
    /// Directory accesses retried because the block (or its L2 set) was busy.
    pub busy_retries: u64,
}

const _: () = assert!(size_of::<FabricStats>() == FabricStats::FIELDS * size_of::<u64>());

impl FabricStats {
    /// The counter count. With it, the `size_of` assertion above rejects a
    /// counter missing from [`FabricStats::fields_mut`]; the borrow check
    /// rejects one listed twice.
    const FIELDS: usize = 7;

    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every counter with its JSON key, in struct order: the one listing
    /// that [`FabricStats::merge`] and the store's encoder and decoder walk.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); Self::FIELDS] {
        [
            ("l2_hits", &mut self.l2_hits),
            ("l2_misses", &mut self.l2_misses),
            ("l2_evictions", &mut self.l2_evictions),
            ("l2_recalls", &mut self.l2_recalls),
            ("dram_reads", &mut self.dram_reads),
            ("dram_writebacks", &mut self.dram_writebacks),
            ("busy_retries", &mut self.busy_retries),
        ]
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &FabricStats) {
        let mut other = *other;
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *mine += *theirs;
        }
    }

    /// L2 miss ratio over demand accesses (0.0 when no accesses occurred).
    pub fn l2_miss_ratio(&self) -> f64 {
        let accesses = self.l2_hits + self.l2_misses;
        if accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / accesses as f64
        }
    }

    /// Misses beyond the cold (first-touch) ones: with an unbounded L2 every
    /// block misses exactly once, so anything above the resident-block count
    /// is capacity/conflict pressure. Callers compare against eviction counts
    /// instead when they don't know the footprint; this helper simply reports
    /// whether eviction pressure occurred at all.
    pub fn had_capacity_pressure(&self) -> bool {
        self.l2_evictions > 0 || self.l2_recalls > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_everything() {
        let mut a = FabricStats { l2_hits: 10, l2_misses: 2, ..Default::default() };
        let b = FabricStats { l2_hits: 5, l2_evictions: 3, dram_reads: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.l2_hits, 15);
        assert_eq!(a.l2_misses, 2);
        assert_eq!(a.l2_evictions, 3);
        assert_eq!(a.dram_reads, 2);
    }

    #[test]
    fn miss_ratio_handles_zero_denominator() {
        assert_eq!(FabricStats::new().l2_miss_ratio(), 0.0);
        let s = FabricStats { l2_hits: 90, l2_misses: 10, ..Default::default() };
        assert!((s.l2_miss_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn capacity_pressure_tracks_evictions_and_recalls() {
        assert!(!FabricStats::new().had_capacity_pressure());
        assert!(FabricStats { l2_evictions: 1, ..Default::default() }.had_capacity_pressure());
        assert!(FabricStats { l2_recalls: 1, ..Default::default() }.had_capacity_pressure());
    }
}
