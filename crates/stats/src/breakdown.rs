//! Cycle-by-cycle execution-time attribution.

use ifence_types::{Cycle, CycleClass};
use std::fmt;

/// A histogram of cycles over the five [`CycleClass`] buckets.
///
/// # Example
/// ```
/// use ifence_stats::CycleBreakdown;
/// use ifence_types::CycleClass;
/// let mut b = CycleBreakdown::new();
/// b.add(CycleClass::Busy, 3);
/// b.add(CycleClass::Violation, 1);
/// assert_eq!(b.get(CycleClass::Busy), 3);
/// assert_eq!(b.total(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    counts: [u64; 5],
}

impl CycleBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to the given bucket.
    pub fn add(&mut self, class: CycleClass, cycles: Cycle) {
        self.counts[class.index()] += cycles;
    }

    /// Returns the cycles accumulated in the given bucket.
    pub fn get(&self, class: CycleClass) -> Cycle {
        self.counts[class.index()]
    }

    /// Total cycles across all buckets.
    pub fn total(&self) -> Cycle {
        self.counts.iter().sum()
    }

    /// Adds every bucket of `other` into this breakdown.
    pub fn merge(&mut self, other: &CycleBreakdown) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += *src;
        }
    }

    /// Fraction of total cycles in the given bucket (0.0 if empty).
    pub fn fraction(&self, class: CycleClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(class) as f64 / total as f64
        }
    }

    /// Returns the breakdown as fractions of this run's own total, in
    /// [`CycleClass::ALL`] order.
    pub fn fractions(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, c) in CycleClass::ALL.iter().enumerate() {
            out[i] = self.fraction(*c);
        }
        out
    }

    /// Iterates over `(class, cycles)` pairs in figure order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleClass, Cycle)> + '_ {
        CycleClass::ALL.iter().map(move |c| (*c, self.get(*c)))
    }
}

impl fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total().max(1);
        let mut first = true;
        for (class, cycles) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}: {:.1}%", class.label(), 100.0 * cycles as f64 / total as f64)?;
        }
        Ok(())
    }
}

/// Cycle attribution for an in-flight speculative episode.
///
/// While speculating, cycles are recorded here instead of in the global
/// [`CycleBreakdown`]. If the episode commits, the provisional counts are
/// merged unchanged; if it aborts, *all* provisional cycles are charged to the
/// `Violation` bucket — exactly how the paper defines its "Violation" segment
/// ("cycles spent executing post-retirement speculation that ultimately rolls
/// back").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvisionalBreakdown {
    inner: CycleBreakdown,
}

impl ProvisionalBreakdown {
    /// Creates an empty provisional breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one provisional cycle in the given bucket.
    pub fn add(&mut self, class: CycleClass, cycles: Cycle) {
        self.inner.add(class, cycles);
    }

    /// Total provisional cycles recorded so far.
    pub fn total(&self) -> Cycle {
        self.inner.total()
    }

    /// Returns true if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Commit: merge the provisional attribution into `target` as-is and
    /// reset this record.
    pub fn commit_into(&mut self, target: &mut CycleBreakdown) {
        target.merge(&self.inner);
        self.inner = CycleBreakdown::new();
    }

    /// Abort: charge every provisional cycle to `Violation` in `target` and
    /// reset this record. Returns the number of cycles that were discarded.
    pub fn abort_into(&mut self, target: &mut CycleBreakdown) -> Cycle {
        let wasted = self.inner.total();
        target.add(CycleClass::Violation, wasted);
        self.inner = CycleBreakdown::new();
        wasted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut b = CycleBreakdown::new();
        b.add(CycleClass::Busy, 5);
        b.add(CycleClass::Busy, 5);
        b.add(CycleClass::SbFull, 2);
        assert_eq!(b.get(CycleClass::Busy), 10);
        assert_eq!(b.total(), 12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = CycleBreakdown::new();
        b.add(CycleClass::Busy, 10);
        b.add(CycleClass::Other, 20);
        b.add(CycleClass::SbDrain, 30);
        b.add(CycleClass::SbFull, 25);
        b.add(CycleClass::Violation, 15);
        let sum: f64 = b.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn provisional_commit_preserves_classes() {
        let mut prov = ProvisionalBreakdown::new();
        prov.add(CycleClass::Busy, 7);
        prov.add(CycleClass::Other, 3);
        let mut global = CycleBreakdown::new();
        prov.commit_into(&mut global);
        assert_eq!(global.get(CycleClass::Busy), 7);
        assert_eq!(global.get(CycleClass::Other), 3);
        assert_eq!(global.get(CycleClass::Violation), 0);
        assert!(prov.is_empty());
    }

    #[test]
    fn provisional_abort_charges_violation() {
        let mut prov = ProvisionalBreakdown::new();
        prov.add(CycleClass::Busy, 7);
        prov.add(CycleClass::SbDrain, 3);
        let mut global = CycleBreakdown::new();
        let wasted = prov.abort_into(&mut global);
        assert_eq!(wasted, 10);
        assert_eq!(global.get(CycleClass::Violation), 10);
        assert_eq!(global.get(CycleClass::Busy), 0);
        assert!(prov.is_empty());
    }

    #[test]
    fn display_mentions_every_bucket() {
        let mut b = CycleBreakdown::new();
        b.add(CycleClass::Busy, 1);
        let s = b.to_string();
        for c in CycleClass::ALL {
            assert!(s.contains(c.label()), "missing {}", c.label());
        }
    }
}
