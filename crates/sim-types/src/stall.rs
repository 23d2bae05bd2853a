//! Execution-time classification: the five buckets of Figures 9, 11 and 12.

use std::fmt;

/// Why instruction retirement is blocked on a given cycle.
///
/// These reasons map onto the paper's runtime-breakdown segments:
/// [`StallReason::StoreBufferFull`] → "SB full",
/// [`StallReason::StoreBufferDrain`] → "SB drain",
/// everything else → "Other".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// A store (or atomic) cannot retire because the store buffer has no free entry.
    StoreBufferFull,
    /// Retirement is waiting for the store buffer to drain because of a memory
    /// ordering requirement (e.g. a fence under RMO, an atomic under TSO, or a
    /// load behind an outstanding store under SC).
    StoreBufferDrain,
    /// The instruction at the head of the reorder buffer has not finished
    /// executing (typically an outstanding load miss).
    IncompleteHead,
    /// The reorder buffer is empty (front-end starvation; rare in this
    /// trace-driven model, it appears only at the end of the program).
    RobEmpty,
}

impl StallReason {
    /// Maps the stall reason to the cycle class used in the figures.
    pub fn cycle_class(self) -> CycleClass {
        match self {
            StallReason::StoreBufferFull => CycleClass::SbFull,
            StallReason::StoreBufferDrain => CycleClass::SbDrain,
            StallReason::IncompleteHead | StallReason::RobEmpty => CycleClass::Other,
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallReason::StoreBufferFull => "store buffer full",
            StallReason::StoreBufferDrain => "store buffer drain",
            StallReason::IncompleteHead => "incomplete head instruction",
            StallReason::RobEmpty => "reorder buffer empty",
        };
        f.write_str(s)
    }
}

/// The five execution-time buckets of the paper's runtime breakdowns
/// (Figures 9, 11 and 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CycleClass {
    /// Cycles in which at least one instruction retired.
    Busy,
    /// Stall cycles unrelated to memory ordering (e.g. load misses).
    Other,
    /// Cycles a store stalls retirement waiting for a free store-buffer entry.
    SbFull,
    /// Cycles stalled waiting for the store buffer to drain because of an
    /// ordering requirement.
    SbDrain,
    /// Cycles spent in post-retirement speculation that was ultimately rolled
    /// back due to a memory-ordering violation.
    Violation,
}

impl CycleClass {
    /// All classes, in the order the paper's figures stack them.
    pub const ALL: [CycleClass; 5] = [
        CycleClass::Busy,
        CycleClass::Other,
        CycleClass::SbFull,
        CycleClass::SbDrain,
        CycleClass::Violation,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            CycleClass::Busy => "Busy",
            CycleClass::Other => "Other",
            CycleClass::SbFull => "SB full",
            CycleClass::SbDrain => "SB drain",
            CycleClass::Violation => "Violation",
        }
    }

    /// Index of this class within [`CycleClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            CycleClass::Busy => 0,
            CycleClass::Other => 1,
            CycleClass::SbFull => 2,
            CycleClass::SbDrain => 3,
            CycleClass::Violation => 4,
        }
    }
}

impl fmt::Display for CycleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_reasons_map_to_paper_buckets() {
        assert_eq!(StallReason::StoreBufferFull.cycle_class(), CycleClass::SbFull);
        assert_eq!(StallReason::StoreBufferDrain.cycle_class(), CycleClass::SbDrain);
        assert_eq!(StallReason::IncompleteHead.cycle_class(), CycleClass::Other);
        assert_eq!(StallReason::RobEmpty.cycle_class(), CycleClass::Other);
    }

    #[test]
    fn class_index_matches_all_order() {
        for (i, c) in CycleClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            CycleClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), CycleClass::ALL.len());
    }
}
