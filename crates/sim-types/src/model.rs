//! Memory consistency models and store-buffer organizations (Figure 2).

use std::fmt;
use std::str::FromStr;

/// The three classes of memory consistency model evaluated by the paper.
///
/// * [`ConsistencyModel::Sc`] — Sequential Consistency: no reordering visible.
/// * [`ConsistencyModel::Tso`] — Total Store Order (SPARC TSO / x86-like
///   processor consistency): store→load order relaxed.
/// * [`ConsistencyModel::Rmo`] — Relaxed Memory Order (SPARC RMO /
///   PowerPC/ARM-like release consistency): all orderings relaxed except at
///   explicit fences.
///
/// # Example
/// ```
/// use ifence_types::ConsistencyModel;
/// assert_eq!("tso".parse::<ConsistencyModel>().unwrap(), ConsistencyModel::Tso);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConsistencyModel {
    /// Sequential consistency (e.g. MIPS).
    Sc,
    /// Total store order / processor consistency (e.g. SPARC TSO, x86).
    Tso,
    /// Relaxed memory order / release consistency (e.g. SPARC RMO, PowerPC, ARM, Alpha).
    Rmo,
}

impl ConsistencyModel {
    /// All models, strongest first.
    pub const ALL: [ConsistencyModel; 3] =
        [ConsistencyModel::Sc, ConsistencyModel::Tso, ConsistencyModel::Rmo];

    /// The orderings this model relaxes, as human-readable text (Figure 2,
    /// "Memory Ordering Relaxations" column).
    pub fn relaxations(self) -> &'static str {
        match self {
            ConsistencyModel::Sc => "None",
            ConsistencyModel::Tso => "Store-to-load",
            ConsistencyModel::Rmo => "All",
        }
    }

    /// Short lowercase label used in figure output ("sc", "tso", "rmo").
    pub fn label(self) -> &'static str {
        match self {
            ConsistencyModel::Sc => "sc",
            ConsistencyModel::Tso => "tso",
            ConsistencyModel::Rmo => "rmo",
        }
    }
}

impl fmt::Display for ConsistencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing a [`ConsistencyModel`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError(String);

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown consistency model `{}` (expected sc, tso, or rmo)", self.0)
    }
}

impl std::error::Error for ParseModelError {}

impl FromStr for ConsistencyModel {
    type Err = ParseModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Ok(ConsistencyModel::Sc),
            "tso" | "pc" => Ok(ConsistencyModel::Tso),
            "rmo" | "rc" => Ok(ConsistencyModel::Rmo),
            other => Err(ParseModelError(other.to_string())),
        }
    }
}

/// The two store-buffer organizations of the paper's implementations; the
/// engine kind fixes which one a core uses
/// (`EngineKind::store_buffer_kind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreBufferKind {
    /// Age-ordered FIFO at 8-byte word granularity, fully-associatively
    /// searched for store→load forwarding (conventional SC and TSO).
    FifoWord,
    /// Unordered coalescing buffer at 64-byte block granularity, sized to the
    /// number of outstanding store misses (conventional RMO and InvisiFence).
    CoalescingBlock,
}

impl fmt::Display for StoreBufferKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StoreBufferKind::FifoWord => "FIFO (word)",
            StoreBufferKind::CoalescingBlock => "coalescing (block)",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for m in ConsistencyModel::ALL {
            assert_eq!(m.label().parse::<ConsistencyModel>().unwrap(), m);
        }
        assert!("weird".parse::<ConsistencyModel>().is_err());
        let err = "weird".parse::<ConsistencyModel>().unwrap_err();
        assert!(err.to_string().contains("weird"));
    }

    #[test]
    fn conventional_store_buffers_match_figure_2() {
        use crate::EngineKind::Conventional;
        assert_eq!(
            Conventional(ConsistencyModel::Sc).store_buffer_kind(),
            StoreBufferKind::FifoWord
        );
        assert_eq!(
            Conventional(ConsistencyModel::Tso).store_buffer_kind(),
            StoreBufferKind::FifoWord
        );
        assert_eq!(
            Conventional(ConsistencyModel::Rmo).store_buffer_kind(),
            StoreBufferKind::CoalescingBlock
        );
    }
}
