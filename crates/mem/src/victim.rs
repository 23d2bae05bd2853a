//! Small fully-associative victim cache (the paper's 16-entry L1 victim cache).

use crate::line::{BlockData, LineState};
use ifence_types::BlockAddr;

/// A fully-associative FIFO victim cache holding lines recently evicted from
/// the L1. A subsequent L1 miss that hits in the victim cache is serviced at
/// L1 latency without a coherence transaction.
///
/// Speculatively-accessed lines are never placed in the victim cache — the
/// engine must commit or abort before such a line escapes the L1 — so the
/// victim cache stores only plain (block, state, data) triples. Blocks sit
/// in their own contiguous array, so a probe is one scan of at most
/// `capacity` block numbers and never strides over line payloads.
///
/// # Example
/// ```
/// use ifence_mem::{VictimCache, LineState, BlockData};
/// use ifence_types::{Addr, BlockAddr};
/// let mut vc = VictimCache::new(2);
/// let b = BlockAddr::containing(Addr::new(0x80), 64);
/// vc.insert(b, LineState::Shared, BlockData::zeroed());
/// assert!(vc.take(b).is_some());
/// assert!(vc.take(b).is_none(), "take removes the entry");
/// ```
#[derive(Debug, Clone, Default)]
pub struct VictimCache {
    capacity: usize,
    /// Resident blocks, oldest first: the dense array every probe scans.
    keys: Vec<BlockAddr>,
    /// `(state, data)` of each resident block, in lockstep with `keys`.
    lines: Vec<(LineState, BlockData)>,
}

impl VictimCache {
    /// Creates a victim cache with the given capacity (0 disables it).
    pub fn new(capacity: usize) -> Self {
        VictimCache {
            capacity,
            keys: Vec::with_capacity(capacity),
            lines: Vec::with_capacity(capacity),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns true if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn position(&self, block: BlockAddr) -> Option<usize> {
        self.keys.iter().position(|&b| b == block)
    }

    fn remove(&mut self, pos: usize) -> (BlockAddr, LineState, BlockData) {
        let block = self.keys.remove(pos);
        let (state, data) = self.lines.remove(pos);
        (block, state, data)
    }

    /// Returns true if `block` is resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.keys.contains(&block)
    }

    /// Inserts an evicted line. If the victim cache is full the oldest entry
    /// is displaced and returned (it must be written back if dirty).
    pub fn insert(
        &mut self,
        block: BlockAddr,
        state: LineState,
        data: BlockData,
    ) -> Option<(BlockAddr, LineState, BlockData)> {
        if self.capacity == 0 {
            // A zero-capacity victim cache passes evictions straight through.
            return Some((block, state, data));
        }
        // Replace an existing entry for the same block rather than duplicating it.
        if let Some(pos) = self.position(block) {
            self.remove(pos);
        }
        let displaced = if self.keys.len() >= self.capacity { Some(self.remove(0)) } else { None };
        self.keys.push(block);
        self.lines.push((state, data));
        displaced
    }

    /// Removes and returns the entry for `block`, if resident (a victim hit
    /// swaps the line back into the L1).
    pub fn take(&mut self, block: BlockAddr) -> Option<(LineState, BlockData)> {
        let pos = self.position(block)?;
        let (_, state, data) = self.remove(pos);
        Some((state, data))
    }

    /// Removes the entry for `block` without returning it (external
    /// invalidation). Returns the dirty data if the entry was Modified.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<BlockData> {
        let (state, data) = self.take(block)?;
        if state == LineState::Modified {
            Some(data)
        } else {
            None
        }
    }

    /// Downgrades the entry for `block` to Shared (external read). Returns the
    /// dirty data if it was Modified.
    pub fn downgrade(&mut self, block: BlockAddr) -> Option<BlockData> {
        let pos = self.position(block)?;
        let (state, data) = self.lines[pos];
        self.lines[pos].0 = LineState::Shared;
        if state == LineState::Modified {
            Some(data)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::Addr;

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut vc = VictimCache::new(4);
        vc.insert(blk(0x40), LineState::Modified, BlockData::from_words([5; 8]));
        assert!(vc.contains(blk(0x40)));
        let (state, data) = vc.take(blk(0x40)).unwrap();
        assert_eq!(state, LineState::Modified);
        assert_eq!(data.word(0), 5);
        assert!(vc.is_empty());
    }

    #[test]
    fn fifo_displacement_when_full() {
        let mut vc = VictimCache::new(2);
        assert!(vc.insert(blk(0x00), LineState::Shared, BlockData::zeroed()).is_none());
        assert!(vc.insert(blk(0x40), LineState::Shared, BlockData::zeroed()).is_none());
        let displaced = vc.insert(blk(0x80), LineState::Shared, BlockData::zeroed()).unwrap();
        assert_eq!(displaced.0, blk(0x00));
        assert_eq!(vc.len(), 2);
    }

    #[test]
    fn zero_capacity_passes_through() {
        let mut vc = VictimCache::new(0);
        let displaced = vc.insert(blk(0x00), LineState::Modified, BlockData::zeroed());
        assert!(displaced.is_some());
        assert!(vc.is_empty());
    }

    #[test]
    fn duplicate_insert_replaces() {
        let mut vc = VictimCache::new(2);
        vc.insert(blk(0x00), LineState::Shared, BlockData::zeroed());
        vc.insert(blk(0x00), LineState::Modified, BlockData::from_words([9; 8]));
        assert_eq!(vc.len(), 1);
        let (state, data) = vc.take(blk(0x00)).unwrap();
        assert_eq!(state, LineState::Modified);
        assert_eq!(data.word(7), 9);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut vc = VictimCache::new(2);
        vc.insert(blk(0x00), LineState::Modified, BlockData::from_words([1; 8]));
        assert!(vc.downgrade(blk(0x00)).is_some(), "modified yields writeback");
        assert!(vc.downgrade(blk(0x00)).is_none(), "now shared");
        assert!(vc.invalidate(blk(0x00)).is_none(), "shared data need not be written back");
        assert!(!vc.contains(blk(0x00)));
        assert!(vc.invalidate(blk(0x40)).is_none());
    }
}
