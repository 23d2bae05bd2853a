//! The two store-buffer organizations of the paper (Figure 2 / Figure 5).
//!
//! * **FIFO, word granularity** — conventional SC and TSO. Age-ordered; only
//!   the oldest entry may drain; searched for store→load forwarding.
//! * **Coalescing, block granularity** — conventional RMO and every
//!   speculative engine. Unordered; any entry with write permission may
//!   drain; entries coalesce per block, but never across the speculative /
//!   non-speculative boundary (Section 3.1), and speculative entries can be
//!   flash-invalidated on abort.

use crate::line::{BlockData, WORDS_PER_BLOCK};
use ifence_types::{Addr, BlockAddr, StoreBufferKind};
use std::collections::VecDeque;
use std::fmt;

/// Error returned when a store cannot be inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbError {
    /// The store buffer has no free entry; the store must stall retirement.
    Full,
}

impl fmt::Display for SbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("store buffer full")
    }
}

impl std::error::Error for SbError {}

/// A drained (or drainable) store-buffer entry at block granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbEntry {
    /// The block the entry writes.
    pub block: BlockAddr,
    /// Bit `i` set means word `i` of the block carries a buffered value.
    pub word_mask: u8,
    /// Buffered data (only words selected by `word_mask` are meaningful).
    pub data: BlockData,
    /// Speculation epoch the stores belong to (`None` = non-speculative).
    pub epoch: Option<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WordStore {
    addr: Addr,
    block: BlockAddr,
    word: usize,
    value: u64,
    epoch: Option<u8>,
}

// The FIFO is an age-ordered deque of word stores; the coalescing buffer is
// a small unordered set of block entries.
#[derive(Debug, Clone)]
enum Organization {
    Fifo(VecDeque<WordStore>),
    Coalescing(Vec<SbEntry>),
}

/// A store buffer in one of the two organizations used by the paper.
///
/// # Example
/// ```
/// use ifence_mem::StoreBuffer;
/// use ifence_types::{Addr, StoreBufferKind};
/// let mut sb = StoreBuffer::new(StoreBufferKind::CoalescingBlock, 8, 64);
/// sb.push(Addr::new(0x100), 7, None).unwrap();
/// sb.push(Addr::new(0x108), 9, None).unwrap();
/// assert_eq!(sb.len(), 1, "stores to one block coalesce into one entry");
/// assert_eq!(sb.forward(Addr::new(0x100)), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    capacity: usize,
    block_bytes: usize,
    high_water: usize,
    /// Set by the drain when no entry could make progress until a fill
    /// arrives ([`StoreBuffer::set_drain_stalled`]); every change to the
    /// contents clears it.
    drain_stalled: bool,
    organization: Organization,
}

impl StoreBuffer {
    /// Creates a store buffer of the given organization and capacity.
    pub fn new(kind: StoreBufferKind, capacity: usize, block_bytes: usize) -> Self {
        let organization = match kind {
            StoreBufferKind::FifoWord => Organization::Fifo(VecDeque::new()),
            StoreBufferKind::CoalescingBlock => Organization::Coalescing(Vec::new()),
        };
        StoreBuffer { capacity, block_bytes, high_water: 0, drain_stalled: false, organization }
    }

    /// The organization of this buffer.
    pub fn kind(&self) -> StoreBufferKind {
        match self.organization {
            Organization::Fifo(_) => StoreBufferKind::FifoWord,
            Organization::Coalescing(_) => StoreBufferKind::CoalescingBlock,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (word entries for the FIFO, block entries
    /// for the coalescing buffer).
    pub fn len(&self) -> usize {
        match &self.organization {
            Organization::Fifo(q) => q.len(),
            Organization::Coalescing(v) => v.len(),
        }
    }

    /// Returns true if the buffer holds no stores.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns true if no further store can be inserted.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// The highest occupancy [`StoreBuffer::push`] has ever produced (never
    /// reset — it tracks the whole run, the "high-water transitions" the
    /// telemetry layer reports).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// True while the drain has recorded that every drain candidate waits
    /// on a fill and the contents have not changed since.
    pub fn drain_stalled(&self) -> bool {
        self.drain_stalled
    }

    /// Records whether every current drain candidate waits on a fill. Any
    /// later insert, drain or invalidation clears the record.
    pub fn set_drain_stalled(&mut self, stalled: bool) {
        self.drain_stalled = stalled;
    }

    fn block_of(&self, addr: Addr) -> BlockAddr {
        BlockAddr::containing(addr, self.block_bytes)
    }

    /// Inserts a retired store.
    ///
    /// # Errors
    /// Returns [`SbError::Full`] if no entry is free (and, for the coalescing
    /// buffer, no entry with the same block and epoch exists to merge into).
    pub fn push(&mut self, addr: Addr, value: u64, epoch: Option<u8>) -> Result<(), SbError> {
        self.drain_stalled = false;
        let block = self.block_of(addr);
        let word = addr.word_in_block(self.block_bytes).index();
        let capacity = self.capacity;
        match &mut self.organization {
            Organization::Fifo(q) => {
                if q.len() >= capacity {
                    return Err(SbError::Full);
                }
                q.push_back(WordStore { addr, block, word, value, epoch });
            }
            Organization::Coalescing(v) => {
                if let Some(e) = v.iter_mut().find(|e| e.block == block && e.epoch == epoch) {
                    e.word_mask |= 1 << word;
                    e.data.set_word(word, value);
                    return Ok(());
                }
                if v.len() >= capacity {
                    return Err(SbError::Full);
                }
                let mut data = BlockData::zeroed();
                data.set_word(word, value);
                v.push(SbEntry { block, word_mask: 1 << word, data, epoch });
            }
        }
        self.high_water = self.high_water.max(self.len());
        Ok(())
    }

    /// Returns the youngest buffered value for the word at `addr`, if any
    /// (store→load forwarding).
    pub fn forward(&self, addr: Addr) -> Option<u64> {
        let block = self.block_of(addr);
        let word = addr.word_in_block(self.block_bytes).index();
        match &self.organization {
            Organization::Fifo(q) => {
                q.iter().rev().find(|s| s.block == block && s.word == word).map(|s| s.value)
            }
            Organization::Coalescing(v) => {
                // A speculative entry for a block is always younger than the
                // non-speculative entry for the same block (speculation begins
                // after non-speculative stores were buffered), and higher
                // epochs are younger than lower ones.
                v.iter()
                    .filter(|e| e.block == block && e.word_mask & (1 << word) != 0)
                    .max_by_key(|e| e.epoch.map(|x| x as i16).unwrap_or(-1))
                    .map(|e| e.data.word(word))
            }
        }
    }

    /// Replaces the contents of `out` with the blocks that currently could be
    /// drained, oldest-first. For FIFO organizations only the head entry's
    /// block is a candidate; for the coalescing buffer every entry is. The
    /// caller keeps `out` across drain attempts, so none allocates.
    pub fn drain_candidates_into(&self, out: &mut Vec<(BlockAddr, Option<u8>)>) {
        out.clear();
        match &self.organization {
            Organization::Fifo(q) => {
                out.extend(q.front().map(|s| (s.block, s.epoch)));
            }
            Organization::Coalescing(v) => out.extend(v.iter().map(|e| (e.block, e.epoch))),
        }
    }

    /// Removes and returns the buffered stores for `block` as a single
    /// block-granularity entry, merging every FIFO word entry for that block
    /// that is contiguous from the head (FIFO order must not be violated).
    ///
    /// For the coalescing buffer the entry with the *lowest* epoch for that
    /// block is drained (non-speculative before speculative).
    pub fn drain_block(&mut self, block: BlockAddr) -> Option<SbEntry> {
        self.drain_stalled = false;
        match &mut self.organization {
            Organization::Fifo(q) => {
                let head = *q.front()?;
                if head.block != block {
                    return None;
                }
                let mut data = BlockData::zeroed();
                let mut mask = 0u8;
                let epoch = head.epoch;
                // Pop the maximal run of head entries for this block with the
                // same epoch (preserves FIFO order for other blocks).
                while let Some(front) = q.front() {
                    if front.block == block && front.epoch == epoch {
                        let s = q.pop_front().expect("front exists");
                        if s.word < WORDS_PER_BLOCK {
                            data.set_word(s.word, s.value);
                            mask |= 1 << s.word;
                        }
                    } else {
                        break;
                    }
                }
                Some(SbEntry { block, word_mask: mask, data, epoch })
            }
            Organization::Coalescing(v) => {
                let idx = v
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.block == block)
                    .min_by_key(|(_, e)| e.epoch.map(|x| x as i16).unwrap_or(-1))
                    .map(|(i, _)| i)?;
                Some(v.remove(idx))
            }
        }
    }

    /// Number of entries tagged with exactly the given epoch (`None` counts
    /// the non-speculative entries).
    pub fn epoch_len(&self, epoch: Option<u8>) -> usize {
        match &self.organization {
            Organization::Fifo(q) => q.iter().filter(|s| s.epoch == epoch).count(),
            Organization::Coalescing(v) => v.iter().filter(|e| e.epoch == epoch).count(),
        }
    }

    /// Removes every entry tagged with exactly `epoch` (abort of a single
    /// speculation epoch under multi-checkpoint policies). Returns the number
    /// of entries discarded.
    pub fn flash_invalidate_exact(&mut self, epoch: u8) -> usize {
        let keep = |e: Option<u8>| e != Some(epoch);
        self.drain_stalled = false;
        let before = self.len();
        match &mut self.organization {
            Organization::Fifo(q) => q.retain(|s| keep(s.epoch)),
            Organization::Coalescing(v) => v.retain(|e| keep(e.epoch)),
        }
        before - self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn fifo_is_age_ordered_and_word_granular() {
        let mut sb = StoreBuffer::new(StoreBufferKind::FifoWord, 4, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        sb.push(Addr::new(0x200), 2, None).unwrap();
        sb.push(Addr::new(0x108), 3, None).unwrap();
        assert_eq!(sb.len(), 3);
        // Only the head block is drainable.
        let mut candidates = vec![(blk(0x300), Some(1))];
        sb.drain_candidates_into(&mut candidates);
        assert_eq!(candidates, vec![(blk(0x100), None)], "the buffer is replaced, not extended");
        // Draining the head stops at the first entry for a different block,
        // preserving FIFO order (0x108 stays buffered behind 0x200).
        let e = sb.drain_block(blk(0x100)).unwrap();
        assert_eq!(e.word_mask, 0b0000_0001);
        assert_eq!(sb.len(), 2);
        sb.drain_candidates_into(&mut candidates);
        assert_eq!(candidates, vec![(blk(0x200), None)]);
    }

    #[test]
    fn fifo_fills_up_and_rejects() {
        let mut sb = StoreBuffer::new(StoreBufferKind::FifoWord, 2, 64);
        sb.push(Addr::new(0x0), 1, None).unwrap();
        sb.push(Addr::new(0x8), 2, None).unwrap();
        assert!(sb.is_full());
        assert_eq!(sb.push(Addr::new(0x10), 3, None), Err(SbError::Full));
    }

    #[test]
    fn fifo_forwarding_returns_youngest_value() {
        let mut sb = StoreBuffer::new(StoreBufferKind::FifoWord, 8, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        sb.push(Addr::new(0x100), 2, None).unwrap();
        assert_eq!(sb.forward(Addr::new(0x100)), Some(2));
        assert_eq!(sb.forward(Addr::new(0x108)), None);
    }

    #[test]
    fn coalescing_merges_same_block_same_epoch() {
        let mut sb = StoreBuffer::new(StoreBufferKind::CoalescingBlock, 2, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        sb.push(Addr::new(0x108), 2, None).unwrap();
        sb.push(Addr::new(0x110), 3, None).unwrap();
        assert_eq!(sb.len(), 1);
        let e = sb.drain_block(blk(0x100)).unwrap();
        assert_eq!(e.word_mask, 0b0000_0111);
        assert_eq!(e.data.word(1), 2);
    }

    #[test]
    fn high_water_tracks_peak_occupancy_not_merges() {
        let mut sb = StoreBuffer::new(StoreBufferKind::FifoWord, 4, 64);
        assert_eq!(sb.high_water(), 0);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        sb.push(Addr::new(0x200), 2, None).unwrap();
        assert_eq!(sb.high_water(), 2);
        // Draining lowers occupancy but never the high-water mark.
        sb.drain_block(blk(0x100)).unwrap();
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.high_water(), 2);
        sb.push(Addr::new(0x300), 3, None).unwrap();
        assert_eq!(sb.high_water(), 2, "refilling to a prior peak does not raise the mark");

        // A coalescing merge does not change occupancy, so it cannot move the
        // mark either.
        let mut sb = StoreBuffer::new(StoreBufferKind::CoalescingBlock, 2, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        assert_eq!(sb.high_water(), 1);
        sb.push(Addr::new(0x108), 2, None).unwrap();
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.high_water(), 1);
    }

    #[test]
    fn coalescing_never_merges_across_speculation_boundary() {
        let mut sb = StoreBuffer::new(StoreBufferKind::CoalescingBlock, 4, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        sb.push(Addr::new(0x108), 2, Some(0)).unwrap();
        assert_eq!(sb.len(), 2, "speculative and non-speculative entries stay separate");
        // Forwarding sees the youngest (speculative) value for its word and
        // the non-speculative value for the other word.
        assert_eq!(sb.forward(Addr::new(0x100)), Some(1));
        assert_eq!(sb.forward(Addr::new(0x108)), Some(2));
        // Draining picks the non-speculative entry first.
        let first = sb.drain_block(blk(0x100)).unwrap();
        assert_eq!(first.epoch, None);
        let second = sb.drain_block(blk(0x100)).unwrap();
        assert_eq!(second.epoch, Some(0));
    }

    #[test]
    fn coalescing_accepts_merge_even_when_full() {
        let mut sb = StoreBuffer::new(StoreBufferKind::CoalescingBlock, 1, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        assert!(sb.is_full());
        sb.push(Addr::new(0x118), 4, None).expect("same block coalesces");
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.push(Addr::new(0x200), 9, None), Err(SbError::Full));
    }

    #[test]
    fn flash_invalidate_discards_speculative_only() {
        for kind in [StoreBufferKind::FifoWord, StoreBufferKind::CoalescingBlock] {
            let mut sb = StoreBuffer::new(kind, 8, 64);
            sb.push(Addr::new(0x000), 1, None).unwrap();
            sb.push(Addr::new(0x100), 2, Some(0)).unwrap();
            sb.push(Addr::new(0x200), 3, Some(1)).unwrap();
            // Abort the younger epoch, then the older one.
            assert_eq!(sb.flash_invalidate_exact(1), 1);
            assert_eq!(sb.len(), 2);
            assert_eq!(sb.flash_invalidate_exact(0), 1);
            assert_eq!(sb.len(), 1);
            assert_eq!(sb.epoch_len(None), 1, "{kind}: the non-speculative store survives");
            assert_eq!(sb.forward(Addr::new(0x000)), Some(1));
        }
    }

    #[test]
    fn epoch_len_and_exact_invalidate() {
        let mut sb = StoreBuffer::new(StoreBufferKind::CoalescingBlock, 8, 64);
        sb.push(Addr::new(0x000), 1, None).unwrap();
        sb.push(Addr::new(0x100), 2, Some(0)).unwrap();
        sb.push(Addr::new(0x200), 3, Some(0)).unwrap();
        sb.push(Addr::new(0x300), 4, Some(1)).unwrap();
        assert_eq!(sb.epoch_len(None), 1);
        assert_eq!(sb.epoch_len(Some(0)), 2);
        assert_eq!(sb.epoch_len(Some(1)), 1);
        assert_eq!(sb.flash_invalidate_exact(0), 2);
        assert_eq!(sb.epoch_len(Some(0)), 0);
        assert_eq!(sb.epoch_len(None), 1, "non-speculative entries untouched");
        assert_eq!(sb.epoch_len(Some(1)), 1, "other epoch untouched");
    }

    #[test]
    fn every_change_to_the_contents_clears_the_drain_stall() {
        let changes: [fn(&mut StoreBuffer); 3] = [
            |sb| sb.push(Addr::new(0x100), 2, None).unwrap(),
            |sb| assert!(sb.drain_block(blk(0x100)).is_some()),
            |sb| assert_eq!(sb.flash_invalidate_exact(0), 1),
        ];
        for change in changes {
            let mut sb = StoreBuffer::new(StoreBufferKind::FifoWord, 4, 64);
            sb.push(Addr::new(0x100), 1, None).unwrap();
            sb.push(Addr::new(0x200), 1, Some(0)).unwrap();
            sb.set_drain_stalled(true);
            assert!(sb.drain_stalled());
            change(&mut sb);
            assert!(!sb.drain_stalled());
        }
    }

    #[test]
    fn from_config_matches_kind() {
        for kind in [StoreBufferKind::FifoWord, StoreBufferKind::CoalescingBlock] {
            let sb = StoreBuffer::new(kind, 4, 64);
            assert_eq!(sb.kind(), kind);
            assert_eq!(sb.capacity(), 4);
            assert!(sb.is_empty());
        }
    }
}
