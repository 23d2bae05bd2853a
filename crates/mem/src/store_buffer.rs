//! The three store-buffer organizations of the paper (Figure 2 / Figure 5).
//!
//! * **FIFO, word granularity** — conventional SC and TSO. Age-ordered; only
//!   the oldest entry may drain; searched for store→load forwarding.
//! * **Coalescing, block granularity** — conventional RMO and InvisiFence.
//!   Unordered; any entry with write permission may drain; entries coalesce
//!   per block, but never across the speculative / non-speculative boundary
//!   (Section 3.1), and speculative entries can be flash-invalidated on abort.
//! * **Scalable (SSB)** — ASO's per-store FIFO that does not forward to loads
//!   and drains into the L2 at commit.

use crate::line::{BlockData, WORDS_PER_BLOCK};
use crate::ring::Ring;
use ifence_types::{Addr, BlockAddr, StoreBufferConfig, StoreBufferKind};
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

// The age-ordered organizations sit on the flat [`Ring`] (the hot path of
// conventional SC/TSO drains and forwards through them every cycle); the
// coalescing buffer is a small unordered set, for which a plain `Vec` is
// already flat.
#[derive(Debug, Clone)]
enum Organization {
    Fifo(Ring<WordStore>),
    Coalescing(Vec<SbEntry>),
    Scalable(Ring<WordStore>),
}

/// A store buffer in one of the three organizations used by the paper.
///
/// # Example
/// ```
/// use ifence_mem::StoreBuffer;
/// use ifence_types::{Addr, StoreBufferConfig, StoreBufferKind};
/// let cfg = StoreBufferConfig { kind: StoreBufferKind::CoalescingBlock, entries: 8 };
/// let mut sb = StoreBuffer::from_config(&cfg, 64);
/// sb.push(Addr::new(0x100), 7, None).unwrap();
/// sb.push(Addr::new(0x108), 9, None).unwrap();
/// assert_eq!(sb.len(), 1, "stores to one block coalesce into one entry");
/// assert_eq!(sb.forward(Addr::new(0x100)), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    kind: StoreBufferKind,
    capacity: usize,
    block_bytes: usize,
    high_water: usize,
    organization: Organization,
}

impl StoreBuffer {
    /// Creates a store buffer from a configuration.
    pub fn from_config(config: &StoreBufferConfig, block_bytes: usize) -> Self {
        match config.kind {
            StoreBufferKind::FifoWord => Self::new_fifo(config.entries, block_bytes),
            StoreBufferKind::CoalescingBlock => Self::new_coalescing(config.entries, block_bytes),
            StoreBufferKind::Scalable => Self::new_scalable(config.entries, block_bytes),
        }
    }

    /// Creates a word-granularity FIFO store buffer.
    pub fn new_fifo(capacity: usize, block_bytes: usize) -> Self {
        StoreBuffer {
            kind: StoreBufferKind::FifoWord,
            capacity,
            block_bytes,
            high_water: 0,
            organization: Organization::Fifo(Ring::with_capacity(capacity)),
        }
    }

    /// Creates a block-granularity coalescing store buffer.
    pub fn new_coalescing(capacity: usize, block_bytes: usize) -> Self {
        StoreBuffer {
            kind: StoreBufferKind::CoalescingBlock,
            capacity,
            block_bytes,
            high_water: 0,
            organization: Organization::Coalescing(Vec::new()),
        }
    }

    /// Creates an ASO-style scalable store buffer (per-store, no forwarding).
    pub fn new_scalable(capacity: usize, block_bytes: usize) -> Self {
        StoreBuffer {
            kind: StoreBufferKind::Scalable,
            capacity,
            block_bytes,
            high_water: 0,
            organization: Organization::Scalable(Ring::with_capacity(capacity)),
        }
    }

    /// The organization of this buffer.
    pub fn kind(&self) -> StoreBufferKind {
        self.kind
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (word entries for FIFO/SSB, block entries
    /// for the coalescing buffer).
    pub fn len(&self) -> usize {
        match &self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => q.len(),
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

    fn block_of(&self, addr: Addr) -> BlockAddr {
        BlockAddr::containing(addr, self.block_bytes)
    }

    /// Would a store to `addr` in `epoch` fit without a new entry or with a
    /// free entry? Used by retirement logic to detect "SB full" stalls before
    /// mutating anything.
    pub fn can_accept(&self, addr: Addr, epoch: Option<u8>) -> bool {
        match &self.organization {
            Organization::Fifo(_) | Organization::Scalable(_) => !self.is_full(),
            Organization::Coalescing(v) => {
                let block = self.block_of(addr);
                v.iter().any(|e| e.block == block && e.epoch == epoch) || !self.is_full()
            }
        }
    }

    /// Inserts a retired store.
    ///
    /// # Errors
    /// Returns [`SbError::Full`] if no entry is free (and, for the coalescing
    /// buffer, no entry with the same block and epoch exists to merge into).
    pub fn push(&mut self, addr: Addr, value: u64, epoch: Option<u8>) -> Result<(), SbError> {
        let block = self.block_of(addr);
        let word = addr.word_in_block(self.block_bytes).index();
        let capacity = self.capacity;
        match &mut self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => {
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
    /// (store→load forwarding). The scalable buffer never forwards.
    pub fn forward(&self, addr: Addr) -> Option<u64> {
        let block = self.block_of(addr);
        let word = addr.word_in_block(self.block_bytes).index();
        match &self.organization {
            Organization::Fifo(q) => {
                q.iter().rev().find(|s| s.block == block && s.word == word).map(|s| s.value)
            }
            Organization::Scalable(_) => None,
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

    /// Returns true if any entry targets `block`.
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        match &self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => q.iter().any(|s| s.block == block),
            Organization::Coalescing(v) => v.iter().any(|e| e.block == block),
        }
    }

    /// Returns true if any entry belongs to a speculation epoch.
    pub fn has_speculative(&self) -> bool {
        match &self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => {
                q.iter().any(|s| s.epoch.is_some())
            }
            Organization::Coalescing(v) => v.iter().any(|e| e.epoch.is_some()),
        }
    }

    /// Replaces the contents of `out` with the blocks that currently could be
    /// drained, oldest-first. For FIFO organizations only the head entry's
    /// block is a candidate; for the coalescing buffer every entry is. The
    /// caller keeps `out` across drain attempts, so none allocates.
    pub fn drain_candidates_into(&self, out: &mut Vec<(BlockAddr, Option<u8>)>) {
        out.clear();
        match &self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => {
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
        match &mut self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => {
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

    /// Removes every entry belonging to epoch `min_epoch` or a younger epoch
    /// (speculation abort). Returns the number of entries discarded.
    pub fn flash_invalidate_speculative(&mut self, min_epoch: u8) -> usize {
        let keep = |epoch: Option<u8>| match epoch {
            None => true,
            Some(e) => e < min_epoch,
        };
        match &mut self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => q.retain(|s| keep(s.epoch)),
            Organization::Coalescing(v) => {
                let before = v.len();
                v.retain(|e| keep(e.epoch));
                before - v.len()
            }
        }
    }

    /// Renumbers epochs after the oldest checkpoint commits: entries of epoch
    /// `n` become epoch `n-1`; entries of epoch 0 become non-speculative.
    pub fn shift_epochs_down(&mut self) {
        let shift = |epoch: &mut Option<u8>| {
            *epoch = match *epoch {
                Some(0) | None => None,
                Some(n) => Some(n - 1),
            };
        };
        match &mut self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => {
                for s in q.iter_mut() {
                    shift(&mut s.epoch);
                }
            }
            Organization::Coalescing(v) => {
                for e in v.iter_mut() {
                    shift(&mut e.epoch);
                }
            }
        }
    }

    /// Number of entries tagged with exactly the given epoch (`None` counts
    /// the non-speculative entries).
    pub fn epoch_len(&self, epoch: Option<u8>) -> usize {
        match &self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => {
                q.iter().filter(|s| s.epoch == epoch).count()
            }
            Organization::Coalescing(v) => v.iter().filter(|e| e.epoch == epoch).count(),
        }
    }

    /// Removes every entry tagged with exactly `epoch` (abort of a single
    /// speculation epoch under multi-checkpoint policies). Returns the number
    /// of entries discarded.
    pub fn flash_invalidate_exact(&mut self, epoch: u8) -> usize {
        let keep = |e: Option<u8>| e != Some(epoch);
        match &mut self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => q.retain(|s| keep(s.epoch)),
            Organization::Coalescing(v) => {
                let before = v.len();
                v.retain(|e| keep(e.epoch));
                before - v.len()
            }
        }
    }

    /// Number of entries belonging to any speculation epoch.
    pub fn speculative_len(&self) -> usize {
        match &self.organization {
            Organization::Fifo(q) | Organization::Scalable(q) => {
                q.iter().filter(|s| s.epoch.is_some()).count()
            }
            Organization::Coalescing(v) => v.iter().filter(|e| e.epoch.is_some()).count(),
        }
    }

    /// Removes every entry unconditionally (used by ASO's commit drain, which
    /// transfers the stores into the L2 wholesale). Returns the drained entries
    /// oldest-first, merged per block for FIFO organizations.
    pub fn drain_all(&mut self) -> Vec<SbEntry> {
        let mut out = Vec::new();
        let mut candidates = Vec::new();
        loop {
            self.drain_candidates_into(&mut candidates);
            let Some(&(block, _)) = candidates.first() else { break };
            match self.drain_block(block) {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out
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
        let mut sb = StoreBuffer::new_fifo(4, 64);
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
        let mut sb = StoreBuffer::new_fifo(2, 64);
        sb.push(Addr::new(0x0), 1, None).unwrap();
        sb.push(Addr::new(0x8), 2, None).unwrap();
        assert!(sb.is_full());
        assert_eq!(sb.push(Addr::new(0x10), 3, None), Err(SbError::Full));
        assert!(!sb.can_accept(Addr::new(0x10), None));
    }

    #[test]
    fn fifo_forwarding_returns_youngest_value() {
        let mut sb = StoreBuffer::new_fifo(8, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        sb.push(Addr::new(0x100), 2, None).unwrap();
        assert_eq!(sb.forward(Addr::new(0x100)), Some(2));
        assert_eq!(sb.forward(Addr::new(0x108)), None);
    }

    #[test]
    fn coalescing_merges_same_block_same_epoch() {
        let mut sb = StoreBuffer::new_coalescing(2, 64);
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
        let mut sb = StoreBuffer::new_fifo(4, 64);
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
        let mut sb = StoreBuffer::new_coalescing(2, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        assert_eq!(sb.high_water(), 1);
        sb.push(Addr::new(0x108), 2, None).unwrap();
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.high_water(), 1);
    }

    #[test]
    fn coalescing_never_merges_across_speculation_boundary() {
        let mut sb = StoreBuffer::new_coalescing(4, 64);
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
        let mut sb = StoreBuffer::new_coalescing(1, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        assert!(sb.is_full());
        assert!(sb.can_accept(Addr::new(0x118), None), "same block coalesces");
        sb.push(Addr::new(0x118), 4, None).unwrap();
        assert!(!sb.can_accept(Addr::new(0x200), None));
        assert_eq!(sb.push(Addr::new(0x200), 9, None), Err(SbError::Full));
    }

    #[test]
    fn flash_invalidate_discards_speculative_only() {
        let mut sb = StoreBuffer::new_coalescing(8, 64);
        sb.push(Addr::new(0x000), 1, None).unwrap();
        sb.push(Addr::new(0x100), 2, Some(0)).unwrap();
        sb.push(Addr::new(0x200), 3, Some(1)).unwrap();
        assert!(sb.has_speculative());
        assert_eq!(sb.speculative_len(), 2);
        // Abort only the younger epoch.
        assert_eq!(sb.flash_invalidate_speculative(1), 1);
        assert_eq!(sb.len(), 2);
        // Abort everything speculative.
        assert_eq!(sb.flash_invalidate_speculative(0), 1);
        assert_eq!(sb.len(), 1);
        assert!(!sb.has_speculative());
    }

    #[test]
    fn epoch_len_and_exact_invalidate() {
        let mut sb = StoreBuffer::new_coalescing(8, 64);
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
    fn shift_epochs_down_renumbers() {
        let mut sb = StoreBuffer::new_coalescing(8, 64);
        sb.push(Addr::new(0x000), 1, Some(0)).unwrap();
        sb.push(Addr::new(0x100), 2, Some(1)).unwrap();
        sb.shift_epochs_down();
        assert_eq!(sb.speculative_len(), 1);
        let drained = sb.drain_block(blk(0x000)).unwrap();
        assert_eq!(drained.epoch, None);
        let drained = sb.drain_block(blk(0x100)).unwrap();
        assert_eq!(drained.epoch, Some(0));
    }

    #[test]
    fn scalable_buffer_does_not_forward() {
        let mut sb = StoreBuffer::new_scalable(16, 64);
        sb.push(Addr::new(0x100), 5, Some(0)).unwrap();
        assert_eq!(sb.forward(Addr::new(0x100)), None);
        assert_eq!(sb.kind(), StoreBufferKind::Scalable);
        assert!(sb.contains_block(blk(0x100)));
    }

    #[test]
    fn drain_all_empties_the_buffer_oldest_first() {
        let mut sb = StoreBuffer::new_fifo(8, 64);
        sb.push(Addr::new(0x100), 1, None).unwrap();
        sb.push(Addr::new(0x200), 2, None).unwrap();
        sb.push(Addr::new(0x100), 3, None).unwrap();
        let drained = sb.drain_all();
        assert!(sb.is_empty());
        assert_eq!(drained.len(), 3, "non-contiguous same-block runs drain separately");
        assert_eq!(drained[0].block, blk(0x100));
        assert_eq!(drained[1].block, blk(0x200));
    }

    #[test]
    fn from_config_matches_kind() {
        for kind in
            [StoreBufferKind::FifoWord, StoreBufferKind::CoalescingBlock, StoreBufferKind::Scalable]
        {
            let sb = StoreBuffer::from_config(&StoreBufferConfig { kind, entries: 4 }, 64);
            assert_eq!(sb.kind(), kind);
            assert_eq!(sb.capacity(), 4);
            assert!(sb.is_empty());
        }
    }
}
