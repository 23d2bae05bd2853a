//! The L1 data cache as seen by one core: set-associative array plus victim
//! cache, with the speculative-access bits InvisiFence adds.

use crate::cache::{EvictedLine, FillSlot, SetAssocCache};
use crate::line::{BlockData, LineState};
use crate::victim::VictimCache;
use ifence_types::{BlockAddr, CacheConfig};

/// An action the memory system must take because a line left the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionAction {
    /// A Modified line was evicted; its data must be written back to the L2
    /// and ownership surrendered.
    WritebackDirty(BlockAddr, BlockData),
    /// A clean Exclusive line was evicted; ownership must be surrendered so
    /// the directory no longer forwards requests here.
    WritebackClean(BlockAddr),
    /// A Shared line was evicted silently (no protocol action required).
    Silent(BlockAddr),
}

impl EvictionAction {
    /// The block the action concerns.
    pub fn block(&self) -> BlockAddr {
        match self {
            EvictionAction::WritebackDirty(b, _)
            | EvictionAction::WritebackClean(b)
            | EvictionAction::Silent(b) => *b,
        }
    }

    fn from_line(line: EvictedLine) -> Self {
        match line.state {
            LineState::Modified => EvictionAction::WritebackDirty(line.block, line.data),
            LineState::Exclusive => EvictionAction::WritebackClean(line.block),
            _ => EvictionAction::Silent(line.block),
        }
    }
}

/// The per-core L1 data cache: tag/data array, victim cache, and speculative
/// access bits.
///
/// Mutating operations that displace lines queue the resulting
/// [`EvictionAction`]s internally; the core collects them each cycle with
/// [`L1Cache::drain_writebacks`] and turns them into coherence traffic.
///
/// The L1 also keeps the blocks the core's store-buffer drain has parked
/// ([`L1Cache::park`]): absent from the array and the victim cache while a
/// fill is outstanding. Only installing such a block can change that, so
/// every install unparks its block.
#[derive(Debug, Clone)]
pub struct L1Cache {
    cache: SetAssocCache,
    victim: VictimCache,
    pending: Vec<EvictionAction>,
    parked: Vec<BlockAddr>,
    /// Set when an install unparks a block; see [`L1Cache::take_unparked`].
    unparked: bool,
}

impl L1Cache {
    /// Creates an empty L1 from a configuration.
    pub fn new(config: &CacheConfig) -> Self {
        L1Cache {
            cache: SetAssocCache::new(config),
            victim: VictimCache::new(config.victim_entries),
            pending: Vec::new(),
            parked: Vec::new(),
            unparked: false,
        }
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.cache.block_bytes()
    }

    /// Coherence state of `block`, promoting a victim-cache hit back into the
    /// main array (which may displace another line).
    pub fn lookup(&mut self, block: BlockAddr) -> LineState {
        let state = self.cache.state_touch(block);
        if state != LineState::Invalid {
            return state;
        }
        if let Some((vstate, vdata)) = self.victim.take(block) {
            self.fill(block, vstate, vdata);
            return vstate;
        }
        LineState::Invalid
    }

    /// Reads the word at `word_index` of a readable `block`, exactly as
    /// [`L1Cache::lookup`] followed by [`L1Cache::read_word`], in one probe
    /// of the main array. Returns `None` when the block is in neither the
    /// main array nor the victim cache.
    pub fn load_word(&mut self, block: BlockAddr, word_index: usize) -> Option<u64> {
        if let Some(value) = self.cache.read_word_touch(block, word_index) {
            return Some(value);
        }
        let (vstate, vdata) = self.victim.take(block)?;
        self.fill(block, vstate, vdata);
        Some(vdata.word(word_index))
    }

    /// Coherence state of `block` without promoting or touching anything.
    pub fn peek(&self, block: BlockAddr) -> LineState {
        let state = self.cache.state(block);
        if state != LineState::Invalid {
            return state;
        }
        if self.victim.contains(block) {
            // The victim cache preserves the line's state; report presence as
            // at least Shared (exact state is recovered on promotion).
            return LineState::Shared;
        }
        LineState::Invalid
    }

    /// Returns true if `block` is resident in the main array (not the victim
    /// cache).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.cache.contains(block)
    }

    /// Fills `block` with the given state and data (a coherence response or a
    /// victim promotion).
    pub fn fill(&mut self, block: BlockAddr, state: LineState, data: BlockData) {
        self.fill_at(self.cache.fill_slot(block), state, data);
    }

    /// Chooses where a fill of `block` lands in the main array; valid until
    /// the L1 next changes.
    pub fn fill_slot(&self, block: BlockAddr) -> FillSlot {
        self.cache.fill_slot(block)
    }

    /// Returns true if filling at `slot` would evict a speculatively-accessed
    /// line — the condition under which InvisiFence must force a commit (or
    /// abort) before the fill proceeds.
    pub fn slot_evicts_spec(&self, slot: FillSlot) -> bool {
        self.cache.slot_evicts_spec(slot)
    }

    /// [`L1Cache::fill`] into a slot chosen by [`L1Cache::fill_slot`] since
    /// the L1 last changed. Every line enters the main array here, so this is
    /// where a parked block is unparked.
    pub fn fill_at(&mut self, slot: FillSlot, state: LineState, data: BlockData) {
        if let Some(i) = self.parked.iter().position(|&b| b == slot.block()) {
            self.parked.swap_remove(i);
            self.unparked = true;
        }
        if let Some(evicted) = self.cache.fill_at(slot, state, data) {
            // Fills delivered by the coherence fabric consult the ordering
            // engine first (which commits or aborts), so an evicted line is
            // normally not speculative. The one remaining corner is a
            // victim-cache promotion displacing a line from a set whose ways
            // are all speculative; the line's data still follows the normal
            // eviction path, at the cost of losing its speculative marking —
            // a conservative, very rare approximation (PAPER.md, "Modelling
            // approximations").
            if evicted.state == LineState::Invalid {
                return;
            }
            if let Some((block, state, data)) =
                self.victim.insert(evicted.block, evicted.state, evicted.data)
            {
                self.pending.push(EvictionAction::from_line(EvictedLine { block, state, data }));
            }
        }
    }

    /// Parks `block` for the store-buffer drain. The caller guarantees the
    /// block is absent from the array and the victim cache and has a fill
    /// outstanding; it stays parked until that fill installs it.
    pub fn park(&mut self, block: BlockAddr) {
        debug_assert!(!self.is_parked(block), "{block} parked twice");
        debug_assert_eq!(self.peek(block), LineState::Invalid, "parked {block} is present");
        self.parked.push(block);
    }

    /// Returns true if `block` is parked.
    pub fn is_parked(&self, block: BlockAddr) -> bool {
        self.parked.contains(&block)
    }

    /// The parked blocks, in no particular order.
    pub fn parked(&self) -> &[BlockAddr] {
        &self.parked
    }

    /// Returns whether an install has unparked a block since the last call,
    /// and clears that record.
    pub fn take_unparked(&mut self) -> bool {
        std::mem::replace(&mut self.unparked, false)
    }

    /// Drains the eviction/writeback actions produced since the last call in
    /// place, so the queue keeps its allocation.
    pub fn drain_writebacks(&mut self) -> std::vec::Drain<'_, EvictionAction> {
        self.pending.drain(..)
    }

    /// Reads the word at `word_index` of `block` (main array only).
    pub fn read_word(&self, block: BlockAddr, word_index: usize) -> Option<u64> {
        self.cache.read_word(block, word_index)
    }

    /// Writes the word at `word_index` of `block`, marking the line Modified.
    /// Returns false if the block is not resident or not writable.
    pub fn write_word(&mut self, block: BlockAddr, word_index: usize, value: u64) -> bool {
        self.cache.write_owned(block, word_index, value)
    }

    /// Merges a drained store-buffer entry into the line, marking it Modified.
    /// Returns false if the block is not resident or not writable.
    pub fn merge_store(&mut self, block: BlockAddr, data: &BlockData, word_mask: u8) -> bool {
        self.cache.merge_owned(block, data, word_mask)
    }

    /// Copy of the block's data, if resident.
    pub fn data(&self, block: BlockAddr) -> Option<BlockData> {
        self.cache.data(block)
    }

    /// Sets the coherence state of a resident block.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        self.cache.set_state(block, state)
    }

    /// Handles an external invalidation (a remote GetM). Returns the dirty
    /// data if this cache held the block Modified.
    pub fn external_invalidate(&mut self, block: BlockAddr) -> Option<BlockData> {
        let mut dirty = None;
        if let Some(line) = self.cache.invalidate(block) {
            if line.state == LineState::Modified {
                dirty = Some(line.data);
            }
        }
        if let Some(d) = self.victim.invalidate(block) {
            dirty = Some(d);
        }
        dirty
    }

    /// Handles an external read (a remote GetS): downgrade to Shared. Returns
    /// the dirty data if this cache held the block Modified.
    pub fn external_downgrade(&mut self, block: BlockAddr) -> Option<BlockData> {
        let from_cache = self.cache.downgrade(block);
        let from_victim = self.victim.downgrade(block);
        from_cache.or(from_victim)
    }

    /// Evicts `block` voluntarily (capacity management or a clean-writeback
    /// used to preserve pre-speculative data), queuing the writeback action.
    pub fn evict(&mut self, block: BlockAddr) {
        if let Some(line) = self.cache.invalidate(block) {
            self.pending.push(EvictionAction::from_line(line));
        }
    }

    /// Performs the "cleaning" writeback InvisiFence uses before the first
    /// speculative store to a dirty block: the block's current data is written
    /// back to the next cache level but the line *stays resident*, transitioning
    /// Modified → Exclusive. Returns the data written back, or `None` if the
    /// block was not resident and Modified.
    pub fn clean_writeback(&mut self, block: BlockAddr) -> Option<BlockData> {
        let data = self.cache.clean(block)?;
        self.pending.push(EvictionAction::WritebackDirty(block, data));
        Some(data)
    }

    // ---- speculative-access bits (delegated to the tag array) --------------------------

    /// Marks `block` speculatively read in `epoch`.
    pub fn mark_spec_read(&mut self, block: BlockAddr, epoch: usize) -> bool {
        self.cache.mark_spec_read(block, epoch)
    }

    /// Marks `block` speculatively written in `epoch`.
    pub fn mark_spec_written(&mut self, block: BlockAddr, epoch: usize) -> bool {
        self.cache.mark_spec_written(block, epoch)
    }

    /// Returns true if `block` is speculatively read in `epoch`.
    pub fn is_spec_read(&self, block: BlockAddr, epoch: usize) -> bool {
        self.cache.is_spec_read(block, epoch)
    }

    /// Returns true if `block` is speculatively written in `epoch`.
    pub fn is_spec_written(&self, block: BlockAddr, epoch: usize) -> bool {
        self.cache.is_spec_written(block, epoch)
    }

    /// Returns true if `block` carries any speculative mark.
    pub fn is_spec_any(&self, block: BlockAddr) -> bool {
        self.cache.is_spec_any(block)
    }

    /// Flash-clears the speculative bits of `epoch` (commit).
    pub fn flash_clear_epoch(&mut self, epoch: usize) {
        self.cache.flash_clear_epoch(epoch);
    }

    /// Flash-invalidates every speculatively-written line of `epoch` (abort),
    /// returning the invalidated blocks.
    pub fn flash_invalidate_written(&mut self, epoch: usize) -> Vec<BlockAddr> {
        self.cache.flash_invalidate_written(epoch)
    }

    /// Number of lines carrying speculative marks in `epoch`.
    pub fn spec_line_count(&self, epoch: usize) -> usize {
        self.cache.spec_line_count(epoch)
    }

    /// Returns true if any line carries a speculative mark.
    pub fn has_spec_lines(&self) -> bool {
        self.cache.has_spec_lines()
    }

    /// Number of valid lines in the main array.
    pub fn valid_lines(&self) -> usize {
        self.cache.valid_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::Addr;

    fn cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 512,
            associativity: 2,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 8,
            victim_entries: 2,
        }
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn fill_and_lookup() {
        let mut l1 = L1Cache::new(&cfg());
        assert_eq!(l1.lookup(blk(0x100)), LineState::Invalid);
        l1.fill(blk(0x100), LineState::Exclusive, BlockData::zeroed());
        assert_eq!(l1.lookup(blk(0x100)), LineState::Exclusive);
        assert_eq!(l1.peek(blk(0x100)), LineState::Exclusive);
    }

    #[test]
    fn eviction_goes_to_victim_and_back() {
        let mut l1 = L1Cache::new(&cfg());
        // Three blocks in the same set (4 sets, stride 0x100).
        l1.fill(blk(0x000), LineState::Modified, BlockData::from_words([1; 8]));
        l1.fill(blk(0x100), LineState::Shared, BlockData::zeroed());
        l1.fill(blk(0x200), LineState::Shared, BlockData::zeroed());
        // 0x000 was evicted into the victim cache; looking it up promotes it back.
        assert!(!l1.contains(blk(0x000)));
        assert_eq!(l1.lookup(blk(0x000)), LineState::Modified);
        assert!(l1.contains(blk(0x000)));
        assert_eq!(l1.read_word(blk(0x000), 0), Some(1));
    }

    #[test]
    fn victim_overflow_produces_writebacks() {
        let mut l1 = L1Cache::new(&CacheConfig { victim_entries: 1, ..cfg() });
        l1.fill(blk(0x000), LineState::Modified, BlockData::from_words([7; 8]));
        l1.fill(blk(0x100), LineState::Modified, BlockData::zeroed());
        l1.fill(blk(0x200), LineState::Shared, BlockData::zeroed());
        l1.fill(blk(0x300), LineState::Shared, BlockData::zeroed());
        let wbs: Vec<_> = l1.drain_writebacks().collect();
        assert!(
            wbs.iter()
                .any(|w| matches!(w, EvictionAction::WritebackDirty(b, d) if *b == blk(0x000) && d.word(0) == 7)),
            "dirty line displaced from the victim cache must be written back, got {wbs:?}"
        );
        assert_eq!(l1.drain_writebacks().count(), 0, "draining empties the queue");
    }

    #[test]
    fn load_word_matches_lookup_then_read_word() {
        let mut l1 = L1Cache::new(&cfg());
        assert_eq!(l1.load_word(blk(0x000), 0), None);
        l1.fill(blk(0x000), LineState::Modified, BlockData::from_words([4; 8]));
        l1.fill(blk(0x100), LineState::Shared, BlockData::from_words([5; 8]));
        assert_eq!(l1.load_word(blk(0x000), 3), Some(4));
        // 0x000 is now most-recently-used, so 0x100 is the one displaced
        // into the victim cache; loading it promotes it back.
        l1.fill(blk(0x200), LineState::Shared, BlockData::zeroed());
        assert!(l1.contains(blk(0x000)) && !l1.contains(blk(0x100)));
        assert_eq!(l1.load_word(blk(0x100), 1), Some(5));
        assert!(l1.contains(blk(0x100)));
    }

    #[test]
    fn write_word_requires_write_permission() {
        let mut l1 = L1Cache::new(&cfg());
        l1.fill(blk(0x40), LineState::Shared, BlockData::zeroed());
        assert!(!l1.write_word(blk(0x40), 0, 5));
        l1.set_state(blk(0x40), LineState::Exclusive);
        assert!(l1.write_word(blk(0x40), 0, 5));
        assert_eq!(l1.peek(blk(0x40)), LineState::Modified);
        assert_eq!(l1.read_word(blk(0x40), 0), Some(5));
    }

    #[test]
    fn merge_store_applies_masked_words() {
        let mut l1 = L1Cache::new(&cfg());
        l1.fill(blk(0x40), LineState::Exclusive, BlockData::from_words([1; 8]));
        let mut data = BlockData::zeroed();
        data.set_word(2, 99);
        assert!(l1.merge_store(blk(0x40), &data, 0b100));
        assert_eq!(l1.read_word(blk(0x40), 2), Some(99));
        assert_eq!(l1.read_word(blk(0x40), 0), Some(1));
        assert!(!l1.merge_store(blk(0x80), &data, 0b100), "absent block cannot merge");
    }

    #[test]
    fn external_requests_hit_cache_and_victim() {
        let mut l1 = L1Cache::new(&cfg());
        l1.fill(blk(0x40), LineState::Modified, BlockData::from_words([3; 8]));
        let dirty = l1.external_downgrade(blk(0x40));
        assert!(dirty.is_some());
        assert_eq!(l1.peek(blk(0x40)), LineState::Shared);
        assert!(l1.external_invalidate(blk(0x40)).is_none(), "shared line has no dirty data");
        assert_eq!(l1.peek(blk(0x40)), LineState::Invalid);
    }

    #[test]
    fn clean_writeback_keeps_line_resident_but_clean() {
        let mut l1 = L1Cache::new(&cfg());
        l1.fill(blk(0x40), LineState::Modified, BlockData::from_words([9; 8]));
        let wb = l1.clean_writeback(blk(0x40)).expect("dirty block cleans");
        assert_eq!(wb.word(0), 9);
        assert_eq!(l1.peek(blk(0x40)), LineState::Exclusive);
        assert_eq!(l1.read_word(blk(0x40), 0), Some(9), "data stays resident");
        assert_eq!(l1.drain_writebacks().count(), 1);
        assert!(l1.clean_writeback(blk(0x40)).is_none(), "already clean");
        assert!(l1.clean_writeback(blk(0x80)).is_none(), "absent block");
    }

    #[test]
    fn spec_bits_roundtrip_through_l1() {
        let mut l1 = L1Cache::new(&cfg());
        l1.fill(blk(0x40), LineState::Exclusive, BlockData::zeroed());
        l1.mark_spec_read(blk(0x40), 0);
        l1.mark_spec_written(blk(0x40), 0);
        assert!(l1.is_spec_read(blk(0x40), 0));
        assert!(l1.is_spec_written(blk(0x40), 0));
        assert!(l1.is_spec_any(blk(0x40)));
        assert!(l1.has_spec_lines());
        let gone = l1.flash_invalidate_written(0);
        assert_eq!(gone, vec![blk(0x40)]);
        assert!(!l1.has_spec_lines());
        assert_eq!(l1.peek(blk(0x40)), LineState::Invalid);
    }

    #[test]
    fn fill_would_evict_spec_detects_conflict() {
        let mut l1 = L1Cache::new(&cfg());
        l1.fill(blk(0x000), LineState::Exclusive, BlockData::zeroed());
        l1.fill(blk(0x100), LineState::Exclusive, BlockData::zeroed());
        l1.mark_spec_written(blk(0x000), 0);
        l1.mark_spec_read(blk(0x100), 0);
        assert!(l1.slot_evicts_spec(l1.fill_slot(blk(0x200))));
        assert!(
            !l1.slot_evicts_spec(l1.fill_slot(blk(0x000))),
            "already-present block evicts nothing"
        );
        // A commit clears the marks, so the same fill is no longer a conflict.
        l1.flash_clear_epoch(0);
        let slot = l1.fill_slot(blk(0x200));
        assert!(!l1.slot_evicts_spec(slot));
        l1.fill_at(slot, LineState::Shared, BlockData::zeroed());
        assert!(l1.contains(blk(0x200)));
    }
}
