//! The L1 data cache as seen by one core: a set-associative tag and data
//! array whose tags carry the speculative-access bits InvisiFence adds, plus
//! the victim cache, the parked blocks and the pending writebacks.

use crate::cache::{first_line_aligned, Divisor};
use crate::line::{BlockData, LineState};
use crate::spec_bits::{Mark, MarkLogs, Marks};
use crate::victim::VictimCache;
use ifence_types::{Addr, BlockAddr, CacheConfig};

/// Maximum number of in-flight speculation epochs (checkpoints) whose access
/// bits the L1 can track — the paper's optional second checkpoint
/// (Section 3.1) means two.
pub const MAX_EPOCHS: usize = 2;

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
}

/// Where a fill of one block lands: the line already holding it, or the way
/// it displaces. Chosen by [`L1Cache::fill_slot`] and valid until the L1
/// next changes, so a caller that must inspect the victim before the fill
/// (InvisiFence's speculative-eviction check) chooses it only once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillSlot {
    block: BlockAddr,
    line: usize,
    present: bool,
}

impl FillSlot {
    /// The block this slot would receive.
    pub fn block(&self) -> BlockAddr {
        self.block
    }
}

/// The tag half of a line: everything a probe, a victim choice or a
/// speculative check reads — block number, LRU stamp, coherence state and
/// the speculative marks — in 16 bytes. Tags sit in their own array, apart
/// from the 64-byte payloads, so a 2-way set is 32 bytes and a probe touches
/// one host cache line.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tag {
    block: u64,
    lru: u32,
    state: LineState,
    pub(crate) marks: Marks,
}

/// The per-core L1 data cache: a set-associative, write-back array with LRU
/// replacement and speculatively-read / speculatively-written bits per line,
/// backed by a victim cache.
///
/// Every access probes the set once, over a dense tag array; payloads live
/// in a parallel data array touched only on a hit.
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
    sets: Divisor,
    assoc: usize,
    block_bytes: usize,
    /// Tags and payloads, line `i` of the cache at index `first + i` of both
    /// (see [`first_line_aligned`]); the padding lines stay invalid.
    tags: Vec<Tag>,
    data: Vec<BlockData>,
    first: usize,
    /// The last LRU stamp handed out; see [`L1Cache::touch_line`].
    stamp: u32,
    logs: MarkLogs,
    victim: VictimCache,
    pending: Vec<EvictionAction>,
    parked: Vec<BlockAddr>,
    /// Set when an install unparks a block; see [`L1Cache::take_unparked`].
    unparked: bool,
}

impl L1Cache {
    /// Creates an empty L1 from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration yields zero sets or zero ways.
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.associativity;
        assert!(sets > 0 && assoc > 0, "cache must have at least one set and one way");
        let total = sets * assoc + 64 / std::mem::size_of::<Tag>() - 1;
        let tags = vec![Tag::default(); total];
        L1Cache {
            sets: Divisor::new(sets),
            assoc,
            block_bytes: config.block_bytes,
            first: first_line_aligned(&tags),
            tags,
            data: vec![BlockData::default(); total],
            stamp: 0,
            logs: MarkLogs::default(),
            victim: VictimCache::new(config.victim_entries),
            pending: Vec::new(),
            parked: Vec::new(),
            unparked: false,
        }
    }

    /// First line index of the set `block` maps to.
    fn set_base(&self, block: BlockAddr) -> usize {
        self.first + self.sets.rem(block.number()) * self.assoc
    }

    fn block_of_line(&self, idx: usize) -> BlockAddr {
        let number = self.tags[idx].block;
        BlockAddr::containing(Addr::new(number * self.block_bytes as u64), self.block_bytes)
    }

    /// Finds the line index holding `block` in the main array, if present:
    /// one probe of the set's tags.
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let base = self.set_base(block);
        let number = block.number();
        self.tags[base..base + self.assoc]
            .iter()
            .position(|t| t.block == number && t.state != LineState::Invalid)
            .map(|way| base + way)
    }

    /// Finds the line index holding `block` with write permission.
    fn find_writable(&self, block: BlockAddr) -> Option<usize> {
        self.find(block).filter(|&i| self.tags[i].state.writable())
    }

    /// Marks line `idx` most-recently-used. Stamps only order the ways of
    /// one set, so when the 32-bit counter would wrap, every set's stamps
    /// are renumbered by rank (order within each set kept) and counting
    /// goes on above them.
    fn touch_line(&mut self, idx: usize) {
        if self.stamp == u32::MAX {
            self.renumber_stamps();
        }
        self.stamp += 1;
        self.tags[idx].lru = self.stamp;
    }

    #[cold]
    fn renumber_stamps(&mut self) {
        let mut order: Vec<usize> = Vec::with_capacity(self.assoc);
        let lines = self.first..self.first + self.sets.value() * self.assoc;
        for set in self.tags[lines].chunks_mut(self.assoc) {
            order.clear();
            order.extend(0..set.len());
            order.sort_by_key(|&k| set[k].lru);
            for (rank, &k) in order.iter().enumerate() {
                set[k].lru = rank as u32 + 1;
            }
        }
        self.stamp = self.assoc as u32;
    }

    /// Starts the LRU counter at `stamp`, so tests reach the renumbering
    /// without four billion touches. Only raising it keeps the stamps in
    /// order.
    #[cfg(test)]
    fn start_stamps_at(&mut self, stamp: u32) {
        assert!(stamp >= self.stamp, "the LRU counter only moves forward");
        self.stamp = stamp;
    }

    /// Coherence state of `block`, promoting a victim-cache hit back into the
    /// main array (which may displace another line). A main-array hit is
    /// marked most-recently-used.
    pub fn lookup(&mut self, block: BlockAddr) -> LineState {
        if let Some(i) = self.find(block) {
            self.touch_line(i);
            return self.tags[i].state;
        }
        match self.victim.take(block) {
            Some((vstate, vdata)) => {
                self.fill(block, vstate, vdata);
                vstate
            }
            None => LineState::Invalid,
        }
    }

    /// Reads the word at `word_index` of a readable `block`, exactly as
    /// [`L1Cache::lookup`] followed by [`L1Cache::read_word`], in one probe
    /// of the main array. Returns `None` when the block is in neither the
    /// main array nor the victim cache.
    pub fn load_word(&mut self, block: BlockAddr, word_index: usize) -> Option<u64> {
        if let Some(i) = self.find(block) {
            self.touch_line(i);
            return Some(self.data[i].word(word_index));
        }
        let (vstate, vdata) = self.victim.take(block)?;
        self.fill(block, vstate, vdata);
        Some(vdata.word(word_index))
    }

    /// Coherence state of `block` without promoting or touching anything.
    pub fn peek(&self, block: BlockAddr) -> LineState {
        if let Some(i) = self.find(block) {
            return self.tags[i].state;
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
        self.find(block).is_some()
    }

    /// Fills `block` with the given state and data (a coherence response or a
    /// victim promotion). If the block is already present only its state and
    /// data are updated.
    pub fn fill(&mut self, block: BlockAddr, state: LineState, data: BlockData) {
        self.fill_at(self.fill_slot(block), state, data);
    }

    fn victim_way(&self, base: usize) -> usize {
        let set = &self.tags[base..base + self.assoc];
        // Prefer an invalid way; otherwise the least-recently-used way that
        // carries no speculative marks (speculatively-accessed blocks must not
        // escape the cache); only if every way is speculative fall back to
        // plain LRU (the ordering engine is then responsible for committing or
        // aborting before the fill).
        if let Some(way) = set.iter().position(|t| t.state == LineState::Invalid) {
            return base + way;
        }
        let lru = |plain_only: bool| {
            (0..set.len())
                .filter(|&k| !plain_only || !set[k].marks.any())
                .min_by_key(|&k| set[k].lru)
        };
        base + lru(true).or_else(|| lru(false)).expect("set has at least one way")
    }

    /// Chooses where a fill of `block` lands in the main array — the line
    /// holding it if present, otherwise the victim way; valid until the L1
    /// next changes.
    pub fn fill_slot(&self, block: BlockAddr) -> FillSlot {
        match self.find(block) {
            Some(line) => FillSlot { block, line, present: true },
            None => FillSlot { block, line: self.victim_way(self.set_base(block)), present: false },
        }
    }

    /// Returns true if filling at `slot` would evict a speculatively-accessed
    /// line — the condition under which InvisiFence must force a commit (or
    /// abort) before the fill proceeds.
    pub fn slot_evicts_spec(&self, slot: FillSlot) -> bool {
        let tag = self.tags[slot.line];
        !slot.present && tag.state != LineState::Invalid && tag.marks.any()
    }

    /// [`L1Cache::fill`] into a slot chosen by [`L1Cache::fill_slot`] since
    /// the L1 last changed. Every line enters the main array here, so this is
    /// where a parked block is unparked.
    pub fn fill_at(&mut self, slot: FillSlot, state: LineState, data: BlockData) {
        debug_assert_eq!(slot, self.fill_slot(slot.block), "fill slot is stale");
        if let Some(i) = self.parked.iter().position(|&b| b == slot.block) {
            self.parked.swap_remove(i);
            self.unparked = true;
        }
        let idx = slot.line;
        if slot.present {
            self.tags[idx].state = state;
            self.data[idx] = data;
            self.touch_line(idx);
            return;
        }
        let old_state = self.tags[idx].state;
        if old_state != LineState::Invalid {
            // Fills delivered by the coherence fabric consult the ordering
            // engine first (which commits or aborts), so an evicted line is
            // normally not speculative. The one remaining corner is a
            // victim-cache promotion displacing a line from a set whose ways
            // are all speculative; the line's data still follows the normal
            // eviction path, at the cost of losing its speculative marking —
            // a conservative, very rare approximation (PAPER.md, "Modelling
            // approximations").
            let old_block = self.block_of_line(idx);
            if let Some((block, state, data)) =
                self.victim.insert(old_block, old_state, self.data[idx])
            {
                self.pending.push(match state {
                    LineState::Modified => EvictionAction::WritebackDirty(block, data),
                    LineState::Exclusive => EvictionAction::WritebackClean(block),
                    _ => EvictionAction::Silent(block),
                });
            }
        }
        let tag = &mut self.tags[idx];
        tag.marks.clear();
        (tag.block, tag.state) = (slot.block.number(), state);
        self.data[idx] = data;
        self.touch_line(idx);
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
        self.find(block).map(|i| self.data[i].word(word_index))
    }

    /// Writes the word at `word_index` of a block held with write permission
    /// (Exclusive or Modified), marking the line Modified. Returns false if
    /// the block is not resident or only readable.
    pub fn write_word(&mut self, block: BlockAddr, word_index: usize, value: u64) -> bool {
        let Some(i) = self.find_writable(block) else { return false };
        self.data[i].set_word(word_index, value);
        self.tags[i].state = LineState::Modified;
        true
    }

    /// Merges the words of a drained store-buffer entry selected by
    /// `word_mask` into a block held with write permission, marking the line
    /// Modified and most-recently-used. Returns false if the block is not
    /// resident or only readable.
    pub fn merge_store(&mut self, block: BlockAddr, data: &BlockData, word_mask: u8) -> bool {
        let Some(i) = self.find_writable(block) else { return false };
        self.data[i].merge_masked(data, word_mask);
        self.tags[i].state = LineState::Modified;
        self.touch_line(i);
        true
    }

    /// Handles an external invalidation (a remote GetM). Returns the dirty
    /// data if this cache held the block Modified.
    pub fn external_invalidate(&mut self, block: BlockAddr) -> Option<BlockData> {
        let mut dirty = None;
        if let Some(i) = self.find(block) {
            if self.tags[i].state == LineState::Modified {
                dirty = Some(self.data[i]);
            }
            self.tags[i].state = LineState::Invalid;
            self.tags[i].marks.clear();
        }
        self.victim.invalidate(block).or(dirty)
    }

    /// Handles an external read (a remote GetS): downgrade to Shared. Returns
    /// the dirty data if this cache held the block Modified.
    pub fn external_downgrade(&mut self, block: BlockAddr) -> Option<BlockData> {
        let mut dirty = None;
        if let Some(i) = self.find(block) {
            let tag = &mut self.tags[i];
            if tag.state == LineState::Modified {
                dirty = Some(self.data[i]);
            }
            if tag.state.writable() {
                tag.state = LineState::Shared;
            }
        }
        dirty.or(self.victim.downgrade(block))
    }

    /// Performs the "cleaning" writeback InvisiFence uses before the first
    /// speculative store to a dirty block: the block's current data is written
    /// back to the next cache level but the line *stays resident*, transitioning
    /// Modified → Exclusive. Returns the data written back, or `None` if the
    /// block was not resident and Modified.
    pub fn clean_writeback(&mut self, block: BlockAddr) -> Option<BlockData> {
        let i = self.find(block).filter(|&i| self.tags[i].state == LineState::Modified)?;
        self.tags[i].state = LineState::Exclusive;
        let data = self.data[i];
        self.pending.push(EvictionAction::WritebackDirty(block, data));
        Some(data)
    }

    // ---- speculative access bits (Section 3.1) ------------------------------------------

    /// Sets `mark` on a present `block`. Returns false if absent.
    fn mark(&mut self, block: BlockAddr, mark: Mark) -> bool {
        let Some(i) = self.find(block) else { return false };
        self.logs.set(mark, &mut self.tags, i);
        true
    }

    /// Returns true if `block` is present with `mark` set.
    fn is_marked(&self, block: BlockAddr, mark: Mark) -> bool {
        self.find(block).is_some_and(|i| self.tags[i].marks.get(mark))
    }

    /// Marks `block` speculatively read in `epoch`. Returns false if absent.
    pub fn mark_spec_read(&mut self, block: BlockAddr, epoch: usize) -> bool {
        self.mark(block, Mark::read(epoch))
    }

    /// Marks `block` speculatively written in `epoch`. Returns false if absent.
    pub fn mark_spec_written(&mut self, block: BlockAddr, epoch: usize) -> bool {
        self.mark(block, Mark::written(epoch))
    }

    /// Returns true if `block` is marked speculatively read in `epoch`.
    pub fn is_spec_read(&self, block: BlockAddr, epoch: usize) -> bool {
        self.is_marked(block, Mark::read(epoch))
    }

    /// Returns true if `block` is marked speculatively written in `epoch`.
    pub fn is_spec_written(&self, block: BlockAddr, epoch: usize) -> bool {
        self.is_marked(block, Mark::written(epoch))
    }

    /// Returns true if `block` carries any speculative mark in any epoch.
    pub fn is_spec_any(&self, block: BlockAddr) -> bool {
        self.find(block).is_some_and(|i| self.tags[i].marks.any())
    }

    /// Flash-clears both the read and written bits of `epoch` (the
    /// single-cycle commit operation).
    pub fn flash_clear_epoch(&mut self, epoch: usize) {
        self.logs.flash_clear(Mark::read(epoch), &mut self.tags);
        self.logs.flash_clear(Mark::written(epoch), &mut self.tags);
    }

    /// Conditionally flash-invalidates every line whose speculatively-written
    /// bit is set in `epoch` (the single-cycle abort operation), returning the
    /// invalidated blocks in the order they were first marked. The epoch's
    /// read/written bits are also cleared.
    pub fn flash_invalidate_written(&mut self, epoch: usize) -> Vec<BlockAddr> {
        let written: Vec<usize> = self.logs.iter_set(Mark::written(epoch), &self.tags).collect();
        let mut out = Vec::with_capacity(written.len());
        for idx in written {
            if self.tags[idx].state != LineState::Invalid {
                out.push(self.block_of_line(idx));
                self.tags[idx].state = LineState::Invalid;
            }
        }
        self.flash_clear_epoch(epoch);
        out
    }

    /// Number of lines carrying a speculative mark in `epoch`: the union of
    /// the read and written logs, counted without allocating (each log lists
    /// a line at most once).
    pub fn spec_line_count(&self, epoch: usize) -> usize {
        let (read, written) = (Mark::read(epoch), Mark::written(epoch));
        let read_count = self.logs.iter_set(read, &self.tags).count();
        let written_only =
            self.logs.iter_set(written, &self.tags).filter(|&i| !self.tags[i].marks.get(read));
        read_count + written_only.count()
    }

    /// Returns true if any line carries a speculative mark in any epoch.
    pub fn has_spec_lines(&self) -> bool {
        (0..MAX_EPOCHS).any(|e| {
            self.logs.iter_set(Mark::read(e), &self.tags).next().is_some()
                || self.logs.iter_set(Mark::written(e), &self.tags).next().is_some()
        })
    }

    /// Iterates over the valid blocks of the main array and their states
    /// (diagnostics/tests).
    pub fn iter_valid(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        (0..self.tags.len()).filter_map(move |i| {
            if self.tags[i].state != LineState::Invalid {
                Some((self.block_of_line(i), self.tags[i].state))
            } else {
                None
            }
        })
    }

    /// Number of valid lines in the main array.
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|t| t.state != LineState::Invalid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 4 sets x 2 ways x 64-byte blocks = 512 bytes.
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

    /// The `cfg()` geometry without a victim cache, so every displaced line
    /// goes straight to the writeback queue.
    fn small_cache() -> L1Cache {
        L1Cache::new(&CacheConfig { victim_entries: 0, ..cfg() })
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    /// Fills `block` into an L1 without a victim cache and returns the line
    /// the fill displaced, if any.
    fn fill_evicting(
        c: &mut L1Cache,
        block: BlockAddr,
        state: LineState,
        data: BlockData,
    ) -> Option<EvictionAction> {
        c.fill(block, state, data);
        let mut evicted = c.drain_writebacks();
        let first = evicted.next();
        assert!(evicted.next().is_none(), "one fill displaces at most one line");
        first
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
    fn lru_eviction_prefers_least_recently_used() {
        let mut c = small_cache();
        // Three blocks mapping to the same set (4 sets => stride 4*64 = 256).
        let a = blk(0x000);
        let b = blk(0x100);
        let d = blk(0x200);
        c.fill(a, LineState::Shared, BlockData::zeroed());
        c.fill(b, LineState::Shared, BlockData::zeroed());
        c.lookup(a); // b is now LRU
        let evicted = fill_evicting(&mut c, d, LineState::Shared, BlockData::zeroed()).unwrap();
        assert_eq!(evicted.block(), b);
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
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

    #[test]
    fn data_read_write() {
        let mut c = small_cache();
        let b = blk(0x40);
        c.fill(b, LineState::Exclusive, BlockData::zeroed());
        assert!(c.write_word(b, 2, 99));
        assert_eq!(c.read_word(b, 2), Some(99));
        assert_eq!(c.peek(b), LineState::Modified, "a write dirties the line");
        assert_eq!(c.read_word(blk(0x2000), 0), None);
        assert!(!c.write_word(blk(0x2000), 0, 1));
        let s = blk(0x80);
        c.fill(s, LineState::Shared, BlockData::zeroed());
        assert!(!c.write_word(s, 0, 1), "a shared line is not writable");
    }

    #[test]
    fn write_word_requires_write_permission() {
        let mut l1 = L1Cache::new(&cfg());
        l1.fill(blk(0x40), LineState::Shared, BlockData::zeroed());
        assert!(!l1.write_word(blk(0x40), 0, 5));
        l1.fill(blk(0x40), LineState::Exclusive, BlockData::zeroed());
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
    fn downgrade_returns_dirty_data_only_when_modified() {
        let mut c = small_cache();
        let b = blk(0x80);
        c.fill(b, LineState::Modified, BlockData::from_words([7; 8]));
        let wb = c.external_downgrade(b).expect("modified line must yield writeback data");
        assert_eq!(wb.word(0), 7);
        assert_eq!(c.peek(b), LineState::Shared);

        let e = blk(0xc0);
        c.fill(e, LineState::Exclusive, BlockData::zeroed());
        assert!(c.external_downgrade(e).is_none());
        assert_eq!(c.peek(e), LineState::Shared);
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
    fn flash_invalidate_written_discards_only_written_lines() {
        let mut c = small_cache();
        let written = blk(0x40);
        let read_only = blk(0x80);
        c.fill(written, LineState::Modified, BlockData::zeroed());
        c.fill(read_only, LineState::Shared, BlockData::zeroed());
        c.mark_spec_written(written, 0);
        c.mark_spec_read(read_only, 0);
        let gone = c.flash_invalidate_written(0);
        assert_eq!(gone, vec![written]);
        assert_eq!(c.peek(written), LineState::Invalid);
        assert_eq!(c.peek(read_only), LineState::Shared);
        assert!(!c.has_spec_lines());
    }

    #[test]
    fn eviction_clears_spec_bits_of_the_slot() {
        let mut c = small_cache();
        let a = blk(0x000);
        let b = blk(0x100);
        let d = blk(0x200);
        c.fill(a, LineState::Shared, BlockData::zeroed());
        c.mark_spec_read(a, 0);
        c.fill(b, LineState::Shared, BlockData::zeroed());
        c.mark_spec_read(b, 0);
        c.lookup(b);
        // Both ways are speculative, so replacement falls back to LRU and
        // evicts `a`; its slot is reused by `d`, which must not inherit a's
        // speculative marks.
        let ev = fill_evicting(&mut c, d, LineState::Shared, BlockData::zeroed()).unwrap();
        assert_eq!(ev.block(), a);
        assert!(!c.is_spec_any(d));
    }

    #[test]
    fn invalidate_returns_line_and_clears_spec() {
        let mut c = small_cache();
        let b = blk(0x140);
        c.fill(b, LineState::Modified, BlockData::from_words([3; 8]));
        c.mark_spec_written(b, 0);
        let dirty = c.external_invalidate(b).expect("a Modified line returns its data");
        assert_eq!(dirty.word(0), 3);
        assert_eq!(c.peek(b), LineState::Invalid);
        assert!(c.external_invalidate(b).is_none());
        assert!(!c.has_spec_lines());
    }

    /// A probe, a victim choice and a speculative check read one tag; it
    /// must stay a quarter of a host cache line.
    #[test]
    fn tags_fit_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Tag>(), 16);
    }

    /// Renumbering the 32-bit LRU stamps when the counter would wrap keeps
    /// every victim choice: a cache whose counter is pushed to the limit
    /// again and again evicts exactly what a 64-bit-stamp reference does.
    #[test]
    fn lru_renumbering_keeps_the_victim_sequence() {
        let mut c = small_cache();
        // The reference: per resident block, its set and a 64-bit stamp.
        let mut model: Vec<(BlockAddr, u64)> = Vec::new();
        let mut stamp = 0u64;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut renumbered = 0;
        for step in 0..4_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if step % 97 == 0 {
                c.start_stamps_at(u32::MAX - (rng % 5) as u32);
                renumbered += 1;
            }
            let b = blk((rng % 16) * 64);
            stamp += 1;
            if rng % 3 == 0 {
                let hit = c.lookup(b) != LineState::Invalid;
                assert_eq!(hit, model.iter().any(|m| m.0 == b), "step {step}");
                if let Some(m) = model.iter_mut().find(|m| m.0 == b) {
                    m.1 = stamp;
                }
                continue;
            }
            let evicted =
                fill_evicting(&mut c, b, LineState::Shared, BlockData::zeroed()).map(|e| e.block());
            let set = |x: BlockAddr| x.number() % 4;
            let expected = if model.iter().any(|m| m.0 == b) {
                None
            } else {
                let ways: Vec<_> = model.iter().filter(|m| set(m.0) == set(b)).collect();
                (ways.len() == 2).then(|| ways.iter().min_by_key(|m| m.1).unwrap().0)
            };
            assert_eq!(evicted, expected, "step {step}");
            model.retain(|m| Some(m.0) != evicted && m.0 != b);
            model.push((b, stamp));
        }
        assert!(renumbered > 40, "the counter wrapped {renumbered} times");
    }

    #[test]
    fn iter_valid_lists_resident_blocks() {
        let mut c = small_cache();
        c.fill(blk(0x00), LineState::Shared, BlockData::zeroed());
        c.fill(blk(0x40), LineState::Modified, BlockData::zeroed());
        let blocks: Vec<_> = c.iter_valid().map(|(b, _)| b).collect();
        assert_eq!(blocks.len(), 2);
        assert!(blocks.contains(&blk(0x00)));
        assert!(blocks.contains(&blk(0x40)));
    }
}
