//! Set-associative cache with per-line speculative access bits.

use crate::line::{BlockData, LineState};
use crate::spec_bits::{Mark, MarkLogs, Marks};
use ifence_types::{Addr, BlockAddr, CacheConfig};

/// Maximum number of in-flight speculation epochs (checkpoints) whose access
/// bits the cache can track — the paper's optional second checkpoint
/// (Section 3.1) means two.
pub const MAX_EPOCHS: usize = 2;

/// A line evicted or invalidated from the cache, returned to the caller so a
/// dirty block can be written back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The block that left the cache.
    pub block: BlockAddr,
    /// Its coherence state at the time.
    pub state: LineState,
    /// Its data payload (meaningful when `state` was Modified).
    pub data: BlockData,
}

/// Where a fill of one block lands: the line already holding it, or the way
/// it displaces. Chosen by [`SetAssocCache::fill_slot`] and valid until the
/// cache next changes, so a caller that must inspect the victim before the
/// fill (InvisiFence's speculative-eviction check) chooses it only once.
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

/// The index of the first element of `v` that starts a 64-byte host cache
/// line (0 if none of the first line's elements does). Tag arrays are
/// allocated `64 / size_of::<T>() - 1` elements long and laid out from this
/// index, so a set of 64 bytes or a divisor of it never straddles two host
/// lines.
pub(crate) fn first_line_aligned<T>(v: &[T]) -> usize {
    let (addr, size) = (v.as_ptr() as usize, std::mem::size_of::<T>());
    (0..64 / size).find(|k| (addr + k * size) % 64 == 0).unwrap_or(0)
}

/// A divisor fixed at construction: a mask and a shift when it is a power of
/// two, a hardware divide otherwise. Set and bank selection run on every
/// cache probe, and every paper geometry is a power of two.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    n: u64,
    shift: u32,
    pow2: bool,
}

impl Divisor {
    /// # Panics
    /// Panics if `n` is zero.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "divisor must be non-zero");
        Divisor { n: n as u64, shift: n.trailing_zeros(), pow2: n.is_power_of_two() }
    }

    /// `n` itself.
    pub(crate) fn value(self) -> usize {
        self.n as usize
    }

    /// `x % n`.
    #[inline]
    pub(crate) fn rem(self, x: u64) -> usize {
        (if self.pow2 { x & (self.n - 1) } else { x % self.n }) as usize
    }

    /// `x / n`.
    #[inline]
    pub(crate) fn div(self, x: u64) -> u64 {
        if self.pow2 {
            x >> self.shift
        } else {
            x / self.n
        }
    }
}

/// A set-associative, write-back cache with LRU replacement and
/// speculatively-read / speculatively-written bits per line.
///
/// Every access probes the set once, over a dense tag array; payloads live
/// in a parallel data array touched only on a hit.
///
/// # Example
/// ```
/// use ifence_mem::{SetAssocCache, LineState, BlockData};
/// use ifence_types::{Addr, BlockAddr, CacheConfig};
/// let cfg = CacheConfig::paper_l1d();
/// let mut cache = SetAssocCache::new(&cfg);
/// let b = BlockAddr::containing(Addr::new(0x2000), cfg.block_bytes);
/// cache.fill(b, LineState::Shared, BlockData::zeroed());
/// assert!(cache.state(b).readable());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Divisor,
    assoc: usize,
    block_bytes: usize,
    /// Tags and payloads, line `i` of the cache at index `first + i` of both
    /// (see [`first_line_aligned`]); the padding lines stay invalid.
    tags: Vec<Tag>,
    data: Vec<BlockData>,
    first: usize,
    /// The last LRU stamp handed out; see [`SetAssocCache::touch_line`].
    stamp: u32,
    logs: MarkLogs,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    /// Panics if the configuration yields zero sets or zero ways.
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.associativity;
        assert!(sets > 0 && assoc > 0, "cache must have at least one set and one way");
        let total = sets * assoc + 64 / std::mem::size_of::<Tag>() - 1;
        let tags = vec![Tag::default(); total];
        SetAssocCache {
            sets: Divisor::new(sets),
            assoc,
            block_bytes: config.block_bytes,
            first: first_line_aligned(&tags),
            tags,
            data: vec![BlockData::default(); total],
            stamp: 0,
            logs: MarkLogs::default(),
        }
    }

    /// The block size in bytes this cache was configured with.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// First line index of the set `block` maps to.
    fn set_base(&self, block: BlockAddr) -> usize {
        self.first + self.sets.rem(block.number()) * self.assoc
    }

    fn block_of_line(&self, idx: usize) -> BlockAddr {
        let number = self.tags[idx].block;
        BlockAddr::containing(Addr::new(number * self.block_bytes as u64), self.block_bytes)
    }

    /// Finds the line index holding `block`, if present: one probe of the
    /// set's tags.
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

    /// Returns the coherence state of `block` (Invalid if absent).
    pub fn state(&self, block: BlockAddr) -> LineState {
        self.find(block).map(|i| self.tags[i].state).unwrap_or(LineState::Invalid)
    }

    /// Returns the coherence state of `block` (Invalid if absent) and marks a
    /// present block most-recently-used, in one probe.
    pub fn state_touch(&mut self, block: BlockAddr) -> LineState {
        match self.find(block) {
            Some(i) => {
                self.touch_line(i);
                self.tags[i].state
            }
            None => LineState::Invalid,
        }
    }

    /// Returns true if the block is present (any valid state).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Reads the word at `word_index` of `block`, if the block is present.
    pub fn read_word(&self, block: BlockAddr, word_index: usize) -> Option<u64> {
        self.find(block).map(|i| self.data[i].word(word_index))
    }

    /// Reads the word at `word_index` of `block` and marks a present block
    /// most-recently-used, in one probe.
    pub fn read_word_touch(&mut self, block: BlockAddr, word_index: usize) -> Option<u64> {
        let i = self.find(block)?;
        self.touch_line(i);
        Some(self.data[i].word(word_index))
    }

    /// Writes the word at `word_index` of a block held with write permission
    /// (Exclusive or Modified) and marks the line Modified. Returns false if
    /// the block is absent or only readable.
    pub fn write_owned(&mut self, block: BlockAddr, word_index: usize, value: u64) -> bool {
        match self.find_writable(block) {
            Some(i) => {
                self.data[i].set_word(word_index, value);
                self.tags[i].state = LineState::Modified;
                true
            }
            None => false,
        }
    }

    /// Merges the words of `data` selected by `word_mask` into a block held
    /// with write permission, marking the line Modified and
    /// most-recently-used. Returns false if the block is absent or only
    /// readable.
    pub fn merge_owned(&mut self, block: BlockAddr, data: &BlockData, word_mask: u8) -> bool {
        match self.find_writable(block) {
            Some(i) => {
                self.data[i].merge_masked(data, word_mask);
                self.tags[i].state = LineState::Modified;
                self.touch_line(i);
                true
            }
            None => false,
        }
    }

    /// Cleans a Modified block in place (Modified → Exclusive), returning the
    /// data to write back. Returns `None` unless the block is present and
    /// Modified.
    pub(crate) fn clean(&mut self, block: BlockAddr) -> Option<BlockData> {
        let i = self.find(block).filter(|&i| self.tags[i].state == LineState::Modified)?;
        self.tags[i].state = LineState::Exclusive;
        Some(self.data[i])
    }

    /// Returns a copy of the block's data, if present.
    pub fn data(&self, block: BlockAddr) -> Option<BlockData> {
        self.find(block).map(|i| self.data[i])
    }

    /// Sets the coherence state of a present block. Returns false if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        match self.find(block) {
            Some(i) => {
                self.tags[i].state = state;
                true
            }
            None => false,
        }
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

    /// Chooses where filling `block` puts it: the line holding it if
    /// present, otherwise the victim way.
    pub fn fill_slot(&self, block: BlockAddr) -> FillSlot {
        match self.find(block) {
            Some(line) => FillSlot { block, line, present: true },
            None => FillSlot { block, line: self.victim_way(self.set_base(block)), present: false },
        }
    }

    /// Returns true if filling at `slot` displaces a speculatively-accessed
    /// line: InvisiFence must commit or abort before such a line would
    /// escape the cache.
    pub fn slot_evicts_spec(&self, slot: FillSlot) -> bool {
        let tag = self.tags[slot.line];
        !slot.present && tag.state != LineState::Invalid && tag.marks.any()
    }

    /// The line at `idx` as it leaves the cache.
    fn evicted_line(&self, idx: usize, block: BlockAddr) -> EvictedLine {
        EvictedLine { block, state: self.tags[idx].state, data: self.data[idx] }
    }

    /// Installs `block` with the given state and data, returning the evicted
    /// line if a valid line had to be displaced. If the block is already
    /// present only its state and data are updated.
    pub fn fill(
        &mut self,
        block: BlockAddr,
        state: LineState,
        data: BlockData,
    ) -> Option<EvictedLine> {
        self.fill_at(self.fill_slot(block), state, data)
    }

    /// [`SetAssocCache::fill`] into a slot chosen by
    /// [`SetAssocCache::fill_slot`] since the cache last changed.
    pub fn fill_at(
        &mut self,
        slot: FillSlot,
        state: LineState,
        data: BlockData,
    ) -> Option<EvictedLine> {
        debug_assert_eq!(slot, self.fill_slot(slot.block), "fill slot is stale");
        let idx = slot.line;
        if slot.present {
            self.tags[idx].state = state;
            self.data[idx] = data;
            self.touch_line(idx);
            return None;
        }
        let evicted = if self.tags[idx].state != LineState::Invalid {
            Some(self.evicted_line(idx, self.block_of_line(idx)))
        } else {
            None
        };
        let tag = &mut self.tags[idx];
        tag.marks.clear();
        (tag.block, tag.state) = (slot.block.number(), state);
        self.data[idx] = data;
        self.touch_line(idx);
        evicted
    }

    /// Removes `block` from the cache (external invalidation, speculative
    /// rollback, or replacement by the caller's policy). Returns the removed
    /// line, if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<EvictedLine> {
        let idx = self.find(block)?;
        let evicted = self.evicted_line(idx, block);
        self.tags[idx].state = LineState::Invalid;
        self.tags[idx].marks.clear();
        Some(evicted)
    }

    /// Downgrades `block` from an exclusive state to Shared (external read
    /// request). Returns the dirty data if the line was Modified (it must be
    /// written back), or `None` otherwise.
    pub fn downgrade(&mut self, block: BlockAddr) -> Option<BlockData> {
        let idx = self.find(block)?;
        let was_modified = self.tags[idx].state == LineState::Modified;
        if self.tags[idx].state.writable() {
            self.tags[idx].state = LineState::Shared;
        }
        if was_modified {
            Some(self.data[idx])
        } else {
            None
        }
    }

    // ---- speculative access bits (Section 3.1) ------------------------------------------

    /// Sets `mark` on a present `block`. Returns false if absent.
    fn mark(&mut self, block: BlockAddr, mark: Mark) -> bool {
        match self.find(block) {
            Some(i) => {
                self.logs.set(mark, &mut self.tags, i);
                true
            }
            None => false,
        }
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

    /// Iterates over all valid blocks and their states (diagnostics/tests).
    pub fn iter_valid(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        (0..self.tags.len()).filter_map(move |i| {
            if self.tags[i].state != LineState::Invalid {
                Some((self.block_of_line(i), self.tags[i].state))
            } else {
                None
            }
        })
    }

    /// Number of valid lines.
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|t| t.state != LineState::Invalid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 2 ways x 64-byte blocks = 512 bytes.
        let cfg = CacheConfig {
            size_bytes: 512,
            associativity: 2,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 8,
            victim_entries: 0,
        };
        SetAssocCache::new(&cfg)
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn fill_and_lookup() {
        let mut c = small_cache();
        assert_eq!(c.state(blk(0x1000)), LineState::Invalid);
        assert!(c.fill(blk(0x1000), LineState::Shared, BlockData::zeroed()).is_none());
        assert_eq!(c.state(blk(0x1000)), LineState::Shared);
        assert!(c.contains(blk(0x1000)));
        assert_eq!(c.valid_lines(), 1);
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
        c.state_touch(a); // b is now LRU
        let evicted = c.fill(d, LineState::Shared, BlockData::zeroed()).unwrap();
        assert_eq!(evicted.block, b);
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn would_evict_reports_spec_victims() {
        // The line a fill of `block` displaces, and whether its slot reports
        // a speculative victim.
        let victim = |c: &SetAssocCache, block: BlockAddr| {
            let slot = c.fill_slot(block);
            let spec = c.slot_evicts_spec(slot);
            let evicted = c.clone().fill_at(slot, LineState::Shared, BlockData::zeroed());
            evicted.map(|e| (e.block, spec))
        };
        let mut c = small_cache();
        let a = blk(0x000);
        let b = blk(0x100);
        let d = blk(0x200);
        c.fill(a, LineState::Modified, BlockData::zeroed());
        assert!(victim(&c, b).is_none(), "invalid way available");
        c.fill(b, LineState::Shared, BlockData::zeroed());
        c.mark_spec_written(a, 0);
        c.state_touch(b);
        // Replacement avoids speculative lines: even though `a` is LRU, the
        // non-speculative `b` is chosen as the victim.
        assert_eq!(victim(&c, d), Some((b, false)));
        // Only when every way is speculative does a speculative line become
        // the victim, and the caller is told so.
        c.mark_spec_read(b, 0);
        assert_eq!(victim(&c, d), Some((a, true)), "falls back to plain LRU");
        assert!(victim(&c, a).is_none(), "present blocks need no eviction");
    }

    #[test]
    fn data_read_write() {
        let mut c = small_cache();
        let b = blk(0x40);
        c.fill(b, LineState::Exclusive, BlockData::zeroed());
        assert!(c.write_owned(b, 2, 99));
        assert_eq!(c.read_word(b, 2), Some(99));
        assert_eq!(c.state(b), LineState::Modified, "a write dirties the line");
        assert_eq!(c.read_word(blk(0x2000), 0), None);
        assert!(!c.write_owned(blk(0x2000), 0, 1));
        let s = blk(0x80);
        c.fill(s, LineState::Shared, BlockData::zeroed());
        assert!(!c.write_owned(s, 0, 1), "a shared line is not writable");
    }

    #[test]
    fn downgrade_returns_dirty_data_only_when_modified() {
        let mut c = small_cache();
        let b = blk(0x80);
        c.fill(b, LineState::Modified, BlockData::from_words([7; 8]));
        let wb = c.downgrade(b).expect("modified line must yield writeback data");
        assert_eq!(wb.word(0), 7);
        assert_eq!(c.state(b), LineState::Shared);

        let e = blk(0xc0);
        c.fill(e, LineState::Exclusive, BlockData::zeroed());
        assert!(c.downgrade(e).is_none());
        assert_eq!(c.state(e), LineState::Shared);
    }

    #[test]
    fn spec_bits_track_reads_and_writes_per_epoch() {
        let mut c = small_cache();
        let b = blk(0x40);
        c.fill(b, LineState::Exclusive, BlockData::zeroed());
        assert!(c.mark_spec_read(b, 0));
        assert!(c.mark_spec_written(b, 1));
        assert!(c.is_spec_read(b, 0));
        assert!(!c.is_spec_read(b, 1));
        assert!(c.is_spec_written(b, 1));
        assert!(c.is_spec_any(b));
        assert_eq!(c.spec_line_count(0), 1);
        assert_eq!(c.spec_line_count(1), 1);
        assert!(c.mark_spec_written(b, 0));
        assert_eq!(c.spec_line_count(0), 1, "a read and written line counts once");
        c.flash_clear_epoch(0);
        assert!(!c.is_spec_read(b, 0));
        assert!(c.is_spec_written(b, 1), "other epoch untouched");
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
        assert_eq!(c.state(written), LineState::Invalid);
        assert_eq!(c.state(read_only), LineState::Shared);
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
        c.state_touch(b);
        // Both ways are speculative, so replacement falls back to LRU and
        // evicts `a`; its slot is reused by `d`, which must not inherit a's
        // speculative marks.
        let ev = c.fill(d, LineState::Shared, BlockData::zeroed()).unwrap();
        assert_eq!(ev.block, a);
        assert!(!c.is_spec_any(d));
    }

    #[test]
    fn invalidate_returns_line_and_clears_spec() {
        let mut c = small_cache();
        let b = blk(0x140);
        c.fill(b, LineState::Modified, BlockData::from_words([3; 8]));
        c.mark_spec_written(b, 0);
        let ev = c.invalidate(b).unwrap();
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(c.state(b), LineState::Invalid);
        assert!(c.invalidate(b).is_none());
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
                let hit = c.state_touch(b) != LineState::Invalid;
                assert_eq!(hit, model.iter().any(|m| m.0 == b), "step {step}");
                if let Some(m) = model.iter_mut().find(|m| m.0 == b) {
                    m.1 = stamp;
                }
                continue;
            }
            let evicted = c.fill(b, LineState::Shared, BlockData::zeroed()).map(|e| e.block);
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
