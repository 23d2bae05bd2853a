//! Set-associative cache with per-line speculative access bits.

use crate::line::{BlockData, LineState};
use crate::spec_bits::SpecBitArray;
use ifence_types::{Addr, BlockAddr, CacheConfig};

/// Maximum number of in-flight speculation epochs (checkpoints) whose access
/// bits the cache can track — the paper's optional second checkpoint
/// (Section 3.1) means two.
pub const MAX_EPOCHS: usize = 2;

/// A line evicted or invalidated from the cache, returned to the caller so a
/// dirty block can be written back and speculative-eviction invariants can be
/// checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The block that left the cache.
    pub block: BlockAddr,
    /// Its coherence state at the time.
    pub state: LineState,
    /// Its data payload (meaningful when `state` was Modified).
    pub data: BlockData,
    /// Whether any epoch had marked the line speculatively read.
    pub spec_read: bool,
    /// Whether any epoch had marked the line speculatively written.
    pub spec_written: bool,
}

/// The tag half of a line: block number and coherence state. Tags sit in
/// their own array, apart from the 64-byte payloads, so a set probe strides
/// over 16-byte entries.
#[derive(Debug, Clone, Copy, Default)]
struct Tag {
    block: u64,
    state: LineState,
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
    tags: Vec<Tag>,
    data: Vec<BlockData>,
    lru_stamp: Vec<u64>,
    stamp: u64,
    spec_read: [SpecBitArray; MAX_EPOCHS],
    spec_written: [SpecBitArray; MAX_EPOCHS],
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
        let total = sets * assoc;
        SetAssocCache {
            sets: Divisor::new(sets),
            assoc,
            block_bytes: config.block_bytes,
            tags: vec![Tag::default(); total],
            data: vec![BlockData::default(); total],
            lru_stamp: vec![0; total],
            stamp: 0,
            spec_read: [SpecBitArray::new(total), SpecBitArray::new(total)],
            spec_written: [SpecBitArray::new(total), SpecBitArray::new(total)],
        }
    }

    /// The block size in bytes this cache was configured with.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// First line index of the set `block` maps to.
    fn set_base(&self, block: BlockAddr) -> usize {
        self.sets.rem(block.number()) * self.assoc
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

    fn touch_line(&mut self, idx: usize) {
        self.stamp += 1;
        self.lru_stamp[idx] = self.stamp;
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
        let range = base..base + self.assoc;
        // Prefer an invalid way; otherwise the least-recently-used way that
        // carries no speculative marks (speculatively-accessed blocks must not
        // escape the cache); only if every way is speculative fall back to
        // plain LRU (the ordering engine is then responsible for committing or
        // aborting before the fill).
        for i in range.clone() {
            if self.tags[i].state == LineState::Invalid {
                return i;
            }
        }
        range
            .clone()
            .filter(|&i| !self.line_is_spec(i))
            .min_by_key(|&i| self.lru_stamp[i])
            .unwrap_or_else(|| {
                range.min_by_key(|&i| self.lru_stamp[i]).expect("set has at least one way")
            })
    }

    /// Returns the line that filling `block` would evict: `None` if the block
    /// is already present or an invalid way is available, otherwise the victim
    /// block and whether it is speculatively accessed. InvisiFence uses this
    /// to force a commit before a speculatively-accessed block would escape
    /// the cache.
    pub fn would_evict(&self, block: BlockAddr) -> Option<(BlockAddr, bool)> {
        if self.find(block).is_some() {
            return None;
        }
        let victim = self.victim_way(self.set_base(block));
        if self.tags[victim].state == LineState::Invalid {
            return None;
        }
        let vblock = self.block_of_line(victim);
        Some((vblock, self.line_is_spec(victim)))
    }

    fn line_is_spec(&self, idx: usize) -> bool {
        (0..MAX_EPOCHS).any(|e| self.spec_read[e].get(idx) || self.spec_written[e].get(idx))
    }

    fn clear_line_spec(&mut self, idx: usize) {
        for e in 0..MAX_EPOCHS {
            self.spec_read[e].clear(idx);
            self.spec_written[e].clear(idx);
        }
    }

    /// The line at `idx` as it leaves the cache.
    fn evicted_line(&self, idx: usize, block: BlockAddr) -> EvictedLine {
        EvictedLine {
            block,
            state: self.tags[idx].state,
            data: self.data[idx],
            spec_read: (0..MAX_EPOCHS).any(|e| self.spec_read[e].get(idx)),
            spec_written: (0..MAX_EPOCHS).any(|e| self.spec_written[e].get(idx)),
        }
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
        if let Some(i) = self.find(block) {
            self.tags[i].state = state;
            self.data[i] = data;
            self.touch_line(i);
            return None;
        }
        let idx = self.victim_way(self.set_base(block));
        let evicted = if self.tags[idx].state != LineState::Invalid {
            Some(self.evicted_line(idx, self.block_of_line(idx)))
        } else {
            None
        };
        self.clear_line_spec(idx);
        self.tags[idx] = Tag { block: block.number(), state };
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
        self.clear_line_spec(idx);
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

    /// Marks `block` speculatively read in `epoch`. Returns false if absent.
    pub fn mark_spec_read(&mut self, block: BlockAddr, epoch: usize) -> bool {
        match self.find(block) {
            Some(i) => {
                self.spec_read[epoch].set(i);
                true
            }
            None => false,
        }
    }

    /// Marks `block` speculatively written in `epoch`. Returns false if absent.
    pub fn mark_spec_written(&mut self, block: BlockAddr, epoch: usize) -> bool {
        match self.find(block) {
            Some(i) => {
                self.spec_written[epoch].set(i);
                true
            }
            None => false,
        }
    }

    /// Returns true if `block` is marked speculatively read in `epoch`.
    pub fn is_spec_read(&self, block: BlockAddr, epoch: usize) -> bool {
        self.find(block).map(|i| self.spec_read[epoch].get(i)).unwrap_or(false)
    }

    /// Returns true if `block` is marked speculatively written in `epoch`.
    pub fn is_spec_written(&self, block: BlockAddr, epoch: usize) -> bool {
        self.find(block).map(|i| self.spec_written[epoch].get(i)).unwrap_or(false)
    }

    /// Returns true if `block` carries any speculative mark in any epoch.
    pub fn is_spec_any(&self, block: BlockAddr) -> bool {
        self.find(block).map(|i| self.line_is_spec(i)).unwrap_or(false)
    }

    /// Flash-clears both the read and written bits of `epoch` (the
    /// single-cycle commit operation).
    pub fn flash_clear_epoch(&mut self, epoch: usize) {
        self.spec_read[epoch].flash_clear();
        self.spec_written[epoch].flash_clear();
    }

    /// Conditionally flash-invalidates every line whose speculatively-written
    /// bit is set in `epoch` (the single-cycle abort operation), returning the
    /// invalidated blocks. The epoch's read/written bits are also cleared.
    pub fn flash_invalidate_written(&mut self, epoch: usize) -> Vec<BlockAddr> {
        let written: Vec<usize> = self.spec_written[epoch].iter_set().collect();
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
        let read = &self.spec_read[epoch];
        let written_only = self.spec_written[epoch].iter_set().filter(|&i| !read.get(i)).count();
        read.count_set() + written_only
    }

    /// Returns true if any line carries a speculative mark in any epoch.
    pub fn has_spec_lines(&self) -> bool {
        (0..MAX_EPOCHS).any(|e| !self.spec_read[e].none_set() || !self.spec_written[e].none_set())
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
            ports: 3,
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
        let mut c = small_cache();
        let a = blk(0x000);
        let b = blk(0x100);
        let d = blk(0x200);
        c.fill(a, LineState::Modified, BlockData::zeroed());
        assert!(c.would_evict(b).is_none(), "invalid way available");
        c.fill(b, LineState::Shared, BlockData::zeroed());
        c.mark_spec_written(a, 0);
        c.state_touch(b);
        // Replacement avoids speculative lines: even though `a` is LRU, the
        // non-speculative `b` is chosen as the victim.
        let (victim, spec) = c.would_evict(d).unwrap();
        assert_eq!(victim, b);
        assert!(!spec);
        // Only when every way is speculative does a speculative line become
        // the victim, and the caller is told so.
        c.mark_spec_read(b, 0);
        let (victim, spec) = c.would_evict(d).unwrap();
        assert_eq!(victim, a, "falls back to plain LRU");
        assert!(spec);
        assert!(c.would_evict(a).is_none(), "present blocks need no eviction");
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
        assert!(ev.spec_read);
        assert!(!c.is_spec_any(d));
    }

    #[test]
    fn invalidate_returns_line_and_clears_spec() {
        let mut c = small_cache();
        let b = blk(0x140);
        c.fill(b, LineState::Modified, BlockData::from_words([3; 8]));
        c.mark_spec_written(b, 0);
        let ev = c.invalidate(b).unwrap();
        assert!(ev.spec_written);
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(c.state(b), LineState::Invalid);
        assert!(c.invalidate(b).is_none());
        assert!(!c.has_spec_lines());
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
