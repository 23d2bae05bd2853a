//! The shared, banked, address-interleaved L2 with an embedded per-line
//! directory payload.
//!
//! The L2 is split into one bank per node (a block's bank is its home node:
//! `block % banks`, matching the directory interleaving), and each bank is a
//! set-associative array. Each resident line carries, alongside its tag and
//! data, a caller-supplied directory payload `D` — this is how the coherence
//! fabric embeds sharer/owner state directly in the L2 tags instead of
//! keeping a free-floating directory map. The hierarchy is *inclusive*:
//! every L1-resident block must be L2-resident, so evicting a line whose
//! payload still records L1 holders is not allowed here — the fill reports
//! [`L2FillOutcome::NeedsRecall`] and the caller must first recall
//! (invalidate) the holders, then retry.
//!
//! Lines involved in an in-flight coherence transaction are marked `busy`
//! (pinned): they are never chosen as victims, so directory state cannot
//! vanish mid-transaction.
//!
//! A resident line never moves: a fill takes an empty way or replaces its
//! victim in place, and a removal leaves an empty way. So the [`L2Handle`] a
//! probe or fill returns stays valid until the line leaves, and a coherence
//! transaction probes the tags once and reaches its line through the handle
//! from then on.
//!
//! A capacity of 0 is the *unbounded* sentinel: every fill succeeds and
//! nothing is ever evicted. This reproduces the pre-capacity fabric exactly
//! and serves as the "infinite" endpoint of capacity sweeps.

use crate::cache::{first_line_aligned, Divisor};
use crate::line::BlockData;
use ifence_types::{FnvMap, L2Config};

/// One resident L2 line: data plus the embedded directory payload.
#[derive(Debug, Clone, Copy)]
pub struct L2Line<D> {
    /// Block contents as last written to the L2.
    pub data: BlockData,
    /// True when the L2 copy is newer than DRAM (must be written back on
    /// eviction).
    pub dirty: bool,
    /// True while a coherence transaction for this block is in flight; busy
    /// lines are pinned (never selected as victims).
    pub busy: bool,
    /// The embedded directory payload (sharers/owner as tracked by the home
    /// node).
    pub dir: D,
    lru: u64,
}

/// A line evicted from the L2, returned so the caller can write dirty data
/// back to DRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Evicted<D> {
    /// The evicted block's number.
    pub block: u64,
    /// Its data at eviction time.
    pub data: BlockData,
    /// Whether the data must be written back to DRAM.
    pub dirty: bool,
    /// Its directory payload at eviction time.
    pub dir: D,
}

/// Where a resident line sits: returned by [`BankedL2::probe`] and
/// [`BankedL2::fill`], and valid until the line leaves the L2 (lines never
/// move while resident). In the unbounded store it is the block number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Handle {
    set: usize,
    way: usize,
}

/// The outcome of attempting to install a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L2FillOutcome<D> {
    /// The line was installed; if a victim had to be displaced it is
    /// returned (its payload reported no L1 holders).
    Installed {
        /// Where the new line sits.
        line: L2Handle,
        /// The displaced line, if any (dirty data goes to DRAM).
        evicted: Option<L2Evicted<D>>,
    },
    /// The selected victim's payload still records L1 holders (inclusive
    /// hierarchy): the caller must recall them first, then retry the fill.
    NeedsRecall {
        /// Block number of the victim whose holders must be recalled.
        victim: u64,
        /// Where the victim sits.
        line: L2Handle,
    },
    /// Every way of the target set is pinned by an in-flight transaction;
    /// retry later.
    Blocked,
}

/// The tag of an empty way. Tags hold the block number plus one, so the
/// tag array starts out as zeroed memory.
const EMPTY: u64 = 0;

fn tag_of(block: u64) -> u64 {
    block + 1
}

fn block_of(tag: u64) -> u64 {
    tag - 1
}

/// The finite store: per-set line vectors plus one flat tag array.
///
/// `tags[first + slot * ways + k]` is the tag of way `k` of `slot`, or
/// [`EMPTY`] when the way holds no line (`first` aligns the rows to host
/// cache lines); `lines[slot][k]` is the way's line, meaningful only while
/// its tag is not empty. A line keeps its way for as long as it is
/// resident. Probes scan one row of 8-byte tags and touch a line only on a
/// hit.
///
/// Nothing is allocated per line up front. The line vectors grow as ways
/// are first used: a paper-sized L2's lines would take over 12 MB, most of it
/// never touched by a short run. The tag array (about 1 MB) is allocated
/// zeroed on the first fill, so building a machine does not pay for it and
/// a run maps only the pages it touches.
#[derive(Debug)]
struct Finite<D> {
    tags: Vec<u64>,
    first: usize,
    lines: Vec<Vec<L2Line<D>>>,
    sets_per_bank: Divisor,
    ways: usize,
}

impl<D> Finite<D> {
    /// The flattened `(bank, hashed set)` slot of `block`.
    fn slot(&self, banks: Divisor, block: u64) -> usize {
        let bank = banks.rem(block);
        let set = self.sets_per_bank.rem(spread(banks.div(block)));
        bank * self.sets_per_bank.value() + set
    }

    /// Index of the first tag of `slot`'s row.
    fn row_base(&self, slot: usize) -> usize {
        self.first + slot * self.ways
    }

    /// The tag row of `slot` (empty before the first fill).
    fn row(&self, slot: usize) -> &[u64] {
        let base = self.row_base(slot);
        self.tags.get(base..base + self.ways).unwrap_or(&[])
    }

    /// The way of `slot` holding `block`, if resident.
    fn way(&self, slot: usize, block: u64) -> Option<usize> {
        let tag = tag_of(block);
        self.row(slot).iter().position(|&t| t == tag)
    }
}

#[derive(Debug)]
enum Store<D> {
    Finite(Finite<D>),
    /// One unbounded map per bank (the capacity-0 sentinel).
    Unbounded(Vec<FnvMap<u64, L2Line<D>>>),
}

/// Multiplicative (Fibonacci) bit spread used by the hashed set index:
/// power-of-two-strided address streams — e.g. per-core private regions laid
/// out at 16 MB alignment — would otherwise alias into the same set at every
/// power-of-two capacity. Real shared caches counter exactly this with
/// hash-based set indexing; the golden-ratio multiply spreads any stride
/// deterministically (no keyed state, identical across runs and platforms).
fn spread(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// The banked shared L2 (see the module documentation).
#[derive(Debug)]
pub struct BankedL2<D> {
    banks: Divisor,
    store: Store<D>,
    stamp: u64,
}

impl<D: Copy> BankedL2<D> {
    /// Builds the L2 for a machine with `banks` nodes and the given block
    /// size.
    ///
    /// # Panics
    /// Panics if a finite configuration yields zero sets per bank (callers
    /// validate via [`ifence_types::MachineConfig::validate`]).
    pub fn new(cfg: &L2Config, banks: usize, block_bytes: usize) -> Self {
        let banks = banks.max(1);
        let store = if cfg.unbounded() {
            Store::Unbounded((0..banks).map(|_| FnvMap::default()).collect())
        } else {
            let sets_per_bank = cfg.sets_per_bank(banks, block_bytes);
            assert!(sets_per_bank > 0, "L2 geometry yields zero sets per bank");
            Store::Finite(Finite {
                tags: Vec::new(),
                first: 0,
                lines: (0..banks * sets_per_bank).map(|_| Vec::new()).collect(),
                sets_per_bank: Divisor::new(sets_per_bank),
                ways: cfg.associativity,
            })
        };
        BankedL2 { banks: Divisor::new(banks), store, stamp: 0 }
    }

    /// The bank (home node) of `block`.
    pub fn bank_of(&self, block: u64) -> usize {
        self.banks.rem(block)
    }

    /// Where `block` sits, if resident: one scan of its set's tags.
    pub fn probe(&self, block: u64) -> Option<L2Handle> {
        match &self.store {
            Store::Finite(f) => {
                let set = f.slot(self.banks, block);
                f.way(set, block).map(|way| L2Handle { set, way })
            }
            Store::Unbounded(banks) => banks[self.bank_of(block)]
                .contains_key(&block)
                .then_some(L2Handle { set: block as usize, way: 0 }),
        }
    }

    /// The resident line at `line`.
    ///
    /// # Panics
    /// Panics if `line` is not a handle of a resident line.
    pub fn line(&self, line: L2Handle) -> &L2Line<D> {
        match &self.store {
            Store::Finite(f) => &f.lines[line.set][line.way],
            Store::Unbounded(banks) => {
                let block = line.set as u64;
                banks[self.bank_of(block)].get(&block).expect("handle of a resident line")
            }
        }
    }

    /// Mutable access to the resident line at `line`.
    ///
    /// # Panics
    /// Panics if `line` is not a handle of a resident line.
    pub fn line_mut(&mut self, line: L2Handle) -> &mut L2Line<D> {
        match &mut self.store {
            Store::Finite(f) => &mut f.lines[line.set][line.way],
            Store::Unbounded(banks) => {
                let block = line.set as u64;
                banks[self.banks.rem(block)].get_mut(&block).expect("handle of a resident line")
            }
        }
    }

    /// Marks the resident `block` most-recently-used unless an in-flight
    /// transaction pins it: `Some(Ok(handle))` when it is resident and now
    /// MRU, `Some(Err(handle))` when it is pinned (and left untouched),
    /// `None` when it is absent. The directory's busy check and its hit
    /// check in one probe.
    pub fn touch_unpinned(&mut self, block: u64) -> Option<Result<L2Handle, L2Handle>> {
        let handle = self.probe(block)?;
        let stamp = self.stamp + 1;
        let line = self.line_mut(handle);
        if line.busy {
            return Some(Err(handle));
        }
        line.lru = stamp;
        self.stamp = stamp;
        Some(Ok(handle))
    }

    /// Installs `block` (not currently resident) with the given data and
    /// directory payload. `can_drop` is consulted on the would-be victim's
    /// payload: it must return true only when the payload records no L1
    /// holders (inclusion), otherwise the fill reports
    /// [`L2FillOutcome::NeedsRecall`].
    pub fn fill(
        &mut self,
        block: u64,
        data: BlockData,
        dir: D,
        can_drop: impl Fn(&D) -> bool,
    ) -> L2FillOutcome<D> {
        debug_assert!(self.probe(block).is_none(), "fill requires the block to be absent");
        self.stamp += 1;
        let line = L2Line { data, dirty: false, busy: false, dir, lru: self.stamp };
        match &mut self.store {
            Store::Unbounded(banks) => {
                banks[self.banks.rem(block)].insert(block, line);
                let line = L2Handle { set: block as usize, way: 0 };
                L2FillOutcome::Installed { line, evicted: None }
            }
            Store::Finite(f) => {
                if f.tags.is_empty() {
                    let padding = 64 / std::mem::size_of::<u64>() - 1;
                    f.tags = vec![EMPTY; f.lines.len() * f.ways + padding];
                    f.first = first_line_aligned(&f.tags);
                }
                let slot = f.slot(self.banks, block);
                let base = f.row_base(slot);
                let handle = |way| L2Handle { set: slot, way };
                if let Some(way) = f.row(slot).iter().position(|&t| t == EMPTY) {
                    // Ways are first used in order, so an empty way is either
                    // a hole a removal left or the next one never used.
                    f.tags[base + way] = tag_of(block);
                    let set = &mut f.lines[slot];
                    if way < set.len() {
                        set[way] = line;
                    } else {
                        set.push(line);
                    }
                    return L2FillOutcome::Installed { line: handle(way), evicted: None };
                }
                // Victim: the least-recently-used way, strictly (stamps are
                // unique, so the choice does not depend on way order). A busy
                // LRU way blocks the fill instead of falling through to the
                // next way — recalling way after way while the first recall
                // is still draining would cascade-evict the whole set.
                let set = &mut f.lines[slot];
                let victim = (0..set.len()).min_by_key(|&k| set[k].lru).expect("full set");
                if set[victim].busy {
                    return L2FillOutcome::Blocked;
                }
                let vblock = block_of(f.tags[base + victim]);
                if !can_drop(&set[victim].dir) {
                    return L2FillOutcome::NeedsRecall { victim: vblock, line: handle(victim) };
                }
                let vline = std::mem::replace(&mut set[victim], line);
                f.tags[base + victim] = tag_of(block);
                L2FillOutcome::Installed {
                    line: handle(victim),
                    evicted: Some(L2Evicted {
                        block: vblock,
                        data: vline.data,
                        dirty: vline.dirty,
                        dir: vline.dir,
                    }),
                }
            }
        }
    }

    /// Removes the resident line at `line` (recall completion), returning
    /// it; its way is left empty.
    ///
    /// # Panics
    /// Panics if `line` is not a handle of a resident line.
    pub fn remove(&mut self, line: L2Handle) -> L2Evicted<D> {
        let (block, removed) = match &mut self.store {
            Store::Finite(f) => {
                let index = f.row_base(line.set) + line.way;
                let tag = &mut f.tags[index];
                assert_ne!(*tag, EMPTY, "handle of a resident line");
                let block = block_of(std::mem::replace(tag, EMPTY));
                (block, f.lines[line.set][line.way])
            }
            Store::Unbounded(banks) => {
                let block = line.set as u64;
                let removed = banks[self.banks.rem(block)].remove(&block);
                (block, removed.expect("handle of a resident line"))
            }
        };
        L2Evicted { block, data: removed.data, dirty: removed.dirty, dir: removed.dir }
    }

    /// Number of resident lines across all banks.
    pub fn resident_lines(&self) -> usize {
        match &self.store {
            Store::Finite(f) => f.tags.iter().filter(|&&t| t != EMPTY).count(),
            Store::Unbounded(banks) => banks.iter().map(FnvMap::len).sum(),
        }
    }

    /// True when this L2 never evicts (the capacity-0 sentinel).
    pub fn unbounded(&self) -> bool {
        matches!(self.store, Store::Unbounded(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: usize, ways: usize) -> L2Config {
        L2Config { size_bytes: size, associativity: ways, hit_latency: 5 }
    }

    /// Payload: number of simulated L1 holders.
    fn l2(size: usize, ways: usize) -> BankedL2<usize> {
        // 4 banks, 64-byte blocks.
        BankedL2::new(&cfg(size, ways), 4, 64)
    }

    /// Fills a block that has room, returning its handle.
    fn install(l2: &mut BankedL2<usize>, block: u64, holders: usize) -> L2Handle {
        match l2.fill(block, BlockData::zeroed(), holders, |_| true) {
            L2FillOutcome::Installed { line, evicted: None } => line,
            other => panic!("expected a free way for {block}, got {other:?}"),
        }
    }

    /// The block a fill of `block` evicts.
    fn evicted_by(l2: &mut BankedL2<usize>, block: u64) -> u64 {
        match l2.fill(block, BlockData::zeroed(), 0, |_| true) {
            L2FillOutcome::Installed { evicted: Some(ev), .. } => ev.block,
            other => panic!("expected an eviction, got {other:?}"),
        }
    }

    #[test]
    fn fill_get_touch_remove_roundtrip() {
        let mut l2 = l2(4 * 4 * 2 * 64, 2); // 4 banks × 4 sets × 2 ways
        assert!(l2.probe(100).is_none());
        let line = match l2.fill(100, BlockData::from_words([9; 8]), 0, |_| true) {
            L2FillOutcome::Installed { line, evicted: None } => line,
            other => panic!("expected a free way, got {other:?}"),
        };
        assert_eq!(l2.probe(100), Some(line));
        assert_eq!(l2.line(line).data.word(0), 9);
        assert!(!l2.line(line).dirty);
        assert_eq!(l2.touch_unpinned(100), Some(Ok(line)));
        l2.line_mut(line).dirty = true;
        let gone = l2.remove(line);
        assert!(gone.dirty);
        assert_eq!(gone.block, 100);
        assert!(l2.probe(100).is_none());
        assert_eq!(l2.resident_lines(), 0);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used_droppable_way() {
        // One set per bank, 2 ways: blocks 0, 4 and 8 share bank 0's set.
        let mut l2 = l2(4 * 2 * 64, 2); // 4 banks × 1 set × 2 ways
        assert!(!l2.unbounded());
        let zero = install(&mut l2, 0, 0);
        let four = install(&mut l2, 4, 0);
        l2.touch_unpinned(0); // 4 is now LRU
        assert_eq!(evicted_by(&mut l2, 8), 4);
        assert!(l2.probe(4).is_none());
        // The survivor stays where it was; the newcomer takes the victim's way.
        assert_eq!((l2.probe(0), l2.probe(8)), (Some(zero), Some(four)));
    }

    #[test]
    fn victims_with_holders_force_a_recall() {
        let mut l2 = l2(4 * 2 * 64, 2);
        let zero = install(&mut l2, 0, 1); // one L1 holder
        install(&mut l2, 4, 1);
        l2.touch_unpinned(4); // 0 is LRU
        match l2.fill(8, BlockData::zeroed(), 0, |holders| *holders == 0) {
            L2FillOutcome::NeedsRecall { victim, line } => assert_eq!((victim, line), (0, zero)),
            other => panic!("expected NeedsRecall for block 0, got {other:?}"),
        }
        // After the caller recalls the holders and removes the line, the
        // retried fill succeeds into the way the removal left empty.
        l2.remove(zero);
        assert!(matches!(
            l2.fill(8, BlockData::zeroed(), 0, |holders| *holders == 0),
            L2FillOutcome::Installed { line, evicted: None } if line == zero
        ));
    }

    #[test]
    fn busy_lru_way_blocks_the_fill() {
        let mut l2 = l2(4 * 2 * 64, 2);
        let zero = install(&mut l2, 0, 0);
        install(&mut l2, 4, 0);
        // Block 0 is LRU; while it is pinned the fill must wait — even
        // though the younger way (4) is droppable, falling through to it
        // would cascade-evict the set during a recall.
        l2.line_mut(zero).busy = true;
        assert!(matches!(l2.fill(8, BlockData::zeroed(), 0, |_| true), L2FillOutcome::Blocked));
        l2.line_mut(zero).busy = false;
        assert_eq!(evicted_by(&mut l2, 8), 0, "strict LRU once unpinned");
    }

    #[test]
    fn touch_unpinned_leaves_pinned_lines_in_lru_order() {
        let mut l2 = l2(4 * 2 * 64, 2);
        assert_eq!(l2.touch_unpinned(0), None, "absent");
        let zero = install(&mut l2, 0, 0);
        let four = install(&mut l2, 4, 0);
        l2.line_mut(zero).busy = true;
        assert_eq!(l2.touch_unpinned(0), Some(Err(zero)), "pinned");
        l2.line_mut(zero).busy = false;
        // The pinned touch did not refresh block 0: it is still the LRU way.
        assert_eq!(evicted_by(&mut l2, 8), 0);
        assert_eq!(l2.touch_unpinned(4), Some(Ok(four)), "resident and unpinned");
    }

    #[test]
    fn unbounded_mode_never_evicts() {
        let mut l2 = l2(0, 0);
        assert!(l2.unbounded());
        for block in 0..10_000u64 {
            assert!(matches!(
                l2.fill(block, BlockData::zeroed(), 0usize, |_| false),
                L2FillOutcome::Installed { evicted: None, .. }
            ));
        }
        assert_eq!(l2.resident_lines(), 10_000);
        let line = l2.probe(9_999).expect("resident");
        l2.line_mut(line).dirty = true;
        assert_eq!(l2.remove(line).block, 9_999);
        assert!(l2.probe(9_999).is_none());
    }

    #[test]
    fn banks_interleave_by_block_number() {
        let l2 = l2(4 * 4 * 2 * 64, 2);
        assert_eq!(l2.bank_of(0), 0);
        assert_eq!(l2.bank_of(5), 1);
        assert_eq!(l2.bank_of(7), 3);
    }
}
