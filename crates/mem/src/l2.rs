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
//! A capacity of 0 is the *unbounded* sentinel: every fill succeeds and
//! nothing is ever evicted. This reproduces the pre-capacity fabric exactly
//! and serves as the "infinite" endpoint of capacity sweeps.

use crate::cache::Divisor;
use crate::line::BlockData;
use ifence_types::{FnvMap, L2Config};

/// One resident L2 line: data plus the embedded directory payload.
#[derive(Debug, Clone)]
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

/// The outcome of attempting to install a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L2FillOutcome<D> {
    /// The line was installed; if a victim had to be displaced it is
    /// returned (its payload reported no L1 holders).
    Installed {
        /// The displaced line, if any (dirty data goes to DRAM).
        evicted: Option<L2Evicted<D>>,
    },
    /// The selected victim's payload still records L1 holders (inclusive
    /// hierarchy): the caller must recall them first, then retry the fill.
    NeedsRecall {
        /// Block number of the victim whose holders must be recalled.
        victim: u64,
    },
    /// Every way of the target set is pinned by an in-flight transaction;
    /// retry later.
    Blocked,
}

/// The finite store: per-set line vectors plus one flat tag array.
///
/// `tags[slot * ways + k]` holds the block number of `lines[slot][k]`; only
/// the first `lines[slot].len()` tags of a slot are meaningful. Probes scan
/// the 8-byte tags and touch a line payload only on a hit.
///
/// Nothing is allocated per line up front. The payload vectors grow as lines
/// are filled: a paper-sized L2's payloads would take over 14 MB, most of it
/// never touched by a short run. The tag array (about 1 MB) is allocated on
/// the first fill, so building a machine does not pay for zeroing it.
#[derive(Debug)]
struct Finite<D> {
    tags: Vec<u64>,
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

    /// The way of `slot` holding `block`, if resident.
    fn way(&self, slot: usize, block: u64) -> Option<usize> {
        let base = slot * self.ways;
        // Before the first fill `tags` is empty and every slot holds no line.
        let tags = self.tags.get(base..base + self.lines[slot].len())?;
        tags.iter().position(|&tag| tag == block)
    }

    /// Removes way `k` of `slot`, moving the last way into its place (the
    /// tag array mirrors the line vector's `swap_remove`).
    fn swap_remove(&mut self, slot: usize, k: usize) -> L2Line<D> {
        let base = slot * self.ways;
        let last = self.lines[slot].len() - 1;
        self.tags[base + k] = self.tags[base + last];
        self.lines[slot].swap_remove(k)
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

impl<D> BankedL2<D> {
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

    /// The resident line for `block`, if any.
    pub fn get(&self, block: u64) -> Option<&L2Line<D>> {
        match &self.store {
            Store::Finite(f) => {
                let slot = f.slot(self.banks, block);
                f.way(slot, block).map(|k| &f.lines[slot][k])
            }
            Store::Unbounded(banks) => banks[self.bank_of(block)].get(&block),
        }
    }

    /// Mutable access to the resident line for `block`, if any.
    pub fn get_mut(&mut self, block: u64) -> Option<&mut L2Line<D>> {
        match &mut self.store {
            Store::Finite(f) => {
                let slot = f.slot(self.banks, block);
                f.way(slot, block).map(|k| &mut f.lines[slot][k])
            }
            Store::Unbounded(banks) => banks[self.banks.rem(block)].get_mut(&block),
        }
    }

    /// Marks `block` most-recently-used unless an in-flight transaction pins
    /// it: `Some(true)` when it was resident and is now MRU, `Some(false)`
    /// when it is pinned (and left untouched), `None` when it is absent. The
    /// directory's busy check and its hit check in one probe.
    pub fn touch_unpinned(&mut self, block: u64) -> Option<bool> {
        let stamp = self.stamp + 1;
        let line = self.get_mut(block)?;
        if line.busy {
            return Some(false);
        }
        line.lru = stamp;
        self.stamp = stamp;
        Some(true)
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
        debug_assert!(self.get(block).is_none(), "fill requires the block to be absent");
        self.stamp += 1;
        let line = L2Line { data, dirty: false, busy: false, dir, lru: self.stamp };
        match &mut self.store {
            Store::Unbounded(banks) => {
                banks[self.banks.rem(block)].insert(block, line);
                L2FillOutcome::Installed { evicted: None }
            }
            Store::Finite(f) => {
                if f.tags.is_empty() {
                    f.tags = vec![0; f.lines.len() * f.ways];
                }
                let slot = f.slot(self.banks, block);
                let len = f.lines[slot].len();
                if len < f.ways {
                    f.tags[slot * f.ways + len] = block;
                    f.lines[slot].push(line);
                    return L2FillOutcome::Installed { evicted: None };
                }
                // Victim: the least-recently-used way, strictly. A busy LRU
                // way blocks the fill instead of falling through to the next
                // way — recalling way after way while the first recall is
                // still draining would cascade-evict the whole set.
                let set = &f.lines[slot];
                let victim = (0..len).min_by_key(|&k| set[k].lru).expect("full set has a way");
                if set[victim].busy {
                    return L2FillOutcome::Blocked;
                }
                if !can_drop(&set[victim].dir) {
                    return L2FillOutcome::NeedsRecall { victim: f.tags[slot * f.ways + victim] };
                }
                let vblock = f.tags[slot * f.ways + victim];
                let vline = f.swap_remove(slot, victim);
                f.tags[slot * f.ways + len - 1] = block;
                f.lines[slot].push(line);
                L2FillOutcome::Installed {
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

    /// Removes `block` from the L2 (recall completion), returning the line.
    pub fn remove(&mut self, block: u64) -> Option<L2Evicted<D>> {
        let line = match &mut self.store {
            Store::Finite(f) => {
                let slot = f.slot(self.banks, block);
                let k = f.way(slot, block)?;
                f.swap_remove(slot, k)
            }
            Store::Unbounded(banks) => banks[self.banks.rem(block)].remove(&block)?,
        };
        Some(L2Evicted { block, data: line.data, dirty: line.dirty, dir: line.dir })
    }

    /// Number of resident lines across all banks.
    pub fn resident_lines(&self) -> usize {
        match &self.store {
            Store::Finite(f) => f.lines.iter().map(Vec::len).sum(),
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

    #[test]
    fn fill_get_touch_remove_roundtrip() {
        let mut l2 = l2(4 * 4 * 2 * 64, 2); // 4 banks × 4 sets × 2 ways
        assert!(l2.get(100).is_none());
        assert!(matches!(
            l2.fill(100, BlockData::from_words([9; 8]), 0, |_| true),
            L2FillOutcome::Installed { evicted: None }
        ));
        assert_eq!(l2.get(100).unwrap().data.word(0), 9);
        assert!(!l2.get(100).unwrap().dirty);
        l2.get_mut(100).unwrap().dirty = true;
        let gone = l2.remove(100).unwrap();
        assert!(gone.dirty);
        assert_eq!(gone.block, 100);
        assert!(l2.get(100).is_none());
        assert_eq!(l2.resident_lines(), 0);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used_droppable_way() {
        // One set per bank, 2 ways: blocks 0, 16, 32 share bank 0 / set 0
        // (bank = block % 4, set = (block/4) % 4 with 4 sets... use 1 set).
        let mut l2 = l2(4 * 2 * 64, 2); // 4 banks × 1 set × 2 ways
        assert!(!l2.unbounded());
        l2.fill(0, BlockData::zeroed(), 0, |_| true);
        l2.fill(4, BlockData::zeroed(), 0, |_| true);
        l2.touch_unpinned(0); // 4 is now LRU
        match l2.fill(8, BlockData::zeroed(), 0, |_| true) {
            L2FillOutcome::Installed { evicted: Some(ev) } => assert_eq!(ev.block, 4),
            other => panic!("expected eviction of block 4, got {other:?}"),
        }
        assert!(l2.get(0).is_some() && l2.get(8).is_some() && l2.get(4).is_none());
    }

    #[test]
    fn victims_with_holders_force_a_recall() {
        let mut l2 = l2(4 * 2 * 64, 2);
        l2.fill(0, BlockData::zeroed(), 1, |_| true); // one L1 holder
        l2.fill(4, BlockData::zeroed(), 1, |_| true);
        l2.touch_unpinned(4); // 0 is LRU
        match l2.fill(8, BlockData::zeroed(), 0, |holders| *holders == 0) {
            L2FillOutcome::NeedsRecall { victim } => assert_eq!(victim, 0),
            other => panic!("expected NeedsRecall for block 0, got {other:?}"),
        }
        // After the caller recalls the holders and removes the line, the
        // retried fill succeeds.
        l2.remove(0).unwrap();
        assert!(matches!(
            l2.fill(8, BlockData::zeroed(), 0, |holders| *holders == 0),
            L2FillOutcome::Installed { evicted: None }
        ));
    }

    #[test]
    fn busy_lru_way_blocks_the_fill() {
        let mut l2 = l2(4 * 2 * 64, 2);
        l2.fill(0, BlockData::zeroed(), 0, |_| true);
        l2.fill(4, BlockData::zeroed(), 0, |_| true);
        // Block 0 is LRU; while it is pinned the fill must wait — even
        // though the younger way (4) is droppable, falling through to it
        // would cascade-evict the set during a recall.
        l2.get_mut(0).unwrap().busy = true;
        assert!(matches!(l2.fill(8, BlockData::zeroed(), 0, |_| true), L2FillOutcome::Blocked));
        l2.get_mut(0).unwrap().busy = false;
        match l2.fill(8, BlockData::zeroed(), 0, |_| true) {
            L2FillOutcome::Installed { evicted: Some(ev) } => {
                assert_eq!(ev.block, 0, "strict LRU once unpinned")
            }
            other => panic!("unpinned LRU way must be evictable, got {other:?}"),
        }
    }

    #[test]
    fn touch_unpinned_leaves_pinned_lines_in_lru_order() {
        let mut l2 = l2(4 * 2 * 64, 2);
        assert_eq!(l2.touch_unpinned(0), None, "absent");
        l2.fill(0, BlockData::zeroed(), 0, |_| true);
        l2.fill(4, BlockData::zeroed(), 0, |_| true);
        l2.get_mut(0).unwrap().busy = true;
        assert_eq!(l2.touch_unpinned(0), Some(false), "pinned");
        l2.get_mut(0).unwrap().busy = false;
        // The pinned touch did not refresh block 0: it is still the LRU way.
        match l2.fill(8, BlockData::zeroed(), 0, |_| true) {
            L2FillOutcome::Installed { evicted: Some(ev) } => assert_eq!(ev.block, 0),
            other => panic!("expected eviction of block 0, got {other:?}"),
        }
        assert_eq!(l2.touch_unpinned(4), Some(true), "resident and unpinned");
    }

    #[test]
    fn unbounded_mode_never_evicts() {
        let mut l2 = l2(0, 0);
        assert!(l2.unbounded());
        for block in 0..10_000u64 {
            assert!(matches!(
                l2.fill(block, BlockData::zeroed(), 0usize, |_| false),
                L2FillOutcome::Installed { evicted: None }
            ));
        }
        assert_eq!(l2.resident_lines(), 10_000);
        assert!(l2.get(9_999).is_some());
    }

    #[test]
    fn banks_interleave_by_block_number() {
        let l2 = l2(4 * 4 * 2 * 64, 2);
        assert_eq!(l2.bank_of(0), 0);
        assert_eq!(l2.bank_of(5), 1);
        assert_eq!(l2.bank_of(7), 3);
    }
}
