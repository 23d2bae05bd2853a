//! Set and bank indexing shared by the L1 and L2 tag arrays, and tests of
//! the L1 tag array built on it.

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

#[cfg(test)]
mod tests {
    use crate::{BlockData, EvictionAction, L1Cache, LineState};
    use ifence_types::{Addr, BlockAddr, CacheConfig};

    /// 4 sets x 2 ways x 64-byte blocks = 512 bytes, with no victim cache,
    /// so every displaced line goes straight to the writeback queue.
    fn small_cache() -> L1Cache {
        L1Cache::new(&CacheConfig {
            size_bytes: 512,
            associativity: 2,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 8,
            victim_entries: 0,
        })
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    /// Fills `block` and returns the line the fill displaced, if any.
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
        let mut c = small_cache();
        assert_eq!(c.peek(blk(0x1000)), LineState::Invalid);
        assert!(
            fill_evicting(&mut c, blk(0x1000), LineState::Shared, BlockData::zeroed()).is_none()
        );
        assert_eq!(c.peek(blk(0x1000)), LineState::Shared);
        assert!(c.contains(blk(0x1000)));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn would_evict_reports_spec_victims() {
        // The line a fill of `block` displaces, and whether its slot reports
        // a speculative victim.
        let victim = |c: &L1Cache, block: BlockAddr| {
            let slot = c.fill_slot(block);
            let spec = c.slot_evicts_spec(slot);
            let mut c = c.clone();
            c.fill_at(slot, LineState::Shared, BlockData::zeroed());
            let evicted = c.drain_writebacks().next();
            evicted.map(|e| (e.block(), spec))
        };
        let mut c = small_cache();
        let a = blk(0x000);
        let b = blk(0x100);
        let d = blk(0x200);
        c.fill(a, LineState::Modified, BlockData::zeroed());
        assert!(victim(&c, b).is_none(), "invalid way available");
        c.fill(b, LineState::Shared, BlockData::zeroed());
        c.mark_spec_written(a, 0);
        c.lookup(b);
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
}
