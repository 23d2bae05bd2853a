//! The speculative marks of an L1 tag (the functional contract of Figure 3's
//! augmented SRAM cells).
//!
//! InvisiFence adds a speculatively-read and a speculatively-written bit to
//! every L1 tag, one pair per checkpoint epoch, and requires two
//! single-cycle operations: a flash clear of an epoch's bits, and a
//! conditional flash-invalidate of every line whose written bit is set. The
//! bits live in one [`Marks`] byte of each tag, next to the block number the
//! probe loads anyway. Each of the four marks also keeps a log of the lines
//! it was set on ([`MarkLogs`]), so the software flash operations cost a
//! walk over the lines actually marked since the last clear — not over the
//! whole cache — mirroring the hardware's one-shot behaviour.

use crate::l1::{Tag, MAX_EPOCHS};

/// One of the four marks of a tag: read or written, in epoch 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark(u8);

impl Mark {
    /// The speculatively-read mark of `epoch`.
    pub(crate) fn read(epoch: usize) -> Self {
        debug_assert!(epoch < MAX_EPOCHS, "epoch {epoch} out of range");
        Mark(epoch as u8)
    }

    /// The speculatively-written mark of `epoch`.
    pub(crate) fn written(epoch: usize) -> Self {
        debug_assert!(epoch < MAX_EPOCHS, "epoch {epoch} out of range");
        Mark((MAX_EPOCHS + epoch) as u8)
    }

    fn set_bit(self) -> u8 {
        1 << self.0
    }

    fn logged_bit(self) -> u8 {
        1 << (4 + self.0)
    }
}

/// The mark byte of one tag: bits 0–3 say whether read-0, read-1,
/// written-0 and written-1 are set; bits 4–7 whether the line is already in
/// that mark's log. A line cleared individually (evicted or invalidated)
/// keeps its logged bits, so setting the mark again does not log it twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Marks(u8);

const SET_BITS: u8 = 0x0f;

impl Marks {
    /// Returns true if `mark` is set.
    pub(crate) fn get(self, mark: Mark) -> bool {
        self.0 & mark.set_bit() != 0
    }

    /// Sets `mark`, returning true when the line must be appended to the
    /// mark's log (it is not in it yet).
    pub(crate) fn set(&mut self, mark: Mark) -> bool {
        let first = self.0 & mark.logged_bit() == 0;
        self.0 |= mark.set_bit() | mark.logged_bit();
        first
    }

    /// True if any mark of any epoch is set.
    pub(crate) fn any(self) -> bool {
        self.0 & SET_BITS != 0
    }

    /// Clears every mark of the line, keeping its log records.
    pub(crate) fn clear(&mut self) {
        self.0 &= !SET_BITS;
    }

    /// Clears `mark` and its log record (the mark's log is being emptied).
    fn flash_clear(&mut self, mark: Mark) {
        self.0 &= !(mark.set_bit() | mark.logged_bit());
    }
}

/// The lines each of the four marks was set on since its last flash clear,
/// in first-set order and without duplicates. A logged line whose mark has
/// since been cleared individually stays in the log; readers re-check the
/// tag.
#[derive(Debug, Clone, Default)]
pub(crate) struct MarkLogs {
    logs: [Vec<u32>; 2 * MAX_EPOCHS],
}

impl MarkLogs {
    /// Sets `mark` on line `index` of `tags`.
    pub(crate) fn set(&mut self, mark: Mark, tags: &mut [Tag], index: usize) {
        if tags[index].marks.set(mark) {
            self.logs[mark.0 as usize].push(index as u32);
        }
    }

    /// The lines of `tags` that `mark` is currently set on, in the order it
    /// was first set on them.
    pub(crate) fn iter_set<'a>(
        &'a self,
        mark: Mark,
        tags: &'a [Tag],
    ) -> impl Iterator<Item = usize> + 'a {
        self.logs[mark.0 as usize]
            .iter()
            .map(|&i| i as usize)
            .filter(move |&i| tags[i].marks.get(mark))
    }

    /// Clears `mark` on every line of `tags` it was logged for and empties
    /// its log: the cost is the number of lines marked since the last clear.
    pub(crate) fn flash_clear(&mut self, mark: Mark, tags: &mut [Tag]) {
        let log = &mut self.logs[mark.0 as usize];
        for &i in log.iter() {
            tags[i as usize].marks.flash_clear(mark);
        }
        log.clear();
    }
}

#[cfg(test)]
mod tests {
    //! The flash-clear contract, driven through the L1's public mark API.

    use crate::{BlockData, L1Cache, LineState};
    use ifence_types::{Addr, BlockAddr, CacheConfig};

    /// `sets` sets of 2 ways, without a victim cache.
    fn cache(sets: usize) -> L1Cache {
        L1Cache::new(&CacheConfig {
            size_bytes: sets * 2 * 64,
            associativity: 2,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 4,
            victim_entries: 0,
        })
    }

    /// A cache with `n` resident blocks, one per set, in block order.
    fn filled(n: u64) -> (L1Cache, Vec<BlockAddr>) {
        let mut c = cache(n as usize);
        let blocks: Vec<_> = (0..n).map(|i| BlockAddr::containing(Addr::new(i * 64), 64)).collect();
        for &b in &blocks {
            c.fill(b, LineState::Exclusive, BlockData::zeroed());
        }
        (c, blocks)
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let (mut c, b) = filled(16);
        assert!(!c.is_spec_read(b[3], 0));
        c.mark_spec_read(b[3], 0);
        assert!(c.is_spec_read(b[3], 0));
        // An individual clear: the line leaves the cache.
        c.external_invalidate(b[3]);
        c.fill(b[3], LineState::Shared, BlockData::zeroed());
        assert!(!c.is_spec_read(b[3], 0));
        assert_eq!(c.spec_line_count(0), 0);
    }

    #[test]
    fn flash_clear_resets_everything() {
        let (mut c, b) = filled(64);
        for i in (0..64).step_by(3) {
            c.mark_spec_read(b[i], 0);
            c.mark_spec_written(b[i], 0);
        }
        assert!(c.spec_line_count(0) > 0);
        c.flash_clear_epoch(0);
        assert!(!c.has_spec_lines());
        assert!(b.iter().all(|&x| !c.is_spec_any(x)));
        // Marks can be set again after a flash clear.
        c.mark_spec_read(b[5], 0);
        assert!(c.is_spec_read(b[5], 0));
        assert_eq!(c.spec_line_count(0), 1);
    }

    #[test]
    fn duplicate_sets_do_not_duplicate_log_entries() {
        let (mut c, b) = filled(8);
        for _ in 0..10 {
            c.mark_spec_written(b[2], 0);
        }
        assert_eq!(c.spec_line_count(0), 1);
        assert_eq!(c.flash_invalidate_written(0), vec![b[2]]);
    }

    #[test]
    fn iter_set_skips_individually_cleared_bits() {
        let (mut c, b) = filled(8);
        for i in 1..4 {
            c.mark_spec_written(b[i], 0);
        }
        c.external_invalidate(b[2]);
        assert_eq!(c.spec_line_count(0), 2);
        assert_eq!(c.flash_invalidate_written(0), vec![b[1], b[3]]);
    }

    #[test]
    fn clear_then_set_logs_the_bit_once() {
        let (mut c, b) = filled(8);
        c.mark_spec_written(b[4], 0);
        c.external_invalidate(b[4]);
        c.fill(b[4], LineState::Exclusive, BlockData::zeroed());
        c.mark_spec_written(b[4], 0);
        c.mark_spec_written(b[6], 0);
        assert_eq!(c.spec_line_count(0), 2);
        // The refilled line keeps its first-set position in the log.
        assert_eq!(c.clone().flash_invalidate_written(0), vec![b[4], b[6]]);
        c.flash_clear_epoch(0);
        c.external_invalidate(b[4]);
        c.fill(b[4], LineState::Exclusive, BlockData::zeroed());
        assert!(!c.is_spec_written(b[4], 0), "a clear after a flash clear leaves the mark clear");
        c.mark_spec_written(b[4], 0);
        assert_eq!(c.flash_invalidate_written(0), vec![b[4]]);
    }

    #[test]
    fn many_generations_remain_correct() {
        let (mut c, b) = filled(4);
        for round in 0..100 {
            c.mark_spec_read(b[round % 4], round % 2);
            assert!(c.is_spec_read(b[round % 4], round % 2));
            c.flash_clear_epoch(round % 2);
            assert!(!c.has_spec_lines());
        }
    }

    #[test]
    fn len_and_is_empty() {
        // Each mark of each epoch is its own log: the four counts are
        // independent, and an empty cache has none.
        assert!(!cache(4).has_spec_lines());
        let (mut c, b) = filled(10);
        c.mark_spec_read(b[0], 0);
        c.mark_spec_written(b[1], 0);
        c.mark_spec_written(b[2], 1);
        assert_eq!((c.spec_line_count(0), c.spec_line_count(1)), (2, 1));
        c.flash_clear_epoch(0);
        assert_eq!((c.spec_line_count(0), c.spec_line_count(1)), (0, 1));
    }
}
