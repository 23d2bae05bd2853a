//! Miss-status holding registers (MSHRs): outstanding-miss tracking.

use ifence_types::{BlockAddr, Cycle};
use std::fmt;

/// One outstanding miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrEntry {
    /// The block being fetched.
    pub block: BlockAddr,
    /// True if write permission (GetM/upgrade) was requested; false for a
    /// read-only fetch (GetS).
    pub for_write: bool,
    /// True if the miss was initiated purely as an exclusive prefetch on
    /// behalf of a store (no instruction is architecturally waiting on it).
    pub prefetch: bool,
    /// Reorder-buffer identifiers of instructions waiting for this fill.
    pub waiters: Vec<u64>,
    /// Cycle at which the miss was issued.
    pub issued_at: Cycle,
}

/// Errors returned by [`MshrFile`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// All MSHRs are in use; the access must retry later.
    Full,
    /// An entry for the block already exists (callers should merge instead).
    AlreadyPresent,
}

impl fmt::Display for MshrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MshrError::Full => f.write_str("all miss-status holding registers are in use"),
            MshrError::AlreadyPresent => f.write_str("an MSHR for this block already exists"),
        }
    }
}

impl std::error::Error for MshrError {}

/// A file of miss-status holding registers. At most one entry exists per
/// block; secondary misses to the same block merge into the existing entry.
///
/// The blocks of the outstanding misses sit in their own dense array, so a
/// probe never strides over entries. A completed register is kept, with its
/// waiter list's allocation, for the next miss: a steady stream of misses
/// allocates nothing.
///
/// # Example
/// ```
/// use ifence_mem::MshrFile;
/// use ifence_types::{Addr, BlockAddr};
/// let mut mshrs = MshrFile::new(2);
/// let b = BlockAddr::containing(Addr::new(0x100), 64);
/// mshrs.allocate(b, true, false, 0).unwrap().waiters.push(7);
/// assert!(mshrs.contains(b));
/// let mut waiters = Vec::new();
/// assert_eq!(mshrs.complete(b, &mut waiters), Some(true), "write permission was requested");
/// assert_eq!(waiters, vec![7]);
/// assert!(mshrs.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MshrFile {
    capacity: usize,
    /// Block of each outstanding miss, oldest first: the dense array every
    /// probe scans.
    blocks: Vec<BlockAddr>,
    /// The outstanding entries in lockstep with `blocks`, followed by
    /// completed ones kept for reuse.
    entries: Vec<MshrEntry>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            capacity,
            blocks: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of outstanding misses.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns true if there are no outstanding misses.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Returns true if every register is in use.
    pub fn is_full(&self) -> bool {
        self.blocks.len() >= self.capacity
    }

    fn position(&self, block: BlockAddr) -> Option<usize> {
        self.blocks.iter().position(|&b| b == block)
    }

    /// Returns true if an entry for `block` exists.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.blocks.contains(&block)
    }

    /// Returns a reference to the entry for `block`.
    pub fn get(&self, block: BlockAddr) -> Option<&MshrEntry> {
        self.position(block).map(|i| &self.entries[i])
    }

    /// Returns a mutable reference to the entry for `block`.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut MshrEntry> {
        self.position(block).map(|i| &mut self.entries[i])
    }

    /// Allocates a new entry with no waiters.
    ///
    /// # Errors
    /// Returns [`MshrError::AlreadyPresent`] if an entry exists (merge with
    /// [`MshrFile::merge_waiter`] instead) or [`MshrError::Full`] if no
    /// register is free.
    pub fn allocate(
        &mut self,
        block: BlockAddr,
        for_write: bool,
        prefetch: bool,
        now: Cycle,
    ) -> Result<&mut MshrEntry, MshrError> {
        if self.contains(block) {
            return Err(MshrError::AlreadyPresent);
        }
        if self.is_full() {
            return Err(MshrError::Full);
        }
        let slot = self.blocks.len();
        self.blocks.push(block);
        if slot == self.entries.len() {
            self.entries.push(MshrEntry {
                block,
                for_write,
                prefetch,
                waiters: Vec::new(),
                issued_at: now,
            });
        } else {
            let e = &mut self.entries[slot];
            e.block = block;
            e.for_write = for_write;
            e.prefetch = prefetch;
            e.waiters.clear();
            e.issued_at = now;
        }
        Ok(&mut self.entries[slot])
    }

    /// Adds a waiting instruction to an existing entry, upgrading it from a
    /// prefetch to a demand miss and recording a write intent if requested.
    /// Returns false if no entry exists for the block.
    pub fn merge_waiter(&mut self, block: BlockAddr, waiter: u64, for_write: bool) -> bool {
        match self.get_mut(block) {
            Some(e) => {
                e.prefetch = false;
                e.for_write |= for_write;
                if !e.waiters.contains(&waiter) {
                    e.waiters.push(waiter);
                }
                true
            }
            None => false,
        }
    }

    /// Removes the entry for `block` when its fill arrives and returns
    /// whether it requested write permission (`None` if no entry exists).
    /// The entry's waiters replace the contents of `waiters` (left empty if
    /// no entry exists); the freed register keeps the old allocation of
    /// `waiters` for its next miss.
    pub fn complete(&mut self, block: BlockAddr, waiters: &mut Vec<u64>) -> Option<bool> {
        waiters.clear();
        let pos = self.position(block)?;
        let live = self.blocks.len();
        self.blocks.remove(pos);
        // Keep the outstanding entries in issue order; the completed one
        // becomes the first free register.
        self.entries[pos..live].rotate_left(1);
        let done = &mut self.entries[live - 1];
        std::mem::swap(waiters, &mut done.waiters);
        Some(done.for_write)
    }

    /// Cycle at which the oldest still-outstanding miss was issued, if any —
    /// used by the event-driven kernel's deadlock diagnostics to show how
    /// long a core has been waiting on the fabric.
    pub fn oldest_issue(&self) -> Option<Cycle> {
        self.iter().map(|e| e.issued_at).min()
    }

    /// Iterates over outstanding entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.entries[..self.blocks.len()].iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::Addr;

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(2);
        m.allocate(blk(0x00), false, false, 0).unwrap();
        m.allocate(blk(0x40), true, false, 0).unwrap();
        assert!(m.is_full());
        assert_eq!(m.allocate(blk(0x80), false, false, 0).unwrap_err(), MshrError::Full);
        assert_eq!(m.allocate(blk(0x00), false, false, 0).unwrap_err(), MshrError::AlreadyPresent);
    }

    #[test]
    fn oldest_issue_reports_the_earliest_outstanding_miss() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.oldest_issue(), None);
        m.allocate(blk(0x00), false, false, 30).unwrap();
        m.allocate(blk(0x40), true, false, 10).unwrap();
        assert_eq!(m.oldest_issue(), Some(10));
        m.complete(blk(0x40), &mut Vec::new());
        assert_eq!(m.oldest_issue(), Some(30));
    }

    #[test]
    fn merge_waiter_upgrades_prefetch() {
        let mut m = MshrFile::new(2);
        m.allocate(blk(0x00), false, true, 5).unwrap();
        assert!(m.get(blk(0x00)).unwrap().prefetch);
        assert!(m.merge_waiter(blk(0x00), 42, true));
        let e = m.get(blk(0x00)).unwrap();
        assert!(!e.prefetch);
        assert!(e.for_write);
        assert_eq!(e.waiters, vec![42]);
        // Duplicate waiters are not recorded twice.
        m.merge_waiter(blk(0x00), 42, false);
        assert_eq!(m.get(blk(0x00)).unwrap().waiters.len(), 1);
        assert!(!m.merge_waiter(blk(0x80), 1, false));
    }

    #[test]
    fn complete_removes_entry() {
        let mut m = MshrFile::new(2);
        m.allocate(blk(0x00), false, false, 3).unwrap().waiters.push(5);
        let mut waiters = vec![99];
        assert_eq!(m.complete(blk(0x00), &mut waiters), Some(false));
        assert_eq!(waiters, vec![5], "the waiters replace the buffer's contents");
        assert!(m.is_empty());
        assert!(m.complete(blk(0x00), &mut waiters).is_none());
        assert!(waiters.is_empty());
        // The freed register is reused, starting with no waiters.
        let e = m.allocate(blk(0x40), true, false, 8).unwrap();
        assert!(e.waiters.is_empty());
        assert_eq!((e.block, e.issued_at), (blk(0x40), 8));
    }

    #[test]
    fn completion_keeps_the_others_in_issue_order() {
        let mut m = MshrFile::new(4);
        for (i, b) in [0x00, 0x40, 0x80].into_iter().enumerate() {
            m.allocate(blk(b), false, false, i as u64).unwrap().waiters.push(i as u64);
        }
        m.complete(blk(0x00), &mut Vec::new());
        m.allocate(blk(0xc0), false, false, 3).unwrap();
        let order: Vec<_> = m.iter().map(|e| (e.block, e.waiters.clone())).collect();
        assert_eq!(order, vec![(blk(0x40), vec![1]), (blk(0x80), vec![2]), (blk(0xc0), vec![])]);
        assert_eq!(m.get(blk(0x80)).unwrap().issued_at, 2);
    }

    #[test]
    fn error_display() {
        assert!(MshrError::Full.to_string().contains("in use"));
        assert!(MshrError::AlreadyPresent.to_string().contains("already"));
    }
}
