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
/// # Example
/// ```
/// use ifence_mem::MshrFile;
/// use ifence_types::{Addr, BlockAddr};
/// let mut mshrs = MshrFile::new(2);
/// let b = BlockAddr::containing(Addr::new(0x100), 64);
/// mshrs.allocate(b, false, false, 0).unwrap();
/// assert!(mshrs.contains(b));
/// let entry = mshrs.complete(b).unwrap();
/// assert_eq!(entry.block, b);
/// assert!(mshrs.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<MshrEntry>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        MshrFile { capacity, entries: Vec::with_capacity(capacity) }
    }

    /// Number of outstanding misses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if there are no outstanding misses.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns true if every register is in use.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Returns true if an entry for `block` exists.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.entries.iter().any(|e| e.block == block)
    }

    /// Returns a reference to the entry for `block`.
    pub fn get(&self, block: BlockAddr) -> Option<&MshrEntry> {
        self.entries.iter().find(|e| e.block == block)
    }

    /// Returns a mutable reference to the entry for `block`.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut MshrEntry> {
        self.entries.iter_mut().find(|e| e.block == block)
    }

    /// Allocates a new entry.
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
        self.entries.push(MshrEntry {
            block,
            for_write,
            prefetch,
            waiters: Vec::new(),
            issued_at: now,
        });
        Ok(self.entries.last_mut().expect("just pushed"))
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

    /// Removes and returns the entry for `block` when its fill arrives.
    pub fn complete(&mut self, block: BlockAddr) -> Option<MshrEntry> {
        let pos = self.entries.iter().position(|e| e.block == block)?;
        Some(self.entries.remove(pos))
    }

    /// Cycle at which the oldest still-outstanding miss was issued, if any —
    /// used by the event-driven kernel's deadlock diagnostics to show how
    /// long a core has been waiting on the fabric.
    pub fn oldest_issue(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.issued_at).min()
    }

    /// Iterates over outstanding entries.
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.entries.iter()
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
        m.complete(blk(0x40));
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
        m.allocate(blk(0x00), false, false, 3).unwrap();
        let e = m.complete(blk(0x00)).unwrap();
        assert_eq!(e.issued_at, 3);
        assert!(m.is_empty());
        assert!(m.complete(blk(0x00)).is_none());
    }

    #[test]
    fn error_display() {
        assert!(MshrError::Full.to_string().contains("in use"));
        assert!(MshrError::AlreadyPresent.to_string().contains("already"));
    }
}
