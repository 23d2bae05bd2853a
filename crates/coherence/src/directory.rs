//! The coherence directory: per-block sharer/owner state, embedded in the
//! shared L2's tags.
//!
//! There is no free-floating directory map: a block's [`DirectoryEntry`]
//! lives inside its L2 line (the payload of
//! [`ifence_mem::BankedL2`]), so directory state exists exactly for
//! L2-resident blocks — the inclusive-hierarchy invariant. The entry itself
//! is a small state machine (Uncached / Shared / Owned) with the transitions
//! the MESI protocol needs; the fabric drives it and serialises transactions
//! per block with the L2 line's busy bit.

use ifence_types::{BlockAddr, CoreId};

/// Stable sharing state of one block as recorded at its home directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DirectoryState {
    /// No cache holds the block.
    #[default]
    Uncached,
    /// One or more caches hold the block read-only.
    Shared(Vec<CoreId>),
    /// Exactly one cache holds the block with write permission.
    Owned(CoreId),
}

/// Directory entry for one block: the sharing state machine embedded in the
/// block's L2 line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirectoryEntry {
    /// Current sharing state.
    pub state: DirectoryState,
}

impl DirectoryEntry {
    /// A fresh entry (Uncached).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `core` now holds the block read-only (added to sharers).
    pub fn add_sharer(&mut self, core: CoreId) {
        self.state = match std::mem::take(&mut self.state) {
            DirectoryState::Uncached => DirectoryState::Shared(vec![core]),
            DirectoryState::Shared(mut s) => {
                if !s.contains(&core) {
                    s.push(core);
                }
                DirectoryState::Shared(s)
            }
            DirectoryState::Owned(owner) => {
                // An owner being added as a sharer means a downgrade happened.
                let mut s = vec![owner];
                if !s.contains(&core) {
                    s.push(core);
                }
                DirectoryState::Shared(s)
            }
        };
    }

    /// Records that `core` now exclusively owns the block.
    pub fn set_owner(&mut self, core: CoreId) {
        self.state = DirectoryState::Owned(core);
    }

    /// Records that no cache holds the block.
    pub fn set_uncached(&mut self) {
        self.state = DirectoryState::Uncached;
    }

    /// Removes `core` from the sharer list / ownership (silent eviction or
    /// writeback). Leaves other sharers intact.
    pub fn remove_holder(&mut self, core: CoreId) {
        self.state = match std::mem::take(&mut self.state) {
            DirectoryState::Uncached => DirectoryState::Uncached,
            DirectoryState::Owned(owner) if owner == core => DirectoryState::Uncached,
            DirectoryState::Owned(owner) => DirectoryState::Owned(owner),
            DirectoryState::Shared(mut s) => {
                s.retain(|c| *c != core);
                if s.is_empty() {
                    DirectoryState::Uncached
                } else {
                    DirectoryState::Shared(s)
                }
            }
        };
    }

    /// Clears `out` and fills it with the caches (other than `except`) that
    /// must be invalidated to grant `except` write permission. Takes a buffer
    /// so the fabric's request path can reuse one scratch vector across
    /// transactions.
    pub fn holders_except_into(&self, except: CoreId, out: &mut Vec<CoreId>) {
        out.clear();
        match &self.state {
            DirectoryState::Uncached => {}
            DirectoryState::Owned(owner) => {
                if *owner != except {
                    out.push(*owner);
                }
            }
            DirectoryState::Shared(s) => out.extend(s.iter().copied().filter(|c| *c != except)),
        }
    }

    /// Clears `out` and fills it with every cache currently recorded as
    /// holding the block (the recall targets when this entry's L2 line is
    /// evicted).
    pub fn holders_into(&self, out: &mut Vec<CoreId>) {
        out.clear();
        match &self.state {
            DirectoryState::Uncached => {}
            DirectoryState::Owned(owner) => out.push(*owner),
            DirectoryState::Shared(s) => out.extend_from_slice(s),
        }
    }

    /// True when no L1 holds the block — the condition under which its L2
    /// line may be dropped without recalls (inclusion).
    pub fn is_uncached(&self) -> bool {
        matches!(self.state, DirectoryState::Uncached)
    }

    /// The current exclusive owner, if any.
    pub fn owner(&self) -> Option<CoreId> {
        match &self.state {
            DirectoryState::Owned(o) => Some(*o),
            _ => None,
        }
    }
}

/// The home node of `block` on a machine with `nodes` nodes
/// (address-interleaved: block number modulo the node count, matching both
/// the paper's directory placement and the L2 bank interleaving).
pub fn home_of(block: BlockAddr, nodes: usize) -> CoreId {
    CoreId((block.number() as usize) % nodes.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::Addr;

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn home_is_interleaved() {
        assert_eq!(home_of(blk(0), 16), CoreId(0));
        assert_eq!(home_of(blk(64), 16), CoreId(1));
        assert_eq!(home_of(blk(64 * 17), 16), CoreId(1));
        assert_eq!(home_of(blk(64), 0), CoreId(0), "degenerate node count is clamped");
    }

    #[test]
    fn uncached_to_shared_and_back() {
        let mut e = DirectoryEntry::new();
        assert_eq!(e.state, DirectoryState::Uncached);
        assert!(e.is_uncached());
        e.add_sharer(CoreId(1));
        e.add_sharer(CoreId(2));
        e.add_sharer(CoreId(2));
        assert_eq!(e.state, DirectoryState::Shared(vec![CoreId(1), CoreId(2)]));
        let mut out = Vec::new();
        e.holders_except_into(CoreId(2), &mut out);
        assert_eq!(out, [CoreId(1)]);
        e.holders_into(&mut out);
        assert_eq!(out, [CoreId(1), CoreId(2)]);
        e.remove_holder(CoreId(1));
        e.remove_holder(CoreId(2));
        assert!(e.is_uncached());
    }

    #[test]
    fn ownership_transitions() {
        let mut e = DirectoryEntry::new();
        e.set_owner(CoreId(3));
        assert_eq!(e.owner(), Some(CoreId(3)));
        let mut out = vec![CoreId(9)];
        e.holders_except_into(CoreId(3), &mut out);
        assert!(out.is_empty(), "the buffer is cleared before filling");
        e.holders_except_into(CoreId(0), &mut out);
        assert_eq!(out, [CoreId(3)]);
        e.holders_into(&mut out);
        assert_eq!(out, [CoreId(3)]);
        // A downgrade adds the old owner and the new reader as sharers.
        e.add_sharer(CoreId(0));
        assert_eq!(e.state, DirectoryState::Shared(vec![CoreId(3), CoreId(0)]));
        assert_eq!(e.owner(), None);
    }

    #[test]
    fn uncached_to_owned_directly() {
        // A GetM (or a GetS granted Exclusive) takes Uncached straight to
        // Owned without passing through Shared.
        let mut e = DirectoryEntry::new();
        e.set_owner(CoreId(2));
        assert_eq!(e.state, DirectoryState::Owned(CoreId(2)));
        // A second owner replaces the first (invalidation already happened).
        e.set_owner(CoreId(1));
        assert_eq!(e.owner(), Some(CoreId(1)));
        e.set_uncached();
        assert!(e.is_uncached());
    }

    #[test]
    fn remove_nonholder_is_harmless() {
        let mut e = DirectoryEntry::new();
        e.set_owner(CoreId(1));
        e.remove_holder(CoreId(2));
        assert_eq!(e.owner(), Some(CoreId(1)));
        e.remove_holder(CoreId(1));
        assert!(e.is_uncached());
    }

    #[test]
    fn shared_survives_partial_removal() {
        let mut e = DirectoryEntry::new();
        for c in [0, 1, 2] {
            e.add_sharer(CoreId(c));
        }
        e.remove_holder(CoreId(1));
        assert_eq!(e.state, DirectoryState::Shared(vec![CoreId(0), CoreId(2)]));
        assert!(!e.is_uncached());
    }
}
