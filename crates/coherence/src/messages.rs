//! Messages exchanged between cores (L1 controllers) and the coherence fabric.

use ifence_mem::{BlockData, LineState};
use ifence_types::{BlockAddr, CoreId};
use std::fmt;

/// Identifier of a coherence transaction, unique within one fabric instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// What a core asks the fabric to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceReqKind {
    /// Fetch the block for reading (grants Shared, or Exclusive if no other
    /// cache holds it).
    GetS,
    /// Fetch the block with write permission, invalidating all other copies.
    /// Also used as an upgrade when the requester already holds the block
    /// Shared.
    GetM,
    /// Write a dirty block back to the L2/memory and surrender ownership.
    WritebackDirty(BlockData),
    /// Surrender ownership of a clean Exclusive block.
    WritebackClean,
}

/// A request issued by a core's L1 miss handling or writeback path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceRequest {
    /// The requesting core.
    pub core: CoreId,
    /// The block concerned.
    pub block: BlockAddr,
    /// What is being requested.
    pub kind: CoherenceReqKind,
}

/// A message the fabric delivers to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The data response completing one of this core's requests.
    Fill {
        /// Destination core.
        core: CoreId,
        /// The block being filled.
        block: BlockAddr,
        /// Coherence state granted.
        state: LineState,
        /// Block data.
        data: BlockData,
        /// The transaction this fill completes.
        txn: TxnId,
    },
    /// An external write request: the core must invalidate its copy (or defer
    /// under commit-on-violate) and acknowledge.
    Invalidate {
        /// Destination core (current holder).
        core: CoreId,
        /// The block to invalidate.
        block: BlockAddr,
        /// The transaction awaiting this acknowledgement.
        txn: TxnId,
        /// The core whose GetM triggered the invalidation — or, for an
        /// inclusion recall, the home node evicting the line.
        requester: CoreId,
        /// True when this invalidation is an inclusion recall (the home
        /// node's L2 is evicting the line), as opposed to a remote writer's
        /// GetM. Cores treat both identically — the flag only feeds
        /// statistics — which is precisely how recalls interact with
        /// speculative state through the ordinary external-request path.
        recall: bool,
    },
    /// An external read request: the core must downgrade its exclusive copy to
    /// Shared, supplying dirty data if it had modified the block.
    Downgrade {
        /// Destination core (current owner).
        core: CoreId,
        /// The block to downgrade.
        block: BlockAddr,
        /// The transaction awaiting this acknowledgement.
        txn: TxnId,
        /// The core whose GetS triggered the downgrade.
        requester: CoreId,
    },
}

impl Delivery {
    /// The core this delivery is addressed to.
    pub fn core(&self) -> CoreId {
        match self {
            Delivery::Fill { core, .. }
            | Delivery::Invalidate { core, .. }
            | Delivery::Downgrade { core, .. } => *core,
        }
    }

    /// The block this delivery concerns.
    pub fn block(&self) -> BlockAddr {
        match self {
            Delivery::Fill { block, .. }
            | Delivery::Invalidate { block, .. }
            | Delivery::Downgrade { block, .. } => *block,
        }
    }
}

/// A core's reply to an [`Delivery::Invalidate`] or [`Delivery::Downgrade`].
/// A core that defers a request (commit-on-violate, ASO's commit drain)
/// sends nothing until it acknowledges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopReply {
    /// The external request was honoured. `dirty_data` carries the block's
    /// modified contents if this core held it Modified.
    Ack {
        /// The responding core.
        core: CoreId,
        /// The transaction being acknowledged.
        txn: TxnId,
        /// Dirty data to merge into the fabric's backing store, if any.
        dirty_data: Option<BlockData>,
    },
}

impl SnoopReply {
    /// The transaction this reply belongs to.
    pub fn txn(&self) -> TxnId {
        let SnoopReply::Ack { txn, .. } = self;
        *txn
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
    fn delivery_accessors() {
        let d = Delivery::Invalidate {
            core: CoreId(2),
            block: blk(0x40),
            txn: TxnId(7),
            requester: CoreId(1),
            recall: false,
        };
        assert_eq!(d.core(), CoreId(2));
        assert_eq!(d.block(), blk(0x40));

        let f = Delivery::Fill {
            core: CoreId(0),
            block: blk(0x80),
            state: LineState::Shared,
            data: BlockData::zeroed(),
            txn: TxnId(1),
        };
        assert_eq!(f.core(), CoreId(0));
        assert_eq!(f.block(), blk(0x80));
    }

    #[test]
    fn snoop_reply_txn() {
        let a = SnoopReply::Ack { core: CoreId(0), txn: TxnId(3), dirty_data: None };
        let d = SnoopReply::Ack {
            core: CoreId(1),
            txn: TxnId(4),
            dirty_data: Some(BlockData::zeroed()),
        };
        assert_eq!(a.txn(), TxnId(3));
        assert_eq!(d.txn(), TxnId(4));
    }

    #[test]
    fn txn_display() {
        assert_eq!(TxnId(12).to_string(), "txn12");
    }
}
