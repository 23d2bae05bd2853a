//! Memory structures for the InvisiFence reproduction.
//!
//! This crate provides the storage structures the paper's machine is built
//! from, all at cache-block granularity:
//!
//! * [`SetAssocCache`] — a set-associative L1 data cache whose tags carry the
//!   speculatively-read / speculatively-written bits InvisiFence adds
//!   (Section 3.1): Figure 3's marks sit in the tag itself, one byte beside
//!   the block number, LRU stamp and coherence state, so a probe, a victim
//!   choice and a speculative check read one 16-byte tag. Per-mark logs of
//!   the marked lines give the two single-cycle flash operations (clear and
//!   conditional invalidate) a cost proportional to the lines marked.
//! * [`VictimCache`] — the 16-entry fully-associative victim cache of the
//!   paper's L1 configuration.
//! * [`MshrFile`] — miss-status holding registers tracking outstanding misses.
//! * [`StoreBuffer`] — the two store-buffer organizations of Figure 2 /
//!   Figure 5: the word-granularity FIFO used by conventional SC/TSO and the
//!   block-granularity coalescing buffer used by conventional RMO and every
//!   speculative engine.
//! * [`L1Cache`] — the combination of cache + victim cache used by a core.
//! * [`BankedL2`] — the shared, banked, address-interleaved L2 whose lines
//!   embed a caller-supplied directory payload (the coherence fabric embeds
//!   sharer/owner state in the L2 tags through it). A resident line never
//!   moves, so the [`L2Handle`] a probe or fill returns reaches it without
//!   another probe until it leaves.
//!
//! # Example
//!
//! ```
//! use ifence_mem::{L1Cache, LineState, BlockData};
//! use ifence_types::{Addr, BlockAddr, CacheConfig};
//!
//! let cfg = CacheConfig::paper_l1d();
//! let mut l1 = L1Cache::new(&cfg);
//! let block = BlockAddr::containing(Addr::new(0x1000), cfg.block_bytes);
//! assert_eq!(l1.peek(block), LineState::Invalid);
//! l1.fill(block, LineState::Exclusive, BlockData::zeroed());
//! assert_eq!(l1.peek(block), LineState::Exclusive);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod l1;
pub mod l2;
pub mod line;
pub mod mshr;
mod spec_bits;
pub mod store_buffer;
pub mod victim;

pub use cache::{EvictedLine, FillSlot, SetAssocCache};
pub use l1::{EvictionAction, L1Cache};
pub use l2::{BankedL2, L2Evicted, L2FillOutcome, L2Handle, L2Line};
pub use line::{BlockData, LineState, WORDS_PER_BLOCK};
pub use mshr::{MshrEntry, MshrError, MshrFile};
pub use store_buffer::{SbEntry, SbError, StoreBuffer};
pub use victim::VictimCache;
