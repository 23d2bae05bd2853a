//! Directory-based MESI cache-coherence fabric.
//!
//! This crate models everything *beyond* the per-core L1 caches of the
//! paper's machine: the banked, address-interleaved shared L2 with directory
//! state embedded in its tags, the DRAM tier behind it, and the 4×4 torus
//! interconnect that connects them. The fabric is transaction-serialised:
//! each GetS/GetM is processed at its home bank — an L2 hit pays the hit
//! latency, a miss fetches from DRAM — which sends invalidations or
//! downgrades to remote L1s (these are exactly the external requests
//! InvisiFence snoops to detect ordering violations), collects their
//! acknowledgements — which a core running the commit-on-violate policy may
//! *defer* — and finally delivers the data fill to the requester with
//! torus-latency timing. The hierarchy is inclusive: an L2 line whose
//! embedded directory entry still records L1 holders is evicted only after a
//! *recall* invalidates those holders, and recalls flow through the same
//! external-request path as any remote write.
//!
//! The fabric communicates with cores purely through value messages
//! ([`Delivery`] out, [`SnoopReply`] / [`CoherenceRequest`] in), so the
//! machine model can own both sides without borrow contortions.
//!
//! # Example
//!
//! ```
//! use ifence_coherence::{CoherenceFabric, CoherenceRequest, CoherenceReqKind, Delivery, FabricConfig};
//! use ifence_types::{Addr, BlockAddr, CoreId, MachineConfig};
//!
//! let cfg = FabricConfig::from_machine(&MachineConfig::paper_baseline());
//! let mut fabric = CoherenceFabric::new(cfg);
//! let block = BlockAddr::containing(Addr::new(0x4000), 64);
//! fabric.request(CoherenceRequest { core: CoreId(0), block, kind: CoherenceReqKind::GetS }, 0);
//! // Advance time until the fill comes back.
//! let mut fills = 0;
//! for cycle in 0..10_000 {
//!     for d in fabric.step(cycle) {
//!         if let Delivery::Fill { core, .. } = d {
//!             assert_eq!(core, CoreId(0));
//!             fills += 1;
//!         }
//!     }
//! }
//! assert_eq!(fills, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory;
pub mod event_queue;
pub mod fabric;
pub mod messages;
mod slab;

pub use directory::{home_of, DirectoryEntry, DirectoryState};
pub use event_queue::EventQueue;
pub use fabric::{CoherenceFabric, FabricConfig};
pub use messages::{CoherenceReqKind, CoherenceRequest, Delivery, SnoopReply, TxnId};
