//! InvisiFence: performance-transparent memory ordering via post-retirement
//! speculation.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Sections 3 and 4). It provides ordering engines (see
//! [`ifence_cpu::OrderingEngine`]) that turn the memory-ordering stalls of
//! conventional consistency implementations into bounded speculation:
//!
//! * [`InvisiSelectiveEngine`] — InvisiFence-Selective (Section 4.1):
//!   speculate only when retirement would otherwise stall for an ordering
//!   constraint of the target model (SC, TSO, or RMO); commit
//!   opportunistically, in constant time, as soon as the store buffer drains.
//!   Supports the optional second in-flight checkpoint of Section 6.4.
//! * [`InvisiContinuousEngine`] — InvisiFence-Continuous (Section 4.2):
//!   execute everything inside speculative chunks (≥ ~100 instructions),
//!   marking reads at execute time, with pipelined chunk commit
//!   over two checkpoints and the optional commit-on-violate deferral policy
//!   (Section 6.6).
//! * [`AsoEngine`] — the ASO baseline of Wenisch et al. (Section 6.4's
//!   comparison): per-store speculative state in a Scalable Store Buffer,
//!   commit by draining into the L2 while stalling external requests, and
//!   periodic intermediate checkpoints for partial rollback.
//!
//! All three keep their checkpoints in the core's
//! [`ifence_cpu::CheckpointLedger`], which does the begin/commit/abort
//! accounting for every engine. Both InvisiFence engines share the mechanism
//! layer in [`kernel`]: the checkpoint budget, per-block
//! speculatively-read/written bits in the L1 (flash-clear commit,
//! conditional flash-invalidate abort), a coalescing store buffer with
//! per-epoch flash invalidation, violation detection driven by external
//! coherence requests, and the one violation policy (abort or
//! commit-on-violate deferral). ASO keeps its own per-store read and write
//! sets and its own policy.
//!
//! # Example
//!
//! ```
//! use invisifence::build_engine;
//! use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
//!
//! let kind = EngineKind::InvisiSelective(ConsistencyModel::Sc);
//! assert_eq!((kind.label(), kind.checkpoints()), ("Invisi_sc".to_string(), 1));
//! let cfg = MachineConfig::with_engine(kind);
//! let engine = build_engine(cfg.engine, &cfg);
//! assert_eq!(engine.next_wake(0), None, "no engine timer is pending");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aso;
pub mod comparison;
pub mod continuous;
pub mod factory;
pub mod kernel;
pub mod selective;

pub use aso::AsoEngine;
pub use comparison::{figure4_rows, figure5_rows, Figure4Row, Figure5Row};
pub use continuous::InvisiContinuousEngine;
pub use factory::build_engine;
pub use kernel::SpeculationKernel;
pub use selective::InvisiSelectiveEngine;
