//! Fundamental types shared by every crate of the InvisiFence reproduction.
//!
//! This crate defines the vocabulary of the simulated machine:
//!
//! * [`Addr`], [`BlockAddr`], [`CoreId`] and [`Cycle`] — newtypes for
//!   addresses, cache-block addresses, processor identifiers and simulated
//!   time ([`addr`]).
//! * [`Instruction`] and [`Program`] — the trace representation consumed by
//!   the core timing model ([`instr`]).
//! * [`InstructionSource`] — streaming trace delivery within a bounded
//!   replay window, with adapters for materialized programs ([`source`]).
//! * [`ConsistencyModel`] and [`EngineKind`] — which memory-ordering rules a
//!   core enforces and which implementation (conventional, InvisiFence
//!   selective/continuous, ASO) enforces them ([`model`]).
//! * [`MachineConfig`] and its sub-configurations — the simulated machine
//!   parameters of Figure 6 of the paper ([`config`]).
//! * [`CycleClass`] and [`StallReason`] — the five execution-time buckets of
//!   Figures 9, 11 and 12 ([`stall`]).
//! * [`CoreActivity`] — per-cycle activity reports with next-wake hints, the
//!   contract between cores and the event-driven simulation kernel
//!   ([`activity`]).
//! * [`parse_flag`] — the one grammar of the boolean environment flags
//!   ([`flag`]).
//!
//! # Example
//!
//! ```
//! use ifence_types::{Addr, BlockAddr, MachineConfig};
//!
//! let cfg = MachineConfig::paper_baseline();
//! assert_eq!(cfg.cores, 16);
//! let a = Addr::new(0x1_2345);
//! let b = BlockAddr::containing(a, cfg.l1.block_bytes);
//! assert_eq!(b.byte_addr().raw() % cfg.l1.block_bytes as u64, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod addr;
pub mod config;
pub mod flag;
pub mod fnv;
pub mod instr;
pub mod model;
pub mod routing;
pub mod source;
pub mod stall;

pub use activity::{earliest_wake, CoreActivity};
pub use addr::{Addr, BlockAddr, CoreId, Cycle, WordOffset};
pub use config::{
    CacheConfig, CoreConfig, DramConfig, EngineKind, InterconnectConfig, L2Config, MachineConfig,
    SpeculationConfig, StoreBufferConfig, MAX_CORES,
};
pub use flag::parse_flag;
pub use fnv::{fnv1a, FnvBuildHasher, FnvMap, FnvSet};
pub use instr::{FenceKind, InstrKind, Instruction, Program};
pub use model::{ConsistencyModel, StoreBufferKind};
pub use routing::RoutingTable;
pub use source::{BoxedSource, EmptySource, InstructionSource, ProgramSource};
pub use stall::{CycleClass, StallReason};
