//! Conventional (non-speculative) implementations of SC, TSO, and RMO.
//!
//! These are the baseline memory-consistency implementations of Section 2.1 /
//! Figure 2 of the paper. They are expressed as
//! [`OrderingEngine`](ifence_cpu::OrderingEngine)s whose retirement rules are:
//!
//! | Model | Load | Store | Atomic | Fence |
//! |-------|------|-------|--------|-------|
//! | SC    | store buffer must be empty | FIFO buffer (stall if full) | drain buffer + write permission | n/a |
//! | TSO   | —    | FIFO buffer (stall if full) | drain buffer + write permission | drain buffer |
//! | RMO   | —    | to cache on hit, else coalescing buffer | write permission | drain buffer |
//!
//! The "—" entries retire without memory-ordering constraints. "Drain buffer"
//! stalls are attributed to the paper's "SB drain" bucket, full-buffer stalls
//! to "SB full".
//!
//! # Example
//!
//! ```
//! use ifence_consistency::ConventionalEngine;
//! use ifence_cpu::OrderingEngine;
//! use ifence_types::ConsistencyModel;
//!
//! let engine = ConventionalEngine::new(ConsistencyModel::Tso);
//! assert_eq!(engine.model(), ConsistencyModel::Tso);
//! assert!(!engine.speculating());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conventional;
pub mod reference;

pub use conventional::ConventionalEngine;
pub use reference::{figure2_rows, Figure2Row};
