//! Conventional (non-speculative) implementations of SC, TSO, and RMO.
//!
//! These are the baseline memory-consistency implementations of Section 2.1 /
//! Figure 2 of the paper, expressed as
//! [`OrderingEngine`](ifence_cpu::OrderingEngine)s. What each instruction
//! waits for at retirement is [`retire_wait`], the one rule the
//! conventional, InvisiFence-Selective and ASO engines share (and the
//! Continuous engine's forward-progress retirement): a conventional
//! engine turns each wait into a stall ("drain buffer" and write-permission
//! waits count as the paper's "SB drain" bucket, a full buffer as "SB
//! full").
//!
//! # Example
//!
//! ```
//! use ifence_consistency::ConventionalEngine;
//! use ifence_cpu::{CheckpointLedger, OrderingEngine};
//! use ifence_types::ConsistencyModel;
//!
//! let engine = ConventionalEngine::new(ConsistencyModel::Tso);
//! assert_eq!(engine.model(), ConsistencyModel::Tso);
//! assert!(!engine.tick_live(&CheckpointLedger::default()), "nothing to maintain");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conventional;
pub mod reference;

pub use conventional::ConventionalEngine;
pub use reference::{
    figure2_rows, head_wait, request_write_permission, retire_in_order, retire_wait, Figure2Row,
    RetireWait,
};
