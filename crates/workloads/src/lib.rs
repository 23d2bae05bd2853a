//! Synthetic workloads approximating the paper's evaluation suite (Figure 7),
//! plus litmus-test programs for checking consistency enforcement.
//!
//! The original evaluation runs full-system traces of Apache, Zeus, Oracle,
//! DB2 and SPLASH-2 codes; those binaries and traces are not available, so
//! this crate generates seeded synthetic instruction traces whose
//! memory-operation statistics (synchronisation frequency, store burstiness,
//! sharing, working-set size) are chosen per workload so that the conventional
//! SC/TSO/RMO baselines reproduce the ordering-stall profile of Figure 1.
//! The substitution is described in PAPER.md, "Modelling approximations".
//!
//! * [`WorkloadSpec`] — the tunable statistical model of one workload.
//! * [`Workload`] — the runnable abstraction: a steady spec or a
//!   [`PhasedWorkload`] whose spec switches mid-run, expanded per core into
//!   streaming [`GeneratorSource`]s (bounded replay window, O(window)
//!   memory) or materialized `Vec<Program>` traces that are byte-identical
//!   to the stream.
//! * [`presets`] — one preset per paper workload (Apache, Zeus, OLTP-Oracle,
//!   OLTP-DB2, DSS-DB2, Barnes, Ocean) plus the phased `ServerSwings`
//!   scenario.
//! * [`litmus`] — message-passing, store-buffering (Dekker), load-buffering
//!   and IRIW litmus tests whose forbidden outcomes must never appear under
//!   SC enforcement.
//!
//! # Example
//!
//! ```
//! use ifence_workloads::presets;
//!
//! let apache = presets::apache();
//! let programs = apache.generate(4, 2_000, 42);
//! assert_eq!(programs.len(), 4);
//! assert!(programs[0].len() >= 2_000);
//! // Generation is deterministic for a given seed.
//! assert_eq!(programs, apache.generate(4, 2_000, 42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod litmus;
pub mod presets;
pub mod rng;
pub mod spec;
pub mod workload;

pub use generator::GeneratorSource;
pub use litmus::{LitmusKind, LitmusTest};
pub use presets::{all_presets, all_workloads, by_name, workload_by_name};
pub use rng::TraceRng;
pub use spec::WorkloadSpec;
pub use workload::{PhasedWorkload, Workload, WorkloadPhase};
