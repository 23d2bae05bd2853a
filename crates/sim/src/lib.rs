//! Full-machine assembly and experiment runner.
//!
//! This crate glues the substrates together into the paper's evaluated
//! system: a 16-node directory-based multiprocessor in which each node runs a
//! trace-driven out-of-order core under a configurable ordering engine
//! (conventional SC/TSO/RMO, InvisiFence-Selective, InvisiFence-Continuous,
//! or ASO).
//!
//! * [`Machine`] — builds the cores and the coherence fabric from a
//!   [`ifence_types::MachineConfig`] and one per-core trace source
//!   ([`Machine::from_sources`] streams through bounded replay windows;
//!   [`Machine::new`] adapts pre-materialized programs), and runs them under
//!   the event-driven simulation kernel, which skips provably quiescent
//!   cycles (byte-identical to the dense poll-every-cycle debug mode,
//!   `IFENCE_DENSE=1`) and stops immediately with a diagnostic when it
//!   proves the machine deadlocked. One machine runs on one host thread.
//!   [`Machine::into_result`] is the consuming finalisation path that moves
//!   (never clones) the per-core statistics into the
//!   [`machine::MachineResult`].
//! * [`runner`] — convenience functions that run one
//!   [`ifence_workloads::Workload`] (steady preset or phased scenario) under
//!   one engine and return a [`ifence_stats::RunSummary`]; experiment sizes
//!   are controlled by [`runner::ExperimentParams`] (override with the
//!   `IFENCE_INSTRS` / `IFENCE_SEED` environment variables).
//! * [`sweep`] — the parallel experiment-sweep engine: an
//!   [`sweep::ExperimentMatrix`] of (machine configuration × workload) cells
//!   executed across scoped worker threads (`IFENCE_JOBS`, default:
//!   available cores) with results collected in grid order, byte-identical
//!   at any parallelism.
//! * [`figures`] — the one ordered list of sections behind `ifence figures`:
//!   every table of the paper (Figures 1, 2, 4–12) and the sensitivity
//!   sweeps (L2 capacity, store buffer, minimum chunk, CoV timeout), the
//!   simulated ones routed through the sweep engine.
//! * **Result caching** — [`sweep::ExperimentMatrix::run_cached`] and the
//!   [`figures::FigureContext`] thread an [`ifence_store::ExperimentStore`]
//!   through the sweep: cells are looked up before dispatch and persisted
//!   the moment they complete, so interrupted sweeps resume where they
//!   stopped and warm re-runs perform zero simulations. [`persist`] adds the
//!   full-[`MachineResult`] JSON codec.
//!
//! # Example
//!
//! ```
//! use ifence_sim::Machine;
//! use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
//! use ifence_workloads::WorkloadSpec;
//!
//! let cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Tso));
//! let programs = WorkloadSpec::uniform("demo").generate(cfg.cores, 500, 1);
//! let mut machine = Machine::new(cfg, programs).unwrap();
//! let result = machine.run(2_000_000);
//! assert!(result.finished);
//! assert!(result.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod machine;
pub mod persist;
pub mod runner;
pub mod sweep;

pub use machine::{Machine, MachineResult};
pub use runner::{available_jobs, run_experiment, run_litmus, ExperimentParams};
pub use sweep::{cell_key, engine_configs, manifest_for_grid, ExperimentMatrix, SweepRun};
