//! `ifence_store` — the content-addressed experiment store and result cache.
//!
//! The paper's evaluation is a large cross-product of engine kinds ×
//! workloads × configuration sweeps, and every cell of it is a *pure
//! function* of its inputs: the machine configuration (engine, store buffer,
//! speculation policy, latencies, seed), the workload recipe, the trace
//! budget and the cycle limit. This crate exploits that purity by keying
//! each cell with a stable structural hash of exactly those inputs
//! ([`CellKey`], [`key::SCHEMA_VERSION`]) and persisting the resulting
//! [`ifence_stats::RunSummary`] in JSONL shards with atomic
//! tmp-file + rename writes ([`ExperimentStore`]). On top of the cache:
//!
//! * **Resumable sweeps** — `ifence_sim::sweep` looks every cell up before
//!   dispatch and writes each computed cell behind as it completes, so an
//!   interrupted `ExperimentMatrix` resumes where it stopped and a warm
//!   re-run of the full figure suite is pure cache hits.
//! * **Sweep manifests** ([`SweepManifest`]) — an index per named sweep,
//!   enough to re-render its tables (`ifence report`) without re-simulating.
//! * **Run comparison** ([`diff::diff_sweeps`]) — cycle-count and
//!   runtime-breakdown deltas between two stored sweeps, with a threshold
//!   that turns flagged slowdowns into a regression gate.
//!
//! serde is unavailable offline, so serialization is hand-rolled on a
//! deterministic JSON document model ([`json::Json`]). Every hashed or
//! stored type encodes ([`codec::JsonCodec`]); only what the store reads
//! back also decodes ([`codec::JsonDecode`]): run summaries, sweep manifests
//! and trace events. A decoded summary re-encodes byte-identically
//! (property-tested with seeded [`ifence_workloads::TraceRng`] loops);
//! configurations and workloads are only ever encoded into cache keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod diff;
pub mod json;
pub mod key;
pub mod store;

pub use codec::{trace_from_jsonl, trace_to_jsonl, CodecError, JsonCodec, JsonDecode};
pub use diff::{diff_sweeps, DiffReport, DiffRow};
pub use json::{Json, JsonError};
pub use key::{fnv1a, CellKey, SCHEMA_VERSION};
pub use store::{slug, CacheStats, ExperimentStore, ManifestRow, SweepManifest};
