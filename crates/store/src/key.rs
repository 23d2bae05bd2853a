//! Content-addressed cache keys for experiment cells.
//!
//! A cell — one `(machine configuration × workload)` simulation at fixed
//! parameters — is keyed by the FNV-1a hash of the canonical JSON encoding
//! of everything that determines its result: the complete [`MachineConfig`]
//! (engine, store buffer, speculation policy, latencies, seed), the
//! workload recipe, the trace budget and the cycle limit, plus
//! [`SCHEMA_VERSION`]. Anything *proven* not to affect results is
//! normalized out: the kernel mode
//! (`dense_kernel`, byte-identical by `tests/kernel_equivalence.rs`),
//! tracing (`trace`) and the sweep parallelism (never part of the config)
//! do not reach the hash, so dense-mode debug runs and event-driven runs
//! share cache entries.
//!
//! The full key JSON is stored alongside each entry and compared on lookup,
//! so a 64-bit hash collision degrades to a cache miss, never to a wrong
//! result.

use crate::codec::JsonCodec;
use crate::json::Json;
use ifence_types::MachineConfig;
use ifence_workloads::Workload;

/// Version of the stored-result schema. Bump whenever the simulator's
/// observable behaviour or the serialized layout changes in a way that makes
/// old entries stale; old entries then simply stop matching instead of being
/// misread.
///
/// v2: the memory hierarchy became real — `L2Config` lost `memory_latency`
/// to the new `DramConfig`, `InterconnectConfig` gained `retry_interval`,
/// and `RunSummary` gained the fabric's L2/DRAM counters.
///
/// v3: `MachineConfig` gained `batch_kernel` (serialized layout change; the
/// flag itself is normalized out of keys like `dense_kernel`, because all
/// three kernel modes are byte-identical).
///
/// v4: `MachineConfig` gained `machine_threads` (serialized layout change;
/// the field itself is normalized out of keys like the kernel flags, because
/// the epoch-parallel kernel is byte-identical at every thread count).
///
/// v5: the telemetry layer — `MachineConfig` gained `trace` (normalized out
/// of keys: tracing never changes simulated results) and `RunSummary`
/// gained the `histograms` block (serialized layout change).
///
/// v6: `MachineConfig` gained a multi-cycle execution flag (serialized
/// layout change; normalized out of keys like the other kernel flags).
///
/// v7: `MachineConfig` no longer serializes its two execution-path flags
/// (serialized layout change: every kernel runs the one guarded core
/// pipeline, so neither flag selects anything).
///
/// v8: `MachineConfig` no longer serializes `machine_threads` (serialized
/// layout change: every machine runs on one host thread, so the count
/// selects nothing).
pub const SCHEMA_VERSION: u64 = 8;

/// FNV-1a over a byte string (the store's only hash; deterministic across
/// platforms and runs, unlike `std`'s `DefaultHasher`). Re-exported from
/// [`ifence_types::fnv`], which also backs the fabric's hot-path maps.
pub use ifence_types::fnv::fnv1a;

/// The content-addressed identity of one experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// FNV-1a hash of [`CellKey::canonical_json`] — the shard/index key.
    pub hash: u64,
    /// The canonical key document, kept verbatim for collision checking and
    /// for human inspection of stored shards.
    canonical: String,
}

impl CellKey {
    /// Builds the key for one cell. `machine` must already carry the run's
    /// seed and engine (as produced by the experiment runner); its
    /// `dense_kernel` / `trace` flags are normalized before hashing because
    /// both kernel modes and every tracing setting produce byte-identical
    /// results.
    pub fn new(
        machine: &MachineConfig,
        workload: &Workload,
        instructions_per_core: usize,
        max_cycles: u64,
    ) -> Self {
        let mut machine = machine.clone();
        machine.dense_kernel = false;
        machine.trace = false;
        let doc = Json::Object(vec![
            ("schema".to_string(), Json::UInt(SCHEMA_VERSION)),
            ("machine".to_string(), machine.to_json()),
            ("workload".to_string(), workload.to_json()),
            ("instructions_per_core".to_string(), Json::UInt(instructions_per_core as u64)),
            ("max_cycles".to_string(), Json::UInt(max_cycles)),
        ]);
        let canonical = doc.encode();
        CellKey { hash: fnv1a(canonical.as_bytes()), canonical }
    }

    /// Rebuilds a key from a stored canonical document (shard loading).
    pub(crate) fn from_canonical(canonical: String) -> Self {
        CellKey { hash: fnv1a(canonical.as_bytes()), canonical }
    }

    /// The canonical key JSON this cell hashes.
    pub fn canonical_json(&self) -> &str {
        &self.canonical
    }

    /// The hash as the fixed-width hex string used in shard files and
    /// manifests.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// Which shard file this key lives in (low byte of the hash).
    pub(crate) fn shard(&self) -> u8 {
        (self.hash & 0xff) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::{ConsistencyModel, EngineKind};
    use ifence_workloads::presets;

    fn key(engine: EngineKind, instrs: usize) -> CellKey {
        let mut cfg = MachineConfig::small_test(engine);
        cfg.seed = 7;
        CellKey::new(&cfg, &presets::barnes().into(), instrs, 1_000_000)
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let engine = EngineKind::InvisiSelective(ConsistencyModel::Rmo);
        let a = key(engine, 1000);
        let b = key(engine, 1000);
        assert_eq!(a, b, "same inputs must produce the same key");
        assert_ne!(a.hash, key(engine, 1001).hash, "trace budget is part of the key");
        assert_ne!(
            a.hash,
            key(EngineKind::Conventional(ConsistencyModel::Rmo), 1000).hash,
            "engine is part of the key"
        );
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn dense_kernel_flag_is_normalized_out() {
        let engine = EngineKind::Conventional(ConsistencyModel::Sc);
        let mut cfg = MachineConfig::small_test(engine);
        cfg.seed = 7;
        let sparse = CellKey::new(&cfg, &presets::barnes().into(), 500, 1_000_000);
        cfg.dense_kernel = true;
        let dense = CellKey::new(&cfg, &presets::barnes().into(), 500, 1_000_000);
        assert_eq!(sparse, dense, "kernel mode is proven byte-identical; keys must match");
    }

    #[test]
    fn trace_flag_is_normalized_out() {
        let engine = EngineKind::Conventional(ConsistencyModel::Sc);
        let mut cfg = MachineConfig::small_test(engine);
        cfg.seed = 7;
        let untraced = CellKey::new(&cfg, &presets::barnes().into(), 500, 1_000_000);
        cfg.trace = true;
        let traced = CellKey::new(&cfg, &presets::barnes().into(), 500, 1_000_000);
        assert_eq!(untraced, traced, "tracing never changes results; keys must match");
    }

    #[test]
    fn seed_is_part_of_the_key() {
        let engine = EngineKind::Conventional(ConsistencyModel::Sc);
        let mut cfg = MachineConfig::small_test(engine);
        cfg.seed = 7;
        let a = CellKey::new(&cfg, &presets::barnes().into(), 500, 1_000_000);
        cfg.seed = 8;
        let b = CellKey::new(&cfg, &presets::barnes().into(), 500, 1_000_000);
        assert_ne!(a.hash, b.hash);
    }
}
