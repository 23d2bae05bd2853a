//! The on-disk experiment store: JSONL shards of cached results plus sweep
//! manifests, all written atomically (tmp file + rename).
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   shards/<xx>.jsonl     one line per cached cell, sharded by the low
//!                         byte of the cell hash; each line is
//!                         {"hash":"…","key":{…},"summary":{…}}
//!   sweeps/<name>.json    one manifest per named sweep: the grid shape and
//!                         the cell hashes, enough to re-render tables
//!                         (`ifence report`) or compare runs (`ifence diff`)
//! ```
//!
//! Every write rewrites the affected file to a hidden temporary sibling and
//! renames it into place, so a killed process leaves either the old or the
//! new file — never a torn one. An interrupted sweep therefore resumes
//! exactly at the first cell that had not yet been persisted.
//!
//! The store is shared across sweep worker threads (`&self` methods,
//! interior mutex); lookups come from an in-memory index loaded once at
//! [`ExperimentStore::open`].

use crate::codec::{obj, CodecError, Fields, JsonCodec, JsonDecode};
use crate::json::Json;
use crate::key::CellKey;
use ifence_stats::RunSummary;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache-effectiveness counters for one sweep (how many cells were served
/// from the store versus simulated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells answered from the store without running a simulation.
    pub hits: usize,
    /// Cells that had to be simulated (and were then written behind).
    pub misses: usize,
}

impl CacheStats {
    /// Total cells looked at.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }

    /// Merges another sweep's counters into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// True when every cell was a hit (a fully warm run).
    pub fn all_hits(&self) -> bool {
        self.misses == 0 && self.hits > 0
    }
}

/// One row of a [`SweepManifest`]: a workload and its cell hashes in config
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRow {
    /// Workload display name.
    pub workload: String,
    /// Cell hash per config, aligned with [`SweepManifest::configs`].
    pub cells: Vec<u64>,
}

/// The index manifest of one named sweep: enough structure to re-render the
/// sweep's tables from stored entries, or to diff it against another sweep.
/// Build one from a grid with `ifence_sim::sweep::manifest_for_grid` (the
/// single place cell hashes and manifest rows are derived).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepManifest {
    /// Manifest name (slug; the file is `sweeps/<name>.json`).
    pub name: String,
    /// Human-readable label ("Figure 8", "custom sweep", …).
    pub figure: String,
    /// Config labels in column order.
    pub configs: Vec<String>,
    /// Instructions per core the sweep ran with.
    pub instructions_per_core: u64,
    /// Workload-generation seed.
    pub seed: u64,
    /// Workload rows in figure order.
    pub rows: Vec<ManifestRow>,
}

impl JsonCodec for SweepManifest {
    fn to_json(&self) -> Json {
        let SweepManifest { name, figure, configs, instructions_per_core, seed, rows } = self;
        let rows = rows.iter().map(|ManifestRow { workload, cells }| {
            let cells = cells.iter().map(|h| Json::Str(format!("{h:016x}"))).collect();
            obj(vec![("workload", Json::Str(workload.clone())), ("cells", Json::Array(cells))])
        });
        obj(vec![
            ("name", Json::Str(name.clone())),
            ("figure", Json::Str(figure.clone())),
            ("configs", Json::Array(configs.iter().map(|c| Json::Str(c.clone())).collect())),
            ("instructions_per_core", Json::UInt(*instructions_per_core)),
            ("seed", Json::UInt(*seed)),
            ("rows", Json::Array(rows.collect())),
        ])
    }
}

impl JsonDecode for SweepManifest {
    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "SweepManifest")?;
        let rows = f
            .array("rows")?
            .iter()
            .map(|row| {
                let r = Fields::new(row, "ManifestRow")?;
                let cells = r
                    .strings("cells")?
                    .into_iter()
                    .map(|hex| {
                        u64::from_str_radix(hex, 16).map_err(|_| r.error("cell hash is not hex"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ManifestRow { workload: r.string("workload")?, cells })
            })
            .collect::<Result<Vec<_>, CodecError>>()?;
        Ok(SweepManifest {
            name: f.string("name")?,
            figure: f.string("figure")?,
            configs: f.strings("configs")?.into_iter().map(String::from).collect(),
            instructions_per_core: f.u64("instructions_per_core")?,
            seed: f.u64("seed")?,
            rows,
        })
    }
}

struct Entry {
    key_json: String,
    summary: RunSummary,
}

/// One shard line, `{"hash":"…","key":{…},"summary":{…}}`. The canonical key
/// is already the compact encoding of the key document, so it is spliced in
/// verbatim.
fn shard_line(hash: u64, entry: &Entry) -> String {
    format!(
        "{{\"hash\":\"{hash:016x}\",\"key\":{},\"summary\":{}}}",
        entry.key_json,
        entry.summary.to_json().encode()
    )
}

/// The persistent, content-addressed result cache.
pub struct ExperimentStore {
    root: PathBuf,
    entries: Mutex<HashMap<u64, Entry>>,
    tmp_counter: AtomicU64,
}

impl ExperimentStore {
    /// The store root the tools use when none is given explicitly: the
    /// `IFENCE_STORE` environment variable, falling back to `.ifence-store`
    /// in the current directory.
    pub fn default_root() -> PathBuf {
        match std::env::var("IFENCE_STORE") {
            Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
            _ => PathBuf::from(".ifence-store"),
        }
    }

    /// Opens (creating if needed) a store rooted at `root` and loads its
    /// index into memory.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the directories cannot be created
    /// or a shard cannot be read. Corrupt shard *lines* are skipped with a
    /// warning on stderr rather than failing the open — a cache must degrade
    /// to recomputation, never block it.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("shards"))?;
        std::fs::create_dir_all(root.join("sweeps"))?;
        let mut entries = HashMap::new();
        for entry in std::fs::read_dir(root.join("shards"))? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
                continue;
            }
            let text = std::fs::read_to_string(&path)?;
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match Self::parse_entry(line) {
                    Ok(Some((key, summary))) => {
                        entries.insert(
                            key.hash,
                            Entry { key_json: key.canonical_json().to_string(), summary },
                        );
                    }
                    // A stale-schema entry is expected after an upgrade, not
                    // corruption: skip it silently (its key can never match a
                    // current lookup anyway).
                    Ok(None) => {}
                    Err(reason) => {
                        eprintln!(
                            "warning: skipping corrupt store entry {}:{}: {reason}",
                            path.display(),
                            lineno + 1
                        );
                    }
                }
            }
        }
        Ok(ExperimentStore { root, entries: Mutex::new(entries), tmp_counter: AtomicU64::new(0) })
    }

    /// Parses one shard line. `Ok(None)` means the entry was written under a
    /// different [`crate::SCHEMA_VERSION`]: it is stale, not corrupt — its
    /// key can never match a current lookup, and its summary may not even
    /// decode under the current codec — so the caller drops it without a
    /// warning.
    fn parse_entry(line: &str) -> Result<Option<(CellKey, RunSummary)>, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let key_doc = doc.field("key").ok_or("missing key")?;
        if key_doc.field("schema").and_then(Json::as_u64) != Some(crate::SCHEMA_VERSION) {
            return Ok(None);
        }
        let key = CellKey::from_canonical(key_doc.encode());
        let hex = match doc.field("hash") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("missing hash".to_string()),
        };
        if hex != key.hex() {
            return Err(format!("hash {hex} does not match key (expected {})", key.hex()));
        }
        let summary = RunSummary::from_json(doc.field("summary").ok_or("missing summary")?)
            .map_err(|e| e.to_string())?;
        Ok(Some((key, summary)))
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("store index poisoned").len()
    }

    /// True when no cells are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a cell up. The stored canonical key is compared verbatim, so a
    /// hash collision reads as a miss, never as a wrong result.
    pub fn get(&self, key: &CellKey) -> Option<RunSummary> {
        let entries = self.entries.lock().expect("store index poisoned");
        entries
            .get(&key.hash)
            .filter(|entry| entry.key_json == key.canonical_json())
            .map(|entry| entry.summary.clone())
    }

    /// Inserts (or overwrites) a cell and persists its shard atomically.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the shard cannot be written; the
    /// in-memory index is updated regardless, so the current process still
    /// benefits from the entry.
    pub fn put(&self, key: &CellKey, summary: &RunSummary) -> io::Result<()> {
        let shard = key.shard();
        // The lock is held across the file write on purpose: two workers
        // finishing cells in the same shard must not race snapshot-then-
        // rename, or the later rename could persist the *earlier* (stale)
        // snapshot and silently drop an entry from disk.
        let mut entries = self.entries.lock().expect("store index poisoned");
        entries.insert(
            key.hash,
            Entry { key_json: key.canonical_json().to_string(), summary: summary.clone() },
        );
        // Collect this shard's lines sorted by hash for stable bytes.
        let mut members: Vec<(&u64, &Entry)> =
            entries.iter().filter(|(hash, _)| (*hash & 0xff) as u8 == shard).collect();
        members.sort_by_key(|(hash, _)| **hash);
        let shard_lines =
            members.into_iter().map(|(hash, entry)| shard_line(*hash, entry)).collect::<Vec<_>>();
        let mut text = shard_lines.join("\n");
        text.push('\n');
        self.write_atomic(&self.root.join("shards").join(format!("{shard:02x}.jsonl")), &text)
    }

    /// Writes (or replaces) a sweep manifest atomically.
    ///
    /// # Errors
    /// Returns the underlying I/O error on failure.
    pub fn write_manifest(&self, manifest: &SweepManifest) -> io::Result<()> {
        let name = slug(&manifest.name);
        let mut text = manifest.to_json().encode();
        text.push('\n');
        self.write_atomic(&self.root.join("sweeps").join(format!("{name}.json")), &text)
    }

    /// Reads a sweep manifest by name (`None` if absent).
    ///
    /// # Errors
    /// Returns an I/O error for unreadable files or a decode description for
    /// corrupt ones.
    pub fn read_manifest(&self, name: &str) -> io::Result<Option<SweepManifest>> {
        let path = self.root.join("sweeps").join(format!("{}.json", slug(name)));
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let doc = Json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        SweepManifest::from_json(&doc)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Names of all stored manifests, sorted.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the sweeps directory cannot be
    /// listed.
    pub fn manifest_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(self.root.join("sweeps"))? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Resolves a manifest back into `(workload, summaries)` rows from the
    /// cached entries.
    ///
    /// # Errors
    /// Returns a description of the first cell that is missing from the
    /// store (e.g. a manifest copied without its shards).
    pub fn resolve(
        &self,
        manifest: &SweepManifest,
    ) -> Result<Vec<(String, Vec<RunSummary>)>, String> {
        let entries = self.entries.lock().expect("store index poisoned");
        manifest
            .rows
            .iter()
            .map(|row| {
                let summaries = row
                    .cells
                    .iter()
                    .map(|hash| {
                        entries.get(hash).map(|entry| entry.summary.clone()).ok_or_else(|| {
                            format!(
                                "sweep {:?}: cell {hash:016x} ({}) is not in the store",
                                manifest.name, row.workload
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((row.workload.clone(), summaries))
            })
            .collect()
    }

    /// Writes `text` to `path` atomically: a hidden temporary sibling is
    /// written, flushed and renamed into place.
    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        let dir = path.parent().expect("store paths always have a parent");
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// Normalizes a sweep name to a filesystem-safe slug (lowercase; runs of
/// non-alphanumerics become single dashes).
pub fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut dash_pending = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if dash_pending && !out.is_empty() {
                out.push('-');
            }
            dash_pending = false;
            out.push(c.to_ascii_lowercase());
        } else {
            dash_pending = true;
        }
    }
    if out.is_empty() {
        "sweep".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
    use ifence_workloads::presets;

    fn tmp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("ifence-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn sample_key(seed: u64) -> CellKey {
        let mut cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Sc));
        cfg.seed = seed;
        CellKey::new(&cfg, &presets::barnes().into(), 500, 1_000_000)
    }

    fn sample_summary(cycles: u64) -> RunSummary {
        RunSummary {
            config: "sc".to_string(),
            workload: "Barnes".to_string(),
            cycles,
            speculation_fraction: 0.25,
            ..Default::default()
        }
    }

    #[test]
    fn put_get_survives_reopen() {
        let root = tmp_root("reopen");
        let key = sample_key(1);
        let summary = sample_summary(42_000);
        {
            let store = ExperimentStore::open(&root).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.get(&key), None);
            store.put(&key, &summary).unwrap();
            assert_eq!(store.get(&key), Some(summary.clone()));
        }
        let store = ExperimentStore::open(&root).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&key), Some(summary));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let root = tmp_root("corrupt");
        let key = sample_key(2);
        {
            let store = ExperimentStore::open(&root).unwrap();
            store.put(&key, &sample_summary(10)).unwrap();
        }
        // Append garbage to the shard the entry landed in.
        let shard = root.join("shards").join(format!("{:02x}.jsonl", (key.hash & 0xff) as u8));
        let mut text = std::fs::read_to_string(&shard).unwrap();
        text.push_str("{ not json\n");
        std::fs::write(&shard, text).unwrap();
        let store = ExperimentStore::open(&root).unwrap();
        assert_eq!(store.len(), 1, "the valid entry survives, the corrupt line is dropped");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A shard line in the `{hash, key, summary}` object form, built through
    /// the document model.
    fn line_from_documents(key: &CellKey, summary: Json) -> String {
        Json::Object(vec![
            ("hash".to_string(), Json::Str(key.hex())),
            ("key".to_string(), Json::parse(key.canonical_json()).unwrap()),
            ("summary".to_string(), summary),
        ])
        .encode()
    }

    #[test]
    fn shard_lines_match_the_document_encoding() {
        // `put` writes each line as text; it must match the line the document
        // model encodes, or every shard's bytes would move.
        let root = tmp_root("shard-bytes");
        let store = ExperimentStore::open(&root).unwrap();
        let key = sample_key(5);
        let mut summary = sample_summary(123);
        summary.breakdown.add(ifence_types::CycleClass::Busy, 99);
        summary.counters.instructions_retired = 4_242;
        summary.histograms.l2_miss_latency.record(300);
        store.put(&key, &summary).unwrap();
        let text =
            std::fs::read_to_string(root.join("shards").join(format!("{:02x}.jsonl", key.shard())))
                .unwrap();
        assert_eq!(text, format!("{}\n", line_from_documents(&key, summary.to_json())));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn breakdowns_past_u64_max_are_skipped_as_corrupt() {
        // Buckets whose sum overflows would wrap `CycleBreakdown::total` in
        // every report: such a line is corrupt (warned about), not stale.
        let root = tmp_root("overflow");
        let key = sample_key(6);
        {
            let store = ExperimentStore::open(&root).unwrap();
            store.put(&key, &sample_summary(10)).unwrap();
        }
        let bad_key = sample_key(7);
        let mut summary = sample_summary(20).to_json();
        if let Json::Object(fields) = &mut summary {
            for (name, value) in fields.iter_mut() {
                if name == "breakdown" {
                    if let Json::Object(buckets) = value {
                        for (_, cycles) in buckets.iter_mut() {
                            *cycles = Json::UInt(u64::MAX);
                        }
                    }
                }
            }
        }
        let line = line_from_documents(&bad_key, summary);
        let err = ExperimentStore::parse_entry(&line).unwrap_err();
        assert!(err.contains("u64::MAX"), "{err}");
        let shard = root.join("shards").join(format!("{:02x}.jsonl", key.shard()));
        let mut text = std::fs::read_to_string(&shard).unwrap();
        text.push_str(&line);
        text.push('\n');
        std::fs::write(&shard, text).unwrap();
        let store = ExperimentStore::open(&root).unwrap();
        assert_eq!(store.len(), 1, "the overflowing entry is not loaded");
        assert_eq!(store.get(&bad_key), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_schema_entries_are_dropped_silently() {
        // An entry written under a previous SCHEMA_VERSION is stale, not
        // corrupt: it must be skipped on open (its key can never match a
        // current lookup) without tripping the corrupt-entry path.
        let root = tmp_root("stale-schema");
        let key = sample_key(3);
        {
            let store = ExperimentStore::open(&root).unwrap();
            store.put(&key, &sample_summary(10)).unwrap();
        }
        let shard = root.join("shards").join(format!("{:02x}.jsonl", (key.hash & 0xff) as u8));
        let current = std::fs::read_to_string(&shard).unwrap();
        // Rewrite the line as if written by schema version 1: old-version key
        // AND an old-shape summary that no longer decodes.
        let old = current
            .replace(&format!("\"schema\":{}", crate::SCHEMA_VERSION), "\"schema\":1")
            .replace("\"fabric\":", "\"pre_v2_field\":");
        std::fs::write(&shard, format!("{old}{current}")).unwrap();
        let store = ExperimentStore::open(&root).unwrap();
        assert_eq!(store.len(), 1, "the current-schema entry survives, the stale one is dropped");
        assert_eq!(store.get(&key), Some(sample_summary(10)));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn manifests_roundtrip_and_resolve() {
        let root = tmp_root("manifest");
        let store = ExperimentStore::open(&root).unwrap();
        let key = sample_key(3);
        let summary = sample_summary(77);
        store.put(&key, &summary).unwrap();
        let manifest = SweepManifest {
            name: "Figure 1".to_string(),
            figure: "Figure 1".to_string(),
            configs: vec!["sc".to_string()],
            instructions_per_core: 500,
            seed: 3,
            rows: vec![ManifestRow { workload: "Barnes".to_string(), cells: vec![key.hash] }],
        };
        store.write_manifest(&manifest).unwrap();
        let back = store.read_manifest("Figure 1").unwrap().expect("manifest exists");
        assert_eq!(back.configs, manifest.configs);
        assert_eq!(back.rows, manifest.rows);
        assert_eq!(store.manifest_names().unwrap(), vec!["figure-1".to_string()]);
        let rows = store.resolve(&back).unwrap();
        assert_eq!(rows, vec![("Barnes".to_string(), vec![summary])]);
        assert!(store.read_manifest("nonexistent").unwrap().is_none());
        // A manifest whose cells are missing resolves to an error, not a panic.
        let orphan = SweepManifest {
            rows: vec![ManifestRow { workload: "Barnes".to_string(), cells: vec![0xdead] }],
            ..manifest
        };
        assert!(store.resolve(&orphan).unwrap_err().contains("not in the store"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_puts_all_reach_disk() {
        // Workers persisting cells concurrently (some landing in the same
        // shard) must not lose entries to a stale-snapshot rename race.
        let root = tmp_root("concurrent");
        {
            let store = ExperimentStore::open(&root).unwrap();
            std::thread::scope(|scope| {
                for worker in 0..8u64 {
                    let store = &store;
                    scope.spawn(move || {
                        for i in 0..8u64 {
                            let key = sample_key(1 + worker * 8 + i);
                            store.put(&key, &sample_summary(worker * 100 + i)).unwrap();
                        }
                    });
                }
            });
            assert_eq!(store.len(), 64);
        }
        let reopened = ExperimentStore::open(&root).unwrap();
        assert_eq!(reopened.len(), 64, "every concurrent put must survive on disk");
        for seed in 1..=64 {
            assert!(reopened.get(&sample_key(seed)).is_some(), "seed {seed} lost");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn collision_reads_as_miss() {
        let root = tmp_root("collision");
        let store = ExperimentStore::open(&root).unwrap();
        let key = sample_key(4);
        // Plant an index entry under this key's hash whose canonical key
        // JSON differs — exactly what a 64-bit hash collision would look
        // like. The lookup must treat it as a miss, not return the wrong
        // summary.
        store.entries.lock().unwrap().insert(
            key.hash,
            Entry { key_json: "{\"collider\":true}".to_string(), summary: sample_summary(5) },
        );
        assert_eq!(store.get(&key), None, "mismatched canonical key must read as a miss");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn slug_normalizes_names() {
        assert_eq!(slug("Figure 1"), "figure-1");
        assert_eq!(slug("Figures 8-10"), "figures-8-10");
        assert_eq!(slug("  weird///name  "), "weird-name");
        assert_eq!(slug("___"), "sweep");
    }

    #[test]
    fn cache_stats_accumulate() {
        let mut stats = CacheStats::default();
        assert!(!stats.all_hits(), "an empty sweep is not a warm sweep");
        stats.merge(CacheStats { hits: 3, misses: 0 });
        assert!(stats.all_hits());
        stats.merge(CacheStats { hits: 1, misses: 2 });
        assert_eq!(stats.total(), 6);
        assert!(!stats.all_hits());
    }
}
