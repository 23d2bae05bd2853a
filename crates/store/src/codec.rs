//! JSON encode/decode for the workspace's result and configuration types.
//!
//! Every type the store persists implements [`JsonCodec`]. The encoding is
//! deterministic (fixed field order, shortest-round-trip floats), so
//! `encode(decode(encode(x))) == encode(x)` byte-for-byte — the property the
//! `codec_roundtrip` test drives with randomized values. Decoding is strict
//! about field types but tolerant of *extra* fields, so a newer writer's
//! files remain readable as long as [`crate::key::SCHEMA_VERSION`] is
//! unchanged (the version is part of every cache key, so semantic changes
//! invalidate old entries instead of misreading them).

use crate::json::Json;
use ifence_stats::{
    CoreHists, CoreStats, CycleBreakdown, FabricStats, Log2Hist, MachineTrace, RunHistograms,
    RunSummary, SimCounters, TraceEvent, TraceKind,
};
use ifence_types::{
    CacheConfig, ConsistencyModel, CoreConfig, CycleClass, DramConfig, EngineKind,
    InterconnectConfig, L2Config, MachineConfig, SpeculationConfig, StoreBufferConfig,
    StoreBufferKind,
};
use ifence_workloads::{PhasedWorkload, Workload, WorkloadPhase, WorkloadSpec};
use std::fmt;

/// A decode failure: which type rejected the document and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    context: &'static str,
    message: String,
}

impl CodecError {
    /// A failure decoding `context` (a type or field name).
    pub fn new(context: &'static str, message: impl Into<String>) -> Self {
        CodecError { context, message: message.into() }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode {}: {}", self.context, self.message)
    }
}

impl std::error::Error for CodecError {}

/// Symmetric JSON encoding for a storable type.
pub trait JsonCodec: Sized {
    /// Encodes `self` as a JSON document.
    fn to_json(&self) -> Json;

    /// Decodes a value from a JSON document.
    ///
    /// # Errors
    /// Returns a [`CodecError`] naming the offending type/field when the
    /// document does not match the expected shape.
    fn from_json(doc: &Json) -> Result<Self, CodecError>;
}

/// Field-access helpers shared by the struct codecs.
struct Fields<'a> {
    doc: &'a Json,
    context: &'static str,
}

impl<'a> Fields<'a> {
    fn new(doc: &'a Json, context: &'static str) -> Result<Self, CodecError> {
        match doc {
            Json::Object(_) => Ok(Fields { doc, context }),
            _ => Err(CodecError::new(context, "expected an object")),
        }
    }

    fn get(&self, name: &'static str) -> Result<&'a Json, CodecError> {
        self.doc
            .field(name)
            .ok_or_else(|| CodecError::new(self.context, format!("missing field {name:?}")))
    }

    fn u64(&self, name: &'static str) -> Result<u64, CodecError> {
        self.get(name)?
            .as_u64()
            .ok_or_else(|| CodecError::new(self.context, format!("field {name:?} is not a u64")))
    }

    fn usize(&self, name: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u64(name)?)
            .map_err(|_| CodecError::new(self.context, format!("field {name:?} overflows usize")))
    }

    fn f64(&self, name: &'static str) -> Result<f64, CodecError> {
        self.get(name)?
            .as_f64()
            .ok_or_else(|| CodecError::new(self.context, format!("field {name:?} is not a number")))
    }

    fn bool(&self, name: &'static str) -> Result<bool, CodecError> {
        match self.get(name)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(CodecError::new(self.context, format!("field {name:?} is not a bool"))),
        }
    }

    fn string(&self, name: &'static str) -> Result<String, CodecError> {
        match self.get(name)? {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(CodecError::new(self.context, format!("field {name:?} is not a string"))),
        }
    }

    fn decode<T: JsonCodec>(&self, name: &'static str) -> Result<T, CodecError> {
        T::from_json(self.get(name)?)
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(n, v)| (n.to_string(), v)).collect())
}

fn uint(n: u64) -> Json {
    Json::UInt(n)
}

fn us(n: usize) -> Json {
    Json::UInt(n as u64)
}

impl JsonCodec for ConsistencyModel {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        match doc {
            Json::Str(s) => ConsistencyModel::ALL
                .into_iter()
                .find(|m| m.label() == s)
                .ok_or_else(|| CodecError::new("ConsistencyModel", format!("unknown model {s:?}"))),
            _ => Err(CodecError::new("ConsistencyModel", "expected a string")),
        }
    }
}

impl JsonCodec for StoreBufferKind {
    fn to_json(&self) -> Json {
        let name = match self {
            StoreBufferKind::FifoWord => "fifo_word",
            StoreBufferKind::CoalescingBlock => "coalescing_block",
            StoreBufferKind::Scalable => "scalable",
        };
        Json::Str(name.to_string())
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        match doc {
            Json::Str(s) => match s.as_str() {
                "fifo_word" => Ok(StoreBufferKind::FifoWord),
                "coalescing_block" => Ok(StoreBufferKind::CoalescingBlock),
                "scalable" => Ok(StoreBufferKind::Scalable),
                other => Err(CodecError::new(
                    "StoreBufferKind",
                    format!("unknown store-buffer kind {other:?}"),
                )),
            },
            _ => Err(CodecError::new("StoreBufferKind", "expected a string")),
        }
    }
}

impl JsonCodec for EngineKind {
    fn to_json(&self) -> Json {
        // The figure label is a bijection over engine kinds
        // (EngineKind::from_label is its inverse), so it doubles as the
        // storage encoding and keeps stored keys human-readable.
        Json::Str(self.label())
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        match doc {
            Json::Str(s) => EngineKind::from_label(s)
                .ok_or_else(|| CodecError::new("EngineKind", format!("unknown engine {s:?}"))),
            _ => Err(CodecError::new("EngineKind", "expected a string")),
        }
    }
}

impl JsonCodec for CacheConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("size_bytes", us(self.size_bytes)),
            ("associativity", us(self.associativity)),
            ("block_bytes", us(self.block_bytes)),
            ("hit_latency", uint(self.hit_latency)),
            ("ports", us(self.ports)),
            ("mshrs", us(self.mshrs)),
            ("victim_entries", us(self.victim_entries)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "CacheConfig")?;
        Ok(CacheConfig {
            size_bytes: f.usize("size_bytes")?,
            associativity: f.usize("associativity")?,
            block_bytes: f.usize("block_bytes")?,
            hit_latency: f.u64("hit_latency")?,
            ports: f.usize("ports")?,
            mshrs: f.usize("mshrs")?,
            victim_entries: f.usize("victim_entries")?,
        })
    }
}

impl JsonCodec for L2Config {
    fn to_json(&self) -> Json {
        obj(vec![
            ("size_bytes", us(self.size_bytes)),
            ("associativity", us(self.associativity)),
            ("hit_latency", uint(self.hit_latency)),
            ("mshrs", us(self.mshrs)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "L2Config")?;
        Ok(L2Config {
            size_bytes: f.usize("size_bytes")?,
            associativity: f.usize("associativity")?,
            hit_latency: f.u64("hit_latency")?,
            mshrs: f.usize("mshrs")?,
        })
    }
}

impl JsonCodec for DramConfig {
    fn to_json(&self) -> Json {
        obj(vec![("latency", uint(self.latency))])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "DramConfig")?;
        Ok(DramConfig { latency: f.u64("latency")? })
    }
}

impl JsonCodec for StoreBufferConfig {
    fn to_json(&self) -> Json {
        obj(vec![("kind", self.kind.to_json()), ("entries", us(self.entries))])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "StoreBufferConfig")?;
        Ok(StoreBufferConfig { kind: f.decode("kind")?, entries: f.usize("entries")? })
    }
}

impl JsonCodec for CoreConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("rob_size", us(self.rob_size)),
            ("width", us(self.width)),
            ("mem_issue_ports", us(self.mem_issue_ports)),
            ("store_prefetch", Json::Bool(self.store_prefetch)),
            ("sb_drain_per_cycle", us(self.sb_drain_per_cycle)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "CoreConfig")?;
        Ok(CoreConfig {
            rob_size: f.usize("rob_size")?,
            width: f.usize("width")?,
            mem_issue_ports: f.usize("mem_issue_ports")?,
            store_prefetch: f.bool("store_prefetch")?,
            sb_drain_per_cycle: f.usize("sb_drain_per_cycle")?,
        })
    }
}

impl JsonCodec for InterconnectConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("mesh_width", us(self.mesh_width)),
            ("mesh_height", us(self.mesh_height)),
            ("hop_latency", uint(self.hop_latency)),
            ("directory_latency", uint(self.directory_latency)),
            ("retry_interval", uint(self.retry_interval)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "InterconnectConfig")?;
        Ok(InterconnectConfig {
            mesh_width: f.usize("mesh_width")?,
            mesh_height: f.usize("mesh_height")?,
            hop_latency: f.u64("hop_latency")?,
            directory_latency: f.u64("directory_latency")?,
            retry_interval: f.u64("retry_interval")?,
        })
    }
}

impl JsonCodec for SpeculationConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("checkpoints", us(self.checkpoints)),
            ("min_chunk_instructions", us(self.min_chunk_instructions)),
            ("commit_on_violate", Json::Bool(self.commit_on_violate)),
            ("cov_timeout", uint(self.cov_timeout)),
            ("aso_checkpoint_interval", us(self.aso_checkpoint_interval)),
            ("ssb_entries", us(self.ssb_entries)),
            ("ssb_drain_per_cycle", us(self.ssb_drain_per_cycle)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "SpeculationConfig")?;
        Ok(SpeculationConfig {
            checkpoints: f.usize("checkpoints")?,
            min_chunk_instructions: f.usize("min_chunk_instructions")?,
            commit_on_violate: f.bool("commit_on_violate")?,
            cov_timeout: f.u64("cov_timeout")?,
            aso_checkpoint_interval: f.usize("aso_checkpoint_interval")?,
            ssb_entries: f.usize("ssb_entries")?,
            ssb_drain_per_cycle: f.usize("ssb_drain_per_cycle")?,
        })
    }
}

impl JsonCodec for MachineConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("cores", us(self.cores)),
            ("core", self.core.to_json()),
            ("l1", self.l1.to_json()),
            ("l2", self.l2.to_json()),
            ("dram", self.dram.to_json()),
            ("store_buffer", self.store_buffer.to_json()),
            ("interconnect", self.interconnect.to_json()),
            ("speculation", self.speculation.to_json()),
            ("engine", self.engine.to_json()),
            ("seed", uint(self.seed)),
            ("dense_kernel", Json::Bool(self.dense_kernel)),
            ("trace", Json::Bool(self.trace)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "MachineConfig")?;
        let engine = f.decode("engine")?;
        Ok(MachineConfig {
            cores: f.usize("cores")?,
            core: f.decode("core")?,
            l1: f.decode("l1")?,
            l2: f.decode("l2")?,
            dram: f.decode("dram")?,
            store_buffer: f.decode("store_buffer")?,
            interconnect: f.decode("interconnect")?,
            speculation: f.decode("speculation")?,
            engine,
            seed: f.u64("seed")?,
            dense_kernel: f.bool("dense_kernel")?,
            trace: f.bool("trace")?,
            ..MachineConfig::with_engine(engine)
        })
    }
}

impl JsonCodec for CycleBreakdown {
    fn to_json(&self) -> Json {
        Json::Object(
            self.iter().map(|(class, cycles)| (class.label().to_string(), uint(cycles))).collect(),
        )
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "CycleBreakdown")?;
        let mut out = CycleBreakdown::new();
        for class in CycleClass::ALL {
            let cycles = f
                .get(class.label())
                .and_then(|v| {
                    v.as_u64().ok_or_else(|| {
                        CodecError::new(
                            "CycleBreakdown",
                            format!("{:?} is not a u64", class.label()),
                        )
                    })
                })
                .map_err(|_| {
                    CodecError::new(
                        "CycleBreakdown",
                        format!("missing or non-integer bucket {:?}", class.label()),
                    )
                })?;
            out.add(class, cycles);
        }
        Ok(out)
    }
}

impl JsonCodec for SimCounters {
    fn to_json(&self) -> Json {
        obj(vec![
            ("instructions_retired", uint(self.instructions_retired)),
            ("loads_retired", uint(self.loads_retired)),
            ("stores_retired", uint(self.stores_retired)),
            ("atomics_retired", uint(self.atomics_retired)),
            ("fences_retired", uint(self.fences_retired)),
            ("instructions_squashed", uint(self.instructions_squashed)),
            ("l1_hits", uint(self.l1_hits)),
            ("l1_misses", uint(self.l1_misses)),
            ("sb_forwards", uint(self.sb_forwards)),
            ("sb_inserts", uint(self.sb_inserts)),
            ("sb_drains", uint(self.sb_drains)),
            ("store_prefetches", uint(self.store_prefetches)),
            ("speculations_started", uint(self.speculations_started)),
            ("speculations_committed", uint(self.speculations_committed)),
            ("speculations_aborted", uint(self.speculations_aborted)),
            ("speculations_aborted_structural", uint(self.speculations_aborted_structural)),
            ("cycles_speculating", uint(self.cycles_speculating)),
            ("cov_deferrals", uint(self.cov_deferrals)),
            ("cov_commits", uint(self.cov_commits)),
            ("cov_timeouts", uint(self.cov_timeouts)),
            ("external_invalidations", uint(self.external_invalidations)),
            ("l2_recalls_received", uint(self.l2_recalls_received)),
            ("external_downgrades", uint(self.external_downgrades)),
            ("in_window_replays", uint(self.in_window_replays)),
            ("coherence_requests", uint(self.coherence_requests)),
            ("writebacks", uint(self.writebacks)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "SimCounters")?;
        Ok(SimCounters {
            instructions_retired: f.u64("instructions_retired")?,
            loads_retired: f.u64("loads_retired")?,
            stores_retired: f.u64("stores_retired")?,
            atomics_retired: f.u64("atomics_retired")?,
            fences_retired: f.u64("fences_retired")?,
            instructions_squashed: f.u64("instructions_squashed")?,
            l1_hits: f.u64("l1_hits")?,
            l1_misses: f.u64("l1_misses")?,
            sb_forwards: f.u64("sb_forwards")?,
            sb_inserts: f.u64("sb_inserts")?,
            sb_drains: f.u64("sb_drains")?,
            store_prefetches: f.u64("store_prefetches")?,
            speculations_started: f.u64("speculations_started")?,
            speculations_committed: f.u64("speculations_committed")?,
            speculations_aborted: f.u64("speculations_aborted")?,
            speculations_aborted_structural: f.u64("speculations_aborted_structural")?,
            cycles_speculating: f.u64("cycles_speculating")?,
            cov_deferrals: f.u64("cov_deferrals")?,
            cov_commits: f.u64("cov_commits")?,
            cov_timeouts: f.u64("cov_timeouts")?,
            external_invalidations: f.u64("external_invalidations")?,
            l2_recalls_received: f.u64("l2_recalls_received")?,
            external_downgrades: f.u64("external_downgrades")?,
            in_window_replays: f.u64("in_window_replays")?,
            coherence_requests: f.u64("coherence_requests")?,
            writebacks: f.u64("writebacks")?,
        })
    }
}

impl JsonCodec for FabricStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("l2_hits", uint(self.l2_hits)),
            ("l2_misses", uint(self.l2_misses)),
            ("l2_evictions", uint(self.l2_evictions)),
            ("l2_recalls", uint(self.l2_recalls)),
            ("dram_reads", uint(self.dram_reads)),
            ("dram_writebacks", uint(self.dram_writebacks)),
            ("busy_retries", uint(self.busy_retries)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "FabricStats")?;
        Ok(FabricStats {
            l2_hits: f.u64("l2_hits")?,
            l2_misses: f.u64("l2_misses")?,
            l2_evictions: f.u64("l2_evictions")?,
            l2_recalls: f.u64("l2_recalls")?,
            dram_reads: f.u64("dram_reads")?,
            dram_writebacks: f.u64("dram_writebacks")?,
            busy_retries: f.u64("busy_retries")?,
        })
    }
}

/// Histograms encode sparsely — `[index, count]` pairs for the non-empty
/// buckets — plus the exact accumulators, so an empty histogram is a few
/// bytes, not 65 zeros.
impl JsonCodec for Log2Hist {
    fn to_json(&self) -> Json {
        let buckets = self
            .nonzero()
            .map(|(index, count)| Json::Array(vec![us(index), uint(count)]))
            .collect();
        obj(vec![
            ("count", uint(self.count())),
            ("sum", uint(self.sum())),
            ("buckets", Json::Array(buckets)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "Log2Hist")?;
        let pairs = match f.get("buckets")? {
            Json::Array(items) => items
                .iter()
                .map(|item| match item {
                    Json::Array(pair) if pair.len() == 2 => {
                        let index = pair[0].as_u64().and_then(|n| usize::try_from(n).ok());
                        match (index, pair[1].as_u64()) {
                            (Some(i), Some(c)) => Ok((i, c)),
                            _ => Err(CodecError::new("Log2Hist", "bucket pair is not two u64s")),
                        }
                    }
                    _ => Err(CodecError::new("Log2Hist", "bucket is not an [index, count] pair")),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(CodecError::new("Log2Hist", "buckets is not an array")),
        };
        Log2Hist::from_sparse(&pairs, f.u64("count")?, f.u64("sum")?)
            .ok_or_else(|| CodecError::new("Log2Hist", "bucket index out of range"))
    }
}

impl JsonCodec for CoreHists {
    fn to_json(&self) -> Json {
        obj(vec![
            ("episode_len", self.episode_len.to_json()),
            ("deferral", self.deferral.to_json()),
            ("sb_occupancy", self.sb_occupancy.to_json()),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "CoreHists")?;
        Ok(CoreHists {
            episode_len: f.decode("episode_len")?,
            deferral: f.decode("deferral")?,
            sb_occupancy: f.decode("sb_occupancy")?,
        })
    }
}

impl JsonCodec for RunHistograms {
    fn to_json(&self) -> Json {
        obj(vec![
            ("episode_len", self.episode_len.to_json()),
            ("deferral", self.deferral.to_json()),
            ("sb_occupancy", self.sb_occupancy.to_json()),
            ("l2_miss_latency", self.l2_miss_latency.to_json()),
            ("fabric_queue_depth", self.fabric_queue_depth.to_json()),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "RunHistograms")?;
        Ok(RunHistograms {
            episode_len: f.decode("episode_len")?,
            deferral: f.decode("deferral")?,
            sb_occupancy: f.decode("sb_occupancy")?,
            l2_miss_latency: f.decode("l2_miss_latency")?,
            fabric_queue_depth: f.decode("fabric_queue_depth")?,
        })
    }
}

/// The trace sink is deliberately absent: trace events are drained into a
/// `MachineTrace` and exported as JSONL (see [`trace_to_jsonl`]), never
/// serialized with the stats — which is what keeps traced and untraced
/// results byte-identical.
impl JsonCodec for CoreStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("breakdown", self.breakdown.to_json()),
            ("counters", self.counters.to_json()),
            ("hists", self.hists.to_json()),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "CoreStats")?;
        Ok(CoreStats {
            breakdown: f.decode("breakdown")?,
            counters: f.decode("counters")?,
            hists: f.decode("hists")?,
            trace: Default::default(),
        })
    }
}

impl JsonCodec for TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cycle", uint(self.cycle)),
            ("core", uint(u64::from(self.core))),
            ("kind", Json::Str(self.kind.label().to_string())),
            ("value", uint(self.value)),
        ];
        if let Some(detail) = &self.detail {
            fields.push(("detail", Json::Str(detail.clone())));
        }
        obj(fields)
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "TraceEvent")?;
        let kind_label = f.string("kind")?;
        let kind = TraceKind::from_label(&kind_label)
            .ok_or_else(|| CodecError::new("TraceEvent", format!("unknown kind {kind_label:?}")))?;
        let detail = match doc.field("detail") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(CodecError::new("TraceEvent", "detail is not a string")),
        };
        let core = u32::try_from(f.u64("core")?)
            .map_err(|_| CodecError::new("TraceEvent", "core overflows u32"))?;
        Ok(TraceEvent { cycle: f.u64("cycle")?, core, kind, value: f.u64("value")?, detail })
    }
}

/// Encodes a merged trace as JSONL: one canonical-order event per line,
/// trailing newline, no header — the byte stream the kernel-mode
/// equivalence suite and `ifence trace diff` compare.
pub fn trace_to_jsonl(trace: &MachineTrace) -> String {
    let mut out = String::new();
    for event in &trace.events {
        out.push_str(&event.to_json().encode());
        out.push('\n');
    }
    out
}

/// Decodes a JSONL trace stream (the inverse of [`trace_to_jsonl`]; blank
/// lines are ignored, ring-drop counts are not part of the stream).
///
/// # Errors
/// Returns a [`CodecError`] naming the first malformed line.
pub fn trace_from_jsonl(text: &str) -> Result<MachineTrace, CodecError> {
    let mut events = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = Json::parse(line)
            .map_err(|e| CodecError::new("MachineTrace", format!("bad JSONL line: {e}")))?;
        events.push(TraceEvent::from_json(&doc)?);
    }
    Ok(MachineTrace { events, dropped: 0 })
}

impl JsonCodec for RunSummary {
    fn to_json(&self) -> Json {
        obj(vec![
            ("config", Json::Str(self.config.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("cycles", uint(self.cycles)),
            ("breakdown", self.breakdown.to_json()),
            ("counters", self.counters.to_json()),
            ("fabric", self.fabric.to_json()),
            ("histograms", self.histograms.to_json()),
            ("speculation_fraction", Json::Float(self.speculation_fraction)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "RunSummary")?;
        Ok(RunSummary {
            config: f.string("config")?,
            workload: f.string("workload")?,
            cycles: f.u64("cycles")?,
            breakdown: f.decode("breakdown")?,
            counters: f.decode("counters")?,
            fabric: f.decode("fabric")?,
            histograms: f.decode("histograms")?,
            speculation_fraction: f.f64("speculation_fraction")?,
        })
    }
}

impl JsonCodec for WorkloadSpec {
    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("description", Json::Str(self.description.clone())),
            ("default_instructions", us(self.default_instructions)),
            ("mem_fraction", Json::Float(self.mem_fraction)),
            ("store_fraction", Json::Float(self.store_fraction)),
            ("critical_section_rate", Json::Float(self.critical_section_rate)),
            ("critical_section_len", us(self.critical_section_len)),
            ("locks", us(self.locks)),
            ("shared_fraction", Json::Float(self.shared_fraction)),
            ("shared_blocks", us(self.shared_blocks)),
            ("private_blocks", us(self.private_blocks)),
            ("store_burst_rate", Json::Float(self.store_burst_rate)),
            ("store_burst_len", us(self.store_burst_len)),
            ("fence_rate", Json::Float(self.fence_rate)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "WorkloadSpec")?;
        Ok(WorkloadSpec {
            name: f.string("name")?,
            description: f.string("description")?,
            default_instructions: f.usize("default_instructions")?,
            mem_fraction: f.f64("mem_fraction")?,
            store_fraction: f.f64("store_fraction")?,
            critical_section_rate: f.f64("critical_section_rate")?,
            critical_section_len: f.usize("critical_section_len")?,
            locks: f.usize("locks")?,
            shared_fraction: f.f64("shared_fraction")?,
            shared_blocks: f.usize("shared_blocks")?,
            private_blocks: f.usize("private_blocks")?,
            store_burst_rate: f.f64("store_burst_rate")?,
            store_burst_len: f.usize("store_burst_len")?,
            fence_rate: f.f64("fence_rate")?,
        })
    }
}

impl JsonCodec for WorkloadPhase {
    fn to_json(&self) -> Json {
        obj(vec![("spec", self.spec.to_json()), ("instructions", us(self.instructions))])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "WorkloadPhase")?;
        Ok(WorkloadPhase { spec: f.decode("spec")?, instructions: f.usize("instructions")? })
    }
}

impl JsonCodec for PhasedWorkload {
    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("description", Json::Str(self.description.clone())),
            ("phases", Json::Array(self.phases.iter().map(JsonCodec::to_json).collect())),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "PhasedWorkload")?;
        let phases = match f.get("phases")? {
            Json::Array(items) => {
                items.iter().map(WorkloadPhase::from_json).collect::<Result<Vec<_>, _>>()?
            }
            _ => return Err(CodecError::new("PhasedWorkload", "phases is not an array")),
        };
        Ok(PhasedWorkload {
            name: f.string("name")?,
            description: f.string("description")?,
            phases,
        })
    }
}

impl JsonCodec for Workload {
    fn to_json(&self) -> Json {
        match self {
            Workload::Steady(spec) => {
                obj(vec![("kind", Json::Str("steady".to_string())), ("spec", spec.to_json())])
            }
            Workload::Phased(phased) => {
                obj(vec![("kind", Json::Str("phased".to_string())), ("phased", phased.to_json())])
            }
        }
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "Workload")?;
        match f.string("kind")?.as_str() {
            "steady" => Ok(Workload::Steady(f.decode("spec")?)),
            "phased" => Ok(Workload::Phased(f.decode("phased")?)),
            other => Err(CodecError::new("Workload", format!("unknown workload kind {other:?}"))),
        }
    }
}

/// Per-core statistics payload (`MachineResult::per_core`). The full
/// `MachineResult` codec lives in `ifence_sim::persist` — that crate depends
/// on this one, not the other way around — and builds on this impl.
impl JsonCodec for Vec<CoreStats> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(JsonCodec::to_json).collect())
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        match doc {
            Json::Array(items) => items.iter().map(CoreStats::from_json).collect(),
            _ => Err(CodecError::new("Vec<CoreStats>", "expected an array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: JsonCodec + PartialEq + std::fmt::Debug>(value: &T) {
        let doc = value.to_json();
        let text = doc.encode();
        let back = T::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(&back, value);
        assert_eq!(back.to_json().encode(), text, "re-encode must be byte-identical");
    }

    #[test]
    fn configs_roundtrip() {
        roundtrip(&MachineConfig::paper_baseline());
        roundtrip(&MachineConfig::small_test(EngineKind::Aso(ConsistencyModel::Sc)));
        roundtrip(&CacheConfig::paper_l1d());
        roundtrip(&L2Config::paper_l2());
        roundtrip(&CoreConfig::paper_core());
        roundtrip(&InterconnectConfig::paper_torus());
        roundtrip(&SpeculationConfig::default());
    }

    #[test]
    fn engine_kinds_roundtrip_via_labels() {
        use ConsistencyModel::*;
        for engine in [
            EngineKind::Conventional(Sc),
            EngineKind::Conventional(Tso),
            EngineKind::Conventional(Rmo),
            EngineKind::InvisiSelective(Tso),
            EngineKind::InvisiSelectiveTwoCkpt(Rmo),
            EngineKind::InvisiContinuous { commit_on_violate: false },
            EngineKind::InvisiContinuous { commit_on_violate: true },
            EngineKind::Aso(Sc),
        ] {
            roundtrip(&engine);
        }
        assert!(EngineKind::from_json(&Json::Str("warp_drive".to_string())).is_err());
    }

    #[test]
    fn workloads_roundtrip() {
        roundtrip(&Workload::from(ifence_workloads::presets::apache()));
        roundtrip(&Workload::from(ifence_workloads::presets::server_swings()));
    }

    #[test]
    fn summaries_roundtrip() {
        let mut summary = RunSummary {
            config: "Invisi_rmo".to_string(),
            workload: "Apache".to_string(),
            cycles: 123_456,
            speculation_fraction: 0.372,
            ..Default::default()
        };
        summary.breakdown.add(CycleClass::Busy, 99);
        summary.breakdown.add(CycleClass::Violation, 1);
        summary.counters.instructions_retired = 4_242;
        summary.fabric.l2_hits = 31;
        summary.fabric.l2_misses = 17;
        summary.fabric.l2_recalls = 2;
        roundtrip(&summary);
    }

    #[test]
    fn histograms_roundtrip_byte_identically_for_random_values() {
        // Seeded random fill, then the same byte-identity contract every
        // other codec honors: decode(encode(h)) == h and re-encoding is
        // byte-for-byte stable.
        let mut rng = ifence_workloads::TraceRng::seed_from_u64(0xbead_cafe);
        let mut hist = Log2Hist::new();
        for _ in 0..500 {
            hist.record(rng.next_u64() >> rng.range_u64(0..64));
        }
        roundtrip(&hist);
        roundtrip(&Log2Hist::new());
        let mut run = RunHistograms::new();
        run.episode_len = hist.clone();
        run.fabric_queue_depth.record(3);
        roundtrip(&run);
        roundtrip(&CoreHists { episode_len: hist, ..Default::default() });
        assert!(Log2Hist::from_json(
            &Json::parse(r#"{"count":1,"sum":1,"buckets":[[99,1]]}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn trace_events_and_jsonl_roundtrip() {
        let events = vec![
            TraceEvent { cycle: 10, core: 0, kind: TraceKind::SpecBegin, value: 1, detail: None },
            TraceEvent { cycle: 12, core: 3, kind: TraceKind::DramFetch, value: 240, detail: None },
            TraceEvent {
                cycle: 99,
                core: 1,
                kind: TraceKind::Deadlock,
                value: 0,
                detail: Some("core 1: rob head Load@0x40".to_string()),
            },
        ];
        for event in &events {
            roundtrip(event);
        }
        let trace = MachineTrace { events, dropped: 0 };
        let text = trace_to_jsonl(&trace);
        assert_eq!(text.lines().count(), 3);
        let back = trace_from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(trace_to_jsonl(&back), text, "re-encode must be byte-identical");
        assert!(trace_from_jsonl("{\"cycle\":1}\n").is_err(), "malformed lines are rejected");
    }

    #[test]
    fn decode_errors_name_the_offender() {
        let err = RunSummary::from_json(&Json::parse(r#"{"config":"x"}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("RunSummary"), "{err}");
        let err = MachineConfig::from_json(&Json::UInt(3)).unwrap_err();
        assert!(err.to_string().contains("expected an object"), "{err}");
    }

    #[test]
    fn decode_tolerates_extra_fields() {
        let mut doc = CoreConfig::paper_core().to_json();
        if let Json::Object(fields) = &mut doc {
            fields.push(("future_field".to_string(), Json::Null));
        }
        assert_eq!(CoreConfig::from_json(&doc).unwrap(), CoreConfig::paper_core());
    }
}
