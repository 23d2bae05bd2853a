//! JSON encoding for the workspace's configuration and result types, and
//! decoding for the few of them the store reads back.
//!
//! [`JsonCodec`] encodes: configurations and workloads are encoded only to be
//! hashed into a [`crate::CellKey`], and full results only for digests and
//! goldens. [`JsonDecode`] is implemented only for what is read back: a
//! [`RunSummary`] and its parts (shard lines), a
//! [`crate::SweepManifest`] (`ifence report`/`diff`) and a [`TraceEvent`]
//! ([`trace_from_jsonl`]). The encoding is deterministic (fixed field order,
//! shortest-round-trip floats), so a decoded summary re-encodes to the same
//! bytes. Each encoder of a struct with public fields destructures it
//! without `..`, so a new field does not compile until it is encoded or
//! explicitly skipped: a field missing from a key would let two different
//! configurations share a cache entry. The statistics records
//! ([`SimCounters`], [`FabricStats`], [`CoreHists`], [`RunHistograms`])
//! instead each list their fields once in `ifence_stats`, where a `size_of`
//! assertion keeps the listing complete, and their encoders and decoders
//! walk that listing. Decoding is strict about field types
//! but tolerant of *extra* fields, so a newer writer's files remain readable
//! as long as [`crate::key::SCHEMA_VERSION`] is unchanged (the version is
//! part of every cache key, so semantic changes invalidate old entries
//! instead of misreading them).

use crate::json::Json;
use ifence_stats::{
    CoreHists, CoreStats, CycleBreakdown, FabricStats, Log2Hist, MachineTrace, RunHistograms,
    RunSummary, SimCounters, TraceEvent, TraceKind,
};
use ifence_types::{
    CacheConfig, CoreConfig, CycleClass, DramConfig, EngineKind, InterconnectConfig, L2Config,
    MachineConfig, SpeculationConfig, StoreBufferConfig,
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

/// Deterministic JSON encoding for a hashed or stored type.
pub trait JsonCodec {
    /// Encodes `self` as a JSON document.
    fn to_json(&self) -> Json;
}

/// JSON decoding for a type the store reads back.
pub trait JsonDecode: Sized {
    /// Decodes a value from a JSON document.
    ///
    /// # Errors
    /// Returns a [`CodecError`] naming the offending type/field when the
    /// document does not match the expected shape.
    fn from_json(doc: &Json) -> Result<Self, CodecError>;
}

/// Field-access helpers shared by the decoders.
pub(crate) struct Fields<'a> {
    doc: &'a Json,
    context: &'static str,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(doc: &'a Json, context: &'static str) -> Result<Self, CodecError> {
        match doc {
            Json::Object(_) => Ok(Fields { doc, context }),
            _ => Err(CodecError::new(context, "expected an object")),
        }
    }

    /// An error in this document's context.
    pub(crate) fn error(&self, message: impl Into<String>) -> CodecError {
        CodecError::new(self.context, message)
    }

    fn get(&self, name: &'static str) -> Result<&'a Json, CodecError> {
        self.doc.field(name).ok_or_else(|| self.error(format!("missing field {name:?}")))
    }

    pub(crate) fn u64(&self, name: &'static str) -> Result<u64, CodecError> {
        self.get(name)?.as_u64().ok_or_else(|| self.error(format!("field {name:?} is not a u64")))
    }

    fn f64(&self, name: &'static str) -> Result<f64, CodecError> {
        self.get(name)?
            .as_f64()
            .ok_or_else(|| self.error(format!("field {name:?} is not a number")))
    }

    pub(crate) fn string(&self, name: &'static str) -> Result<String, CodecError> {
        match self.get(name)? {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(self.error(format!("field {name:?} is not a string"))),
        }
    }

    pub(crate) fn array(&self, name: &'static str) -> Result<&'a [Json], CodecError> {
        match self.get(name)? {
            Json::Array(items) => Ok(items),
            _ => Err(self.error(format!("field {name:?} is not an array"))),
        }
    }

    pub(crate) fn strings(&self, name: &'static str) -> Result<Vec<&'a str>, CodecError> {
        self.array(name)?
            .iter()
            .map(|item| match item {
                Json::Str(s) => Ok(s.as_str()),
                _ => Err(self.error(format!("field {name:?} holds a non-string"))),
            })
            .collect()
    }

    fn decode<T: JsonDecode>(&self, name: &'static str) -> Result<T, CodecError> {
        T::from_json(self.get(name)?)
    }
}

pub(crate) fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(n, v)| (n.to_string(), v)).collect())
}

fn uint(n: u64) -> Json {
    Json::UInt(n)
}

fn us(n: usize) -> Json {
    Json::UInt(n as u64)
}

impl JsonCodec for EngineKind {
    fn to_json(&self) -> Json {
        // The figure label is a bijection over engine kinds
        // (EngineKind::from_label is its inverse), so it doubles as the
        // storage encoding and keeps stored keys human-readable.
        Json::Str(self.label())
    }
}

impl JsonCodec for CacheConfig {
    fn to_json(&self) -> Json {
        let CacheConfig {
            size_bytes,
            associativity,
            block_bytes,
            hit_latency,
            mshrs,
            victim_entries,
        } = *self;
        obj(vec![
            ("size_bytes", us(size_bytes)),
            ("associativity", us(associativity)),
            ("block_bytes", us(block_bytes)),
            ("hit_latency", uint(hit_latency)),
            ("mshrs", us(mshrs)),
            ("victim_entries", us(victim_entries)),
        ])
    }
}

impl JsonCodec for L2Config {
    fn to_json(&self) -> Json {
        let L2Config { size_bytes, associativity, hit_latency } = *self;
        obj(vec![
            ("size_bytes", us(size_bytes)),
            ("associativity", us(associativity)),
            ("hit_latency", uint(hit_latency)),
        ])
    }
}

impl JsonCodec for DramConfig {
    fn to_json(&self) -> Json {
        let DramConfig { latency } = *self;
        obj(vec![("latency", uint(latency))])
    }
}

impl JsonCodec for StoreBufferConfig {
    fn to_json(&self) -> Json {
        let StoreBufferConfig { entries } = *self;
        obj(vec![("entries", us(entries))])
    }
}

impl JsonCodec for CoreConfig {
    fn to_json(&self) -> Json {
        let CoreConfig { rob_size, width, mem_issue_ports, store_prefetch, sb_drain_per_cycle } =
            *self;
        obj(vec![
            ("rob_size", us(rob_size)),
            ("width", us(width)),
            ("mem_issue_ports", us(mem_issue_ports)),
            ("store_prefetch", Json::Bool(store_prefetch)),
            ("sb_drain_per_cycle", us(sb_drain_per_cycle)),
        ])
    }
}

impl JsonCodec for InterconnectConfig {
    fn to_json(&self) -> Json {
        let InterconnectConfig {
            mesh_width,
            mesh_height,
            hop_latency,
            directory_latency,
            retry_interval,
        } = *self;
        obj(vec![
            ("mesh_width", us(mesh_width)),
            ("mesh_height", us(mesh_height)),
            ("hop_latency", uint(hop_latency)),
            ("directory_latency", uint(directory_latency)),
            ("retry_interval", uint(retry_interval)),
        ])
    }
}

impl JsonCodec for SpeculationConfig {
    fn to_json(&self) -> Json {
        let SpeculationConfig {
            min_chunk_instructions,
            cov_timeout,
            aso_checkpoint_interval,
            ssb_entries,
            ssb_drain_per_cycle,
        } = *self;
        obj(vec![
            ("min_chunk_instructions", us(min_chunk_instructions)),
            ("cov_timeout", uint(cov_timeout)),
            ("aso_checkpoint_interval", us(aso_checkpoint_interval)),
            ("ssb_entries", us(ssb_entries)),
            ("ssb_drain_per_cycle", us(ssb_drain_per_cycle)),
        ])
    }
}

impl JsonCodec for MachineConfig {
    fn to_json(&self) -> Json {
        let MachineConfig {
            cores,
            core,
            l1,
            l2,
            dram,
            store_buffer,
            interconnect,
            speculation,
            engine,
            seed,
            dense_kernel,
            trace,
            // Host-only knobs kept for `perfbench/`: every machine runs the
            // one guarded pipeline on one host thread, so none of them
            // selects anything (see `SCHEMA_VERSION` v7 and v8).
            batch_kernel: _,
            leap_kernel: _,
            machine_threads: _,
        } = self;
        obj(vec![
            ("cores", us(*cores)),
            ("core", core.to_json()),
            ("l1", l1.to_json()),
            ("l2", l2.to_json()),
            ("dram", dram.to_json()),
            ("store_buffer", store_buffer.to_json()),
            ("interconnect", interconnect.to_json()),
            ("speculation", speculation.to_json()),
            ("engine", engine.to_json()),
            ("seed", uint(*seed)),
            ("dense_kernel", Json::Bool(*dense_kernel)),
            ("trace", Json::Bool(*trace)),
        ])
    }
}

impl JsonCodec for CycleBreakdown {
    fn to_json(&self) -> Json {
        Json::Object(
            self.iter().map(|(class, cycles)| (class.label().to_string(), uint(cycles))).collect(),
        )
    }
}

/// Rejects buckets whose sum overflows a `u64`: [`CycleBreakdown::total`],
/// which every report and diff reads, could not represent it.
impl JsonDecode for CycleBreakdown {
    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "CycleBreakdown")?;
        let mut out = CycleBreakdown::new();
        let mut total = 0u64;
        for class in CycleClass::ALL {
            let cycles = f.u64(class.label())?;
            total =
                total.checked_add(cycles).ok_or_else(|| f.error("buckets sum past u64::MAX"))?;
            out.add(class, cycles);
        }
        Ok(out)
    }
}

impl JsonCodec for SimCounters {
    fn to_json(&self) -> Json {
        let mut copy = *self;
        obj(copy.fields_mut().map(|(name, n)| (name, uint(*n))))
    }
}

impl JsonDecode for SimCounters {
    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "SimCounters")?;
        let mut out = SimCounters::default();
        for (name, n) in out.fields_mut() {
            *n = f.u64(name)?;
        }
        Ok(out)
    }
}

impl JsonCodec for FabricStats {
    fn to_json(&self) -> Json {
        let mut copy = *self;
        obj(copy.fields_mut().map(|(name, n)| (name, uint(*n))))
    }
}

impl JsonDecode for FabricStats {
    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "FabricStats")?;
        let mut out = FabricStats::default();
        for (name, n) in out.fields_mut() {
            *n = f.u64(name)?;
        }
        Ok(out)
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
}

impl JsonDecode for Log2Hist {
    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "Log2Hist")?;
        let pairs = f
            .array("buckets")?
            .iter()
            .map(|item| match item {
                Json::Array(pair) if pair.len() == 2 => {
                    let index = pair[0].as_u64().and_then(|n| usize::try_from(n).ok());
                    match (index, pair[1].as_u64()) {
                        (Some(i), Some(c)) => Ok((i, c)),
                        _ => Err(f.error("bucket pair is not two u64s")),
                    }
                }
                _ => Err(f.error("bucket is not an [index, count] pair")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Log2Hist::from_sparse(&pairs, f.u64("count")?, f.u64("sum")?)
            .ok_or_else(|| f.error("bucket index out of range"))
    }
}

impl JsonCodec for CoreHists {
    fn to_json(&self) -> Json {
        obj(self.clone().named_mut().map(|(name, hist)| (name, hist.to_json())))
    }
}

impl JsonCodec for RunHistograms {
    fn to_json(&self) -> Json {
        obj(self.named().map(|(name, hist)| (name, hist.to_json())))
    }
}

impl JsonDecode for RunHistograms {
    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "RunHistograms")?;
        let mut out = RunHistograms::default();
        for (name, hist) in out.named_mut() {
            *hist = f.decode(name)?;
        }
        Ok(out)
    }
}

/// The trace sink is deliberately absent: trace events are drained into a
/// `MachineTrace` and exported as JSONL (see [`trace_to_jsonl`]), never
/// serialized with the stats — which is what keeps traced and untraced
/// results byte-identical.
impl JsonCodec for CoreStats {
    fn to_json(&self) -> Json {
        let CoreStats { breakdown, counters, hists, trace: _ } = self;
        obj(vec![
            ("breakdown", breakdown.to_json()),
            ("counters", counters.to_json()),
            ("hists", hists.to_json()),
        ])
    }
}

impl JsonCodec for TraceEvent {
    fn to_json(&self) -> Json {
        let TraceEvent { cycle, core, kind, value, detail } = self;
        let mut fields = vec![
            ("cycle", uint(*cycle)),
            ("core", uint(u64::from(*core))),
            ("kind", Json::Str(kind.label().to_string())),
            ("value", uint(*value)),
        ];
        if let Some(detail) = detail {
            fields.push(("detail", Json::Str(detail.clone())));
        }
        obj(fields)
    }
}

impl JsonDecode for TraceEvent {
    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let f = Fields::new(doc, "TraceEvent")?;
        let kind_label = f.string("kind")?;
        let kind = TraceKind::from_label(&kind_label)
            .ok_or_else(|| f.error(format!("unknown kind {kind_label:?}")))?;
        let detail = match doc.field("detail") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(f.error("detail is not a string")),
        };
        let core = u32::try_from(f.u64("core")?).map_err(|_| f.error("core overflows u32"))?;
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
        let RunSummary {
            config,
            workload,
            cycles,
            breakdown,
            counters,
            fabric,
            histograms,
            speculation_fraction,
        } = self;
        obj(vec![
            ("config", Json::Str(config.clone())),
            ("workload", Json::Str(workload.clone())),
            ("cycles", uint(*cycles)),
            ("breakdown", breakdown.to_json()),
            ("counters", counters.to_json()),
            ("fabric", fabric.to_json()),
            ("histograms", histograms.to_json()),
            ("speculation_fraction", Json::Float(*speculation_fraction)),
        ])
    }
}

impl JsonDecode for RunSummary {
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
        let WorkloadSpec {
            name,
            description,
            default_instructions,
            mem_fraction,
            store_fraction,
            critical_section_rate,
            critical_section_len,
            locks,
            shared_fraction,
            shared_blocks,
            private_blocks,
            store_burst_rate,
            store_burst_len,
            fence_rate,
        } = self;
        obj(vec![
            ("name", Json::Str(name.clone())),
            ("description", Json::Str(description.clone())),
            ("default_instructions", us(*default_instructions)),
            ("mem_fraction", Json::Float(*mem_fraction)),
            ("store_fraction", Json::Float(*store_fraction)),
            ("critical_section_rate", Json::Float(*critical_section_rate)),
            ("critical_section_len", us(*critical_section_len)),
            ("locks", us(*locks)),
            ("shared_fraction", Json::Float(*shared_fraction)),
            ("shared_blocks", us(*shared_blocks)),
            ("private_blocks", us(*private_blocks)),
            ("store_burst_rate", Json::Float(*store_burst_rate)),
            ("store_burst_len", us(*store_burst_len)),
            ("fence_rate", Json::Float(*fence_rate)),
        ])
    }
}

impl JsonCodec for WorkloadPhase {
    fn to_json(&self) -> Json {
        let WorkloadPhase { spec, instructions } = self;
        obj(vec![("spec", spec.to_json()), ("instructions", us(*instructions))])
    }
}

impl JsonCodec for PhasedWorkload {
    fn to_json(&self) -> Json {
        let PhasedWorkload { name, description, phases } = self;
        obj(vec![
            ("name", Json::Str(name.clone())),
            ("description", Json::Str(description.clone())),
            ("phases", Json::Array(phases.iter().map(JsonCodec::to_json).collect())),
        ])
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: JsonCodec + JsonDecode + PartialEq + std::fmt::Debug>(value: &T) {
        let doc = value.to_json();
        let text = doc.encode();
        let back = T::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(&back, value);
        assert_eq!(back.to_json().encode(), text, "re-encode must be byte-identical");
    }

    /// Encode-only types reach the store inside a cell key, which shard
    /// loading parses and re-encodes to re-derive its hash. So their
    /// encoding must survive `parse → encode` as the same document and the
    /// same bytes.
    fn text_roundtrip<T: JsonCodec>(value: &T) {
        let doc = value.to_json();
        let text = doc.encode();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.encode(), text, "re-encode must be byte-identical");
    }

    #[test]
    fn configs_roundtrip() {
        text_roundtrip(&MachineConfig::paper_baseline());
        text_roundtrip(&MachineConfig::small_test(EngineKind::Aso(
            ifence_types::ConsistencyModel::Sc,
        )));
        text_roundtrip(&CacheConfig::paper_l1d());
        text_roundtrip(&L2Config::paper_l2());
        text_roundtrip(&CoreConfig::paper_core());
        text_roundtrip(&InterconnectConfig::paper_torus());
        text_roundtrip(&SpeculationConfig::default());
    }

    #[test]
    fn workloads_roundtrip() {
        text_roundtrip(&Workload::from(ifence_workloads::presets::apache()));
        text_roundtrip(&Workload::from(ifence_workloads::presets::server_swings()));
    }

    #[test]
    fn engine_kinds_roundtrip_via_labels() {
        // Keys store engines by label, so the label must name exactly one
        // engine: `EngineKind::from_label` inverts every encoding.
        for engine in EngineKind::all() {
            let Json::Str(label) = engine.to_json() else { panic!("{engine:?} encodes a label") };
            assert_eq!(EngineKind::from_label(&label), Some(engine), "{label}");
        }
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
        // other decoder honors: decode(encode(h)) == h and re-encoding is
        // byte-for-byte stable.
        let mut rng = ifence_workloads::TraceRng::seed_from_u64(0xbead_cafe);
        let mut hist = Log2Hist::new();
        for _ in 0..500 {
            hist.record(rng.next_u64() >> rng.range_u64(0..64));
        }
        roundtrip(&hist);
        roundtrip(&Log2Hist::new());
        let mut run = RunHistograms::new();
        run.episode_len = hist;
        run.fabric_queue_depth.record(3);
        roundtrip(&run);
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
        let err = SimCounters::from_json(&Json::UInt(3)).unwrap_err();
        assert!(err.to_string().contains("expected an object"), "{err}");
    }

    #[test]
    fn breakdowns_that_overflow_their_total_are_rejected() {
        let mut full = CycleBreakdown::new();
        full.add(CycleClass::Busy, u64::MAX);
        roundtrip(&full);
        let overflowing = Json::Object(
            CycleClass::ALL.iter().map(|c| (c.label().to_string(), Json::UInt(u64::MAX))).collect(),
        );
        let err = CycleBreakdown::from_json(&overflowing).unwrap_err();
        assert!(err.to_string().contains("u64::MAX"), "{err}");
    }

    #[test]
    fn decode_tolerates_extra_fields() {
        let stats = FabricStats { l2_hits: 7, dram_reads: 3, ..Default::default() };
        let mut doc = stats.to_json();
        if let Json::Object(fields) = &mut doc {
            fields.push(("future_field".to_string(), Json::Null));
        }
        assert_eq!(FabricStats::from_json(&doc).unwrap(), stats);
    }

    #[test]
    fn every_statistics_field_encodes_under_its_own_name() {
        // Field i holds i + 1 and histogram i holds i + 1 observations, so an
        // entry that pairs a key with the wrong field changes the text. A
        // round trip cannot see that: a swapped pair decodes back swapped.
        fn check<T: JsonCodec + JsonDecode + PartialEq + std::fmt::Debug>(value: &T, text: &str) {
            assert_eq!(value.to_json().encode(), text);
            assert_eq!(&T::from_json(&Json::parse(text).unwrap()).unwrap(), value);
        }
        let counters = SimCounters {
            instructions_retired: 1,
            loads_retired: 2,
            stores_retired: 3,
            atomics_retired: 4,
            fences_retired: 5,
            instructions_squashed: 6,
            l1_hits: 7,
            l1_misses: 8,
            sb_forwards: 9,
            sb_inserts: 10,
            sb_drains: 11,
            store_prefetches: 12,
            speculations_started: 13,
            speculations_committed: 14,
            speculations_aborted: 15,
            speculations_aborted_structural: 16,
            cycles_speculating: 17,
            cov_deferrals: 18,
            cov_commits: 19,
            cov_timeouts: 20,
            external_invalidations: 21,
            l2_recalls_received: 22,
            external_downgrades: 23,
            in_window_replays: 24,
            coherence_requests: 25,
            writebacks: 26,
        };
        check(
            &counters,
            concat!(
                r#"{"instructions_retired":1,"loads_retired":2,"stores_retired":3,"#,
                r#""atomics_retired":4,"fences_retired":5,"instructions_squashed":6,"l1_hits":7,"#,
                r#""l1_misses":8,"sb_forwards":9,"sb_inserts":10,"sb_drains":11,"#,
                r#""store_prefetches":12,"speculations_started":13,"speculations_committed":14,"#,
                r#""speculations_aborted":15,"speculations_aborted_structural":16,"#,
                r#""cycles_speculating":17,"cov_deferrals":18,"cov_commits":19,"cov_timeouts":20,"#,
                r#""external_invalidations":21,"l2_recalls_received":22,"external_downgrades":23,"#,
                r#""in_window_replays":24,"coherence_requests":25,"writebacks":26}"#,
            ),
        );
        let fabric = FabricStats {
            l2_hits: 1,
            l2_misses: 2,
            l2_evictions: 3,
            l2_recalls: 4,
            dram_reads: 5,
            dram_writebacks: 6,
            busy_retries: 7,
        };
        check(
            &fabric,
            concat!(
                r#"{"l2_hits":1,"l2_misses":2,"l2_evictions":3,"l2_recalls":4,"dram_reads":5,"#,
                r#""dram_writebacks":6,"busy_retries":7}"#,
            ),
        );
        let mut hists = RunHistograms::new();
        let RunHistograms {
            episode_len,
            deferral,
            sb_occupancy,
            l2_miss_latency,
            fabric_queue_depth,
        } = &mut hists;
        for (i, hist) in [episode_len, deferral, sb_occupancy, l2_miss_latency, fabric_queue_depth]
            .into_iter()
            .enumerate()
        {
            for _ in 0..=i {
                hist.record(1);
            }
        }
        check(
            &hists,
            concat!(
                r#"{"episode_len":{"count":1,"sum":1,"buckets":[[1,1]]},"#,
                r#""deferral":{"count":2,"sum":2,"buckets":[[1,2]]},"#,
                r#""sb_occupancy":{"count":3,"sum":3,"buckets":[[1,3]]},"#,
                r#""l2_miss_latency":{"count":4,"sum":4,"buckets":[[1,4]]},"#,
                r#""fabric_queue_depth":{"count":5,"sum":5,"buckets":[[1,5]]}}"#,
            ),
        );
    }
}
