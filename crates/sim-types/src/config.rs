//! Machine configuration: the simulated-system parameters of Figure 6.
//!
//! [`MachineConfig::paper_baseline`] reproduces the paper's 16-core,
//! directory-based baseline (4 GHz 4-wide cores, 96-entry ROB, 64 KB 2-way
//! L1D, 8 MB L2, 4×4 torus at 25 ns/hop, 40 ns memory). Latencies are
//! expressed in core cycles at 4 GHz.

use crate::model::{ConsistencyModel, StoreBufferKind};
use std::fmt;

/// Parameters of a single level of cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Block (line) size in bytes.
    pub block_bytes: usize,
    /// Access latency in cycles (load-to-use for the L1).
    pub hit_latency: u64,
    /// Number of miss-status holding registers (outstanding misses).
    pub mshrs: usize,
    /// Fully-associative victim-cache entries (0 disables the victim cache).
    pub victim_entries: usize,
}

impl CacheConfig {
    /// Number of sets implied by size, associativity and block size.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.associativity * self.block_bytes)
    }

    /// Number of blocks the cache holds in total.
    pub fn blocks(&self) -> usize {
        self.size_bytes / self.block_bytes
    }

    /// The paper's L1 data cache: split I/D 64 KB, 2-way, 64-byte blocks,
    /// 2-cycle load-to-use, 32 MSHRs, 16-entry victim cache (its 3 ports
    /// are [`CoreConfig::mem_issue_ports`]).
    pub fn paper_l1d() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            associativity: 2,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 32,
            victim_entries: 16,
        }
    }
}

/// Parameters of the shared (address-interleaved, banked) L2.
///
/// The L2 holds a finite number of blocks: `size_bytes` is split evenly over
/// one bank per node, and each bank is a `associativity`-way set-associative
/// array. A `size_bytes` of 0 is the *unbounded* sentinel — the L2 never
/// evicts, which reproduces the pre-capacity fabric exactly (used by the
/// equivalence guard and by capacity sweeps as the "infinite" endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Total L2 capacity in bytes (the paper's unified 8 MB); 0 = unbounded.
    pub size_bytes: usize,
    /// Associativity.
    pub associativity: usize,
    /// L2 hit latency in cycles. Outstanding L2 misses are unbounded (see
    /// PAPER.md, "Modelling approximations").
    pub hit_latency: u64,
}

impl L2Config {
    /// The paper's unified 8 MB 8-way L2 with 25-cycle hits.
    pub fn paper_l2() -> Self {
        L2Config { size_bytes: 8 * 1024 * 1024, associativity: 8, hit_latency: 25 }
    }

    /// True when this L2 never evicts (the `size_bytes == 0` sentinel).
    pub fn unbounded(&self) -> bool {
        self.size_bytes == 0
    }

    /// Sets per bank for a machine with `banks` nodes and the given block
    /// size (0 when unbounded).
    pub fn sets_per_bank(&self, banks: usize, block_bytes: usize) -> usize {
        if self.unbounded() {
            return 0;
        }
        self.size_bytes / (banks.max(1) * self.associativity.max(1) * block_bytes.max(1))
    }
}

/// Parameters of the DRAM tier behind the shared L2 (previously overloaded
/// onto [`L2Config`] as `memory_latency`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Main-memory access latency in cycles (40 ns at 4 GHz = 160 cycles).
    pub latency: u64,
}

impl DramConfig {
    /// The paper's 40 ns memory at 4 GHz.
    pub fn paper_dram() -> Self {
        DramConfig { latency: 160 }
    }
}

/// Store-buffer capacity; the engine kind fixes the organization
/// ([`EngineKind::store_buffer_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBufferConfig {
    /// Number of entries.
    pub entries: usize,
}

/// Out-of-order core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer capacity (the paper's 96 entries).
    pub rob_size: usize,
    /// Dispatch/retire width per cycle (the paper's 4-wide).
    pub width: usize,
    /// L1 data-cache ports usable for issuing memory operations per cycle.
    pub mem_issue_ports: usize,
    /// Whether stores issue an exclusive prefetch at execute so write
    /// permission is usually present by the time the store drains (the
    /// paper's baseline performs store prefetching).
    pub store_prefetch: bool,
    /// Maximum store-buffer entries written into the L1 per cycle.
    pub sb_drain_per_cycle: usize,
}

impl CoreConfig {
    /// The paper's 4-wide, 96-entry-ROB core with store prefetching.
    pub fn paper_core() -> Self {
        CoreConfig {
            rob_size: 96,
            width: 4,
            mem_issue_ports: 3,
            store_prefetch: true,
            sb_drain_per_cycle: 2,
        }
    }
}

/// 2D-torus interconnect and directory latency parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterconnectConfig {
    /// Torus width (the paper's 4×4).
    pub mesh_width: usize,
    /// Torus height.
    pub mesh_height: usize,
    /// Per-hop latency in core cycles (25 ns at 4 GHz = 100 cycles).
    pub hop_latency: u64,
    /// Directory/protocol-controller occupancy per transaction, in cycles.
    pub directory_latency: u64,
    /// Delay, in cycles, before a request to a busy block is retried at the
    /// directory (must be non-zero or busy retries would spin in place).
    pub retry_interval: u64,
}

impl InterconnectConfig {
    /// The paper's 4×4 torus with 25 ns per hop and a 1 GHz protocol controller.
    pub fn paper_torus() -> Self {
        InterconnectConfig {
            mesh_width: 4,
            mesh_height: 4,
            hop_latency: 100,
            directory_latency: 8,
            retry_interval: 30,
        }
    }

    /// Number of nodes in the torus.
    pub fn nodes(&self) -> usize {
        self.mesh_width * self.mesh_height
    }

    /// Minimal hop count between two nodes on the torus (wrap-around
    /// Manhattan distance).
    pub fn hops(&self, from: usize, to: usize) -> u64 {
        let (w, h) = (self.mesh_width, self.mesh_height);
        let (fx, fy) = (from % w, from / w);
        let (tx, ty) = (to % w, to / w);
        let dx = fx.abs_diff(tx).min(w - fx.abs_diff(tx));
        let dy = fy.abs_diff(ty).min(h - fy.abs_diff(ty));
        (dx + dy) as u64
    }

    /// One-way latency between two nodes in cycles.
    pub fn latency(&self, from: usize, to: usize) -> u64 {
        self.hops(from, to) * self.hop_latency
    }
}

/// Policy parameters for post-retirement speculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationConfig {
    /// Minimum chunk size (retired instructions) before a continuous-mode
    /// chunk may close (the paper uses ~100 instructions).
    pub min_chunk_instructions: usize,
    /// The commit-on-violate deferral timeout in cycles (the paper evaluates
    /// 4000): how long a CoV engine may hold an offending external request,
    /// giving the speculation a chance to commit. Read only by
    /// `Invisi_cont_CoV`; [`EngineKind::commit_on_violate`] says which
    /// engine that is.
    pub cov_timeout: u64,
    /// ASO: number of instructions between intermediate checkpoints taken
    /// during a speculative episode (enables partial rollback).
    pub aso_checkpoint_interval: usize,
    /// ASO: Scalable Store Buffer capacity (per-store entries).
    pub ssb_entries: usize,
    /// ASO: stores drained from the SSB into the L2 per cycle at commit.
    pub ssb_drain_per_cycle: usize,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            min_chunk_instructions: 100,
            cov_timeout: 4000,
            aso_checkpoint_interval: 64,
            ssb_entries: 1024,
            ssb_drain_per_cycle: 1,
        }
    }
}

/// Which memory-ordering implementation a core runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Conventional (non-speculative) implementation of the given model
    /// (Section 2.1 / Figure 2).
    Conventional(ConsistencyModel),
    /// InvisiFence-Selective enforcing the given model with a single
    /// checkpoint (Section 4.1).
    InvisiSelective(ConsistencyModel),
    /// InvisiFence-Selective with two in-flight checkpoints (Section 6.4).
    InvisiSelectiveTwoCkpt(ConsistencyModel),
    /// InvisiFence-Continuous (Section 4.2); enforces SC (it subsumes any
    /// weaker model). `commit_on_violate` selects the CoV policy (Section 6.6).
    InvisiContinuous {
        /// Whether the commit-on-violate deferral policy is enabled.
        commit_on_violate: bool,
    },
    /// The ASO (atomic sequence ordering) baseline of Wenisch et al.,
    /// enforcing the given model (Section 6.4 compares ASOsc).
    Aso(ConsistencyModel),
}

impl EngineKind {
    /// Every engine kind the simulator implements, in figure order: the three
    /// conventional models, InvisiFence-Selective with one and two
    /// checkpoints, InvisiFence-Continuous with and without
    /// commit-on-violate, and the ASO baseline. Tests and sweeps that claim
    /// to cover "all engines" iterate this instead of hand-maintained lists,
    /// so a new kind cannot be silently skipped.
    pub fn all() -> [EngineKind; 14] {
        use ConsistencyModel::*;
        [
            EngineKind::Conventional(Sc),
            EngineKind::Conventional(Tso),
            EngineKind::Conventional(Rmo),
            EngineKind::InvisiSelective(Sc),
            EngineKind::InvisiSelective(Tso),
            EngineKind::InvisiSelective(Rmo),
            EngineKind::InvisiSelectiveTwoCkpt(Sc),
            EngineKind::InvisiSelectiveTwoCkpt(Tso),
            EngineKind::InvisiSelectiveTwoCkpt(Rmo),
            EngineKind::InvisiContinuous { commit_on_violate: false },
            EngineKind::InvisiContinuous { commit_on_violate: true },
            EngineKind::Aso(Sc),
            EngineKind::Aso(Tso),
            EngineKind::Aso(Rmo),
        ]
    }

    /// The consistency model this engine enforces.
    pub fn model(self) -> ConsistencyModel {
        match self {
            EngineKind::Conventional(m)
            | EngineKind::InvisiSelective(m)
            | EngineKind::InvisiSelectiveTwoCkpt(m)
            | EngineKind::Aso(m) => m,
            EngineKind::InvisiContinuous { .. } => ConsistencyModel::Sc,
        }
    }

    /// True for any engine that performs post-retirement speculation.
    pub fn is_speculative(self) -> bool {
        !matches!(self, EngineKind::Conventional(_))
    }

    /// Register checkpoints the engine holds in flight: none for the
    /// conventional engines, one for InvisiFence-Selective, two for its
    /// two-checkpoint variant and for InvisiFence-Continuous (which needs a
    /// second to pipeline chunk commit). ASO counts its first checkpoint;
    /// its intermediate ones are paced by
    /// [`SpeculationConfig::aso_checkpoint_interval`].
    pub fn checkpoints(self) -> usize {
        match self {
            EngineKind::Conventional(_) => 0,
            EngineKind::InvisiSelective(_) | EngineKind::Aso(_) => 1,
            EngineKind::InvisiSelectiveTwoCkpt(_) | EngineKind::InvisiContinuous { .. } => 2,
        }
    }

    /// True for the one engine that defers a conflicting external request
    /// instead of aborting (commit-on-violate, Section 6.6).
    pub fn commit_on_violate(self) -> bool {
        matches!(self, EngineKind::InvisiContinuous { commit_on_violate: true })
    }

    /// Label used in figure output (matches the paper's bar labels).
    pub fn label(self) -> String {
        match self {
            EngineKind::Conventional(m) => m.label().to_string(),
            EngineKind::InvisiSelective(m) => format!("Invisi_{}", m.label()),
            EngineKind::InvisiSelectiveTwoCkpt(m) => format!("Invisi_{}-2ckpt", m.label()),
            EngineKind::InvisiContinuous { commit_on_violate: false } => "Invisi_cont".to_string(),
            EngineKind::InvisiContinuous { commit_on_violate: true } => {
                "Invisi_cont_CoV".to_string()
            }
            EngineKind::Aso(m) => format!("ASO{}", m.label()),
        }
    }

    /// Parses a figure label back into an engine kind — the exact inverse
    /// of [`EngineKind::label`] (the experiment store uses the label as its
    /// serialized form, and the `ifence` CLI accepts labels in `--engines`).
    pub fn from_label(label: &str) -> Option<Self> {
        let model = |l: &str| ConsistencyModel::ALL.into_iter().find(|m| m.label() == l);
        if let Some(m) = model(label) {
            return Some(EngineKind::Conventional(m));
        }
        if label == "Invisi_cont" {
            return Some(EngineKind::InvisiContinuous { commit_on_violate: false });
        }
        if label == "Invisi_cont_CoV" {
            return Some(EngineKind::InvisiContinuous { commit_on_violate: true });
        }
        if let Some(rest) = label.strip_prefix("Invisi_") {
            if let Some(m) = rest.strip_suffix("-2ckpt").and_then(model) {
                return Some(EngineKind::InvisiSelectiveTwoCkpt(m));
            }
            return model(rest).map(EngineKind::InvisiSelective);
        }
        label.strip_prefix("ASO").and_then(model).map(EngineKind::Aso)
    }

    /// The store-buffer organization this engine runs (Figure 2): the
    /// age-ordered word FIFO for conventional SC and TSO, the unordered
    /// block-coalescing buffer for conventional RMO and every speculative
    /// engine.
    pub fn store_buffer_kind(self) -> StoreBufferKind {
        match self {
            EngineKind::Conventional(ConsistencyModel::Sc | ConsistencyModel::Tso) => {
                StoreBufferKind::FifoWord
            }
            _ => StoreBufferKind::CoalescingBlock,
        }
    }

    /// The store-buffer size Figure 6 pairs with this engine: 64 FIFO
    /// entries for conventional SC/TSO, 8 coalescing entries for
    /// conventional RMO, single-checkpoint InvisiFence and ASO, and 32 for
    /// two-checkpoint / continuous InvisiFence.
    pub fn default_store_buffer(self) -> StoreBufferConfig {
        let entries = match self {
            EngineKind::Conventional(ConsistencyModel::Sc | ConsistencyModel::Tso) => 64,
            EngineKind::InvisiSelectiveTwoCkpt(_) | EngineKind::InvisiContinuous { .. } => 32,
            EngineKind::Conventional(ConsistencyModel::Rmo)
            | EngineKind::InvisiSelective(_)
            | EngineKind::Aso(_) => 8,
        };
        StoreBufferConfig { entries }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error returned by [`MachineConfig::validate`] when a configuration is
/// internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError { message: message.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid machine configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// The most cores a machine may have: each home directory records a block's
/// sharers in a 64-bit mask.
pub const MAX_CORES: usize = 64;

/// Complete configuration of the simulated multiprocessor (Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores / nodes (the paper's 16).
    pub cores: usize,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// L1 data-cache parameters.
    pub l1: CacheConfig,
    /// Shared L2 parameters.
    pub l2: L2Config,
    /// DRAM tier behind the L2.
    pub dram: DramConfig,
    /// Store-buffer organization and size.
    pub store_buffer: StoreBufferConfig,
    /// Interconnect parameters.
    pub interconnect: InterconnectConfig,
    /// Speculation policy parameters.
    pub speculation: SpeculationConfig,
    /// Which ordering engine each core runs.
    pub engine: EngineKind,
    /// Random seed used by workload generation tied to this run.
    pub seed: u64,
    /// Force the dense (poll-every-cycle) simulation kernel instead of the
    /// default event-driven one that skips provably quiescent cycles. The two
    /// kernels produce byte-identical results; the dense loop survives as a
    /// debug reference (also selectable at run time with `IFENCE_DENSE=1`).
    pub dense_kernel: bool,
    /// Only `perfbench/` reads this.
    #[doc(hidden)]
    pub batch_kernel: bool,
    /// Only `perfbench/` reads this.
    #[doc(hidden)]
    pub leap_kernel: bool,
    /// Only `perfbench/` sets or reads this. [`MachineConfig::validate`]
    /// rejects any value but 1: one machine runs on one host thread, and
    /// sweeps run machines in parallel through `IFENCE_JOBS`.
    #[doc(hidden)]
    pub machine_threads: usize,
    /// Collect structured trace events (speculation begin/commit/abort, CoV
    /// deferral start/end, store-buffer high-water marks, L2
    /// eviction/recall, DRAM fetch, deadlock diagnostics) during the run.
    /// Tracing never changes any simulated result — the trace stream is a
    /// pure observation, byte-identical across every kernel mode — so it
    /// defaults to off purely for speed and memory; `IFENCE_TRACE=1`
    /// enables it at run time.
    pub trace: bool,
}

impl MachineConfig {
    /// The paper's baseline 16-core machine running conventional RMO.
    pub fn paper_baseline() -> Self {
        Self::with_engine(EngineKind::Conventional(ConsistencyModel::Rmo))
    }

    /// A paper-baseline machine configured for the given ordering engine,
    /// with the store buffer Figure 6 pairs with that engine.
    pub fn with_engine(engine: EngineKind) -> Self {
        MachineConfig {
            cores: 16,
            core: CoreConfig::paper_core(),
            l1: CacheConfig::paper_l1d(),
            l2: L2Config::paper_l2(),
            dram: DramConfig::paper_dram(),
            store_buffer: engine.default_store_buffer(),
            interconnect: InterconnectConfig::paper_torus(),
            speculation: SpeculationConfig::default(),
            engine,
            seed: 0x1f3c_e5ee_d00d,
            dense_kernel: false,
            batch_kernel: true,
            leap_kernel: false,
            machine_threads: 1,
            trace: false,
        }
    }

    /// A reduced configuration (4 cores, smaller caches, shorter latencies)
    /// used by unit and integration tests to keep simulations fast while
    /// still exercising every mechanism.
    pub fn small_test(engine: EngineKind) -> Self {
        let mut cfg = Self::with_engine(engine);
        cfg.cores = 4;
        cfg.l1.size_bytes = 8 * 1024;
        cfg.l1.victim_entries = 4;
        cfg.l2.size_bytes = 256 * 1024;
        cfg.dram.latency = 60;
        cfg.interconnect = InterconnectConfig {
            mesh_width: 2,
            mesh_height: 2,
            hop_latency: 20,
            directory_latency: 4,
            retry_interval: 30,
        };
        cfg
    }

    /// Checks internal consistency of the configuration.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] describing the first problem found (zero
    /// or more than [`MAX_CORES`] cores, non-power-of-two block size, core count not matching the torus,
    /// zero-capacity structures, or a machine thread count other than 1).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("core count must be non-zero"));
        }
        if self.cores > MAX_CORES {
            return Err(ConfigError::new(format!(
                "{} cores exceed the limit of {MAX_CORES}: the directory's sharer mask has \
                 {MAX_CORES} bits",
                self.cores
            )));
        }
        if !self.l1.block_bytes.is_power_of_two() {
            return Err(ConfigError::new("L1 block size must be a power of two"));
        }
        if self.l1.associativity == 0 || self.l1.sets() == 0 {
            return Err(ConfigError::new("L1 geometry yields zero sets or ways"));
        }
        if self.cores != self.interconnect.nodes() {
            return Err(ConfigError::new(format!(
                "core count {} does not match torus nodes {}",
                self.cores,
                self.interconnect.nodes()
            )));
        }
        if self.interconnect.retry_interval == 0 {
            return Err(ConfigError::new("retry interval must be non-zero"));
        }
        if self.machine_threads != 1 {
            return Err(ConfigError::new(format!(
                "machine threads must be 1, not {}: a machine runs on one host thread \
                 (parallelise a sweep across machines with IFENCE_JOBS)",
                self.machine_threads
            )));
        }
        if !self.l2.unbounded() {
            if self.l2.associativity == 0 {
                return Err(ConfigError::new("L2 associativity must be non-zero"));
            }
            if self.l2.sets_per_bank(self.cores, self.l1.block_bytes) == 0 {
                return Err(ConfigError::new(format!(
                    "L2 geometry yields zero sets per bank ({} bytes over {} banks of {}-way {}-byte blocks)",
                    self.l2.size_bytes, self.cores, self.l2.associativity, self.l1.block_bytes
                )));
            }
        }
        if self.store_buffer.entries == 0 {
            return Err(ConfigError::new("store buffer must have at least one entry"));
        }
        if self.core.rob_size == 0 || self.core.width == 0 {
            return Err(ConfigError::new("core width and ROB size must be non-zero"));
        }
        Ok(())
    }

    /// Additional speculation-tracking state this configuration adds over the
    /// conventional baseline, in bytes (the paper's "approximately 1 KB"
    /// claim: two bits per L1 block plus the register checkpoint(s)).
    pub fn speculative_state_bytes(&self) -> usize {
        if !self.engine.is_speculative() {
            return 0;
        }
        let blocks = self.l1.blocks();
        let bits_per_block = 2 * self.engine.checkpoints();
        let spec_bits_bytes = (blocks * bits_per_block).div_ceil(8);
        // A SPARC-style register checkpoint: 32 integer + 32 FP 8-byte registers.
        let checkpoint_bytes = 64 * 8 * self.engine.checkpoints();
        spec_bits_bytes + checkpoint_bytes
    }

    /// Renders the Figure 6 parameter table as text rows.
    pub fn figure6_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "Processing Nodes".to_string(),
                format!(
                    "{} cores, {}-wide out-of-order, {}-entry ROB/LSQ",
                    self.cores, self.core.width, self.core.rob_size
                ),
            ),
            (
                "Store Buffer".to_string(),
                format!("{}-entry {}", self.store_buffer.entries, self.engine.store_buffer_kind()),
            ),
            (
                "L1 Caches".to_string(),
                format!(
                    "Split I/D, {} KB {}-way, {}-cycle load-to-use, {} ports, {} MSHRs, {}-entry victim cache",
                    self.l1.size_bytes / 1024,
                    self.l1.associativity,
                    self.l1.hit_latency,
                    self.core.mem_issue_ports,
                    self.l1.mshrs,
                    self.l1.victim_entries
                ),
            ),
            (
                "L2 Cache".to_string(),
                if self.l2.unbounded() {
                    format!("Unified, unbounded, {}-cycle hit latency", self.l2.hit_latency)
                } else {
                    format!(
                        "Unified, {} MB {}-way, {}-cycle hit latency",
                        self.l2.size_bytes / (1024 * 1024),
                        self.l2.associativity,
                        self.l2.hit_latency
                    )
                },
            ),
            (
                "Main Memory".to_string(),
                format!("{}-cycle access latency, {}-byte cache blocks", self.dram.latency, self.l1.block_bytes),
            ),
            (
                "Interconnect".to_string(),
                format!(
                    "{}x{} 2D torus, {} cycles per hop",
                    self.interconnect.mesh_width,
                    self.interconnect.mesh_height,
                    self.interconnect.hop_latency
                ),
            ),
            ("Ordering engine".to_string(), self.engine.label()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_is_valid() {
        let cfg = MachineConfig::paper_baseline();
        cfg.validate().expect("paper baseline must validate");
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.l1.sets(), 512);
        assert_eq!(cfg.l1.blocks(), 1024);
    }

    #[test]
    fn engine_default_store_buffers_match_figure_6() {
        use ConsistencyModel::*;
        assert_eq!(EngineKind::Conventional(Sc).default_store_buffer().entries, 64);
        assert_eq!(EngineKind::Conventional(Tso).store_buffer_kind(), StoreBufferKind::FifoWord);
        assert_eq!(
            EngineKind::Conventional(Rmo).default_store_buffer(),
            StoreBufferConfig { entries: 8 }
        );
        for engine in EngineKind::all().into_iter().filter(|e| e.is_speculative()) {
            assert_eq!(engine.store_buffer_kind(), StoreBufferKind::CoalescingBlock, "{engine}");
        }
        assert_eq!(EngineKind::InvisiSelective(Sc).default_store_buffer().entries, 8);
        assert_eq!(
            EngineKind::InvisiContinuous { commit_on_violate: false }
                .default_store_buffer()
                .entries,
            32
        );
        assert_eq!(EngineKind::InvisiSelectiveTwoCkpt(Sc).default_store_buffer().entries, 32);
    }

    #[test]
    fn continuous_config_gets_two_checkpoints() {
        for commit_on_violate in [false, true] {
            let engine = EngineKind::InvisiContinuous { commit_on_violate };
            assert_eq!(engine.checkpoints(), 2);
            assert_eq!(engine.commit_on_violate(), commit_on_violate);
            MachineConfig::with_engine(engine).validate().unwrap();
        }
    }

    /// Applies `break_it` to a paper baseline and asserts validation fails
    /// with a message containing `expect` (every `validate` path emits a
    /// distinct, greppable message).
    fn assert_rejected(expect: &str, break_it: impl FnOnce(&mut MachineConfig)) {
        let mut cfg = MachineConfig::paper_baseline();
        break_it(&mut cfg);
        let err = cfg.validate().expect_err(&format!("expected rejection: {expect}"));
        let text = err.to_string();
        assert!(text.contains(expect), "error {text:?} should mention {expect:?}");
        assert!(
            text.starts_with("invalid machine configuration: "),
            "ConfigError Display carries the standard prefix: {text:?}"
        );
    }

    #[test]
    fn every_validation_path_rejects_its_failure_mode() {
        assert_rejected("core count must be non-zero", |cfg| cfg.cores = 0);
        assert_rejected("exceed the limit of 64", |cfg| {
            cfg.cores = 65;
            cfg.interconnect.mesh_width = 13;
            cfg.interconnect.mesh_height = 5;
        });
        assert_rejected("power of two", |cfg| cfg.l1.block_bytes = 48);
        assert_rejected("zero sets or ways", |cfg| cfg.l1.associativity = 0);
        assert_rejected("zero sets or ways", |cfg| {
            // Geometry whose implied set count is zero: a cache smaller than
            // one (associativity × block) row.
            cfg.l1.size_bytes = 64;
            cfg.l1.associativity = 2;
            cfg.l1.block_bytes = 64;
        });
        assert_rejected("does not match torus nodes", |cfg| cfg.cores = 15);
        assert_rejected("store buffer must have at least one entry", |cfg| {
            cfg.store_buffer.entries = 0;
        });
        assert_rejected("ROB size must be non-zero", |cfg| cfg.core.rob_size = 0);
        assert_rejected("ROB size must be non-zero", |cfg| cfg.core.width = 0);
        assert_rejected("IFENCE_JOBS", |cfg| cfg.machine_threads = 2);
    }

    #[test]
    fn validate_accepts_sixty_four_cores_and_rejects_sixty_five() {
        let mut cfg = MachineConfig::paper_baseline();
        cfg.cores = 64;
        cfg.interconnect.mesh_width = 8;
        cfg.interconnect.mesh_height = 8;
        cfg.validate().expect("64 cores fit the sharer mask");
        cfg.cores = 65;
        cfg.interconnect.mesh_width = 13;
        cfg.interconnect.mesh_height = 5;
        let err = cfg.validate().expect_err("65 cores exceed the sharer mask");
        assert!(err.to_string().contains("65 cores exceed the limit of 64"), "{err}");
    }

    #[test]
    fn speculative_engines_require_checkpoints() {
        // The kind alone fixes the checkpoint count and the CoV policy: every
        // speculative engine holds at least one checkpoint, only the
        // two-checkpoint and continuous variants hold two, and only
        // Invisi_cont_CoV commits on violation.
        for engine in EngineKind::all() {
            let expected = match engine.label().as_str() {
                "sc" | "tso" | "rmo" => 0,
                l if l.ends_with("-2ckpt") || l.starts_with("Invisi_cont") => 2,
                _ => 1,
            };
            assert_eq!(engine.checkpoints(), expected, "{engine}");
            assert_eq!(engine.is_speculative(), expected > 0, "{engine}");
            assert_eq!(engine.commit_on_violate(), engine.label() == "Invisi_cont_CoV", "{engine}");
        }
    }

    #[test]
    fn config_errors_compare_and_clone() {
        let mut a = MachineConfig::paper_baseline();
        a.cores = 0;
        let mut b = MachineConfig::paper_baseline();
        b.cores = 0;
        let (ea, eb) = (a.validate().unwrap_err(), b.validate().unwrap_err());
        assert_eq!(ea, eb);
        assert_eq!(ea.clone(), eb);
    }

    #[test]
    fn engine_labels_roundtrip_through_from_label() {
        for engine in EngineKind::all() {
            assert_eq!(
                EngineKind::from_label(&engine.label()),
                Some(engine),
                "label {:?} must parse back to its engine",
                engine.label()
            );
        }
        for bad in ["", "SC", "Invisi_", "Invisi_x", "Invisi_sc-3ckpt", "ASO", "ASOx", "warp"] {
            assert_eq!(EngineKind::from_label(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn speculative_state_is_about_one_kilobyte() {
        // The paper: two bits per 64-byte L1 block (256 bytes for 64 KB) plus
        // one register checkpoint, "approximately 1 KB of additional state".
        let cfg = MachineConfig::with_engine(EngineKind::InvisiSelective(ConsistencyModel::Rmo));
        let bytes = cfg.speculative_state_bytes();
        assert!((512..=1536).contains(&bytes), "got {bytes} bytes");
        let conventional = MachineConfig::paper_baseline();
        assert_eq!(conventional.speculative_state_bytes(), 0);
    }

    #[test]
    fn torus_hop_distance_wraps_around() {
        let ic = InterconnectConfig::paper_torus();
        assert_eq!(ic.hops(0, 0), 0);
        assert_eq!(ic.hops(0, 1), 1);
        assert_eq!(ic.hops(0, 3), 1, "wrap-around in x");
        assert_eq!(ic.hops(0, 12), 1, "wrap-around in y");
        assert_eq!(ic.hops(0, 5), 2);
        assert_eq!(ic.hops(0, 10), 4);
        assert_eq!(ic.latency(0, 5), 200);
    }

    #[test]
    fn engine_labels_match_paper_bars() {
        assert_eq!(EngineKind::Conventional(ConsistencyModel::Sc).label(), "sc");
        assert_eq!(EngineKind::InvisiSelective(ConsistencyModel::Tso).label(), "Invisi_tso");
        assert_eq!(
            EngineKind::InvisiContinuous { commit_on_violate: true }.label(),
            "Invisi_cont_CoV"
        );
        assert_eq!(EngineKind::Aso(ConsistencyModel::Sc).label(), "ASOsc");
        assert_eq!(
            EngineKind::InvisiSelectiveTwoCkpt(ConsistencyModel::Sc).label(),
            "Invisi_sc-2ckpt"
        );
    }

    #[test]
    fn figure6_rows_cover_all_components() {
        let rows = MachineConfig::paper_baseline().figure6_rows();
        assert!(rows.len() >= 6);
        assert!(rows.iter().any(|(k, _)| k == "Interconnect"));
    }

    #[test]
    fn small_test_config_is_valid_for_all_engines() {
        for e in EngineKind::all() {
            MachineConfig::small_test(e).validate().unwrap();
        }
    }

    #[test]
    fn all_engine_kinds_are_distinct_and_complete() {
        let all = EngineKind::all();
        let mut labels: Vec<String> = all.iter().map(|e| e.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), all.len(), "engine labels must be unique");
        // 3 conventional + 3 selective + 3 two-checkpoint + 2 continuous + 3 ASO.
        assert_eq!(all.len(), 14);
        assert!(all.iter().any(|e| matches!(e, EngineKind::InvisiContinuous { .. })));
    }

    #[test]
    fn l2_and_retry_validation_paths_reject() {
        assert_rejected("retry interval must be non-zero", |cfg| {
            cfg.interconnect.retry_interval = 0;
        });
        assert_rejected("L2 associativity must be non-zero", |cfg| cfg.l2.associativity = 0);
        assert_rejected("zero sets per bank", |cfg| {
            // 16 banks × 8 ways × 64-byte blocks needs at least 8 KB.
            cfg.l2.size_bytes = 4 * 1024;
        });
        // The unbounded sentinel skips geometry checks entirely.
        let mut cfg = MachineConfig::paper_baseline();
        cfg.l2.size_bytes = 0;
        cfg.l2.associativity = 0;
        cfg.validate().expect("unbounded L2 needs no geometry");
        assert!(cfg.l2.unbounded());
        assert_eq!(cfg.l2.sets_per_bank(16, 64), 0);
    }

    #[test]
    fn l2_sets_per_bank_matches_paper_geometry() {
        let cfg = MachineConfig::paper_baseline();
        // 8 MB over 16 banks of 8 ways × 64-byte blocks = 1024 sets per bank.
        assert_eq!(cfg.l2.sets_per_bank(cfg.cores, cfg.l1.block_bytes), 1024);
        assert!(!cfg.l2.unbounded());
        let small = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Rmo));
        assert_eq!(small.l2.sets_per_bank(small.cores, small.l1.block_bytes), 128);
    }
}
