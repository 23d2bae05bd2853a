//! The coherence fabric: transaction engine tying together the banked L2
//! (with embedded directory), the DRAM tier behind it, and torus latencies.
//!
//! A transaction walks home-bank → L2 lookup → hit (`l2_hit_latency`) or
//! miss → DRAM fetch (`dram latency`) and fill. The hierarchy is inclusive:
//! every L1-resident block is L2-resident, so evicting an L2 line whose
//! embedded directory entry still records L1 holders first *recalls*
//! (invalidates) those holders. Recalls are ordinary external requests — they
//! flow through each core's `on_external` path and can be squashed against
//! or deferred by speculative state exactly like a remote writer's
//! invalidation.
//!
//! One probe per transaction; the transaction holds its line. A directory
//! access probes the block's L2 set once ([`BankedL2::touch_unpinned`]): a
//! line pinned by another transaction is retried without touching its LRU
//! position, a resident one is a hit, and an absent one is fetched from
//! DRAM. The hit or the fill yields the line's [`L2Handle`], which the
//! transaction keeps (a recall keeps its victim's) and which stays valid
//! because the transaction pins the line and resident L2 lines never move:
//! scheduling the fill, merging a holder's dirty data, completing the fill
//! and dropping a recalled line all reach the line through it, without
//! another probe. Debug builds check at every use that a fresh probe finds
//! the line at the held handle. Events in the event queue are a few
//! words each: a fill's granted state and block data are captured into the
//! transaction's slab slot when the fill is scheduled, and the
//! [`Delivery::Fill`] is built from that slot when the event pops and the
//! transaction completes.

use crate::directory::{home_of, DirectoryEntry, DirectoryState};
use crate::event_queue::EventQueue;
use crate::messages::{CoherenceReqKind, CoherenceRequest, Delivery, SnoopReply, TxnId};
use crate::slab::Slab;
use ifence_mem::{BankedL2, BlockData, L2Evicted, L2FillOutcome, L2Handle, LineState};
use ifence_stats::{FabricStats, Log2Hist, TraceEvent, TraceKind, TraceSink};
use ifence_types::{
    Addr, BlockAddr, CoreId, Cycle, FnvMap, InterconnectConfig, L2Config, MachineConfig,
    RoutingTable,
};

/// Latency and topology parameters of the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricConfig {
    /// Torus topology (one node per core), per-hop latency,
    /// directory occupancy per transaction and busy-retry interval.
    pub interconnect: InterconnectConfig,
    /// Shared-L2 geometry and hit latency (one bank per node; capacity 0 =
    /// unbounded).
    pub l2: L2Config,
    /// DRAM access latency in cycles (paid on every L2 miss).
    pub dram_latency: u64,
    /// Cache-block size in bytes.
    pub block_bytes: usize,
}

impl FabricConfig {
    /// Derives the fabric configuration from a full machine configuration.
    pub fn from_machine(cfg: &MachineConfig) -> Self {
        FabricConfig {
            interconnect: cfg.interconnect,
            l2: cfg.l2,
            dram_latency: cfg.dram.latency,
            block_bytes: cfg.l1.block_bytes,
        }
    }

    /// Delay before a request to a busy block or full set is retried.
    fn retry_interval(&self) -> u64 {
        self.interconnect.retry_interval
    }
}

/// A scheduled fabric event. Every variant is a few words: a fill's granted
/// state and block data wait in its transaction's slab slot
/// ([`Txn::fill`]) rather than in the event queue, so the queue moves no
/// 64-byte block payload per schedule and pop.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// The transaction's request reaches its home directory.
    DirAccess(u64),
    /// The transaction's data response reaches its requester.
    Fill(u64),
    /// An invalidation (a remote writer's GetM, or an inclusion recall)
    /// reaches a holder.
    Invalidate { core: CoreId, block: BlockAddr, txn: TxnId, requester: CoreId, recall: bool },
    /// A downgrade (a remote reader's GetS) reaches the owner.
    Downgrade { core: CoreId, block: BlockAddr, txn: TxnId, requester: CoreId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnKind {
    GetS,
    GetM,
    /// Inclusion recall: the home node invalidates every L1 holder of a
    /// victim line so it can be evicted from the L2.
    Recall,
}

#[derive(Debug, Clone)]
struct Txn {
    requester: CoreId,
    block: BlockAddr,
    kind: TxnKind,
    pending_acks: usize,
    data_ready_at: Cycle,
    grant_exclusive: bool,
    /// The granted state and the block data, captured when the fill is
    /// scheduled and delivered when its [`EventKind::Fill`] pops. `Some`
    /// also marks the fill as scheduled.
    fill: Option<(LineState, BlockData)>,
    /// The block's L2 line, pinned by this transaction: set by the
    /// directory access (or, for a recall, when it starts) and held until
    /// the transaction ends.
    line: Option<L2Handle>,
}

impl Txn {
    /// The L2 line this transaction holds. Debug builds check that the
    /// line is still where the transaction found it.
    fn line(&self, l2: &BankedL2<DirectoryEntry>) -> L2Handle {
        let line = self.line.expect("the transaction's directory access found its line");
        debug_assert_eq!(l2.probe(self.block.number()), Some(line), "{} moved", self.block);
        line
    }
}

/// The directory-MESI coherence fabric (see the crate-level documentation).
#[derive(Debug)]
pub struct CoherenceFabric {
    cfg: FabricConfig,
    /// Flat per-(from, to) latency table precomputed from
    /// `cfg.interconnect`, so the per-request torus routing is one indexed
    /// load instead of a div/mod chain.
    routing: RoutingTable,
    /// The shared banked L2; each line embeds its block's directory entry.
    l2: BankedL2<DirectoryEntry>,
    /// The DRAM tier: backing store for blocks not (or no longer) L2-resident.
    dram: FnvMap<u64, BlockData>,
    /// Scheduled events (directory accesses and deliveries), stored inline
    /// in a min-heap that pops cycle-major, schedule-order minor.
    events: EventQueue<EventKind>,
    /// Persistent scratch for the holder lists the directory walks build
    /// (invalidation fan-out, recall targets), so the request path allocates
    /// nothing in steady state.
    holder_scratch: Vec<CoreId>,
    /// In-flight transactions, slab-indexed by the id inside [`TxnId`];
    /// entries are freed eagerly when the transaction finalises, and stale
    /// ids (late acks) miss on the slot generation exactly as they used to
    /// miss in the old id map.
    txns: Slab<Txn>,
    total_transactions: u64,
    stats: FabricStats,
    /// Latency of every demand access that missed in the L2 (cycles).
    l2_miss_latency: Log2Hist,
    /// Event-queue depth sampled at every schedule.
    queue_depth: Log2Hist,
    /// The fabric's trace shard; events are attributed to the block's home
    /// node via [`TraceSink::emit_for`].
    trace: TraceSink,
}

impl CoherenceFabric {
    /// Creates an empty fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        let l2 = BankedL2::new(&cfg.l2, cfg.interconnect.nodes(), cfg.block_bytes);
        CoherenceFabric {
            routing: cfg.interconnect.routing_table(),
            cfg,
            l2,
            dram: FnvMap::default(),
            events: EventQueue::new(),
            holder_scratch: Vec::new(),
            txns: Slab::new(),
            total_transactions: 0,
            stats: FabricStats::new(),
            l2_miss_latency: Log2Hist::new(),
            queue_depth: Log2Hist::new(),
            trace: TraceSink::default(),
        }
    }

    /// Turns on structured event tracing for the fabric shard (capacity 0
    /// selects the default ring size). Tracing never changes fabric
    /// behaviour.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace.enable(0, capacity);
    }

    /// The fabric-side telemetry histograms: L2 miss latency and event-queue
    /// depth (the machine folds them into
    /// [`ifence_stats::RunHistograms`]).
    pub fn telemetry_hists(&self) -> (&Log2Hist, &Log2Hist) {
        (&self.l2_miss_latency, &self.queue_depth)
    }

    /// Drains the fabric's trace shard (events in emission order plus the
    /// ring's drop count).
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        self.trace.take()
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Number of transactions currently in flight (including recalls).
    pub fn outstanding(&self) -> usize {
        self.txns.len()
    }

    /// Total transactions ever issued by cores (GetS + GetM; recalls are
    /// fabric-initiated and counted in [`CoherenceFabric::stats`]).
    pub fn total_transactions(&self) -> u64 {
        self.total_transactions
    }

    /// Memory-hierarchy counters: L2 hits/misses/evictions/recalls and DRAM
    /// traffic.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Number of blocks currently resident in the L2.
    pub fn l2_resident_lines(&self) -> usize {
        self.l2.resident_lines()
    }

    /// The directory entry of `block` (Uncached when not L2-resident).
    fn directory_entry(&self, block: BlockAddr) -> DirectoryEntry {
        self.l2.probe(block.number()).map(|line| self.l2.line(line).dir).unwrap_or_default()
    }

    /// The directory state of `block` (Uncached when not L2-resident).
    pub fn directory_state(&self, block: BlockAddr) -> DirectoryState {
        self.directory_entry(block).state
    }

    /// The current exclusive owner of `block`, if any.
    pub fn owner(&self, block: BlockAddr) -> Option<CoreId> {
        self.directory_entry(block).owner()
    }

    /// Returns true if any event or transaction is still pending.
    pub fn busy(&self) -> bool {
        !self.txns.is_empty() || !self.events.is_empty()
    }

    /// The cycle of the earliest scheduled event, if any — the fabric's wake
    /// hint for the event-driven simulation kernel. `None` means the fabric
    /// will do nothing until a new request or snoop reply arrives (it may
    /// still hold transactions that are waiting on core responses; those are
    /// covered by the responding cores' own wake hints).
    pub fn next_due(&self) -> Option<Cycle> {
        self.events.next_due()
    }

    fn schedule(&mut self, time: Cycle, kind: EventKind) {
        self.events.schedule(time, kind);
        self.queue_depth.record(self.events.len() as u64);
    }

    fn latency(&self, from: CoreId, to: CoreId) -> u64 {
        self.routing.latency(from.index(), to.index())
    }

    fn home(&self, block: BlockAddr) -> CoreId {
        home_of(block, self.cfg.interconnect.nodes())
    }

    fn block_addr(&self, number: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(number * self.cfg.block_bytes as u64), self.cfg.block_bytes)
    }

    fn dram_block(&self, number: u64) -> BlockData {
        self.dram.get(&number).copied().unwrap_or_else(BlockData::zeroed)
    }

    /// Reads the memory-hierarchy value of the 8-byte word at `addr` — the
    /// L2 copy when resident (it may be dirtier than DRAM), else DRAM. Used
    /// by litmus tests and diagnostics; reflects only committed writebacks,
    /// never L1-private dirty data.
    pub fn read_memory_word(&self, addr: Addr) -> u64 {
        let block = BlockAddr::containing(addr, self.cfg.block_bytes);
        let word = addr.word_in_block(self.cfg.block_bytes).index();
        match self.l2.probe(block.number()) {
            Some(line) => self.l2.line(line).data.word(word),
            None => self.dram_block(block.number()).word(word),
        }
    }

    /// Writes the backing-store value of the 8-byte word at `addr` (used to
    /// initialise litmus-test memory). Updates both DRAM and, if resident,
    /// the L2 copy so the two tiers stay coherent.
    pub fn write_memory_word(&mut self, addr: Addr, value: u64) {
        let block = BlockAddr::containing(addr, self.cfg.block_bytes);
        let word = addr.word_in_block(self.cfg.block_bytes).index();
        let mut data = self.dram_block(block.number());
        data.set_word(word, value);
        self.dram.insert(block.number(), data);
        if let Some(line) = self.l2.probe(block.number()) {
            self.l2.line_mut(line).data.set_word(word, value);
        }
    }

    /// Issues a request from a core at time `now`.
    pub fn request(&mut self, req: CoherenceRequest, now: Cycle) {
        match req.kind {
            CoherenceReqKind::GetS | CoherenceReqKind::GetM => {
                self.total_transactions += 1;
                let kind = if matches!(req.kind, CoherenceReqKind::GetS) {
                    TxnKind::GetS
                } else {
                    TxnKind::GetM
                };
                let id = self.txns.insert(Txn {
                    requester: req.core,
                    block: req.block,
                    kind,
                    pending_acks: 0,
                    data_ready_at: now,
                    grant_exclusive: false,
                    fill: None,
                    line: None,
                });
                let home = self.home(req.block);
                let arrive =
                    now + self.latency(req.core, home) + self.cfg.interconnect.directory_latency;
                self.schedule(arrive, EventKind::DirAccess(id));
            }
            CoherenceReqKind::WritebackDirty(data) => {
                // Applied immediately: the timing error is a few tens of
                // cycles and the value is what matters for correctness. The
                // dirty copy lands in the L2 when the block is resident
                // (every fabric-filled block is, by inclusion, unless the L2
                // evicted it); a non-resident block's data goes straight to
                // DRAM without allocating.
                match self.l2.probe(req.block.number()) {
                    Some(line) => {
                        let line = self.l2.line_mut(line);
                        line.data = data;
                        line.dirty = true;
                        line.dir.remove_holder(req.core);
                    }
                    None => {
                        self.dram.insert(req.block.number(), data);
                        self.stats.dram_writebacks += 1;
                    }
                }
            }
            CoherenceReqKind::WritebackClean => {
                if let Some(line) = self.l2.probe(req.block.number()) {
                    self.l2.line_mut(line).dir.remove_holder(req.core);
                }
            }
        }
    }

    /// Fetches the absent `block` from DRAM into the L2, returning its new
    /// line and the DRAM latency of this access. `None` means the fill
    /// cannot proceed yet — a victim's L1 holders are being recalled, or
    /// every way of the target set is pinned — and the caller must retry.
    fn install_from_dram(&mut self, block: BlockAddr, now: Cycle) -> Option<(L2Handle, u64)> {
        let number = block.number();
        let data = self.dram_block(number);
        match self.l2.fill(number, data, DirectoryEntry::new(), DirectoryEntry::is_uncached) {
            L2FillOutcome::Installed { line, evicted } => {
                if let Some(ev) = evicted {
                    self.evict_l2_line(ev, now);
                }
                self.stats.l2_misses += 1;
                self.stats.dram_reads += 1;
                let latency = self.cfg.dram_latency;
                self.l2_miss_latency.record(latency);
                let home = self.home(block);
                self.trace.emit_for(home.index() as u32, now, TraceKind::DramFetch, latency);
                Some((line, latency))
            }
            L2FillOutcome::NeedsRecall { victim, line } => {
                self.start_recall(victim, line, now);
                None
            }
            L2FillOutcome::Blocked => None,
        }
    }

    /// Starts an inclusion recall of `victim`, resident at `line`: pins the
    /// line, and sends an invalidation to every L1 holder recorded in the
    /// embedded directory entry. When the last acknowledgement arrives the
    /// line is dropped and its (possibly dirtied) data written back to DRAM.
    fn start_recall(&mut self, victim: u64, line: L2Handle, now: Cycle) {
        let block = self.block_addr(victim);
        let home = self.home(block);
        let mut holders = std::mem::take(&mut self.holder_scratch);
        {
            let line = self.l2.line_mut(line);
            line.busy = true;
            line.dir.holders_into(&mut holders);
        }
        debug_assert!(!holders.is_empty(), "recalls target lines with L1 holders");
        let id = self.txns.insert(Txn {
            requester: home,
            block,
            kind: TxnKind::Recall,
            pending_acks: holders.len(),
            data_ready_at: now,
            grant_exclusive: false,
            fill: None,
            line: Some(line),
        });
        self.stats.l2_recalls += 1;
        self.trace.emit_for(home.index() as u32, now, TraceKind::L2Recall, holders.len() as u64);
        for &holder in &holders {
            let deliver_at = now + self.latency(home, holder);
            self.schedule(
                deliver_at,
                EventKind::Invalidate {
                    core: holder,
                    block,
                    txn: TxnId(id),
                    requester: home,
                    recall: true,
                },
            );
        }
        self.holder_scratch = holders;
    }

    fn process_dir_access(&mut self, id: u64, now: Cycle) {
        let (block, requester, kind) = match self.txns.get(id) {
            Some(t) => (t.block, t.requester, t.kind),
            None => return,
        };
        // One probe answers both "is the line pinned by another transaction"
        // and "is it resident"; a pinned line keeps its LRU position.
        let found = match self.l2.touch_unpinned(block.number()) {
            Some(Ok(line)) => {
                self.stats.l2_hits += 1;
                Some((line, self.cfg.l2.hit_latency))
            }
            Some(Err(_pinned)) => None,
            None => self.install_from_dram(block, now),
        };
        let Some((line, data_lat)) = found else {
            // The line is pinned, a recall is draining a victim's holders, or
            // every way of the set is pinned: retry later.
            self.stats.busy_retries += 1;
            self.schedule(now + self.cfg.retry_interval(), EventKind::DirAccess(id));
            return;
        };
        let home = self.home(block);
        self.txns.get_mut(id).expect("checked above").line = Some(line);
        // One borrow of the pinned line extracts everything the dispatch
        // below needs — owner, uncached-ness, upgrade-ness and the
        // invalidation fan-out (into the persistent scratch buffer) — so the
        // hot path allocates nothing.
        let mut holders = std::mem::take(&mut self.holder_scratch);
        let (owner, uncached, already_shared) = {
            let line = self.l2.line_mut(line);
            line.busy = true;
            if matches!(kind, TxnKind::GetM) {
                line.dir.holders_except_into(requester, &mut holders);
            }
            (line.dir.owner(), line.dir.is_uncached(), line.dir.holds(requester))
        };

        match kind {
            TxnKind::GetS => {
                let owner = owner.filter(|o| *o != requester);
                match owner {
                    Some(o) => {
                        let deliver_at = now + self.latency(home, o);
                        self.schedule(
                            deliver_at,
                            EventKind::Downgrade { core: o, block, txn: TxnId(id), requester },
                        );
                        if let Some(t) = self.txns.get_mut(id) {
                            t.pending_acks = 1;
                            t.data_ready_at = now + data_lat;
                        }
                    }
                    None => {
                        if let Some(t) = self.txns.get_mut(id) {
                            t.grant_exclusive = uncached;
                            t.data_ready_at = now + data_lat;
                        }
                        self.schedule_fill(id, now);
                    }
                }
            }
            TxnKind::GetM => {
                for &h in &holders {
                    let deliver_at = now + self.latency(home, h);
                    self.schedule(
                        deliver_at,
                        EventKind::Invalidate {
                            core: h,
                            block,
                            txn: TxnId(id),
                            requester,
                            recall: false,
                        },
                    );
                }
                if let Some(t) = self.txns.get_mut(id) {
                    t.pending_acks = holders.len();
                    // An upgrade needs no data; otherwise fetch from L2/DRAM
                    // in parallel with the invalidations.
                    t.data_ready_at = if already_shared { now } else { now + data_lat };
                    t.grant_exclusive = true;
                }
                if holders.is_empty() {
                    self.schedule_fill(id, now);
                }
            }
            TxnKind::Recall => unreachable!("recalls never enter the directory-access path"),
        }
        self.holder_scratch = holders;
    }

    /// Captures the fill's granted state and the block's data into the
    /// transaction (once) and schedules its delivery to the requester.
    fn schedule_fill(&mut self, id: u64, now: Cycle) {
        let Some(t) = self.txns.get(id) else { return };
        if t.fill.is_some() {
            return;
        }
        let (requester, block) = (t.requester, t.block);
        let state = match t.kind {
            TxnKind::GetS if !t.grant_exclusive => LineState::Shared,
            TxnKind::GetS | TxnKind::GetM => LineState::Exclusive,
            TxnKind::Recall => unreachable!("recalls deliver no fill"),
        };
        let home = self.home(block);
        let fill_at = t.data_ready_at.max(now) + self.latency(home, requester);
        // The pinned line is the single authoritative copy: respond() merged
        // any holder's dirty data into it before the last ack landed here.
        let data = self.l2.line(t.line(&self.l2)).data;
        self.txns.get_mut(id).expect("checked above").fill = Some((state, data));
        self.schedule(fill_at, EventKind::Fill(id));
    }

    /// Completes a transaction whose fill is due: records the requester in
    /// the directory, unpins the line, and returns the fill delivery built
    /// from the state and data parked in the transaction.
    fn finalize_fill(&mut self, id: u64) -> Option<Delivery> {
        let t = self.txns.remove(id)?;
        let (state, data) = t.fill.expect("a fill event follows schedule_fill");
        let line = self.l2.line_mut(t.line(&self.l2));
        match t.kind {
            TxnKind::GetM => line.dir.set_owner(t.requester),
            TxnKind::GetS => {
                if t.grant_exclusive {
                    line.dir.set_owner(t.requester);
                } else {
                    line.dir.add_sharer(t.requester);
                }
            }
            TxnKind::Recall => unreachable!("recalls complete via finalize_recall"),
        }
        line.busy = false;
        Some(Delivery::Fill { core: t.requester, block: t.block, state, data, txn: TxnId(id) })
    }

    /// Completes an inclusion recall: every holder has acknowledged, so the
    /// line leaves the L2 and its data (dirtied by any holder's writeback)
    /// lands in DRAM.
    fn finalize_recall(&mut self, id: u64, now: Cycle) {
        let Some(t) = self.txns.remove(id) else { return };
        debug_assert_eq!(t.kind, TxnKind::Recall);
        let ev = self.l2.remove(t.line(&self.l2));
        self.evict_l2_line(ev, now);
    }

    /// Accounts for a line that has left the L2, holderless or recalled:
    /// counts the eviction, traces it at the victim's home node and writes
    /// dirty data back to DRAM.
    fn evict_l2_line(&mut self, ev: L2Evicted<DirectoryEntry>, now: Cycle) {
        self.stats.l2_evictions += 1;
        let home = self.home(self.block_addr(ev.block));
        self.trace.emit_for(home.index() as u32, now, TraceKind::L2Eviction, ev.dirty as u64);
        if ev.dirty {
            self.dram.insert(ev.block, ev.data);
            self.stats.dram_writebacks += 1;
        }
    }

    /// A core's reply to an invalidation or downgrade delivery.
    pub fn respond(&mut self, reply: SnoopReply, now: Cycle) {
        let SnoopReply::Ack { core, txn, dirty_data } = reply;
        let id = txn.0;
        let (block, kind, line) = match self.txns.get(id) {
            Some(t) => (t.block, t.kind, t.line(&self.l2)),
            None => return,
        };
        let home = self.home(block);
        if let Some(d) = dirty_data {
            let line = self.l2.line_mut(line);
            line.data = d;
            line.dirty = true;
        }
        let ack_arrives = now + self.latency(core, home);
        let ready = {
            let t = self.txns.get_mut(id).expect("transaction exists");
            t.pending_acks = t.pending_acks.saturating_sub(1);
            t.pending_acks == 0
        };
        if ready {
            match kind {
                TxnKind::Recall => self.finalize_recall(id, now),
                TxnKind::GetS | TxnKind::GetM => self.schedule_fill(id, ack_arrives),
            }
        }
    }

    /// Advances the fabric to cycle `now`: clears `out` and fills it with
    /// every delivery that is due, so hot kernel loops can reuse one buffer
    /// across cycles. The caller must route each delivery to its destination
    /// core and, for external requests, feed the core's [`SnoopReply`] back
    /// via [`CoherenceFabric::respond`].
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        out.clear();
        while let Some((time, kind)) = self.events.pop_due(now) {
            match kind {
                EventKind::DirAccess(id) => self.process_dir_access(id, time.max(now)),
                EventKind::Fill(id) => out.extend(self.finalize_fill(id)),
                EventKind::Invalidate { core, block, txn, requester, recall } => {
                    out.push(Delivery::Invalidate { core, block, txn, requester, recall })
                }
                EventKind::Downgrade { core, block, txn, requester } => {
                    out.push(Delivery::Downgrade { core, block, txn, requester })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FabricConfig {
        FabricConfig {
            interconnect: InterconnectConfig {
                mesh_width: 2,
                mesh_height: 2,
                hop_latency: 10,
                directory_latency: 2,
                retry_interval: 8,
            },
            l2: L2Config { size_bytes: 0, associativity: 0, hit_latency: 5 },
            dram_latency: 20,
            block_bytes: 64,
        }
    }

    /// A tiny finite L2: 4 banks × 1 set × 2 ways = 8 blocks total.
    fn tiny_l2_config() -> FabricConfig {
        let mut cfg = config();
        cfg.l2 = L2Config { size_bytes: 4 * 2 * 64, associativity: 2, hit_latency: 5 };
        cfg
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn gets(core: usize, block: BlockAddr) -> CoherenceRequest {
        CoherenceRequest { core: CoreId(core), block, kind: CoherenceReqKind::GetS }
    }

    fn getm(core: usize, block: BlockAddr) -> CoherenceRequest {
        CoherenceRequest { core: CoreId(core), block, kind: CoherenceReqKind::GetM }
    }

    /// Drive the fabric, automatically acking external requests with the
    /// given dirty data, and return all fills.
    fn run_collect_fills(
        fabric: &mut CoherenceFabric,
        dirty: Option<BlockData>,
        limit: Cycle,
    ) -> Vec<(Cycle, Delivery)> {
        let mut fills = Vec::new();
        let mut due = Vec::new();
        for now in 0..limit {
            fabric.step_into(now, &mut due);
            for d in due.drain(..) {
                match d {
                    Delivery::Fill { .. } => fills.push((now, d)),
                    Delivery::Invalidate { core, txn, .. }
                    | Delivery::Downgrade { core, txn, .. } => {
                        fabric.respond(SnoopReply::Ack { core, txn, dirty_data: dirty }, now);
                    }
                }
            }
        }
        fills
    }

    #[test]
    fn cold_gets_grants_exclusive() {
        let mut fabric = CoherenceFabric::new(config());
        fabric.request(gets(0, blk(0x0)), 0);
        let fills = run_collect_fills(&mut fabric, None, 1000);
        assert_eq!(fills.len(), 1);
        match fills[0].1 {
            Delivery::Fill { core, state, .. } => {
                assert_eq!(core, CoreId(0));
                assert_eq!(state, LineState::Exclusive, "uncached GetS grants E");
            }
            _ => unreachable!(),
        }
        assert!(!fabric.busy());
        assert_eq!(fabric.owner(blk(0x0)), Some(CoreId(0)));
        assert_eq!(fabric.stats().l2_misses, 1, "cold access fetches from DRAM");
        assert_eq!(fabric.stats().dram_reads, 1);
    }

    #[test]
    fn second_reader_gets_shared_after_downgrade() {
        let mut fabric = CoherenceFabric::new(config());
        // Core 1 acquires the block exclusively, then core 2 reads it.
        fabric.request(getm(1, blk(0x40)), 0);
        let _ = run_collect_fills(&mut fabric, None, 1000);
        assert_eq!(fabric.owner(blk(0x40)), Some(CoreId(1)));

        fabric.request(gets(2, blk(0x40)), 1000);
        let mut downgrades = 0;
        let mut fills = Vec::new();
        let dirty = BlockData::from_words([0xAB; 8]);
        let mut due = Vec::new();
        for now in 1000..3000 {
            fabric.step_into(now, &mut due);
            for d in due.drain(..) {
                match d {
                    Delivery::Downgrade { core, txn, requester, .. } => {
                        assert_eq!(core, CoreId(1));
                        assert_eq!(requester, CoreId(2));
                        downgrades += 1;
                        fabric.respond(SnoopReply::Ack { core, txn, dirty_data: Some(dirty) }, now);
                    }
                    Delivery::Fill { core, state, data, .. } => fills.push((core, state, data)),
                    Delivery::Invalidate { .. } => panic!("GetS must not invalidate"),
                }
            }
        }
        assert_eq!(downgrades, 1);
        assert_eq!(fills.len(), 1);
        let (core, state, data) = fills[0];
        assert_eq!(core, CoreId(2));
        assert_eq!(state, LineState::Shared);
        assert_eq!(data.word(0), 0xAB, "fill carries the owner's dirty data");
        assert_eq!(fabric.directory_state(blk(0x40)), DirectoryState::Shared(0b110));
    }

    #[test]
    fn getm_invalidates_all_sharers() {
        let mut fabric = CoherenceFabric::new(config());
        // Cores 0 and 1 read the block; core 2 then writes it.
        fabric.request(gets(0, blk(0x80)), 0);
        let _ = run_collect_fills(&mut fabric, None, 600);
        fabric.request(gets(1, blk(0x80)), 600);
        let _ = run_collect_fills(&mut fabric, None, 1200);

        fabric.request(getm(2, blk(0x80)), 1200);
        let mut invalidated_cores = Vec::new();
        let mut fill = None;
        let mut due = Vec::new();
        for now in 1200..4000 {
            fabric.step_into(now, &mut due);
            for d in due.drain(..) {
                match d {
                    Delivery::Invalidate { core, txn, recall, .. } => {
                        assert!(!recall, "a remote GetM is not an inclusion recall");
                        invalidated_cores.push(core);
                        fabric.respond(SnoopReply::Ack { core, txn, dirty_data: None }, now);
                    }
                    Delivery::Fill { core, state, .. } => fill = Some((core, state, now)),
                    Delivery::Downgrade { .. } => panic!("GetM must invalidate, not downgrade"),
                }
            }
        }
        invalidated_cores.sort();
        assert_eq!(invalidated_cores, vec![CoreId(0), CoreId(1)]);
        let (core, state, _) = fill.expect("writer receives a fill");
        assert_eq!(core, CoreId(2));
        assert_eq!(state, LineState::Exclusive);
        assert_eq!(fabric.owner(blk(0x80)), Some(CoreId(2)));
    }

    #[test]
    fn fill_waits_for_deferred_ack() {
        let mut fabric = CoherenceFabric::new(config());
        fabric.request(getm(0, blk(0xc0)), 0);
        let _ = run_collect_fills(&mut fabric, None, 600);

        // Core 1 wants to write; core 0 defers (commit-on-violate), sending
        // nothing, and only acks 500 cycles later.
        fabric.request(getm(1, blk(0xc0)), 600);
        let mut deferred_txn = None;
        let mut fill_time = None;
        let mut due = Vec::new();
        for now in 600..5000 {
            fabric.step_into(now, &mut due);
            for d in due.drain(..) {
                match d {
                    Delivery::Invalidate { core, txn, .. } => {
                        assert_eq!(core, CoreId(0));
                        deferred_txn = Some((core, txn, now));
                    }
                    Delivery::Fill { core, .. } => {
                        assert_eq!(core, CoreId(1));
                        fill_time = Some(now);
                    }
                    _ => {}
                }
            }
            if let Some((core, txn, when)) = deferred_txn {
                if now == when + 500 {
                    fabric.respond(SnoopReply::Ack { core, txn, dirty_data: None }, now);
                }
            }
        }
        let (_, _, deferred_at) = deferred_txn.expect("an invalidation was deferred");
        let filled_at = fill_time.expect("the fill eventually arrives");
        assert!(
            filled_at >= deferred_at + 500,
            "fill at {filled_at} must wait for the deferred ack at {}",
            deferred_at + 500
        );
    }

    #[test]
    fn busy_block_requests_are_serialised() {
        let mut fabric = CoherenceFabric::new(config());
        // Two cores race to write the same block.
        fabric.request(getm(0, blk(0x100)), 0);
        fabric.request(getm(1, blk(0x100)), 0);
        let fills = run_collect_fills(&mut fabric, None, 5000);
        assert_eq!(fills.len(), 2, "both writers eventually complete");
        assert!(!fabric.busy());
        // The final owner is whichever transaction completed second.
        assert!(fabric.owner(blk(0x100)).is_some());
        assert_eq!(fabric.total_transactions(), 2);
        assert!(fabric.stats().busy_retries > 0, "the loser retried at the directory");
    }

    #[test]
    fn writeback_updates_memory_value() {
        let mut fabric = CoherenceFabric::new(config());
        fabric.request(getm(3, blk(0x140)), 0);
        let _ = run_collect_fills(&mut fabric, None, 600);
        let mut data = BlockData::zeroed();
        data.set_word(1, 77);
        fabric.request(
            CoherenceRequest {
                core: CoreId(3),
                block: blk(0x140),
                kind: CoherenceReqKind::WritebackDirty(data),
            },
            700,
        );
        assert_eq!(fabric.read_memory_word(Addr::new(0x148)), 77);
        assert_eq!(fabric.directory_state(blk(0x140)), DirectoryState::Uncached);

        // A later reader sees the written-back value.
        fabric.request(gets(0, blk(0x140)), 800);
        let fills = run_collect_fills(&mut fabric, None, 2000);
        match fills.last().unwrap().1 {
            Delivery::Fill { data, .. } => assert_eq!(data.word(1), 77),
            _ => unreachable!(),
        }
    }

    #[test]
    fn next_due_tracks_the_earliest_scheduled_event() {
        let mut fabric = CoherenceFabric::new(config());
        assert_eq!(fabric.next_due(), None, "an empty fabric schedules nothing");
        fabric.request(gets(0, blk(0x0)), 100);
        let due = fabric.next_due().expect("the directory access is scheduled");
        assert!(due > 100, "the event lies in the future (got {due})");
        // Stepping straight to the due cycle performs the same work dense
        // stepping would: eventually the fill is delivered and nothing is due.
        let mut now = 100;
        let mut due = Vec::new();
        while let Some(next) = fabric.next_due() {
            fabric.step_into(next, &mut due);
            for d in due.drain(..) {
                if let Delivery::Downgrade { core, txn, .. } = d {
                    fabric.respond(SnoopReply::Ack { core, txn, dirty_data: None }, next);
                }
            }
            assert!(next > now, "events advance monotonically");
            now = next;
        }
        assert!(!fabric.busy());
    }

    #[test]
    fn memory_word_init_roundtrip() {
        let mut fabric = CoherenceFabric::new(config());
        fabric.write_memory_word(Addr::new(0x208), 1234);
        assert_eq!(fabric.read_memory_word(Addr::new(0x208)), 1234);
        assert_eq!(fabric.read_memory_word(Addr::new(0x200)), 0);
    }

    #[test]
    fn local_requests_are_faster_than_remote() {
        // Home of block 0 is node 0; a request from node 0 avoids torus hops.
        let mut fabric_local = CoherenceFabric::new(config());
        fabric_local.request(gets(0, blk(0x0)), 0);
        let local = run_collect_fills(&mut fabric_local, None, 2000);

        let mut fabric_remote = CoherenceFabric::new(config());
        fabric_remote.request(gets(3, blk(0x0)), 0);
        let remote = run_collect_fills(&mut fabric_remote, None, 2000);

        assert!(local[0].0 < remote[0].0, "local {} < remote {}", local[0].0, remote[0].0);
    }

    #[test]
    fn second_touch_hits_in_l2() {
        let mut fabric = CoherenceFabric::new(config());
        fabric.request(gets(0, blk(0x0)), 0);
        let first = run_collect_fills(&mut fabric, None, 2000);
        // Drop the block and fetch it again from the same node: the second
        // fetch skips the DRAM latency.
        fabric.request(
            CoherenceRequest {
                core: CoreId(0),
                block: blk(0x0),
                kind: CoherenceReqKind::WritebackClean,
            },
            2000,
        );
        fabric.request(gets(0, blk(0x0)), 2000);
        let second = run_collect_fills(&mut fabric, None, 4000);
        let first_latency = first[0].0;
        let second_latency = second[0].0 - 2000;
        assert!(
            second_latency < first_latency,
            "L2 hit ({second_latency}) should beat cold miss ({first_latency})"
        );
        assert_eq!(fabric.stats().l2_hits, 1);
        assert_eq!(fabric.stats().l2_misses, 1);
    }

    #[test]
    fn capacity_eviction_writes_dirty_victim_to_dram() {
        // 2 ways per bank: the third distinct block homed at bank 0 evicts
        // the least-recently-used one. Holderless victims drop silently;
        // dirty ones land in DRAM.
        let mut fabric = CoherenceFabric::new(tiny_l2_config());
        // Bank 0 blocks: numbers 0, 4, 8 → byte addresses 0x0, 0x100, 0x200.
        fabric.request(getm(0, blk(0x000)), 0);
        let _ = run_collect_fills(&mut fabric, None, 600);
        let mut dirty = BlockData::zeroed();
        dirty.set_word(0, 55);
        fabric.request(
            CoherenceRequest {
                core: CoreId(0),
                block: blk(0x000),
                kind: CoherenceReqKind::WritebackDirty(dirty),
            },
            600,
        );
        // Fill the second way, then force the eviction of block 0.
        fabric.request(gets(0, blk(0x100)), 700);
        let _ = run_collect_fills(&mut fabric, None, 1400);
        fabric.request(
            CoherenceRequest {
                core: CoreId(0),
                block: blk(0x100),
                kind: CoherenceReqKind::WritebackClean,
            },
            1400,
        );
        fabric.request(gets(0, blk(0x200)), 1500);
        let _ = run_collect_fills(&mut fabric, None, 2200);
        assert!(fabric.stats().l2_evictions >= 1, "{:?}", fabric.stats());
        assert_eq!(fabric.stats().dram_writebacks, 1, "dirty victim written back");
        // The evicted dirty value survives in DRAM and is re-fetchable.
        assert_eq!(fabric.read_memory_word(Addr::new(0x000)), 55);
        fabric.request(gets(0, blk(0x000)), 2300);
        let fills = run_collect_fills(&mut fabric, None, 3000);
        match fills.last().expect("refetch completes").1 {
            Delivery::Fill { data, .. } => assert_eq!(data.word(0), 55),
            _ => unreachable!(),
        }
    }

    #[test]
    fn inclusion_eviction_recalls_l1_holders() {
        let mut fabric = CoherenceFabric::new(tiny_l2_config());
        // Two blocks of bank 0, both still held by L1s (no writeback).
        fabric.request(getm(1, blk(0x000)), 0);
        let _ = run_collect_fills(&mut fabric, None, 600);
        fabric.request(gets(2, blk(0x100)), 600);
        let _ = run_collect_fills(&mut fabric, None, 1200);
        assert_eq!(fabric.l2_resident_lines(), 2);

        // A third block needs the set: the LRU victim (0x000, owned by core
        // 1) must be recalled before the requester can be served.
        fabric.request(gets(3, blk(0x200)), 1200);
        let mut recalled = None;
        let mut fills = Vec::new();
        let dirty = BlockData::from_words([0x77; 8]);
        let mut due = Vec::new();
        for now in 1200..6000 {
            fabric.step_into(now, &mut due);
            for d in due.drain(..) {
                match d {
                    Delivery::Invalidate { core, txn, recall, block, .. } => {
                        assert!(recall, "the only invalidation here is the inclusion recall");
                        assert_eq!(core, CoreId(1));
                        assert_eq!(block, blk(0x000));
                        recalled = Some(now);
                        fabric.respond(SnoopReply::Ack { core, txn, dirty_data: Some(dirty) }, now);
                    }
                    Delivery::Fill { core, .. } => {
                        assert_eq!(core, CoreId(3));
                        fills.push(now);
                    }
                    Delivery::Downgrade { .. } => panic!("no downgrade expected"),
                }
            }
        }
        let recalled_at = recalled.expect("the recall was delivered");
        assert_eq!(fills.len(), 1, "the requester is eventually served");
        assert!(fills[0] > recalled_at, "the fill waits for the recall");
        assert_eq!(fabric.stats().l2_recalls, 1);
        assert!(fabric.stats().busy_retries > 0, "the requester retried during the recall");
        // The recalled owner's dirty data reached DRAM.
        assert_eq!(fabric.read_memory_word(Addr::new(0x000)), 0x77);
        assert_eq!(fabric.directory_state(blk(0x000)), DirectoryState::Uncached);
        assert!(!fabric.busy());
    }

    #[test]
    fn unbounded_l2_never_evicts_or_recalls() {
        let mut fabric = CoherenceFabric::new(config());
        for i in 0..64u64 {
            fabric.request(gets(0, blk(i * 64)), i * 500);
        }
        let _ = run_collect_fills(&mut fabric, None, 64 * 500 + 2000);
        assert_eq!(fabric.l2_resident_lines(), 64);
        assert_eq!(fabric.stats().l2_evictions, 0);
        assert_eq!(fabric.stats().l2_recalls, 0);
        assert_eq!(fabric.stats().l2_misses, 64, "every first touch is a cold miss");
    }

    /// The event queue stores events inline; a block payload (64 bytes of
    /// data plus its state) belongs in the transaction slot, not here.
    #[test]
    fn events_carry_no_block_payload() {
        assert!(std::mem::size_of::<EventKind>() <= 48);
    }
}
