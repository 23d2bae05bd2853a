//! The trace-driven out-of-order core model.

use crate::checkpoint::CheckpointLedger;
use crate::engine::{
    EngineCtx, ExternalKind, ExternalOutcome, OrderingEngine, RetireCtx, RetireOutcome,
};
use crate::mem_side::CoreMem;
use crate::rob::Rob;
use ifence_coherence::{CoherenceRequest, Delivery, SnoopReply, TxnId};
use ifence_stats::{CoreStats, TraceKind};
use ifence_types::{
    earliest_wake, BlockAddr, BoxedSource, CoreActivity, CoreConfig, CoreId, Cycle, CycleClass,
    InstrKind, MachineConfig, Program, ProgramSource, StallReason,
};

/// Sleep record for a quiescent core, kept by the event-driven machine
/// kernel while the core is provably idle.
/// On wake-up the skipped stretch is attributed in bulk via
/// [`Core::absorb_quiescent_cycles`], keeping cycle breakdowns exact.
#[derive(Debug, Clone, Copy)]
pub struct CoreSleep {
    /// First cycle of the quiescent stretch.
    pub since: Cycle,
    /// Breakdown class of the stretch (`None` for a finished core: its
    /// cycles are not attributed at all, exactly like the dense loop).
    pub class: Option<CycleClass>,
    /// Earliest cycle the core could act of its own accord; `None` means
    /// only a coherence delivery can wake it.
    pub wake_at: Option<Cycle>,
}

#[derive(Debug, Clone, Copy)]
struct DeferredSnoop {
    txn: TxnId,
    block: BlockAddr,
    kind: ExternalKind,
    deadline: Cycle,
}

/// One simulated processor core: pipeline, memory side, and ordering engine.
///
/// The core is driven externally: the machine model calls
/// [`Core::handle_delivery`] for every coherence message addressed to it,
/// [`Core::step`] once per cycle, and collects outgoing requests and snoop
/// replies with [`Core::drain_requests_into`] / [`Core::drain_replies_into`].
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    l1_hit_latency: u64,
    source: BoxedSource,
    /// High-water mark of the source's resident window (memory-boundedness
    /// diagnostics for streaming traces).
    max_resident: usize,
    next_fetch: usize,
    retired: usize,
    next_dispatch_id: u64,
    rob: Rob,
    /// The core's memory side (public so tests and engines can inspect it).
    pub mem: CoreMem,
    engine: Box<dyn OrderingEngine>,
    ledger: CheckpointLedger,
    stats: CoreStats,
    deferred: Vec<DeferredSnoop>,
    pending_replies: Vec<SnoopReply>,
    load_results: Vec<(usize, u64)>,
    /// The waiters of the fill being delivered (kept to reuse the
    /// allocation).
    fill_waiters: Vec<u64>,
    /// Leading issued prefix: ROB entries `[0, issued_prefix)` are all
    /// issued, so the issue stage starts its scan there instead of walking
    /// the whole buffer. Maintained by the issue stage and shifted by
    /// retirement; squashes only truncate the tail, so clamping to the
    /// current length keeps it sound.
    issued_prefix: usize,
}

impl Core {
    /// Creates a core executing the exact, pre-materialized `program` under
    /// the given machine configuration and ordering engine (convenience
    /// wrapper over [`Core::from_source`] for litmus and unit tests).
    pub fn new(
        id: CoreId,
        program: Program,
        cfg: &MachineConfig,
        engine: Box<dyn OrderingEngine>,
    ) -> Self {
        Self::from_source(id, Box::new(ProgramSource::new(program)), cfg, engine)
    }

    /// Creates a core fetching its trace from `source` — the streaming
    /// construction path. The source must honour the
    /// [`ifence_types::InstructionSource`] replay-window contract; the core
    /// in turn releases indices only once they are behind both the
    /// retirement frontier and the oldest live checkpoint
    /// ([`CheckpointLedger::rollback_floor`]), so every possible rollback
    /// target stays fetchable.
    pub fn from_source(
        id: CoreId,
        source: BoxedSource,
        cfg: &MachineConfig,
        engine: Box<dyn OrderingEngine>,
    ) -> Self {
        Core {
            id,
            cfg: cfg.core,
            l1_hit_latency: cfg.l1.hit_latency,
            max_resident: source.resident(),
            source,
            next_fetch: 0,
            retired: 0,
            next_dispatch_id: 0,
            rob: Rob::new(cfg.core.rob_size),
            mem: CoreMem::new(id, cfg),
            engine,
            ledger: CheckpointLedger::default(),
            stats: CoreStats::new(),
            deferred: Vec::new(),
            pending_replies: Vec::new(),
            load_results: Vec::new(),
            fill_waiters: Vec::new(),
            issued_prefix: 0,
        }
    }

    /// Only `perfbench/` reads this; always `false`.
    #[doc(hidden)]
    pub fn leap_transparent(&self) -> bool {
        false
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Turns on structured event tracing for this core (capacity 0 selects
    /// the default ring size). Tracing never changes simulated behaviour;
    /// see [`ifence_stats::TraceSink`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.stats.trace.enable(self.id.index() as u32, capacity);
    }

    /// Stamps the trace sink's cycle clock. The machine calls this with the
    /// final cycle before [`Core::finalize`] so finalize-time emissions carry
    /// the same cycle in every kernel mode (the dense loop keeps stepping
    /// finished cores, the event-driven one does not).
    pub fn stamp_trace(&mut self, now: Cycle) {
        self.stats.trace.set_now(now);
    }

    /// Drains this core's trace shard (events in emission order plus the
    /// ring's drop count).
    pub fn take_trace(&mut self) -> (Vec<ifence_stats::TraceEvent>, u64) {
        self.stats.trace.take()
    }

    /// Emits the structured deadlock diagnostic: one [`TraceKind::Deadlock`]
    /// event carrying this core's pipeline snapshot. No-op when tracing is
    /// off (the snapshot string is never built).
    pub fn trace_deadlock(&mut self, now: Cycle) {
        if self.stats.trace.is_enabled() {
            let snapshot = self.debug_snapshot(now);
            self.stats.trace.emit_detail(now, TraceKind::Deadlock, 0, snapshot);
        }
    }

    /// Number of instructions architecturally retired (not counting
    /// speculative retirements that were squashed).
    pub fn retired_count(&self) -> usize {
        self.retired
    }

    /// Values observed by retired loads and atomics, as
    /// `(program_index, value)` pairs reflecting the final (post-rollback)
    /// execution. Used by litmus tests.
    pub fn load_results(&self) -> &[(usize, u64)] {
        &self.load_results
    }

    /// High-water mark of the trace source's resident window. For a
    /// streaming source this stays O(replay window); for a materialized
    /// [`ProgramSource`] it is the whole trace length.
    pub fn max_trace_resident(&self) -> usize {
        self.max_resident
    }

    /// True once every instruction up to the trace's (known) end has
    /// retired. While a streaming source has not yet found its end this is
    /// false — more instructions are still to come.
    fn trace_done(&self) -> bool {
        self.source.end().is_some_and(|end| self.retired >= end)
    }

    /// True when every instruction has retired, the store buffer has drained,
    /// and no speculation is in flight.
    pub fn finished(&self) -> bool {
        self.trace_done()
            && self.rob.is_empty()
            && self.mem.sb_empty()
            && !self.ledger.speculating()
    }

    /// True while a post-retirement speculative episode is in flight.
    pub fn speculating(&self) -> bool {
        self.ledger.speculating()
    }

    /// Drains this core's coherence requests into `out`, preserving order.
    /// Both the core's outbox and the caller's buffer keep their capacity.
    pub fn drain_requests_into(&mut self, out: &mut Vec<CoherenceRequest>) {
        out.extend(self.mem.drain_requests());
    }

    /// Drains the snoop replies produced asynchronously (deferred
    /// acknowledgements resolved during [`Core::step`]) into `out`,
    /// preserving order.
    pub fn drain_replies_into(&mut self, out: &mut Vec<SnoopReply>) {
        out.append(&mut self.pending_replies);
    }

    /// Folds any still-open speculative episode into the statistics (called
    /// once when the simulation ends, at the cycle last stamped).
    pub fn finalize(&mut self) {
        let now = self.stats.trace.now();
        let Core { mem, engine, stats, ledger, .. } = self;
        engine.finalize(&mut EngineCtx { mem, stats, ledger, now });
    }

    /// A one-line description of the core's pipeline state, for diagnosing
    /// stalls and deadlocks.
    pub fn debug_snapshot(&self, now: Cycle) -> String {
        let head = match self.rob.head() {
            Some(h) => format!(
                "head=[#{} {} issued={} complete_at={:?} performed={} block={:?}]",
                h.program_index, h.instr, h.issued, h.complete_at, h.performed_read, h.block
            ),
            None => "head=[empty]".to_string(),
        };
        let mshrs: Vec<String> = self
            .mem
            .mshrs
            .iter()
            .map(|e| {
                format!(
                    "{}(w={},pf={},waiters={})",
                    e.block,
                    e.for_write,
                    e.prefetch,
                    e.waiters.len()
                )
            })
            .collect();
        let trace_len = match self.source.end() {
            Some(end) => end.to_string(),
            None => "?".to_string(),
        };
        format!(
            "core{} now={} retired={}/{} rob={} sb={} spec={} deferred={} {} mshrs=[{}]",
            self.id.index(),
            now,
            self.retired,
            trace_len,
            self.rob.len(),
            self.mem.sb.len(),
            self.ledger.speculating(),
            self.deferred.len(),
            head,
            mshrs.join(", ")
        )
    }

    fn rollback(&mut self, resume_at: usize) {
        let squashed_inflight = self.rob.squash_all();
        let squashed_retired = self.retired.saturating_sub(resume_at);
        self.stats.counters.instructions_squashed += (squashed_inflight + squashed_retired) as u64;
        self.next_fetch = resume_at;
        self.retired = resume_at;
        self.load_results.retain(|(idx, _)| *idx < resume_at);
        // The buffer is empty now; the issued-prefix watermark refers to
        // positions that no longer exist.
        self.issued_prefix = 0;
    }

    /// Handles one delivery from the coherence fabric, returning the snoop
    /// reply to send back (external requests only; fills need no reply).
    pub fn handle_delivery(&mut self, delivery: Delivery, now: Cycle) -> Option<SnoopReply> {
        self.stats.trace.set_now(now);
        match delivery {
            Delivery::Fill { block, state, data, .. } => {
                let mut slot = self.mem.l1.fill_slot(block);
                if self.mem.l1.slot_evicts_spec(slot) {
                    let resume_at = {
                        let Core { mem, engine, stats, ledger, .. } = self;
                        engine.on_spec_eviction_pressure(&mut EngineCtx { mem, stats, ledger, now })
                    };
                    if let Some(resume_at) = resume_at {
                        self.rollback(resume_at);
                    }
                    // The engine committed or aborted, so the victim may have moved.
                    slot = self.mem.l1.fill_slot(block);
                }
                let mut waiters = std::mem::take(&mut self.fill_waiters);
                self.mem.fill(slot, state, data, now, &mut self.stats.counters, &mut waiters);
                for &waiter in &waiters {
                    self.complete_waiter(waiter, block, now);
                }
                self.fill_waiters = waiters;
                #[cfg(debug_assertions)]
                self.assert_pending_entries_are_waiters();
                None
            }
            Delivery::Invalidate { block, txn, recall, .. } => {
                self.stats.counters.external_invalidations += 1;
                if recall {
                    self.stats.counters.l2_recalls_received += 1;
                }
                self.settle_external(block, ExternalKind::Invalidate, txn, None, now)
            }
            Delivery::Downgrade { block, txn, .. } => {
                self.stats.counters.external_downgrades += 1;
                self.settle_external(block, ExternalKind::Downgrade, txn, None, now)
            }
        }
    }

    /// Checks the invariant that lets a fill wake exactly its MSHR's
    /// waiters: every issued, incomplete ROB entry with a block is a waiter
    /// in the MSHR for that block. Issuing registers the waiter
    /// (`ensure_read_miss`, `ensure_write_miss`), only the fill removes it,
    /// and an entry squashed and re-dispatched registers its new dispatch id
    /// when it issues again.
    #[cfg(debug_assertions)]
    fn assert_pending_entries_are_waiters(&self) {
        for position in 0..self.rob.len() {
            let entry = self.rob.get(position).expect("position below len");
            let Some(block) = entry.block else { continue };
            if !entry.issued || entry.complete_at.is_some() {
                continue;
            }
            let registered =
                self.mem.mshrs.get(block).is_some_and(|m| m.waiters.contains(&entry.dispatch_id));
            assert!(
                registered,
                "core{}: issued, incomplete #{} on {block} is not an MSHR waiter",
                self.id.index(),
                entry.program_index
            );
        }
    }

    fn complete_waiter(&mut self, waiter: u64, block: BlockAddr, now: Cycle) {
        let hit_latency = self.l1_hit_latency;
        let at_head = self.mem.sb_empty()
            && self.rob.head().map(|h| h.dispatch_id == waiter).unwrap_or(false);
        // Find the waiting instruction; it may have been squashed, in which
        // case there is nothing to do.
        let Some(position) = self.rob.position_of(waiter) else { return };
        let Core { rob, mem, engine, ledger, .. } = self;
        let entry = rob.get_mut(position).expect("position below len");
        entry.complete_at = Some(now + hit_latency);
        if entry.instr.kind.reads_memory() && !entry.performed_read {
            let addr = entry.instr.kind.addr().unwrap_or_default();
            entry.bind_read(Some(mem.read_value(addr).unwrap_or(0)), at_head);
            engine.on_load_issue(mem, ledger, block);
        }
    }

    /// Asks the engine about an external request and applies its answer:
    /// `deferred` is `None` when the request arrives and the deadline of
    /// its first deferral on each re-poll. Returns the acknowledgement, or
    /// `None` while the request stays deferred inside the core; a deferral
    /// is recorded when it starts, and its end (0 acked, 1 rolled back) when
    /// it ends.
    fn settle_external(
        &mut self,
        block: BlockAddr,
        kind: ExternalKind,
        txn: TxnId,
        deferred: Option<Cycle>,
        now: Cycle,
    ) -> Option<SnoopReply> {
        let outcome = {
            let Core { mem, engine, stats, ledger, .. } = self;
            engine.on_external(&mut EngineCtx { mem, stats, ledger, now }, block, kind, deferred)
        };
        let resume_at = match outcome {
            ExternalOutcome::Defer { until } => {
                if deferred.is_none() {
                    self.stats.counters.cov_deferrals += 1;
                    let window = until.saturating_sub(now);
                    self.stats.hists.deferral.record(window);
                    self.stats.trace.emit_at(now, TraceKind::CovDeferStart, window);
                    self.deferred.push(DeferredSnoop { txn, block, kind, deadline: until });
                }
                return None;
            }
            ExternalOutcome::Ack => None,
            ExternalOutcome::AckAfterRollback { resume_at } => Some(resume_at),
        };
        if deferred.is_some() {
            self.stats.trace.emit_at(now, TraceKind::CovDeferEnd, resume_at.is_some() as u64);
        }
        match resume_at {
            Some(resume_at) => self.rollback(resume_at),
            None => self.in_window_snoop(block, kind),
        }
        Some(self.apply_and_ack(block, kind, txn))
    }

    /// The in-window ordering mechanism (load-queue snooping): a remote
    /// write squashes the oldest load of `block` whose value is still
    /// vulnerable (read before it reached the head) and everything younger.
    /// It runs under every engine, InvisiFence-Continuous included
    /// (PAPER.md, "Modelling approximations", item 3).
    fn in_window_snoop(&mut self, block: BlockAddr, kind: ExternalKind) {
        if !kind.is_write() {
            return;
        }
        if let Some(entry) = self.rob.oldest_vulnerable_read_of(block) {
            let resume_at = entry.program_index;
            let squashed = self.rob.squash_from(resume_at);
            if squashed > 0 {
                self.stats.counters.in_window_replays += 1;
                self.stats.counters.instructions_squashed += squashed as u64;
                self.next_fetch = resume_at;
                // The squash truncated the tail; clamp the issued-prefix
                // watermark to the surviving prefix.
                self.issued_prefix = self.issued_prefix.min(self.rob.len());
            }
        }
    }

    fn apply_and_ack(&mut self, block: BlockAddr, kind: ExternalKind, txn: TxnId) -> SnoopReply {
        let dirty = match kind {
            ExternalKind::Invalidate => self.mem.apply_invalidate(block),
            ExternalKind::Downgrade => self.mem.apply_downgrade(block),
        };
        SnoopReply::Ack { core: self.id, txn, dirty_data: dirty }
    }

    /// Re-polls every deferred request, queueing the acknowledgement of each
    /// one that ends; returns true if any did (state changed). The
    /// still-deferred snoops are compacted to the front of the taken list in
    /// their original order, so the list's allocation is reused.
    fn poll_deferred(&mut self, now: Cycle) -> bool {
        let mut deferred = std::mem::take(&mut self.deferred);
        let before = deferred.len();
        let mut kept = 0;
        for i in 0..before {
            let d = deferred[i];
            match self.settle_external(d.block, d.kind, d.txn, Some(d.deadline), now) {
                Some(reply) => self.pending_replies.push(reply),
                None => {
                    deferred[kept] = d;
                    kept += 1;
                }
            }
        }
        deferred.truncate(kept);
        self.deferred = deferred;
        kept != before
    }

    /// Issues ready instructions, returning true if any state changed. The
    /// scan starts at the issued prefix: entries below it are all issued
    /// (a scan from position 0 would skip them without reading or writing
    /// anything), and unissued memory operations consume issue ports in
    /// buffer order either way.
    fn issue_stage(&mut self, now: Cycle) -> bool {
        let start = self.issued_prefix.min(self.rob.len());
        let mut issued_any = false;
        let mut mem_ports_used = 0;
        let mut issued_prefix = None;
        let max_ports = self.cfg.mem_issue_ports;
        let hit_latency = self.l1_hit_latency;
        // Borrow pieces separately so issuing can touch the memory side while
        // iterating the reorder buffer.
        let Core { rob, mem, engine, stats, ledger, .. } = self;
        let sb_empty_now = mem.sb_empty();
        let rob_len = rob.len();
        for position in start..rob_len {
            let entry = rob.get_mut(position).expect("index below len");
            // A value bound here is immune to later invalidations only if
            // every older instruction has retired AND no older store is still
            // pending in the store buffer (otherwise the binding could expose
            // a forbidden reordering, e.g. Dekker under SC).
            let at_head = position == 0 && sb_empty_now;
            if entry.issued {
                continue;
            }
            let Some(addr) = entry.instr.kind.addr() else {
                // An ALU operation or a fence needs no memory port.
                let latency = match entry.instr.kind {
                    InstrKind::Op(lat) => lat as u64,
                    _ => 1,
                };
                entry.complete_at = Some(now + latency);
                entry.issued = true;
                issued_any = true;
                continue;
            };
            if mem_ports_used >= max_ports {
                issued_prefix.get_or_insert(position);
                continue;
            }
            mem_ports_used += 1;
            // A memory operation's first issue attempt records its block even
            // when the issue itself fails (MSHRs full); that is a state
            // change the quiescence analysis must see.
            let block_known = entry.block.is_some();
            let block = mem.block_of(addr);
            entry.block = Some(block);
            match entry.instr.kind {
                InstrKind::Load(_) => {
                    if let Some(value) = mem.sb.forward(addr) {
                        entry.bind_read(Some(value), at_head);
                        entry.complete_at = Some(now + 1);
                        entry.issued = true;
                        stats.counters.sb_forwards += 1;
                        if mem.l1.peek(block).readable() {
                            engine.on_load_issue(mem, ledger, block);
                        }
                    } else if let Some(value) =
                        mem.l1.load_word(block, addr.word_in_block(mem.block_bytes()).index())
                    {
                        entry.bind_read(Some(value), at_head);
                        entry.complete_at = Some(now + hit_latency);
                        entry.issued = true;
                        stats.counters.l1_hits += 1;
                        engine.on_load_issue(mem, ledger, block);
                    } else if mem.ensure_read_miss(
                        block,
                        entry.dispatch_id,
                        now,
                        &mut stats.counters,
                    ) {
                        entry.issued = true;
                    }
                }
                InstrKind::Store(..) => {
                    entry.complete_at = Some(now + 1);
                    entry.issued = true;
                    mem.store_prefetch(block, now, &mut stats.counters);
                }
                InstrKind::Atomic(..) => {
                    if mem.l1.lookup(block).writable() {
                        let word = addr.word_in_block(mem.block_bytes()).index();
                        let value = mem.sb.forward(addr).or_else(|| mem.l1.read_word(block, word));
                        entry.bind_read(value, at_head);
                        entry.complete_at = Some(now + hit_latency);
                        entry.issued = true;
                        stats.counters.l1_hits += 1;
                        engine.on_load_issue(mem, ledger, block);
                    } else if mem.ensure_write_miss(
                        block,
                        Some(entry.dispatch_id),
                        false,
                        now,
                        &mut stats.counters,
                    ) {
                        entry.issued = true;
                    }
                }
                InstrKind::Op(_) | InstrKind::Fence(_) => unreachable!("has no address"),
            }
            if entry.issued || entry.block.is_some() != block_known {
                issued_any = true;
            }
            if !entry.issued && issued_prefix.is_none() {
                issued_prefix = Some(position);
            }
        }
        // `start` is the previous prefix, so an untouched prefix means every
        // entry up to `rob_len` is issued.
        self.issued_prefix = issued_prefix.unwrap_or(rob_len);
        issued_any
    }

    fn retire_stage(&mut self, now: Cycle) -> (usize, Option<StallReason>) {
        let mut retired_this_cycle = 0;
        let mut stall = None;
        while retired_this_cycle < self.cfg.width {
            let head = match self.rob.head() {
                Some(h) => *h,
                None => {
                    // More instructions remain when the fetch frontier is
                    // below the trace end — or the end is not known yet
                    // (a streaming source still generating).
                    if self.source.end().map_or(true, |end| self.next_fetch < end) {
                        stall = Some(StallReason::RobEmpty);
                    }
                    break;
                }
            };
            if !self.rob.head_completed(now) {
                stall = Some(StallReason::IncompleteHead);
                break;
            }
            let outcome = {
                let Core { mem, engine, stats, ledger, .. } = self;
                engine.try_retire(&mut RetireCtx { mem, stats, ledger, now, entry: &head })
            };
            match outcome {
                RetireOutcome::Retired => {
                    self.ledger.note_retirement();
                    self.rob.pop_head();
                    self.retired = head.program_index + 1;
                    retired_this_cycle += 1;
                    self.stats.counters.instructions_retired += 1;
                    match head.instr.kind {
                        InstrKind::Load(_) => {
                            self.stats.counters.loads_retired += 1;
                            self.load_results
                                .push((head.program_index, head.loaded_value.unwrap_or(0)));
                        }
                        InstrKind::Store(..) => self.stats.counters.stores_retired += 1,
                        InstrKind::Atomic(..) => {
                            self.stats.counters.atomics_retired += 1;
                            self.load_results
                                .push((head.program_index, head.loaded_value.unwrap_or(0)));
                        }
                        InstrKind::Fence(_) => self.stats.counters.fences_retired += 1,
                        InstrKind::Op(_) => {}
                    }
                }
                RetireOutcome::Stall(reason) => {
                    stall = Some(reason);
                    break;
                }
            }
        }
        // Retirement pops entries off the head, shifting every position the
        // issued-prefix watermark refers to.
        self.issued_prefix = self.issued_prefix.saturating_sub(retired_this_cycle);
        (retired_this_cycle, stall)
    }

    fn dispatch_stage(&mut self) -> usize {
        let mut dispatched = 0;
        while dispatched < self.cfg.width && !self.rob.is_full() {
            let Some(instr) = self.source.fetch(self.next_fetch) else { break };
            self.rob.push(self.next_fetch, self.next_dispatch_id, instr);
            self.next_fetch += 1;
            self.next_dispatch_id += 1;
            dispatched += 1;
        }
        self.max_resident = self.max_resident.max(self.source.resident());
        dispatched
    }

    /// Advances the core by one cycle, reporting whether it changed state and
    /// — when it did not — the earliest cycle it could act again (the
    /// event-driven kernel's scheduling contract; see
    /// [`ifence_types::CoreActivity`]).
    ///
    /// Every kernel runs every cycle through this one pipeline. Each stage
    /// carries its own liveness guard, so a stage that provably has nothing
    /// to do costs a length check: engine maintenance runs only while
    /// [`OrderingEngine::tick_live`] says it may act, deferred resolution
    /// only while snoops are deferred, the drain only while the store buffer
    /// holds an unparked entry (one whose block is not waiting for its
    /// fill), and the issue scan starts past the issued prefix.
    pub fn step(&mut self, now: Cycle) -> CoreActivity {
        self.stats.trace.set_now(now);
        let speculating_before = self.ledger.speculating();

        // 1. Engine maintenance (opportunistic commit, chunk management).
        if self.engine.tick_live(&self.ledger) {
            let Core { mem, engine, stats, ledger, .. } = self;
            engine.tick(&mut EngineCtx { mem, stats, ledger, now });
        }

        // 2. Re-poll deferred external requests.
        let deferred_resolved = !self.deferred.is_empty() && self.poll_deferred(now);

        // 3. Drain the store buffer into the L1.
        let drained = if self.mem.sb_empty() {
            0
        } else {
            let Core { mem, engine, stats, ledger, .. } = self;
            let drain_limit = self.cfg.sb_drain_per_cycle;
            mem.drain_store_buffer(drain_limit, now, &mut stats.counters, |epoch| {
                engine.can_drain(ledger, epoch)
            })
        };

        // 4. Issue ready instructions to the memory system / ALUs.
        let issued = self.issue_stage(now);

        // 5. Retire in order, consulting the ordering engine.
        let (retired, stall) = self.retire_stage(now);

        // 6. Dispatch new instructions from the trace.
        let dispatched = self.dispatch_stage();

        // Release trace indices that no rollback can ever revisit: everything
        // behind both the retirement frontier and the oldest live
        // checkpoint. A streaming source discards its window up to here.
        let frontier = self.ledger.rollback_floor().unwrap_or(self.retired).min(self.retired);
        self.source.release(frontier);

        // End of program: once everything has retired and drained, fold any
        // still-open speculation into the final state (its ordering
        // requirements are trivially satisfied because the store buffer is
        // empty).
        let mut finalized = false;
        if self.ledger.speculating()
            && self.rob.is_empty()
            && self.mem.sb_empty()
            && self.trace_done()
        {
            let Core { mem, engine, stats, ledger, .. } = self;
            engine.finalize(&mut EngineCtx { mem, stats, ledger, now });
            finalized = true;
        }

        // 7. Attribute the cycle.
        let class = if self.finished() {
            None
        } else if retired > 0 {
            Some(CycleClass::Busy)
        } else {
            Some(stall.map(|s| s.cycle_class()).unwrap_or(CycleClass::Other))
        };
        if let Some(class) = class {
            self.ledger.record_cycles(class, 1, &mut self.stats);
        }

        let progressed = retired > 0
            || dispatched > 0
            || issued
            || drained > 0
            || deferred_resolved
            || finalized
            || self.ledger.speculating() != speculating_before;
        if progressed {
            CoreActivity::progressed(retired, class)
        } else {
            CoreActivity::quiescent(class, self.wake_hint(now))
        }
    }

    /// The earliest future cycle at which this (quiescent) core could act of
    /// its own accord: the head instruction's completion time, the earliest
    /// deferred-snoop deadline, or an engine timer. `None` means only a
    /// coherence delivery can wake it — the core is blocked on the fabric
    /// (an MSHR is outstanding) or has finished.
    fn wake_hint(&self, now: Cycle) -> Option<Cycle> {
        let head_completion = self.rob.head_complete_at().filter(|&c| c > now);
        let deferred_deadline = self.deferred.iter().map(|d| d.deadline).min();
        let engine_timer = self.engine.next_wake(now);
        earliest_wake(earliest_wake(head_completion, deferred_deadline), engine_timer)
    }

    /// Attributes `cycles` skipped quiescent cycles to `class`, exactly as the
    /// per-cycle loop would have, one cycle at a time. Called by the
    /// event-driven machine kernel after a time jump; `class` is the one this
    /// core reported for the cycle preceding the jump, which is provably the
    /// class of every skipped cycle (nothing changed in between).
    pub fn absorb_quiescent_cycles(&mut self, class: CycleClass, cycles: Cycle) {
        if cycles == 0 {
            return;
        }
        self.ledger.record_cycles(class, cycles, &mut self.stats);
    }

    /// Consumes the core, yielding its statistics and retired-load results
    /// without cloning (the machine's consuming finalisation path).
    pub fn into_parts(self) -> (CoreStats, Vec<(usize, u64)>) {
        (self.stats, self.load_results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FreeRetireEngine;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{Addr, ConsistencyModel, EngineKind, Instruction};

    fn machine_cfg() -> MachineConfig {
        MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Rmo))
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn prefill(core: &mut Core, blocks: &[u64], state: LineState) {
        for &b in blocks {
            core.mem.l1.fill(blk(b), state, BlockData::zeroed());
        }
    }

    fn drained_requests(core: &mut Core) -> Vec<CoherenceRequest> {
        let mut out = Vec::new();
        core.drain_requests_into(&mut out);
        out
    }

    fn run(core: &mut Core, cycles: Cycle) {
        for now in 0..cycles {
            core.step(now);
            if core.finished() {
                break;
            }
        }
    }

    #[test]
    fn retires_simple_program_of_hits() {
        let cfg = machine_cfg();
        let mut program = Program::new();
        for i in 0..32u64 {
            program.push(Instruction::op(1));
            program.push(Instruction::load(Addr::new(0x1000 + (i % 4) * 64)));
        }
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        prefill(&mut core, &[0x1000, 0x1040, 0x1080, 0x10c0], LineState::Exclusive);
        run(&mut core, 10_000);
        assert!(core.finished());
        assert_eq!(core.retired_count(), 64);
        assert_eq!(core.stats().counters.loads_retired, 32);
        assert!(core.stats().counters.l1_hits >= 32);
        assert!(core.stats().breakdown.get(CycleClass::Busy) > 0);
    }

    #[test]
    fn load_miss_waits_for_fill() {
        let cfg = machine_cfg();
        let mut program = Program::new();
        program.push(Instruction::load(Addr::new(0x2000)));
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        // Step a few cycles: the load misses and cannot retire.
        for now in 0..20 {
            core.step(now);
        }
        assert!(!core.finished());
        let reqs = drained_requests(&mut core);
        assert_eq!(reqs.len(), 1, "exactly one GetS issued");
        assert_eq!(core.stats().breakdown.get(CycleClass::Other), 20);
        // Deliver the fill; the load completes, reads the value, and retires.
        core.handle_delivery(
            Delivery::Fill {
                core: CoreId(0),
                block: blk(0x2000),
                state: LineState::Shared,
                data: BlockData::from_words([42; 8]),
                txn: TxnId(0),
            },
            20,
        );
        for now in 21..40 {
            core.step(now);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished());
        assert_eq!(core.load_results(), &[(0, 42)]);
    }

    #[test]
    fn store_drains_through_buffer_after_fill() {
        let cfg = machine_cfg();
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x3000), 7));
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        for now in 0..10 {
            core.step(now);
        }
        // The store retired into the buffer but the core is not finished
        // until the buffer drains.
        assert_eq!(core.retired_count(), 1);
        assert!(!core.finished());
        core.handle_delivery(
            Delivery::Fill {
                core: CoreId(0),
                block: blk(0x3000),
                state: LineState::Exclusive,
                data: BlockData::zeroed(),
                txn: TxnId(0),
            },
            10,
        );
        for now in 11..20 {
            core.step(now);
        }
        assert!(core.finished());
        assert_eq!(core.mem.read_value(Addr::new(0x3000)), Some(7));
        assert_eq!(core.stats().counters.sb_drains, 1);
    }

    #[test]
    fn external_invalidate_returns_dirty_data() {
        let cfg = machine_cfg();
        let mut core = Core::new(CoreId(0), Program::new(), &cfg, Box::new(FreeRetireEngine));
        core.mem.l1.fill(blk(0x4000), LineState::Modified, BlockData::from_words([9; 8]));
        let SnoopReply::Ack { txn, dirty_data, .. } = core
            .handle_delivery(
                Delivery::Invalidate {
                    core: CoreId(0),
                    block: blk(0x4000),
                    txn: TxnId(3),
                    requester: CoreId(1),
                    recall: false,
                },
                5,
            )
            .expect("external requests are acknowledged");
        assert_eq!(txn, TxnId(3));
        assert_eq!(dirty_data.unwrap().word(0), 9);
        assert_eq!(core.stats().counters.external_invalidations, 1);
        assert_eq!(core.mem.l1.peek(blk(0x4000)), LineState::Invalid);
    }

    #[test]
    fn in_window_snoop_replays_speculative_loads() {
        let cfg = machine_cfg();
        let mut program = Program::new();
        // A long-latency op at the head keeps younger loads un-retired while
        // they execute early.
        program.push(Instruction::op(200));
        program.push(Instruction::load(Addr::new(0x5000)));
        program.push(Instruction::load(Addr::new(0x5040)));
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        prefill(&mut core, &[0x5000, 0x5040], LineState::Shared);
        for now in 0..10 {
            core.step(now);
        }
        assert_eq!(core.retired_count(), 0, "head op still executing");
        // A remote writer invalidates the block read by the first load.
        core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x5000),
                txn: TxnId(1),
                requester: CoreId(1),
                recall: false,
            },
            10,
        );
        assert_eq!(core.stats().counters.in_window_replays, 1);
        assert!(core.stats().counters.instructions_squashed >= 2);
        // Refill so the replayed loads can hit again, then run to completion.
        prefill(&mut core, &[0x5000], LineState::Shared);
        for now in 11..600 {
            core.step(now);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished());
        assert_eq!(core.retired_count(), 3);
    }

    /// A load squashed by an in-window replay while its miss is in flight is
    /// re-dispatched under a new dispatch id, which joins the outstanding
    /// MSHR as a waiter: the one fill completes it, and no second request
    /// for the block is sent.
    #[test]
    fn redispatched_load_completes_on_the_inflight_fill() {
        let cfg = machine_cfg();
        let (a, b) = (0x7000, 0x7040);
        let mut program = Program::new();
        program.push(Instruction::op(200));
        program.push(Instruction::load(Addr::new(a)));
        program.push(Instruction::load(Addr::new(b)));
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        prefill(&mut core, &[a], LineState::Shared);
        for now in 0..10 {
            core.step(now);
        }
        let first: Vec<_> = drained_requests(&mut core).iter().map(|r| r.block).collect();
        assert_eq!(first, vec![blk(b)], "A hits, B misses");
        // A remote writer invalidates A: the in-window snoop squashes both
        // loads while B's GetS is still outstanding.
        core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(a),
                txn: TxnId(1),
                requester: CoreId(1),
                recall: false,
            },
            10,
        );
        assert_eq!(core.stats().counters.in_window_replays, 1);
        assert_eq!(core.rob.len(), 1, "both loads squashed");
        for now in 11..20 {
            core.step(now);
        }
        assert_eq!(core.rob.len(), 3, "both loads re-dispatched");
        assert!(core.mem.mshrs.contains(blk(b)), "B's GetS still in flight");
        let second: Vec<_> = drained_requests(&mut core).iter().map(|r| r.block).collect();
        assert_eq!(second, vec![blk(a)], "A misses now; no second GetS for B");
        for (now, block, value) in [(20, b, 22), (21, a, 11)] {
            core.handle_delivery(
                Delivery::Fill {
                    core: CoreId(0),
                    block: blk(block),
                    state: LineState::Shared,
                    data: BlockData::from_words([value; 8]),
                    txn: TxnId(0),
                },
                now,
            );
        }
        for now in 22..600 {
            core.step(now);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished());
        assert_eq!(core.retired_count(), 3);
        assert_eq!(core.load_results(), &[(1, 11), (2, 22)]);
        assert!(drained_requests(&mut core).is_empty(), "no further requests");
    }

    #[test]
    fn cycle_accounting_adds_up() {
        let cfg = machine_cfg();
        let mut program = Program::new();
        for _ in 0..16 {
            program.push(Instruction::op(1));
        }
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        let mut cycles = 0;
        for now in 0..100 {
            core.step(now);
            if core.finished() {
                break;
            }
            cycles += 1;
        }
        // Every non-finished cycle is attributed to exactly one bucket.
        assert_eq!(core.stats().breakdown.total(), cycles);
    }

    #[test]
    fn dispatch_respects_rob_capacity() {
        let mut cfg = machine_cfg();
        cfg.core.rob_size = 8;
        let mut program = Program::new();
        program.push(Instruction::load(Addr::new(0x9000))); // miss: blocks retirement
        for _ in 0..64 {
            program.push(Instruction::op(1));
        }
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        for now in 0..50 {
            core.step(now);
        }
        assert_eq!(core.retired_count(), 0);
        // next_fetch can be at most rob_size ahead of retirement.
        assert!(core.rob.len() <= 8);
    }

    #[test]
    fn long_latency_op_yields_completion_wake_hint() {
        let cfg = machine_cfg();
        let mut program = Program::new();
        program.push(Instruction::op(200));
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        assert!(core.step(0).progressed, "dispatch is progress");
        assert!(core.step(1).progressed, "issue is progress");
        let idle = core.step(2);
        assert!(idle.is_quiescent(), "nothing to do while the op executes");
        assert_eq!(idle.wake_at, Some(201), "wake when the op completes (issued at 1 + 200)");
        assert_eq!(idle.class, Some(CycleClass::Other));
        // Every cycle up to the hint is a no-op; at the hint the op retires.
        assert!(core.step(200).is_quiescent());
        let done = core.step(201);
        assert!(done.progressed);
        assert_eq!(done.retired, 1);
    }

    #[test]
    fn load_miss_blocks_on_the_fabric() {
        let cfg = machine_cfg();
        let mut program = Program::new();
        program.push(Instruction::load(Addr::new(0x2000)));
        let mut core = Core::new(CoreId(0), program, &cfg, Box::new(FreeRetireEngine));
        core.step(0);
        core.step(1);
        let idle = core.step(2);
        assert!(idle.is_quiescent(), "nothing can happen until the fill arrives");
        assert_eq!(idle.wake_at, None, "no internal timer: blocked on the fabric");
        assert!(core.mem.awaiting_fabric());
    }

    /// An engine that retires freely and answers the first external request
    /// with a rollback to the start of the program, for exercising the
    /// rollback plumbing.
    struct RollbackProbe {
        rolled_back: bool,
    }

    impl OrderingEngine for RollbackProbe {
        fn try_retire(&mut self, _ctx: &mut RetireCtx<'_>) -> RetireOutcome {
            RetireOutcome::Retired
        }
        fn on_external(
            &mut self,
            _ctx: &mut EngineCtx<'_>,
            _block: BlockAddr,
            _kind: ExternalKind,
            _deferred: Option<Cycle>,
        ) -> ExternalOutcome {
            if self.rolled_back {
                ExternalOutcome::Ack
            } else {
                self.rolled_back = true;
                ExternalOutcome::AckAfterRollback { resume_at: 0 }
            }
        }
    }

    #[test]
    fn rollback_replays_from_checkpoint() {
        let cfg = machine_cfg();
        let mut program = Program::new();
        for i in 0..8u64 {
            program.push(Instruction::load(Addr::new(0x6000 + (i % 2) * 64)));
            program.push(Instruction::op(1));
        }
        let mut core =
            Core::new(CoreId(0), program, &cfg, Box::new(RollbackProbe { rolled_back: false }));
        prefill(&mut core, &[0x6000, 0x6040], LineState::Exclusive);
        for now in 0..200 {
            if now == 3 {
                let invalidate = Delivery::Invalidate {
                    core: CoreId(0),
                    block: blk(0x7000),
                    txn: TxnId(1),
                    requester: CoreId(1),
                    recall: false,
                };
                core.handle_delivery(invalidate, now);
            }
            core.step(now);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished());
        assert_eq!(core.retired_count(), 16, "everything re-retires after the rollback");
        assert!(core.stats().counters.instructions_squashed > 0);
        // Load results cover each load exactly once despite the replay.
        let mut indexes: Vec<usize> = core.load_results().iter().map(|(i, _)| *i).collect();
        indexes.dedup();
        assert_eq!(indexes.len(), 8);
    }
}
