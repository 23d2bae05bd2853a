//! The ASO baseline (Wenisch et al., "Mechanisms for Store-wait-free
//! Multiprocessors", ISCA 2007), used by the paper's Section 6.4 comparison.
//!
//! ASO (atomic sequence ordering) also speculates selectively past ordering
//! stalls, but differs from InvisiFence in the mechanisms the comparison of
//! Figure 5 calls out:
//!
//! * speculative stores are tracked **per store** in a Scalable Store Buffer
//!   (SSB) rather than per block;
//! * commit is **not** constant time: the SSB must drain into the L2, and the
//!   cache's external interface is disabled while it does, delaying other
//!   processors' requests;
//! * multiple intermediate checkpoints are taken during an episode so a
//!   violation discards only the work after the checkpoint that first touched
//!   the conflicting block; the whole atomic sequence still commits as one
//!   speculation.
//!
//! The timing-relevant behaviour (commit latency proportional to the number of
//! speculative stores, partial rollback, external-request stalling during
//! commit) is modelled faithfully; the per-word valid bits ASO adds to the L1
//! are not needed because this simulator tracks data at word granularity
//! already.
//!
//! The checkpoints live in the core's [`CheckpointLedger`], like
//! InvisiFence's; a checkpoint's slot is its position in the sequence. The
//! engine keeps what ASO adds: each slot's read and write sets (its conflict
//! checks), the SSB occupancy and the commit-drain timer. Speculative store
//! misses wait in the store buffer tagged with their slot, and those of
//! slots 0 and 1 mark the L1's speculative bits when they drain; the ledger
//! clears those bits when the checkpoint commits or aborts.

use ifence_consistency::{head_wait, retire_in_order, RetireWait};
use ifence_cpu::{
    CheckpointLedger, EngineCtx, ExternalKind, ExternalOutcome, OrderingEngine, RetireCtx,
    RetireOutcome,
};
use ifence_types::{
    Addr, BlockAddr, ConsistencyModel, Cycle, InstrKind, MachineConfig, StallReason,
};
use std::collections::HashSet;

/// Maximum intermediate checkpoints per speculative episode.
const MAX_ASO_CHECKPOINTS: usize = 8;

/// The blocks one checkpoint has read and written speculatively.
#[derive(Debug, Clone, Default)]
struct AccessSets {
    read_set: HashSet<u64>,
    write_set: HashSet<u64>,
}

/// The ASO ordering engine (see the module documentation).
#[derive(Debug)]
pub struct AsoEngine {
    model: ConsistencyModel,
    /// One entry per live checkpoint, indexed by its slot.
    sets: Vec<AccessSets>,
    checkpoint_interval: usize,
    ssb_capacity: usize,
    ssb_occupancy: usize,
    ssb_cycles_per_store: u64,
    committing_until: Option<Cycle>,
}

impl AsoEngine {
    /// Creates an ASO engine enforcing `model` (the paper compares `ASOsc`).
    pub fn new(model: ConsistencyModel, cfg: &MachineConfig) -> Self {
        AsoEngine {
            model,
            sets: Vec::new(),
            checkpoint_interval: cfg.speculation.aso_checkpoint_interval.max(1),
            ssb_capacity: cfg.speculation.ssb_entries.max(1),
            ssb_occupancy: 0,
            ssb_cycles_per_store: cfg.speculation.ssb_drain_per_cycle.max(1) as u64,
            committing_until: None,
        }
    }

    /// True while the commit drain is in progress (external requests are
    /// being delayed).
    pub fn committing(&self) -> bool {
        self.committing_until.is_some()
    }

    fn spec_store(&mut self, ctx: &mut RetireCtx<'_>, addr: Addr, value: u64) -> RetireOutcome {
        if self.ssb_occupancy >= self.ssb_capacity {
            return RetireOutcome::Stall(StallReason::StoreBufferFull);
        }
        let block = ctx.mem.block_of(addr);
        let slot = self.sets.len() - 1;
        let stored = if ctx.mem.writable(block) {
            // Clean dirty pre-speculative data exactly once per block so an
            // abort can recover it from the L2.
            let already_written = self.sets.iter().any(|s| s.write_set.contains(&block.number()));
            if !already_written && ctx.mem.l1.clean_writeback(block).is_some() {
                ctx.stats.counters.writebacks += 1;
            }
            let word = addr.word_in_block(ctx.mem.block_bytes()).index();
            ctx.mem.l1.write_word(block, word, value)
        } else {
            ctx.mem.store_to_sb(addr, value, Some(slot as u8), ctx.now, ctx.stats).is_ok()
        };
        if !stored {
            return RetireOutcome::Stall(StallReason::StoreBufferFull);
        }
        self.ssb_occupancy += 1;
        self.sets[slot].write_set.insert(block.number());
        RetireOutcome::Retired
    }

    fn retire_speculative(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        // Take an intermediate checkpoint periodically so violations discard
        // less work.
        let live = ctx.ledger.live();
        if live.last().is_some_and(|c| c.retired >= self.checkpoint_interval)
            && live.len() < MAX_ASO_CHECKPOINTS
        {
            ctx.ledger.add_intermediate(ctx.checkpoint_index());
            self.sets.push(AccessSets::default());
        }
        match ctx.entry.instr.kind {
            InstrKind::Op(_) | InstrKind::Fence(_) => RetireOutcome::Retired,
            InstrKind::Load(addr) => {
                let block = ctx.mem.block_of(addr);
                self.sets.last_mut().expect("speculating").read_set.insert(block.number());
                RetireOutcome::Retired
            }
            InstrKind::Store(addr, value) => self.spec_store(ctx, addr, value),
            InstrKind::Atomic(addr, value) => {
                let block = ctx.mem.block_of(addr);
                self.sets.last_mut().expect("speculating").read_set.insert(block.number());
                self.spec_store(ctx, addr, value)
            }
        }
    }

    fn conflict_position(&self, block: BlockAddr, is_write: bool) -> Option<usize> {
        self.sets.iter().position(|s| {
            s.write_set.contains(&block.number())
                || (is_write && s.read_set.contains(&block.number()))
        })
    }

    fn abort_from(&mut self, ctx: &mut EngineCtx<'_>, position: usize) -> usize {
        let kept_writes: HashSet<u64> =
            self.sets[..position].iter().flat_map(|s| s.write_set.iter().copied()).collect();
        let (sets, occupancy) = (&self.sets, &mut self.ssb_occupancy);
        let resume_at = ctx.ledger.abort_from(position, ctx.mem, ctx.stats, |mem, slot| {
            let write_set = &sets[slot].write_set;
            for block_number in write_set.iter() {
                if kept_writes.contains(block_number) {
                    continue;
                }
                let block = BlockAddr::containing(
                    Addr::new(block_number * mem.block_bytes() as u64),
                    mem.block_bytes(),
                );
                // Discard the speculatively-written data; the pre-speculative
                // value was cleaned into the L2 and will be refetched.
                let _ = mem.l1.external_invalidate(block);
            }
            *occupancy = occupancy.saturating_sub(write_set.len());
        });
        self.sets.truncate(position);
        if self.sets.is_empty() {
            self.ssb_occupancy = 0;
        }
        resume_at
    }

    /// Commits the whole atomic sequence as one speculation and starts the
    /// SSB's drain into the L2.
    fn commit_all(&mut self, ctx: &mut EngineCtx<'_>) {
        let drained_stores = self.ssb_occupancy as u64;
        self.committing_until = Some(ctx.now + drained_stores * self.ssb_cycles_per_store);
        ctx.ledger.commit(self.sets.len(), ctx.mem, ctx.stats);
        self.sets.clear();
        self.ssb_occupancy = 0;
    }
}

impl OrderingEngine for AsoEngine {
    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        if ctx.ledger.speculating() {
            return self.retire_speculative(ctx);
        }
        // ASO speculates wherever Figure 2's rule would wait, and (unlike
        // InvisiFence-Selective) issues no ownership request for an atomic.
        if head_wait(self.model, ctx) == RetireWait::Nothing {
            return retire_in_order(ctx);
        }
        if ctx.ledger.owes_nonspec() {
            return RetireOutcome::Stall(StallReason::StoreBufferDrain);
        }
        ctx.ledger.begin(ctx.checkpoint_index(), ctx.stats);
        self.sets.push(AccessSets::default());
        self.retire_speculative(ctx)
    }

    fn tick(&mut self, ctx: &mut EngineCtx<'_>) {
        if let Some(until) = self.committing_until {
            if ctx.now >= until {
                self.committing_until = None;
            }
        }
        // ASO commits an atomic sequence once all of its store misses have
        // completed; the drain of the SSB into the L2 then takes time
        // proportional to the number of stores.
        if ctx.ledger.speculating() && ctx.mem.sb_empty() {
            self.commit_all(ctx);
        }
    }

    fn on_external(
        &mut self,
        ctx: &mut EngineCtx<'_>,
        block: BlockAddr,
        kind: ExternalKind,
        _deferred: Option<Cycle>,
    ) -> ExternalOutcome {
        // While the SSB drains into the L2 the external interface is disabled:
        // incoming requests wait until the drain finishes.
        if let Some(until) = self.committing_until {
            if ctx.now < until {
                return ExternalOutcome::Defer { until };
            }
        }
        match self.conflict_position(block, kind.is_write()) {
            None => ExternalOutcome::Ack,
            Some(position) => {
                ExternalOutcome::AckAfterRollback { resume_at: self.abort_from(ctx, position) }
            }
        }
    }

    fn on_spec_eviction_pressure(&mut self, ctx: &mut EngineCtx<'_>) -> Option<usize> {
        if !ctx.ledger.speculating() {
            return None;
        }
        if ctx.mem.sb_empty() {
            self.commit_all(ctx);
            return None;
        }
        ctx.stats.counters.speculations_aborted_structural += 1;
        Some(self.abort_from(ctx, 0))
    }

    fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        // The only time-triggered transition in this engine: the end of the
        // SSB commit drain, when the external interface re-enables.
        self.committing_until.filter(|&until| until > now)
    }

    fn tick_live(&self, ledger: &CheckpointLedger) -> bool {
        // With no atomic sequence in flight and no commit drain pending,
        // `tick` is a no-op and no timer is set. A retirement that opens a
        // checkpoint runs through `try_retire` and re-arms the stage for the
        // following cycle.
        ledger.speculating() || self.committing_until.is_some()
    }

    fn finalize(&mut self, ctx: &mut EngineCtx<'_>) {
        ctx.ledger.commit(self.sets.len(), ctx.mem, ctx.stats);
        self.sets.clear();
        self.ssb_occupancy = 0;
        self.committing_until = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_coherence::{Delivery, SnoopReply, TxnId};
    use ifence_cpu::{Core, CoreMem};
    use ifence_mem::{BlockData, LineState};
    use ifence_stats::CoreStats;
    use ifence_types::{CoreId, CycleClass, EngineKind, Instruction, Program};

    fn cfg() -> MachineConfig {
        let mut m = MachineConfig::small_test(EngineKind::Aso(ConsistencyModel::Sc));
        m.speculation.aso_checkpoint_interval = 4;
        m
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn core_with(program: Program) -> Core {
        let machine = cfg();
        Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(AsoEngine::new(ConsistencyModel::Sc, &machine)),
        )
    }

    fn prefill(core: &mut Core, blocks: &[u64]) {
        for &b in blocks {
            core.mem.l1.fill(blk(b), LineState::Exclusive, BlockData::zeroed());
        }
    }

    #[test]
    fn speculates_past_sc_ordering_stall_and_commits_with_drain_latency() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger
        for i in 0..10u64 {
            program.push(Instruction::load(Addr::new(0x1000)));
            program.push(Instruction::store(Addr::new(0x2000), i)); // speculative store hits
        }
        let mut core = core_with(program);
        prefill(&mut core, &[0x1000, 0x2000]);
        for now in 0..30 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.stats().counters.speculations_started >= 1);
        // Service the store miss: the episode commits.
        core.handle_delivery(
            Delivery::Fill {
                core: CoreId(0),
                block: blk(0x9000),
                state: LineState::Exclusive,
                data: BlockData::zeroed(),
                txn: TxnId(0),
            },
            30,
        );
        let mut commit_seen = false;
        for now in 31..400 {
            core.step(now);
            if core.stats().counters.speculations_committed > 0 {
                commit_seen = true;
            }
            if core.finished() {
                break;
            }
        }
        assert!(commit_seen);
        assert!(core.finished());
        assert_eq!(core.stats().counters.speculations_aborted, 0);
        assert_eq!(core.stats().breakdown.get(CycleClass::SbDrain), 0);
    }

    #[test]
    fn commit_clears_the_l1_bits_of_drained_speculative_stores() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger
        program.push(Instruction::load(Addr::new(0x1000)));
        program.push(Instruction::store(Addr::new(0xa000), 2)); // speculative miss
        let mut core = core_with(program);
        prefill(&mut core, &[0x1000]);
        // Every request is answered with an exclusive fill 50 cycles later.
        let (mut requests, mut pending) = (Vec::new(), Vec::new());
        for now in 0..400 {
            core.drain_requests_into(&mut requests);
            pending.extend(requests.drain(..).map(|req| (now + 50, req.block)));
            while let Some(i) = pending.iter().position(|&(at, _)| at == now) {
                let (_, block) = pending.swap_remove(i);
                let (state, data) = (LineState::Exclusive, BlockData::zeroed());
                core.handle_delivery(
                    Delivery::Fill { core: CoreId(0), block, state, data, txn: TxnId(0) },
                    now,
                );
            }
            core.step(now);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished());
        assert_eq!(core.stats().counters.speculations_committed, 1);
        assert_eq!(core.mem.read_value(Addr::new(0xa000)), Some(2));
        assert!(!core.mem.l1.has_spec_lines(), "the commit leaves no speculative line behind");
    }

    #[test]
    fn commit_drain_defers_external_requests() {
        let machine = cfg();
        let mut engine = AsoEngine::new(ConsistencyModel::Sc, &machine);
        let mut mem = CoreMem::new(CoreId(0), &machine);
        let (mut stats, mut ledger) = (CoreStats::new(), CheckpointLedger::default());
        let mut ctx =
            EngineCtx { mem: &mut mem, stats: &mut stats, ledger: &mut ledger, now: 1000 };
        // Force a commit with a non-trivial SSB occupancy.
        ctx.ledger.begin(0, ctx.stats);
        engine.sets.push(AccessSets::default());
        engine.ssb_occupancy = 100;
        engine.commit_all(&mut ctx);
        assert!(engine.committing());
        // During the drain window external requests are deferred...
        let inv = ExternalKind::Invalidate;
        ctx.now = 1010;
        let outcome = engine.on_external(&mut ctx, blk(0x1000), inv, None);
        let ExternalOutcome::Defer { until } = outcome else { panic!("{outcome:?}") };
        assert!(until >= 1100);
        assert_eq!(engine.on_external(&mut ctx, blk(0x1000), inv, Some(until)), outcome);
        // ...and acknowledged once it finishes.
        ctx.now = 1200;
        assert_eq!(
            engine.on_external(&mut ctx, blk(0x1000), inv, Some(until)),
            ExternalOutcome::Ack
        );
    }

    #[test]
    fn core_holds_a_request_through_the_commit_drain() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger
        for i in 0..10u64 {
            program.push(Instruction::store(Addr::new(0x2000), i)); // speculative store hits
        }
        // A load miss that is never filled keeps the program from ending, so
        // the episode commits through the drain rather than at the end.
        program.push(Instruction::load(Addr::new(0x7000)));
        let mut core = core_with(program);
        prefill(&mut core, &[0x2000]);
        for now in 0..30 {
            core.step(now);
        }
        assert!(core.speculating());
        let (state, data) = (LineState::Exclusive, BlockData::zeroed());
        let fill =
            Delivery::Fill { core: CoreId(0), block: blk(0x9000), state, data, txn: TxnId(0) };
        core.handle_delivery(fill, 30);
        let mut now = 30;
        while core.stats().counters.speculations_committed == 0 {
            now += 1;
            assert!(now < 400, "the episode commits once the trigger miss is filled");
            core.step(now);
        }
        // The commit started draining ten speculative stores: a request
        // arriving now is held inside the core, with no reply yet.
        let committed_at = now;
        let invalidate = Delivery::Invalidate {
            core: CoreId(0),
            block: blk(0x2000),
            txn: TxnId(9),
            requester: CoreId(1),
            recall: false,
        };
        assert_eq!(core.handle_delivery(invalidate, now + 1), None);
        assert_eq!(core.stats().counters.cov_deferrals, 1);
        let mut replies = Vec::new();
        while replies.is_empty() {
            now += 1;
            assert!(now < committed_at + 400, "the drain ends");
            core.step(now);
            core.drain_replies_into(&mut replies);
        }
        assert!(now >= committed_at + 10, "the ack waits for the drain");
        assert!(matches!(replies[..], [SnoopReply::Ack { txn: TxnId(9), .. }]));
        assert_eq!(core.stats().counters.cov_deferrals, 1, "a re-poll is no new deferral");
    }

    #[test]
    fn violation_rolls_back_to_intermediate_checkpoint() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger

        // First checkpoint's work touches 0x1000; after the checkpoint
        // interval, later work touches 0x3000.
        for _ in 0..6 {
            program.push(Instruction::load(Addr::new(0x1000)));
        }
        for _ in 0..6 {
            program.push(Instruction::load(Addr::new(0x3000)));
        }
        let mut core = core_with(program);
        prefill(&mut core, &[0x1000, 0x3000]);
        for now in 0..40 {
            core.step(now);
        }
        assert!(core.speculating());
        let retired_before = core.retired_count();
        assert_eq!(retired_before, 13, "everything speculatively retired");
        // A conflict on the *later* block rolls back only to the intermediate
        // checkpoint, keeping the earlier speculative work.
        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x3000),
                txn: TxnId(7),
                requester: CoreId(1),
                recall: false,
            },
            40,
        );
        assert!(matches!(reply, Some(SnoopReply::Ack { .. })));
        assert!(core.retired_count() > 1, "partial rollback keeps pre-checkpoint work");
        assert!(core.retired_count() < retired_before);
        assert!(core.speculating(), "the older checkpoint survives");
        assert!(core.stats().counters.speculations_aborted >= 1);
    }
}
