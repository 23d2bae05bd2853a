//! InvisiFence-Continuous (Section 4.2): execute everything inside
//! speculative chunks.

use crate::kernel::SpeculationKernel;
use ifence_consistency::ConventionalEngine;
use ifence_cpu::{
    CheckpointLedger, CoreMem, EngineCtx, ExternalKind, ExternalOutcome, OrderingEngine, RetireCtx,
    RetireOutcome,
};
use ifence_types::{BlockAddr, ConsistencyModel, Cycle, SpeculationConfig};

/// InvisiFence-Continuous: all memory operations execute speculatively as part
/// of a chunk of at least `min_chunk` instructions. Loads mark their
/// speculatively-read bits at execute time. Two in-flight checkpoints
/// pipeline the commit of a closed chunk with execution of its successor.
///
/// The paper's continuous mode thereby subsumes load-queue snooping. In this
/// model a load can execute while one chunk is youngest and retire into the
/// next, so its execute-time marking may be cleared by the earlier chunk's
/// commit before it retires; the core's load-queue snoop, which runs for
/// every engine, closes that window. This is a conservative approximation
/// (slightly more in-window replays, same ordering guarantees); see
/// PAPER.md, "Modelling approximations".
///
/// With `commit_on_violate` enabled, an external request that would abort a
/// chunk is instead deferred for a bounded interval, giving the chunk a chance
/// to commit first (Section 6.6) — the policy that recovers most of the
/// performance continuous speculation otherwise loses to violations.
#[derive(Debug)]
pub struct InvisiContinuousEngine {
    kernel: SpeculationKernel,
    min_chunk: usize,
    /// Blocks read at execute time before the first chunk of an episode has
    /// opened; they are marked speculatively-read as soon as it does, so the
    /// list is empty whenever a chunk is open. Until then the core's ordinary
    /// load-queue snooping covers them.
    pending_reads: Vec<BlockAddr>,
}

impl InvisiContinuousEngine {
    /// Creates a continuous engine (two checkpoints) with the minimum chunk
    /// size of `speculation`, deferring conflicts for
    /// `speculation.cov_timeout` cycles when `commit_on_violate` is set.
    pub fn new(commit_on_violate: bool, speculation: &SpeculationConfig) -> Self {
        InvisiContinuousEngine {
            kernel: SpeculationKernel::new(2, commit_on_violate.then_some(speculation.cov_timeout)),
            min_chunk: speculation.min_chunk_instructions.max(1),
            pending_reads: Vec::new(),
        }
    }
}

impl OrderingEngine for InvisiContinuousEngine {
    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        if ctx.ledger.owes_nonspec() {
            // The forward-progress instruction retires outside any chunk, so
            // it must satisfy SC conventionally: Figure 2's rule, stalling on
            // every wait.
            return ConventionalEngine::new(ConsistencyModel::Sc).try_retire(ctx);
        }
        match ctx.ledger.live().last() {
            None => {
                let slot =
                    self.kernel.begin(ctx).expect("a checkpoint is free when no chunk is open");
                // Loads that already executed become part of this chunk.
                for block in self.pending_reads.drain(..) {
                    ctx.mem.l1.mark_spec_read(block, slot);
                }
            }
            // Close the current chunk and open its successor if a checkpoint
            // is free; the closed chunk commits in the background once its
            // stores complete.
            Some(chunk) if chunk.retired >= self.min_chunk => {
                self.kernel.begin(ctx);
            }
            Some(_) => {}
        }
        self.kernel.retire_speculative(ctx)
    }

    fn on_load_issue(&mut self, mem: &mut CoreMem, ledger: &CheckpointLedger, block: BlockAddr) {
        // Continuous speculation marks reads at execute time (Section 4.2), so
        // in-window reorderings are covered by the same violation-detection
        // mechanism as post-retirement ones.
        match ledger.live().last() {
            Some(chunk) => {
                mem.l1.mark_spec_read(block, chunk.slot);
            }
            // Before the first chunk opens, remember the read; it is marked
            // when the chunk begins (and the core's load-queue snooping covers
            // the interim).
            None => self.pending_reads.push(block),
        }
    }

    fn tick(&mut self, ctx: &mut EngineCtx<'_>) {
        // Pipelined chunk commit: a closed chunk commits once its stores have
        // drained.
        while self.kernel.try_commit_oldest(ctx, true) {}
        // If only one (large enough) chunk is open and everything has drained,
        // commit it too so chunks do not grow without bound.
        if let [chunk] = ctx.ledger.live() {
            if chunk.retired >= self.min_chunk {
                self.kernel.try_commit_oldest(ctx, false);
            }
        }
    }

    fn on_external(
        &mut self,
        ctx: &mut EngineCtx<'_>,
        block: BlockAddr,
        kind: ExternalKind,
        deferred: Option<Cycle>,
    ) -> ExternalOutcome {
        self.kernel.on_external(ctx, block, kind, deferred)
    }

    fn can_drain(&self, ledger: &CheckpointLedger, epoch: Option<u8>) -> bool {
        self.kernel.can_drain(ledger, epoch)
    }

    fn on_spec_eviction_pressure(&mut self, ctx: &mut EngineCtx<'_>) -> Option<usize> {
        self.kernel.on_eviction_pressure(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_coherence::SnoopReply;
    use ifence_coherence::{Delivery, TxnId};
    use ifence_cpu::Core;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{Addr, CoreId, CycleClass, EngineKind, Instruction, MachineConfig, Program};

    fn cfg(cov: bool) -> MachineConfig {
        let mut m =
            MachineConfig::small_test(EngineKind::InvisiContinuous { commit_on_violate: cov });
        m.speculation.min_chunk_instructions = 8;
        m
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn core_on(machine: &MachineConfig, program: Program) -> Core {
        let cov = machine.engine.commit_on_violate();
        let engine = InvisiContinuousEngine::new(cov, &machine.speculation);
        Core::new(CoreId(0), program, machine, Box::new(engine))
    }

    fn core_with(cov: bool, program: Program) -> Core {
        core_on(&cfg(cov), program)
    }

    fn core_with_chunk(cov: bool, min_chunk: usize, program: Program) -> Core {
        let mut machine = cfg(cov);
        machine.speculation.min_chunk_instructions = min_chunk;
        core_on(&machine, program)
    }

    /// Steps the core over `cycles`, reporting whether any snoop reply it
    /// released was an acknowledgement.
    fn step_until_ack(core: &mut Core, cycles: std::ops::Range<u64>) -> bool {
        let mut replies = Vec::new();
        for now in cycles {
            core.step(now);
            core.drain_replies_into(&mut replies);
            if replies.iter().any(|r| matches!(r, SnoopReply::Ack { .. })) {
                return true;
            }
        }
        false
    }

    fn invalidate(block: u64, txn: u64, recall: bool) -> Delivery {
        Delivery::Invalidate {
            core: CoreId(0),
            block: blk(block),
            txn: TxnId(txn),
            requester: CoreId(if recall { 0 } else { 1 }),
            recall,
        }
    }

    /// A CoV core whose open chunk has speculatively read 0x1000 behind a
    /// store miss to 0x9000 that has not been serviced.
    fn cov_core_reading_behind_a_store_miss(cov_timeout: u64) -> Core {
        let mut machine = cfg(true);
        machine.speculation.cov_timeout = cov_timeout;
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        program.push(Instruction::load(Addr::new(0x1000)));
        program.push(Instruction::op(1));
        let mut core = core_on(&machine, program);
        prefill(&mut core, &[0x1000]);
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.mem.l1.is_spec_read(blk(0x1000), 0));
        core
    }

    fn prefill(core: &mut Core, blocks: &[u64]) {
        for &b in blocks {
            core.mem.l1.fill(blk(b), LineState::Exclusive, BlockData::zeroed());
        }
    }

    #[test]
    fn executes_continuously_in_chunks_and_commits() {
        let mut program = Program::new();
        for i in 0..64u64 {
            program.push(Instruction::load(Addr::new(0x1000 + (i % 4) * 64)));
            program.push(Instruction::store(Addr::new(0x2000 + (i % 4) * 64), i));
        }
        let mut core = core_with(false, program);
        prefill(&mut core, &[0x1000, 0x1040, 0x1080, 0x10c0, 0x2000, 0x2040, 0x2080, 0x20c0]);
        for now in 0..4000 {
            core.step(now);
            if core.finished() {
                break;
            }
        }
        core.finalize();
        let stats = core.stats();
        assert!(stats.counters.speculations_started >= 2, "multiple chunks opened");
        assert!(stats.counters.speculations_committed >= 1, "chunks commit");
        assert_eq!(stats.counters.speculations_aborted, 0);
        // Essentially all execution time is speculative (Figure 4: ~100%).
        let frac = stats.counters.cycles_speculating as f64 / stats.breakdown.total().max(1) as f64;
        assert!(frac > 0.9, "continuous mode speculates nearly always, got {frac}");
        assert_eq!(core.retired_count(), 128);
    }

    #[test]
    fn violation_aborts_and_reexecutes() {
        let mut program = Program::new();
        program.push(Instruction::load(Addr::new(0x1000)));
        for i in 0..16u64 {
            program.push(Instruction::store(Addr::new(0x2000), i));
        }
        // Keep the core busy past the point of the invalidation so the chunk
        // (and its read bits) is still live when the conflict arrives.
        program.push(Instruction::op(200));
        // A large minimum chunk size keeps the chunk open (and its read bits
        // live) until the conflicting invalidation arrives.
        let mut core = core_with_chunk(false, 1000, program);
        prefill(&mut core, &[0x1000, 0x2000]);
        for now in 0..10 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.mem.l1.is_spec_read(blk(0x1000), 0));
        core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(1),
                requester: CoreId(1),
                recall: false,
            },
            10,
        );
        assert_eq!(core.stats().counters.speculations_aborted, 1);
        assert!(core.stats().breakdown.get(CycleClass::Violation) > 0);
        // The invalidated block must be refetched: answer the GetS.
        let mut finished = false;
        let mut requests = Vec::new();
        for now in 11..4000 {
            core.drain_requests_into(&mut requests);
            for req in requests.drain(..) {
                core.handle_delivery(
                    Delivery::Fill {
                        core: CoreId(0),
                        block: req.block,
                        state: LineState::Exclusive,
                        data: BlockData::zeroed(),
                        txn: TxnId(2),
                    },
                    now + 20,
                );
            }
            core.step(now);
            if core.finished() {
                finished = true;
                break;
            }
        }
        assert!(finished);
        assert_eq!(core.retired_count(), 18);
        assert_eq!(core.mem.read_value(Addr::new(0x2000)), Some(15));
    }

    #[test]
    fn forward_progress_atomic_waits_for_write_permission() {
        let mut program = Program::new();
        program.push(Instruction::atomic(Addr::new(0x3000), 5));
        program.push(Instruction::op(1));
        program.push(Instruction::op(100)); // keeps the chunk open
        let mut core = core_with_chunk(false, 1000, program);
        prefill(&mut core, &[0x3000]);
        for now in 0..10 {
            core.step(now);
        }
        assert_eq!(core.retired_count(), 2, "the first two retired inside the open chunk");
        // A remote writer takes the speculatively-written block: the chunk
        // aborts, and the replayed atomic owes forward progress.
        core.handle_delivery(invalidate(0x3000, 1, false), 10);
        assert_eq!(core.stats().counters.speculations_aborted, 1);
        assert!(!core.speculating());
        let mut requests = Vec::new();
        for now in 11..20 {
            core.step(now);
        }
        core.drain_requests_into(&mut requests);
        assert!(requests.iter().any(|r| r.block == blk(0x3000)), "the replay refetches the block");
        // The fill completes the atomic, but a second remote writer takes
        // the block again before it reaches retirement.
        let fill = |txn| Delivery::Fill {
            core: CoreId(0),
            block: blk(0x3000),
            state: LineState::Exclusive,
            data: BlockData::zeroed(),
            txn: TxnId(txn),
        };
        core.handle_delivery(fill(2), 20);
        core.handle_delivery(invalidate(0x3000, 3, false), 20);
        requests.clear();
        for now in 20..40 {
            core.step(now);
        }
        assert_eq!(core.retired_count(), 0, "the atomic waits for write permission");
        core.drain_requests_into(&mut requests);
        assert!(requests.iter().any(|r| r.block == blk(0x3000)), "and asks for it");
        core.handle_delivery(fill(4), 40);
        for now in 40..400 {
            core.step(now);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished());
        assert_eq!(core.mem.read_value(Addr::new(0x3000)), Some(5));
    }

    #[test]
    fn loads_mark_read_bits_at_execute_not_retirement() {
        let mut program = Program::new();
        // A quick op opens the first chunk, then a long-latency op keeps the
        // younger load from retiring while it executes.
        program.push(Instruction::op(1));
        program.push(Instruction::op(200));
        program.push(Instruction::load(Addr::new(0x1000)));
        let mut core = core_with_chunk(false, 1000, program);
        prefill(&mut core, &[0x1000]);
        for now in 0..10 {
            core.step(now);
        }
        assert_eq!(core.retired_count(), 1, "only the chunk-opening op has retired");
        assert!(
            core.mem.l1.is_spec_read(blk(0x1000), 0),
            "the un-retired load already marked its block speculatively read"
        );
    }

    #[test]
    fn cov_defers_and_avoids_abort_when_chunk_commits() {
        let mut program = Program::new();
        for i in 0..24u64 {
            program.push(Instruction::load(Addr::new(0x1000)));
            program.push(Instruction::store(Addr::new(0x2000), i));
        }
        let mut core = core_with(true, program);
        prefill(&mut core, &[0x1000, 0x2000]);
        for now in 0..6 {
            core.step(now);
        }
        assert!(core.speculating());
        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(5),
                requester: CoreId(1),
                recall: false,
            },
            6,
        );
        assert_eq!(reply, None, "the deferral sends nothing");
        assert_eq!(core.stats().counters.cov_deferrals, 1);
        // Keep running: chunks commit (no outstanding misses), clearing the
        // conflict, so the deferred request is acknowledged without an abort.
        assert!(step_until_ack(&mut core, 7..4000));
        assert_eq!(core.stats().counters.speculations_aborted, 0);
        assert!(core.stats().counters.cov_commits >= 1);
    }

    #[test]
    fn l2_recall_defers_under_commit_on_violate() {
        // Under commit-on-violate an inclusion recall is deferred exactly
        // like a remote writer's invalidation, giving the chunk a chance to
        // commit before the line is surrendered.
        let mut core = cov_core_reading_behind_a_store_miss(4000);
        let reply = core.handle_delivery(invalidate(0x1000, 12, true), 20);
        assert_eq!(reply, None, "the deferred recall sends nothing");
        assert_eq!(core.stats().counters.cov_deferrals, 1);
        assert_eq!(core.stats().counters.l2_recalls_received, 1);
        assert!(core.speculating(), "the deferred recall leaves the chunk alive");
    }

    #[test]
    fn commit_on_violate_defers_and_commits_when_stores_complete() {
        let mut core = cov_core_reading_behind_a_store_miss(4000);
        // A conflicting external request is deferred rather than aborting.
        let reply = core.handle_delivery(invalidate(0x1000, 2, false), 20);
        assert_eq!(reply, None);
        assert_eq!(core.stats().counters.cov_deferrals, 1);
        // Complete the store miss: the chunk commits and the deferred
        // acknowledgement is released without any rollback.
        let fill = Delivery::Fill {
            core: CoreId(0),
            block: blk(0x9000),
            state: LineState::Exclusive,
            data: BlockData::zeroed(),
            txn: TxnId(0),
        };
        core.handle_delivery(fill, 30);
        assert!(
            step_until_ack(&mut core, 31..200),
            "deferred request acknowledged after the commit"
        );
        assert_eq!(core.stats().counters.speculations_aborted, 0);
        assert_eq!(core.stats().counters.cov_commits, 1);
        assert!(core.stats().counters.speculations_committed >= 1);
    }

    #[test]
    fn commit_on_violate_times_out_and_aborts() {
        // The store miss is never serviced, so the chunk cannot commit.
        let mut core = cov_core_reading_behind_a_store_miss(50);
        core.handle_delivery(invalidate(0x1000, 2, false), 20);
        assert!(step_until_ack(&mut core, 21..400), "timeout forces the acknowledgement");
        assert_eq!(core.stats().counters.cov_timeouts, 1);
        assert_eq!(core.stats().counters.speculations_aborted, 1);
    }
}
