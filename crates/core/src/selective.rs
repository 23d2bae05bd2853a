//! InvisiFence-Selective (Section 4.1): speculate only when retirement would
//! otherwise stall for a memory-ordering constraint.

use crate::kernel::SpeculationKernel;
use ifence_consistency::{head_wait, request_write_permission, retire_in_order, RetireWait};
use ifence_cpu::{
    CheckpointLedger, EngineCtx, ExternalKind, ExternalOutcome, OrderingEngine, RetireCtx,
    RetireOutcome,
};
use ifence_types::{BlockAddr, ConsistencyModel, SpeculationConfig, StallReason};

/// InvisiFence-Selective: post-retirement speculation initiated only on
/// ordering-induced retirement stalls, with constant-time opportunistic commit
/// as soon as the store buffer drains.
///
/// The engine enforces SC, TSO, or RMO depending on `model`. It speculates
/// wherever Figure 2's rule ([`ifence_consistency::retire_wait`]) would make
/// a conventional engine wait, which gives Figure 4's triggers:
///
/// * **SC** — a load (or store, or atomic) is ready to retire while the store
///   buffer is not empty, or an atomic lacks write permission.
/// * **TSO** — a store or atomic is ready to retire while the store buffer is
///   not empty (the unordered coalescing buffer could otherwise reorder
///   stores), a fence with a non-empty buffer, or an atomic without write
///   permission.
/// * **RMO** — a memory fence with a non-empty store buffer, or an atomic
///   stalled on a store miss.
#[derive(Debug)]
pub struct InvisiSelectiveEngine {
    model: ConsistencyModel,
    kernel: SpeculationKernel,
    second_checkpoint_after: usize,
}

impl InvisiSelectiveEngine {
    /// Creates a selective engine enforcing `model` with `checkpoints` (1 or
    /// 2) in-flight checkpoints; a second checkpoint opens after
    /// `speculation.aso_checkpoint_interval` speculative retirements.
    pub fn new(
        model: ConsistencyModel,
        checkpoints: usize,
        speculation: &SpeculationConfig,
    ) -> Self {
        InvisiSelectiveEngine {
            model,
            // Selective speculation aborts on a conflict: commit-on-violate
            // is the continuous engine's policy (Section 6.6).
            kernel: SpeculationKernel::new(checkpoints, None),
            second_checkpoint_after: speculation.aso_checkpoint_interval.max(1),
        }
    }
}

impl OrderingEngine for InvisiSelectiveEngine {
    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        if let Some(youngest) = ctx.ledger.live().last() {
            // With a second checkpoint in the budget, open it once the first
            // has retired enough that a late violation would discard much
            // work (Section 6.4).
            if youngest.retired >= self.second_checkpoint_after {
                self.kernel.begin(ctx);
            }
            return self.kernel.retire_speculative(ctx);
        }
        match head_wait(self.model, ctx) {
            RetireWait::Nothing => return retire_in_order(ctx),
            RetireWait::StoreBufferDrain => {}
            RetireWait::WritePermission(addr) => request_write_permission(ctx, addr),
        }
        if ctx.ledger.owes_nonspec() {
            // Guarantee forward progress by resolving this stall
            // conventionally before speculating again.
            return RetireOutcome::Stall(StallReason::StoreBufferDrain);
        }
        self.kernel.begin(ctx).expect("a checkpoint is free when not speculating");
        self.kernel.retire_speculative(ctx)
    }

    fn tick(&mut self, ctx: &mut EngineCtx<'_>) {
        // Opportunistic, constant-time commit: as soon as the stores the
        // episode depends on have drained.
        while self.kernel.try_commit_oldest(ctx, false) {}
    }

    fn on_external(
        &mut self,
        ctx: &mut EngineCtx<'_>,
        block: BlockAddr,
        kind: ExternalKind,
    ) -> ExternalOutcome {
        self.kernel.on_external(ctx, block, kind)
    }

    fn can_drain(&self, ledger: &CheckpointLedger, epoch: Option<u8>) -> bool {
        self.kernel.can_drain(ledger, epoch)
    }

    fn on_spec_eviction_pressure(&mut self, ctx: &mut EngineCtx<'_>) -> Option<usize> {
        self.kernel.on_eviction_pressure(ctx)
    }

    fn tick_live(&self, ledger: &CheckpointLedger) -> bool {
        // Without an episode `tick` is a no-op (try_commit_oldest bails
        // immediately) and there are no timers. Retirements — including a
        // fence or load that *starts* an episode — run through `try_retire`
        // every cycle, so they need no term here; the moment an episode
        // opens, the stage goes live again.
        ledger.speculating()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_coherence::{Delivery, TxnId};
    use ifence_cpu::Core;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::CycleClass;
    use ifence_types::{Addr, CoreId, EngineKind, Instruction, MachineConfig, Program};

    fn cfg(model: ConsistencyModel) -> MachineConfig {
        MachineConfig::small_test(EngineKind::InvisiSelective(model))
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn core_with(model: ConsistencyModel, program: Program) -> Core {
        let machine = cfg(model);
        Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(model, 1, &machine.speculation)),
        )
    }

    fn prefill(core: &mut Core, blocks: &[u64], state: LineState) {
        for &b in blocks {
            core.mem.l1.fill(blk(b), state, BlockData::zeroed());
        }
    }

    /// Runs the core, answering every GetS/GetM it issues with a fill
    /// `latency` cycles later (a single-core stand-in for the fabric).
    fn run_with_autofill(core: &mut Core, cycles: u64, latency: u64) {
        let mut pending: Vec<(u64, BlockAddr)> = Vec::new();
        let mut requests = Vec::new();
        for now in 0..cycles {
            core.drain_requests_into(&mut requests);
            for req in requests.drain(..) {
                if req.kind == ifence_coherence::CoherenceReqKind::GetS
                    || req.kind == ifence_coherence::CoherenceReqKind::GetM
                {
                    pending.push((now + latency, req.block));
                }
            }
            let due: Vec<BlockAddr> =
                pending.iter().filter(|(t, _)| *t <= now).map(|(_, b)| *b).collect();
            pending.retain(|(t, _)| *t > now);
            for block in due {
                core.handle_delivery(
                    Delivery::Fill {
                        core: CoreId(0),
                        block,
                        state: LineState::Exclusive,
                        data: BlockData::zeroed(),
                        txn: TxnId(0),
                    },
                    now,
                );
            }
            core.step(now);
            if core.finished() {
                break;
            }
        }
    }

    #[test]
    fn rmo_fence_behind_store_miss_speculates_instead_of_stalling() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        program.push(Instruction::fence());
        for _ in 0..8 {
            program.push(Instruction::load(Addr::new(0x1000))); // hits
        }
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        run_with_autofill(&mut core, 2000, 100);
        assert!(core.finished());
        let stats = core.stats();
        assert_eq!(stats.counters.speculations_started, 1);
        assert_eq!(stats.counters.speculations_committed, 1);
        assert_eq!(stats.counters.speculations_aborted, 0);
        assert_eq!(
            stats.breakdown.get(CycleClass::SbDrain),
            0,
            "the fence never stalls retirement"
        );
        assert!(stats.counters.cycles_speculating > 0);
        assert_eq!(core.mem.read_value(Addr::new(0x9000)), Some(1));
    }

    #[test]
    fn sc_loads_retire_past_store_miss_under_speculation() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        for _ in 0..8 {
            program.push(Instruction::load(Addr::new(0x1000)));
        }
        let mut core = core_with(ConsistencyModel::Sc, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        run_with_autofill(&mut core, 2000, 100);
        assert!(core.finished());
        assert!(core.stats().counters.speculations_committed >= 1);
        assert_eq!(core.stats().breakdown.get(CycleClass::SbDrain), 0);
        assert_eq!(core.stats().breakdown.get(CycleClass::Violation), 0);
    }

    #[test]
    fn violation_rolls_back_and_recovers() {
        // Speculate past a fence, read a shared block, then receive an
        // external invalidation for it: the speculation must abort, re-execute
        // and still finish with correct memory state.
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> speculation trigger
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000))); // speculatively read
        program.push(Instruction::store(Addr::new(0x2000), 7)); // speculative store hit
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000, 0x2000], LineState::Exclusive);

        // Run a few cycles without servicing the store miss so the core is
        // definitely speculating.
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.mem.l1.is_spec_read(blk(0x1000), 0));
        assert!(core.mem.l1.is_spec_written(blk(0x2000), 0));

        // External write to the speculatively-read block → violation.
        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(9),
                requester: CoreId(1),
                recall: false,
            },
            20,
        );
        assert!(matches!(reply, Some(ifence_coherence::SnoopReply::Ack { .. })));
        assert!(!core.speculating(), "violation aborts the speculation");
        assert_eq!(core.stats().counters.speculations_aborted, 1);
        assert!(core.stats().breakdown.get(CycleClass::Violation) > 0);
        assert_eq!(
            core.mem.l1.peek(blk(0x2000)),
            LineState::Invalid,
            "speculatively-written block is flash-invalidated"
        );

        // Execution resumes and completes; the aborted store's value is
        // re-applied by the replay.
        run_with_autofill(&mut core, 4000, 60);
        assert!(core.finished());
        assert_eq!(core.mem.read_value(Addr::new(0x2000)), Some(7));
        assert_eq!(core.retired_count(), 4);
    }

    #[test]
    fn l2_recall_aborts_speculative_reader() {
        // An inclusion recall (the home L2 evicting a line with L1 holders)
        // arrives through the same external-request path as a remote write:
        // against a speculatively-read block it must abort the episode.
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> speculation trigger
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000))); // speculatively read
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.mem.l1.is_spec_read(blk(0x1000), 0));

        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(11),
                requester: CoreId(0), // recalls come from the home node
                recall: true,
            },
            20,
        );
        assert!(matches!(reply, Some(ifence_coherence::SnoopReply::Ack { .. })));
        assert!(!core.speculating(), "the recall aborts the speculation");
        assert_eq!(core.stats().counters.speculations_aborted, 1);
        assert_eq!(core.stats().counters.l2_recalls_received, 1);
        assert!(core.stats().breakdown.get(CycleClass::Violation) > 0);
        // Execution replays and completes once the miss is serviced.
        run_with_autofill(&mut core, 4000, 60);
        assert!(core.finished());
        assert_eq!(core.retired_count(), 3);
    }

    #[test]
    fn external_request_without_conflict_does_not_abort() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1));
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000)));
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000, 0x5000], LineState::Exclusive);
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x5000),
                txn: TxnId(1),
                requester: CoreId(1),
                recall: false,
            },
            20,
        );
        assert!(core.speculating(), "unrelated invalidation leaves speculation alive");
        assert_eq!(core.stats().counters.speculations_aborted, 0);
    }

    #[test]
    fn speculative_store_buffer_overflow_stalls_as_sb_full() {
        let mut machine = cfg(ConsistencyModel::Rmo);
        machine.store_buffer.entries = 2;
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> buffer
        program.push(Instruction::fence()); // trigger speculation
        for i in 0..6u64 {
            program.push(Instruction::store(Addr::new(0xa000 + i * 64), i)); // more misses
        }
        let mut core = Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(ConsistencyModel::Rmo, 1, &machine.speculation)),
        );
        for now in 0..60 {
            core.step(now);
        }
        core.finalize();
        assert!(core.stats().breakdown.get(CycleClass::SbFull) > 0);
    }

    #[test]
    fn two_checkpoint_engine_opens_second_episode() {
        let machine = {
            let mut m = cfg(ConsistencyModel::Sc);
            m.speculation.aso_checkpoint_interval = 4;
            m.store_buffer.entries = 32;
            m
        };
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger under SC
        for i in 0..16u64 {
            program.push(Instruction::load(Addr::new(0x1000 + (i % 2) * 64)));
        }
        let mut core = Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(ConsistencyModel::Sc, 2, &machine.speculation)),
        );
        prefill(&mut core, &[0x1000, 0x1040], LineState::Exclusive);
        for now in 0..40 {
            core.step(now);
        }
        assert!(core.speculating());
        assert_eq!(
            core.stats().counters.speculations_started,
            2,
            "the second in-flight checkpoint opened"
        );
        run_with_autofill(&mut core, 2000, 60);
        assert!(core.finished());
        assert_eq!(core.stats().counters.speculations_committed, 2);
    }
}
