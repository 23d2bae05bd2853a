//! The InvisiFence mechanisms and violation policy shared by the Selective
//! and Continuous engines (Section 3).
//!
//! The checkpoints themselves — slots, resume points, provisional cycles and
//! the begin/commit/abort accounting — live in the core's
//! [`CheckpointLedger`]. A [`SpeculationKernel`] is what InvisiFence does
//! with them:
//!
//! * **the checkpoint budget** — at most one or two live episodes, the
//!   hardware budget of Section 3.1;
//! * **speculative retirement mechanics** — marking speculatively-read bits,
//!   writing speculative stores into the L1 (after a cleaning writeback when
//!   needed) or into the coalescing store buffer, tagged with the episode's
//!   slot;
//! * **constant-time commit** — an episode commits once its stores and every
//!   older store have drained, and the ledger flash-clears its bits;
//! * **abort** — conditional flash-invalidation of the episode's
//!   speculatively-written blocks, before the ledger discards its
//!   store-buffer entries and charges its cycles to `Violation`;
//! * **violation detection** — matching external coherence requests against
//!   the speculatively-read/written bits.
//!
//! It also decides what a violation costs, once for both engines: a
//! conflicting request aborts the oldest conflicting episode and every
//! younger one, or, under commit-on-violate (Section 6.6), is deferred
//! until the conflict clears or the timeout expires; and eviction pressure
//! on a speculative block commits everything or aborts everything. When to
//! speculate, how to chunk and when to commit stay with the engines
//! (`selective`, `continuous`).

use ifence_cpu::{
    CheckpointLedger, CoreMem, EngineCtx, ExternalKind, ExternalOutcome, RetireCtx, RetireOutcome,
};
use ifence_types::{Addr, BlockAddr, Cycle, InstrKind, StallReason};

/// Shared InvisiFence mechanisms and violation policy: checkpoint budget,
/// speculative bits, commit, abort or commit-on-violate deferral (see the
/// module documentation).
#[derive(Debug, Clone)]
pub struct SpeculationKernel {
    max_episodes: usize,
    /// The commit-on-violate window: `Some(timeout)` defers a conflicting
    /// request for up to `timeout` cycles, `None` aborts at once.
    cov_timeout: Option<Cycle>,
}

impl SpeculationKernel {
    /// Creates a kernel supporting up to `max_episodes` in-flight checkpoints
    /// (clamped to 1..=2, the hardware budget of Section 3.1) that defers a
    /// conflicting request for `cov_timeout` cycles when it is `Some`
    /// (commit-on-violate) and aborts at once when it is `None`.
    pub fn new(max_episodes: usize, cov_timeout: Option<Cycle>) -> Self {
        SpeculationKernel { max_episodes: max_episodes.clamp(1, 2), cov_timeout }
    }

    /// Begins a new episode whose checkpoint is the instruction being
    /// retired. Returns the slot assigned, or `None` if the checkpoint budget
    /// is spent.
    pub fn begin(&self, ctx: &mut RetireCtx<'_>) -> Option<usize> {
        if ctx.ledger.live().len() >= self.max_episodes {
            return None;
        }
        Some(ctx.ledger.begin(ctx.checkpoint_index(), ctx.stats))
    }

    fn spec_store(ctx: &mut RetireCtx<'_>, addr: Addr, value: u64, slot: usize) -> RetireOutcome {
        let block = ctx.mem.block_of(addr);
        // A store from this episode to a block already speculatively written
        // by the *other* in-flight episode must stay in the store buffer until
        // that episode commits, so the L1 never holds two speculative versions
        // of one block (Section 3.1).
        let other_slot = 1 - slot;
        let written_elsewhere = ctx.ledger.live().iter().any(|c| c.slot == other_slot)
            && ctx.mem.l1.is_spec_written(block, other_slot);
        if !written_elsewhere
            && ctx.mem.store_to_l1(addr, value, Some(slot as u8), &mut ctx.stats.counters)
        {
            return RetireOutcome::Retired;
        }
        match ctx.mem.store_to_sb(addr, value, Some(slot as u8), ctx.now, ctx.stats) {
            Ok(()) => RetireOutcome::Retired,
            Err(_) => RetireOutcome::Stall(StallReason::StoreBufferFull),
        }
    }

    /// Retires the head instruction speculatively into the youngest episode,
    /// performing the InvisiFence mechanics of Section 3.2: loads mark the
    /// speculatively-read bit, stores write the L1 (with a cleaning writeback
    /// for dirty pre-speculative data) or the store buffer, fences retire
    /// without draining, and atomics are handled as a read-write pair inside
    /// the same speculation.
    ///
    /// # Panics
    /// Panics if no episode is in flight.
    pub fn retire_speculative(&self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        let slot = ctx.ledger.live().last().expect("retire_speculative requires an episode").slot;
        match ctx.entry.instr.kind {
            InstrKind::Op(_) | InstrKind::Fence(_) => RetireOutcome::Retired,
            InstrKind::Load(addr) => {
                let block = ctx.mem.block_of(addr);
                ctx.mem.l1.mark_spec_read(block, slot);
                RetireOutcome::Retired
            }
            InstrKind::Store(addr, value) => Self::spec_store(ctx, addr, value, slot),
            InstrKind::Atomic(addr, value) => {
                let block = ctx.mem.block_of(addr);
                ctx.mem.l1.mark_spec_read(block, slot);
                Self::spec_store(ctx, addr, value, slot)
            }
        }
    }

    /// Returns the position (0 = oldest) of the oldest episode that conflicts
    /// with an external request for `block`: a remote write conflicts with
    /// local speculative reads and writes, a remote read only with local
    /// speculative writes (Section 3.2, "Violation detection").
    fn conflict_position(
        ledger: &CheckpointLedger,
        mem: &CoreMem,
        block: BlockAddr,
        is_write: bool,
    ) -> Option<usize> {
        ledger.live().iter().position(|c| {
            mem.l1.is_spec_written(block, c.slot)
                || (is_write && mem.l1.is_spec_read(block, c.slot))
        })
    }

    /// Commits the oldest episode if its ordering requirements are satisfied:
    /// every store that precedes it (non-speculative entries) and every store
    /// it made (its epoch's entries) has drained into the L1. When
    /// `require_closed` is set the episode additionally must not be the
    /// youngest (used by continuous chunks, which commit only once a
    /// successor chunk has opened). Returns true if a commit happened.
    pub fn try_commit_oldest(&self, ctx: &mut EngineCtx<'_>, require_closed: bool) -> bool {
        let live = ctx.ledger.live();
        let Some(oldest) = live.first() else {
            return false;
        };
        if require_closed && live.len() < 2 {
            return false;
        }
        let sb = &ctx.mem.sb;
        if sb.epoch_len(None) != 0 || sb.epoch_len(Some(oldest.slot as u8)) != 0 {
            return false;
        }
        ctx.ledger.commit(1, ctx.mem, ctx.stats);
        true
    }

    /// Commits every in-flight episode at once, which is possible exactly when
    /// the store buffer is completely empty (the paper's opportunistic
    /// constant-time commit). Returns true if a commit happened.
    fn commit_all(ctx: &mut EngineCtx<'_>) -> bool {
        if !ctx.ledger.speculating() || !ctx.mem.sb.is_empty() {
            return false;
        }
        ctx.ledger.commit_each(ctx.mem, ctx.stats);
        true
    }

    /// Aborts the episode at `position` and every younger episode:
    /// speculatively-written blocks are flash-invalidated from the L1 before
    /// the ledger discards the rest. Returns the program index at which
    /// execution must resume.
    fn abort_from(ctx: &mut EngineCtx<'_>, position: usize) -> usize {
        ctx.ledger.abort_from(position, ctx.mem, ctx.stats, |mem, slot| {
            mem.l1.flash_invalidate_written(slot);
        })
    }

    /// Decides an external request for `block` (see
    /// [`ifence_cpu::OrderingEngine::on_external`]). With no conflicting
    /// episode it is acknowledged, which for a deferred request is a
    /// commit-on-violate success. A conflict on arrival is deferred under
    /// commit-on-violate and otherwise aborts from the oldest conflicting
    /// episode; a deferred request still in conflict waits until its
    /// deadline and then aborts (a timeout).
    pub fn on_external(
        &self,
        ctx: &mut EngineCtx<'_>,
        block: BlockAddr,
        kind: ExternalKind,
        deferred: Option<Cycle>,
    ) -> ExternalOutcome {
        let Some(position) = Self::conflict_position(ctx.ledger, ctx.mem, block, kind.is_write())
        else {
            if deferred.is_some() {
                ctx.stats.counters.cov_commits += 1;
            }
            return ExternalOutcome::Ack;
        };
        match (deferred, self.cov_timeout) {
            (Some(deadline), _) if ctx.now < deadline => ExternalOutcome::Defer { until: deadline },
            (None, Some(timeout)) => ExternalOutcome::Defer { until: ctx.now + timeout },
            // No commit-on-violate, or a deferral that reached its deadline.
            (deadline, _) => {
                if deadline.is_some() {
                    ctx.stats.counters.cov_timeouts += 1;
                }
                ExternalOutcome::AckAfterRollback { resume_at: Self::abort_from(ctx, position) }
            }
        }
    }

    /// Handles a fill that would evict a speculatively-accessed block:
    /// commits every episode if the store buffer has drained, otherwise
    /// aborts them all (a structural abort). Returns the resume index on
    /// abort.
    pub fn on_eviction_pressure(&self, ctx: &mut EngineCtx<'_>) -> Option<usize> {
        if !ctx.ledger.speculating() || Self::commit_all(ctx) {
            return None;
        }
        ctx.stats.counters.speculations_aborted_structural += 1;
        Some(Self::abort_from(ctx, 0))
    }

    /// Whether a store-buffer entry of the given epoch may drain: only entries
    /// of the *oldest* episode (or non-speculative entries) may write the L1;
    /// younger episodes wait so their writes never mix with the older
    /// episode's speculative state.
    pub fn can_drain(&self, ledger: &CheckpointLedger, epoch: Option<u8>) -> bool {
        match epoch {
            None => true,
            Some(slot) => ledger.live().first().is_some_and(|c| c.slot == slot as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_cpu::RobEntry;
    use ifence_mem::{BlockData, LineState};
    use ifence_stats::CoreStats;
    use ifence_types::{
        ConsistencyModel, CoreId, CycleClass, EngineKind, Instruction, MachineConfig,
    };

    /// A core's memory side, statistics and ledger, driven by hand.
    struct Rig {
        mem: CoreMem,
        stats: CoreStats,
        ledger: CheckpointLedger,
    }

    impl Rig {
        fn new() -> Self {
            let cfg = MachineConfig::small_test(EngineKind::InvisiSelective(ConsistencyModel::Sc));
            let mem = CoreMem::new(CoreId(0), &cfg);
            Rig { mem, stats: CoreStats::new(), ledger: CheckpointLedger::default() }
        }

        fn ctx(&mut self, now: Cycle) -> EngineCtx<'_> {
            EngineCtx { mem: &mut self.mem, stats: &mut self.stats, ledger: &mut self.ledger, now }
        }

        fn with_retire_ctx<T>(
            &mut self,
            instr: Instruction,
            index: usize,
            f: impl FnOnce(&mut RetireCtx<'_>) -> T,
        ) -> T {
            let entry = RobEntry {
                program_index: index,
                dispatch_id: index as u64,
                instr,
                block: instr.kind.addr().map(|a| BlockAddr::containing(a, 64)),
                issued: true,
                complete_at: Some(0),
                performed_read: instr.kind.reads_memory(),
                bound_at_head: true,
                loaded_value: Some(0),
            };
            let (mem, stats, ledger) = (&mut self.mem, &mut self.stats, &mut self.ledger);
            f(&mut RetireCtx { mem, stats, ledger, now: 0, entry: &entry })
        }

        /// Begins an episode checkpointed at `index`, as an engine does.
        fn begin(&mut self, k: &SpeculationKernel, index: usize) -> Option<usize> {
            self.with_retire_ctx(Instruction::op(1), index, |ctx| k.begin(ctx))
        }

        /// Retires `instr` speculatively and counts it, as the core does.
        fn retire(
            &mut self,
            k: &SpeculationKernel,
            instr: Instruction,
            index: usize,
        ) -> RetireOutcome {
            let outcome = self.with_retire_ctx(instr, index, |ctx| k.retire_speculative(ctx));
            if outcome == RetireOutcome::Retired {
                self.ledger.note_retirement();
            }
            outcome
        }
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn begin_assigns_distinct_slots_up_to_max() {
        let mut rig = Rig::new();
        let k = SpeculationKernel::new(2, None);
        assert!(!rig.ledger.speculating());
        let s0 = rig.begin(&k, 10).unwrap();
        let s1 = rig.begin(&k, 20).unwrap();
        assert_ne!(s0, s1);
        assert!(rig.begin(&k, 30).is_none());
        assert_eq!(rig.stats.counters.speculations_started, 2);
        let resume: Vec<usize> = rig.ledger.live().iter().map(|c| c.resume_at).collect();
        assert_eq!(resume, [10, 20]);
    }

    #[test]
    fn single_checkpoint_kernel_refuses_second_episode() {
        let mut rig = Rig::new();
        let k = SpeculationKernel::new(1, None);
        rig.begin(&k, 0).unwrap();
        assert!(rig.begin(&k, 5).is_none());
    }

    #[test]
    fn speculative_load_marks_read_bit_and_fence_retires_freely() {
        let mut rig = Rig::new();
        rig.mem.l1.fill(blk(0x1000), LineState::Shared, BlockData::zeroed());
        let k = SpeculationKernel::new(1, None);
        let slot = rig.begin(&k, 0).unwrap();
        assert_eq!(rig.retire(&k, Instruction::load(Addr::new(0x1000)), 0), RetireOutcome::Retired);
        assert!(rig.mem.l1.is_spec_read(blk(0x1000), slot));
        assert_eq!(
            rig.retire(&k, Instruction::fence(), 1),
            RetireOutcome::Retired,
            "fences retire without draining during speculation"
        );
        assert_eq!(rig.ledger.live()[0].retired, 2);
    }

    #[test]
    fn speculative_store_hit_writes_l1_and_marks_written() {
        let mut rig = Rig::new();
        rig.mem.l1.fill(blk(0x2000), LineState::Exclusive, BlockData::zeroed());
        let k = SpeculationKernel::new(1, None);
        let slot = rig.begin(&k, 0).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x2000), 7), 0);
        assert!(rig.mem.l1.is_spec_written(blk(0x2000), slot));
        assert_eq!(rig.mem.read_value(Addr::new(0x2000)), Some(7));
        assert!(rig.mem.sb.is_empty(), "store hit bypasses the buffer");
    }

    #[test]
    fn speculative_store_miss_goes_to_buffer_with_epoch_tag() {
        let mut rig = Rig::new();
        let k = SpeculationKernel::new(1, None);
        let slot = rig.begin(&k, 0).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x3000), 9), 0);
        assert_eq!(rig.mem.sb.epoch_len(Some(slot as u8)), 1);
        assert!(k.can_drain(&rig.ledger, None), "non-speculative entries always drain");
        assert!(k.can_drain(&rig.ledger, Some(slot as u8)), "oldest episode's stores may drain");
    }

    #[test]
    fn commit_all_requires_empty_store_buffer() {
        let mut rig = Rig::new();
        let k = SpeculationKernel::new(1, None);
        rig.begin(&k, 0).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x3000), 9), 0);
        assert!(!SpeculationKernel::commit_all(&mut rig.ctx(0)), "buffered store blocks commit");
        // Grant permission and drain.
        let slot = rig.mem.l1.fill_slot(blk(0x3000));
        let (state, data) = (LineState::Exclusive, BlockData::zeroed());
        rig.mem.fill(slot, state, data, 1, &mut rig.stats.counters, &mut Vec::new());
        rig.mem.drain_store_buffer(4, 2, &mut rig.stats.counters, |_| true);
        assert!(SpeculationKernel::commit_all(&mut rig.ctx(2)));
        assert!(!rig.ledger.speculating());
        assert_eq!(rig.stats.counters.speculations_committed, 1);
        assert!(!rig.mem.l1.has_spec_lines(), "commit flash-clears the bits");
    }

    #[test]
    fn abort_discards_speculative_state_and_charges_violation() {
        let mut rig = Rig::new();
        rig.mem.l1.fill(blk(0x2000), LineState::Exclusive, BlockData::from_words([1; 8]));
        let k = SpeculationKernel::new(1, None);
        rig.begin(&k, 42).unwrap();
        rig.ledger.record_cycles(CycleClass::Busy, 1, &mut rig.stats);
        rig.ledger.record_cycles(CycleClass::Other, 1, &mut rig.stats);
        rig.retire(&k, Instruction::store(Addr::new(0x2000), 7), 42);
        rig.retire(&k, Instruction::store(Addr::new(0x5000), 8), 43);
        let resume = SpeculationKernel::abort_from(&mut rig.ctx(0), 0);
        assert_eq!(resume, 42);
        assert!(!rig.ledger.speculating());
        assert_eq!(rig.stats.counters.speculations_aborted, 1);
        assert_eq!(
            rig.stats.breakdown.get(CycleClass::Violation),
            2,
            "provisional cycles re-attributed"
        );
        assert_eq!(rig.stats.breakdown.get(CycleClass::Busy), 0);
        let state = rig.mem.l1.peek(blk(0x2000));
        assert_eq!(state, LineState::Invalid, "spec-written block invalidated");
        assert!(rig.mem.sb.is_empty(), "speculative buffer entries discarded");
        assert!(!rig.mem.l1.has_spec_lines());
    }

    #[test]
    fn conflict_detection_matches_paper_rules() {
        let mut rig = Rig::new();
        rig.mem.l1.fill(blk(0x1000), LineState::Shared, BlockData::zeroed());
        rig.mem.l1.fill(blk(0x2000), LineState::Exclusive, BlockData::zeroed());
        let k = SpeculationKernel::new(1, None);
        rig.begin(&k, 0).unwrap();
        rig.retire(&k, Instruction::load(Addr::new(0x1000)), 0);
        rig.retire(&k, Instruction::store(Addr::new(0x2000), 1), 1);
        let conflict = |block: u64, is_write: bool| {
            SpeculationKernel::conflict_position(&rig.ledger, &rig.mem, blk(block), is_write)
        };
        // Remote write to a speculatively-read block: conflict.
        assert_eq!(conflict(0x1000, true), Some(0));
        // Remote read of a speculatively-read block: no conflict.
        assert_eq!(conflict(0x1000, false), None);
        // Any remote request to a speculatively-written block: conflict.
        assert_eq!(conflict(0x2000, false), Some(0));
        assert_eq!(conflict(0x2000, true), Some(0));
        // Untouched block: no conflict.
        assert_eq!(conflict(0x7000, true), None);
    }

    #[test]
    fn two_episode_partial_abort_keeps_older_episode() {
        let mut rig = Rig::new();
        rig.mem.l1.fill(blk(0x1000), LineState::Exclusive, BlockData::zeroed());
        rig.mem.l1.fill(blk(0x2000), LineState::Exclusive, BlockData::zeroed());
        let k = SpeculationKernel::new(2, None);
        rig.begin(&k, 0).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x1000), 1), 0);
        rig.begin(&k, 10).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x2000), 2), 10);
        // A conflict on the younger episode's block only rolls back to its checkpoint.
        let pos = SpeculationKernel::conflict_position(&rig.ledger, &rig.mem, blk(0x2000), true);
        assert_eq!(pos, Some(1));
        let resume = SpeculationKernel::abort_from(&mut rig.ctx(0), 1);
        assert_eq!(resume, 10);
        assert_eq!(rig.ledger.live().len(), 1);
        assert_eq!(rig.mem.l1.peek(blk(0x2000)), LineState::Invalid);
        assert!(rig.mem.l1.is_spec_written(blk(0x1000), rig.ledger.live()[0].slot));
        let state = rig.mem.l1.peek(blk(0x1000));
        assert_ne!(state, LineState::Invalid, "older episode's write survives");
    }

    #[test]
    fn younger_episode_store_to_older_block_stays_in_buffer() {
        let mut rig = Rig::new();
        rig.mem.l1.fill(blk(0x1000), LineState::Exclusive, BlockData::zeroed());
        let k = SpeculationKernel::new(2, None);
        rig.begin(&k, 0).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x1000), 1), 0);
        let young_slot = rig.begin(&k, 5).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x1008), 2), 5);
        assert_eq!(
            rig.mem.sb.epoch_len(Some(young_slot as u8)),
            1,
            "younger store to the older episode's block is buffered, not written to the L1"
        );
        let drains = k.can_drain(&rig.ledger, Some(young_slot as u8));
        assert!(!drains, "and may not drain until the older commits");
    }

    #[test]
    fn try_commit_oldest_respects_closure_and_drain_requirements() {
        let mut rig = Rig::new();
        rig.mem.l1.fill(blk(0x1000), LineState::Exclusive, BlockData::zeroed());
        let k = SpeculationKernel::new(2, None);
        rig.begin(&k, 0).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x1000), 1), 0);
        assert!(!k.try_commit_oldest(&mut rig.ctx(0), true), "not closed yet");
        assert!(k.try_commit_oldest(&mut rig.ctx(0), false), "open commit allowed");
        assert!(!rig.ledger.speculating());
    }

    #[test]
    fn conflict_aborts_at_once_and_owes_a_non_speculative_retirement() {
        let mut rig = Rig::new();
        rig.mem.l1.fill(blk(0x1000), LineState::Shared, BlockData::zeroed());
        let k = SpeculationKernel::new(1, None);
        rig.begin(&k, 7).unwrap();
        rig.retire(&k, Instruction::load(Addr::new(0x1000)), 7);
        let remote_read =
            k.on_external(&mut rig.ctx(5), blk(0x1000), ExternalKind::Downgrade, None);
        assert_eq!(
            remote_read,
            ExternalOutcome::Ack,
            "a remote read of a read block is no conflict"
        );
        let outcome = k.on_external(&mut rig.ctx(5), blk(0x1000), ExternalKind::Invalidate, None);
        assert_eq!(outcome, ExternalOutcome::AckAfterRollback { resume_at: 7 });
        assert!(!rig.ledger.speculating());
        assert!(rig.ledger.owes_nonspec(), "the emptying abort owes forward progress");
        rig.ledger.note_retirement();
        assert!(!rig.ledger.owes_nonspec());
        assert_eq!(rig.stats.counters.cov_timeouts + rig.stats.counters.cov_commits, 0);
    }

    #[test]
    fn commit_on_violate_defers_then_commits_or_times_out() {
        for commits in [true, false] {
            let mut rig = Rig::new();
            rig.mem.l1.fill(blk(0x1000), LineState::Shared, BlockData::zeroed());
            let k = SpeculationKernel::new(2, Some(100));
            rig.begin(&k, 3).unwrap();
            rig.retire(&k, Instruction::load(Addr::new(0x1000)), 3);
            let inv = ExternalKind::Invalidate;
            let outcome = k.on_external(&mut rig.ctx(10), blk(0x1000), inv, None);
            assert_eq!(outcome, ExternalOutcome::Defer { until: 110 });
            assert!(rig.ledger.speculating(), "deferral leaves the episode alive");
            let wait = k.on_external(&mut rig.ctx(50), blk(0x1000), inv, Some(110));
            assert_eq!(wait, ExternalOutcome::Defer { until: 110 });
            let counters =
                |rig: &Rig| (rig.stats.counters.cov_commits, rig.stats.counters.cov_timeouts);
            if commits {
                assert!(k.try_commit_oldest(&mut rig.ctx(60), false));
                let acked = k.on_external(&mut rig.ctx(60), blk(0x1000), inv, Some(110));
                assert_eq!(acked, ExternalOutcome::Ack);
                assert_eq!(counters(&rig), (1, 0));
                assert!(!rig.ledger.owes_nonspec());
            } else {
                let timed_out = k.on_external(&mut rig.ctx(110), blk(0x1000), inv, Some(110));
                assert_eq!(timed_out, ExternalOutcome::AckAfterRollback { resume_at: 3 });
                assert_eq!(counters(&rig), (0, 1));
                assert_eq!(rig.stats.counters.speculations_aborted, 1);
                assert!(rig.ledger.owes_nonspec());
            }
        }
    }

    #[test]
    fn eviction_pressure_commits_when_drained_and_aborts_otherwise() {
        let mut rig = Rig::new();
        let k = SpeculationKernel::new(1, None);
        assert_eq!(k.on_eviction_pressure(&mut rig.ctx(0)), None, "nothing to do");
        rig.begin(&k, 0).unwrap();
        assert_eq!(k.on_eviction_pressure(&mut rig.ctx(0)), None, "drained: commits");
        assert_eq!(rig.stats.counters.speculations_committed, 1);
        rig.begin(&k, 4).unwrap();
        rig.retire(&k, Instruction::store(Addr::new(0x3000), 9), 4);
        assert_eq!(k.on_eviction_pressure(&mut rig.ctx(0)), Some(4), "buffered: aborts");
        assert_eq!(rig.stats.counters.speculations_aborted_structural, 1);
        assert!(rig.ledger.owes_nonspec());
    }
}
