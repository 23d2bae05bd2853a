//! The ordering-engine abstraction: how a consistency-model implementation
//! plugs into the core.
//!
//! An [`OrderingEngine`] decides, each time the core wants to retire the
//! instruction at the head of the reorder buffer, whether the memory
//! consistency model allows it — and performs the retirement mechanics
//! (writing stores to the buffer or the cache, marking speculative bits).
//! Speculative engines additionally decide when an episode begins, commits
//! or aborts, and react to external coherence requests (violation
//! detection). The checkpoints themselves — their slots, resume points,
//! provisional cycles and accounting — live in the core's
//! [`CheckpointLedger`], which every hook that may change them receives.

use crate::checkpoint::CheckpointLedger;
use crate::mem_side::CoreMem;
use crate::rob::RobEntry;
use ifence_stats::CoreStats;
use ifence_types::{Addr, BlockAddr, Cycle, InstrKind, StallReason};

/// Result of asking the engine to retire the head instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireOutcome {
    /// The instruction retired (the engine performed all side effects).
    Retired,
    /// The instruction cannot retire this cycle for the given reason.
    Stall(StallReason),
}

/// The kind of external coherence request delivered to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternalKind {
    /// A remote writer wants the block: invalidate (conflicts with local
    /// speculative reads *and* writes).
    Invalidate,
    /// A remote reader wants the block: downgrade to Shared (conflicts with
    /// local speculative writes only).
    Downgrade,
}

impl ExternalKind {
    /// True for invalidations (remote writes).
    pub fn is_write(self) -> bool {
        matches!(self, ExternalKind::Invalidate)
    }
}

/// The engine's decision about an external coherence request, taken when it
/// arrives and again each cycle while it stays deferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternalOutcome {
    /// No conflict with speculation (any more): apply the request and
    /// acknowledge.
    Ack,
    /// The request conflicts with live speculation (or its deferral timed
    /// out): the engine has already discarded its speculative state; the
    /// core must squash and resume fetching at `resume_at`, then apply the
    /// request and acknowledge.
    AckAfterRollback {
        /// Program index at which execution resumes.
        resume_at: usize,
    },
    /// Hold the request (and its acknowledgement) until `until`, giving the
    /// speculation a chance to commit first (commit-on-violate) or a commit
    /// drain the time to finish (ASO). On a re-poll the core keeps the
    /// deadline of the first deferral.
    Defer {
        /// Deadline after which the deferral must be resolved.
        until: Cycle,
    },
}

/// Context handed to [`OrderingEngine::try_retire`].
pub struct RetireCtx<'a> {
    /// The core's memory side (L1, store buffer, MSHRs, request path).
    pub mem: &'a mut CoreMem,
    /// The core's statistics.
    pub stats: &'a mut CoreStats,
    /// The core's live checkpoints.
    pub ledger: &'a mut CheckpointLedger,
    /// Current cycle.
    pub now: Cycle,
    /// The (completed) head-of-ROB entry being retired.
    pub entry: &'a RobEntry,
}

impl RetireCtx<'_> {
    /// Program index of the instruction being retired — the value a register
    /// checkpoint must record so an abort can replay from here.
    pub fn checkpoint_index(&self) -> usize {
        self.entry.program_index
    }

    /// Retires a store outside any speculation: it writes the L1 when the
    /// block is writable, otherwise enters the store buffer, and stalls with
    /// [`StallReason::StoreBufferFull`] when the buffer has no room.
    pub fn store_non_speculative(&mut self, addr: Addr, value: u64) -> RetireOutcome {
        if self.mem.store_to_l1(addr, value, None, &mut self.stats.counters) {
            return RetireOutcome::Retired;
        }
        match self.mem.store_to_sb(addr, value, None, self.now, self.stats) {
            Ok(()) => RetireOutcome::Retired,
            Err(_) => RetireOutcome::Stall(StallReason::StoreBufferFull),
        }
    }
}

/// Context handed to the engine hooks that may begin, commit or abort a
/// checkpoint outside retirement.
pub struct EngineCtx<'a> {
    /// The core's memory side.
    pub mem: &'a mut CoreMem,
    /// The core's statistics.
    pub stats: &'a mut CoreStats,
    /// The core's live checkpoints.
    pub ledger: &'a mut CheckpointLedger,
    /// Current cycle.
    pub now: Cycle,
}

/// A memory-consistency implementation plugged into a [`crate::Core`].
///
/// Engines are plain timing state and must be [`Send`], so a machine built
/// on one thread can run on another.
pub trait OrderingEngine: Send {
    /// Attempts to retire the head instruction, performing all side effects
    /// (store-buffer insertion, direct cache writes, speculative-bit marking,
    /// checkpoint creation). Returns whether it retired or why it stalled.
    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome;

    /// Hook invoked when a load (or the read half of an atomic) performs its
    /// read at execute time; continuous-mode engines mark the
    /// speculatively-read bit here.
    fn on_load_issue(&mut self, _mem: &mut CoreMem, _ledger: &CheckpointLedger, _block: BlockAddr) {
    }

    /// Per-cycle maintenance: opportunistic commit, chunk management, policy
    /// timeouts.
    fn tick(&mut self, _ctx: &mut EngineCtx<'_>) {}

    /// Decides an external coherence request for `block` (violation
    /// detection). `deferred` is `None` when the request arrives and, while
    /// it stays deferred, the deadline of its first
    /// [`ExternalOutcome::Defer`]; the core polls every cycle until the
    /// answer is not `Defer`, then applies the invalidation/downgrade to the
    /// L1 and acknowledges.
    fn on_external(
        &mut self,
        _ctx: &mut EngineCtx<'_>,
        _block: BlockAddr,
        _kind: ExternalKind,
        _deferred: Option<Cycle>,
    ) -> ExternalOutcome {
        ExternalOutcome::Ack
    }

    /// Whether a store-buffer entry of the given epoch may drain into the L1
    /// this cycle (multi-checkpoint policies hold back younger epochs).
    fn can_drain(&self, _ledger: &CheckpointLedger, _epoch: Option<u8>) -> bool {
        true
    }

    /// Called when an incoming fill would evict a speculatively-accessed
    /// block: the engine must commit (if possible) or abort before the line
    /// escapes. Returns the program index to resume at if it aborted.
    fn on_spec_eviction_pressure(&mut self, _ctx: &mut EngineCtx<'_>) -> Option<usize> {
        None
    }

    /// The earliest future cycle at which the engine's own timers could
    /// change its behaviour (e.g. the end of an ASO commit drain). `None`
    /// means the engine has no pending timer; commit-on-violate deferral
    /// deadlines are tracked by the core's deferred-snoop list, not here.
    /// Engines whose `tick` compares against `now` must report the relevant
    /// deadline or the event-driven kernel could sleep past it.
    fn next_wake(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Whether `tick` may act this cycle. `false` is a proof that the
    /// engine's cycle-start maintenance is a no-op right now and that no
    /// engine timer is pending, so [`crate::Core::step`] skips the stage;
    /// every other engine interaction (`try_retire`, `can_drain`,
    /// `on_load_issue`, even one that starts a speculative episode) still
    /// runs every cycle, so the answer only has to cover `tick` itself.
    ///
    /// The conservative default (`true`) ticks every cycle; engines must
    /// override it only with a proof that the window is dead.
    fn tick_live(&self, _ledger: &CheckpointLedger) -> bool {
        true
    }

    /// Called once the program has drained, and when the simulation ends, so
    /// any still-live checkpoint is folded into the final statistics. The
    /// default commits each live checkpoint as its own speculation.
    fn finalize(&mut self, ctx: &mut EngineCtx<'_>) {
        ctx.ledger.commit_each(ctx.mem, ctx.stats);
    }
}

/// A minimal engine that retires everything as soon as it completes, with no
/// ordering constraints at all. It is *not* a legal consistency model — it
/// exists as a pipeline-only baseline for unit tests and as the simplest
/// example of implementing [`OrderingEngine`].
#[derive(Debug, Default, Clone)]
pub struct FreeRetireEngine;

impl OrderingEngine for FreeRetireEngine {
    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        match ctx.entry.instr.kind {
            InstrKind::Store(addr, value) | InstrKind::Atomic(addr, value) => {
                ctx.store_non_speculative(addr, value)
            }
            _ => RetireOutcome::Retired,
        }
    }

    fn tick_live(&self, _ledger: &CheckpointLedger) -> bool {
        // No ordering constraints, no timers, no speculation: nothing to
        // maintain, ever.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_kind_classification() {
        assert!(ExternalKind::Invalidate.is_write());
        assert!(!ExternalKind::Downgrade.is_write());
    }

    #[test]
    fn default_next_wake_is_none() {
        assert_eq!(FreeRetireEngine.next_wake(17), None);
    }

    #[test]
    fn default_hooks_are_permissive() {
        let mut engine = FreeRetireEngine;
        let cfg = ifence_types::MachineConfig::small_test(ifence_types::EngineKind::Conventional(
            ifence_types::ConsistencyModel::Rmo,
        ));
        let (mut stats, mut ledger) = (CoreStats::new(), CheckpointLedger::default());
        let mut mem = CoreMem::new(ifence_types::CoreId(0), &cfg);
        let mut ctx = EngineCtx { mem: &mut mem, stats: &mut stats, ledger: &mut ledger, now: 0 };
        assert!(engine.can_drain(ctx.ledger, Some(1)));
        assert_eq!(engine.on_spec_eviction_pressure(&mut ctx), None);
        let block = BlockAddr::containing(ifence_types::Addr::new(0x40), 64);
        let inv = ExternalKind::Invalidate;
        assert_eq!(engine.on_external(&mut ctx, block, inv, None), ExternalOutcome::Ack);
        assert_eq!(engine.on_external(&mut ctx, block, inv, Some(10)), ExternalOutcome::Ack);
    }
}
