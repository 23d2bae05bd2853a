//! The checkpoint ledger: the lifecycle of every speculative episode.
//!
//! In the paper a speculative episode is a register checkpoint plus its
//! speculative bits (Section 3); its cycles stay provisional until it
//! commits, and go to "Violation" if it aborts. The [`CheckpointLedger`] is
//! that lifecycle, written once for every speculative engine. The
//! [`crate::Core`] owns it and reads it directly (whether the core is
//! speculating, how far back the trace must stay fetchable, where each cycle
//! goes); engines receive it through [`crate::RetireCtx`] and their hook
//! arguments, and decide *when* to begin, commit or abort. What a checkpoint
//! guards beyond the L1 bits and the store buffer — InvisiFence's conflict
//! detection, ASO's read and write sets — stays with the engine.
//!
//! The ledger alone does the accounting: `speculations_started` and
//! [`TraceKind::SpecBegin`] on begin; `speculations_committed`,
//! `speculations_aborted`, the episode-length histogram and
//! [`TraceKind::SpecCommit`] / [`TraceKind::SpecAbort`] on commit and abort;
//! `cycles_speculating` and the provisional breakdown on every recorded
//! cycle.

use crate::mem_side::CoreMem;
use ifence_stats::{CoreStats, ProvisionalBreakdown, TraceKind};
use ifence_types::{Cycle, CycleClass};

/// One live register checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Which speculative state this checkpoint tags: the lowest slot free
    /// when it was taken. Slots 0 and 1 are the L1's two physical sets of
    /// speculative bits and the matching store-buffer epoch tags.
    pub slot: usize,
    /// Program index at which execution resumes if this checkpoint aborts.
    pub resume_at: usize,
    /// Instructions retired since the checkpoint was taken.
    pub retired: usize,
    prov: ProvisionalBreakdown,
}

/// The live checkpoints of one core, oldest first, and its forward-progress
/// debt (see the module documentation).
#[derive(Debug, Clone, Default)]
pub struct CheckpointLedger {
    live: Vec<Checkpoint>,
    owes_nonspec: bool,
}

impl CheckpointLedger {
    /// The live checkpoints, oldest first.
    pub fn live(&self) -> &[Checkpoint] {
        &self.live
    }

    /// True while at least one checkpoint is live.
    pub fn speculating(&self) -> bool {
        !self.live.is_empty()
    }

    /// The program index the oldest live checkpoint would resume at: the
    /// oldest index any future rollback could replay from. `None` means no
    /// rollback can reach behind the retirement frontier, which is then the
    /// core's safe trace-release point.
    pub fn rollback_floor(&self) -> Option<usize> {
        self.live.first().map(|c| c.resume_at)
    }

    /// True after an abort emptied the ledger and before the next retirement
    /// outside any checkpoint: the engine must retire one instruction
    /// non-speculatively before it begins another episode, so repeated
    /// violations cannot starve the core.
    pub fn owes_nonspec(&self) -> bool {
        self.owes_nonspec
    }

    fn take(&mut self, resume_at: usize) -> usize {
        let slot = (0..).find(|s| self.live.iter().all(|c| c.slot != *s)).expect("a free slot");
        self.live.push(Checkpoint {
            slot,
            resume_at,
            retired: 0,
            prov: ProvisionalBreakdown::new(),
        });
        slot
    }

    /// Begins a speculative episode whose checkpoint resumes at `resume_at`,
    /// returning its slot.
    pub fn begin(&mut self, resume_at: usize, stats: &mut CoreStats) -> usize {
        debug_assert!(!self.owes_nonspec, "an episode begins only after forward progress");
        let slot = self.take(resume_at);
        stats.counters.speculations_started += 1;
        stats.trace.emit(TraceKind::SpecBegin, self.live.len() as u64);
        slot
    }

    /// Takes an intermediate checkpoint inside the running episode (ASO's
    /// partial-rollback points), returning its slot. It is no new
    /// speculation: nothing is counted until it commits or aborts.
    pub fn add_intermediate(&mut self, resume_at: usize) -> usize {
        debug_assert!(self.speculating(), "an intermediate checkpoint needs an episode");
        self.take(resume_at)
    }

    /// Counts one retirement: against the youngest checkpoint while
    /// speculating, otherwise as the non-speculative retirement that pays
    /// off the forward-progress debt.
    pub fn note_retirement(&mut self) {
        match self.live.last_mut() {
            Some(c) => c.retired += 1,
            None => self.owes_nonspec = false,
        }
    }

    /// Records `cycles` elapsed cycles of `class`: provisionally against the
    /// youngest checkpoint (and as `cycles_speculating`) while speculating,
    /// directly into the breakdown otherwise.
    pub fn record_cycles(&mut self, class: CycleClass, cycles: Cycle, stats: &mut CoreStats) {
        match self.live.last_mut() {
            Some(c) => {
                c.prov.add(class, cycles);
                stats.counters.cycles_speculating += cycles;
            }
            None => stats.breakdown.add(class, cycles),
        }
    }

    /// Commits the oldest `n` checkpoints as one speculation: their L1 bits
    /// are flash-cleared and their provisional cycles kept, and the episode
    /// length is the sum of their retirements. InvisiFence commits one
    /// checkpoint at a time; ASO commits its whole atomic sequence at once
    /// (Figure 5). `n == 0` commits nothing.
    pub fn commit(&mut self, n: usize, mem: &mut CoreMem, stats: &mut CoreStats) {
        if n == 0 {
            return;
        }
        let mut retired = 0;
        for mut c in self.live.drain(..n) {
            clear_l1_slot(mem, c.slot);
            c.prov.commit_into(&mut stats.breakdown);
            retired += c.retired as u64;
        }
        stats.counters.speculations_committed += 1;
        stats.hists.episode_len.record(retired);
        stats.trace.emit(TraceKind::SpecCommit, retired);
        self.check_emptied(mem);
    }

    /// Commits every live checkpoint, oldest first, each as its own
    /// speculation.
    pub fn commit_each(&mut self, mem: &mut CoreMem, stats: &mut CoreStats) {
        while self.speculating() {
            self.commit(1, mem, stats);
        }
    }

    /// Aborts the checkpoint at `position` (0 = oldest) and every younger
    /// one, oldest first. For each, `discard` first drops the engine's own
    /// speculative data of that slot; then its L1 bits are flash-cleared, its
    /// store-buffer entries flash-invalidated and its provisional cycles
    /// charged to `Violation`. An abort that empties the ledger owes one
    /// non-speculative retirement. Returns the program index to resume at.
    ///
    /// # Panics
    /// Panics if `position` is not a live checkpoint.
    pub fn abort_from(
        &mut self,
        position: usize,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        mut discard: impl FnMut(&mut CoreMem, usize),
    ) -> usize {
        let resume_at = self.live[position].resume_at;
        for mut c in self.live.drain(position..) {
            discard(mem, c.slot);
            clear_l1_slot(mem, c.slot);
            mem.sb.flash_invalidate_exact(c.slot as u8);
            c.prov.abort_into(&mut stats.breakdown);
            stats.counters.speculations_aborted += 1;
            stats.hists.episode_len.record(c.retired as u64);
            stats.trace.emit(TraceKind::SpecAbort, c.retired as u64);
        }
        if self.live.is_empty() {
            self.owes_nonspec = true;
        }
        self.check_emptied(mem);
        resume_at
    }

    /// Once the last checkpoint has gone, no L1 line may still carry a
    /// speculative mark: a stale bit would make a later fill treat a clean
    /// line as speculative.
    fn check_emptied(&self, mem: &CoreMem) {
        debug_assert!(
            self.speculating() || !mem.l1.has_spec_lines(),
            "the ledger emptied with speculative lines left in the L1"
        );
    }
}

/// Clears the L1 bits of `slot`; slots past the L1's two physical bit sets
/// have none.
fn clear_l1_slot(mem: &mut CoreMem, slot: usize) {
    if slot < 2 {
        mem.l1.flash_clear_epoch(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{Addr, BlockAddr, ConsistencyModel, CoreId, EngineKind, MachineConfig};

    fn mem_and_stats() -> (CoreMem, CoreStats) {
        let cfg = MachineConfig::small_test(EngineKind::InvisiSelective(ConsistencyModel::Sc));
        (CoreMem::new(CoreId(0), &cfg), CoreStats::new())
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn begin_takes_the_lowest_free_slot_and_counts_once() {
        let (mut mem, mut stats) = mem_and_stats();
        let mut ledger = CheckpointLedger::default();
        assert_eq!(ledger.begin(10, &mut stats), 0);
        assert_eq!(ledger.begin(20, &mut stats), 1);
        assert_eq!(ledger.rollback_floor(), Some(10));
        ledger.commit(1, &mut mem, &mut stats);
        assert_eq!(ledger.begin(30, &mut stats), 0, "the committed slot is free again");
        assert_eq!(ledger.add_intermediate(40), 2, "intermediate checkpoints count upwards");
        assert_eq!(stats.counters.speculations_started, 3);
        let slots: Vec<usize> = ledger.live().iter().map(|c| c.slot).collect();
        assert_eq!(slots, [1, 0, 2]);
    }

    #[test]
    fn cycles_go_straight_to_breakdown_outside_any_checkpoint() {
        let (_, mut stats) = mem_and_stats();
        let mut ledger = CheckpointLedger::default();
        ledger.record_cycles(CycleClass::Busy, 1, &mut stats);
        ledger.record_cycles(CycleClass::SbDrain, 5, &mut stats);
        assert_eq!(stats.breakdown.get(CycleClass::Busy), 1);
        assert_eq!(stats.breakdown.get(CycleClass::SbDrain), 5);
        assert_eq!(stats.counters.cycles_speculating, 0);
    }

    #[test]
    fn cycles_stay_provisional_until_commit_and_go_to_violation_on_abort() {
        let (mut mem, mut stats) = mem_and_stats();
        let mut ledger = CheckpointLedger::default();
        ledger.begin(0, &mut stats);
        ledger.record_cycles(CycleClass::Busy, 2, &mut stats);
        assert_eq!(stats.breakdown.total(), 0, "speculative cycles are provisional");
        ledger.commit(1, &mut mem, &mut stats);
        assert_eq!(stats.breakdown.get(CycleClass::Busy), 2);
        ledger.begin(5, &mut stats);
        ledger.record_cycles(CycleClass::Busy, 3, &mut stats);
        assert_eq!(ledger.abort_from(0, &mut mem, &mut stats, |_, _| {}), 5);
        assert_eq!(stats.breakdown.get(CycleClass::Violation), 3);
        assert_eq!(stats.breakdown.get(CycleClass::Busy), 2);
        assert_eq!(stats.counters.cycles_speculating, 5);
    }

    #[test]
    fn a_sequence_commit_counts_one_speculation_of_the_summed_length() {
        let (mut mem, mut stats) = mem_and_stats();
        let mut ledger = CheckpointLedger::default();
        ledger.begin(0, &mut stats);
        ledger.note_retirement();
        ledger.add_intermediate(1);
        ledger.note_retirement();
        ledger.note_retirement();
        ledger.commit(ledger.live().len(), &mut mem, &mut stats);
        assert!(!ledger.speculating());
        assert_eq!(stats.counters.speculations_committed, 1);
        assert_eq!(stats.hists.episode_len.sum(), 3);
        ledger.commit(0, &mut mem, &mut stats);
        assert_eq!(stats.counters.speculations_committed, 1, "an empty commit counts nothing");
    }

    #[test]
    fn partial_abort_keeps_older_checkpoints_and_owes_progress_only_when_empty() {
        let (mut mem, mut stats) = mem_and_stats();
        mem.l1.fill(blk(0x1000), LineState::Exclusive, BlockData::zeroed());
        let mut ledger = CheckpointLedger::default();
        ledger.begin(0, &mut stats);
        mem.l1.mark_spec_read(blk(0x1000), 0);
        ledger.begin(8, &mut stats);
        mem.l1.mark_spec_read(blk(0x1000), 1);
        let mut discarded = Vec::new();
        let resume = ledger.abort_from(1, &mut mem, &mut stats, |_, slot| discarded.push(slot));
        assert_eq!((resume, discarded), (8, vec![1]));
        assert!(!ledger.owes_nonspec(), "the older episode survives");
        assert!(mem.l1.is_spec_read(blk(0x1000), 0));
        assert!(!mem.l1.is_spec_read(blk(0x1000), 1));
        ledger.abort_from(0, &mut mem, &mut stats, |_, _| {});
        assert!(ledger.owes_nonspec());
        assert!(!mem.l1.has_spec_lines());
        assert_eq!(stats.counters.speculations_aborted, 2);
        ledger.note_retirement();
        assert!(!ledger.owes_nonspec(), "a retirement outside any checkpoint pays the debt");
    }

    #[test]
    fn commit_each_preserves_provisional_cycles() {
        let (mut mem, mut stats) = mem_and_stats();
        let mut ledger = CheckpointLedger::default();
        ledger.begin(0, &mut stats);
        ledger.record_cycles(CycleClass::Busy, 2, &mut stats);
        ledger.begin(4, &mut stats);
        ledger.record_cycles(CycleClass::Other, 1, &mut stats);
        ledger.commit_each(&mut mem, &mut stats);
        assert!(!ledger.speculating());
        assert_eq!(stats.counters.speculations_committed, 2, "one speculation each");
        assert_eq!(stats.breakdown.get(CycleClass::Busy), 2);
        assert_eq!(stats.breakdown.get(CycleClass::Other), 1);
    }
}
