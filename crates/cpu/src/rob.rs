//! Reorder buffer: in-flight instruction tracking.
//!
//! Completion state is kept structure-of-arrays style: the per-entry payload
//! (`RobEntry`) lives in one ring, while the completion cycle and the issue
//! flag live in two parallel rings pushed, popped, squashed and cleared in
//! lockstep. The core's hot queries — "when does the head complete", "is
//! this entry issued" — then read dense `u64`s / `bool`s without walking the
//! wide entry structs.

use ifence_mem::Ring;
use ifence_types::{BlockAddr, Cycle, Instruction};

/// Sentinel completion cycle meaning "still executing / not yet issued for a
/// miss". `Cycle::MAX` keeps the completion ring a dense `u64` array: the
/// head-completion check is a single compare against `now`.
const PENDING: Cycle = Cycle::MAX;

/// One in-flight instruction (the payload half; completion cycle and issue
/// flag are tracked by the [`Rob`] in parallel arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobEntry {
    /// Index of the instruction in the core's program (stable across replay).
    pub program_index: usize,
    /// Unique dispatch identifier (never reused, even across rollbacks), used
    /// to tag MSHR waiters.
    pub dispatch_id: u64,
    /// The instruction itself.
    pub instr: Instruction,
    /// The cache block the instruction accesses, if it is a memory operation.
    pub block: Option<BlockAddr>,
    /// Whether a load/atomic has performed its data read (needed for
    /// in-window ordering snoops and for continuous-mode read marking).
    pub performed_read: bool,
    /// True if the read was performed while this instruction was the oldest
    /// one in flight: every older instruction had already retired (and bound
    /// its value earlier), so an external invalidation can no longer expose a
    /// load-load reordering through this entry and it need not be replayed.
    /// This is the forward-progress guarantee of in-window snooping.
    pub bound_at_head: bool,
    /// The value obtained by a load/atomic read (captured at execute or fill).
    pub loaded_value: Option<u64>,
}

/// A mutable borrow-split view of one ROB position: the entry payload plus
/// its completion-cycle and issue-flag slots from the parallel rings. Used by
/// the issue stage, which mutates all three while the memory side is borrowed
/// separately.
pub struct RobView<'a> {
    /// The entry payload.
    pub entry: &'a mut RobEntry,
    /// Completion cycle slot ([`Cycle::MAX`] = pending).
    complete_at: &'a mut Cycle,
    /// Issue flag slot.
    issued: &'a mut bool,
}

impl RobView<'_> {
    /// Whether the instruction has been issued.
    pub fn issued(&self) -> bool {
        *self.issued
    }

    /// Marks the instruction issued.
    pub fn set_issued(&mut self) {
        *self.issued = true;
    }

    /// Records the completion cycle.
    pub fn set_complete_at(&mut self, cycle: Cycle) {
        *self.complete_at = cycle;
    }
}

/// A bounded in-order reorder buffer.
///
/// # Example
/// ```
/// use ifence_cpu::Rob;
/// use ifence_types::{Addr, Instruction};
/// let mut rob = Rob::new(4);
/// rob.push(0, 0, Instruction::load(Addr::new(0x40)));
/// assert_eq!(rob.len(), 1);
/// assert!(rob.head().is_some());
/// assert_eq!(rob.head_complete_at(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rob {
    // Flat ring backing: the capacity is fixed at construction, so in-flight
    // entries live in a never-reallocated `Vec` addressed by head + length —
    // the core's per-cycle scans walk plain slices, not a rotated deque.
    entries: Ring<RobEntry>,
    /// Completion cycles, parallel to `entries` ([`PENDING`] = not complete).
    complete_at: Ring<Cycle>,
    /// Issue flags, parallel to `entries`.
    issued: Ring<bool>,
}

impl Rob {
    /// Creates an empty reorder buffer with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Rob {
            entries: Ring::with_capacity(capacity),
            complete_at: Ring::with_capacity(capacity),
            issued: Ring::with_capacity(capacity),
        }
    }

    /// Number of in-flight instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if no instructions are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns true if the buffer cannot accept another instruction.
    pub fn is_full(&self) -> bool {
        self.entries.is_full()
    }

    /// Dispatches an instruction into the buffer. Dispatch ids must strictly
    /// increase in buffer order (the core never reuses one), which lets
    /// [`Rob::position_of`] binary-search them.
    ///
    /// # Panics
    /// Panics if the buffer is full (the core checks before dispatching).
    pub fn push(&mut self, program_index: usize, dispatch_id: u64, instr: Instruction) {
        assert!(!self.entries.is_full(), "reorder buffer overflow");
        debug_assert!(
            !matches!(self.entries.iter().next_back(), Some(last) if last.dispatch_id >= dispatch_id),
            "dispatch ids must strictly increase"
        );
        self.entries.push_back(RobEntry {
            program_index,
            dispatch_id,
            instr,
            block: None,
            performed_read: false,
            bound_at_head: false,
            loaded_value: None,
        });
        self.complete_at.push_back(PENDING);
        self.issued.push_back(false);
    }

    /// The `index`-th oldest in-flight instruction (0 = head): a flat-ring
    /// index computation.
    pub fn get(&self, index: usize) -> Option<&RobEntry> {
        self.entries.get(index)
    }

    /// Mutable access to the `index`-th oldest in-flight instruction.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut RobEntry> {
        self.entries.get_mut(index)
    }

    /// Borrow-split mutable view of the `index`-th oldest position: entry
    /// payload plus its completion/issue slots from the parallel rings.
    pub fn view_mut(&mut self, index: usize) -> Option<RobView<'_>> {
        let entry = self.entries.get_mut(index)?;
        let complete_at = self.complete_at.get_mut(index).expect("parallel ring in lockstep");
        let issued = self.issued.get_mut(index).expect("parallel ring in lockstep");
        Some(RobView { entry, complete_at, issued })
    }

    /// The oldest in-flight instruction.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Mutable access to the oldest in-flight instruction.
    pub fn head_mut(&mut self) -> Option<&mut RobEntry> {
        self.entries.front_mut()
    }

    /// Completion cycle of the `index`-th oldest instruction (`None` while
    /// still executing or not yet issued for a miss).
    pub fn complete_at(&self, index: usize) -> Option<Cycle> {
        self.complete_at.get(index).copied().filter(|&c| c != PENDING)
    }

    /// Records the completion cycle of the `index`-th oldest instruction.
    pub fn set_complete_at(&mut self, index: usize, cycle: Cycle) {
        if let Some(slot) = self.complete_at.get_mut(index) {
            *slot = cycle;
        }
    }

    /// Whether the `index`-th oldest instruction has been issued.
    pub fn is_issued(&self, index: usize) -> bool {
        self.issued.get(index).copied().unwrap_or(false)
    }

    /// Completion cycle of the head instruction, if known (the core's wake
    /// hint): one dense `u64` read, no entry walk.
    pub fn head_complete_at(&self) -> Option<Cycle> {
        self.complete_at(0)
    }

    /// True once the head instruction has finished executing by `now`.
    pub fn head_completed(&self, now: Cycle) -> bool {
        // PENDING is Cycle::MAX, so a single compare folds the "known and
        // due" check into one branch.
        self.complete_at.front().is_some_and(|&c| c <= now)
    }

    /// Position (0 = head) of the in-flight instruction with the given
    /// dispatch id, if it is still in flight: a binary search of the ring's
    /// two runs, whose dispatch ids strictly increase.
    pub fn position_of(&self, dispatch_id: u64) -> Option<usize> {
        let (front, back) = self.entries.as_slices();
        match front.last() {
            Some(last) if dispatch_id <= last.dispatch_id => {
                front.binary_search_by_key(&dispatch_id, |e| e.dispatch_id).ok()
            }
            _ => back
                .binary_search_by_key(&dispatch_id, |e| e.dispatch_id)
                .ok()
                .map(|i| front.len() + i),
        }
    }

    /// Removes and returns the oldest instruction (retirement).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let entry = self.entries.pop_front();
        if entry.is_some() {
            self.complete_at.pop_front();
            self.issued.pop_front();
        }
        entry
    }

    /// Iterates over in-flight instructions oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Mutable iteration over in-flight instructions oldest-first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        self.entries.iter_mut()
    }

    /// Discards every in-flight instruction (pipeline squash), returning how
    /// many were discarded.
    pub fn squash_all(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.complete_at.clear();
        self.issued.clear();
        n
    }

    /// Discards every instruction at or after `program_index` (partial squash
    /// used by in-window ordering replays), returning how many were discarded.
    /// Entries sit in program order, so the squash is a suffix truncation of
    /// all three parallel rings.
    pub fn squash_from(&mut self, program_index: usize) -> usize {
        let old_len = self.entries.len();
        let kept = self.entries.iter().take_while(|e| e.program_index < program_index).count();
        debug_assert!(
            self.entries.iter().skip(kept).all(|e| e.program_index >= program_index),
            "reorder buffer entries must be in program order"
        );
        self.entries.truncate(kept);
        self.complete_at.truncate(kept);
        self.issued.truncate(kept);
        old_len - kept
    }

    /// Finds the oldest entry that has performed a read of `block` (used by
    /// load-queue snooping on external invalidations).
    pub fn oldest_read_of(&self, block: BlockAddr) -> Option<&RobEntry> {
        self.entries.iter().find(|e| e.performed_read && e.block == Some(block))
    }

    /// Finds the oldest entry whose read of `block` is still vulnerable to an
    /// external invalidation (performed, but not bound while it was the oldest
    /// in-flight instruction). This is the entry from which an in-window
    /// ordering replay must squash.
    pub fn oldest_vulnerable_read_of(&self, block: BlockAddr) -> Option<&RobEntry> {
        self.entries.iter().find(|e| e.performed_read && !e.bound_at_head && e.block == Some(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::Addr;

    #[test]
    fn push_pop_in_order() {
        let mut rob = Rob::new(8);
        for i in 0..5usize {
            rob.push(i, i as u64, Instruction::op(1));
        }
        assert_eq!(rob.len(), 5);
        assert_eq!(rob.pop_head().unwrap().program_index, 0);
        assert_eq!(rob.pop_head().unwrap().program_index, 1);
        assert_eq!(rob.len(), 3);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(0, 0, Instruction::op(1));
        rob.push(1, 1, Instruction::op(1));
    }

    #[test]
    fn squash_from_partial() {
        let mut rob = Rob::new(8);
        for i in 0..6usize {
            rob.push(i, i as u64, Instruction::op(1));
        }
        rob.set_complete_at(0, 10);
        assert_eq!(rob.squash_from(3), 3);
        assert_eq!(rob.len(), 3);
        assert!(rob.iter().all(|e| e.program_index < 3));
        assert_eq!(rob.head_complete_at(), Some(10), "survivor state untouched");
        assert_eq!(rob.squash_all(), 3);
        assert!(rob.is_empty());
    }

    #[test]
    fn parallel_rings_stay_in_lockstep_across_squash_and_refill() {
        let mut rob = Rob::new(4);
        for i in 0..4usize {
            rob.push(i, i as u64, Instruction::op(1));
            if let Some(mut v) = rob.view_mut(i) {
                v.set_issued();
                v.set_complete_at(100 + i as u64);
            }
        }
        assert_eq!(rob.squash_from(2), 2);
        // Refill the freed tail; the fresh entries must come back pending.
        rob.push(2, 10, Instruction::op(1));
        rob.push(3, 11, Instruction::op(1));
        assert_eq!(rob.complete_at(0), Some(100));
        assert_eq!(rob.complete_at(1), Some(101));
        assert_eq!(rob.complete_at(2), None);
        assert!(!rob.is_issued(2));
        assert!(rob.is_issued(1));
        let statuses: Vec<_> = (0..rob.len())
            .map(|i| (rob.get(i).unwrap().dispatch_id, rob.complete_at(i), rob.is_issued(i)))
            .collect();
        assert_eq!(
            statuses,
            vec![(0, Some(100), true), (1, Some(101), true), (10, None, false), (11, None, false)]
        );
    }

    #[test]
    fn oldest_read_of_finds_performed_loads() {
        let mut rob = Rob::new(8);
        let block = BlockAddr::containing(Addr::new(0x100), 64);
        rob.push(0, 0, Instruction::load(Addr::new(0x100)));
        rob.push(1, 1, Instruction::load(Addr::new(0x100)));
        assert!(rob.oldest_read_of(block).is_none(), "not performed yet");
        for e in rob.iter_mut() {
            e.block = Some(block);
            e.performed_read = true;
        }
        assert_eq!(rob.oldest_read_of(block).unwrap().program_index, 0);
    }

    #[test]
    fn completion_check() {
        let mut rob = Rob::new(2);
        rob.push(0, 0, Instruction::op(1));
        assert!(!rob.head_completed(100));
        assert_eq!(rob.head_complete_at(), None);
        rob.set_complete_at(0, 50);
        assert!(rob.head_completed(100));
        assert!(!rob.head_completed(49));
        assert_eq!(rob.head_complete_at(), Some(50));
    }

    #[test]
    fn position_of_tracks_dispatch_ids() {
        let mut rob = Rob::new(4);
        rob.push(0, 7, Instruction::op(1));
        rob.push(1, 9, Instruction::op(1));
        assert_eq!(rob.position_of(9), Some(1));
        rob.pop_head();
        assert_eq!(rob.position_of(9), Some(0));
        assert_eq!(rob.position_of(7), None);
    }
}
