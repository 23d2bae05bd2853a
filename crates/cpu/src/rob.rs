//! Reorder buffer: in-flight instruction tracking.

use ifence_types::{BlockAddr, Cycle, Instruction};
use std::collections::VecDeque;

/// One in-flight instruction.
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
    /// Whether the instruction has been issued (executed, or registered as
    /// an MSHR waiter for its miss).
    pub issued: bool,
    /// The cycle the instruction finishes executing (`None` while still
    /// executing or not yet issued for a miss).
    pub complete_at: Option<Cycle>,
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

impl RobEntry {
    /// Binds a load's or an atomic's read: records the value it read and
    /// whether it read it at the head (see [`RobEntry::bound_at_head`]).
    pub fn bind_read(&mut self, value: Option<u64>, at_head: bool) {
        self.loaded_value = value;
        self.performed_read = true;
        self.bound_at_head = at_head;
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
    entries: VecDeque<RobEntry>,
    capacity: usize,
}

impl Rob {
    /// Creates an empty reorder buffer with the given capacity. Storage is
    /// allocated as entries arrive.
    pub fn new(capacity: usize) -> Self {
        Rob { entries: VecDeque::new(), capacity }
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
        self.entries.len() >= self.capacity
    }

    /// Dispatches an instruction into the buffer. Dispatch ids must strictly
    /// increase in buffer order (the core never reuses one), which lets
    /// [`Rob::position_of`] binary-search them.
    ///
    /// # Panics
    /// Panics if the buffer is full (the core checks before dispatching).
    pub fn push(&mut self, program_index: usize, dispatch_id: u64, instr: Instruction) {
        assert!(!self.is_full(), "reorder buffer overflow");
        debug_assert!(
            !matches!(self.entries.back(), Some(last) if last.dispatch_id >= dispatch_id),
            "dispatch ids must strictly increase"
        );
        self.entries.push_back(RobEntry {
            program_index,
            dispatch_id,
            instr,
            block: None,
            issued: false,
            complete_at: None,
            performed_read: false,
            bound_at_head: false,
            loaded_value: None,
        });
    }

    /// The `index`-th oldest in-flight instruction (0 = head).
    pub fn get(&self, index: usize) -> Option<&RobEntry> {
        self.entries.get(index)
    }

    /// Mutable access to the `index`-th oldest in-flight instruction.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut RobEntry> {
        self.entries.get_mut(index)
    }

    /// The oldest in-flight instruction.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Completion cycle of the head instruction, if known (the core's wake
    /// hint).
    pub fn head_complete_at(&self) -> Option<Cycle> {
        self.entries.front().and_then(|e| e.complete_at)
    }

    /// True once the head instruction has finished executing by `now`.
    pub fn head_completed(&self, now: Cycle) -> bool {
        self.head_complete_at().is_some_and(|c| c <= now)
    }

    /// Position (0 = head) of the in-flight instruction with the given
    /// dispatch id, if it is still in flight: dispatch ids strictly increase
    /// in buffer order, so this is a binary search.
    pub fn position_of(&self, dispatch_id: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&dispatch_id, |e| e.dispatch_id).ok()
    }

    /// Removes and returns the oldest instruction (retirement).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        self.entries.pop_front()
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
        n
    }

    /// Discards every instruction at or after `program_index` (partial squash
    /// used by in-window ordering replays), returning how many were discarded.
    /// Entries sit in program order, so the squash is a suffix truncation.
    pub fn squash_from(&mut self, program_index: usize) -> usize {
        let old_len = self.entries.len();
        let kept = self.entries.iter().take_while(|e| e.program_index < program_index).count();
        debug_assert!(
            self.entries.iter().skip(kept).all(|e| e.program_index >= program_index),
            "reorder buffer entries must be in program order"
        );
        self.entries.truncate(kept);
        old_len - kept
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
        rob.get_mut(0).unwrap().complete_at = Some(10);
        assert_eq!(rob.squash_from(3), 3);
        assert_eq!(rob.len(), 3);
        assert!(rob.iter().all(|e| e.program_index < 3));
        assert_eq!(rob.head_complete_at(), Some(10), "survivor state untouched");
        assert_eq!(rob.squash_all(), 3);
        assert!(rob.is_empty());
    }

    #[test]
    fn squash_keeps_survivor_state_and_refill_starts_pending() {
        let mut rob = Rob::new(4);
        for i in 0..4usize {
            rob.push(i, i as u64, Instruction::op(1));
            let e = rob.get_mut(i).unwrap();
            e.issued = true;
            e.complete_at = Some(100 + i as u64);
        }
        assert_eq!(rob.squash_from(2), 2);
        // Refill the freed tail; the fresh entries must come back pending.
        rob.push(2, 10, Instruction::op(1));
        rob.push(3, 11, Instruction::op(1));
        let statuses: Vec<_> =
            rob.iter().map(|e| (e.dispatch_id, e.complete_at, e.issued)).collect();
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
        assert!(rob.oldest_vulnerable_read_of(block).is_none(), "not performed yet");
        for e in rob.iter_mut() {
            e.block = Some(block);
            e.performed_read = true;
        }
        assert_eq!(rob.oldest_vulnerable_read_of(block).unwrap().program_index, 0);
        // A read bound while it was the oldest in flight is no longer
        // vulnerable to an invalidation.
        rob.get_mut(0).unwrap().bound_at_head = true;
        assert_eq!(rob.oldest_vulnerable_read_of(block).unwrap().program_index, 1);
    }

    #[test]
    fn completion_check() {
        let mut rob = Rob::new(2);
        rob.push(0, 0, Instruction::op(1));
        assert!(!rob.head_completed(100));
        assert_eq!(rob.head_complete_at(), None);
        rob.get_mut(0).unwrap().complete_at = Some(50);
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
