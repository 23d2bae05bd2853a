//! The fabric's event queue: a binary min-heap in exact `(cycle,
//! schedule-order)` pop order.
//!
//! The fabric schedules directory accesses and deliveries here, and the
//! machine schedules its sleeping cores' wake hints. Both need events at
//! equal cycles to pop in the order they were scheduled, so each entry
//! carries a sequence number assigned at [`EventQueue::schedule`] and the
//! heap orders entries by `(time, seq)` alone. `next_due` is exact, not a
//! lower bound: the simulation kernel's quiescence jumps and deadlock
//! verdicts depend on it. `schedule` may target any cycle, including one at
//! or before the cycle being drained; such an event pops in the same drain.

use ifence_types::Cycle;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled event, ordered by `(time, seq)`; the value takes no part.
#[derive(Debug)]
struct Entry<T> {
    time: Cycle,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Cycle, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A min-heap of events with exact `(cycle, schedule-order)` pop order (see
/// the module documentation).
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The cycle of the earliest scheduled event, if any. Exact: the next
    /// `pop_due(now)` with `now >=` this cycle returns an event at exactly
    /// this cycle.
    pub fn next_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(entry)| entry.time)
    }

    /// Schedules `value` at `time`. Events at equal cycles pop in schedule
    /// order.
    pub fn schedule(&mut self, time: Cycle, value: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, value }));
    }

    /// Pops the earliest event if it is due at or before `now`. Calling
    /// again keeps draining in exact `(time, seq)` order, including events
    /// scheduled *during* the drain at cycles `<= now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.next_due()? > now {
            return None;
        }
        let Reverse(entry) = self.heap.pop()?;
        Some((entry.time, entry.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains everything due at `now`, returning (time, value) pairs.
    fn drain_due(q: &mut EventQueue<u32>, now: Cycle) -> Vec<(Cycle, u32)> {
        let mut out = Vec::new();
        while let Some(popped) = q.pop_due(now) {
            out.push(popped);
        }
        out
    }

    #[test]
    fn pops_in_cycle_then_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 1);
        q.schedule(10, 2);
        q.schedule(30, 3);
        q.schedule(10, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_due(), Some(10));
        assert_eq!(drain_due(&mut q, 9), vec![]);
        assert_eq!(drain_due(&mut q, 100), vec![(10, 2), (10, 4), (30, 1), (30, 3)]);
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn far_future_events_survive_the_overflow_path() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(1 << 20, 2); // far future, scheduled early
        q.schedule(70, 3);
        q.schedule(5000, 4);
        assert_eq!(q.next_due(), Some(5));
        assert_eq!(q.pop_due(5), Some((5, 1)));
        assert_eq!(q.next_due(), Some(70));
        assert_eq!(q.pop_due(4999), Some((70, 3)));
        assert_eq!(q.pop_due(1 << 21), Some((5000, 4)));
        assert_eq!(q.pop_due(1 << 21), Some((1 << 20, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn events_scheduled_during_a_drain_pop_in_the_same_drain() {
        let mut q = EventQueue::new();
        q.schedule(100, 1);
        assert_eq!(q.pop_due(100), Some((100, 1)));
        // Zero-latency consequence at the cycle being drained, plus one
        // behind it (both at or before the drained cycle).
        q.schedule(100, 2);
        q.schedule(99, 3);
        assert_eq!(q.pop_due(100), Some((99, 3)));
        assert_eq!(q.pop_due(100), Some((100, 2)));
        assert_eq!(q.pop_due(100), None);
    }

    #[test]
    fn next_due_is_exact_across_aliased_buckets() {
        let mut q = EventQueue::new();
        q.schedule(4097, 1); // scheduled first, one cycle later
        q.schedule(4096, 2);
        assert_eq!(q.next_due(), Some(4096), "next_due is the exact minimum");
        assert_eq!(q.pop_due(4096), Some((4096, 2)));
        assert_eq!(q.next_due(), Some(4097));
    }

    #[test]
    fn cascades_preserve_order_against_interleaved_schedules() {
        let mut q = EventQueue::new();
        // Far event scheduled first (small seq), near events later, and a
        // same-cycle follower of the far event scheduled while it drains:
        // all must pop in (time, seq) order.
        q.schedule(200, 1);
        q.schedule(10, 2);
        let mut now = 0;
        let mut order = Vec::new();
        while let Some(due) = q.next_due() {
            assert!(due >= now, "due never regresses");
            now = due;
            // Schedule a same-cycle follower the first time we pop at 200.
            while let Some((t, v)) = q.pop_due(now) {
                if t == 200 && v == 1 {
                    q.schedule(200, 3);
                }
                order.push((t, v));
            }
        }
        assert_eq!(order, vec![(10, 2), (200, 1), (200, 3)]);
    }
}
