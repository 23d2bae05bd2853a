//! A flat, fixed-capacity ring buffer used as the backing store for the
//! per-core hot structures (reorder buffer, FIFO store buffer).
//!
//! Unlike `VecDeque`, the backing `Vec` never reallocates after reaching the
//! configured capacity and is never rotated: the occupied region is addressed
//! by a head index plus a length, so the core's per-cycle scans iterate
//! plain slices. Slots are filled lazily — a ring only allocates as many
//! slots as it has ever held at once — and overflow is a panic, because every
//! caller checks `is_full` (or its own capacity rule) before inserting.

/// A fixed-capacity ring buffer over a flat `Vec` (head index + length, no
/// rotation).
///
/// # Example
/// ```
/// use ifence_mem::Ring;
/// let mut ring: Ring<u32> = Ring::with_capacity(2);
/// ring.push_back(1);
/// ring.push_back(2);
/// assert!(ring.is_full());
/// assert_eq!(ring.pop_front(), Some(1));
/// ring.push_back(3); // wraps around the backing storage
/// assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Ring<T> {
    slots: Vec<T>,
    /// Logical capacity: the bound `is_full` enforces.
    capacity: usize,
    /// Physical index mask. The backing wraps at `capacity` rounded up to a
    /// power of two, so slot indexing is a bitwise AND instead of a modulo
    /// (a hardware divide for runtime capacities) — the same layout trick
    /// `VecDeque` uses, at the cost of at most 2x lazily-filled slots.
    mask: usize,
    head: usize,
    len: usize,
}

// Derived `Default` would demand `T: Default`, which the backing never needs
// (slots are filled lazily).
impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring { slots: Vec::new(), capacity: 0, mask: 0, head: 0, len: 0 }
    }
}

impl<T> Ring<T> {
    /// Creates an empty ring holding at most `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        let physical = capacity.next_power_of_two().max(1);
        Ring { slots: Vec::new(), capacity, mask: physical - 1, head: 0, len: 0 }
    }

    /// Number of elements currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the ring holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns true if no further element can be inserted.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Maximum number of elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Physical slot index of logical position `i`: `head + i` wrapped over
    /// the power-of-two physical backing with a bitwise AND.
    #[inline]
    fn slot_index(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// Appends an element at the back.
    ///
    /// # Panics
    /// Panics if the ring is full.
    pub fn push_back(&mut self, value: T) {
        assert!(self.len < self.capacity, "ring buffer overflow");
        let idx = self.slot_index(self.len);
        if idx == self.slots.len() {
            // Lazy fill: the slot has never been occupied. The occupied
            // region is contiguous in [0, slots.len()), so the only index
            // outside it that a push can hit is exactly slots.len().
            self.slots.push(value);
        } else {
            self.slots[idx] = value;
        }
        self.len += 1;
    }

    /// The element at logical position `i` (0 = oldest).
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        Some(&self.slots[self.slot_index(i)])
    }

    /// Mutable access to the element at logical position `i` (0 = oldest).
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let idx = self.slot_index(i);
        Some(&mut self.slots[idx])
    }

    /// The oldest element.
    pub fn front(&self) -> Option<&T> {
        self.get(0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Keeps only the oldest `len` elements, discarding the tail. A no-op
    /// when `len >= self.len()`. Truncating to zero re-anchors the ring like
    /// [`Ring::clear`].
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            if len == 0 {
                self.head = 0;
            }
        }
    }

    /// The occupied region as (first, wrapped) slice lengths over the
    /// physical backing.
    fn split_lens(&self) -> (usize, usize) {
        let first = self.len.min(self.mask + 1 - self.head);
        (first, self.len - first)
    }

    /// The occupied region as two slices, oldest first: the run up to the
    /// end of the physical backing, then the wrapped run (empty unless the
    /// region wraps). Rings of equal capacity pushed and popped in lockstep
    /// split at the same position.
    pub fn as_slices(&self) -> (&[T], &[T]) {
        let (first, wrapped) = self.split_lens();
        (&self.slots[self.head..self.head + first], &self.slots[..wrapped])
    }

    /// Iterates oldest-first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + Clone + '_ {
        let (front, back) = self.as_slices();
        front.iter().chain(back.iter())
    }

    /// Mutable iteration oldest-first.
    pub fn iter_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut T> + '_ {
        let (first, wrapped) = self.split_lens();
        let (wrap_part, head_part) = self.slots.split_at_mut(self.head);
        head_part[..first].iter_mut().chain(wrap_part[..wrapped].iter_mut())
    }
}

impl<T: Copy> Ring<T> {
    /// Removes and returns the oldest element.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let value = self.slots[self.head];
        self.head = self.slot_index(1);
        self.len -= 1;
        if self.len == 0 {
            // Re-anchor an empty ring so subsequent pushes stay contiguous.
            self.head = 0;
        }
        Some(value)
    }

    /// Keeps only the elements for which `keep` returns true, preserving
    /// order. Returns how many elements were removed.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) -> usize {
        let old_len = self.len;
        let mut kept = 0;
        for i in 0..old_len {
            let idx = self.slot_index(i);
            let value = self.slots[idx];
            if keep(&value) {
                // kept <= i, so this writes at or before the slot just read.
                let dst = self.slot_index(kept);
                self.slots[dst] = value;
                kept += 1;
            }
        }
        self.len = kept;
        if kept == 0 {
            self.head = 0;
        }
        old_len - kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_order() {
        let mut r = Ring::with_capacity(4);
        for i in 0..4 {
            r.push_back(i);
        }
        assert!(r.is_full());
        for i in 0..4 {
            assert_eq!(r.pop_front(), Some(i));
        }
        assert!(r.is_empty());
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn wraparound_keeps_order_and_indices() {
        let mut r = Ring::with_capacity(3);
        r.push_back(1);
        r.push_back(2);
        r.pop_front();
        r.push_back(3);
        r.push_back(4); // head is now 1, occupied region wraps
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.iter().rev().copied().collect::<Vec<_>>(), vec![4, 3, 2]);
        assert_eq!(r.get(0), Some(&2));
        assert_eq!(r.get(2), Some(&4));
        assert_eq!(r.get(3), None);
        assert_eq!(r.front(), Some(&2));
    }

    #[test]
    fn as_slices_splits_at_the_physical_wrap() {
        let mut r = Ring::with_capacity(4);
        r.push_back(1);
        r.push_back(2);
        r.push_back(3);
        r.pop_front();
        r.pop_front();
        assert_eq!(r.as_slices(), (&[3][..], &[][..]));
        for v in [4, 5, 6] {
            r.push_back(v); // occupies slots 3, 0, 1
        }
        assert_eq!(r.as_slices(), (&[3, 4][..], &[5, 6][..]));
    }

    #[test]
    #[should_panic(expected = "ring buffer overflow")]
    fn overflow_panics() {
        let mut r = Ring::with_capacity(1);
        r.push_back(0);
        r.push_back(1);
    }

    #[test]
    fn retain_preserves_order_across_the_wrap() {
        let mut r = Ring::with_capacity(4);
        r.push_back(10);
        r.push_back(11);
        r.pop_front();
        r.pop_front();
        for v in [0, 1, 2, 3] {
            r.push_back(v); // occupies slots 2,3,0,1
        }
        assert_eq!(r.retain(|v| v % 2 == 0), 2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn iter_mut_visits_every_element_oldest_first() {
        let mut r = Ring::with_capacity(3);
        r.push_back(1);
        r.push_back(2);
        r.pop_front();
        r.push_back(3);
        r.push_back(4);
        for (i, v) in r.iter_mut().enumerate() {
            *v += (i as u32) * 100;
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 103, 204]);
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut r = Ring::with_capacity(2);
        r.push_back(5);
        r.clear();
        assert!(r.is_empty());
        r.push_back(6);
        assert_eq!(r.front(), Some(&6));
    }
}
