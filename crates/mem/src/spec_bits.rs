//! Flash-clearable speculative-access bits (the functional contract of
//! Figure 3's augmented SRAM cells).
//!
//! InvisiFence adds a speculatively-read and a speculatively-written bit to
//! every L1 tag and requires two single-cycle operations: a flash clear of
//! all bits, and a conditional flash-invalidate of every line whose written
//! bit is set. [`SpecBitArray`] provides the software equivalent: clearing is
//! O(1) (a generation bump), and enumerating the set bits is proportional to
//! the number of bits that were actually set since the last clear — not to
//! the size of the cache — mirroring the hardware's one-shot behaviour.

/// A fixed-size array of single-bit flags with O(1) flash clear.
///
/// # Example
/// ```
/// use ifence_mem::SpecBitArray;
/// let mut bits = SpecBitArray::new(1024);
/// bits.set(7);
/// bits.set(900);
/// assert!(bits.get(7));
/// assert_eq!(bits.count_set(), 2);
/// bits.flash_clear();
/// assert!(!bits.get(7));
/// assert_eq!(bits.count_set(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SpecBitArray {
    /// Always even. A stamp equal to it means "set"; one less means "cleared
    /// individually, but already in the log"; anything else means clear.
    generation: u64,
    stamps: Vec<u64>,
    /// Indices set since the last flash clear (no duplicates).
    set_log: Vec<u32>,
}

impl SpecBitArray {
    /// Creates an array of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        SpecBitArray { generation: 2, stamps: vec![0; len], set_log: Vec::new() }
    }

    /// Number of bits in the array.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Returns true if the array has zero bits.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize) {
        let stamp = self.stamps[index];
        if stamp != self.generation {
            if stamp != self.generation - 1 {
                self.set_log.push(index as u32);
            }
            self.stamps[index] = self.generation;
        }
    }

    /// Returns the value of bit `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> bool {
        self.stamps[index] == self.generation
    }

    /// Clears bit `index` only (used when a single line's speculative state is
    /// discarded, e.g. on an individual eviction after a forced commit).
    pub fn clear(&mut self, index: usize) {
        if self.stamps[index] == self.generation {
            // Leave the log entry in place (`iter_set` re-checks `get`) and
            // remember it, so setting the bit again does not log it twice.
            self.stamps[index] = self.generation - 1;
        }
    }

    /// Clears every bit in constant time (the paper's single-cycle flash clear).
    pub fn flash_clear(&mut self) {
        self.generation += 2;
        self.set_log.clear();
    }

    /// Number of bits currently set.
    pub fn count_set(&self) -> usize {
        self.iter_set().count()
    }

    /// Returns true if no bit is set.
    pub fn none_set(&self) -> bool {
        self.iter_set().next().is_none()
    }

    /// Iterates over the indices of set bits, in the order they were first set.
    ///
    /// The cost is proportional to the number of bits set since the last
    /// flash clear, matching the hardware's conditional flash-invalidate
    /// which touches only lines whose written bit is set.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.set_log.iter().map(|&i| i as usize).filter(|&i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = SpecBitArray::new(16);
        assert!(!b.get(3));
        b.set(3);
        assert!(b.get(3));
        b.clear(3);
        assert!(!b.get(3));
        assert_eq!(b.count_set(), 0);
    }

    #[test]
    fn flash_clear_resets_everything() {
        let mut b = SpecBitArray::new(64);
        for i in (0..64).step_by(3) {
            b.set(i);
        }
        assert!(b.count_set() > 0);
        b.flash_clear();
        assert!(b.none_set());
        for i in 0..64 {
            assert!(!b.get(i));
        }
        // Bits can be set again after a flash clear.
        b.set(5);
        assert!(b.get(5));
        assert_eq!(b.count_set(), 1);
    }

    #[test]
    fn duplicate_sets_do_not_duplicate_log_entries() {
        let mut b = SpecBitArray::new(8);
        for _ in 0..10 {
            b.set(2);
        }
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn iter_set_skips_individually_cleared_bits() {
        let mut b = SpecBitArray::new(8);
        b.set(1);
        b.set(2);
        b.set(3);
        b.clear(2);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn clear_then_set_logs_the_bit_once() {
        let mut b = SpecBitArray::new(8);
        b.set(4);
        b.clear(4);
        b.set(4);
        b.set(6);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![4, 6]);
        assert_eq!(b.count_set(), 2);
        b.flash_clear();
        b.clear(4);
        assert!(!b.get(4), "a clear after a flash clear leaves the bit clear");
        b.set(4);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn many_generations_remain_correct() {
        let mut b = SpecBitArray::new(4);
        for round in 0..100 {
            b.set(round % 4);
            assert!(b.get(round % 4));
            b.flash_clear();
            assert!(b.none_set());
        }
    }

    #[test]
    fn len_and_is_empty() {
        assert_eq!(SpecBitArray::new(10).len(), 10);
        assert!(!SpecBitArray::new(10).is_empty());
        assert!(SpecBitArray::new(0).is_empty());
    }
}
