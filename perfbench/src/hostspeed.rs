//! A fixed probe of how fast the host runs memory-bound code at the moment.
//!
//! On a shared host, other tenants slow the simulator by up to 2× for
//! minutes at a time, mostly through the caches and memory they share with
//! it. Measured on a 2-vCPU Intel Xeon VM, a compute-only loop slowed by at
//! most 1.2× over such a stretch, while the simulator, a random
//! read-modify-write loop over a 2 MiB table and a hash-map churn loop all
//! slowed together. The probe times the last two; the geometric mean of
//! their times over their uncontended times is the host's slowdown factor.
//! Dividing a simulator time taken between two probes by their mean factor
//! removes most of the host's drift: over 25 s windows on that VM, the
//! median normalized `into_result` time of the three benchmark cells spread
//! 4–8 % (quartile distance over median) where the fastest raw time spread
//! 8–17 %.
//!
//! The probe is frozen benchmark code that shares nothing with the
//! simulator, so a change to the simulator moves simulator times only.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Words in the random-access table (2 MiB).
const TABLE_WORDS: usize = 1 << 18;
/// Read-modify-writes per table pass.
const TABLE_OPS: u32 = 10_000_000;
/// Distinct keys the hash-map loop cycles through.
const MAP_KEYS: u64 = 200_000;
/// Operations per hash-map pass.
const MAP_OPS: u32 = 3_000_000;
/// Uncontended seconds of one table pass and one hash-map pass on the VM
/// named above; they only scale the factor, so that 1 means a quiet host.
const TABLE_QUIET_S: f64 = 0.0318;
const MAP_QUIET_S: f64 = 0.155;

/// xorshift64: a fixed, cheap pseudo-random stream.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The probe, with its table allocated once.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe { table: vec![1; TABLE_WORDS] }
    }

    fn table_pass(&mut self) -> u64 {
        let mask = TABLE_WORDS as u64 - 1;
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15_u64, 0_u64);
        for _ in 0..TABLE_OPS {
            let i = (next(&mut x) & mask) as usize;
            acc ^= self.table[i];
            self.table[i] = self.table[i].wrapping_add(acc | 1);
        }
        acc
    }

    fn map_pass() -> u64 {
        // A fixed hasher, so every pass and every process does the same work.
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15_u64, 0_u64);
        for _ in 0..MAP_OPS {
            let key = next(&mut x) % MAP_KEYS;
            let count = map.entry(key).or_insert(0);
            *count += 1;
            acc = acc.wrapping_add(*count);
            if acc & 7 == 0 {
                map.remove(&(key ^ 1));
            }
        }
        acc
    }

    /// How many times slower than uncontended the host runs the probe now.
    pub fn slowdown(&mut self) -> f64 {
        let started = Instant::now();
        black_box(self.table_pass());
        let table_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        black_box(Probe::map_pass());
        let map_s = started.elapsed().as_secs_f64();
        (table_s / TABLE_QUIET_S * map_s / MAP_QUIET_S).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_deterministic_and_the_factor_is_positive() {
        let mut a = Probe::new();
        let mut b = Probe::new();
        assert_eq!(a.table_pass(), b.table_pass());
        assert_eq!(Probe::map_pass(), Probe::map_pass());
        let factor = a.slowdown();
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
    }
}
