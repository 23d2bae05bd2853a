//! Litmus-test program builders.
//!
//! These tests check that a consistency implementation *enforces* its model —
//! the functional counterpart of the paper's claim that speculation never
//! becomes architecturally visible. Each test repeats a classic multi-thread
//! pattern many times, each iteration on fresh addresses, and a checker counts
//! outcomes that sequential consistency forbids:
//!
//! * **Message passing (MP)** — writer: `data = 1; flag = 1`; reader:
//!   `r1 = flag; r2 = data`. Forbidden: `r1 == 1 && r2 == 0`.
//! * **Store buffering (SB / Dekker)** — core 0: `x = 1; r0 = y`; core 1:
//!   `y = 1; r1 = x`. Forbidden: `r0 == 0 && r1 == 0`.
//! * **Load buffering (LB)** — core 0: `r0 = x; y = 1`; core 1: `r1 = y;
//!   x = 1`. Forbidden: `r0 == 1 && r1 == 1` (each load would have to read
//!   the value of a store that is program-after the other load).
//! * **Independent reads of independent writes (IRIW)** — writers on cores 0
//!   and 1 (`x = 1` / `y = 1`), readers on cores 2 and 3 observing them in
//!   opposite orders. Forbidden: the readers disagree on the order of the
//!   two writes (`r1 == 1 && r2 == 0 && r3 == 1 && r4 == 0`), which only a
//!   non-multi-copy-atomic memory system can produce.
//!
//! With `fenced` set, a full fence is inserted between the two accesses of
//! each observing thread, making the forbidden outcome illegal under RMO as
//! well.

use ifence_types::{Addr, ConsistencyModel, Instruction, Program};

const BLOCK: u64 = 64;
/// Base address of the litmus data region (distinct from workload regions).
pub const LITMUS_BASE: u64 = 0x7000_0000;

/// Which litmus pattern a test instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitmusKind {
    /// Message passing (load→load vs store→store ordering).
    MessagePassing,
    /// Store buffering / Dekker (store→load ordering).
    StoreBuffering,
    /// Load buffering (load→store ordering).
    LoadBuffering,
    /// Independent reads of independent writes (store atomicity).
    Iriw,
}

impl LitmusKind {
    /// Every pattern, in report order.
    pub const ALL: [LitmusKind; 4] = [
        LitmusKind::MessagePassing,
        LitmusKind::StoreBuffering,
        LitmusKind::LoadBuffering,
        LitmusKind::Iriw,
    ];

    /// The pattern's name in reports.
    pub fn label(self) -> &'static str {
        match self {
            LitmusKind::MessagePassing => "message-passing",
            LitmusKind::StoreBuffering => "store-buffering",
            LitmusKind::LoadBuffering => "load-buffering",
            LitmusKind::Iriw => "iriw",
        }
    }

    /// True when the observed values form the outcome sequential consistency
    /// forbids for this pattern.
    fn forbidden(self, values: &[u64]) -> bool {
        match (self, values) {
            (LitmusKind::MessagePassing, [flag, data]) => *flag == 1 && *data == 0,
            (LitmusKind::StoreBuffering, [r0, r1]) => *r0 == 0 && *r1 == 0,
            (LitmusKind::LoadBuffering, [r0, r1]) => *r0 == 1 && *r1 == 1,
            (LitmusKind::Iriw, [r1, r2, r3, r4]) => *r1 == 1 && *r2 == 0 && *r3 == 1 && *r4 == 0,
            _ => unreachable!("observation arity fixed per pattern"),
        }
    }
}

/// The loads whose values decide one iteration's outcome, as
/// `(core, program index)` pairs in the order [`LitmusKind::forbidden`]
/// expects them.
#[derive(Debug, Clone)]
struct Observation {
    loads: Vec<(usize, usize)>,
}

/// A multi-core litmus test: per-core programs plus a forbidden-outcome checker.
#[derive(Debug, Clone)]
pub struct LitmusTest {
    kind: LitmusKind,
    fenced: bool,
    iterations: usize,
    programs: Vec<Program>,
    observations: Vec<Observation>,
}

impl LitmusTest {
    /// Builds the `kind` pattern with the given number of iterations,
    /// fenced or not (see the per-pattern builders).
    pub fn new(kind: LitmusKind, iterations: usize, fenced: bool) -> Self {
        match kind {
            LitmusKind::MessagePassing => Self::message_passing(iterations, fenced),
            LitmusKind::StoreBuffering => Self::store_buffering(iterations, fenced),
            LitmusKind::LoadBuffering => Self::load_buffering(iterations, fenced),
            LitmusKind::Iriw => Self::iriw(iterations, fenced),
        }
    }

    /// Builds a message-passing test with the given number of iterations.
    /// When `fenced` is true a full fence separates the writer's two stores
    /// and the reader's two loads.
    pub fn message_passing(iterations: usize, fenced: bool) -> Self {
        let mut writer = Program::new();
        let mut reader = Program::new();
        let mut observations = Vec::with_capacity(iterations);
        for i in 0..iterations as u64 {
            let data = Addr::new(LITMUS_BASE + i * 2 * BLOCK);
            let flag = Addr::new(LITMUS_BASE + (i * 2 + 1) * BLOCK);
            writer.push(Instruction::store(data, 1));
            if fenced {
                writer.push(Instruction::fence());
            }
            writer.push(Instruction::store(flag, 1));
            // A little padding desynchronises the iterations across cores.
            writer.push(Instruction::op(2));

            let flag_idx = reader.len();
            reader.push(Instruction::load(flag));
            if fenced {
                reader.push(Instruction::fence());
            }
            let data_idx = reader.len();
            reader.push(Instruction::load(data));
            reader.push(Instruction::op(1));
            observations.push(Observation { loads: vec![(1, flag_idx), (1, data_idx)] });
        }
        LitmusTest {
            kind: LitmusKind::MessagePassing,
            fenced,
            iterations,
            programs: vec![writer, reader],
            observations,
        }
    }

    /// Builds a store-buffering (Dekker) test with the given number of
    /// iterations. When `fenced` is true a full fence separates each core's
    /// store from its subsequent load.
    pub fn store_buffering(iterations: usize, fenced: bool) -> Self {
        let mut core0 = Program::new();
        let mut core1 = Program::new();
        let mut observations = Vec::with_capacity(iterations);
        for i in 0..iterations as u64 {
            let x = Addr::new(LITMUS_BASE + i * 2 * BLOCK);
            let y = Addr::new(LITMUS_BASE + (i * 2 + 1) * BLOCK);

            core0.push(Instruction::store(x, 1));
            if fenced {
                core0.push(Instruction::fence());
            }
            let r0_idx = core0.len();
            core0.push(Instruction::load(y));
            core0.push(Instruction::op(2));

            core1.push(Instruction::store(y, 1));
            if fenced {
                core1.push(Instruction::fence());
            }
            let r1_idx = core1.len();
            core1.push(Instruction::load(x));
            core1.push(Instruction::op(2));

            observations.push(Observation { loads: vec![(0, r0_idx), (1, r1_idx)] });
        }
        LitmusTest {
            kind: LitmusKind::StoreBuffering,
            fenced,
            iterations,
            programs: vec![core0, core1],
            observations,
        }
    }

    /// Builds a load-buffering test with the given number of iterations: each
    /// core loads one variable and then stores to the other. When `fenced` is
    /// true a full fence separates each core's load from its subsequent
    /// store. Observing both loads as 1 would require each load to read a
    /// store that is program-after the other load — a causal cycle no
    /// in-order-retirement implementation (speculative or not) can produce.
    pub fn load_buffering(iterations: usize, fenced: bool) -> Self {
        let mut core0 = Program::new();
        let mut core1 = Program::new();
        let mut observations = Vec::with_capacity(iterations);
        for i in 0..iterations as u64 {
            let x = Addr::new(LITMUS_BASE + i * 2 * BLOCK);
            let y = Addr::new(LITMUS_BASE + (i * 2 + 1) * BLOCK);

            let r0_idx = core0.len();
            core0.push(Instruction::load(x));
            if fenced {
                core0.push(Instruction::fence());
            }
            core0.push(Instruction::store(y, 1));
            core0.push(Instruction::op(2));

            let r1_idx = core1.len();
            core1.push(Instruction::load(y));
            if fenced {
                core1.push(Instruction::fence());
            }
            core1.push(Instruction::store(x, 1));
            core1.push(Instruction::op(2));

            observations.push(Observation { loads: vec![(0, r0_idx), (1, r1_idx)] });
        }
        LitmusTest {
            kind: LitmusKind::LoadBuffering,
            fenced,
            iterations,
            programs: vec![core0, core1],
            observations,
        }
    }

    /// Builds an IRIW (independent reads of independent writes) test with the
    /// given number of iterations: cores 0 and 1 write `x` and `y`
    /// respectively; cores 2 and 3 each read both variables in opposite
    /// orders. When `fenced` is true a full fence separates each reader's two
    /// loads. The forbidden outcome — the readers observing the two writes in
    /// contradictory orders — requires non-multi-copy-atomic stores, which a
    /// directory protocol with a single point of serialisation per block
    /// never produces.
    pub fn iriw(iterations: usize, fenced: bool) -> Self {
        let mut writer_x = Program::new();
        let mut writer_y = Program::new();
        let mut reader_xy = Program::new();
        let mut reader_yx = Program::new();
        let mut observations = Vec::with_capacity(iterations);
        for i in 0..iterations as u64 {
            let x = Addr::new(LITMUS_BASE + i * 2 * BLOCK);
            let y = Addr::new(LITMUS_BASE + (i * 2 + 1) * BLOCK);

            writer_x.push(Instruction::store(x, 1));
            writer_x.push(Instruction::op(2));
            writer_y.push(Instruction::store(y, 1));
            writer_y.push(Instruction::op(3));

            let r1_idx = reader_xy.len();
            reader_xy.push(Instruction::load(x));
            if fenced {
                reader_xy.push(Instruction::fence());
            }
            let r2_idx = reader_xy.len();
            reader_xy.push(Instruction::load(y));
            reader_xy.push(Instruction::op(1));

            let r3_idx = reader_yx.len();
            reader_yx.push(Instruction::load(y));
            if fenced {
                reader_yx.push(Instruction::fence());
            }
            let r4_idx = reader_yx.len();
            reader_yx.push(Instruction::load(x));
            reader_yx.push(Instruction::op(1));

            observations.push(Observation {
                loads: vec![(2, r1_idx), (2, r2_idx), (3, r3_idx), (3, r4_idx)],
            });
        }
        LitmusTest {
            kind: LitmusKind::Iriw,
            fenced,
            iterations,
            programs: vec![writer_x, writer_y, reader_xy, reader_yx],
            observations,
        }
    }

    /// The litmus pattern.
    pub fn kind(&self) -> LitmusKind {
        self.kind
    }

    /// Number of iterations (independent instances of the pattern).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The per-core programs (two cores, or four for IRIW).
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// Whether an engine enforcing `model` must never show this test's
    /// forbidden outcome: with fences every pattern is ordered under every
    /// model, and load buffering is forbidden everywhere because no engine
    /// speculates on load values. Unfenced, TSO keeps message passing's
    /// store→store and load→load order but relaxes store→load (store
    /// buffering), and RMO relaxes all three; IRIW's forbidden outcome is
    /// guaranteed absent only under SC.
    pub fn must_forbid(&self, model: ConsistencyModel) -> bool {
        if self.fenced {
            return true;
        }
        match self.kind {
            LitmusKind::LoadBuffering => true,
            LitmusKind::MessagePassing => model != ConsistencyModel::Rmo,
            LitmusKind::StoreBuffering | LitmusKind::Iriw => model == ConsistencyModel::Sc,
        }
    }

    /// Counts forbidden outcomes given each core's retired-load observations
    /// (`(program_index, value)` pairs, as produced by the core model).
    ///
    /// Missing observations (a load index not present in the results) make the
    /// iteration count as forbidden, so an incomplete run cannot masquerade as
    /// a correct one.
    pub fn count_forbidden(&self, results: &[Vec<(usize, u64)>]) -> usize {
        let value_of = |core: usize, index: usize| -> Option<u64> {
            results.get(core)?.iter().find(|(i, _)| *i == index).map(|(_, v)| *v)
        };
        self.observations
            .iter()
            .filter(|obs| {
                let values: Option<Vec<u64>> =
                    obs.loads.iter().map(|&(core, index)| value_of(core, index)).collect();
                match values {
                    Some(values) => self.kind.forbidden(&values),
                    None => true,
                }
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::InstrKind;

    #[test]
    fn message_passing_structure() {
        let t = LitmusTest::message_passing(10, false);
        assert_eq!(t.kind(), LitmusKind::MessagePassing);
        assert_eq!(t.iterations(), 10);
        assert_eq!(t.programs().len(), 2);
        assert_eq!(t.programs()[0].iter().filter(|i| i.kind.writes_memory()).count(), 20);
        assert_eq!(t.programs()[1].iter().filter(|i| i.kind.reads_memory()).count(), 20);
    }

    #[test]
    fn fenced_variants_contain_fences() {
        let plain = LitmusTest::store_buffering(5, false);
        let fenced = LitmusTest::store_buffering(5, true);
        assert_eq!(plain.programs()[0].fence_count(), 0);
        assert_eq!(fenced.programs()[0].fence_count(), 5);
        assert!(fenced.programs()[1].iter().any(|i| matches!(i.kind, InstrKind::Fence(_))));
    }

    #[test]
    fn checker_counts_forbidden_mp_outcomes() {
        let t = LitmusTest::message_passing(2, false);
        // Reconstruct the observation indexes: the reader's trace per
        // iteration is [load flag, load data, op], so flag loads sit at 0 and
        // 3 and data loads at 1 and 4 (no fences).
        let ok = vec![Vec::new(), vec![(0, 1), (1, 1), (3, 0), (4, 0)]];
        assert_eq!(t.count_forbidden(&ok), 0, "flag=1,data=1 and flag=0,data=0 are allowed");
        let bad = vec![Vec::new(), vec![(0, 1), (1, 0), (3, 1), (4, 1)]];
        assert_eq!(t.count_forbidden(&bad), 1, "flag=1,data=0 is forbidden");
    }

    #[test]
    fn checker_counts_forbidden_sb_outcomes() {
        let t = LitmusTest::store_buffering(1, false);
        let allowed = vec![vec![(1, 1)], vec![(1, 0)]];
        assert_eq!(t.count_forbidden(&allowed), 0);
        let forbidden = vec![vec![(1, 0)], vec![(1, 0)]];
        assert_eq!(t.count_forbidden(&forbidden), 1);
    }

    #[test]
    fn load_buffering_structure_and_checker() {
        let t = LitmusTest::load_buffering(1, false);
        assert_eq!(t.kind(), LitmusKind::LoadBuffering);
        assert_eq!(t.programs().len(), 2);
        // Per iteration each core is [load, store, op]: loads sit at index 0.
        let allowed = vec![vec![(0, 1)], vec![(0, 0)]];
        assert_eq!(t.count_forbidden(&allowed), 0, "one load seeing the other's store is fine");
        let forbidden = vec![vec![(0, 1)], vec![(0, 1)]];
        assert_eq!(t.count_forbidden(&forbidden), 1, "both loads reading 1 is a causal cycle");
    }

    #[test]
    fn iriw_structure_and_checker() {
        let t = LitmusTest::iriw(1, false);
        assert_eq!(t.kind(), LitmusKind::Iriw);
        assert_eq!(t.programs().len(), 4, "two writers plus two readers");
        // Reader traces per iteration are [load, load, op]: indexes 0 and 1.
        let agree = vec![Vec::new(), Vec::new(), vec![(0, 1), (1, 1)], vec![(0, 1), (1, 1)]];
        assert_eq!(t.count_forbidden(&agree), 0);
        let disagree = vec![Vec::new(), Vec::new(), vec![(0, 1), (1, 0)], vec![(0, 1), (1, 0)]];
        assert_eq!(t.count_forbidden(&disagree), 1, "contradictory write orders are forbidden");
    }

    #[test]
    fn fenced_lb_and_iriw_contain_fences() {
        assert_eq!(LitmusTest::load_buffering(4, true).programs()[0].fence_count(), 4);
        assert_eq!(LitmusTest::iriw(3, true).programs()[2].fence_count(), 3);
        assert_eq!(LitmusTest::iriw(3, true).programs()[0].fence_count(), 0, "writers unfenced");
    }

    #[test]
    fn missing_observations_count_as_forbidden() {
        let t = LitmusTest::store_buffering(3, false);
        let empty: Vec<Vec<(usize, u64)>> = vec![Vec::new(), Vec::new()];
        assert_eq!(t.count_forbidden(&empty), 3);
    }
}
