//! Instruction and program (trace) representation.
//!
//! The core timing model is *trace driven*: each core executes a
//! deterministic, pre-generated [`Program`] of [`Instruction`]s. Determinism
//! matters because post-retirement speculation rolls back by replaying the
//! trace from a checkpoint.

use crate::addr::Addr;
use std::fmt;

/// The kind of memory fence an instruction represents.
///
/// Under RMO (the SPARC relaxed model the paper uses as its representative
/// relaxed model) a *full* fence (`MEMBAR #Sync`-style) requires the store
/// buffer to drain before any later memory operation retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// Orders everything before against everything after (drains the store buffer).
    Full,
    /// Orders stores before against loads after (the relevant ordering at lock
    /// acquire under RMO). Conventional implementations treat it as a full
    /// drain; the distinction is kept so workload generators can express
    /// acquire/release pairs explicitly.
    StoreLoad,
}

/// A single instruction of a core's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// A load from the given byte address.
    Load(Addr),
    /// A store to the given byte address. The second field is the value
    /// written (used by the functional value model / litmus tests).
    Store(Addr, u64),
    /// An atomic read-modify-write (e.g. compare-and-swap / atomic increment)
    /// on the given address, writing the given value.
    Atomic(Addr, u64),
    /// An explicit memory ordering fence.
    Fence(FenceKind),
    /// A non-memory instruction that occupies the pipeline for the embedded
    /// execution latency (in cycles, at least 1).
    Op(u8),
}

impl InstrKind {
    /// Returns the memory address this instruction accesses, if any.
    pub fn addr(&self) -> Option<Addr> {
        match self {
            InstrKind::Load(a) | InstrKind::Store(a, _) | InstrKind::Atomic(a, _) => Some(*a),
            InstrKind::Fence(_) | InstrKind::Op(_) => None,
        }
    }

    /// Returns true if this instruction reads memory (loads and atomics).
    pub fn reads_memory(&self) -> bool {
        matches!(self, InstrKind::Load(_) | InstrKind::Atomic(..))
    }

    /// Returns true if this instruction writes memory (stores and atomics).
    pub fn writes_memory(&self) -> bool {
        matches!(self, InstrKind::Store(..) | InstrKind::Atomic(..))
    }

    /// Returns true if this instruction is a memory operation of any kind
    /// (load, store or atomic; fences are ordering-only).
    pub fn is_memory(&self) -> bool {
        self.addr().is_some()
    }
}

/// A single traced instruction: its kind plus a stable index used to identify
/// it for checkpoint/rollback and for litmus-test result collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// What the instruction does.
    pub kind: InstrKind,
}

impl Instruction {
    /// Creates a load instruction.
    pub fn load(addr: Addr) -> Self {
        Instruction { kind: InstrKind::Load(addr) }
    }

    /// Creates a store instruction writing `value`.
    pub fn store(addr: Addr, value: u64) -> Self {
        Instruction { kind: InstrKind::Store(addr, value) }
    }

    /// Creates an atomic read-modify-write instruction writing `value`.
    pub fn atomic(addr: Addr, value: u64) -> Self {
        Instruction { kind: InstrKind::Atomic(addr, value) }
    }

    /// Creates a full memory fence.
    pub fn fence() -> Self {
        Instruction { kind: InstrKind::Fence(FenceKind::Full) }
    }

    /// Creates a non-memory instruction with the given execution latency.
    ///
    /// # Panics
    /// Panics if `latency` is zero.
    pub fn op(latency: u8) -> Self {
        assert!(latency > 0, "non-memory instruction latency must be at least 1 cycle");
        Instruction { kind: InstrKind::Op(latency) }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            InstrKind::Load(a) => write!(f, "ld   {a}"),
            InstrKind::Store(a, v) => write!(f, "st   {a} <- {v}"),
            InstrKind::Atomic(a, v) => write!(f, "atom {a} <- {v}"),
            InstrKind::Fence(FenceKind::Full) => write!(f, "membar #Sync"),
            InstrKind::Fence(FenceKind::StoreLoad) => write!(f, "membar #StoreLoad"),
            InstrKind::Op(lat) => write!(f, "op   (lat {lat})"),
        }
    }
}

/// A complete per-core instruction trace.
///
/// A `Program` is just an ordered list of instructions; it exists as a type so
/// workload generators, the core model and litmus tests share one vocabulary.
///
/// # Example
/// ```
/// use ifence_types::{Addr, Instruction, Program};
/// let mut p = Program::new();
/// p.push(Instruction::store(Addr::new(0x100), 1));
/// p.push(Instruction::fence());
/// p.push(Instruction::load(Addr::new(0x200)));
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.memory_op_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program { instructions: Vec::new() }
    }

    /// Appends an instruction.
    pub fn push(&mut self, instr: Instruction) {
        self.instructions.push(instr);
    }

    /// Number of instructions in the program.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns true if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Returns the instruction at `index`, if present.
    pub fn get(&self, index: usize) -> Option<&Instruction> {
        self.instructions.get(index)
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Returns the instructions as a slice.
    pub fn as_slice(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Counts the loads, stores and atomics in the program.
    pub fn memory_op_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.kind.is_memory()).count()
    }

    /// Counts fences in the program.
    pub fn fence_count(&self) -> usize {
        self.instructions.iter().filter(|i| matches!(i.kind, InstrKind::Fence(_))).count()
    }

    /// Counts atomic operations in the program.
    pub fn atomic_count(&self) -> usize {
        self.instructions.iter().filter(|i| matches!(i.kind, InstrKind::Atomic(..))).count()
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Program { instructions: iter.into_iter().collect() }
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_kind_classification() {
        let ld = InstrKind::Load(Addr::new(8));
        let st = InstrKind::Store(Addr::new(8), 1);
        let at = InstrKind::Atomic(Addr::new(8), 1);
        let fence = InstrKind::Fence(FenceKind::Full);
        let op = InstrKind::Op(1);

        assert!(ld.reads_memory() && !ld.writes_memory() && ld.is_memory());
        assert!(!st.reads_memory() && st.writes_memory() && st.is_memory());
        assert!(at.reads_memory() && at.writes_memory() && at.is_memory());
        assert!(!fence.is_memory() && !op.is_memory());
        assert_eq!(op.addr(), None);
    }

    #[test]
    fn program_counts() {
        let mut p = Program::new();
        p.push(Instruction::op(1));
        p.push(Instruction::load(Addr::new(0x10)));
        p.push(Instruction::store(Addr::new(0x20), 7));
        p.push(Instruction::atomic(Addr::new(0x30), 9));
        p.push(Instruction::fence());
        assert_eq!(p.len(), 5);
        assert_eq!(p.memory_op_count(), 3);
        assert_eq!(p.fence_count(), 1);
        assert_eq!(p.atomic_count(), 1);
    }

    #[test]
    fn program_collects_from_iterator() {
        let p: Program = (0..4).map(|i| Instruction::load(Addr::new(i * 64))).collect();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.get(2).unwrap().kind, InstrKind::Load(Addr::new(128)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_latency_op_panics() {
        let _ = Instruction::op(0);
    }

    #[test]
    fn display_is_nonempty() {
        for i in [
            Instruction::load(Addr::new(0x40)),
            Instruction::store(Addr::new(0x40), 3),
            Instruction::atomic(Addr::new(0x40), 3),
            Instruction::fence(),
            Instruction::op(2),
        ] {
            assert!(!i.to_string().is_empty());
        }
    }
}
