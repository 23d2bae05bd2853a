//! The workload abstraction the experiment layers run: a named recipe for
//! per-core [`InstructionSource`](ifence_types::InstructionSource)s.
//!
//! A [`Workload`] is either *steady* — one [`WorkloadSpec`] governing the
//! whole trace, the shape of every Figure 7 preset — or *phased* — a cycle
//! of `(spec, length)` phases whose statistical character switches mid-run
//! (a lock-heavy burst alternating with a compute stretch, modeled on server
//! load swings). Phased workloads are the first scenario that is impossible
//! to express as a pregenerated `Vec<Program>` at production scale: the
//! trace must be produced against the live instruction index, which only the
//! streaming [`GeneratorSource`] path provides.

use crate::generator::{drain, GeneratorSource};
use crate::spec::WorkloadSpec;
use ifence_types::{BoxedSource, Program};

/// One phase of a [`PhasedWorkload`]: `instructions` trace slots drawn from
/// `spec` before the next phase takes over.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPhase {
    /// The statistical model active during this phase.
    pub spec: WorkloadSpec,
    /// Length of the phase in instructions (the phase cycle repeats).
    pub instructions: usize,
}

/// A workload whose spec changes at fixed instruction boundaries, cycling
/// through its phases for the whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedWorkload {
    /// Display name (used in figure rows like the preset names).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The phase cycle, in order; must be non-empty.
    pub phases: Vec<WorkloadPhase>,
}

impl PhasedWorkload {
    /// Checks that the workload has at least one phase and every phase is
    /// non-empty and valid.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("phased workload {} has no phases", self.name));
        }
        for (i, phase) in self.phases.iter().enumerate() {
            if phase.instructions == 0 {
                return Err(format!("{}: phase {i} has zero length", self.name));
            }
            phase.spec.validate().map_err(|e| format!("{}: phase {i}: {e}", self.name))?;
        }
        Ok(())
    }
}

/// A runnable workload: what the runner, sweep engine, figure drivers and
/// bench harness operate on.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// One spec for the whole trace (every Figure 7 preset).
    Steady(WorkloadSpec),
    /// A cycle of specs switching at instruction boundaries.
    Phased(PhasedWorkload),
}

impl Workload {
    /// Display name (matches the paper's workload labels for presets).
    pub fn name(&self) -> &str {
        match self {
            Workload::Steady(spec) => &spec.name,
            Workload::Phased(phased) => &phased.name,
        }
    }

    /// One-line description.
    pub fn description(&self) -> &str {
        match self {
            Workload::Steady(spec) => &spec.description,
            Workload::Phased(phased) => &phased.description,
        }
    }

    /// Validates the underlying spec(s).
    ///
    /// # Errors
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Workload::Steady(spec) => spec.validate(),
            Workload::Phased(phased) => phased.validate(),
        }
    }

    /// The streaming source for one core's trace.
    ///
    /// # Panics
    /// Panics if the workload fails [`Workload::validate`].
    pub fn source_for_core(
        &self,
        core: usize,
        cores: usize,
        instructions_per_core: usize,
        seed: u64,
    ) -> GeneratorSource {
        match self {
            Workload::Steady(spec) => {
                GeneratorSource::steady(spec.clone(), core, cores, instructions_per_core, seed)
            }
            Workload::Phased(phased) => GeneratorSource::phased(
                phased.phases.iter().map(|p| (p.spec.clone(), p.instructions)).collect(),
                core,
                cores,
                instructions_per_core,
                seed,
            ),
        }
    }

    /// One boxed streaming source per core — the machine's construction
    /// input on the O(window)-memory path.
    ///
    /// # Panics
    /// Panics if the workload fails [`Workload::validate`].
    pub fn sources(
        &self,
        cores: usize,
        instructions_per_core: usize,
        seed: u64,
    ) -> Vec<BoxedSource> {
        (0..cores)
            .map(|core| {
                Box::new(self.source_for_core(core, cores, instructions_per_core, seed))
                    as BoxedSource
            })
            .collect()
    }

    /// Fully materialized per-core traces, drained from the same sources —
    /// byte-identical to what the streaming path serves, at O(trace length)
    /// memory (the reference path for equivalence tests).
    ///
    /// # Panics
    /// Panics if the workload fails [`Workload::validate`].
    pub fn generate(&self, cores: usize, instructions_per_core: usize, seed: u64) -> Vec<Program> {
        (0..cores)
            .map(|core| drain(self.source_for_core(core, cores, instructions_per_core, seed)))
            .collect()
    }
}

impl From<WorkloadSpec> for Workload {
    fn from(spec: WorkloadSpec) -> Self {
        Workload::Steady(spec)
    }
}

impl From<PhasedWorkload> for Workload {
    fn from(phased: PhasedWorkload) -> Self {
        Workload::Phased(phased)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phased() -> PhasedWorkload {
        PhasedWorkload {
            name: "two-phase".to_string(),
            description: "test".to_string(),
            phases: vec![
                WorkloadPhase { spec: WorkloadSpec::uniform("a"), instructions: 300 },
                WorkloadPhase { spec: WorkloadSpec::uniform("b"), instructions: 200 },
            ],
        }
    }

    #[test]
    fn steady_workload_generates_like_its_spec() {
        let spec = WorkloadSpec::uniform("w");
        let via_workload = Workload::from(spec.clone()).generate(2, 1_000, 7);
        let via_spec = spec.generate(2, 1_000, 7);
        assert_eq!(via_workload, via_spec);
    }

    #[test]
    fn sources_match_generate() {
        let workload = Workload::from(phased());
        let programs = workload.generate(2, 1_000, 3);
        for (core, mut source) in workload.sources(2, 1_000, 3).into_iter().enumerate() {
            for (i, instr) in programs[core].iter().enumerate() {
                assert_eq!(source.fetch(i), Some(*instr), "core {core} index {i}");
            }
            assert_eq!(source.fetch(programs[core].len()), None);
        }
    }

    #[test]
    fn validation_rejects_bad_phases() {
        let workload = Workload::from(phased());
        workload.validate().unwrap();
        let mut empty = phased();
        empty.phases.clear();
        assert!(empty.validate().unwrap_err().contains("no phases"));
        let mut zero = phased();
        zero.phases[1].instructions = 0;
        assert!(zero.validate().unwrap_err().contains("zero length"));
        let mut invalid = phased();
        invalid.phases[0].spec.mem_fraction = 7.0;
        assert!(Workload::from(invalid).validate().is_err());
    }

    #[test]
    fn names_and_descriptions_pass_through() {
        let w = Workload::from(WorkloadSpec::uniform("steady-name"));
        assert_eq!(w.name(), "steady-name");
        assert!(!w.description().is_empty());
        let p = Workload::from(phased());
        assert_eq!(p.name(), "two-phase");
    }
}
