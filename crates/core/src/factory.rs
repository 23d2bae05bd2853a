//! Construction of ordering engines from an [`EngineKind`].

use crate::aso::AsoEngine;
use crate::continuous::InvisiContinuousEngine;
use crate::selective::InvisiSelectiveEngine;
use ifence_consistency::ConventionalEngine;
use ifence_cpu::OrderingEngine;
use ifence_types::{EngineKind, MachineConfig};

/// Builds the ordering engine named by `kind`, configured from `cfg`.
///
/// This is the single entry point the machine model uses to instantiate any
/// of the configurations evaluated in the paper: conventional SC/TSO/RMO,
/// InvisiFence-Selective (one or two checkpoints), InvisiFence-Continuous
/// (with or without commit-on-violate), and the ASO baseline. The kind alone
/// fixes the checkpoint count and the commit-on-violate policy
/// ([`EngineKind::checkpoints`], [`EngineKind::commit_on_violate`]); `cfg`
/// supplies the remaining speculation parameters.
///
/// # Example
/// ```
/// use invisifence::build_engine;
/// use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
///
/// let cfg = MachineConfig::with_engine(EngineKind::Conventional(ConsistencyModel::Tso));
/// assert_eq!(build_engine(cfg.engine, &cfg).next_wake(0), None);
/// ```
pub fn build_engine(kind: EngineKind, cfg: &MachineConfig) -> Box<dyn OrderingEngine> {
    let spec = &cfg.speculation;
    match kind {
        EngineKind::Conventional(model) => Box::new(ConventionalEngine::new(model)),
        EngineKind::InvisiSelective(model) | EngineKind::InvisiSelectiveTwoCkpt(model) => {
            Box::new(InvisiSelectiveEngine::new(model, kind.checkpoints(), spec))
        }
        EngineKind::InvisiContinuous { commit_on_violate } => {
            Box::new(InvisiContinuousEngine::new(commit_on_violate, spec))
        }
        EngineKind::Aso(model) => Box::new(AsoEngine::new(model, cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_cpu::Core;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{Addr, BlockAddr, CoreId, Instruction, Program};

    #[test]
    fn every_engine_kind_builds_and_runs_a_program() {
        // EngineKind::all() is the canonical list: a newly added kind that
        // cannot be built, or whose engine cannot retire a store-load-fence
        // program on warm lines, fails here without anyone having to
        // remember to extend a hand-written list.
        for kind in EngineKind::all() {
            let cfg = MachineConfig::small_test(kind);
            let mut program = Program::new();
            program.push(Instruction::store(Addr::new(0x1000), 7));
            program.push(Instruction::load(Addr::new(0x1040)));
            program.push(Instruction::fence());
            program.push(Instruction::load(Addr::new(0x1040)));
            let mut core = Core::new(CoreId(0), program, &cfg, build_engine(kind, &cfg));
            for byte in [0x1000, 0x1040] {
                let block = BlockAddr::containing(Addr::new(byte), 64);
                core.mem.l1.fill(block, LineState::Exclusive, BlockData::zeroed());
            }
            for now in 0..200 {
                core.step(now);
                if core.finished() {
                    break;
                }
            }
            assert!(core.finished(), "{kind} did not finish");
            assert_eq!(core.retired_count(), 4, "{kind}");
            assert_eq!(core.mem.read_value(Addr::new(0x1000)), Some(7), "{kind}");
        }
    }
}
