//! Figure 2: the consistency models' conventional implementations, as the
//! rows the figure prints ([`figure2_rows`]) and as the retirement rule the
//! conventional, InvisiFence-Selective and ASO engines all follow
//! ([`retire_wait`]). Where the rule says wait, a conventional engine stalls
//! and a speculative one speculates. InvisiFence-Continuous retires its
//! forward-progress instruction, the one outside any chunk, conventionally
//! under SC.

use ifence_cpu::{RetireCtx, RetireOutcome};
use ifence_types::{Addr, ConsistencyModel, InstrKind, StallReason, StoreBufferKind};

/// One row of Figure 2 ("Memory consistency models: definitions and
/// conventional implementations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure2Row {
    /// The model.
    pub model: ConsistencyModel,
    /// Orderings the model relaxes.
    pub relaxations: &'static str,
    /// Store-buffer organization of the conventional implementation.
    pub sb_organization: &'static str,
    /// Store-buffer entry granularity.
    pub sb_granularity: &'static str,
    /// Requirement for retiring a load.
    pub load_retirement: &'static str,
    /// Requirement for retiring a store.
    pub store_retirement: &'static str,
    /// Requirement for retiring an atomic operation.
    pub atomic_retirement: &'static str,
    /// Requirement for retiring a full memory fence.
    pub fence_retirement: &'static str,
}

/// Returns the three rows of Figure 2, strongest model first.
pub fn figure2_rows() -> Vec<Figure2Row> {
    vec![
        Figure2Row {
            model: ConsistencyModel::Sc,
            relaxations: "None",
            sb_organization: "FIFO",
            sb_granularity: "Word (8 bytes)",
            load_retirement: "Drain SB",
            store_retirement: "-",
            atomic_retirement: "Drain SB",
            fence_retirement: "N/A",
        },
        Figure2Row {
            model: ConsistencyModel::Tso,
            relaxations: "Store-to-load",
            sb_organization: "FIFO",
            sb_granularity: "Word (8 bytes)",
            load_retirement: "-",
            store_retirement: "-",
            atomic_retirement: "Drain SB",
            fence_retirement: "Drain SB",
        },
        Figure2Row {
            model: ConsistencyModel::Rmo,
            relaxations: "All",
            sb_organization: "Unordered",
            sb_granularity: "Block (64 bytes)",
            load_retirement: "-",
            store_retirement: "-",
            atomic_retirement: "Complete store",
            fence_retirement: "Drain SB",
        },
    ]
}

/// What the instruction at the head of the reorder buffer must wait for
/// before it may retire in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireWait {
    /// Nothing: it retires now, through [`retire_in_order`].
    Nothing,
    /// The store buffer must drain first (the paper's "SB drain").
    StoreBufferDrain,
    /// The atomic at this address needs write permission first.
    WritePermission(Addr),
}

/// Figure 2's retirement rule: what `instr` waits for under `model` with a
/// store buffer of the given organization that is empty or not.
///
/// * A load waits for the buffer to drain under SC only.
/// * A store waits for the buffer to drain under SC and TSO when the buffer
///   is the unordered coalescing one, which could otherwise reorder stores;
///   the FIFO keeps store order by itself.
/// * An atomic waits for the buffer to drain under SC and TSO, and then,
///   under every model, for write permission.
/// * A fence waits for the buffer to drain under TSO and RMO (SC orders
///   every access already).
///
/// `writable` tells whether an address's block is held with write
/// permission. It is asked only for an atomic that has passed the
/// store-buffer check, because asking touches the L1's replacement state.
pub fn retire_wait(
    model: ConsistencyModel,
    organization: StoreBufferKind,
    instr: InstrKind,
    sb_empty: bool,
    writable: impl FnOnce(Addr) -> bool,
) -> RetireWait {
    let drain_if = |ordered: bool| {
        if ordered && !sb_empty {
            RetireWait::StoreBufferDrain
        } else {
            RetireWait::Nothing
        }
    };
    let keeps_store_order = model != ConsistencyModel::Rmo;
    match instr {
        InstrKind::Op(_) => RetireWait::Nothing,
        InstrKind::Load(_) => drain_if(model == ConsistencyModel::Sc),
        InstrKind::Fence(_) => drain_if(model != ConsistencyModel::Sc),
        InstrKind::Store(..) => {
            drain_if(keeps_store_order && organization == StoreBufferKind::CoalescingBlock)
        }
        InstrKind::Atomic(addr, _) => match drain_if(keeps_store_order) {
            RetireWait::Nothing if !writable(addr) => RetireWait::WritePermission(addr),
            wait => wait,
        },
    }
}

/// [`retire_wait`] for the head of `ctx`, under the core's own store buffer.
pub fn head_wait(model: ConsistencyModel, ctx: &mut RetireCtx<'_>) -> RetireWait {
    let mem = &mut *ctx.mem;
    retire_wait(model, mem.sb.kind(), ctx.entry.instr.kind, mem.sb_empty(), |addr| {
        let block = mem.block_of(addr);
        mem.writable(block)
    })
}

/// Keeps (or makes) the ownership request for `addr`'s block outstanding, so
/// an atomic waiting on [`RetireWait::WritePermission`] gets it.
pub fn request_write_permission(ctx: &mut RetireCtx<'_>, addr: Addr) {
    let block = ctx.mem.block_of(addr);
    let _ = ctx.mem.ensure_write_miss(block, None, false, ctx.now, &mut ctx.stats.counters);
}

/// Retires the head of `ctx` in order once [`head_wait`] found nothing to
/// wait for. A FIFO buffer enqueues a store, a coalescing buffer writes the
/// L1 on a hit and buffers a miss, and either stalls with
/// [`StallReason::StoreBufferFull`] when it has no room; an atomic, which
/// holds write permission by now, writes the L1.
pub fn retire_in_order(ctx: &mut RetireCtx<'_>) -> RetireOutcome {
    match ctx.entry.instr.kind {
        InstrKind::Op(_) | InstrKind::Load(_) | InstrKind::Fence(_) => RetireOutcome::Retired,
        InstrKind::Store(addr, value) => match ctx.mem.sb.kind() {
            StoreBufferKind::FifoWord => {
                match ctx.mem.store_to_sb(addr, value, None, ctx.now, ctx.stats) {
                    Ok(()) => RetireOutcome::Retired,
                    Err(_) => RetireOutcome::Stall(StallReason::StoreBufferFull),
                }
            }
            StoreBufferKind::CoalescingBlock => ctx.store_non_speculative(addr, value),
        },
        InstrKind::Atomic(addr, value) => {
            let ok = ctx.mem.store_to_l1(addr, value, None, &mut ctx.stats.counters);
            debug_assert!(ok, "an atomic retires only with write permission");
            RetireOutcome::Retired
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::{EngineKind, Instruction};
    use std::cell::Cell;

    fn instrs() -> [InstrKind; 5] {
        let addr = Addr::new(0x40);
        [
            Instruction::op(1).kind,
            Instruction::load(addr).kind,
            Instruction::store(addr, 1).kind,
            Instruction::atomic(addr, 1).kind,
            Instruction::fence().kind,
        ]
    }

    #[test]
    fn three_rows_strongest_first() {
        let rows = figure2_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].model, ConsistencyModel::Sc);
        assert_eq!(rows[2].model, ConsistencyModel::Rmo);
    }

    #[test]
    fn rows_agree_with_model_metadata() {
        for row in figure2_rows() {
            assert_eq!(row.relaxations, row.model.relaxations());
        }
    }

    #[test]
    fn figure2_cells_follow_the_retirement_rule() {
        let [_, load, store, atomic, fence] = instrs();
        let cell = |wait| match wait {
            RetireWait::Nothing => "-",
            RetireWait::StoreBufferDrain => "Drain SB",
            RetireWait::WritePermission(_) => "Complete store",
        };
        for row in figure2_rows() {
            let model = row.model;
            let organization = EngineKind::Conventional(model).store_buffer_kind();
            let (name, granularity) = match organization {
                StoreBufferKind::FifoWord => ("FIFO", "Word (8 bytes)"),
                StoreBufferKind::CoalescingBlock => ("Unordered", "Block (64 bytes)"),
            };
            assert_eq!(row.sb_organization, name, "{model}");
            assert_eq!(row.sb_granularity, granularity, "{model}");
            // A cell is what the instruction waits for behind a non-empty
            // buffer, before its block is writable.
            let busy = |instr| retire_wait(model, organization, instr, false, |_| false);
            assert_eq!(cell(busy(load)), row.load_retirement, "{model} load");
            assert_eq!(cell(busy(store)), row.store_retirement, "{model} store");
            assert_eq!(cell(busy(atomic)), row.atomic_retirement, "{model} atomic");
            let fence_cell = match busy(fence) {
                RetireWait::Nothing => "N/A",
                wait => cell(wait),
            };
            assert_eq!(fence_cell, row.fence_retirement, "{model} fence");
        }
    }

    #[test]
    fn writable_is_asked_only_for_an_atomic_past_the_buffer_check() {
        for model in ConsistencyModel::ALL {
            for organization in [StoreBufferKind::FifoWord, StoreBufferKind::CoalescingBlock] {
                for instr in instrs() {
                    for sb_empty in [true, false] {
                        let asked = Cell::new(0);
                        let wait = retire_wait(model, organization, instr, sb_empty, |_| {
                            asked.set(asked.get() + 1);
                            true
                        });
                        let is_atomic = matches!(instr, InstrKind::Atomic(..));
                        let past_the_buffer = sb_empty || model == ConsistencyModel::Rmo;
                        assert_eq!(asked.get(), usize::from(is_atomic && past_the_buffer));
                        // Behind an empty buffer, with write permission,
                        // nothing waits.
                        if sb_empty {
                            assert_eq!(wait, RetireWait::Nothing, "{model} {instr:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn only_the_coalescing_buffer_holds_sc_and_tso_stores() {
        let store = instrs()[2];
        for model in ConsistencyModel::ALL {
            let wait = |organization| retire_wait(model, organization, store, false, |_| true);
            assert_eq!(wait(StoreBufferKind::FifoWord), RetireWait::Nothing, "{model}");
            let expected = if model == ConsistencyModel::Rmo {
                RetireWait::Nothing
            } else {
                RetireWait::StoreBufferDrain
            };
            assert_eq!(wait(StoreBufferKind::CoalescingBlock), expected, "{model}");
        }
    }
}
