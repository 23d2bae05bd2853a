//! End-to-end consistency enforcement: litmus tests across every ordering
//! engine. The paper's central invariant is that post-retirement speculation
//! never becomes architecturally visible — an SC-enforcing InvisiFence
//! configuration must observe exactly the outcomes conventional SC allows.
//!
//! The verdict table is [`LitmusTest::must_forbid`], the one `ifence litmus`
//! reports with. The first six tests split its cells between them: together
//! they run every `EngineKind::all()` engine on every pattern × fenced cell
//! the table forbids, each cell exactly once.

use invisifence_repro::prelude::*;
use invisifence_repro::workloads::LitmusKind;

const MAX_CYCLES: u64 = 60_000_000;
const ITERATIONS: usize = 25;

/// Runs every engine on every cell of `kind` the table forbids and `select`
/// picks (by fenced flag and enforced model), asserting zero forbidden
/// outcomes. Returns how many runs it made.
fn assert_forbidden_cells(
    kind: LitmusKind,
    select: impl Fn(bool, ConsistencyModel) -> bool,
) -> usize {
    let mut runs = 0;
    for fenced in [false, true] {
        let test = LitmusTest::new(kind, ITERATIONS, fenced);
        for engine in EngineKind::all() {
            if !test.must_forbid(engine.model()) || !select(fenced, engine.model()) {
                continue;
            }
            let forbidden = run_litmus(engine, &test, MAX_CYCLES);
            assert_eq!(
                forbidden,
                0,
                "{} (fenced={fenced}) showed a forbidden {} outcome",
                engine.label(),
                kind.label()
            );
            runs += 1;
        }
    }
    runs
}

#[test]
fn sc_enforcing_engines_never_show_forbidden_store_buffering_outcomes() {
    // Unfenced, the table forbids the Dekker outcome only under SC.
    let runs = assert_forbidden_cells(LitmusKind::StoreBuffering, |fenced, _| !fenced);
    assert_eq!(runs, 6, "sc, Invisi_sc, Invisi_sc-2ckpt, both Invisi_cont, ASOsc");
}

#[test]
fn sc_enforcing_engines_never_show_forbidden_message_passing_outcomes() {
    let runs = assert_forbidden_cells(LitmusKind::MessagePassing, |fenced, model| {
        !fenced && model == ConsistencyModel::Sc
    });
    assert_eq!(runs, 6);
}

#[test]
fn tso_preserves_store_order_in_message_passing() {
    // TSO relaxes store→load order but not store→store, so message passing
    // without fences is still forbidden from showing flag=1,data=0.
    let runs = assert_forbidden_cells(LitmusKind::MessagePassing, |fenced, model| {
        !fenced && model == ConsistencyModel::Tso
    });
    assert_eq!(runs, 4, "tso, Invisi_tso, Invisi_tso-2ckpt, ASOtso");
}

#[test]
fn no_engine_shows_forbidden_load_buffering_outcomes() {
    // Load buffering's forbidden outcome (both loads observing the other
    // core's later store) requires load-value speculation, which no modeled
    // engine performs: every engine must report zero forbidden outcomes,
    // fenced or not.
    let runs = assert_forbidden_cells(LitmusKind::LoadBuffering, |_, _| true);
    assert_eq!(runs, 2 * EngineKind::all().len());
}

#[test]
fn sc_enforcing_engines_never_show_forbidden_iriw_outcomes() {
    let runs = assert_forbidden_cells(LitmusKind::Iriw, |fenced, _| !fenced);
    assert_eq!(runs, 6);
}

#[test]
fn fences_restore_ordering_under_rmo() {
    // Under RMO the plain patterns may legally show relaxed outcomes, but with
    // full fences inserted every pattern becomes forbidden again under every
    // model — for the conventional implementations and for InvisiFence, which
    // speculates past the fences instead of draining at them. (Fenced load
    // buffering runs with the load-buffering test.)
    let mut runs = 0;
    for kind in LitmusKind::ALL {
        if kind != LitmusKind::LoadBuffering {
            runs += assert_forbidden_cells(kind, |fenced, _| fenced);
        }
    }
    assert_eq!(runs, 3 * EngineKind::all().len());
}

#[test]
fn iriw_stays_store_atomic_even_under_weak_models() {
    // The directory protocol serialises each block at a single point, so
    // stores are multi-copy atomic: the IRIW relaxed outcome cannot occur
    // even under conventional TSO/RMO, where the *model* would permit it on
    // non-store-atomic hardware.
    let test = LitmusTest::iriw(ITERATIONS, true);
    for engine in [
        EngineKind::Conventional(ConsistencyModel::Tso),
        EngineKind::Conventional(ConsistencyModel::Rmo),
        EngineKind::InvisiSelective(ConsistencyModel::Rmo),
    ] {
        let forbidden = run_litmus(engine, &test, MAX_CYCLES);
        assert_eq!(forbidden, 0, "{}: fenced IRIW must stay ordered", engine.label());
    }
}
