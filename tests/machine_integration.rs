//! Cross-crate integration tests: every ordering engine runs a real workload
//! on the full machine model, and the qualitative relationships the paper
//! reports hold on the reduced test configuration.

use ifence_sim::figures;
use invisifence_repro::prelude::*;

fn quick() -> ExperimentParams {
    let mut p = ExperimentParams::quick_test();
    p.instructions_per_core = 1_000;
    p
}

fn every_engine() -> Vec<EngineKind> {
    vec![
        EngineKind::Conventional(ConsistencyModel::Sc),
        EngineKind::Conventional(ConsistencyModel::Tso),
        EngineKind::Conventional(ConsistencyModel::Rmo),
        EngineKind::InvisiSelective(ConsistencyModel::Sc),
        EngineKind::InvisiSelective(ConsistencyModel::Tso),
        EngineKind::InvisiSelective(ConsistencyModel::Rmo),
        EngineKind::InvisiSelectiveTwoCkpt(ConsistencyModel::Sc),
        EngineKind::InvisiContinuous { commit_on_violate: false },
        EngineKind::InvisiContinuous { commit_on_violate: true },
        EngineKind::Aso(ConsistencyModel::Sc),
    ]
}

#[test]
fn every_engine_completes_every_preset_workload_sample() {
    // One (engine, workload) pair per workload keeps the runtime bounded while
    // still touching every preset and every engine over the suite.
    let params = quick();
    let workloads = presets::all_workloads();
    for (i, engine) in every_engine().into_iter().enumerate() {
        let workload = &workloads[i % workloads.len()];
        let summary = run_experiment(engine, workload, &params);
        assert!(summary.cycles > 0, "{}: no cycles simulated", engine.label());
        assert!(
            summary.counters.instructions_retired as usize >= params.instructions_per_core * 4,
            "{}: not all instructions retired on {}",
            engine.label(),
            workload.name()
        );
        // The five-way breakdown accounts for every attributed cycle.
        assert!(summary.breakdown.total() > 0);
    }
}

#[test]
fn conventional_ordering_stalls_shrink_as_the_model_weakens() {
    let params = quick();
    let workload = presets::apache().into();
    let sc = run_experiment(EngineKind::Conventional(ConsistencyModel::Sc), &workload, &params);
    let tso = run_experiment(EngineKind::Conventional(ConsistencyModel::Tso), &workload, &params);
    let rmo = run_experiment(EngineKind::Conventional(ConsistencyModel::Rmo), &workload, &params);

    let penalty =
        |s: &RunSummary| s.breakdown.get(CycleClass::SbDrain) + s.breakdown.get(CycleClass::SbFull);
    assert!(
        penalty(&sc) > penalty(&rmo),
        "SC must pay more ordering stalls than RMO ({} vs {})",
        penalty(&sc),
        penalty(&rmo)
    );
    assert!(
        sc.cycles as f64 >= 0.95 * rmo.cycles as f64,
        "relaxing the model must not slow execution down materially"
    );
    assert!(
        penalty(&sc) > penalty(&tso) / 2,
        "TSO must not pay materially more ordering stalls than SC ({} vs {})",
        penalty(&sc),
        penalty(&tso)
    );
    // Figure 1's defining observation: even RMO still pays some ordering cost
    // on lock-heavy commercial workloads.
    assert!(penalty(&rmo) > 0, "RMO still stalls at fences and atomics");
}

#[test]
fn invisifence_eliminates_store_buffer_stalls() {
    let params = quick();
    let workload = presets::oltp_db2().into();
    let rmo = run_experiment(EngineKind::Conventional(ConsistencyModel::Rmo), &workload, &params);
    let invisi =
        run_experiment(EngineKind::InvisiSelective(ConsistencyModel::Rmo), &workload, &params);
    let drains = |s: &RunSummary| s.breakdown.get(CycleClass::SbDrain);
    assert!(
        drains(&invisi) * 4 < drains(&rmo).max(1),
        "InvisiFence-RMO should remove almost all SB-drain stalls ({} vs {})",
        drains(&invisi),
        drains(&rmo)
    );
    assert!(invisi.counters.speculations_started > 0);
    assert!(invisi.counters.speculations_committed > 0);
}

#[test]
fn continuous_mode_speculates_almost_always_and_selective_rmo_rarely() {
    let params = quick();
    let workload = presets::barnes().into();
    let cont = run_experiment(
        EngineKind::InvisiContinuous { commit_on_violate: false },
        &workload,
        &params,
    );
    let selective =
        run_experiment(EngineKind::InvisiSelective(ConsistencyModel::Rmo), &workload, &params);
    assert!(
        cont.speculation_fraction > 0.85,
        "continuous mode should speculate nearly always, got {:.2}",
        cont.speculation_fraction
    );
    assert!(
        selective.speculation_fraction < 0.5,
        "selective RMO speculates only around fences/atomics, got {:.2}",
        selective.speculation_fraction
    );
}

#[test]
fn commit_on_violate_reduces_violation_cycles_of_continuous_mode() {
    let mut params = quick();
    params.instructions_per_core = 1_500;
    let workload = presets::zeus().into();
    let plain = run_experiment(
        EngineKind::InvisiContinuous { commit_on_violate: false },
        &workload,
        &params,
    );
    let cov = run_experiment(
        EngineKind::InvisiContinuous { commit_on_violate: true },
        &workload,
        &params,
    );
    let violation = |s: &RunSummary| s.breakdown.get(CycleClass::Violation);
    assert!(
        violation(&cov) as f64 <= 1.1 * violation(&plain) as f64 + 100.0,
        "CoV must not materially increase violation cycles ({} vs {})",
        violation(&cov),
        violation(&plain)
    );
}

#[test]
fn figure_drivers_produce_complete_tables_on_a_small_run() {
    let mut params = quick();
    params.instructions_per_core = 600;
    let workloads: Vec<Workload> = vec![presets::barnes().into(), presets::dss_db2().into()];
    let ctx = FigureContext::new(&params);
    let (data1, table1) = figures::figure1(&workloads, &ctx);
    assert_eq!(data1.per_workload.len(), 2);
    assert_eq!(table1.len(), 6);

    let matrix = figures::selective_matrix(&workloads, &ctx);
    assert_eq!(figures::figure8(&matrix).len(), 3, "two workloads and the geometric mean");
    assert_eq!(figures::figure9(&matrix).len(), 12);
    assert_eq!(figures::figure10(&matrix).len(), 6);

    let (_, table11) = figures::figure11(&workloads, &ctx);
    assert_eq!(table11.len(), 6);
    let (_, table12) = figures::figure12(&workloads, &ctx);
    assert_eq!(table12.len(), 10);
}

#[test]
fn static_tables_match_the_paper() {
    use invisifence_repro::consistency::figure2_rows;
    use invisifence_repro::invisifence::{figure4_rows, figure5_rows};
    assert_eq!(figure2_rows().len(), 3);
    assert_eq!(figure4_rows().len(), 4);
    assert_eq!(figure5_rows().len(), 9);
    let cfg = MachineConfig::with_engine(EngineKind::InvisiSelective(ConsistencyModel::Rmo));
    assert!(cfg.speculative_state_bytes() <= 1536, "the ~1 KB hardware budget claim");
}
