//! The accounting invariant behind every figure: stall-breakdown buckets
//! always sum to the cycles a core actually executed.
//!
//! The event-driven kernel attributes skipped quiescent stretches in *bulk*
//! when a core wakes (or at the end of the run), which is exactly the kind
//! of bookkeeping that drifts silently: a missing or doubled bulk charge
//! changes no simulated behaviour, only the reported breakdowns. This test
//! pins the invariant for every engine kind × every workload in the suite:
//!
//! * no core is attributed more cycles than the run lasted, and
//! * the slowest core — which by definition executed until the machine
//!   stopped — is attributed **exactly** every executed cycle, with each
//!   cycle in exactly one [`ifence_types::CycleClass`] bucket.
//!   (`MachineResult::cycles` is the loop counter after the final step, one
//!   past the last executed cycle, so the slowest core's bucket sum is
//!   exactly `cycles - 1`.)

use ifence_sim::{ExperimentParams, Machine};
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::presets;

#[test]
fn breakdown_buckets_sum_to_executed_cycles_for_every_engine_and_workload() {
    let params = ExperimentParams::quick_test();
    // EngineKind::all() so a newly added kind is covered automatically.
    for engine in EngineKind::all() {
        for workload in presets::all_workloads() {
            let mut cfg = MachineConfig::small_test(engine);
            cfg.seed = params.seed;
            let sources = workload.sources(cfg.cores, 700, params.seed);
            let machine = Machine::from_sources(cfg, sources).expect("valid test machine");
            let result = machine.into_result(params.max_cycles);
            let label = format!("{}/{}", engine.label(), workload.name());
            assert!(result.finished, "{label}: run must finish");
            assert!(!result.deadlocked, "{label}: run must not deadlock");

            let mut slowest_total = 0;
            for (i, core) in result.per_core.iter().enumerate() {
                let total = core.breakdown.total();
                assert!(
                    total <= result.cycles,
                    "{label}: core {i} attributed {total} cycles but the run lasted {}",
                    result.cycles
                );
                assert!(total > 0, "{label}: core {i} attributed nothing");
                slowest_total = slowest_total.max(total);
            }
            assert_eq!(
                slowest_total,
                result.cycles - 1,
                "{label}: the slowest core must account for every executed cycle \
                 (bulk attribution drifted); run reported {} cycles",
                result.cycles
            );
        }
    }
}

#[test]
fn aggregated_summary_preserves_the_per_core_bucket_sums() {
    // RunSummary::from_parts must be a pure sum: the machine-wide breakdown
    // total equals the sum of the per-core totals, and likewise per bucket.
    let engine = EngineKind::InvisiSelective(ConsistencyModel::Tso);
    let cfg = {
        let mut cfg = MachineConfig::small_test(engine);
        cfg.seed = 11;
        cfg
    };
    let workload = presets::apache();
    let sources = ifence_workloads::Workload::from(workload).sources(cfg.cores, 800, cfg.seed);
    let result =
        Machine::from_sources(cfg, sources).expect("valid test machine").into_result(20_000_000);
    let summary = result.summary("Apache");
    let per_core_sum: u64 = result.per_core.iter().map(|c| c.breakdown.total()).sum();
    assert_eq!(summary.breakdown.total(), per_core_sum);
    for class in ifence_types::CycleClass::ALL {
        let bucket_sum: u64 = result.per_core.iter().map(|c| c.breakdown.get(class)).sum();
        assert_eq!(summary.breakdown.get(class), bucket_sum, "bucket {}", class.label());
    }
}
