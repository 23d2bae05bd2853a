//! JSON encoding of full simulation results.
//!
//! [`MachineResult`] lives in this crate while the codec machinery lives in
//! `ifence_store` (which must not depend on the simulator), so the impl sits
//! here. Summaries ([`ifence_stats::RunSummary`]) are what the result cache
//! stores and reads back per cell; the full result is only encoded, never
//! decoded: its bytes — per-core statistics, litmus load observations,
//! deadlock diagnostics — are what `tests/result_goldens.rs` and the
//! benchmark's result digest hash.

use crate::machine::MachineResult;
use ifence_store::{Json, JsonCodec};

impl JsonCodec for MachineResult {
    fn to_json(&self) -> Json {
        let MachineResult {
            cycles,
            finished,
            deadlocked,
            deadlock_diagnostic,
            per_core,
            fabric,
            histograms,
            load_results,
            config_label,
        } = self;
        let load_results = load_results.iter().map(|core| {
            Json::Array(
                core.iter()
                    .map(|&(index, value)| {
                        Json::Array(vec![Json::UInt(index as u64), Json::UInt(value)])
                    })
                    .collect(),
            )
        });
        Json::Object(vec![
            ("cycles".to_string(), Json::UInt(*cycles)),
            ("finished".to_string(), Json::Bool(*finished)),
            ("deadlocked".to_string(), Json::Bool(*deadlocked)),
            (
                "deadlock_diagnostic".to_string(),
                deadlock_diagnostic.as_ref().map_or(Json::Null, |text| Json::Str(text.clone())),
            ),
            (
                "per_core".to_string(),
                Json::Array(per_core.iter().map(JsonCodec::to_json).collect()),
            ),
            ("fabric".to_string(), fabric.to_json()),
            ("histograms".to_string(), histograms.to_json()),
            ("load_results".to_string(), Json::Array(load_results.collect())),
            ("config_label".to_string(), Json::Str(config_label.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentParams;
    use crate::Machine;
    use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
    use ifence_workloads::Workload;

    fn real_result() -> MachineResult {
        let params = ExperimentParams::quick_test();
        let engine = EngineKind::InvisiSelective(ConsistencyModel::Tso);
        let cfg = {
            let mut cfg = MachineConfig::small_test(engine);
            cfg.seed = params.seed;
            cfg
        };
        let workload = Workload::from(ifence_workloads::presets::barnes());
        let sources = workload.sources(cfg.cores, 600, params.seed);
        Machine::from_sources(cfg, sources).unwrap().into_result(params.max_cycles)
    }

    #[test]
    fn deadlock_diagnostic_survives_as_null_or_text() {
        let mut result = real_result();
        assert_eq!(result.to_json().field("deadlock_diagnostic"), Some(&Json::Null));
        result.deadlocked = true;
        let text = "core 0: wedged\ncore 1: asleep";
        result.deadlock_diagnostic = Some(text.to_string());
        let doc = Json::parse(&result.to_json().encode()).unwrap();
        assert_eq!(doc.field("deadlock_diagnostic"), Some(&Json::Str(text.to_string())));
    }
}
