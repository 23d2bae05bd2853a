//! Full-result goldens: every engine × every runnable workload at
//! [`ExperimentParams::quick_test`], pinned by an FNV-1a digest of the whole
//! serialized [`MachineResult`] — cycles, per-core counters and breakdowns,
//! histograms, trace-free fabric counters and retired-load values.
//!
//! The table below was captured before the core pipeline was folded into one
//! guarded `Core::step`, so it holds every later kernel change to the
//! results the simulator produced before it. The digests are independent of
//! the kernel schedule (dense, event-driven, epoch-parallel at any thread
//! count), so the table must hold under `IFENCE_DENSE=1` and
//! `IFENCE_THREADS=n` as well.
//!
//! A second, smaller table pins the paper's 16-core machine (8 MB banked
//! L2, 4×4 torus) on the three cells the repository benchmark measures, at a
//! short trace length, so the full-size path is covered in tier-1 too.
//!
//! A deliberate model change re-captures the tables: run this test with
//! `IFENCE_GOLDEN_PRINT=1` and paste the printed rows.

use ifence_sim::MachineResult;
use ifence_types::fnv1a;
use invisifence_repro::prelude::*;
use invisifence_repro::workloads::presets;

/// `(engine label, workload name, digest)` for every
/// `EngineKind::all()` × `presets::all_workloads()` cell.
const GOLDEN_DIGESTS: [(&str, &str, u64); 112] = [
    ("sc", "Apache", 0xb79b89af267ee0e0),
    ("tso", "Apache", 0x91c0fbe59614560c),
    ("rmo", "Apache", 0x30da89f344532b00),
    ("Invisi_sc", "Apache", 0xfba3aeca2f4cdcbc),
    ("Invisi_tso", "Apache", 0x063becf5b08b2b68),
    ("Invisi_rmo", "Apache", 0xfb54118b480725aa),
    ("Invisi_sc-2ckpt", "Apache", 0xa9aa8c15fa985eaf),
    ("Invisi_tso-2ckpt", "Apache", 0x0c37fe08e5ea6049),
    ("Invisi_rmo-2ckpt", "Apache", 0xf19242017318a69d),
    ("Invisi_cont", "Apache", 0x1f56772f55707590),
    ("Invisi_cont_CoV", "Apache", 0x29640999806577b8),
    ("ASOsc", "Apache", 0x2e7e052c73fbefd6),
    ("ASOtso", "Apache", 0x0202af09c09264d8),
    ("ASOrmo", "Apache", 0xf44f6cc5f6507416),
    ("sc", "Zeus", 0xbd2dd5e277a2fa42),
    ("tso", "Zeus", 0xa287ca0658af0432),
    ("rmo", "Zeus", 0x95d97c2465492cf7),
    ("Invisi_sc", "Zeus", 0x061a121f21991ad8),
    ("Invisi_tso", "Zeus", 0xa1585e1b411c9a66),
    ("Invisi_rmo", "Zeus", 0x5a746e71060ad425),
    ("Invisi_sc-2ckpt", "Zeus", 0xccd0e1989e1787bb),
    ("Invisi_tso-2ckpt", "Zeus", 0x84526f24ae2e827d),
    ("Invisi_rmo-2ckpt", "Zeus", 0x831628986bbf6002),
    ("Invisi_cont", "Zeus", 0x295b63e08559320d),
    ("Invisi_cont_CoV", "Zeus", 0x41027b510ee25ac1),
    ("ASOsc", "Zeus", 0x3c30bdd1db5fc122),
    ("ASOtso", "Zeus", 0x71e0e03c25282c74),
    ("ASOrmo", "Zeus", 0x44b2ed65732eeaf6),
    ("sc", "OLTP-Oracle", 0xdebdc85f0b0a777a),
    ("tso", "OLTP-Oracle", 0xdbe2d02347ce9ac6),
    ("rmo", "OLTP-Oracle", 0xd26fab5172439a2d),
    ("Invisi_sc", "OLTP-Oracle", 0xfa154b1f6913d220),
    ("Invisi_tso", "OLTP-Oracle", 0x1087045916896b6a),
    ("Invisi_rmo", "OLTP-Oracle", 0x40cb0eb60ca39328),
    ("Invisi_sc-2ckpt", "OLTP-Oracle", 0x65b2d85a42fe904b),
    ("Invisi_tso-2ckpt", "OLTP-Oracle", 0x6f08e7cf677c51dd),
    ("Invisi_rmo-2ckpt", "OLTP-Oracle", 0x586d5f68b76b0f54),
    ("Invisi_cont", "OLTP-Oracle", 0x6507cc397b4abb52),
    ("Invisi_cont_CoV", "OLTP-Oracle", 0xbb1a90a671d5bb6b),
    ("ASOsc", "OLTP-Oracle", 0x5c99bb271d59ddfa),
    ("ASOtso", "OLTP-Oracle", 0x4e4ac91c3651856f),
    ("ASOrmo", "OLTP-Oracle", 0xdbdcf5e541d66795),
    ("sc", "OLTP-DB2", 0x4819eb89614e47b4),
    ("tso", "OLTP-DB2", 0x22aadb716afa79fa),
    ("rmo", "OLTP-DB2", 0xe5567d25b8944e1f),
    ("Invisi_sc", "OLTP-DB2", 0x5250340b81bc95a7),
    ("Invisi_tso", "OLTP-DB2", 0x9bc7c8b77ff2027a),
    ("Invisi_rmo", "OLTP-DB2", 0x4b4319e974e7c7a9),
    ("Invisi_sc-2ckpt", "OLTP-DB2", 0x3fdb117413a98394),
    ("Invisi_tso-2ckpt", "OLTP-DB2", 0x9d58df6b9ae2b8c2),
    ("Invisi_rmo-2ckpt", "OLTP-DB2", 0xdf555d23933252e9),
    ("Invisi_cont", "OLTP-DB2", 0xcd70c3eb5655bd99),
    ("Invisi_cont_CoV", "OLTP-DB2", 0x646d913afd87b533),
    ("ASOsc", "OLTP-DB2", 0xd0f6f9ed3ddf6109),
    ("ASOtso", "OLTP-DB2", 0xf32315ff672843f3),
    ("ASOrmo", "OLTP-DB2", 0x28c89e419155f730),
    ("sc", "DSS-DB2", 0x9c1e7adeb858b925),
    ("tso", "DSS-DB2", 0x41402d2b54bc8054),
    ("rmo", "DSS-DB2", 0x31009a59b332f0ee),
    ("Invisi_sc", "DSS-DB2", 0x8ca83967d5d89aaf),
    ("Invisi_tso", "DSS-DB2", 0xab213a508c691838),
    ("Invisi_rmo", "DSS-DB2", 0x7e846e1daeb5ac29),
    ("Invisi_sc-2ckpt", "DSS-DB2", 0xf1bdcc7b26557df0),
    ("Invisi_tso-2ckpt", "DSS-DB2", 0xf1dc59ed160c27a0),
    ("Invisi_rmo-2ckpt", "DSS-DB2", 0xa8e0f5b9b17faf04),
    ("Invisi_cont", "DSS-DB2", 0xf2e7b78fa88ca9e2),
    ("Invisi_cont_CoV", "DSS-DB2", 0x9fef5a3fa4f3ab11),
    ("ASOsc", "DSS-DB2", 0x993fd8464456e499),
    ("ASOtso", "DSS-DB2", 0x7f35bae429d8aff9),
    ("ASOrmo", "DSS-DB2", 0x45c6d8309d378099),
    ("sc", "Barnes", 0x31e5ae8751860c92),
    ("tso", "Barnes", 0x2a4ffa92b8f922f4),
    ("rmo", "Barnes", 0xbec595ed67b90cf8),
    ("Invisi_sc", "Barnes", 0x31535acebdf125c1),
    ("Invisi_tso", "Barnes", 0x775e0e1ac7b0dd7a),
    ("Invisi_rmo", "Barnes", 0x1fe4e24c2c96135d),
    ("Invisi_sc-2ckpt", "Barnes", 0x92ad33347961dbfa),
    ("Invisi_tso-2ckpt", "Barnes", 0xae332d2197c3da2b),
    ("Invisi_rmo-2ckpt", "Barnes", 0x58176c3407d36331),
    ("Invisi_cont", "Barnes", 0x1dca456ffeb6fe2d),
    ("Invisi_cont_CoV", "Barnes", 0x1de12b9586aa30c7),
    ("ASOsc", "Barnes", 0x4cac994e2674282f),
    ("ASOtso", "Barnes", 0x637f3442a33d91af),
    ("ASOrmo", "Barnes", 0xca03fc42c8bee158),
    ("sc", "Ocean", 0x78d315a513ff0166),
    ("tso", "Ocean", 0xf48a70d4d64b9c23),
    ("rmo", "Ocean", 0xd232728f01f63883),
    ("Invisi_sc", "Ocean", 0xae1d434fcbea9049),
    ("Invisi_tso", "Ocean", 0xf185f1d1a2e7adad),
    ("Invisi_rmo", "Ocean", 0xb86643faeba38676),
    ("Invisi_sc-2ckpt", "Ocean", 0x3405b5133d18da55),
    ("Invisi_tso-2ckpt", "Ocean", 0x4e442c89768e58cf),
    ("Invisi_rmo-2ckpt", "Ocean", 0xaa489d999ac33de7),
    ("Invisi_cont", "Ocean", 0xa6275a1e86699508),
    ("Invisi_cont_CoV", "Ocean", 0x7fb9f793361dd86f),
    ("ASOsc", "Ocean", 0x8874c18d939650f1),
    ("ASOtso", "Ocean", 0xb69e4fe6573bb66b),
    ("ASOrmo", "Ocean", 0x9048d2a1c9fd56b4),
    ("sc", "ServerSwings", 0x4e97d954608fe52c),
    ("tso", "ServerSwings", 0xe494109913ea3a49),
    ("rmo", "ServerSwings", 0x8e5ba458cba852b9),
    ("Invisi_sc", "ServerSwings", 0x6f4ed842a75027bf),
    ("Invisi_tso", "ServerSwings", 0x9392d5c130286171),
    ("Invisi_rmo", "ServerSwings", 0xa7ac6d0bacc14ace),
    ("Invisi_sc-2ckpt", "ServerSwings", 0xb9af9ee5218c7783),
    ("Invisi_tso-2ckpt", "ServerSwings", 0x87c0a210bdb2bce5),
    ("Invisi_rmo-2ckpt", "ServerSwings", 0xb457650896b08a8a),
    ("Invisi_cont", "ServerSwings", 0xa53f45e6761c525e),
    ("Invisi_cont_CoV", "ServerSwings", 0x524de877c070810c),
    ("ASOsc", "ServerSwings", 0x7251eeb9bd26f73e),
    ("ASOtso", "ServerSwings", 0x197e9de1a7848e1f),
    ("ASOrmo", "ServerSwings", 0xb194d8e74f5eb313),
];

/// `(engine label, workload name, digest)` for the paper-machine cells of
/// [`paper_machine_params`].
const PAPER_MACHINE_DIGESTS: [(&str, &str, u64); 3] = [
    ("sc", "Apache", 0x591c805654e2a0c2),
    ("Invisi_sc", "Apache", 0xc6d230f5203ab374),
    ("Invisi_cont_CoV", "Barnes", 0xe725055970ac3704),
];

/// The paper's 16-core machine at seed 1, with a trace short enough for
/// tier-1.
fn paper_machine_params() -> ExperimentParams {
    ExperimentParams {
        instructions_per_core: 2_000,
        seed: 1,
        full_machine: true,
        ..ExperimentParams::quick_test()
    }
}

fn run(engine: EngineKind, workload: &Workload, params: &ExperimentParams) -> MachineResult {
    let cfg = params.config_for(engine);
    let sources = workload.sources(cfg.cores, params.instructions_per_core, params.seed);
    Machine::from_sources(cfg, sources).expect("valid config").into_result(params.max_cycles)
}

#[test]
fn full_results_match_the_recorded_digests() {
    let params = ExperimentParams::quick_test();
    let print = std::env::var("IFENCE_GOLDEN_PRINT").is_ok();
    let mut mismatches = Vec::new();
    let mut cells = 0;
    for workload in presets::all_workloads() {
        for engine in EngineKind::all() {
            cells += 1;
            let result = run(engine, &workload, &params);
            assert!(result.finished, "{}/{}: run must finish", engine.label(), workload.name());
            let digest = fnv1a(result.to_json().encode().as_bytes());
            let label = engine.label();
            if print {
                println!("    (\"{label}\", \"{}\", {digest:#018x}),", workload.name());
            }
            let golden = GOLDEN_DIGESTS
                .iter()
                .find(|(e, w, _)| *e == label && *w == workload.name())
                .map(|row| row.2);
            if golden != Some(digest) {
                mismatches.push(format!(
                    "{label}/{}: digest {digest:#018x}, recorded {golden:?}",
                    workload.name()
                ));
            }
        }
    }
    assert_eq!(cells, GOLDEN_DIGESTS.len(), "every cell has exactly one recorded digest");
    assert!(mismatches.is_empty(), "results diverge from the goldens:\n{}", mismatches.join("\n"));
}

#[test]
fn paper_machine_results_match_the_recorded_digests() {
    let params = paper_machine_params();
    let print = std::env::var("IFENCE_GOLDEN_PRINT").is_ok();
    let mut mismatches = Vec::new();
    for (label, workload_name, golden) in PAPER_MACHINE_DIGESTS {
        let engine = EngineKind::all().into_iter().find(|e| e.label() == label).expect("engine");
        let workload = presets::all_workloads()
            .into_iter()
            .find(|w| w.name() == workload_name)
            .expect("workload");
        let result = run(engine, &workload, &params);
        assert!(result.finished, "{label}/{workload_name}: run must finish");
        assert_eq!(result.per_core.len(), 16, "the paper machine has 16 cores");
        let digest = fnv1a(result.to_json().encode().as_bytes());
        if print {
            println!("    (\"{label}\", \"{workload_name}\", {digest:#018x}),");
        }
        if digest != golden {
            mismatches.push(format!(
                "{label}/{workload_name}: digest {digest:#018x}, recorded {golden:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "results diverge from the goldens:\n{}", mismatches.join("\n"));
}
