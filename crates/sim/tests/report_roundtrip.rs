//! Pins the JSON cache format of the grid result store: serializing a
//! `SimReport` (or `SimConfig`), parsing it back, and re-serializing must
//! be byte-identical, and the parsed value must equal the original. The
//! typed readers go straight from bytes to fields; the `JsonValue` tree of
//! the same text is the witness they are held against.

use chronus_core::MechanismKind;
use chronus_sim::{SimConfig, SimReport, System};
use chronus_workloads::synthetic_app;
use proptest::prelude::*;
use serde::{Deserialize, JsonValue, Serialize};

fn small_report(mech: MechanismKind, oracle: bool) -> (SimConfig, SimReport) {
    small_report_obs(mech, oracle, false)
}

fn small_report_obs(mech: MechanismKind, oracle: bool, obs: bool) -> (SimConfig, SimReport) {
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = 8_000;
    cfg.mechanism = mech;
    cfg.nrh = 64;
    cfg.oracle = oracle;
    cfg.obs = obs;
    let trace = synthetic_app("429.mcf", 0)
        .expect("known app")
        .generate(10_000, 3);
    let report = System::build(&cfg).run(vec![trace]);
    (cfg, report)
}

/// Compact and pretty (the on-disk store format) text of `value` both
/// read back equal to it, re-serialize byte-identically, and re-serialize
/// to exactly what the tree of the same text renders.
fn assert_roundtrip<T>(value: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let compact = serde_json::to_string(value).unwrap();
    let pretty = serde_json::to_string_pretty(value).unwrap();
    for text in [&compact, &pretty] {
        let parsed: T = serde_json::from_str(text).unwrap();
        assert_eq!(&parsed, value, "parsed value differs from the original");
        assert_eq!(serde_json::to_string(&parsed).unwrap(), compact);
        assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), pretty);
        let tree = JsonValue::parse(text).unwrap();
        assert_eq!(
            serde_json::to_string(&tree).unwrap(),
            compact,
            "typed reader and tree disagree"
        );
    }
}

#[test]
fn report_roundtrip_baseline() {
    let (_, report) = small_report(MechanismKind::None, false);
    assert!(report.oracle_max_acts.is_none(), "oracle off → None fields");
    assert_roundtrip(&report);
}

#[test]
fn report_roundtrip_mechanism_with_oracle() {
    // Chronus with the oracle attached exercises the Option<..> = Some
    // paths and the mitigation counters.
    let (_, report) = small_report(MechanismKind::Chronus, true);
    assert!(report.oracle_max_acts.is_some());
    assert_roundtrip(&report);
}

#[test]
fn report_roundtrip_with_obs_section() {
    // The ObsReport section carries histograms and entropy floats; the
    // store format requires those to survive serialize → parse →
    // re-serialize byte-identically (the f64 writer emits the shortest
    // round-trippable form).
    let (_, report) = small_report_obs(MechanismKind::Chronus, false, true);
    let obs = report.obs.as_ref().expect("obs was enabled");
    assert!(obs.read_latency.total > 0, "probe recorded no reads");
    assert!(
        obs.latency_entropy_bits > 0.0,
        "a real workload has latency spread"
    );
    assert_roundtrip(&report);
}

#[test]
fn report_roundtrip_with_vrd_oracle() {
    // A per-row VRD oracle exercises the PerRow lane; the report's flip
    // census must survive the store format like any other field.
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = 8_000;
    cfg.nrh = 64;
    cfg.oracle = true;
    cfg.vrd = Some(chronus_sim::VrdSpec {
        min_pct: 50,
        seed: 4,
    });
    let trace = chronus_workloads::synthetic_app("429.mcf", 0)
        .expect("known app")
        .generate(10_000, 3);
    let report = System::build(&cfg).run(vec![trace]);
    assert!(report.oracle_flips.is_some());
    assert_roundtrip(&report);
}

#[test]
fn config_vrd_field_roundtrips_and_is_required() {
    let mut cfg = SimConfig::single_core();
    cfg.oracle = true;
    cfg.vrd = Some(chronus_sim::VrdSpec {
        min_pct: 50,
        seed: 9,
    });
    let compact = serde_json::to_string(&cfg).unwrap();
    let parsed: SimConfig = serde_json::from_str(&compact).unwrap();
    assert_eq!(parsed, cfg);
    assert_eq!(serde_json::to_string(&parsed).unwrap(), compact);

    // Older-schema documents (no `vrd` key) must error, not default: the
    // grid store then treats pre-VRD entries as misses.
    let pruned = compact.replacen(",\"vrd\":{\"min_pct\":50,\"seed\":9}", "", 1);
    assert_ne!(pruned, compact, "test must actually remove the field");
    let err = serde_json::from_str::<SimConfig>(&pruned).unwrap_err();
    assert!(
        err.to_string().contains("missing field"),
        "unexpected error: {err}"
    );
}

#[test]
fn config_roundtrip_is_byte_identical() {
    let mut cfg = SimConfig::four_core();
    cfg.mechanism = MechanismKind::Prac4;
    cfg.nrh = 32;
    cfg.threshold_override = Some(4);
    cfg.mapping = Some(chronus_ctrl::AddressMapping::AbacusMop);
    cfg.timing_override = Some(chronus_dram::TimingMode::PracBuggy);
    let compact = serde_json::to_string(&cfg).unwrap();
    let parsed: SimConfig = serde_json::from_str(&compact).unwrap();
    assert_eq!(parsed, cfg);
    assert_eq!(serde_json::to_string(&parsed).unwrap(), compact);
}

#[test]
fn missing_fields_fail_to_parse() {
    // A document from an older schema (field absent) must error — not
    // default the field — so the grid store treats stale entries as
    // misses and re-simulates instead of serving partial reports.
    let cfg = SimConfig::four_core();
    let json = serde_json::to_string(&cfg).unwrap();
    let pruned = json.replacen("\"nrh\":1024,", "", 1);
    assert_ne!(pruned, json, "test must actually remove the field");
    let err = serde_json::from_str::<SimConfig>(&pruned).unwrap_err();
    assert!(
        err.to_string().contains("missing field"),
        "unexpected error: {err}"
    );
}

const MECHS: [MechanismKind; 12] = [
    MechanismKind::None,
    MechanismKind::Prfm,
    MechanismKind::Prac1,
    MechanismKind::Prac2,
    MechanismKind::Prac4,
    MechanismKind::PracPrfm,
    MechanismKind::Chronus,
    MechanismKind::ChronusPb,
    MechanismKind::Graphene,
    MechanismKind::Hydra,
    MechanismKind::Para,
    MechanismKind::Abacus,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_cells_roundtrip_and_agree_with_the_tree(
        mech in 0usize..12,
        nrh in 16u32..2048,
        seed: u64,
        flags in 0u8..8,
        min_pct in 10u32..100,
    ) {
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 1_500;
        cfg.mechanism = MECHS[mech];
        cfg.nrh = nrh;
        cfg.seed = seed;
        cfg.oracle = flags & 1 != 0;
        cfg.obs = flags & 2 != 0;
        if cfg.oracle && flags & 4 != 0 {
            cfg.vrd = Some(chronus_sim::VrdSpec { min_pct, seed });
        }
        let trace = synthetic_app("429.mcf", 0).expect("known app").generate(2_000, seed);
        let report = System::build(&cfg).run(vec![trace]);
        assert_roundtrip(&cfg);
        assert_roundtrip(&report);
    }
}

/// The top-level members of a report's tree, with `edit` applied.
fn edited_report(report: &SimReport, edit: impl FnOnce(&mut Vec<(String, JsonValue)>)) -> String {
    let JsonValue::Obj(mut members) =
        JsonValue::parse(&serde_json::to_string(report).unwrap()).unwrap()
    else {
        panic!("a report is an object");
    };
    edit(&mut members);
    serde_json::to_string(&JsonValue::Obj(members)).unwrap()
}

#[test]
fn report_schema_drift_contract() {
    let (_, report) = small_report(MechanismKind::Chronus, true);
    let names: Vec<String> = match JsonValue::parse(&serde_json::to_string(&report).unwrap()) {
        Ok(JsonValue::Obj(members)) => members.into_iter().map(|(k, _)| k).collect(),
        other => panic!("a report is an object: {other:?}"),
    };
    assert!(names.len() >= 16, "{names:?}");

    for (i, name) in names.iter().enumerate() {
        // Absent: the entry is from an older schema and must miss, even
        // where the field is an `Option` or an `f64` that `null` can fill.
        let pruned = edited_report(&report, |m| {
            m.remove(i);
        });
        let err = serde_json::from_str::<SimReport>(&pruned).unwrap_err();
        assert_eq!(err.to_string(), format!("missing field SimReport.{name}"));

        // Present twice: neither copy is trusted.
        let doubled = edited_report(&report, |m| m.push(m[i].clone()));
        let err = serde_json::from_str::<SimReport>(&doubled).unwrap_err();
        assert_eq!(err.to_string(), format!("duplicate field SimReport.{name}"));
    }

    // A member this build does not know is skipped wherever it sits...
    for at in [0, names.len() / 2, names.len()] {
        let newer = edited_report(&report, |m| {
            let extra = JsonValue::parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
            m.insert(at, ("added_later".into(), extra));
        });
        assert_eq!(serde_json::from_str::<SimReport>(&newer).unwrap(), report);
    }
    // ...but garbage inside it still fails the whole entry.
    let compact = serde_json::to_string(&report).unwrap();
    for garbage in [r#"{"added_later":[1,],"#, r#"{"added_later":{"a":01},"#] {
        let bad = compact.replacen('{', garbage, 1);
        assert!(
            serde_json::from_str::<SimReport>(&bad).is_err(),
            "{garbage}"
        );
    }
}

#[test]
fn report_extremes_roundtrip_exactly() {
    let (_, mut report) = small_report(MechanismKind::Chronus, true);
    report.mem_cycles = u64::MAX;
    report.retired = vec![u64::MAX, 0];
    report.oracle_flips = Some(u64::MAX - 1);
    report.ipc = vec![f64::MAX, f64::MIN_POSITIVE, -0.0];
    assert_roundtrip(&report);

    // The writer emits `null` for a non-finite float; it reads back NaN.
    report.ipc = vec![f64::NAN, 1.5];
    let text = serde_json::to_string(&report).unwrap();
    assert!(text.contains(r#""ipc":[null,1.5]"#), "{text}");
    let parsed: SimReport = serde_json::from_str(&text).unwrap();
    assert!(parsed.ipc[0].is_nan());
    assert_eq!(parsed.ipc[1], 1.5);
    assert_eq!(serde_json::to_string(&parsed).unwrap(), text);
}
