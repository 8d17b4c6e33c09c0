//! `BENCHMARK.json` against the metric tables, and a tiny-scale run of
//! every workload against both.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use chronus_benchmark::child::{self, ChildArgs, Mode};
use chronus_benchmark::driver::{contract_line, WorkloadResult};
use chronus_benchmark::json::{render, Get};
use chronus_benchmark::metrics::{benchmark_json, per_layer, END_TO_END};
use chronus_benchmark::scale::Scale;
use chronus_benchmark::workloads::WORKLOADS;
use serde::JsonValue;

fn committed_benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    assert_eq!(
        committed_benchmark_json(),
        benchmark_json(),
        "regenerate with: benchmark/run.sh --emit-benchmark-json > BENCHMARK.json"
    );
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = committed_benchmark_json();
    let keys: Vec<&str> = doc
        .expect_obj("BENCHMARK.json")
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(render(&doc, true).len() <= 64 * 1024);
    assert!((1..=60).contains(&doc.u64_of("run_seconds")));

    let mut names = HashSet::new();
    let workloads = doc.arr_of("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(name_ok(w.str_of("name")), "{}", w.str_of("name"));
        assert!(names.insert(w.str_of("name").to_string()));
        let why = w.str_of("why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
    let end_to_end = doc.arr_of("end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert!(name_ok(m.str_of("name")) && unit_ok(m.str_of("unit")));
        assert!(
            names.insert(m.str_of("name").to_string()),
            "{}",
            m.str_of("name")
        );
        assert!(["higher", "lower"].contains(&m.str_of("better")));
        let bound = m.f64_of("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.str_of("name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (setup.str_of("unit"), setup.str_of("better")),
        ("s", "lower")
    );
    let largest = end_to_end
        .iter()
        .map(|m| m.f64_of("bound"))
        .fold(0.0, f64::max);
    assert_eq!(
        setup.f64_of("bound"),
        largest,
        "setup_s has the largest bound"
    );

    let layers = doc.arr_of("per_layer");
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert!(name_ok(m.str_of("name")), "{}", m.str_of("name"));
        assert!(unit_ok(m.str_of("unit")), "{}", m.str_of("unit"));
        assert!(
            names.insert(m.str_of("name").to_string()),
            "{}",
            m.str_of("name")
        );
        assert!(["higher", "lower"].contains(&m.str_of("better")));
    }
}

fn tiny(mode: Mode, workload: &str, store: &Path, reps: Option<usize>) -> JsonValue {
    child::run(
        &ChildArgs {
            mode,
            workload: workload.to_string(),
            seed: 11,
            store: store.to_path_buf(),
            reps,
        },
        &Scale::TINY,
    )
}

/// Every workload at tiny scale, in process: a pass, a traced pass, the
/// kernels and the verification. Every name of `BENCHMARK.json` must come
/// out with its unit, nothing may fail, and the traced pass must agree
/// with the untraced one on everything the simulator computed.
#[test]
fn tiny_run_reports_every_metric_for_every_workload() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("contract-tiny");
    let _ = std::fs::remove_dir_all(&tmp);
    for w in &WORKLOADS {
        let store = tmp.join(w.name);
        if w.name == "grid-warm" {
            let fill = tiny(Mode::Pass, "grid-cold", &store, None);
            assert_eq!(fill.u64_of("failed"), 0, "{}", render(&fill, false));
        }
        let pass = tiny(Mode::Pass, w.name, &store, None);
        if w.name == "grid-cold" {
            // The traced pass must be cold too.
            std::fs::remove_dir_all(&store).unwrap();
        }
        let traced = tiny(Mode::Traced, w.name, &store, None);
        let kernels = tiny(Mode::Kernels, w.name, &store, None);
        let verify = tiny(Mode::Verify, w.name, &store, None);
        for doc in [&pass, &traced, &kernels, &verify] {
            assert_eq!(
                doc.u64_of("failed"),
                0,
                "{}: {:?}",
                w.name,
                doc.arr_of("failures")
            );
        }
        assert!(pass.u64_of("cells") > 0);
        assert_eq!(pass.str_of("digest"), traced.str_of("digest"), "{}", w.name);
        assert_eq!(pass.field("counts"), traced.field("counts"), "{}", w.name);
        if w.name == "grid-warm" {
            assert_eq!(pass.field("exec").u64_of("simulated"), 0);
        } else if !w.name.starts_with("grid-") {
            assert!(verify.u64_of("attempted") > 0, "{}", w.name);
        }
        assert!(
            traced.f64_of("coverage") >= 0.95,
            "{}: {}",
            w.name,
            traced.f64_of("coverage")
        );

        let mut result = WorkloadResult::new(w.name);
        result.attempted = pass.u64_of("cells");
        result.rounds = vec![pass];
        result.traced = Some(traced);
        result.kernels = Some(kernels);

        let line = JsonValue::parse(&contract_line(&result, false)).unwrap();
        assert_eq!(line.field("correct"), &JsonValue::Bool(true));
        let metrics = line.obj_of("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        for (m, (name, value)) in END_TO_END.iter().zip(metrics) {
            assert_eq!((m.name, m.unit), (name.as_str(), value.str_of("unit")));
            assert!(value.f64_of("value") > 0.0, "{}: {name} is never 0", w.name);
        }

        let line = JsonValue::parse(&contract_line(&result, true)).unwrap();
        let metrics = line.obj_of("metrics");
        let layers = per_layer();
        assert_eq!(metrics.len(), layers.len());
        for (m, (name, value)) in layers.iter().zip(metrics) {
            assert_eq!((m.name, m.unit), (name.as_str(), value.str_of("unit")));
            assert!(value.f64_of("value").is_finite(), "{}: {name}", w.name);
        }
        // What applies to every workload must have been measured on it.
        let values = result.layer_values();
        for always in [
            "sim.report.to_json.s",
            "sim.report.bytes",
            "host.calib.s",
            "trace.overhead_frac",
            "cpu.core.ns_per_instr",
            "ctrl.mapping.ns_per_decode",
            "ctrl.memsys.ns_per_request",
            "dram.issue.ns_per_cmd",
            "core.hooks.ns_per_act.chronus",
            "sim.build.ms.baseline",
            "energy.compute.ns",
            "security.fig3.s",
            "sim.mem_cycles",
            "energy.total_mj",
        ] {
            let (_, v) = values.iter().find(|(n, _)| *n == always).unwrap();
            assert!(v.is_finite(), "{}: {always} is null", w.name);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
