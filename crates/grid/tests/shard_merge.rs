//! Acceptance tests for the grid engine:
//!
//! * running `--shard 1/2` then `--shard 2/2` and merging is byte-identical
//!   to one unsharded run;
//! * two unsharded runs racing on one store leave it byte-identical to a
//!   solo fill (they may duplicate compute, never corrupt);
//! * a repeated run completes entirely from the result store with zero
//!   simulations.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use chronus_core::MechanismKind;
use chronus_grid::{
    merge, run_grid, AppTrace, CellSpec, ExecOpts, FaultPlan, GridSpec, ResultStore, Shard,
    WorkloadSpec,
};
use chronus_sim::SimConfig;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronus-grid-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 4-cell grid: 2 apps × 2 N_RH under Chronus, small enough to simulate
/// in well under a second per cell.
fn sample_grid() -> GridSpec {
    let mut spec = GridSpec::new("it-sample");
    for (slot, app) in ["511.povray", "429.mcf"].iter().enumerate() {
        for nrh in [1024u32, 32] {
            let mut cfg = SimConfig::single_core();
            cfg.instructions_per_core = 2_000;
            cfg.mechanism = MechanismKind::Chronus;
            cfg.nrh = nrh;
            cfg.seed = 42;
            cfg.max_mem_cycles = 1 << 22;
            let workload = WorkloadSpec::Apps {
                apps: vec![AppTrace::new(*app, slot as u64, 42 ^ ((slot as u64) << 8))],
                trace_instructions: 2_400,
            };
            spec.push(CellSpec::new(format!("{app}@{nrh}"), workload, cfg));
        }
    }
    spec
}

fn opts(shard: Shard) -> ExecOpts {
    ExecOpts {
        threads: 2,
        shard,
        progress: false,
        ..ExecOpts::default()
    }
}

/// Merged reports rendered exactly as `chronus-sweep merge` writes them.
fn merged_bytes(spec: &GridSpec, store: &ResultStore) -> String {
    let reports = merge(spec, store).expect("grid complete");
    serde_json::to_string_pretty(&reports).unwrap()
}

#[test]
fn sharded_runs_merge_byte_identical_to_unsharded() {
    let spec = sample_grid();

    // Unsharded reference run.
    let dir_a = scratch("unsharded");
    let store_a = ResultStore::open(&dir_a).unwrap();
    let out = run_grid(&spec, Some(&store_a), &opts(Shard::full()));
    assert!(out.is_complete());
    assert_eq!(out.stats.simulated, 4);
    let reference = merged_bytes(&spec, &store_a);

    // Two shards into a second, independent store.
    let dir_b = scratch("sharded");
    let store_b = ResultStore::open(&dir_b).unwrap();
    let one = run_grid(&spec, Some(&store_b), &opts("1/2".parse().unwrap()));
    assert!(
        !one.is_complete(),
        "shard 1/2 must leave cells to shard 2/2"
    );
    assert_eq!(one.stats.simulated + one.stats.skipped, 4);
    let two = run_grid(&spec, Some(&store_b), &opts("2/2".parse().unwrap()));
    assert_eq!(one.stats.simulated + two.stats.simulated, 4);
    assert_eq!(two.stats.cached, one.stats.simulated);

    // Merge after sharding is byte-identical to the unsharded run.
    assert_eq!(merged_bytes(&spec, &store_b), reference);

    // The stores themselves hold byte-identical entries.
    let hashes = store_a.list().unwrap();
    assert_eq!(hashes, store_b.list().unwrap());
    for h in &hashes {
        let a = std::fs::read(store_a.path_of(h)).unwrap();
        let b = std::fs::read(store_b.path_of(h)).unwrap();
        assert_eq!(a, b, "stored entry {h} differs between stores");
    }

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// 16 VRD variants of one unmitigated workload: one timing cohort.
fn cohort_grid() -> GridSpec {
    let mut spec = GridSpec::new("it-cohort");
    for seed in 0..16u64 {
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 2_000;
        cfg.nrh = 1024;
        cfg.oracle = true;
        cfg.vrd = Some(chronus_sim::VrdSpec { min_pct: 50, seed });
        cfg.max_mem_cycles = 1 << 22;
        let workload = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("429.mcf", 0, 42)],
            trace_instructions: 2_400,
        };
        spec.push(CellSpec::new(format!("vrd#{seed}"), workload, cfg));
    }
    spec
}

/// `(file name, bytes)` of the store's `<hash>.json` entries, sorted.
fn entries(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| (e.file_name().into_string().unwrap(), e.path()))
        .filter(|(name, _)| name.ends_with(".json"))
        .map(|(name, path)| (name, std::fs::read(path).unwrap()))
        .collect();
    out.sort();
    out
}

#[test]
fn racing_unsharded_runs_fill_byte_identically_to_a_solo_fill() {
    // Two unsharded executors on one store do not coordinate: each
    // simulates whatever misses it finds. How much they duplicate is a
    // race, so it is not asserted; what they leave behind is.
    for spec in [sample_grid(), cohort_grid()] {
        let dir_solo = scratch(&format!("solo-{}", spec.name));
        let store_solo = ResultStore::open(&dir_solo).unwrap();
        let solo = run_grid(&spec, Some(&store_solo), &opts(Shard::full()));
        assert!(solo.is_complete() && !solo.is_degraded());

        let dir = scratch(&format!("race-{}", spec.name));
        let start = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let run = || {
                let (spec, dir, start) = (&spec, &dir, &start);
                scope.spawn(move || {
                    // Its own store handle, as a second process would hold.
                    let store = ResultStore::open(dir).unwrap();
                    start.wait();
                    run_grid(spec, Some(&store), &opts(Shard::full()))
                })
            };
            let (a, b) = (run(), run());
            (a.join().unwrap(), b.join().unwrap())
        });
        for out in [&a, &b] {
            assert!(out.is_complete() && !out.is_degraded(), "{:?}", out.stats);
            assert_eq!(out.reports, solo.reports);
            assert_eq!(out.stats.waited, 0);
        }
        assert_eq!(entries(&dir).len(), spec.len());
        assert_eq!(entries(&dir), entries(&dir_solo), "{}", spec.name);

        let _ = std::fs::remove_dir_all(&dir_solo);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn second_run_is_pure_cache_hits() {
    let spec = sample_grid();
    let dir = scratch("rerun");
    let store = ResultStore::open(&dir).unwrap();

    let first = run_grid(&spec, Some(&store), &opts(Shard::full()));
    assert_eq!(first.stats.simulated, 4);
    assert_eq!(first.stats.cached, 0);

    let second = run_grid(&spec, Some(&store), &opts(Shard::full()));
    assert_eq!(second.stats.simulated, 0, "second run must not simulate");
    assert_eq!(second.stats.cached, 4, "second run must be 100% cache hits");
    assert_eq!(second.reports, first.reports);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_sharded_run_merges_byte_identical_to_clean_unsharded() {
    let spec = sample_grid();

    // Clean unsharded reference.
    let dir_a = scratch("fault-ref");
    let store_a = ResultStore::open(&dir_a).unwrap();
    let clean = run_grid(&spec, Some(&store_a), &opts(Shard::full()));
    assert!(clean.is_complete() && !clean.is_degraded());
    let reference = merged_bytes(&spec, &store_a);

    // Sharded runs under injected panics and write faults: each failed
    // cell is recorded once, and a failed write lands nothing.
    let dir_b = scratch("fault-sharded");
    let store_b = ResultStore::open(&dir_b).unwrap();
    let run = |faults: Option<&str>, shard: &str| {
        let plan = faults.map(|text| FaultPlan::parse(text).unwrap());
        let exec = ExecOpts {
            faults: plan.clone(),
            ..opts(shard.parse().unwrap())
        };
        run_grid(&spec, Some(&store_b.clone().with_faults(plan)), &exec)
    };
    let io_and_panics = Some("panic:0.5,io:0.5,seed:7");
    let one = run(io_and_panics, "1/2");
    let two = run(io_and_panics, "2/2");
    let failed = one.stats.failed + two.stats.failed;
    let simulated = one.stats.simulated + two.stats.simulated;
    assert!(failed > 0 && simulated > 0, "the plan must split the grid");
    assert_eq!(failed + simulated, 4);
    let failures = one.failures.len() + two.failures.len();
    let landed = store_b.list().unwrap().len();
    assert!(failures > failed, "some write must fail");
    assert_eq!(landed, 4 - failures, "a failed cell lands nothing");
    assert!(landed > 0, "some write must land");
    assert!(store_b.load_manifest(&spec.name).is_some());

    // Clean reruns of both halves simulate exactly the failed cells, serve
    // the landed ones and heal the manifest.
    let one = run(None, "1/2");
    let two = run(None, "2/2");
    assert!(!one.is_degraded() && !two.is_degraded());
    assert_eq!(one.stats.cached, landed);
    assert_eq!(two.stats.cached + two.stats.simulated, 4);
    assert_eq!(one.stats.simulated + two.stats.simulated, failures);
    assert!(store_b.load_manifest(&spec.name).is_none());

    // Despite the panics and the failed writes, the merged output and the
    // raw store entries are byte-identical to the clean run.
    assert_eq!(merged_bytes(&spec, &store_b), reference);
    let hashes = store_a.list().unwrap();
    assert_eq!(hashes, store_b.list().unwrap());
    for h in &hashes {
        let a = std::fs::read(store_a.path_of(h)).unwrap();
        let b = std::fs::read(store_b.path_of(h)).unwrap();
        assert_eq!(a, b, "stored entry {h} differs after faulted sharding");
    }

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn merge_reports_missing_cells() {
    let spec = sample_grid();
    let dir = scratch("missing");
    let store = ResultStore::open(&dir).unwrap();
    run_grid(&spec, Some(&store), &opts("1/2".parse().unwrap()));
    let missing = merge(&spec, &store).expect_err("half the grid is missing");
    assert_eq!(missing, vec![1, 3], "shard 1/2 owns cells 0 and 2");
}
