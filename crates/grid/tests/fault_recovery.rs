//! Fault-tolerance acceptance tests: for every fault class (panic, stall/
//! timeout, injected I/O error) the grid run COMPLETES, records the
//! permanently failed cells in the failure manifest, and a later clean run
//! heals — re-simulating exactly the failed cells and clearing the
//! manifest.

use std::path::PathBuf;
use std::time::Duration;

use chronus_core::MechanismKind;
use chronus_grid::{
    run_grid, AppTrace, CellSpec, ExecOpts, FailureKind, FaultPlan, GridSpec, ResultStore,
    RetryPolicy, Shard, WorkloadSpec,
};
use chronus_sim::SimConfig;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronus-grid-fr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 3-cell single-core grid, cheap enough for sub-second cells.
fn small_grid() -> GridSpec {
    let mut spec = GridSpec::new("fault-recovery");
    for (i, nrh) in [1024u32, 64, 32].iter().enumerate() {
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 2_000;
        cfg.mechanism = MechanismKind::Chronus;
        cfg.nrh = *nrh;
        cfg.seed = 42;
        cfg.max_mem_cycles = 1 << 22;
        let workload = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("429.mcf", 0, 42 ^ (i as u64))],
            trace_instructions: 2_400,
        };
        spec.push(CellSpec::new(format!("cell-{i}@{nrh}"), workload, cfg));
    }
    spec
}

fn fast_retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_ms: 1,
        cap_ms: 4,
        jitter: 0.25,
    }
}

fn opts(retry: RetryPolicy, faults: Option<FaultPlan>) -> ExecOpts {
    ExecOpts {
        threads: 2,
        shard: Shard::full(),
        progress: false,
        retry,
        cell_timeout: None,
        faults: faults.map(FaultPlan::injector),
    }
}

#[test]
fn gated_panics_heal_within_the_retry_budget() {
    let dir = scratch("gated-panic");
    let store = ResultStore::open(&dir).unwrap();
    let spec = small_grid();
    // Every cell's first attempt panics; attempt 1 is clean.
    let plan = FaultPlan::parse("panic:1.0,attempts:1,seed:3").unwrap();
    let out = run_grid(&spec, Some(&store), &opts(fast_retry(2), Some(plan)));
    assert!(
        out.is_complete(),
        "retries must absorb first-attempt panics"
    );
    assert!(!out.is_degraded());
    assert_eq!(out.stats.simulated, 3);
    assert!(store.load_manifest(&spec.name).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_panics_degrade_the_run_and_a_clean_rerun_heals() {
    let dir = scratch("permanent-panic");
    let store = ResultStore::open(&dir).unwrap();
    let spec = small_grid();

    // Unconditional panics: every attempt of every cell fails.
    let plan = FaultPlan::parse("panic:1.0,seed:3").unwrap();
    let out = run_grid(&spec, Some(&store), &opts(fast_retry(1), Some(plan)));
    assert!(!out.is_complete());
    assert!(out.is_degraded());
    assert_eq!(out.stats.failed, 3);
    assert_eq!(out.failures.len(), 3);
    for (i, f) in out.failures.iter().enumerate() {
        assert_eq!(f.index, i);
        assert_eq!(f.kind, FailureKind::Panic);
        assert_eq!(f.attempts, 2, "1 retry = 2 attempts");
        assert!(f.error.contains("injected fault"), "got: {}", f.error);
    }

    // The manifest survives on disk and lists every cell.
    let manifest = store.load_manifest(&spec.name).expect("manifest written");
    assert_eq!(manifest.grid, spec.name);
    assert_eq!(manifest.shard, "1/1");
    assert_eq!(manifest.failures, out.failures);

    // A clean rerun re-simulates exactly the failed cells, completes, and
    // clears the manifest.
    let healed = run_grid(&spec, Some(&store), &opts(fast_retry(1), None));
    assert!(healed.is_complete());
    assert!(!healed.is_degraded());
    assert_eq!(healed.stats.simulated, 3, "all three were missing");
    assert_eq!(healed.stats.cached, 0);
    assert!(
        store.load_manifest(&spec.name).is_none(),
        "clean complete run must clear the manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalls_trip_the_watchdog_and_gated_retries_recover() {
    let dir = scratch("stall");
    let store = ResultStore::open(&dir).unwrap();
    let spec = small_grid();
    // First attempt of every cell stalls far beyond the watchdog; the
    // retry is clean. The deadline is generous against a loaded machine
    // (tests run concurrently) while staying well under the stall.
    let plan = FaultPlan::parse("stall:1.0,stall_ms:60000,attempts:1,seed:5").unwrap();
    let exec = ExecOpts {
        cell_timeout: Some(Duration::from_secs(5)),
        ..opts(fast_retry(2), Some(plan))
    };
    let out = run_grid(&spec, Some(&store), &exec);
    assert!(out.is_complete(), "watchdog + retry must recover stalls");
    assert!(!out.is_degraded());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_stalls_are_reported_as_timeouts() {
    let dir = scratch("stall-permanent");
    let store = ResultStore::open(&dir).unwrap();
    let mut spec = GridSpec::new("fault-recovery-stall");
    // One cell keeps the test cheap: every attempt stalls and times out.
    spec.push(small_grid().cells.remove(0));
    let plan = FaultPlan::parse("stall:1.0,stall_ms:60000,seed:5").unwrap();
    let exec = ExecOpts {
        cell_timeout: Some(Duration::from_millis(100)),
        ..opts(fast_retry(1), Some(plan))
    };
    let out = run_grid(&spec, Some(&store), &exec);
    assert!(out.is_degraded());
    assert_eq!(out.failures.len(), 1);
    assert_eq!(out.failures[0].kind, FailureKind::Timeout);
    assert!(out.failures[0].error.contains("watchdog"));
    let manifest = store.load_manifest(&spec.name).expect("manifest written");
    assert_eq!(manifest.failures[0].kind, FailureKind::Timeout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gated_io_faults_on_put_heal_via_write_retries() {
    let dir = scratch("io-gated");
    let spec = small_grid();
    // Every store operation's first call fails; the retry succeeds.
    let plan = FaultPlan::parse("io:1.0,attempts:1,seed:7").unwrap();
    let store = ResultStore::open(&dir)
        .unwrap()
        .with_faults(Some(plan.injector()));
    let out = run_grid(&spec, Some(&store), &opts(fast_retry(2), None));
    assert!(out.is_complete());
    assert!(
        !out.is_degraded(),
        "put retries must absorb gated I/O faults"
    );
    // Every entry really landed on disk.
    let clean = ResultStore::open(&dir).unwrap();
    assert_eq!(clean.list().unwrap().len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_io_faults_surface_as_store_write_failures_with_reports() {
    let dir = scratch("io-permanent");
    let spec = small_grid();
    let plan = FaultPlan::parse("io:1.0,seed:7").unwrap();
    let store = ResultStore::open(&dir)
        .unwrap()
        .with_faults(Some(plan.injector()));
    let out = run_grid(&spec, Some(&store), &opts(fast_retry(1), None));
    // The simulations themselves succeeded: every report is present even
    // though nothing could be persisted.
    assert!(out.is_complete(), "reports survive store-write failures");
    assert!(out.is_degraded());
    assert_eq!(out.stats.failed, 0, "no simulation failed");
    assert_eq!(out.failures.len(), 3);
    for f in &out.failures {
        assert_eq!(f.kind, FailureKind::StoreWrite);
        assert!(f.error.contains("injected I/O fault"), "got: {}", f.error);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight VRD variants of one unmitigated workload: one timing cohort.
fn cohort_grid() -> GridSpec {
    let mut spec = GridSpec::new("fault-recovery-cohort");
    for seed in 0..8u64 {
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

#[test]
fn a_faulted_cohort_gives_every_member_its_solo_outcome() {
    let spec = cohort_grid();
    let hashes = spec.hashes();
    let max_retries = 1;
    // Permanent panics on some members, then the same draws healed by the
    // retry (`attempts:1`).
    for (tag, text) in [
        ("cohort-faults", "panic:0.5,seed:4"),
        ("cohort-faults-gated", "panic:0.5,attempts:1,seed:4"),
    ] {
        let dir = scratch(tag);
        let store = ResultStore::open(&dir).unwrap();
        let plan = FaultPlan::parse(text).unwrap();

        // Each member's own decisions over attempts 0..=max_retries: the
        // first clean attempt succeeds; a member with none fails after all.
        let injector = plan.clone().injector();
        let solo: Vec<Option<u32>> = hashes
            .iter()
            .map(|h| (0..=max_retries).find(|&a| injector.exec_fault(h, a).is_none()))
            .collect();
        // The plan splits the cohort: some member faults on attempt 0.
        assert!(
            solo.contains(&Some(0)) && solo.iter().any(|s| *s != Some(0)),
            "{solo:?}"
        );

        let out = run_grid(
            &spec,
            Some(&store),
            &opts(fast_retry(max_retries), Some(plan)),
        );
        let expected_failed: Vec<(usize, u32)> = (0..solo.len())
            .filter(|&i| solo[i].is_none())
            .map(|i| (i, max_retries + 1))
            .collect();
        let manifest = store
            .load_manifest(&spec.name)
            .map(|m| m.failures)
            .unwrap_or_default();
        let failed: Vec<(usize, u32)> = manifest.iter().map(|f| (f.index, f.attempts)).collect();
        assert_eq!(failed, expected_failed, "{text}");
        assert!(manifest.iter().all(|f| f.kind == FailureKind::Panic));
        assert_eq!(out.failures, manifest);
        assert_eq!(out.stats.failed, expected_failed.len());
        assert_eq!(out.stats.simulated, 8 - expected_failed.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_timed_out_cohort_retries_each_member_alone() {
    let dir = scratch("cohort-timeout");
    let store = ResultStore::open(&dir).unwrap();
    let spec = cohort_grid();
    // No simulation beats a 1 ns deadline: the cohort attempt times out,
    // and so does every member's own attempt after the split.
    let exec = ExecOpts {
        cell_timeout: Some(Duration::from_nanos(1)),
        ..opts(fast_retry(0), None)
    };
    let out = run_grid(&spec, Some(&store), &exec);
    assert_eq!(out.stats.failed, 8);
    assert_eq!(out.failures.len(), 8);
    for (i, f) in out.failures.iter().enumerate() {
        assert_eq!((f.index, f.kind, f.attempts), (i, FailureKind::Timeout, 1));
    }
    // A clean rerun heals the whole cohort in one unit.
    let healed = run_grid(&spec, Some(&store), &opts(fast_retry(0), None));
    assert!(healed.is_complete() && !healed.is_degraded());
    assert_eq!(healed.stats.simulated, 8);
    assert!(store.load_manifest(&spec.name).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
