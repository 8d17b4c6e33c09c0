//! Fault-tolerance acceptance tests: for every failure class (panic, a run
//! past its cycle budget, injected I/O error) the grid run COMPLETES,
//! records the failed cells in the failure manifest, and a later clean run
//! heals — re-simulating exactly the failed cells and clearing the
//! manifest. A simulation and a store write are each attempted once.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use chronus_core::MechanismKind;
use chronus_grid::{
    run_grid, AppTrace, CellSpec, ExecOpts, FailureKind, FaultPlan, GridSpec, ResultStore, Shard,
    WorkloadSpec,
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

fn opts(faults: Option<FaultPlan>) -> ExecOpts {
    ExecOpts {
        threads: 2,
        shard: Shard::full(),
        progress: false,
        faults,
    }
}

#[test]
fn a_deterministic_panic_is_tried_exactly_once() {
    // `SharedLlc::new` rejects `mshrs == 0` by name: a real, deterministic
    // panic. Count the panics that name it, here and nowhere else.
    static MSHR_PANICS: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.to_string().contains("(mshrs 0)") {
            MSHR_PANICS.fetch_add(1, Ordering::SeqCst);
        }
        previous(info);
    }));

    let dir = scratch("mshrs");
    let store = ResultStore::open(&dir).unwrap();
    let mut spec = small_grid();
    let mut broken = spec.cells[1].clone();
    broken.label = "no-mshrs".into();
    broken.config.llc.mshrs = 0;
    spec.push(broken);
    let out = run_grid(&spec, Some(&store), &opts(None));
    assert_eq!(
        MSHR_PANICS.load(Ordering::SeqCst),
        1,
        "one attempt, no retry"
    );
    assert_eq!(out.failures.len(), 1);
    let f = &out.failures[0];
    assert_eq!((f.index, f.kind), (3, FailureKind::Panic));
    assert!(f.error.contains("mshrs"), "got: {}", f.error);
    assert_eq!((out.stats.simulated, out.stats.failed), (3, 1));
    assert!(out.reports[..3].iter().all(Option::is_some));
    assert_eq!(
        store.load_manifest(&spec.name).unwrap().failures,
        out.failures
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_panics_degrade_the_run_and_a_clean_rerun_heals() {
    let dir = scratch("permanent-panic");
    let store = ResultStore::open(&dir).unwrap();
    let spec = small_grid();

    // Unconditional panics: every cell fails.
    let plan = FaultPlan::parse("panic:1.0,seed:3").unwrap();
    let out = run_grid(&spec, Some(&store), &opts(Some(plan)));
    assert!(!out.is_complete());
    assert!(out.is_degraded());
    assert_eq!(out.stats.failed, 3);
    assert_eq!(out.failures.len(), 3);
    for (i, f) in out.failures.iter().enumerate() {
        assert_eq!(f.index, i);
        assert_eq!(f.kind, FailureKind::Panic);
        assert!(f.error.contains("injected fault"), "got: {}", f.error);
    }

    // The manifest survives on disk and lists every cell.
    let manifest = store.load_manifest(&spec.name).expect("manifest written");
    assert_eq!(manifest.grid, spec.name);
    assert_eq!(manifest.shard, "1/1");
    assert_eq!(manifest.failures, out.failures);

    // A clean rerun re-simulates exactly the failed cells, completes, and
    // clears the manifest.
    let healed = run_grid(&spec, Some(&store), &opts(None));
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

// A stalled cell is one whose simulation runs past its cycle budget
// (`max_mem_cycles`): the budget is the watchdog, on the simulated clock,
// and its timeout is the `Budget` record.

#[test]
fn permanent_stalls_are_reported_as_timeouts() {
    let dir = scratch("budget");
    let store = ResultStore::open(&dir).unwrap();
    // Cell 1's budget ends its run long before its 2 000 instructions.
    let mut spec = small_grid();
    spec.cells[1].config.max_mem_cycles = 1_000;
    let out = run_grid(&spec, Some(&store), &opts(None));
    assert!(out.is_degraded() && !out.is_complete());
    assert_eq!((out.stats.simulated, out.stats.failed), (2, 1));
    assert_eq!(out.failures.len(), 1);
    let f = &out.failures[0];
    assert_eq!((f.index, f.kind), (1, FailureKind::Budget));
    assert!(
        f.error.contains("max_mem_cycles = 1000"),
        "got: {}",
        f.error
    );
    // The truncated report is neither returned nor stored.
    assert!(out.reports[1].is_none());
    assert!(out.reports[0].is_some() && out.reports[2].is_some());
    assert!(!store.contains(&spec.hashes()[1]));
    let manifest = store.load_manifest(&spec.name).expect("manifest written");
    assert_eq!(manifest.failures, out.failures);

    // Under the same budget the stall is permanent: a rerun serves the two
    // good cells from the store and records the same failure again.
    let again = run_grid(&spec, Some(&store), &opts(None));
    assert!(again.is_degraded() && !again.is_complete());
    assert_eq!(
        (
            again.stats.cached,
            again.stats.simulated,
            again.stats.failed
        ),
        (2, 0, 1)
    );
    assert_eq!(again.failures, out.failures);
    assert!(again.reports[1].is_none());
    assert_eq!(
        store.load_manifest(&spec.name).unwrap().failures,
        out.failures
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_budget_failure_and_store_write_failures_are_recorded_together() {
    let dir = scratch("budget-io");
    // Cell 1 runs past its budget while every store operation fails: the
    // budget trips once, and the two good cells keep their reports but are
    // recorded as failed writes.
    let mut spec = small_grid();
    spec.cells[1].config.max_mem_cycles = 1_000;
    let plan = FaultPlan::parse("io:1.0,seed:7").unwrap();
    let store = ResultStore::open(&dir).unwrap();
    let faulted = store.clone().with_faults(Some(plan));
    let out = run_grid(&spec, Some(&faulted), &opts(None));
    assert!(out.is_degraded() && !out.is_complete());
    assert_eq!((out.stats.simulated, out.stats.failed), (2, 1));
    let kinds: Vec<(usize, FailureKind)> = out.failures.iter().map(|f| (f.index, f.kind)).collect();
    assert_eq!(
        kinds,
        [
            (0, FailureKind::StoreWrite),
            (1, FailureKind::Budget),
            (2, FailureKind::StoreWrite)
        ]
    );
    assert!(out.reports[0].is_some() && out.reports[2].is_some());
    assert!(out.reports[1].is_none());
    assert!(store.list().unwrap().is_empty(), "no write landed");
    assert_eq!(
        store.load_manifest(&spec.name).unwrap().failures,
        out.failures
    );

    // A clean rerun with a larger budget simulates all three, completes
    // and leaves no manifest.
    spec.cells[1].config.max_mem_cycles = 1 << 22;
    let healed = run_grid(&spec, Some(&store), &opts(None));
    assert!(healed.is_complete() && !healed.is_degraded());
    assert_eq!((healed.stats.cached, healed.stats.simulated), (0, 3));
    assert!(!healed.reports[1].as_ref().unwrap().truncated);
    assert!(store.load_manifest(&spec.name).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `small_grid` under the io plan `text`: every write the plan draws
/// fails, is recorded as StoreWrite with its report kept, and a clean
/// rerun re-simulates exactly those cells. Returns the failed indices.
fn run_io_plan(tag: &str, text: &str) -> Vec<usize> {
    let spec = small_grid();
    let hashes = spec.hashes();
    let dir = scratch(tag);
    let plan = FaultPlan::parse(text).unwrap();
    let failing: Vec<usize> = (0..spec.len())
        .filter(|&i| plan.io_fault("put", &hashes[i]).is_some())
        .collect();
    assert!(!failing.is_empty(), "{text}: some write must fail");
    let store = ResultStore::open(&dir).unwrap();
    let out = run_grid(
        &spec,
        Some(&store.clone().with_faults(Some(plan))),
        &opts(None),
    );
    // The simulations themselves succeeded: every report is present
    // even though the failed writes persisted nothing.
    assert!(out.is_complete(), "reports survive store-write failures");
    assert!(out.is_degraded());
    assert_eq!(
        (out.stats.simulated, out.stats.failed),
        (spec.len(), 0),
        "{text}"
    );
    let failed: Vec<usize> = out.failures.iter().map(|f| f.index).collect();
    assert_eq!(failed, failing, "{text}");
    for f in &out.failures {
        assert_eq!(f.kind, FailureKind::StoreWrite);
        assert!(f.error.contains("injected I/O fault"), "got: {}", f.error);
    }
    assert_eq!(
        store.list().unwrap().len(),
        spec.len() - failing.len(),
        "{text}"
    );
    assert_eq!(
        store.load_manifest(&spec.name).unwrap().failures,
        out.failures
    );

    // A clean rerun re-simulates exactly the cells whose write failed
    // and clears the manifest.
    let healed = run_grid(&spec, Some(&store), &opts(None));
    assert!(healed.is_complete() && !healed.is_degraded());
    assert_eq!(
        (healed.stats.cached, healed.stats.simulated),
        (spec.len() - failing.len(), failing.len()),
        "{text}"
    );
    assert_eq!(healed.reports, out.reports);
    assert!(store.load_manifest(&spec.name).is_none());
    let _ = std::fs::remove_dir_all(&dir);
    failing
}

#[test]
fn permanent_io_faults_surface_as_store_write_failures_with_reports() {
    assert_eq!(run_io_plan("io-permanent", "io:1.0,seed:7"), [0, 1, 2]);
}

#[test]
fn partial_io_faults_fail_only_the_drawn_writes_and_land_the_rest() {
    let failing = run_io_plan("io-split", "io:0.5,seed:3");
    assert!(failing.len() < small_grid().len(), "some write must land");
}

/// Eight VRD variants of one unmitigated workload: one timing cohort.
fn cohort_grid(max_mem_cycles: u64) -> GridSpec {
    let mut spec = GridSpec::new("fault-recovery-cohort");
    for seed in 0..8u64 {
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 2_000;
        cfg.nrh = 1024;
        cfg.oracle = true;
        cfg.vrd = Some(chronus_sim::VrdSpec { min_pct: 50, seed });
        cfg.max_mem_cycles = max_mem_cycles;
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
    let spec = cohort_grid(1 << 22);
    let dir = scratch("cohort-faults");
    let store = ResultStore::open(&dir).unwrap();
    let plan = FaultPlan::parse("panic:0.5,seed:4").unwrap();

    // Each member's own decision: it panics alone or it completes.
    let expected_failed: Vec<usize> = spec
        .hashes()
        .iter()
        .enumerate()
        .filter(|(_, h)| plan.exec_fault(h))
        .map(|(i, _)| i)
        .collect();
    // The plan splits the cohort: some members panic, some do not.
    assert!(
        !expected_failed.is_empty() && expected_failed.len() < 8,
        "{expected_failed:?}"
    );

    let out = run_grid(&spec, Some(&store), &opts(Some(plan)));
    let manifest = store
        .load_manifest(&spec.name)
        .map(|m| m.failures)
        .unwrap_or_default();
    let failed: Vec<usize> = manifest.iter().map(|f| f.index).collect();
    assert_eq!(failed, expected_failed);
    assert!(manifest.iter().all(|f| f.kind == FailureKind::Panic));
    assert_eq!(out.failures, manifest);
    assert_eq!(out.stats.failed, expected_failed.len());
    assert_eq!(out.stats.simulated, 8 - expected_failed.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_over_budget_cohort_records_every_member() {
    let dir = scratch("cohort-budget");
    let store = ResultStore::open(&dir).unwrap();
    // The members are cycle-identical, so all eight run past the budget
    // together; the cohort is recorded whole, not split.
    let spec = cohort_grid(1_000);
    let out = run_grid(&spec, Some(&store), &opts(None));
    assert_eq!(out.stats.failed, 8);
    assert_eq!(out.failures.len(), 8);
    for (i, f) in out.failures.iter().enumerate() {
        assert_eq!((f.index, f.kind), (i, FailureKind::Budget));
    }
    assert!(
        store.list().unwrap().is_empty(),
        "nothing over budget is stored"
    );
    // A clean rerun with a larger budget heals the whole cohort in one unit.
    let healed = run_grid(&cohort_grid(1 << 22), Some(&store), &opts(None));
    assert!(healed.is_complete() && !healed.is_degraded());
    assert_eq!(healed.stats.simulated, 8);
    assert!(store.load_manifest(&spec.name).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
