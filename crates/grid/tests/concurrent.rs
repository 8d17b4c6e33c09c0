//! Acceptance test for cross-process coordination: two executors racing
//! on one store complete the grid with **zero duplicated simulations**
//! (journal-verified) and leave the store byte-identical to a solo run.
//!
//! The two executors run as threads, but each opens its own `ResultStore`
//! and `CoordOpts` holder — exactly the state two separate processes
//! would hold; leases and the journal are the only coordination channel.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use chronus_core::MechanismKind;
use chronus_grid::{
    run_grid_coordinated, AppTrace, CellSpec, CoordOpts, EventKind, ExecOpts, FaultPlan, GridSpec,
    LeaseInfo, ResultStore, WorkloadSpec,
};
use chronus_sim::SimConfig;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronus-grid-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same 4-cell grid the shard-merge acceptance tests use.
fn sample_grid() -> GridSpec {
    let mut spec = GridSpec::new("conc-sample");
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

fn opts() -> ExecOpts {
    ExecOpts {
        threads: 2,
        progress: false,
        ..ExecOpts::default()
    }
}

fn coord(holder: &str) -> CoordOpts {
    CoordOpts {
        holder: Some(holder.to_string()),
        lease_ttl: Some(Duration::from_secs(30)),
    }
}

#[test]
fn racing_executors_never_duplicate_work() {
    let spec = sample_grid();

    // Solo reference run for byte-identity.
    let dir_solo = scratch("solo");
    let store_solo = ResultStore::open(&dir_solo).unwrap();
    let solo = run_grid_coordinated(&spec, Some(&store_solo), &opts(), &coord("solo-1-1"));
    assert!(solo.is_complete() && !solo.is_degraded());
    assert_eq!(solo.stats.simulated, 4);

    // Two executors racing on one shared store.
    let dir = scratch("race");
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let run = |holder: &'static str| {
            let spec = &spec;
            let dir = &dir;
            let start = &start;
            scope.spawn(move || {
                let store = ResultStore::open(dir).unwrap();
                start.wait();
                run_grid_coordinated(spec, Some(&store), &opts(), &coord(holder))
            })
        };
        let a = run("host-1-a");
        let b = run("host-2-b");
        (a.join().unwrap(), b.join().unwrap())
    });

    // Both executors end with every cell resolved...
    assert!(a.is_complete() && !a.is_degraded(), "{:?}", a.stats);
    assert!(b.is_complete() && !b.is_degraded(), "{:?}", b.stats);
    assert_eq!(a.reports, solo.reports);
    assert_eq!(b.reports, solo.reports);

    // ...and every simulation ran exactly once across the pair: the rest
    // resolved from the cache or by waiting on the other holder's lease.
    assert_eq!(
        a.stats.simulated + b.stats.simulated,
        4,
        "duplicated or lost work: a={:?} b={:?}",
        a.stats,
        b.stats
    );
    for stats in [&a.stats, &b.stats] {
        assert_eq!(
            stats.cached + stats.waited + stats.simulated,
            4,
            "{stats:?}"
        );
        assert_eq!(stats.failed, 0);
    }

    // The journal agrees: exactly one Complete per cell, no more.
    let scan = chronus_grid::journal::read_events(&dir).unwrap();
    assert_eq!(scan.torn_lines, 0);
    let completes: Vec<&str> = scan
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .map(|e| e.hash.as_str())
        .collect();
    assert_eq!(completes.len(), 4, "one Complete per distinct simulation");
    let mut unique = completes.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), 4, "no hash completed twice");

    // The racing store's entries are byte-identical to the solo run's.
    let store = ResultStore::open(&dir).unwrap();
    let hashes = store_solo.list().unwrap();
    assert_eq!(hashes, store.list().unwrap());
    for h in &hashes {
        let solo_bytes = std::fs::read(store_solo.path_of(h)).unwrap();
        let race_bytes = std::fs::read(store.path_of(h)).unwrap();
        assert_eq!(solo_bytes, race_bytes, "entry {h} differs from solo run");
    }

    // No lease survives a clean finish.
    let leases = std::fs::read_dir(dir.join("leases"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leases, 0, "all leases must be released");

    let _ = std::fs::remove_dir_all(&dir_solo);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Names (sorted) and sizes of the files directly under `dir`; empty when
/// the directory does not exist.
fn files_in(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| e.unwrap())
                .filter(|e| e.file_type().unwrap().is_file())
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, e.metadata().unwrap().len())
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

fn walls_in(dir: &Path) -> Vec<String> {
    files_in(dir)
        .into_iter()
        .filter_map(|(name, _)| name.strip_suffix(".wall").map(str::to_string))
        .collect()
}

#[test]
fn a_fully_cached_run_does_no_miss_path_work() {
    let spec = sample_grid();
    let hashes = spec.hashes();
    let dir = scratch("warm");
    let store = ResultStore::open(&dir).unwrap();
    let fill = run_grid_coordinated(&spec, Some(&store), &opts(), &coord("fill-1-1"));
    assert_eq!(fill.stats.simulated, 4);
    assert_eq!(
        walls_in(&dir).len(),
        4,
        "the fill records every cell's cost"
    );

    // Serve with no sidecar to read: a pass with nothing to simulate
    // consults neither the deadline estimator nor the lease plane, so it
    // must not miss them — and must leave no trace of its own.
    for hash in &hashes {
        std::fs::remove_file(dir.join(format!("{hash}.wall"))).unwrap();
    }
    let journal_before = files_in(&dir.join("journal"));
    assert!(!journal_before.is_empty(), "the fill journaled its claims");
    let served = run_grid_coordinated(&spec, Some(&store), &opts(), &coord("serve-1-1"));
    assert_eq!(served.stats.cached, served.stats.total);
    assert_eq!(served.stats.cached, 4);
    assert_eq!(served.stats.simulated, 0);
    assert_eq!(
        served.stats.waited + served.stats.failed + served.stats.skipped,
        0
    );
    assert_eq!(served.reports, fill.reports);
    assert_eq!(walls_in(&dir), Vec::<String>::new(), "no sidecar recreated");
    assert_eq!(
        files_in(&dir.join("journal")),
        journal_before,
        "nothing journaled"
    );
    assert_eq!(files_in(&dir.join("leases")), vec![], "no lease taken");

    // One entry gone: exactly that cell simulates, with the full miss
    // path — and the estimator is fed from the sidecars of the cached
    // cells *before* the first claim, which the lease's TTL shows: three
    // 100 s samples arm a 2000 s deadline, the unfed floor is 15 s. The
    // injected stall holds the lease long enough to read it.
    let victim = &hashes[2];
    std::fs::remove_file(store.path_of(victim)).unwrap();
    for hash in hashes.iter().filter(|h| *h != victim) {
        store.record_wall(hash, 100.0);
    }
    let stalled = ExecOpts {
        faults: Some(
            FaultPlan::parse("stall:1.0,stall_ms:800,seed:7")
                .unwrap()
                .injector(),
        ),
        ..opts()
    };
    let derived_ttl = CoordOpts {
        holder: Some("refill-1-1".into()),
        ..CoordOpts::default()
    };
    let lease_path = dir.join("leases").join(format!("{victim}.lease"));
    let (refill, lease) = std::thread::scope(|scope| {
        let run = scope.spawn(|| run_grid_coordinated(&spec, Some(&store), &stalled, &derived_ttl));
        let started = Instant::now();
        let lease = loop {
            if let Ok(text) = std::fs::read_to_string(&lease_path) {
                let info: LeaseInfo = serde_json::from_str(&text).unwrap();
                break Some((info, chronus_grid::lease::now_ms()));
            }
            if run.is_finished() || started.elapsed() > Duration::from_secs(30) {
                break None;
            }
            std::thread::yield_now();
        };
        (run.join().unwrap(), lease)
    });
    assert_eq!(refill.stats.simulated, 1, "{:?}", refill.stats);
    assert_eq!(refill.stats.cached, 3);
    assert_eq!(refill.reports, fill.reports);
    let (lease, seen_at_ms) = lease.expect("the stalled cell's lease was never visible");
    assert_eq!(lease.holder, "refill-1-1");
    let ttl_ms = lease.deadline_ms.saturating_sub(seen_at_ms);
    assert!(
        ttl_ms > 1_000_000,
        "lease stamped before the estimator was fed: {ttl_ms} ms"
    );

    assert!(
        walls_in(&dir).contains(victim),
        "the refilled cell's cost is recorded"
    );
    let scan = chronus_grid::journal::read_events(&dir).unwrap();
    let refill_events: Vec<(EventKind, &str)> = scan
        .events
        .iter()
        .filter(|e| e.holder == "refill-1-1")
        .map(|e| (e.kind, e.hash.as_str()))
        .collect();
    assert_eq!(
        refill_events,
        vec![
            (EventKind::Claim, victim.as_str()),
            (EventKind::Complete, victim.as_str())
        ]
    );
    assert_eq!(
        files_in(&dir.join("leases")),
        vec![],
        "the lease was released"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// 2 `min_pct` points × 16 VRD seeds of one unmitigated workload: 32 cells,
/// one timing cohort (the shape of the `vrd-sweep` grid).
fn cohort_grid() -> GridSpec {
    let mut spec = GridSpec::new("conc-cohort");
    for min_pct in [100, 50] {
        for seed in 0..16u64 {
            let mut cfg = SimConfig::single_core();
            cfg.instructions_per_core = 2_000;
            cfg.nrh = 1024;
            cfg.oracle = true;
            cfg.vrd = Some(chronus_sim::VrdSpec { min_pct, seed });
            cfg.max_mem_cycles = 1 << 22;
            let workload = WorkloadSpec::Apps {
                apps: vec![AppTrace::new("429.mcf", 0, 42)],
                trace_instructions: 2_400,
            };
            spec.push(CellSpec::new(format!("vrd{min_pct}#{seed}"), workload, cfg));
        }
    }
    spec
}

#[test]
fn racing_executors_split_no_cohort_member_twice() {
    let spec = cohort_grid();
    let dir = scratch("race-cohort");
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let run = |holder: &'static str| {
            let (spec, dir, start) = (&spec, &dir, &start);
            scope.spawn(move || {
                let store = ResultStore::open(dir).unwrap();
                start.wait();
                run_grid_coordinated(spec, Some(&store), &opts(), &coord(holder))
            })
        };
        let a = run("host-1-a");
        let b = run("host-2-b");
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(a.is_complete() && !a.is_degraded(), "{:?}", a.stats);
    assert!(b.is_complete() && !b.is_degraded(), "{:?}", b.stats);
    assert_eq!(a.reports, b.reports);
    assert_eq!(
        a.stats.simulated + b.stats.simulated,
        32,
        "duplicated or lost work: a={:?} b={:?}",
        a.stats,
        b.stats
    );

    // One Complete per hash across both holders' journals.
    let scan = chronus_grid::journal::read_events(&dir).unwrap();
    let mut completes: Vec<&str> = scan
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .map(|e| e.hash.as_str())
        .collect();
    completes.sort_unstable();
    let mut hashes = spec.hashes();
    hashes.sort_unstable();
    assert_eq!(completes, hashes);
    assert_eq!(files_in(&dir.join("leases")), vec![], "all leases released");
    let _ = std::fs::remove_dir_all(&dir);
}
