//! Acceptance tests for executors sharing one store at the same time.
//!
//! Static assignment is the one way to split a grid: executors racing on
//! one store with `--shard i/N` simulate disjoint cells, so no work is
//! duplicated, and the store they leave is byte-identical to a solo fill.
//! The executors run as threads, but each opens its own `ResultStore`,
//! exactly the state two separate processes would hold.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use chronus_core::MechanismKind;
use chronus_grid::{
    merge, run_grid, AppTrace, CellSpec, ExecOpts, GridOutcome, GridSpec, ResultStore, Shard,
    WorkloadSpec,
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

fn opts(shard: Shard) -> ExecOpts {
    ExecOpts {
        threads: 2,
        shard,
        progress: false,
        ..ExecOpts::default()
    }
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

/// Runs `--shard 1/2` and `--shard 2/2` at once on one store at `dir`.
fn race_two_shards(spec: &GridSpec, dir: &Path) -> [(Shard, GridOutcome); 2] {
    let shards: [Shard; 2] = ["1/2".parse().unwrap(), "2/2".parse().unwrap()];
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let handles = shards.map(|shard| {
            let start = &start;
            scope.spawn(move || {
                let store = ResultStore::open(dir).unwrap();
                start.wait();
                (shard, run_grid(spec, Some(&store), &opts(shard)))
            })
        });
        handles.map(|h| h.join().unwrap())
    })
}

/// Checks that two racing shards simulated exactly the cells each owns,
/// and that their store is byte-identical to a solo fill of `spec`.
fn assert_split_without_duplicates(spec: &GridSpec, tag: &str) {
    let dir_solo = scratch(&format!("{tag}-solo"));
    let store_solo = ResultStore::open(&dir_solo).unwrap();
    let solo = run_grid(spec, Some(&store_solo), &opts(Shard::full()));
    assert!(solo.is_complete() && !solo.is_degraded());
    assert_eq!(solo.stats.simulated, spec.len());

    let dir = scratch(&format!("{tag}-race"));
    let mut simulated = 0;
    for (shard, out) in race_two_shards(spec, &dir) {
        let owned = (0..spec.len()).filter(|&i| shard.owns(i)).count();
        assert!(owned > 0 && owned < spec.len(), "{shard:?} owns {owned}");
        assert!(!out.is_degraded(), "{:?}", out.stats);
        // A shard simulates the cells it owns and nothing else: the rest
        // are the other shard's, cached or skipped by the time it looks.
        assert_eq!(out.stats.simulated, owned, "{shard:?}: {:?}", out.stats);
        assert_eq!(
            out.stats.cached + out.stats.simulated + out.stats.skipped,
            spec.len(),
            "{:?}",
            out.stats
        );
        assert_eq!(out.stats.failed + out.stats.waited, 0);
        simulated += out.stats.simulated;
    }
    assert_eq!(simulated, spec.len(), "duplicated or lost work");

    // The racing store's entries are byte-identical to the solo run's,
    // and a later unsharded pass serves the whole grid from them.
    let store = ResultStore::open(&dir).unwrap();
    let hashes = store_solo.list().unwrap();
    assert_eq!(hashes, store.list().unwrap());
    for h in &hashes {
        let solo_bytes = std::fs::read(store_solo.path_of(h)).unwrap();
        let race_bytes = std::fs::read(store.path_of(h)).unwrap();
        assert_eq!(solo_bytes, race_bytes, "entry {h} differs from solo run");
    }
    assert_eq!(
        merge(spec, &store).expect("grid complete"),
        merge(spec, &store_solo).expect("grid complete")
    );
    let served = run_grid(spec, Some(&store), &opts(Shard::full()));
    assert_eq!(served.stats.cached, spec.len());
    assert_eq!(served.stats.simulated, 0);
    assert_eq!(served.reports, solo.reports);

    let _ = std::fs::remove_dir_all(&dir_solo);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_executors_never_duplicate_work() {
    assert_split_without_duplicates(&sample_grid(), "sample");
}

#[test]
fn racing_executors_split_no_cohort_member_twice() {
    // All 32 cells share one timing cohort; the shards split it by cell,
    // and each member is simulated by its owner alone.
    assert_split_without_duplicates(&cohort_grid(), "cohort");
}

#[test]
fn a_fully_cached_run_does_no_miss_path_work() {
    let spec = sample_grid();
    let hashes = spec.hashes();
    let dir = scratch("warm");
    let store = ResultStore::open(&dir).unwrap();
    let fill = run_grid(&spec, Some(&store), &opts(Shard::full()));
    assert_eq!(fill.stats.simulated, 4);
    assert_eq!(
        walls_in(&dir).len(),
        4,
        "the fill records every cell's cost"
    );

    // Serve with no sidecar to read: a pass with nothing to simulate reads
    // no sidecar, so it must not miss them — and must leave no trace of
    // its own.
    for hash in &hashes {
        std::fs::remove_file(dir.join(format!("{hash}.wall"))).unwrap();
    }
    let before = files_in(&dir);
    let served = run_grid(&spec, Some(&store), &opts(Shard::full()));
    assert_eq!(served.stats.cached, served.stats.total);
    assert_eq!(served.stats.cached, 4);
    assert_eq!(served.stats.simulated, 0);
    assert_eq!(
        served.stats.waited + served.stats.failed + served.stats.skipped,
        0
    );
    assert_eq!(served.reports, fill.reports);
    assert_eq!(walls_in(&dir), Vec::<String>::new(), "no sidecar recreated");
    assert_eq!(files_in(&dir), before, "a fully cached pass writes nothing");

    // One entry gone: exactly that cell simulates, and its cost is
    // recorded again.
    let victim = &hashes[2];
    std::fs::remove_file(store.path_of(victim)).unwrap();
    let refill = run_grid(&spec, Some(&store), &opts(Shard::full()));
    assert_eq!(refill.stats.simulated, 1, "{:?}", refill.stats);
    assert_eq!(refill.stats.cached, 3);
    assert_eq!(refill.reports, fill.reports);
    assert_eq!(walls_in(&dir), vec![victim.clone()]);
    let _ = std::fs::remove_dir_all(&dir);
}
