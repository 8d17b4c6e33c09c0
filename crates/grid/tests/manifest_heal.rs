//! Regression tests for failure-manifest healing:
//!
//! * a clean **sharded** rerun clears the failures it healed — previously
//!   only a full (1/1) run ever cleared the manifest;
//! * `merge` heals a manifest whose recorded failures all verify in the
//!   store (and leaves one that does not);
//! * a corrupt manifest is reported (not silently swallowed as "no
//!   failures") and `fsck` quarantines it — as is a manifest naming the
//!   retired `Timeout` kind, while one carrying the retired `attempts`
//!   member still loads.

use std::path::PathBuf;

use chronus_core::MechanismKind;
use chronus_grid::{
    merge, run_grid, AppTrace, CellFailure, CellSpec, ExecOpts, FailureKind, FailureManifest,
    FaultPlan, GridSpec, ManifestState, ResultStore, Shard, WorkloadSpec,
};
use chronus_sim::SimConfig;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronus-grid-man-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_grid() -> GridSpec {
    let mut spec = GridSpec::new("man-sample");
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

#[test]
fn clean_sharded_rerun_clears_the_failures_it_healed() {
    let spec = sample_grid();
    let dir = scratch("shard-heal");
    let store = ResultStore::open(&dir).unwrap();

    // Shard 1/2 under unhealable panics: its cells fail permanently and
    // land in the failure manifest.
    let plan = FaultPlan::parse("panic:1.0,seed:5").unwrap();
    let broken = ExecOpts {
        faults: Some(plan),
        ..opts("1/2".parse().unwrap())
    };
    let out = run_grid(&spec, Some(&store), &broken);
    assert!(out.is_degraded());
    let manifest = store
        .load_manifest("man-sample")
        .expect("failures recorded");
    assert_eq!(manifest.failures.len(), 2, "shard 1/2 owns two cells");

    // A clean rerun of the SAME shard — still not a full (1/1) run — must
    // heal the manifest: every recorded failure now verifies in the store.
    let healed = run_grid(&spec, Some(&store), &opts("1/2".parse().unwrap()));
    assert!(!healed.is_degraded());
    assert_eq!(healed.stats.simulated, 2);
    assert!(
        store.load_manifest("man-sample").is_none(),
        "clean sharded rerun must clear the failures it healed"
    );

    // The other shard completes the grid.
    let two = run_grid(&spec, Some(&store), &opts("2/2".parse().unwrap()));
    assert!(!two.is_degraded());
    assert!(merge(&spec, &store).is_ok());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_heals_a_manifest_whose_failures_now_verify() {
    let spec = sample_grid();
    let dir = scratch("merge-heal");
    let store = ResultStore::open(&dir).unwrap();
    let out = run_grid(&spec, Some(&store), &opts(Shard::full()));
    assert!(out.is_complete());
    let hashes = spec.hashes();

    let failure = |hash: &str| CellFailure {
        index: 1,
        label: "stale-record".into(),
        hash: hash.to_string(),
        kind: FailureKind::Panic,
        error: "panic from an earlier degraded run".into(),
    };

    // A stale manifest whose failed cell has since been re-simulated:
    // merge heals it away.
    store
        .save_manifest(&FailureManifest {
            grid: "man-sample".into(),
            shard: "1/1".into(),
            failures: vec![failure(&hashes[1])],
        })
        .unwrap();
    assert!(merge(&spec, &store).is_ok());
    assert!(
        store.load_manifest("man-sample").is_none(),
        "merge must heal a manifest whose failures all verify"
    );

    // A manifest recording a failure that does NOT verify stays put.
    store
        .save_manifest(&FailureManifest {
            grid: "man-sample".into(),
            shard: "1/1".into(),
            failures: vec![failure("00000000000000000000000000000000")],
        })
        .unwrap();
    assert!(merge(&spec, &store).is_ok());
    assert!(
        store.load_manifest("man-sample").is_some(),
        "an unhealed failure must survive merge"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_is_reported_and_quarantined() {
    let dir = scratch("corrupt");
    let store = ResultStore::open(&dir).unwrap();
    std::fs::create_dir_all(dir.join("failures")).unwrap();
    std::fs::write(dir.join("failures/man-sample.json"), b"]] not json").unwrap();

    // The corrupt manifest is surfaced as Bad, not swallowed as "none".
    assert!(matches!(
        store.manifest_state("man-sample"),
        ManifestState::Bad(_)
    ));
    // load_manifest still behaves as absent (callers can't use garbage)…
    assert!(store.load_manifest("man-sample").is_none());
    assert!(dir.join("failures/man-sample.json").exists());

    // …and fsck quarantines it so the history is preserved for forensics.
    let report = store.fsck().unwrap();
    assert_eq!(report.quarantined_manifests.len(), 1);
    assert!(!report.is_clean());
    assert!(!dir.join("failures/man-sample.json").exists());
    assert!(dir.join("quarantine/failures/man-sample.json").exists());
    assert!(matches!(
        store.manifest_state("man-sample"),
        ManifestState::Missing
    ));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_old_timeout_manifest_is_reported_quarantined_and_healed() {
    // Before store writes stopped being retried, every record carried an
    // `"attempts"` member, which is now skipped; before simulations stopped
    // being watched by a wall clock, one could record `"kind": "Timeout"`,
    // which no longer parses.
    let spec = sample_grid();
    let manifest = FailureManifest {
        grid: "man-sample".into(),
        shard: "1/1".into(),
        failures: vec![CellFailure {
            index: 2,
            label: "429.mcf@1024".into(),
            hash: spec.hashes()[2].clone(),
            kind: FailureKind::Panic,
            error: "watchdog deadline 30.0s exceeded".into(),
        }],
    };
    for kind in ["Timeout", "Panic"] {
        let dir = scratch(&format!("old-{kind}"));
        let store = ResultStore::open(&dir).unwrap();
        store.save_manifest(&manifest).unwrap();
        let path = dir.join("failures/man-sample.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"Panic\"").count(), 1, "{text}");
        let old = text.replace("\"Panic\"", &format!("\"{kind}\", \"attempts\": 4"));
        std::fs::write(&path, old).unwrap();

        if kind == "Timeout" {
            // Reported as Bad, not read as a failure record…
            assert!(matches!(
                store.manifest_state("man-sample"),
                ManifestState::Bad(_)
            ));
            assert!(store.load_manifest("man-sample").is_none());

            // …and quarantined by fsck.
            let report = store.fsck().unwrap();
            assert_eq!(report.quarantined_manifests.len(), 1);
            assert!(dir.join("quarantine/failures/man-sample.json").exists());
        } else {
            // The retired member is skipped: the record loads as written.
            assert_eq!(store.load_manifest("man-sample").unwrap(), manifest);
        }

        // A clean run then completes with no manifest.
        let out = run_grid(&spec, Some(&store), &opts(Shard::full()));
        assert!(out.is_complete() && !out.is_degraded());
        assert!(matches!(
            store.manifest_state("man-sample"),
            ManifestState::Missing
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
