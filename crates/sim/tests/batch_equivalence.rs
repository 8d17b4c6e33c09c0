//! Batched lockstep engine vs solo runs: every member of a
//! [`System::run_batch`] call must produce a [`SimReport`] bit-identical
//! to its own solo [`System::run`] over the same traces — across all
//! mechanisms, mixed thresholds, mixed seeds, mixed VRD distributions,
//! and multi-core workloads. This is the contract that makes batching a
//! pure cache-fill accelerator: the grid store cannot tell which path
//! produced an entry.

use chronus_core::MechanismKind;
use chronus_cpu::Trace;
use chronus_ctrl::AddressMapping;
use chronus_sim::{SimConfig, System, VrdSpec};
use chronus_workloads::{perf_attack_trace, synthetic_app};

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = 4_000;
    cfg.nrh = 64;
    cfg.max_mem_cycles = 1 << 22;
    cfg
}

fn trace(app: &str, slot: u64, seed: u64) -> Trace {
    synthetic_app(app, slot)
        .expect("known app")
        .generate(5_000, seed)
}

fn assert_batch_matches_solo(cfgs: &[SimConfig], traces: &[Trace]) {
    let batch = System::run_batch(cfgs, traces);
    assert_eq!(batch.len(), cfgs.len());
    for (i, (cfg, batched)) in cfgs.iter().zip(&batch).enumerate() {
        let solo = System::build(cfg).run(traces.to_vec());
        assert_eq!(
            &solo, batched,
            "member {i} ({}@{} seed={} vrd={:?}) diverged from its solo run",
            cfg.mechanism, cfg.nrh, cfg.seed, cfg.vrd
        );
    }
}

#[test]
fn every_mechanism_is_bit_identical_to_its_solo_run() {
    let traces = vec![trace("429.mcf", 0, 42)];
    let cfgs: Vec<SimConfig> = std::iter::once(&MechanismKind::None)
        .chain(MechanismKind::all())
        .map(|&mech| {
            let mut cfg = base_cfg();
            cfg.mechanism = mech;
            cfg.oracle = true;
            cfg
        })
        .collect();
    assert_eq!(cfgs.len(), 12, "baseline + all eleven mechanisms");
    assert_batch_matches_solo(&cfgs, &traces);
}

#[test]
fn mixed_nrh_vrd_and_seed_batches_match_solo() {
    let traces = vec![trace("511.povray", 0, 7)];
    let mut cfgs = Vec::new();

    // Unmitigated members differing only in oracle parameters (N_RH, VRD
    // distribution): one timing cohort judged by a multi-lane oracle.
    for (nrh, vrd) in [
        (64u32, None),
        (
            128,
            Some(VrdSpec {
                min_pct: 50,
                seed: 1,
            }),
        ),
        (
            256,
            Some(VrdSpec {
                min_pct: 75,
                seed: 2,
            }),
        ),
        // Degenerate distribution: still a PerRow lane.
        (
            64,
            Some(VrdSpec {
                min_pct: 100,
                seed: 3,
            }),
        ),
    ] {
        let mut cfg = base_cfg();
        cfg.oracle = true;
        cfg.nrh = nrh;
        cfg.vrd = vrd;
        cfgs.push(cfg);
    }

    // PARA consumes the seed, so differing seeds fork timing cohorts.
    for seed in [1u64, 9] {
        let mut cfg = base_cfg();
        cfg.mechanism = MechanismKind::Para;
        cfg.oracle = true;
        cfg.seed = seed;
        cfgs.push(cfg);
    }

    // Chronus at different thresholds is timing-divergent: each member
    // forks onto its own controller clock (own cohort), still sharing the
    // decoded traces.
    for nrh in [64u32, 32] {
        let mut cfg = base_cfg();
        cfg.mechanism = MechanismKind::Chronus;
        cfg.oracle = true;
        cfg.nrh = nrh;
        cfgs.push(cfg);
    }

    // A duplicated member must come back twice, identically.
    cfgs.push(cfgs[0].clone());

    assert_batch_matches_solo(&cfgs, &traces);
}

#[test]
fn four_core_batches_match_solo() {
    let apps = ["429.mcf", "470.lbm", "tpch2", "511.povray"];
    let traces: Vec<Trace> = apps
        .iter()
        .enumerate()
        .map(|(i, app)| trace(app, i as u64, 42))
        .collect();
    let cfgs: Vec<SimConfig> = (0..3u64)
        .map(|s| {
            let mut cfg = SimConfig::four_core();
            cfg.instructions_per_core = 3_000;
            cfg.max_mem_cycles = 1 << 22;
            cfg.oracle = true;
            cfg.vrd = Some(VrdSpec {
                min_pct: 50,
                seed: s,
            });
            cfg
        })
        .collect();
    assert_batch_matches_solo(&cfgs, &traces);
}

#[test]
fn attack_trace_cohort_matches_solo() {
    // The §11 attacker keeps the MSHR file full, so its core spends the
    // run in the fill-gated stall; the cohort loop and the solo loop must
    // wake it on the same cycles. Three oracle-only variants share one
    // cohort, the Chronus member forks.
    let base = {
        let mut cfg = base_cfg();
        cfg.instructions_per_core = 2_000;
        cfg.mapping = Some(AddressMapping::Mop);
        cfg.llc.mshrs = 4;
        cfg.oracle = true;
        cfg
    };
    let traces = vec![perf_attack_trace(
        AddressMapping::Mop,
        &base.geometry,
        4,
        8,
        2_400,
    )];
    let mut cfgs: Vec<SimConfig> = [(64u32, None), (32, Some(50)), (128, Some(75))]
        .into_iter()
        .map(|(nrh, min_pct)| {
            let mut cfg = base.clone();
            cfg.nrh = nrh;
            cfg.vrd = min_pct.map(|min_pct| VrdSpec { min_pct, seed: 5 });
            cfg
        })
        .collect();
    let mut chronus = base.clone();
    chronus.mechanism = MechanismKind::Chronus;
    cfgs.push(chronus);
    assert_batch_matches_solo(&cfgs, &traces);
}

#[test]
fn scalar_and_degenerate_vrd_members_report_identical_flip_counts() {
    // A degenerate (min_pct = 100) distribution pins every row at the
    // nominal threshold, so its flip census must equal the scalar
    // member's exactly — inside one batch and against solo runs.
    let traces = vec![trace("429.mcf", 0, 11)];
    let mut scalar = base_cfg();
    scalar.oracle = true;
    let mut degenerate = scalar.clone();
    degenerate.vrd = Some(VrdSpec {
        min_pct: 100,
        seed: 99,
    });
    let batch = System::run_batch(&[scalar, degenerate], &traces);
    assert_eq!(batch[0].oracle_flips, batch[1].oracle_flips);
    assert_eq!(batch[0].oracle_max_acts, batch[1].oracle_max_acts);
}
