//! Fast-forward / reference loop equivalence.
//!
//! The event-driven loop ([`System::run`]) is only allowed to exist
//! because it is provably observation-equivalent to the retained
//! cycle-by-cycle loop ([`System::run_reference`]): every [`SimReport`]
//! field — cycle counts, IPC, DRAM/controller statistics, mitigation
//! counters, energy — must match bit for bit across the paper's mechanism
//! matrix. Any divergence here means the speedup changed figure outputs.

use chronus_core::MechanismKind;
use chronus_cpu::{Trace, TraceEntry, TraceOp};
use chronus_ctrl::AddressMapping;
use chronus_dram::BankId;
use chronus_sim::{SimConfig, SimReport, System};
use chronus_workloads::{perf_attack_trace, synthetic_app, wave_attack_trace};

/// The equivalence matrix of the issue: controller-, device-, and
/// hybrid-side mechanisms at a relaxed and an aggressive threshold.
const MECHANISMS: [MechanismKind; 5] = [
    MechanismKind::None,
    MechanismKind::Prac4,
    MechanismKind::Chronus,
    MechanismKind::Prfm,
    MechanismKind::Graphene,
];
const NRH_POINTS: [u32; 2] = [1024, 64];

fn single_cfg(mech: MechanismKind, nrh: u32, insts: u64) -> SimConfig {
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = insts;
    cfg.mechanism = mech;
    cfg.nrh = nrh;
    cfg.max_mem_cycles = insts * 5_000;
    cfg
}

fn assert_identical(fast: &SimReport, naive: &SimReport, what: &str) {
    // Compare the load-bearing scalars first for readable failures, then
    // the whole report (energy, mitigation stats, oracle fields, …).
    assert_eq!(fast.mem_cycles, naive.mem_cycles, "{what}: mem_cycles");
    assert_eq!(fast.cpu_cycles, naive.cpu_cycles, "{what}: cpu_cycles");
    assert_eq!(fast.retired, naive.retired, "{what}: retired");
    assert_eq!(fast.ipc, naive.ipc, "{what}: ipc");
    assert_eq!(fast.dram, naive.dram, "{what}: dram stats");
    assert_eq!(fast.ctrl, naive.ctrl, "{what}: ctrl stats");
    assert_eq!(
        fast.dram_mitigation, naive.dram_mitigation,
        "{what}: dram mitigation stats"
    );
    assert_eq!(
        fast.ctrl_mitigation, naive.ctrl_mitigation,
        "{what}: ctrl mitigation stats"
    );
    assert_eq!(fast, naive, "{what}: full report");
}

fn check_single(mech: MechanismKind, nrh: u32, app: &str, insts: u64) {
    let cfg = single_cfg(mech, nrh, insts);
    let trace = || {
        synthetic_app(app, 0)
            .unwrap()
            .generate(insts + insts / 5, 11)
    };
    let fast = System::build(&cfg).run(vec![trace()]);
    let naive = System::build(&cfg).run_reference(vec![trace()]);
    assert!(!fast.truncated, "{mech}@{nrh}/{app} truncated");
    assert_identical(&fast, &naive, &format!("{mech}@{nrh}/{app}"));
}

#[test]
fn idle_heavy_app_matrix_is_bit_identical() {
    // 511.povray: the fast loop spends most of its time in bubble sprints
    // and full-system jumps — exactly the paths that could drift. A trace
    // entry is ≈ 10 k bubbles, so 500 k instructions reach ≈ 50 misses,
    // each drained behind a ready prefix while its fill is in flight.
    for mech in MECHANISMS {
        for nrh in NRH_POINTS {
            check_single(mech, nrh, "511.povray", 500_000);
        }
    }
}

#[test]
fn memory_bound_app_matrix_is_bit_identical() {
    // 429.mcf: queues stay hot, exercising the busy paths and the
    // wake/re-arm hand-off around refresh and back-off activity.
    for mech in MECHANISMS {
        for nrh in NRH_POINTS {
            check_single(mech, nrh, "429.mcf", 4_000);
        }
    }
}

#[test]
fn four_core_mix_is_bit_identical() {
    for (mech, nrh) in [(MechanismKind::Chronus, 64), (MechanismKind::Prac4, 1024)] {
        let mut cfg = SimConfig::four_core();
        cfg.instructions_per_core = 3_000;
        cfg.mechanism = mech;
        cfg.nrh = nrh;
        cfg.max_mem_cycles = 20_000_000;
        let traces = || {
            ["429.mcf", "470.lbm", "tpch2", "511.povray"]
                .iter()
                .enumerate()
                .map(|(i, n)| synthetic_app(n, i as u64).unwrap().generate(4_000, 17))
                .collect::<Vec<_>>()
        };
        let fast = System::build(&cfg).run(traces());
        let naive = System::build(&cfg).run_reference(traces());
        assert_identical(&fast, &naive, &format!("4-core {mech}@{nrh}"));
    }
}

/// A store-heavy trace whose lines alias across banks and LLC sets:
/// every store misses, fills, and evicts a dirty victim, so the write
/// queue rides the drain-mode hysteresis (`wr_high`/`wr_low`) constantly.
fn write_thrash_trace(entries: usize) -> Trace {
    let mut t = Trace::new("write-thrash");
    for i in 0..entries {
        // Large, co-prime strides: distinct lines that revisit the same
        // LLC sets often enough to force dirty evictions.
        let addr = (i as u64 * 4288) % (1 << 22);
        t.entries.push(TraceEntry {
            bubbles: (i % 3) as u32,
            op: TraceOp::Store(addr),
        });
    }
    t
}

fn check_trace(mech: MechanismKind, nrh: u32, trace: &Trace, insts: u64, what: &str) {
    let mut cfg = single_cfg(mech, nrh, insts);
    // Attack traces aim at exact (bank, row) coordinates through the
    // inverse mapping; pin the mapping so the coordinates stay honest for
    // mechanisms that prefer a different default.
    cfg.mapping = Some(AddressMapping::Mop);
    let fast = System::build(&cfg).run(vec![trace.clone()]);
    let naive = System::build(&cfg).run_reference(vec![trace.clone()]);
    assert_identical(&fast, &naive, what);
}

#[test]
fn attack_pattern_matrix_is_bit_identical() {
    // The §11 performance attack keeps a handful of banks row-conflicting
    // nonstop: RFM / back-off / PRFM activity is continuous, so the wake
    // computation must agree with the reference tick ladder under load.
    let cfg = SimConfig::single_core();
    let geo = cfg.geometry;
    let insts = 2_500u64;
    let accesses = (insts + insts / 5) as usize;
    let attack = |mapping| perf_attack_trace(mapping, &geo, 4, 8, accesses);
    for mech in [
        MechanismKind::Prac4,
        MechanismKind::Chronus,
        MechanismKind::Prfm,
    ] {
        for nrh in [256, 32] {
            check_trace(
                mech,
                nrh,
                &attack(AddressMapping::Mop),
                insts,
                &format!("perf-attack {mech}@{nrh}"),
            );
        }
    }
}

#[test]
fn wave_attack_vrr_storm_is_bit_identical() {
    // Hammering one bank's decoy rows at a low threshold floods the VRR
    // queue (Graphene) / trips probabilistic refreshes (Para): the VRR
    // service window is part of the wake computation and must not drift.
    let cfg = SimConfig::single_core();
    let geo = cfg.geometry;
    let bank = BankId::from_flat(3, &geo);
    let rows: Vec<u32> = (0..6).map(|i| 2_000 + i * 32).collect();
    let insts = 2_500u64;
    let trace = wave_attack_trace(
        AddressMapping::Mop,
        &geo,
        bank,
        &rows,
        (insts + insts / 5) as usize,
    );
    for (mech, nrh) in [
        (MechanismKind::Graphene, 64),
        (MechanismKind::Graphene, 32),
        (MechanismKind::Para, 64),
        (MechanismKind::Chronus, 32),
    ] {
        check_trace(
            mech,
            nrh,
            &trace,
            insts,
            &format!("wave-attack {mech}@{nrh}"),
        );
    }
}

#[test]
fn mshr_pressure_matrix_is_bit_identical() {
    // A core the LLC rejected for want of an MSHR sleeps until the next
    // fill instead of re-polling every cycle; the reference loop still
    // polls. From one MSHR (every access but one is rejected) to the
    // default 64 (only the `LoadNc` attacker ever fills the file), on the
    // two attack generators and on a four-core mix where the attacker's
    // uncached loads and 470.lbm's store misses compete for entries, every
    // mechanism must see the retries land on exactly the same cycles.
    let geo = SimConfig::single_core().geometry;
    let insts = 600u64;
    let accesses = (insts + insts / 5) as usize;
    let perf = perf_attack_trace(AddressMapping::Mop, &geo, 4, 8, accesses);
    let rows: Vec<u32> = (0..6).map(|i| 2_000 + i * 32).collect();
    let wave = wave_attack_trace(
        AddressMapping::Mop,
        &geo,
        BankId::from_flat(3, &geo),
        &rows,
        accesses,
    );
    let app = |name: &str, slot: u64| synthetic_app(name, slot).unwrap().generate(750, 17);
    let mix = vec![
        perf.clone(),
        app("470.lbm", 1),
        app("429.mcf", 2),
        app("470.lbm", 3),
    ];
    let mechanisms = std::iter::once(&MechanismKind::None).chain(MechanismKind::all());
    for (m, &mech) in mechanisms.enumerate() {
        for (k, mshrs) in [1usize, 4, 64].into_iter().enumerate() {
            for (name, traces) in [
                ("perf-attack", vec![perf.clone()]),
                ("wave-attack", vec![wave.clone()]),
                ("attacker+lbm mix", mix.clone()),
            ] {
                let mut cfg = if traces.len() == 4 {
                    SimConfig::four_core()
                } else {
                    SimConfig::single_core()
                };
                cfg.instructions_per_core = insts;
                cfg.mechanism = mech;
                cfg.nrh = 64;
                cfg.mapping = Some(AddressMapping::Mop);
                cfg.llc.mshrs = mshrs;
                cfg.obs = (m + k) % 2 == 0;
                cfg.max_mem_cycles = insts * 5_000;
                let fast = System::build(&cfg).run(traces.clone());
                let naive = System::build(&cfg).run_reference(traces);
                let what = format!("{name} {mech}@64 mshrs={mshrs}");
                assert!(!fast.truncated, "{what} truncated");
                assert_eq!(fast.obs.is_some(), cfg.obs, "{what}: obs presence");
                assert_identical(&fast, &naive, &what);
            }
        }
    }
}

#[test]
fn write_drain_thrash_is_bit_identical() {
    // Dirty evictions keep the write queue around the drain thresholds;
    // the memoized wake must replicate the next tick's drain-mode verdict
    // (preference hysteresis) exactly or the queues are served in a
    // different order.
    let insts = 3_000u64;
    let trace = write_thrash_trace((insts + insts / 5) as usize);
    for (mech, nrh) in [
        (MechanismKind::None, 1024),
        (MechanismKind::Prac4, 64),
        (MechanismKind::Prfm, 64),
    ] {
        let cfg = single_cfg(mech, nrh, insts);
        let fast = System::build(&cfg).run(vec![trace.clone()]);
        let naive = System::build(&cfg).run_reference(vec![trace.clone()]);
        assert_identical(&fast, &naive, &format!("write-thrash {mech}@{nrh}"));
    }
}

#[test]
fn obs_reports_are_bit_identical_across_loops() {
    // The observability probe samples at command-issue events, which both
    // loops execute in the same order at the same cycles — so the entire
    // ObsReport (histograms, pause intervals, entropy floats) must match
    // bit for bit, exactly like every other report field. A divergence
    // here means a hook fired on a loop-specific path (e.g. per tick).
    for mech in MECHANISMS {
        for nrh in NRH_POINTS {
            let mut cfg = single_cfg(mech, nrh, 3_000);
            cfg.obs = true;
            let trace = || synthetic_app("429.mcf", 0).unwrap().generate(3_600, 11);
            let fast = System::build(&cfg).run(vec![trace()]);
            let naive = System::build(&cfg).run_reference(vec![trace()]);
            let what = format!("obs {mech}@{nrh}");
            assert!(fast.obs.is_some(), "{what}: probe did not report");
            assert_eq!(fast.obs, naive.obs, "{what}: ObsReport diverged");
            assert_identical(&fast, &naive, &what);
        }
    }
}

#[test]
fn obs_probe_never_perturbs_the_simulation() {
    // The probe is strictly observational: with obs on, every
    // pre-existing report field must be bit-identical to the obs-off run
    // of the same cell. Mechanisms with heavy mitigation traffic (pause
    // hooks firing constantly) are the interesting cases.
    for (mech, nrh) in [
        (MechanismKind::None, 1024),
        (MechanismKind::Prac4, 64),
        (MechanismKind::Chronus, 64),
        (MechanismKind::Graphene, 64),
    ] {
        let cfg_off = single_cfg(mech, nrh, 3_000);
        let mut cfg_on = cfg_off.clone();
        cfg_on.obs = true;
        let trace = || synthetic_app("429.mcf", 0).unwrap().generate(3_600, 11);
        let off = System::build(&cfg_off).run(vec![trace()]);
        let on = System::build(&cfg_on).run(vec![trace()]);
        assert!(off.obs.is_none(), "{mech}@{nrh}: obs-off run has a report");
        assert!(on.obs.is_some(), "{mech}@{nrh}: obs-on run lost its report");
        let mut stripped = on.clone();
        stripped.obs = None;
        assert_eq!(
            stripped, off,
            "{mech}@{nrh}: the probe changed a pre-existing report field"
        );
    }
}

#[test]
fn remaining_mechanisms_match_on_a_smoke_point() {
    // Everything the headline matrix skips still has to agree.
    for mech in [
        MechanismKind::Prac1,
        MechanismKind::Prac2,
        MechanismKind::PracPrfm,
        MechanismKind::ChronusPb,
        MechanismKind::Hydra,
        MechanismKind::Para,
        MechanismKind::Abacus,
    ] {
        check_single(mech, 128, "462.libquantum", 2_500);
    }
}
