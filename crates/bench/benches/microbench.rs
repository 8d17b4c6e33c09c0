//! Criterion microbenchmarks of the simulator's hot paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use chronus_core::hydra::HydraConfig;
use chronus_core::{decrement, Att, Hydra, MechanismKind, MisraGries};
use chronus_ctrl::{AddressMapping, CtrlMitigation};
use chronus_dram::{BankId, Command, DramAddr, DramConfig, DramDevice, Geometry, RowTable};
use chronus_security::wave::{prac_wave_max_acts, PracBackOff, WaveTiming};
use chronus_sim::{SimConfig, System};
use chronus_workloads::synthetic_app;

fn bench_dram_row_cycle(c: &mut Criterion) {
    c.bench_function("dram/act_rd_pre_cycle", |b| {
        let mut cfg = DramConfig::ddr5_baseline();
        cfg.strict = false;
        b.iter_batched(
            || DramDevice::new(cfg.clone()),
            |mut dev| {
                let t = *dev.timings();
                let bank = BankId::new(0, 0, 0);
                let mut now = 0u64;
                for row in 0..64u32 {
                    dev.issue(&Command::Act { bank, row }, now);
                    dev.issue(&Command::Rd { bank, col: 0 }, now + t.rcd);
                    dev.issue(&Command::Pre { bank }, now + t.ras);
                    now += t.rc;
                }
                dev
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_row_table(c: &mut Criterion) {
    // Counter increments scattered over every row of the Table 2 geometry:
    // directory lookup + page access with every page resident after the
    // first few thousand iterations.
    c.bench_function("dram/row_table_slot_random", |b| {
        let geo = Geometry::ddr5();
        let mut table = RowTable::new(geo.total_banks(), geo.rows);
        let mut x = 0x9E37_79B9u32;
        b.iter(|| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let slot = table.slot((x >> 26) as usize, (x >> 10) as usize & 0xFFFF);
            *slot += 1;
            *slot
        })
    });
}

fn bench_mapping_decode(c: &mut Criterion) {
    let geo = Geometry::ddr5();
    c.bench_function("ctrl/mop_decode", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(0x1_0040);
            std::hint::black_box(AddressMapping::Mop.decode(addr, &geo))
        })
    });
}

fn bench_att_observe(c: &mut Criterion) {
    c.bench_function("core/att_observe", |b| {
        let mut att = Att::new(4);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            att.observe(i % 64, i);
        })
    });
}

fn bench_misra_gries(c: &mut Criterion) {
    c.bench_function("core/misra_gries_observe_1k_entries", |b| {
        let mut mg = MisraGries::new(1024);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(7);
            mg.observe(i % 4096)
        })
    });
    // Graphene's per-bank table at N_RH = 32 (W/T + 1 counters) under a
    // benign workload: a few hundred live rows, half the activations to a
    // row not tracked yet this epoch (the insert path), one clear per 600.
    c.bench_function("core/misra_gries_observe_42k_capacity_300_live", |b| {
        let mut mg = MisraGries::new(42_501);
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            if i == 600 {
                mg.clear();
                i = 0;
            }
            mg.observe(i % 300)
        })
    });
}

fn bench_hydra(c: &mut Criterion) {
    // Every activation in the per-row phase, over exactly as many rows as
    // the RCT cache holds: a full 4096-line cache, all hits, a trigger
    // every 16th visit of a row.
    c.bench_function("core/hydra_on_activate_tracked", |b| {
        let geo = Geometry::ddr5();
        let cfg = HydraConfig {
            group_threshold: 0,
            ..HydraConfig::for_nrh(32, u64::MAX)
        };
        let mut hydra = Hydra::new(geo, cfg);
        let mut actions = Vec::new();
        let addr_of = |i: usize| {
            let key = i % cfg.cache_entries;
            let bank = BankId::from_flat(key % geo.total_banks(), &geo);
            DramAddr::new(bank, (key / geo.total_banks()) as u32, 0)
        };
        for i in 0..cfg.cache_entries {
            hydra.on_activate(addr_of(i), 0, &mut actions);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(7);
            actions.clear();
            hydra.on_activate(addr_of(i), 0, &mut actions);
            actions.len()
        })
    });
}

fn bench_decrementer(c: &mut Criterion) {
    c.bench_function("core/gate_level_decrement", |b| {
        let mut x = 0u8;
        b.iter(|| {
            x = x.wrapping_add(1);
            decrement(x)
        })
    });
}

fn bench_wave_model(c: &mut Criterion) {
    let t = WaveTiming::prac_default();
    c.bench_function("security/prac_wave_recurrence_16k_rows", |b| {
        b.iter(|| prac_wave_max_acts(PracBackOff::prac_n(4, 1), 16_384, &t))
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let app = synthetic_app("429.mcf", 0).unwrap();
    c.bench_function("workloads/generate_100k_instr", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            app.generate(100_000, seed)
        })
    });
}

fn bench_system_build(c: &mut Criterion) {
    // Build + drop of one cell's `System` at the paper geometry: what a
    // cold grid pays per cell before the first simulated cycle.
    let mut group = c.benchmark_group("sim/system_build");
    for (name, mech, oracle) in [
        ("baseline", MechanismKind::None, false),
        ("prfm", MechanismKind::Prfm, false),
        ("prac4", MechanismKind::Prac4, false),
        ("chronus", MechanismKind::Chronus, false),
        ("prac4_oracle", MechanismKind::Prac4, true),
    ] {
        let mut cfg = SimConfig::single_core();
        cfg.mechanism = mech;
        cfg.nrh = 128;
        cfg.oracle = oracle;
        group.bench_function(name, |b| b.iter(|| System::build(&cfg)));
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/end_to_end_5k_instr");
    group.sample_size(10);
    for mech in [
        MechanismKind::None,
        MechanismKind::Chronus,
        MechanismKind::Prac4,
    ] {
        group.bench_function(mech.label(), |b| {
            b.iter(|| {
                let mut cfg = SimConfig::single_core();
                cfg.instructions_per_core = 5_000;
                cfg.mechanism = mech;
                cfg.nrh = 128;
                let t = synthetic_app("470.lbm", 0).unwrap().generate(6_000, 1);
                System::build(&cfg).run(vec![t])
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dram_row_cycle,
    bench_row_table,
    bench_mapping_decode,
    bench_att_observe,
    bench_misra_gries,
    bench_hydra,
    bench_decrementer,
    bench_wave_model,
    bench_trace_generation,
    bench_system_build,
    bench_end_to_end,
);
criterion_main!(benches);
