//! Randomized fast-loop / reference-loop equivalence.
//!
//! The matrix tests in `loop_equivalence.rs` pin known-hostile workloads;
//! this file closes the gaps between them: random traces (random op mix,
//! bubble spacing, and address clustering), random mechanisms, and random
//! thresholds, all asserting that [`System::run`] and
//! [`System::run_reference`] produce bit-identical [`SimReport`]s.

use chronus_core::MechanismKind;
use chronus_cpu::{Trace, TraceEntry, TraceOp};
use chronus_sim::{SimConfig, System, VrdSpec};
use proptest::prelude::*;

/// Mechanisms sampled by the property: one per mitigation family
/// (none, PRAC+ABO, hybrid, PRFM, tracker+VRR, probabilistic).
const MECHANISMS: [MechanismKind; 6] = [
    MechanismKind::None,
    MechanismKind::Prac4,
    MechanismKind::Chronus,
    MechanismKind::Prfm,
    MechanismKind::Graphene,
    MechanismKind::Para,
];

/// MSHR-file sizes sampled by both properties: from one entry (nearly
/// every miss is rejected and the core sleeps until the fill) to the
/// Table 2 default.
const MSHRS: [usize; 5] = [1, 2, 4, 16, 64];

/// Builds a trace from sampled `(bubbles, kind, addr)` triples, folding
/// each address into a `footprint_bits`-sized working set.
fn trace_from(entries: &[(u32, u8, u64)], footprint_bits: u32) -> Trace {
    let mut t = Trace::new("random");
    let mask = (1u64 << footprint_bits) - 1;
    for &(bubbles, kind, addr) in entries {
        let addr = addr & mask;
        let op = match kind {
            // Loads dominate so the read queue stays hot; stores force
            // dirty evictions; non-cacheable loads bypass the LLC and
            // stress the per-access DRAM path.
            0..=4 => TraceOp::Load(addr),
            5..=7 => TraceOp::Store(addr),
            _ => TraceOp::LoadNc(addr),
        };
        t.entries.push(TraceEntry { bubbles, op });
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Each case runs a full fast and reference simulation; the case count
    // is small but every run covers thousands of memory cycles across
    // refresh, drain, back-off, and VRR activity.
    #[test]
    fn random_traces_run_bit_identical_to_the_reference_loop(
        entries in proptest::collection::vec((0u32..12, 0u8..10, 0u64..u64::MAX), 600..1800),
        mech_idx in 0usize..MECHANISMS.len(),
        nrh_exp in 5u32..11,
        // Small footprints maximize row conflicts; large ones maximize
        // LLC miss rates. Sample both regimes.
        footprint_bits in 14u32..26,
        mshr_idx in 0usize..MSHRS.len(),
    ) {
        let mech = MECHANISMS[mech_idx];
        let nrh = 1u32 << nrh_exp;
        let insts = (entries.len() as u64 * 4) / 5;
        let trace = trace_from(&entries, footprint_bits);
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = insts;
        cfg.mechanism = mech;
        cfg.nrh = nrh;
        cfg.llc.mshrs = MSHRS[mshr_idx];
        cfg.max_mem_cycles = insts * 10_000;
        // Attach the observability probe on half the sampled space
        // (deterministically, so failures replay): obs-on cases must stay
        // bit-identical including the ObsReport section.
        cfg.obs = nrh_exp % 2 == 0;
        let fast = System::build(&cfg).run(vec![trace.clone()]);
        let naive = System::build(&cfg).run_reference(vec![trace]);
        prop_assert_eq!(fast.obs.is_some(), cfg.obs, "obs presence mismatch");
        prop_assert_eq!(
            &fast,
            &naive,
            "{}@{} mshrs={} diverged",
            mech,
            nrh,
            cfg.llc.mshrs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Fuzzes the batched lockstep engine over mechanism × N_RH × seed ×
    // VRD variants on one random trace: every member of a
    // `System::run_batch` must be bit-identical to its own solo
    // `System::run`. Random seeds across non-PARA members double as a
    // check that nothing but PARA consumes the seed (the cohort key
    // normalizes it away).
    #[test]
    fn random_batches_run_bit_identical_to_solo_runs(
        entries in proptest::collection::vec((0u32..12, 0u8..10, 0u64..u64::MAX), 300..900),
        // `min_pct` 0 encodes "no VRD" (the scalar oracle); 1..=100 is a
        // real distribution, 100 being the degenerate one.
        variants in proptest::collection::vec(
            (0usize..MECHANISMS.len(), 5u32..11, 0u32..101u32, 0u64..u64::MAX),
            2..5,
        ),
        footprint_bits in 14u32..26,
        mshr_idx in 0usize..MSHRS.len(),
    ) {
        let insts = (entries.len() as u64 * 4) / 5;
        let traces = vec![trace_from(&entries, footprint_bits)];
        let cfgs: Vec<SimConfig> = variants
            .iter()
            .map(|&(mech_idx, nrh_exp, vrd_pct, seed)| {
                let mut cfg = SimConfig::single_core();
                cfg.instructions_per_core = insts;
                cfg.mechanism = MECHANISMS[mech_idx];
                cfg.nrh = 1u32 << nrh_exp;
                cfg.seed = seed;
                cfg.oracle = true;
                cfg.llc.mshrs = MSHRS[mshr_idx];
                cfg.vrd = (vrd_pct > 0).then_some(VrdSpec {
                    min_pct: vrd_pct,
                    seed: seed ^ 0x5a,
                });
                cfg.max_mem_cycles = insts * 10_000;
                cfg
            })
            .collect();
        let batch = System::run_batch(&cfgs, &traces);
        for (cfg, batched) in cfgs.iter().zip(&batch) {
            let solo = System::build(cfg).run(traces.clone());
            prop_assert_eq!(
                &solo,
                batched,
                "{}@{} seed={} vrd={:?} diverged from its solo run",
                cfg.mechanism,
                cfg.nrh,
                cfg.seed,
                cfg.vrd
            );
        }
    }
}
