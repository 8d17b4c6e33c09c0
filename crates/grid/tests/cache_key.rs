//! Cache-key property tests: identical resolved configurations collide;
//! any change to a field that can alter the simulation changes the key.
//!
//! Also pins what keeps an existing store addressable and readable: the
//! key and digest are computed exactly as they were when its entries were
//! written, and everything the store reads back (entries and failure
//! manifests) goes through the single-pass reader with the `JsonValue` tree
//! as witness.

use chronus_core::MechanismKind;
use chronus_ctrl::AddressMapping;
use chronus_dram::TimingMode;
use chronus_grid::hash::digest128;
use chronus_grid::{
    cell_hash, simulate_cell, AppTrace, AttackSpec, CellFailure, CellKey, CellRecord, CellSpec,
    FailureKind, FailureManifest, ResultStore, WorkloadSpec,
};
use chronus_sim::SimConfig;
use proptest::prelude::*;
use serde::{Deserialize, JsonValue, Serialize};

const MECHS: [MechanismKind; 12] = [
    MechanismKind::None,
    MechanismKind::Prfm,
    MechanismKind::Prac1,
    MechanismKind::Prac2,
    MechanismKind::Prac4,
    MechanismKind::PracPrfm,
    MechanismKind::Chronus,
    MechanismKind::ChronusPb,
    MechanismKind::Graphene,
    MechanismKind::Hydra,
    MechanismKind::Para,
    MechanismKind::Abacus,
];

fn cell(mech_idx: usize, nrh: u32, instructions: u64, seed: u64) -> CellSpec {
    let mut cfg = SimConfig::four_core();
    cfg.mechanism = MECHS[mech_idx % MECHS.len()];
    cfg.nrh = nrh;
    cfg.instructions_per_core = instructions;
    cfg.seed = seed;
    let workload = WorkloadSpec::Apps {
        apps: (0..4)
            .map(|i| AppTrace::new("470.lbm", i, seed ^ (i << 8)))
            .collect(),
        trace_instructions: instructions + instructions / 10,
    };
    CellSpec::new("prop", workload, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn identical_configs_collide(
        mech in 0usize..12,
        nrh in 16u32..2048,
        instructions in 1_000u64..1_000_000,
        seed in 0u64..1_000_000,
    ) {
        let a = cell(mech, nrh, instructions, seed);
        let b = cell(mech, nrh, instructions, seed);
        prop_assert_eq!(cell_hash(&a), cell_hash(&b));
    }

    #[test]
    fn each_field_changes_the_key(
        mech in 0usize..12,
        nrh in 16u32..2048,
        instructions in 1_000u64..1_000_000,
        seed in 0u64..1_000_000,
    ) {
        let base = cell(mech, nrh, instructions, seed);
        let h = cell_hash(&base);

        // Mechanism.
        let other = cell(mech + 1, nrh, instructions, seed);
        prop_assert_ne!(&h, &cell_hash(&other));

        // RowHammer threshold.
        let other = cell(mech, nrh + 1, instructions, seed);
        prop_assert_ne!(&h, &cell_hash(&other));

        // Instruction budget (also perturbs the generated trace length).
        let other = cell(mech, nrh, instructions + 1, seed);
        prop_assert_ne!(&h, &cell_hash(&other));

        // Seed (flows into config and workload identity).
        let other = cell(mech, nrh, instructions, seed + 1);
        prop_assert_ne!(&h, &cell_hash(&other));
    }

    #[test]
    fn config_overrides_change_the_key(
        mech in 0usize..12,
        nrh in 16u32..2048,
    ) {
        let base = cell(mech, nrh, 10_000, 7);
        let h = cell_hash(&base);

        let mut c = base.clone();
        c.config.threshold_override = Some(4);
        prop_assert_ne!(&h, &cell_hash(&c));

        let mut c = base.clone();
        c.config.mapping = Some(AddressMapping::AbacusMop);
        prop_assert_ne!(&h, &cell_hash(&c));

        let mut c = base.clone();
        c.config.timing_override = Some(TimingMode::PracBuggy);
        prop_assert_ne!(&h, &cell_hash(&c));

        let mut c = base.clone();
        c.config.oracle = true;
        prop_assert_ne!(&h, &cell_hash(&c));

        let mut c = base.clone();
        c.config.max_mem_cycles += 1;
        prop_assert_ne!(&h, &cell_hash(&c));
    }

    #[test]
    fn workload_identity_changes_the_key(
        nrh in 16u32..2048,
        slot in 0u64..64,
    ) {
        let base = cell(0, nrh, 10_000, 7);
        let h = cell_hash(&base);

        // A different app profile.
        let mut c = base.clone();
        if let WorkloadSpec::Apps { apps, .. } = &mut c.workload {
            apps[0].app = "429.mcf".into();
        }
        prop_assert_ne!(&h, &cell_hash(&c));

        // A different placement slot.
        let mut c = base.clone();
        if let WorkloadSpec::Apps { apps, .. } = &mut c.workload {
            apps[0].slot = slot + 100;
        }
        prop_assert_ne!(&h, &cell_hash(&c));

        // A different trace length.
        let mut c = base.clone();
        if let WorkloadSpec::Apps { trace_instructions, .. } = &mut c.workload {
            *trace_instructions += 1;
        }
        prop_assert_ne!(&h, &cell_hash(&c));
    }
}

/// Compact and pretty text of `value` read back equal to it, and
/// re-serialize to exactly what the tree of the same text renders.
fn assert_witnessed<T>(value: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let compact = serde_json::to_string(value).unwrap();
    for text in [&compact, &serde_json::to_string_pretty(value).unwrap()] {
        let parsed: T = serde_json::from_str(text).unwrap();
        assert_eq!(&parsed, value);
        let tree = JsonValue::parse(text).unwrap();
        assert_eq!(serde_json::to_string(&parsed).unwrap(), compact);
        assert_eq!(serde_json::to_string(&tree).unwrap(), compact);
    }
}

/// Text with everything the writer must escape, picked by `picks`.
fn nasty(picks: &[usize]) -> String {
    const ALPHABET: [&str; 10] = ["a", "/", " ", "\"", "\\", "\n", "\u{1}", "é", "→", "𝄞"];
    picks.iter().map(|&i| ALPHABET[i % 10]).collect()
}

/// The reference the fused digest replaced: one FNV-1a pass per lane.
fn two_pass_digest(bytes: &[u8]) -> String {
    fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
        for &b in bytes {
            state ^= u64::from(b);
            state = state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        state
    }
    format!(
        "{:016x}{:016x}",
        fnv1a(bytes, 0xcbf2_9ce4_8422_2325),
        fnv1a(bytes, 0x6c62_272e_07bb_0142)
    )
}

#[test]
fn digest_of_nothing_is_the_two_offset_bases() {
    assert_eq!(digest128(b""), "cbf29ce4842223256c62272e07bb0142");
    assert_eq!(digest128(b""), two_pass_digest(b""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_digest_equals_two_passes(
        bytes in prop::collection::vec(0u8..=255, 0..600),
    ) {
        prop_assert_eq!(digest128(&bytes), two_pass_digest(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn borrowed_key_hashes_like_the_owned_key(
        mech in 0usize..12,
        nrh in 16u32..2048,
        instructions in 1_000u64..1_000_000,
        seed: u64,
        attacker: bool,
        label in prop::collection::vec(0usize..10, 0..6),
    ) {
        let mut c = cell(mech, nrh, instructions, seed);
        c.label = nasty(&label);
        c.config.oracle = seed & 1 != 0;
        c.config.obs = seed & 2 != 0;
        if attacker {
            let WorkloadSpec::Apps { apps, trace_instructions } = c.workload.clone() else {
                unreachable!("cell() builds Apps");
            };
            let attack = AttackSpec {
                mapping: AddressMapping::Mop,
                banks: 1 + (seed % 8) as usize,
                rows: 2 + (seed % 5) as usize,
            };
            c = CellSpec::new(
                c.label,
                WorkloadSpec::AppsWithAttacker { apps, trace_instructions, attack },
                c.config,
            );
        }
        let owned = serde_json::to_string(&CellKey::of(&c)).unwrap();
        prop_assert_eq!(cell_hash(&c), digest128(owned.as_bytes()));
    }

    #[test]
    fn failure_manifests_roundtrip(
        a in 0u64..=u64::MAX,
        kind in 0usize..6,
        text in prop::collection::vec(0usize..10, 0..12),
    ) {
        const FAILURES: [FailureKind; 3] =
            [FailureKind::Panic, FailureKind::Budget, FailureKind::StoreWrite];
        assert_witnessed(&FailureManifest {
            grid: nasty(&text),
            shard: "2/3".into(),
            failures: (0..kind)
                .map(|i| CellFailure {
                    index: a as usize % 1000 + i,
                    label: nasty(&text[..text.len().min(i)]),
                    hash: digest128(&[i as u8]),
                    kind: FAILURES[i % 3],
                    error: nasty(&text),
                })
                .collect(),
        });
    }
}

fn tiny_cell(mech: MechanismKind, oracle: bool, obs: bool) -> CellSpec {
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = 1_000;
    cfg.mechanism = mech;
    cfg.nrh = 64;
    cfg.oracle = oracle;
    cfg.obs = obs;
    let w = WorkloadSpec::Apps {
        apps: vec![AppTrace::new("429.mcf", 0, 5)],
        trace_instructions: 1_200,
    };
    CellSpec::new("tiny", w, cfg)
}

#[test]
fn store_records_roundtrip() {
    for (mech, oracle, obs) in [
        (MechanismKind::None, false, false),
        (MechanismKind::Chronus, true, false),
        (MechanismKind::Graphene, true, true),
        (MechanismKind::Prac4, false, true),
    ] {
        let cell = tiny_cell(mech, oracle, obs);
        assert_witnessed(&CellRecord {
            key: CellKey::of(&cell),
            report: simulate_cell(&cell),
        });
    }
}

/// The JSON payload of a real store entry (everything above the footer).
fn stored_payload() -> String {
    let dir = std::env::temp_dir().join(format!("chronus-grid-payload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let cell = tiny_cell(MechanismKind::Chronus, true, false);
    let hash = cell_hash(&cell);
    store.put(&hash, &cell, &simulate_cell(&cell)).unwrap();
    let text = std::fs::read_to_string(store.path_of(&hash)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let (payload, footer) = text.trim_end().rsplit_once('\n').unwrap();
    assert!(footer.starts_with("#chronus-cell v2 "), "{footer}");
    payload.to_string()
}

#[test]
fn a_damaged_entry_payload_is_an_error_never_a_panic() {
    let payload = stored_payload();
    assert!(payload.is_ascii(), "flips below assume one byte per char");
    assert!(serde_json::from_str::<CellRecord>(&payload).is_ok());

    for end in 0..payload.len() {
        let prefix = &payload[..end];
        assert!(
            serde_json::from_str::<CellRecord>(prefix).is_err(),
            "prefix {end}"
        );
        assert!(JsonValue::parse(prefix).is_err(), "prefix {end}");
    }

    for at in 0..payload.len() {
        // A NUL is legal nowhere in a JSON document.
        let mut bytes = payload.clone().into_bytes();
        bytes[at] = 0;
        let damaged = String::from_utf8(bytes).unwrap();
        assert!(
            serde_json::from_str::<CellRecord>(&damaged).is_err(),
            "NUL at {at}"
        );
        assert!(JsonValue::parse(&damaged).is_err(), "NUL at {at}");

        // A bit flip can leave a valid document (a digit becomes another
        // digit — what the checksum is for). Whatever the typed reader
        // then accepts, the tree accepts, with the same members.
        for mask in [0x01u8, 0x10, 0x20] {
            let mut bytes = payload.clone().into_bytes();
            bytes[at] ^= mask;
            let damaged = String::from_utf8(bytes).unwrap();
            let tree = JsonValue::parse(&damaged);
            if let Ok(record) = serde_json::from_str::<CellRecord>(&damaged) {
                assert!(tree.is_ok(), "flip {mask:#x} at {at}: tree rejects");
                let again = serde_json::to_string(&record).unwrap();
                assert_eq!(
                    serde_json::from_str::<CellRecord>(&again).unwrap(),
                    record,
                    "flip {mask:#x} at {at}"
                );
            }
        }
    }
}

#[test]
fn unchecksummed_files_cannot_overflow_the_stack() {
    // Failure manifests carry no checksum: whatever is on disk reaches the
    // reader. A file of brackets must be a parse error (the manifest then
    // reads as corrupt), not an abort.
    let brackets = "[".repeat(200_000);
    let unknown_member = format!("{{\"later\":{brackets}");
    for bomb in [&brackets, &unknown_member, &"{\"k\":".repeat(200_000)] {
        assert!(serde_json::from_str::<FailureManifest>(bomb).is_err());
        assert!(JsonValue::parse(bomb).is_err());
    }
    // The typed reader descends only through a member it does not know;
    // one object and 127 arrays are allowed, the next bracket is named.
    let err = serde_json::from_str::<FailureManifest>(&unknown_member).unwrap_err();
    assert_eq!(
        err.to_string(),
        "nesting deeper than 128 levels at byte 136"
    );
    let err = JsonValue::parse(&brackets).unwrap_err();
    assert_eq!(
        err.to_string(),
        "nesting deeper than 128 levels at byte 128"
    );
}
