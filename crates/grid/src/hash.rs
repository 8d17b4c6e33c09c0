//! Stable content-addressed cell hashing.
//!
//! The key is the canonical compact-JSON rendering of a
//! [`CellKey`](crate::cell::CellKey), folded through two independent 64-bit
//! FNV-1a lanes into a 128-bit hex digest.
//! JSON-then-hash (rather than `std::hash::Hash`) makes the digest stable
//! across Rust versions, platforms and processes — the property the on-disk
//! store and multi-machine sharding depend on. `std`'s `DefaultHasher` is
//! explicitly *not* guaranteed stable, so it is not used here.

use crate::cell::{CellKeyRef, CellSpec};

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Standard FNV-1a offset basis.
const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Second, independent basis so the two lanes decorrelate.
const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// 128-bit hex digest (32 lowercase hex chars) of `bytes`: lane A is
/// [`mix64`], lane B the same fold from a second basis. Both lanes advance
/// in one pass over the bytes — the two multiply chains are independent,
/// so the second lane rides in the first one's latency shadow.
pub fn digest128(bytes: &[u8]) -> String {
    let (mut a, mut b) = (OFFSET_A, OFFSET_B);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    format!("{a:016x}{b:016x}")
}

/// Stable 64-bit FNV-1a of `bytes` (lane A).
///
/// The deterministic building block behind retry jitter and fault-injection
/// decisions: unlike `std::hash::DefaultHasher`, the value is guaranteed
/// identical across Rust versions, platforms and processes.
pub fn mix64(bytes: &[u8]) -> u64 {
    fnv1a(bytes, OFFSET_A)
}

/// Maps `bytes` deterministically onto `[0, 1)`.
///
/// Used wherever a reproducible pseudo-random draw is needed (fault
/// injection rates, backoff jitter): the same input always yields the same
/// point of the unit interval, on every machine.
pub fn unit01(bytes: &[u8]) -> f64 {
    // 53 mantissa bits keep the quotient exact in f64.
    (mix64(bytes) >> 11) as f64 / (1u64 << 53) as f64
}

/// The content-addressed store key of one cell.
pub fn cell_hash(cell: &CellSpec) -> String {
    let json = serde_json::to_string(&CellKeyRef(cell)).expect("cell keys always serialize");
    digest128(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{AppTrace, WorkloadSpec};
    use chronus_sim::SimConfig;

    fn cell(nrh: u32) -> CellSpec {
        let w = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("429.mcf", 0, 1)],
            trace_instructions: 1_000,
        };
        let mut cfg = SimConfig::single_core();
        cfg.nrh = nrh;
        CellSpec::new("label", w, cfg)
    }

    #[test]
    fn digest_is_stable_and_hexy() {
        let d = digest128(b"chronus");
        assert_eq!(d.len(), 32);
        assert_eq!(d, digest128(b"chronus"));
        assert_ne!(d, digest128(b"chronut"));
        assert!(d.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn label_is_not_part_of_the_key() {
        let a = cell(64);
        let mut b = a.clone();
        b.label = "renamed".into();
        assert_eq!(cell_hash(&a), cell_hash(&b));
    }

    #[test]
    fn config_changes_change_the_key() {
        assert_ne!(cell_hash(&cell(64)), cell_hash(&cell(32)));
    }

    #[test]
    fn unit01_is_deterministic_and_in_range() {
        for input in [b"a".as_slice(), b"b", b"chronus", b""] {
            let u = unit01(input);
            assert!((0.0..1.0).contains(&u), "{u} out of range");
            assert_eq!(u, unit01(input));
        }
        assert_ne!(unit01(b"a"), unit01(b"b"));
        assert_eq!(mix64(b"seed"), mix64(b"seed"));
    }
}
