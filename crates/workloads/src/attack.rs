//! Adversarial access patterns (§4 wave attack, §11 performance attack).
//!
//! Attack traces use non-cacheable loads ([`chronus_cpu::TraceOp::LoadNc`])
//! to model `clflush`-based hammering: every access reaches DRAM. Rows are
//! chosen through the *inverse* address mapping so the attacker hits the
//! exact (bank, row) coordinates it intends — the paper's threat model
//! assumes knowledge of the physical layout (§4).

use chronus_cpu::{Trace, TraceEntry, TraceOp};
use chronus_ctrl::AddressMapping;
use chronus_dram::{BankId, DramAddr, Geometry};

/// Builds the §4 wave attack: hammer `rows` decoy rows of one bank in
/// balanced rounds for `total_accesses` accesses.
///
/// Real wave attacks drop mitigated rows between rounds; for trace-driven
/// simulation (the attacker cannot observe refreshes mid-trace) we emit
/// the balanced round-robin pattern, which the paper's analysis shows is
/// the pressure component of the attack.
pub fn wave_attack_trace(
    mapping: AddressMapping,
    geo: &Geometry,
    bank: BankId,
    rows: &[u32],
    total_accesses: usize,
) -> Trace {
    assert!(!rows.is_empty(), "the wave needs at least one row");
    let mut t = Trace::new("wave-attack");
    for i in 0..total_accesses {
        let row = rows[i % rows.len()];
        let addr = mapping.encode(&DramAddr::new(bank, row, 0), geo);
        t.entries.push(TraceEntry {
            bubbles: 0,
            op: TraceOp::LoadNc(addr),
        });
    }
    t
}

/// Builds the §11 performance-degradation attack: hammer `rows_per_bank`
/// rows in each of `num_banks` banks (paper: 8 rows × 4 banks), cycling
/// banks fastest and rows next, so in trace order every return to a bank
/// names a different row.
///
/// Trace order does not make every access an activation. The pattern
/// repeats every `num_banks × rows_per_bank` accesses, the controller's
/// read queue can hold two requests to one row, and FR-FCFS serves the
/// second as a row hit: ROADMAP.md item 2(a) measured 0.50 ACTs per access
/// under Baseline (0.95 under PRAC-4, 0.49 under Chronus), single core,
/// N_RH 1024.
pub fn perf_attack_trace(
    mapping: AddressMapping,
    geo: &Geometry,
    num_banks: usize,
    rows_per_bank: usize,
    total_accesses: usize,
) -> Trace {
    assert!(num_banks >= 1 && rows_per_bank >= 2);
    let banks: Vec<BankId> = (0..num_banks)
        .map(|i| BankId::from_flat(i * 5 % geo.total_banks(), geo))
        .collect();
    // Spread target rows across the bank to avoid shared victims.
    let rows: Vec<u32> = (0..rows_per_bank).map(|i| (1000 + i * 64) as u32).collect();
    let mut t = Trace::new("perf-attack");
    for i in 0..total_accesses {
        let bank = banks[i % banks.len()];
        let row = rows[(i / banks.len()) % rows.len()];
        let addr = mapping.encode(&DramAddr::new(bank, row, 0), geo);
        t.entries.push(TraceEntry {
            bubbles: 0,
            op: TraceOp::LoadNc(addr),
        });
    }
    t
}

/// A classic double-sided hammer against one victim row: alternates the
/// two adjacent aggressors.
pub fn double_sided_trace(
    mapping: AddressMapping,
    geo: &Geometry,
    bank: BankId,
    victim: u32,
    total_accesses: usize,
) -> Trace {
    assert!(victim >= 1 && (victim as usize) < geo.rows - 1);
    let aggressors = [victim - 1, victim + 1];
    let mut t = Trace::new("double-sided");
    for i in 0..total_accesses {
        let addr = mapping.encode(&DramAddr::new(bank, aggressors[i % 2], 0), geo);
        t.entries.push(TraceEntry {
            bubbles: 0,
            op: TraceOp::LoadNc(addr),
        });
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_trace_round_robins_target_rows() {
        let geo = Geometry::ddr5();
        let bank = BankId::new(0, 2, 1);
        let rows = [10u32, 20, 30];
        let t = wave_attack_trace(AddressMapping::Mop, &geo, bank, &rows, 9);
        assert_eq!(t.entries.len(), 9);
        for (i, e) in t.entries.iter().enumerate() {
            let a = AddressMapping::Mop.decode(e.op.addr(), &geo);
            assert_eq!(a.bank, bank);
            assert_eq!(a.row, rows[i % 3]);
            assert!(matches!(e.op, TraceOp::LoadNc(_)));
        }
    }

    #[test]
    fn perf_attack_forces_row_conflicts() {
        let geo = Geometry::ddr5();
        let t = perf_attack_trace(AddressMapping::Mop, &geo, 4, 8, 64);
        // Consecutive accesses to the same bank must target different rows.
        let decoded: Vec<DramAddr> = t
            .entries
            .iter()
            .map(|e| AddressMapping::Mop.decode(e.op.addr(), &geo))
            .collect();
        for w in decoded.windows(5) {
            let (first, again) = (w[0], w[4]); // 4 banks: stride 4 revisits
            assert_eq!(first.bank, again.bank);
            assert_ne!(first.row, again.row, "revisit must conflict");
        }
        let banks: std::collections::HashSet<_> = decoded.iter().map(|d| d.bank).collect();
        assert_eq!(banks.len(), 4);
    }

    #[test]
    fn double_sided_alternates_neighbours() {
        let geo = Geometry::ddr5();
        let bank = BankId::new(1, 0, 0);
        let t = double_sided_trace(AddressMapping::RoBaRaCoCh, &geo, bank, 100, 10);
        let rows: Vec<u32> = t
            .entries
            .iter()
            .map(|e| AddressMapping::RoBaRaCoCh.decode(e.op.addr(), &geo).row)
            .collect();
        assert_eq!(&rows[..4], &[99, 101, 99, 101]);
    }
}
