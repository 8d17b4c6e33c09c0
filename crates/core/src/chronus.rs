//! Chronus (§7): Concurrent Counter Update + Chronus Back-Off.
//!
//! **CCU (§7.1).** Activation counters live in a small *counter subarray*
//! physically separate from the data rows. The counter read–increment–write
//! happens concurrently with the data-row access (subarray-level
//! parallelism), so the device keeps baseline DDR5 timings — the mechanism
//! does its counter work in [`DramMitigation::on_activate`] and the device
//! runs in [`chronus_dram::TimingMode::Baseline`]. Counters are 8 bits wide
//! and updated by the Appendix A decrementer; a back-off triggers when the
//! hardware budget (`256`, or `N_BO` for configured thresholds below 256)
//! is exhausted.
//!
//! **Chronus Back-Off (§7.2).** The chip keeps `alert_n` asserted until
//! *every* row whose count reached `N_BO` has had its victims refreshed
//! ([`DramMitigation::alert_still_needed`]), and imposes no delay period.
//! Setting `dynamic_backoff = false` yields **Chronus-PB** (§9): CCU with
//! PRAC's fixed-count back-off policy.

use chronus_dram::{
    BankId, Cycle, DramMitigation, Geometry, MitigationStats, RfmOutcome, RowId, RowTable,
};

use crate::att::Att;

/// The Chronus on-die mechanism state.
#[derive(Debug)]
pub struct ChronusMechanism {
    geo: Geometry,
    nbo: u32,
    dynamic_backoff: bool,
    counters: RowTable,
    att: Vec<Att>,
    /// Rows at or above `N_BO`, per bank — the exact set Chronus Back-Off
    /// must service before `alert_n` de-asserts (§7.2). Tracked explicitly
    /// (not through the ATT) so equal-count rows can never be lost.
    hot_list: Vec<Vec<RowId>>,
    /// Rows currently at or above `N_BO`, per rank (drives
    /// `alert_still_needed`).
    hot_rows: Vec<u32>,
    borrow_toggle: Vec<bool>,
    stats: MitigationStats,
}

impl ChronusMechanism {
    /// Full Chronus: CCU + Chronus Back-Off.
    pub fn new(geo: Geometry, nbo: u32, att_entries: usize) -> Self {
        Self::with_policy(geo, nbo, att_entries, true)
    }

    /// Chronus-PB: CCU with PRAC's back-off policy (§9).
    pub fn chronus_pb(geo: Geometry, nbo: u32, att_entries: usize) -> Self {
        Self::with_policy(geo, nbo, att_entries, false)
    }

    fn with_policy(geo: Geometry, nbo: u32, att_entries: usize, dynamic_backoff: bool) -> Self {
        assert!(nbo >= 1, "N_BO must be at least 1");
        assert!(
            nbo <= 256,
            "the 8-bit decrementer counter caps N_BO at 256 (§7.1)"
        );
        let banks = geo.total_banks();
        Self {
            geo,
            nbo,
            dynamic_backoff,
            counters: RowTable::new(banks, geo.rows),
            att: (0..banks).map(|_| Att::new(att_entries)).collect(),
            hot_list: (0..banks).map(|_| Vec::new()).collect(),
            hot_rows: vec![0; geo.ranks],
            borrow_toggle: vec![false; geo.ranks],
            stats: MitigationStats::default(),
        }
    }

    /// The configured back-off threshold.
    pub fn nbo(&self) -> u32 {
        self.nbo
    }

    /// Whether this instance runs Chronus Back-Off (vs. Chronus-PB).
    pub fn is_dynamic(&self) -> bool {
        self.dynamic_backoff
    }

    fn reset_row(&mut self, flat: usize, rank: usize, row: RowId) {
        if self.counters.get(flat, row as usize) >= self.nbo {
            self.hot_rows[rank] = self.hot_rows[rank].saturating_sub(1);
            self.hot_list[flat].retain(|&r| r != row);
        }
        self.counters.clear(flat, row as usize);
        self.att[flat].remove(row);
    }
}

impl DramMitigation for ChronusMechanism {
    fn on_activate(&mut self, bank: BankId, row: RowId, _now: Cycle) -> bool {
        // CCU: the counter subarray updates concurrently with the access.
        let flat = bank.flat(&self.geo);
        let c = self.counters.slot(flat, row as usize);
        *c += 1;
        let count = *c;
        self.stats.counter_updates += 1;
        self.att[flat].observe(row, count);
        if count == self.nbo {
            self.hot_rows[bank.rank as usize] += 1;
            self.hot_list[flat].push(row);
        }
        if count >= self.nbo {
            self.stats.back_offs += 1;
            true
        } else {
            false
        }
    }

    fn on_precharge(&mut self, _bank: BankId, _row: RowId, _now: Cycle) -> bool {
        // No precharge-time work: this is what removes PRAC's timing
        // inflation.
        false
    }

    fn on_rfm(&mut self, bank: BankId, _now: Cycle) -> RfmOutcome {
        let flat = bank.flat(&self.geo);
        let rank = bank.rank as usize;
        let candidate = if self.dynamic_backoff {
            // Chronus services rows that reached N_BO; an RFM that finds
            // none in this bank refreshes nothing (other banks of the rank
            // may still have hot rows).
            self.hot_list[flat].first().copied()
        } else {
            // Chronus-PB follows PRAC: always service the hottest row.
            self.att[flat].peek_max().map(|(row, _)| row)
        };
        match candidate {
            Some(row) => {
                self.reset_row(flat, rank, row);
                self.stats.rfm_refreshes += 1;
                RfmOutcome {
                    refreshed_aggressor: Some(row),
                }
            }
            None => RfmOutcome::default(),
        }
    }

    fn on_periodic_refresh(
        &mut self,
        rank: usize,
        _now: Cycle,
        serviced: &mut Vec<(BankId, RowId)>,
    ) {
        self.borrow_toggle[rank] = !self.borrow_toggle[rank];
        if !self.borrow_toggle[rank] {
            return;
        }
        let base = rank * self.geo.banks_per_rank();
        for i in 0..self.geo.banks_per_rank() {
            let flat = base + i;
            if let Some((row, _)) = self.att[flat].peek_max() {
                self.reset_row(flat, rank, row);
                self.stats.borrowed_refreshes += 1;
                serviced.push((BankId::from_flat(flat, &self.geo), row));
            }
        }
    }

    fn alert_still_needed(&self, rank: usize) -> bool {
        self.dynamic_backoff && self.hot_rows[rank] > 0
    }

    fn counter_of(&self, bank: BankId, row: RowId) -> Option<u32> {
        Some(self.counters.get(bank.flat(&self.geo), row as usize))
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn kind_name(&self) -> &'static str {
        if self.dynamic_backoff {
            "chronus"
        } else {
            "chronus-pb"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BankId = BankId::new(0, 0, 0);
    const B1: BankId = BankId::new(0, 0, 1);

    fn mech(nbo: u32) -> ChronusMechanism {
        ChronusMechanism::new(Geometry::tiny(), nbo, 4)
    }

    #[test]
    fn counter_updates_at_activate() {
        let mut m = mech(100);
        assert!(!m.on_activate(B, 5, 0));
        assert_eq!(m.counter_of(B, 5), Some(1));
        assert!(!m.on_precharge(B, 5, 10));
        assert_eq!(m.counter_of(B, 5), Some(1), "precharge does no work");
    }

    #[test]
    fn alert_asserted_and_held_until_serviced() {
        let mut m = mech(2);
        assert!(!m.on_activate(B, 5, 0));
        assert!(m.on_activate(B, 5, 1));
        assert!(m.alert_still_needed(0));
        let out = m.on_rfm(B, 10);
        assert_eq!(out.refreshed_aggressor, Some(5));
        assert!(!m.alert_still_needed(0));
    }

    #[test]
    fn alert_held_across_multiple_hot_rows() {
        let mut m = mech(2);
        for row in [5u32, 9] {
            m.on_activate(B, row, 0);
            m.on_activate(B, row, 1);
        }
        // Two hot rows in one bank: one RFM services one of them.
        assert!(m.alert_still_needed(0));
        assert!(m.on_rfm(B, 10).refreshed_aggressor.is_some());
        assert!(m.alert_still_needed(0), "second hot row still pending");
        assert!(m.on_rfm(B, 11).refreshed_aggressor.is_some());
        assert!(!m.alert_still_needed(0));
    }

    #[test]
    fn hot_rows_in_other_banks_hold_the_alert() {
        let mut m = mech(2);
        m.on_activate(B, 5, 0);
        m.on_activate(B, 5, 1);
        m.on_activate(B1, 9, 2);
        m.on_activate(B1, 9, 3);
        assert!(m.alert_still_needed(0));
        m.on_rfm(B, 10);
        assert!(m.alert_still_needed(0), "bank 1 still hot");
        m.on_rfm(B1, 11);
        assert!(!m.alert_still_needed(0));
    }

    #[test]
    fn dynamic_rfm_skips_cold_banks() {
        let mut m = mech(10);
        m.on_activate(B, 5, 0); // count 1 < N_BO
        assert_eq!(m.on_rfm(B, 1).refreshed_aggressor, None);
        assert_eq!(m.counter_of(B, 5), Some(1), "cold row untouched");
    }

    #[test]
    fn chronus_pb_services_any_hottest_row() {
        let mut m = ChronusMechanism::chronus_pb(Geometry::tiny(), 10, 4);
        m.on_activate(B, 5, 0);
        assert_eq!(m.on_rfm(B, 1).refreshed_aggressor, Some(5));
        assert!(!m.alert_still_needed(0), "PB never holds the alert");
        assert_eq!(m.kind_name(), "chronus-pb");
    }

    #[test]
    fn borrowed_refresh_defuses_hot_rows() {
        let mut m = mech(2);
        m.on_activate(B, 5, 0);
        m.on_activate(B, 5, 1);
        assert!(m.alert_still_needed(0));
        let mut serviced = Vec::new();
        m.on_periodic_refresh(0, 100, &mut serviced);
        assert!(serviced.contains(&(B, 5)));
        assert!(!m.alert_still_needed(0));
    }

    #[test]
    #[should_panic(expected = "8-bit decrementer")]
    fn nbo_above_counter_width_is_rejected() {
        let _ = ChronusMechanism::new(Geometry::tiny(), 257, 4);
    }
}
