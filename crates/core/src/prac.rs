//! PRAC: Per Row Activation Counting (§3, JEDEC DDR5 April 2024).
//!
//! Each DRAM row carries an activation counter stored with the row's data.
//! The counter is read–modified–written **while the row is being closed**
//! — which is exactly why PRAC inflates `tRP`/`tRC` (Table 1; the timing
//! cost is modelled by running the device in [`chronus_dram::TimingMode::Prac`]).
//! When a precharged row's count reaches the back-off threshold `N_BO`, the
//! chip asserts `alert_n`. RFM service refreshes the victims of the hottest
//! row in the bank's Aggressor Tracking Table. Every other periodic REF,
//! the chip borrows time to transparently service one aggressor per bank
//! (§5, "borrowed refresh").

use chronus_dram::{
    BankId, Cycle, DramMitigation, Geometry, MitigationStats, RfmOutcome, RowId, RowTable,
};

use crate::att::Att;

/// The PRAC on-die mechanism state.
#[derive(Debug)]
pub struct PracMechanism {
    geo: Geometry,
    nbo: u32,
    counters: RowTable,
    att: Vec<Att>,
    /// Borrowed refresh fires on every other REFab, per rank.
    borrow_toggle: Vec<bool>,
    stats: MitigationStats,
}

impl PracMechanism {
    /// PRAC with back-off threshold `nbo` and `att_entries` tracking
    /// entries per bank.
    pub fn new(geo: Geometry, nbo: u32, att_entries: usize) -> Self {
        assert!(nbo >= 1, "N_BO must be at least 1");
        let banks = geo.total_banks();
        Self {
            geo,
            nbo,
            counters: RowTable::new(banks, geo.rows),
            att: (0..banks).map(|_| Att::new(att_entries)).collect(),
            borrow_toggle: vec![false; geo.ranks],
            stats: MitigationStats::default(),
        }
    }

    /// The configured back-off threshold.
    pub fn nbo(&self) -> u32 {
        self.nbo
    }
}

impl DramMitigation for PracMechanism {
    fn on_activate(&mut self, _bank: BankId, _row: RowId, _now: Cycle) -> bool {
        // PRAC does its counter work during precharge.
        false
    }

    fn on_precharge(&mut self, bank: BankId, row: RowId, _now: Cycle) -> bool {
        let flat = bank.flat(&self.geo);
        let c = self.counters.slot(flat, row as usize);
        *c += 1;
        let count = *c;
        self.stats.counter_updates += 1;
        self.att[flat].observe(row, count);
        if count >= self.nbo {
            self.stats.back_offs += 1;
            true
        } else {
            false
        }
    }

    fn on_rfm(&mut self, bank: BankId, _now: Cycle) -> RfmOutcome {
        let flat = bank.flat(&self.geo);
        match self.att[flat].take_max() {
            Some((row, _)) => {
                self.counters.clear(flat, row as usize);
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
            if let Some((row, _)) = self.att[flat].take_max() {
                self.counters.clear(flat, row as usize);
                self.stats.borrowed_refreshes += 1;
                serviced.push((BankId::from_flat(flat, &self.geo), row));
            }
        }
    }

    fn counter_of(&self, bank: BankId, row: RowId) -> Option<u32> {
        Some(self.counters.get(bank.flat(&self.geo), row as usize))
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn kind_name(&self) -> &'static str {
        "prac"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mech(nbo: u32) -> PracMechanism {
        PracMechanism::new(Geometry::tiny(), nbo, 4)
    }

    const B: BankId = BankId::new(0, 0, 0);

    #[test]
    fn counter_increments_on_precharge_not_activate() {
        let mut m = mech(100);
        assert!(!m.on_activate(B, 5, 0));
        assert_eq!(m.counter_of(B, 5), Some(0));
        assert!(!m.on_precharge(B, 5, 10));
        assert_eq!(m.counter_of(B, 5), Some(1));
    }

    #[test]
    fn backoff_asserted_at_threshold() {
        let mut m = mech(3);
        assert!(!m.on_precharge(B, 5, 0));
        assert!(!m.on_precharge(B, 5, 1));
        assert!(m.on_precharge(B, 5, 2));
        // Still over threshold on the next precharge (masking is the
        // controller's job).
        assert!(m.on_precharge(B, 5, 3));
        assert_eq!(m.stats().back_offs, 2);
    }

    #[test]
    fn rfm_services_hottest_row_and_resets() {
        let mut m = mech(100);
        for _ in 0..5 {
            m.on_precharge(B, 7, 0);
        }
        for _ in 0..3 {
            m.on_precharge(B, 9, 0);
        }
        let out = m.on_rfm(B, 10);
        assert_eq!(out.refreshed_aggressor, Some(7));
        assert_eq!(m.counter_of(B, 7), Some(0));
        assert_eq!(m.counter_of(B, 9), Some(3));
        // Next RFM picks the next hottest.
        assert_eq!(m.on_rfm(B, 11).refreshed_aggressor, Some(9));
        assert_eq!(m.on_rfm(B, 12).refreshed_aggressor, None);
    }

    #[test]
    fn borrowed_refresh_fires_every_other_ref() {
        let mut m = mech(100);
        m.on_precharge(B, 7, 0);
        let mut serviced = Vec::new();
        m.on_periodic_refresh(0, 100, &mut serviced);
        assert_eq!(serviced, vec![(B, 7)]);
        assert_eq!(m.counter_of(B, 7), Some(0));
        m.on_precharge(B, 8, 200);
        // Second REF: toggle off.
        serviced.clear();
        m.on_periodic_refresh(0, 300, &mut serviced);
        assert!(serviced.is_empty());
        // Third REF: on again.
        m.on_periodic_refresh(0, 400, &mut serviced);
        assert_eq!(serviced.len(), 1);
    }

    #[test]
    fn prac_never_claims_dynamic_backoff() {
        let m = mech(10);
        assert!(!m.alert_still_needed(0));
    }
}
