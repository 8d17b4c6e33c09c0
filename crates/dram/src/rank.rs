//! Per-rank state: banks, FAW window, rank-wide blocking, alert latch.

use serde::{Deserialize, Serialize};

use crate::bank::{Bank, BankState};
use crate::geometry::{Geometry, RowId};
use crate::Cycle;

/// One DRAM rank: its banks plus rank-scoped timing frontiers and the
/// per-rank `alert_n` (back-off) latch.
///
/// Two aggregates over the banks make the rank-wide readiness questions
/// O(1) or O(open banks): a bit mask of the open banks and the ACT
/// frontier `max(bank.next_act)`. Only [`Rank::open_bank`],
/// [`Rank::close_bank`], [`Rank::raise_act`] and [`Rank::raise_all_act`]
/// change a bank's state or ACT frontier, and they keep both aggregates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rank {
    /// Banks, indexed `group * banks_per_group + bank`.
    pub(crate) banks: Vec<Bank>,
    /// Timestamps of the last four ACTs (tFAW sliding window), oldest first.
    faw: [Cycle; 4],
    /// Number of valid entries in `faw`.
    faw_len: usize,
    /// Earliest next ACT anywhere in the rank (tRRD_S).
    pub next_act_any: Cycle,
    /// Earliest next ACT per bank group (tRRD_L).
    pub next_act_group: Vec<Cycle>,
    /// Earliest next RD anywhere in the rank (tCCD_S, tWTR_S).
    pub next_rd_any: Cycle,
    /// Earliest next RD per bank group (tCCD_L, tWTR_L).
    pub next_rd_group: Vec<Cycle>,
    /// Earliest next WR anywhere in the rank (tCCD_S).
    pub next_wr_any: Cycle,
    /// Earliest next WR per bank group (tCCD_L).
    pub next_wr_group: Vec<Cycle>,
    /// Rank blocked (REFab / RFMab in progress) until this cycle.
    pub blocked_until: Cycle,
    /// Back-off latch: the cycle at which the assertion becomes visible to
    /// the controller, if asserted.
    pub alert_at: Option<Cycle>,
    /// Bit `i` set while bank `i` holds a row open.
    open: u64,
    /// `max(bank.next_act)` over every bank.
    act_frontier: Cycle,
    /// Cycle at which `open` last became non-zero.
    active_since: Cycle,
    /// Accumulated cycles with at least one bank open.
    pub active_cycles: u64,
    /// REFab commands served (drives the oracle's rolling refresh sweep).
    pub refs_done: u64,
}

impl Rank {
    /// A fresh rank for the given geometry.
    ///
    /// # Panics
    ///
    /// If the geometry has more than 64 banks per rank: the open-bank mask
    /// is one `u64`.
    pub fn new(geo: &Geometry) -> Self {
        let banks = geo.banks_per_rank();
        assert!(
            banks <= 64,
            "Rank::new: {banks} banks per rank exceed the 64-bit open-bank mask"
        );
        Self {
            banks: (0..banks).map(|_| Bank::new()).collect(),
            faw: [0; 4],
            faw_len: 0,
            next_act_any: 0,
            next_act_group: vec![0; geo.bankgroups],
            next_rd_any: 0,
            next_rd_group: vec![0; geo.bankgroups],
            next_wr_any: 0,
            next_wr_group: vec![0; geo.bankgroups],
            blocked_until: 0,
            alert_at: None,
            open: 0,
            act_frontier: 0,
            active_since: 0,
            active_cycles: 0,
            refs_done: 0,
        }
    }

    /// Earliest cycle at which a new ACT satisfies the four-activate window.
    pub fn faw_ready_at(&self, faw_cycles: Cycle) -> Cycle {
        if self.faw_len < 4 {
            0
        } else {
            self.faw[0] + faw_cycles
        }
    }

    /// Records an ACT at `now` in the FAW window.
    pub fn push_faw(&mut self, now: Cycle) {
        if self.faw_len < 4 {
            self.faw[self.faw_len] = now;
            self.faw_len += 1;
        } else {
            self.faw.rotate_left(1);
            self.faw[3] = now;
        }
    }

    /// Raises bank `i`'s ACT frontier to at least `at`.
    pub fn raise_act(&mut self, i: usize, at: Cycle) {
        let b = &mut self.banks[i];
        b.next_act = b.next_act.max(at);
        self.act_frontier = self.act_frontier.max(at);
    }

    /// Raises every bank's ACT frontier to at least `at` (REFab, RFMab).
    pub fn raise_all_act(&mut self, at: Cycle) {
        for b in &mut self.banks {
            b.next_act = b.next_act.max(at);
        }
        self.act_frontier = self.act_frontier.max(at);
    }

    /// Latches `row` in idle bank `i` at `now` (the ACT's state change;
    /// its frontiers are the caller's).
    pub fn open_bank(&mut self, i: usize, row: RowId, now: Cycle) {
        debug_assert!(self.banks[i].is_idle(), "ACT to an open bank");
        if self.open == 0 {
            self.active_since = now;
        }
        self.open |= 1 << i;
        self.banks[i].state = BankState::Opened { row };
    }

    /// Precharges open bank `i` at `now`, its next ACT no earlier than
    /// `act_at`.
    pub fn close_bank(&mut self, i: usize, now: Cycle, act_at: Cycle) {
        debug_assert!(self.open & (1 << i) != 0, "closing an idle bank");
        self.banks[i].state = BankState::Idle;
        self.raise_act(i, act_at);
        self.open &= !(1 << i);
        if self.open == 0 {
            self.active_cycles += now.saturating_sub(self.active_since);
        }
    }

    /// Bit `i` set while bank `i` holds a row open.
    pub fn open_mask(&self) -> u64 {
        self.open
    }

    /// Number of banks currently open.
    pub fn open_bank_count(&self) -> u32 {
        self.open.count_ones()
    }

    /// `max(bank.next_act)` over every bank of the rank.
    pub fn act_frontier(&self) -> Cycle {
        self.act_frontier
    }

    /// Folds any in-progress active interval into `active_cycles`.
    pub fn finalize_activity(&mut self, now: Cycle) {
        if self.open != 0 {
            self.active_cycles += now.saturating_sub(self.active_since);
            self.active_since = now;
        }
    }

    /// True if every bank is precharged.
    pub fn all_idle(&self) -> bool {
        self.open == 0
    }
}

/// The indices of the set bits of `mask`, lowest first.
pub(crate) fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.checked_sub(1)?;
        Some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank() -> Rank {
        Rank::new(&Geometry::ddr5())
    }

    #[test]
    fn faw_empty_window_is_always_ready() {
        let r = rank();
        assert_eq!(r.faw_ready_at(32), 0);
    }

    #[test]
    fn faw_enforces_fourth_act() {
        let mut r = rank();
        for t in [10, 20, 30, 40] {
            r.push_faw(t);
        }
        // The next ACT must wait until the oldest (10) + tFAW.
        assert_eq!(r.faw_ready_at(32), 42);
        r.push_faw(50);
        assert_eq!(r.faw_ready_at(32), 52);
    }

    #[test]
    fn active_cycle_accounting() {
        let mut r = rank();
        r.open_bank(0, 4, 100);
        r.open_bank(5, 4, 110); // second bank, same active interval
        r.close_bank(0, 150, 150);
        assert_eq!(r.active_cycles, 0); // still one bank open
        r.close_bank(5, 200, 200);
        assert_eq!(r.active_cycles, 100);
        r.open_bank(5, 8, 300);
        r.finalize_activity(320);
        assert_eq!(r.active_cycles, 120);
    }

    #[test]
    fn all_idle_tracks_bank_states() {
        let mut r = rank();
        assert!(r.all_idle());
        r.open_bank(3, 9, 0);
        assert!(!r.all_idle());
        assert_eq!(r.banks[3].open_row(), Some(9));
        r.close_bank(3, 10, 10);
        assert!(r.all_idle());
    }

    #[test]
    fn set_bits_walks_the_mask_lowest_first() {
        assert_eq!(set_bits(0).count(), 0);
        assert_eq!(set_bits(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        assert_eq!(set_bits(1 << 63).collect::<Vec<_>>(), [63]);
        assert_eq!(set_bits(u64::MAX).count(), 64);
    }

    #[test]
    #[should_panic(expected = "exceed the 64-bit open-bank mask")]
    fn more_than_64_banks_per_rank_are_rejected() {
        let mut g = Geometry::ddr5();
        g.bankgroups = 17;
        Rank::new(&g);
    }
}
