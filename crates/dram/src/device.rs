//! The DRAM device: command legality checking and execution.
//!
//! The device owns the per-bank / per-rank / channel timing frontiers. The
//! legality rules are stated once, as the `*_floor` / `*_at` accessors that
//! [`DramDevice::earliest_issue_at`] composes per command; "legal now"
//! ([`DramDevice::can_issue`]) is derived from it, and the scheduler reads
//! the same accessors. [`DramDevice::issue`] executes a command, updates
//! every affected timing frontier, feeds the mitigation hooks and the
//! disturbance oracle, and latches the `alert_n` back-off signal when the
//! mechanism requests it. The independent oracle for the rules is the
//! original per-command statement, kept as `legacy_can_issue` in this
//! file's tests, plus the hand-computed unit tests.

use crate::bank::{Bank, BankState};
use crate::command::Command;
use crate::geometry::{victims_of, BankId, Geometry, RowId};
use crate::mitigation::{DramMitigation, MitigationStats, NoMitigation};
use crate::oracle::{DisturbOracle, ThresholdModel};
use crate::rank::Rank;
use crate::stats::DramStats;
use crate::timing::{TimingMode, Timings, TimingsNs};
use crate::Cycle;

/// Device configuration.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Channel geometry.
    pub geometry: Geometry,
    /// Which Table 1 timing column is in effect.
    pub mode: TimingMode,
    /// Resolved timing parameters.
    pub timings: Timings,
    /// Read-disturbance blast radius (paper §5: 2).
    pub blast_radius: u32,
    /// If set, attach a [`DisturbOracle`] with this `N_RH`.
    pub oracle_nrh: Option<u32>,
    /// If set, attach a [`DisturbOracle`] with this threshold model
    /// (takes precedence over `oracle_nrh`); per-row Variable Read
    /// Disturbance distributions come in through here.
    pub oracle_model: Option<ThresholdModel>,
    /// Panic when [`DramDevice::issue`] gets a command that
    /// [`DramDevice::can_issue`] refuses; used by tests and debug runs.
    pub strict: bool,
}

impl DramConfig {
    /// Paper-default DDR5 module without PRAC timings.
    pub fn ddr5_baseline() -> Self {
        Self::with_mode(TimingMode::Baseline)
    }

    /// Paper-default DDR5 module with the given timing mode.
    pub fn with_mode(mode: TimingMode) -> Self {
        Self {
            geometry: Geometry::ddr5(),
            mode,
            timings: TimingsNs::for_mode(mode).resolve(),
            blast_radius: 2,
            oracle_nrh: None,
            oracle_model: None,
            strict: cfg!(debug_assertions),
        }
    }

    /// Small geometry for unit tests.
    pub fn tiny() -> Self {
        let mut c = Self::ddr5_baseline();
        c.geometry = Geometry::tiny();
        c.strict = true;
        c
    }
}

/// One DDR5 channel with its ranks, timing frontiers, mitigation mechanism,
/// statistics, and optional disturbance oracle.
pub struct DramDevice {
    cfg: DramConfig,
    ranks: Vec<Rank>,
    /// Channel-level earliest next RD issue (data-bus + turnaround).
    next_rd: Cycle,
    /// Channel-level earliest next WR issue.
    next_wr: Cycle,
    mitigation: Box<dyn DramMitigation + Send>,
    oracle: Option<DisturbOracle>,
    stats: DramStats,
    /// Reused scratch for [`DramMitigation::on_periodic_refresh`] so the
    /// refresh path never allocates.
    periodic_scratch: Vec<(BankId, RowId)>,
}

impl std::fmt::Debug for DramDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramDevice")
            .field("mode", &self.cfg.mode)
            .field("mitigation", &self.mitigation.kind_name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DramDevice {
    /// A device with no mitigation mechanism (the evaluation baseline).
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_mitigation(cfg, Box::new(NoMitigation))
    }

    /// A device with an on-die mitigation mechanism attached.
    pub fn with_mitigation(cfg: DramConfig, mitigation: Box<dyn DramMitigation + Send>) -> Self {
        let ranks = (0..cfg.geometry.ranks)
            .map(|_| Rank::new(&cfg.geometry))
            .collect();
        let oracle = cfg
            .oracle_model
            .map(|model| DisturbOracle::with_model(cfg.geometry, cfg.blast_radius, model))
            .or_else(|| {
                cfg.oracle_nrh
                    .map(|nrh| DisturbOracle::new(cfg.geometry, cfg.blast_radius, nrh))
            });
        Self {
            cfg,
            ranks,
            next_rd: 0,
            next_wr: 0,
            mitigation,
            oracle,
            stats: DramStats::default(),
            periodic_scratch: Vec::new(),
        }
    }

    /// Resolved timing parameters.
    pub fn timings(&self) -> &Timings {
        &self.cfg.timings
    }

    /// Channel geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.cfg.geometry
    }

    /// Device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    #[inline]
    fn bank(&self, id: BankId) -> &Bank {
        let g = &self.cfg.geometry;
        &self.ranks[id.rank as usize].banks
            [(id.group as usize) * g.banks_per_group + id.bank as usize]
    }

    fn bank_mut(&mut self, id: BankId) -> &mut Bank {
        let g = self.cfg.geometry;
        &mut self.ranks[id.rank as usize].banks
            [(id.group as usize) * g.banks_per_group + id.bank as usize]
    }

    /// The open row of `bank`, if any.
    #[inline]
    pub fn open_row(&self, bank: BankId) -> Option<RowId> {
        self.bank(bank).open_row()
    }

    /// True if every bank of `rank` is precharged.
    pub fn rank_all_idle(&self, rank: usize) -> bool {
        self.ranks[rank].all_idle()
    }

    /// Cycle until which `rank` is blocked by REF/RFM.
    pub fn rank_blocked_until(&self, rank: usize) -> Cycle {
        self.ranks[rank].blocked_until
    }

    /// True if the rank's back-off signal is asserted and already visible at
    /// `now` (assertions propagate with `tALERT`).
    pub fn alert_visible(&self, rank: usize, now: Cycle) -> bool {
        matches!(self.ranks[rank].alert_at, Some(at) if at <= now)
    }

    /// The cycle at which the rank's latched back-off assertion becomes
    /// visible, if one is latched — the event-driven loop uses this to wake
    /// exactly when the controller would first observe `alert_n`.
    pub fn alert_latched_at(&self, rank: usize) -> Option<Cycle> {
        self.ranks[rank].alert_at
    }

    /// Earliest cycle at which an all-bank REF/RFM could be accepted by
    /// `rank` assuming every bank is (or stays) precharged: the rank-block
    /// frontier joined with every bank's ACT frontier.
    pub fn refresh_ready_at(&self, rank: usize) -> Cycle {
        let r = &self.ranks[rank];
        let banks_ready = r.banks.iter().map(|b| b.next_act).max().unwrap_or(0);
        r.blocked_until.max(banks_ready)
    }

    /// Earliest cycle at which `PREab` could be accepted by `rank` (the
    /// rank-block frontier joined with the PRE frontier of every open
    /// bank); legal immediately if every bank is already idle.
    pub fn preall_ready_at(&self, rank: usize) -> Cycle {
        let r = &self.ranks[rank];
        let open_ready = r
            .banks
            .iter()
            .filter(|b| !b.is_idle())
            .map(|b| b.next_pre)
            .max()
            .unwrap_or(0);
        r.blocked_until.max(open_ready)
    }

    /// Rank- and channel-level CAS frontier for `rank`: the earliest cycle
    /// at which *any* `Rd` (`write == false`) or `Wr` (`write == true`) to
    /// the rank could issue, ignoring bank-group and bank frontiers. The
    /// full per-candidate time decomposes as
    /// `max(rank_cas_floor, group_cas_floor, bank_cas_at)` — schedulers use
    /// the shared floors to prune whole ranks and to compute min-over-banks
    /// wake times without per-candidate command dispatch.
    #[inline]
    pub fn rank_cas_floor(&self, rank: usize, write: bool) -> Cycle {
        let r = &self.ranks[rank];
        if write {
            r.blocked_until.max(r.next_wr_any).max(self.next_wr)
        } else {
            r.blocked_until.max(r.next_rd_any).max(self.next_rd)
        }
    }

    /// Bank-group-level CAS frontier (see [`DramDevice::rank_cas_floor`]).
    #[inline]
    pub fn group_cas_floor(&self, rank: usize, group: usize, write: bool) -> Cycle {
        let r = &self.ranks[rank];
        if write {
            r.next_wr_group[group]
        } else {
            r.next_rd_group[group]
        }
    }

    /// Bank-level CAS frontier: the bank's own `tCCD`/`tRCD`-driven term of
    /// the CAS decomposition. Callers are responsible for the structural
    /// check (the bank must hold the target row open).
    #[inline]
    pub fn bank_cas_at(&self, bank: BankId, write: bool) -> Cycle {
        let b = self.bank(bank);
        if write {
            b.next_wr
        } else {
            b.next_rd
        }
    }

    /// Rank-level ACT frontier: rank block, `tRRD_S`, and `tFAW`. The full
    /// per-candidate time is `max(rank_act_floor, group_act_floor,
    /// bank_act_at)` for an idle bank.
    #[inline]
    pub fn rank_act_floor(&self, rank: usize) -> Cycle {
        let r = &self.ranks[rank];
        r.blocked_until
            .max(r.next_act_any)
            .max(r.faw_ready_at(self.cfg.timings.faw))
    }

    /// Bank-group-level ACT frontier (`tRRD_L`).
    #[inline]
    pub fn group_act_floor(&self, rank: usize, group: usize) -> Cycle {
        self.ranks[rank].next_act_group[group]
    }

    /// Bank-level ACT frontier (`tRC`/`tRP`-driven). Callers are
    /// responsible for the structural check (the bank must be idle).
    #[inline]
    pub fn bank_act_at(&self, bank: BankId) -> Cycle {
        self.bank(bank).next_act
    }

    /// Complete `PRE` issuable time for `bank` (rank block joined with the
    /// bank's `tRAS`/`tRTP`/`tWR` frontier). Callers are responsible for
    /// the structural check (the bank must hold a row open).
    #[inline]
    pub fn bank_pre_at(&self, bank: BankId) -> Cycle {
        self.ranks[bank.rank as usize]
            .blocked_until
            .max(self.bank(bank).next_pre)
    }

    /// Clears the rank's back-off latch (controller acknowledgement).
    pub fn clear_alert(&mut self, rank: usize) {
        self.ranks[rank].alert_at = None;
    }

    /// Whether the mechanism still has rows above the back-off threshold in
    /// `rank` (drives Chronus's dynamic recovery, §7.2).
    pub fn alert_still_needed(&self, rank: usize) -> bool {
        self.mitigation.alert_still_needed(rank)
    }

    /// Device statistics (activity counters are finalized lazily; call
    /// [`DramDevice::finalize`] before reading background-cycle fields).
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Mechanism-reported counters.
    pub fn mitigation_stats(&self) -> MitigationStats {
        self.mitigation.stats()
    }

    /// The attached mitigation mechanism.
    pub fn mitigation(&self) -> &(dyn DramMitigation + Send) {
        self.mitigation.as_ref()
    }

    /// The disturbance oracle, if enabled.
    pub fn oracle(&self) -> Option<&DisturbOracle> {
        self.oracle.as_ref()
    }

    /// Replaces the attached oracle. The batch engine uses this right
    /// after construction to install a multi-lane oracle that judges one
    /// run against every batch member's threshold model; the oracle is
    /// purely observational, so swapping it never perturbs timing.
    pub fn set_oracle(&mut self, oracle: Option<DisturbOracle>) {
        self.oracle = oracle;
    }

    /// Informs the oracle that a controller-side mechanism has finished
    /// refreshing all victims of `aggressor` (the last `VRR` of the group
    /// has been issued). Resets the oracle's `A(aggressor)`; no timing
    /// effect — the individual `VRR` commands carry the cost.
    pub fn note_aggressor_serviced(&mut self, bank: BankId, aggressor: RowId) {
        if let Some(o) = &mut self.oracle {
            o.on_victims_refreshed(bank, aggressor);
        }
    }

    /// Folds open-bank activity into the stats; call once at end of
    /// simulation with the final cycle.
    pub fn finalize(&mut self, now: Cycle) {
        let mut active = 0;
        for r in &mut self.ranks {
            r.finalize_activity(now);
            active += r.active_cycles;
        }
        self.stats.active_standby_cycles = active;
        self.stats.total_cycles = now;
        self.stats.precharge_standby_cycles =
            (now * self.cfg.geometry.ranks as u64).saturating_sub(active);
    }

    /// Whether `cmd` may legally be issued at cycle `now`: exactly when
    /// [`DramDevice::earliest_issue_at`] answers `now`.
    pub fn can_issue(&self, cmd: &Command, now: Cycle) -> bool {
        self.earliest_issue_at(cmd, now) == now
    }

    /// The exact first cycle at or after `now` at which `cmd` is legal,
    /// assuming no further commands are issued in the meantime, or
    /// `Cycle::MAX` when `cmd` is structurally illegal in the current bank
    /// state (another command must change that state first — e.g. `ACT` to
    /// an open bank).
    ///
    /// This is the one statement of the DDR5 timing rules:
    /// [`DramDevice::can_issue`] is derived from it, and the tests pin it,
    /// for every `t >= now`, to `legacy_can_issue(cmd, t) == (t >=
    /// earliest_issue_at(cmd, now))`. The event-driven controller uses it
    /// as its issuable-time cache: every timing frontier consulted here only
    /// moves when a command issues, so the result stays exact until the
    /// next issue or arrival.
    pub fn earliest_issue_at(&self, cmd: &Command, now: Cycle) -> Cycle {
        let ready = match *cmd {
            Command::Act { bank, row } | Command::Vrr { bank, row } => {
                debug_assert!((row as usize) < self.cfg.geometry.rows, "row out of range");
                if !self.bank(bank).is_idle() {
                    return Cycle::MAX;
                }
                self.rank_act_floor(bank.rank as usize)
                    .max(self.group_act_floor(bank.rank as usize, bank.group as usize))
                    .max(self.bank_act_at(bank))
            }
            Command::Pre { bank } => {
                if self.bank(bank).is_idle() {
                    return Cycle::MAX;
                }
                self.bank_pre_at(bank)
            }
            Command::PreAll { rank } => self.preall_ready_at(rank),
            Command::Rd { bank, col }
            | Command::RdA { bank, col }
            | Command::Wr { bank, col }
            | Command::WrA { bank, col } => {
                debug_assert!((col as usize) < self.cfg.geometry.cols, "col out of range");
                if self.bank(bank).is_idle() {
                    return Cycle::MAX;
                }
                let write = cmd.is_write();
                self.rank_cas_floor(bank.rank as usize, write)
                    .max(self.group_cas_floor(bank.rank as usize, bank.group as usize, write))
                    .max(self.bank_cas_at(bank, write))
            }
            Command::RefAll { rank } | Command::RfmAll { rank } => {
                if !self.ranks[rank].all_idle() {
                    return Cycle::MAX;
                }
                self.refresh_ready_at(rank)
            }
        };
        ready.max(now)
    }

    /// Executes `cmd` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now` and the device is in strict
    /// mode (`cfg.strict`, on by default in debug builds).
    pub fn issue(&mut self, cmd: &Command, now: Cycle) {
        if self.cfg.strict {
            assert!(
                self.can_issue(cmd, now),
                "timing violation: {cmd} at cycle {now}"
            );
        }
        let t = self.cfg.timings;
        match *cmd {
            Command::Act { bank, row } => {
                self.do_activate(bank, row, now, false);
            }
            Command::Vrr { bank, row } => {
                self.do_activate(bank, row, now, true);
            }
            Command::Pre { bank } => {
                let row = self.bank(bank).open_row().expect("PRE on idle bank");
                self.close_row(bank, row, now);
            }
            Command::PreAll { rank } => {
                let g = self.cfg.geometry;
                for i in 0..g.banks_per_rank() {
                    let id = BankId::from_flat(rank * g.banks_per_rank() + i, &g);
                    if let Some(row) = self.bank(id).open_row() {
                        self.close_row(id, row, now);
                    }
                }
            }
            Command::Rd { bank, .. } => {
                self.do_read(bank, now);
            }
            Command::RdA { bank, .. } => {
                self.do_read(bank, now);
                // Auto-precharge: row closes tRTP after the read.
                let row = self.bank(bank).open_row().expect("RDA on idle bank");
                let pre_at = now + t.rtp;
                self.close_row_at(bank, row, now, pre_at);
            }
            Command::Wr { bank, .. } => {
                self.do_write(bank, now);
            }
            Command::WrA { bank, .. } => {
                self.do_write(bank, now);
                let row = self.bank(bank).open_row().expect("WRA on idle bank");
                let pre_at = now + t.cwl + t.bl + t.wr;
                self.close_row_at(bank, row, now, pre_at);
            }
            Command::RefAll { rank } => {
                self.do_refresh(rank, now);
            }
            Command::RfmAll { rank } => {
                self.do_rfm(rank, now);
            }
        }
    }

    fn do_activate(&mut self, bank: BankId, row: RowId, now: Cycle, is_vrr: bool) {
        let t = self.cfg.timings;
        {
            let r = &mut self.ranks[bank.rank as usize];
            r.push_faw(now);
            r.next_act_any = r.next_act_any.max(now + t.rrd_s);
            let g = bank.group as usize;
            r.next_act_group[g] = r.next_act_group[g].max(now + t.rrd_l);
        }
        if is_vrr {
            // VRR = internal activate + precharge of the victim row; the
            // bank is busy for a full row cycle and stays precharged.
            let b = self.bank_mut(bank);
            b.next_act = b.next_act.max(now + t.rc);
            self.stats.vrrs += 1;
            if let Some(o) = &mut self.oracle {
                o.on_row_refreshed(bank, row);
            }
            return;
        }
        {
            let b = self.bank_mut(bank);
            debug_assert!(b.is_idle());
            b.state = BankState::Opened { row };
            b.next_pre = now + t.ras;
            b.next_rd = now + t.rcd;
            b.next_wr = now + t.rcd;
            b.next_act = now + t.rc;
            b.acts += 1;
        }
        self.ranks[bank.rank as usize].bank_opened(now);
        self.stats.acts += 1;
        if let Some(o) = &mut self.oracle {
            o.on_activate(bank, row);
        }
        if self.mitigation.on_activate(bank, row, now) {
            self.assert_alert(bank.rank as usize, now);
        }
    }

    fn close_row(&mut self, bank: BankId, row: RowId, now: Cycle) {
        let t = self.cfg.timings;
        {
            let b = self.bank_mut(bank);
            b.state = BankState::Idle;
            b.next_act = b.next_act.max(now + t.rp);
        }
        self.ranks[bank.rank as usize].bank_closed(now);
        self.stats.pres += 1;
        if self.mitigation.on_precharge(bank, row, now) {
            self.assert_alert(bank.rank as usize, now);
        }
    }

    /// Auto-precharge variant: the precharge point is `pre_at` (> now).
    fn close_row_at(&mut self, bank: BankId, row: RowId, now: Cycle, pre_at: Cycle) {
        let t = self.cfg.timings;
        {
            let b = self.bank_mut(bank);
            b.state = BankState::Idle;
            b.next_act = b.next_act.max(pre_at + t.rp);
        }
        self.ranks[bank.rank as usize].bank_closed(now);
        self.stats.pres += 1;
        if self.mitigation.on_precharge(bank, row, pre_at) {
            self.assert_alert(bank.rank as usize, pre_at);
        }
    }

    fn do_read(&mut self, bank: BankId, now: Cycle) {
        let t = self.cfg.timings;
        {
            let b = self.bank_mut(bank);
            b.next_pre = b.next_pre.max(now + t.rtp);
        }
        let r = &mut self.ranks[bank.rank as usize];
        r.next_rd_any = r.next_rd_any.max(now + t.ccd_s);
        let g = bank.group as usize;
        r.next_rd_group[g] = r.next_rd_group[g].max(now + t.ccd_l);
        // Data burst occupies [now+CL, now+CL+BL); block conflicting bus use.
        let burst_end = now + t.cl + t.bl;
        self.next_rd = self.next_rd.max(burst_end - t.cl);
        // Read→write turnaround: the write burst must start after the read
        // burst ends (plus 2 cycles of bus turnaround).
        self.next_wr = self.next_wr.max((burst_end + 2).saturating_sub(t.cwl));
        self.stats.reads += 1;
    }

    fn do_write(&mut self, bank: BankId, now: Cycle) {
        let t = self.cfg.timings;
        let burst_end = now + t.cwl + t.bl;
        {
            let b = self.bank_mut(bank);
            b.next_pre = b.next_pre.max(burst_end + t.wr);
        }
        let r = &mut self.ranks[bank.rank as usize];
        r.next_wr_any = r.next_wr_any.max(now + t.ccd_s);
        let g = bank.group as usize;
        r.next_wr_group[g] = r.next_wr_group[g].max(now + t.ccd_l);
        // Write→read turnaround (tWTR measured from end of write burst).
        r.next_rd_any = r.next_rd_any.max(burst_end + t.wtr_s);
        r.next_rd_group[g] = r.next_rd_group[g].max(burst_end + t.wtr_l);
        self.next_wr = self.next_wr.max(burst_end - t.cwl);
        self.next_rd = self.next_rd.max((burst_end + 2).saturating_sub(t.cl));
        self.stats.writes += 1;
    }

    fn do_refresh(&mut self, rank: usize, now: Cycle) {
        let t = self.cfg.timings;
        {
            let r = &mut self.ranks[rank];
            r.blocked_until = now + t.rfc;
            for b in &mut r.banks {
                b.next_act = b.next_act.max(now + t.rfc);
            }
            r.refs_done += 1;
        }
        self.stats.refs += 1;
        let ref_idx = self.ranks[rank].refs_done;
        if let Some(o) = &mut self.oracle {
            o.on_periodic_sweep(rank, ref_idx.wrapping_sub(1));
        }
        let mut serviced = std::mem::take(&mut self.periodic_scratch);
        serviced.clear();
        self.mitigation
            .on_periodic_refresh(rank, now, &mut serviced);
        self.stats.borrowed_refreshes += serviced.len() as u64;
        if let Some(o) = &mut self.oracle {
            for &(bank, aggressor) in &serviced {
                o.on_victims_refreshed(bank, aggressor);
            }
        }
        self.periodic_scratch = serviced;
    }

    fn do_rfm(&mut self, rank: usize, now: Cycle) {
        let t = self.cfg.timings;
        {
            let r = &mut self.ranks[rank];
            r.blocked_until = now + t.rfm;
            for b in &mut r.banks {
                b.next_act = b.next_act.max(now + t.rfm);
            }
        }
        self.stats.rfms += 1;
        let g = self.cfg.geometry;
        for i in 0..g.banks_per_rank() {
            let id = BankId::from_flat(rank * g.banks_per_rank() + i, &g);
            let outcome = self.mitigation.on_rfm(id, now);
            if let Some(aggressor) = outcome.refreshed_aggressor {
                self.stats.rfm_victim_rows +=
                    victims_of(aggressor, self.cfg.blast_radius, g.rows).count() as u64;
                if let Some(o) = &mut self.oracle {
                    o.on_victims_refreshed(id, aggressor);
                }
            }
        }
    }

    fn assert_alert(&mut self, rank: usize, now: Cycle) {
        let at = now + self.cfg.timings.alert;
        let slot = &mut self.ranks[rank].alert_at;
        if slot.is_none() {
            *slot = Some(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DramDevice {
        DramDevice::new(DramConfig::tiny())
    }

    const B0: BankId = BankId::new(0, 0, 0);
    const B1: BankId = BankId::new(0, 0, 1);

    #[test]
    fn act_then_read_respects_trcd() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Act { bank: B0, row: 3 }, 0);
        assert!(!d.can_issue(&Command::Rd { bank: B0, col: 0 }, t.rcd - 1));
        assert!(d.can_issue(&Command::Rd { bank: B0, col: 0 }, t.rcd));
    }

    #[test]
    fn pre_respects_tras_and_act_respects_trp() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Act { bank: B0, row: 3 }, 0);
        assert!(!d.can_issue(&Command::Pre { bank: B0 }, t.ras - 1));
        assert!(d.can_issue(&Command::Pre { bank: B0 }, t.ras));
        d.issue(&Command::Pre { bank: B0 }, t.ras);
        let reopen = t.ras + t.rp;
        assert!(!d.can_issue(&Command::Act { bank: B0, row: 4 }, reopen - 1));
        assert!(d.can_issue(&Command::Act { bank: B0, row: 4 }, reopen.max(t.rc)));
    }

    #[test]
    fn same_bank_act_to_act_is_trc() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Act { bank: B0, row: 1 }, 0);
        d.issue(&Command::Pre { bank: B0 }, t.ras);
        // tRC (76) > tRAS + tRP (52 + 24 = 76) for baseline: equal here.
        assert!(!d.can_issue(&Command::Act { bank: B0, row: 2 }, t.rc - 1));
        assert!(d.can_issue(&Command::Act { bank: B0, row: 2 }, t.rc));
    }

    #[test]
    fn different_banks_separated_by_trrd() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Act { bank: B0, row: 1 }, 0);
        // Same bank group: tRRD_L.
        assert!(!d.can_issue(&Command::Act { bank: B1, row: 1 }, t.rrd_l - 1));
        assert!(d.can_issue(&Command::Act { bank: B1, row: 1 }, t.rrd_l));
    }

    #[test]
    fn faw_blocks_fifth_activation() {
        // Use an artificially long tFAW so the window binds (with the
        // standard bin, 4 × tRRD ≥ tFAW and the window is never limiting).
        let mut cfg = DramConfig::ddr5_baseline();
        let mut ns = TimingsNs::ddr5_3200an_baseline();
        ns.tfaw = 60.0; // 96 cycles
        cfg.timings = ns.resolve();
        cfg.strict = true;
        let mut d = DramDevice::new(cfg);
        let t = *d.timings();
        let g = *d.geometry();
        let mut now = 0;
        for i in 0..4usize {
            let bank = BankId::from_flat(i, &g);
            assert!(d.can_issue(&Command::Act { bank, row: 0 }, now));
            d.issue(&Command::Act { bank, row: 0 }, now);
            now += t.rrd_l;
        }
        // Four ACTs at 0, 8, 16, 24; the fifth must wait until 0 + tFAW.
        assert!(now < t.faw);
        let fifth = Command::Act {
            bank: BankId::new(0, 4, 0),
            row: 0,
        };
        assert!(!d.can_issue(&fifth, now));
        assert!(!d.can_issue(&fifth, t.faw - 1));
        assert!(d.can_issue(&fifth, t.faw));
    }

    #[test]
    fn refresh_blocks_rank() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::RefAll { rank: 0 }, 0);
        assert_eq!(d.rank_blocked_until(0), t.rfc);
        assert!(!d.can_issue(&Command::Act { bank: B0, row: 0 }, t.rfc - 1));
        assert!(d.can_issue(&Command::Act { bank: B0, row: 0 }, t.rfc));
        assert_eq!(d.stats().refs, 1);
    }

    #[test]
    fn refresh_requires_all_banks_idle() {
        let mut d = dev();
        d.issue(&Command::Act { bank: B0, row: 0 }, 0);
        assert!(!d.can_issue(&Command::RefAll { rank: 0 }, 100));
    }

    #[test]
    fn rfm_blocks_rank_for_trfm() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::RfmAll { rank: 0 }, 0);
        assert_eq!(d.rank_blocked_until(0), t.rfm);
        assert_eq!(d.stats().rfms, 1);
    }

    #[test]
    fn vrr_occupies_bank_for_trc() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Vrr { bank: B0, row: 9 }, 0);
        assert!(d.open_row(B0).is_none());
        assert!(!d.can_issue(&Command::Act { bank: B0, row: 1 }, t.rc - 1));
        assert!(d.can_issue(&Command::Act { bank: B0, row: 1 }, t.rc));
        assert_eq!(d.stats().vrrs, 1);
    }

    #[test]
    fn write_then_pre_respects_write_recovery() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Act { bank: B0, row: 3 }, 0);
        d.issue(&Command::Wr { bank: B0, col: 0 }, t.rcd);
        let pre_ok = t.rcd + t.cwl + t.bl + t.wr;
        assert!(!d.can_issue(&Command::Pre { bank: B0 }, pre_ok - 1));
        assert!(d.can_issue(&Command::Pre { bank: B0 }, pre_ok));
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Act { bank: B0, row: 3 }, 0);
        d.issue(&Command::Act { bank: B1, row: 3 }, t.rrd_l);
        let wr_at = t.rcd;
        d.issue(&Command::Wr { bank: B0, col: 0 }, wr_at);
        let rd_ok = wr_at + t.cwl + t.bl + t.wtr_l; // same bank group
        assert!(!d.can_issue(&Command::Rd { bank: B1, col: 0 }, rd_ok - 1));
        assert!(d.can_issue(&Command::Rd { bank: B1, col: 0 }, rd_ok));
    }

    #[test]
    fn oracle_sees_activations() {
        let mut cfg = DramConfig::tiny();
        cfg.oracle_nrh = Some(100);
        let mut d = DramDevice::new(cfg);
        let t = *d.timings();
        let mut now = 0;
        for _ in 0..5 {
            d.issue(&Command::Act { bank: B0, row: 50 }, now);
            now += t.ras;
            d.issue(&Command::Pre { bank: B0 }, now);
            now += t.rp.max(t.rc - t.ras);
        }
        let o = d.oracle().unwrap();
        assert_eq!(o.damage_of(B0, 49), 5);
        assert_eq!(o.max_damage(), 5);
    }

    #[test]
    #[should_panic(expected = "timing violation")]
    fn strict_mode_panics_on_violation() {
        let mut d = dev();
        d.issue(&Command::Act { bank: B0, row: 0 }, 0);
        // Reading before tRCD is illegal.
        d.issue(&Command::Rd { bank: B0, col: 0 }, 1);
    }

    /// The original per-command statement of the timing rules, read
    /// straight off the frontier fields rather than through the floor
    /// accessors: the independent oracle for `earliest_issue_at`, and so for
    /// the `can_issue` derived from it.
    fn legacy_can_issue(d: &DramDevice, cmd: &Command, now: Cycle) -> bool {
        match *cmd {
            Command::Act { bank, .. } | Command::Vrr { bank, .. } => {
                let r = &d.ranks[bank.rank as usize];
                let b = d.bank(bank);
                b.is_idle()
                    && now >= r.blocked_until
                    && now >= b.next_act
                    && now >= r.next_act_any
                    && now >= r.next_act_group[bank.group as usize]
                    && now >= r.faw_ready_at(d.cfg.timings.faw)
            }
            Command::Pre { bank } => {
                let r = &d.ranks[bank.rank as usize];
                let b = d.bank(bank);
                !b.is_idle() && now >= r.blocked_until && now >= b.next_pre
            }
            Command::PreAll { rank } => {
                let r = &d.ranks[rank];
                now >= r.blocked_until && r.banks.iter().all(|b| b.is_idle() || now >= b.next_pre)
            }
            Command::Rd { bank, .. } | Command::RdA { bank, .. } => {
                let r = &d.ranks[bank.rank as usize];
                let b = d.bank(bank);
                !b.is_idle()
                    && now >= r.blocked_until
                    && now >= b.next_rd
                    && now >= r.next_rd_any
                    && now >= r.next_rd_group[bank.group as usize]
                    && now >= d.next_rd
            }
            Command::Wr { bank, .. } | Command::WrA { bank, .. } => {
                let r = &d.ranks[bank.rank as usize];
                let b = d.bank(bank);
                !b.is_idle()
                    && now >= r.blocked_until
                    && now >= b.next_wr
                    && now >= r.next_wr_any
                    && now >= r.next_wr_group[bank.group as usize]
                    && now >= d.next_wr
            }
            Command::RefAll { rank } | Command::RfmAll { rank } => {
                let r = &d.ranks[rank];
                now >= r.blocked_until && r.all_idle() && r.banks.iter().all(|b| now >= b.next_act)
            }
        }
    }

    /// Pins the `earliest_issue_at` contract against `legacy_can_issue`
    /// over a window of cycles: legality must flip exactly at the reported
    /// cycle.
    fn assert_earliest_exact(d: &DramDevice, cmd: &Command, now: Cycle, horizon: Cycle) {
        let at = d.earliest_issue_at(cmd, now);
        for t in now..now + horizon {
            assert_eq!(
                legacy_can_issue(d, cmd, t),
                t >= at,
                "{cmd} at t={t}: earliest_issue_at said {at}"
            );
        }
    }

    /// Every command shape on `bank`; the rank-scoped ones target its rank.
    fn shapes(bank: BankId, row: RowId, col: u32) -> [Command; 10] {
        let rank = bank.rank as usize;
        [
            Command::Act { bank, row },
            Command::Vrr { bank, row },
            Command::Pre { bank },
            Command::PreAll { rank },
            Command::Rd { bank, col },
            Command::RdA { bank, col },
            Command::Wr { bank, col },
            Command::WrA { bank, col },
            Command::RefAll { rank },
            Command::RfmAll { rank },
        ]
    }

    /// splitmix64, local to the tests (the crate depends on no RNG).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn earliest_issue_at_matches_legacy_rules_on_random_walks() {
        for seed in 0..200u64 {
            let (mut rng, mut d, mut now) = (seed, dev(), 0);
            let g = *d.geometry();
            let rfm = d.timings().rfm;
            for step in 0..40 {
                // A random command that is legal at some cycle, issued at
                // that cycle plus a slack of 0, 1 or 7.
                let (cmd, at) = loop {
                    let r = splitmix(&mut rng);
                    let bank = BankId::from_flat(r as usize % 4, &g);
                    let cmd = shapes(bank, (r >> 8) as u32 % 16, (r >> 16) as u32 % 16)
                        [(r >> 24) as usize % 10];
                    let at = d.earliest_issue_at(&cmd, now);
                    if at != Cycle::MAX {
                        break (cmd, at + [0, 1, 7][(r >> 32) as usize % 3]);
                    }
                };
                d.issue(&cmd, at);
                now = at;
                for flat in 0..g.total_banks() {
                    for c in shapes(BankId::from_flat(flat, &g), 5, 3) {
                        let e = d.earliest_issue_at(&c, now);
                        let ctx = format!("seed {seed} step {step} after {cmd}: {c}, e={e}");
                        // A structurally illegal command (e = MAX) is probed a tRFM on.
                        let p = e.min(now + rfm);
                        for t in [now, p.saturating_sub(1), p, p + 1]
                            .into_iter()
                            .filter(|&t| t >= now)
                        {
                            assert_eq!(legacy_can_issue(&d, &c, t), t >= e, "{ctx} at {t}");
                        }
                    }
                }
            }
        }
    }

    /// Runs one fixed script, each command at its earliest cycle, and
    /// returns every `earliest_issue_at` answer along the way: each issue
    /// cycle, then every command shape on the script's banks.
    fn script_answers(timings: Timings) -> Vec<Cycle> {
        // The Table 2 geometry: five ACTs inside one tFAW need five banks,
        // and `tiny()`'s four cannot hold a fifth ACT inside one tRC.
        let mut cfg = DramConfig::ddr5_baseline();
        cfg.timings = timings;
        cfg.strict = true;
        let mut d = DramDevice::new(cfg);
        let banks = [(0, 0), (0, 1), (1, 0), (2, 0), (3, 0)].map(|(g, k)| BankId::new(0, g, k));
        // `MNEMONIC group.bank` on rank 0: tRRD_L, tRRD_S and a fifth ACT
        // against tFAW; CAS-to-CAS and both bus turnarounds; auto-precharge;
        // the row cycle after PRE and after VRR; then the rank commands.
        let script = "ACT 0.0 ACT 0.1 ACT 1.0 ACT 2.0 ACT 3.0 \
                      RD 0.0 RD 0.0 WR 1.0 RD 0.1 RD 1.0 \
                      WRA 2.0 RDA 3.0 PRE 0.0 ACT 0.0 PRE 0.1 VRR 0.1 \
                      PREab 0.0 REFab 0.0 RFMab 0.0";
        let (mut now, mut answers) = (0, Vec::new());
        let mut words = script.split_whitespace();
        while let (Some(op), Some(at)) = (words.next(), words.next()) {
            let (g, k) = at.split_once('.').unwrap();
            let bank = BankId::new(0, g.parse().unwrap(), k.parse().unwrap());
            let cmd = shapes(bank, 1, 0)
                .into_iter()
                .find(|c| c.mnemonic() == op)
                .unwrap();
            now = d.earliest_issue_at(&cmd, now);
            assert_ne!(now, Cycle::MAX, "{cmd} must stay structurally legal");
            d.issue(&cmd, now);
            answers.push(now);
            for bank in banks {
                answers.extend(shapes(bank, 7, 0).map(|c| d.earliest_issue_at(&c, now)));
            }
        }
        answers
    }

    /// The proof gate for the timing parameters: one cycle more or less on
    /// any field the device reads must move some answer of one script. A
    /// perturbation that moves nothing is reported by name — its rule is
    /// dead, missing, or dominated by another.
    #[test]
    fn every_timing_parameter_moves_an_answer() {
        let base = Timings::for_mode(TimingMode::Baseline);
        let reference = script_answers(base);
        let mut unmoved = Vec::new();
        macro_rules! perturb {
            ($($field:ident)*) => {$(
                for delta in [1, -1] {
                    let mut t = base;
                    t.$field = t.$field.wrapping_add_signed(delta);
                    if script_answers(t) == reference {
                        unmoved.push(format!("{}{delta:+}", stringify!($field)));
                    }
                }
            )*};
        }
        perturb!(rcd cl cwl rp ras rc rtp wr rrd_s rrd_l faw ccd_s ccd_l wtr_s wtr_l rfc rfm bl);
        // Dominated, not dead: the DDR5-3200AN bin ties each of these to
        // another rule, which then binds one cycle earlier (tRRD_L = tRRD_S,
        // tFAW = 4 × tRRD_S, tCCD_S = tBL, tCCD_L = tCCD_S).
        assert_eq!(unmoved, ["rrd_l-1", "faw-1", "ccd_s-1", "ccd_l-1"]);
    }

    #[test]
    fn earliest_issue_at_matches_can_issue_across_frontiers() {
        let mut d = dev();
        let t = *d.timings();
        // Idle bank: ACT legal immediately, CAS/PRE structurally blocked.
        assert_eq!(
            d.earliest_issue_at(&Command::Act { bank: B0, row: 1 }, 0),
            0
        );
        assert_eq!(
            d.earliest_issue_at(&Command::Rd { bank: B0, col: 0 }, 0),
            Cycle::MAX
        );
        assert_eq!(
            d.earliest_issue_at(&Command::Pre { bank: B0 }, 0),
            Cycle::MAX
        );
        d.issue(&Command::Act { bank: B0, row: 1 }, 0);
        // Open bank: ACT structurally blocked, RD gated by tRCD, PRE by tRAS.
        assert_eq!(
            d.earliest_issue_at(&Command::Act { bank: B0, row: 2 }, 0),
            Cycle::MAX
        );
        assert_earliest_exact(&d, &Command::Rd { bank: B0, col: 0 }, 1, t.rc + 8);
        assert_earliest_exact(&d, &Command::Wr { bank: B0, col: 0 }, 1, t.rc + 8);
        assert_earliest_exact(&d, &Command::Pre { bank: B0 }, 1, t.rc + 8);
        // Sibling bank: ACT gated by tRRD_L.
        assert_earliest_exact(&d, &Command::Act { bank: B1, row: 7 }, 1, t.rc + 8);
        // After a read: PRE pushed to tRTP, CAS frontiers advanced.
        d.issue(&Command::Rd { bank: B0, col: 0 }, t.rcd);
        assert_earliest_exact(&d, &Command::Pre { bank: B0 }, t.rcd, t.rc + 8);
        assert_earliest_exact(&d, &Command::Rd { bank: B0, col: 1 }, t.rcd, t.rc + 8);
        // Write→read turnaround on the channel frontier.
        d.issue(&Command::Act { bank: B1, row: 7 }, t.rrd_l.max(t.rcd + 1));
        let wr_at = d.earliest_issue_at(&Command::Wr { bank: B1, col: 0 }, t.rcd + 2);
        d.issue(&Command::Wr { bank: B1, col: 0 }, wr_at);
        assert_earliest_exact(&d, &Command::Rd { bank: B0, col: 2 }, wr_at, t.rc + 64);
    }

    #[test]
    fn earliest_issue_at_covers_rank_level_commands() {
        let mut d = dev();
        let t = *d.timings();
        // All idle: REF/RFM legal now, PREab legal now (no open banks).
        assert_eq!(d.earliest_issue_at(&Command::RefAll { rank: 0 }, 0), 0);
        assert_eq!(d.earliest_issue_at(&Command::PreAll { rank: 0 }, 0), 0);
        d.issue(&Command::Act { bank: B0, row: 1 }, 0);
        // Open bank: REFab structurally blocked until precharged; PREab
        // waits for the open bank's tRAS.
        assert_eq!(
            d.earliest_issue_at(&Command::RefAll { rank: 0 }, 1),
            Cycle::MAX
        );
        assert_earliest_exact(&d, &Command::PreAll { rank: 0 }, 1, t.rc + 8);
        d.issue(&Command::PreAll { rank: 0 }, t.ras);
        // Idle again: REFab waits out tRP (bank next_act frontier).
        assert_earliest_exact(&d, &Command::RefAll { rank: 0 }, t.ras, t.rc + 8);
        assert_earliest_exact(&d, &Command::RfmAll { rank: 0 }, t.ras, t.rc + 8);
        // After a REF the rank-block frontier gates everything.
        let ref_at = d.earliest_issue_at(&Command::RefAll { rank: 0 }, t.ras);
        d.issue(&Command::RefAll { rank: 0 }, ref_at);
        assert_earliest_exact(&d, &Command::Act { bank: B0, row: 1 }, ref_at, t.rfc + 8);
    }

    #[test]
    fn earliest_issue_at_respects_faw() {
        let mut cfg = DramConfig::ddr5_baseline();
        let mut ns = TimingsNs::ddr5_3200an_baseline();
        ns.tfaw = 60.0; // 96 cycles, so the window binds
        cfg.timings = ns.resolve();
        cfg.strict = true;
        let mut d = DramDevice::new(cfg);
        let t = *d.timings();
        let g = *d.geometry();
        let mut now = 0;
        for i in 0..4usize {
            d.issue(
                &Command::Act {
                    bank: BankId::from_flat(i, &g),
                    row: 0,
                },
                now,
            );
            now += t.rrd_l;
        }
        let fifth = Command::Act {
            bank: BankId::new(0, 4, 0),
            row: 0,
        };
        assert_eq!(d.earliest_issue_at(&fifth, now), t.faw);
        assert_earliest_exact(&d, &fifth, now, t.faw + 16);
    }

    #[test]
    fn finalize_accounts_background_split() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Act { bank: B0, row: 0 }, 10);
        d.issue(&Command::Pre { bank: B0 }, 10 + t.ras);
        d.finalize(1000);
        let s = d.stats();
        assert_eq!(s.active_standby_cycles, t.ras);
        assert_eq!(s.total_cycles, 1000);
        // One rank in the tiny geometry.
        assert_eq!(s.precharge_standby_cycles, 1000 - t.ras);
    }
}
