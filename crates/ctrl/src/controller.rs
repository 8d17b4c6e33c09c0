//! The memory controller: queues, arbitration, refresh, RFM/back-off.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use chronus_dram::{BankId, Command, Cycle, DramDevice, RowId};
use serde::{Deserialize, Serialize};

use crate::mapping::AddressMapping;
use crate::mitigation::{CtrlMitigation, CtrlMitigationStats, MitigationAction, NoCtrlMitigation};
use crate::obs::{ObsProbe, ObsReport, PauseCause, RowOutcome};
use crate::queue::RequestQueue;
use crate::refresh::RefreshEngine;
use crate::request::{Completion, MemRequest, ReqKind, INTERNAL_CORE};
use crate::rfm::{BackOffFsm, BackOffState, RfmPolicy};
use crate::scheduler::{self, Decision};

/// Controller configuration (Table 2 defaults via [`CtrlConfig::default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CtrlConfig {
    /// Read-queue capacity.
    pub read_q: usize,
    /// Write-queue capacity.
    pub write_q: usize,
    /// FR-FCFS column-over-row reordering cap.
    pub cap: u32,
    /// Physical-address mapping.
    pub mapping: AddressMapping,
    /// Enter write-drain mode at this write-queue occupancy.
    pub wr_high: usize,
    /// Leave write-drain mode at this occupancy.
    pub wr_low: usize,
    /// Back-off policy (PRAC / Chronus / none).
    pub rfm_policy: RfmPolicy,
    /// PRFM: issue an RFM when a bank accumulates this many activations.
    pub raa_threshold: Option<u32>,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        Self {
            read_q: 64,
            write_q: 64,
            cap: 4,
            mapping: AddressMapping::Mop,
            wr_high: 48,
            wr_low: 16,
            rfm_policy: RfmPolicy::None,
            raa_threshold: None,
        }
    }
}

/// Controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CtrlStats {
    /// Reads served from an already-open row.
    pub row_hits: u64,
    /// Reads/writes that required an activation only.
    pub row_misses: u64,
    /// Reads/writes that required closing another row first.
    pub row_conflicts: u64,
    /// Demand reads completed.
    pub reads_served: u64,
    /// Demand writes issued to DRAM.
    pub writes_served: u64,
    /// Sum of read latencies (arrival → data), in memory cycles.
    pub read_latency_sum: u64,
    /// Victim-row refreshes issued (controller-side mechanisms).
    pub vrrs_issued: u64,
    /// RFMs issued by the PRFM RAA counters.
    pub raa_rfms: u64,
    /// Back-offs honoured (PRAC / Chronus policies).
    pub back_offs: u64,
    /// RFMs issued during back-off recovery periods.
    pub recovery_rfms: u64,
}

impl CtrlStats {
    /// Mean demand-read latency in memory cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_served == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_served as f64
        }
    }
}

#[derive(PartialEq, Eq)]
struct PendingCompletion(Completion);

impl Ord for PendingCompletion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on completion time.
        other.0.at.cmp(&self.0.at).then(other.0.id.cmp(&self.0.id))
    }
}

impl PartialOrd for PendingCompletion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One pending victim-row refresh. When `completes_service_of` is set,
/// issuing this VRR finishes a whole victim group and the controller
/// notifies the device's oracle that the aggressor has been serviced.
#[derive(Debug, Clone, Copy)]
struct PendingVrr {
    bank: BankId,
    row: RowId,
    completes_service_of: Option<RowId>,
}

/// A wake cycle and, when demand alone decides it, the decision and queue.
type Wake = (Cycle, Option<(Decision, bool)>);

/// Why [`MemoryController::fold_arrivals`] leaves the pending arrivals
/// to a full recompute.
enum Rescan {
    /// An arrival's candidate ties the wake.
    Tie,
    /// The queue preference changed under a cached demand verdict.
    Preference,
    /// An arrival's rank owes a refresh and may have had no demand.
    RefreshPending,
}

/// Tombstones beyond which the VRR queue is compacted in one `retain`
/// sweep (middle removals are tombstoned to stay O(1); issue order is
/// unaffected because tombstones are invisible to the scan).
const VRR_COMPACT_THRESHOLD: usize = 64;

/// The DDR5 memory controller.
pub struct MemoryController {
    cfg: CtrlConfig,
    reads: RequestQueue,
    writes: RequestQueue,
    /// Pending victim-row refreshes (strict priority over demand).
    /// `None` entries are tombstones of already-issued VRRs.
    vrrq: VecDeque<Option<PendingVrr>>,
    vrr_tombstones: usize,
    completions: BinaryHeap<PendingCompletion>,
    fsm: Vec<BackOffFsm>,
    refresh: Vec<RefreshEngine>,
    /// PRFM rolling activation counters, per flat bank.
    raa: Vec<u32>,
    /// Ranks whose RAA counters demand an RFM before further activations
    /// (maintained incrementally at the increment/subtract points; blocks
    /// demand like a recovery period).
    raa_hot: Vec<bool>,
    hit_streak: Vec<u32>,
    mitigation: Box<dyn CtrlMitigation>,
    drain_mode: bool,
    actions_buf: Vec<MitigationAction>,
    stats: CtrlStats,
    /// Memoized [`MemoryController::next_wake`] verdict; valid while
    /// `!wake_dirty`, `wake_arrivals` is empty, and strictly in the future.
    wake_cache: Cycle,
    /// A tick changed state since the last recompute: the next
    /// `next_wake` rescans.
    wake_dirty: bool,
    /// `(is_write_queue, slot)` of each request that arrived since the memo
    /// was brought up to date, for `next_wake` to fold in (none while dirty).
    wake_arrivals: Vec<(bool, u32)>,
    /// The queue preference ([`MemoryController::prefers_writes`]) the
    /// memoized verdict was decided under.
    wake_prefers_writes: bool,
    /// The demand decision the tick at `wake_cache` will take, when the
    /// wake is decided strictly by a demand candidate (`(decision,
    /// is_write_queue)`). Valid under the same conditions as `wake_cache`
    /// and only at exactly that cycle; lets the tick skip its queue scan.
    wake_decision: Option<(Decision, bool)>,
    wake_recomputes: u64,
    wake_folds: u64,
    wake_shortcuts: u64,
    /// Opt-in timing-observability probe ([`crate::obs`]); `None` (one
    /// branch per issued command) unless [`MemoryController::enable_obs`]
    /// was called. Strictly observational: never consulted by scheduling.
    obs: Option<Box<ObsProbe>>,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("cfg", &self.cfg)
            .field("reads", &self.reads.len())
            .field("writes", &self.writes.len())
            .field("vrrq", &self.pending_vrrs())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemoryController {
    /// A controller for the given device geometry.
    pub fn new(cfg: CtrlConfig, dram: &DramDevice) -> Self {
        Self::with_mitigation(cfg, dram, Box::new(NoCtrlMitigation))
    }

    /// A controller with a controller-side mitigation mechanism attached.
    ///
    /// # Panics
    ///
    /// Panics when the geometry exceeds [`crate::queue::MAX_BANKS`] flat
    /// banks (the scheduler's bank bitsets are fixed-width).
    pub fn with_mitigation(
        cfg: CtrlConfig,
        dram: &DramDevice,
        mitigation: Box<dyn CtrlMitigation>,
    ) -> Self {
        let geo = *dram.geometry();
        let refi = dram.timings().refi;
        Self {
            cfg,
            reads: RequestQueue::new(geo),
            writes: RequestQueue::new(geo),
            vrrq: VecDeque::new(),
            vrr_tombstones: 0,
            completions: BinaryHeap::new(),
            fsm: (0..geo.ranks)
                .map(|_| BackOffFsm::new(cfg.rfm_policy))
                .collect(),
            refresh: (0..geo.ranks).map(|_| RefreshEngine::new(refi)).collect(),
            raa: vec![0; geo.total_banks()],
            raa_hot: vec![false; geo.ranks],
            hit_streak: vec![0; geo.total_banks()],
            mitigation,
            drain_mode: false,
            actions_buf: Vec::new(),
            stats: CtrlStats::default(),
            wake_cache: 0,
            wake_dirty: true,
            wake_arrivals: Vec::new(),
            wake_prefers_writes: false,
            wake_decision: None,
            wake_recomputes: 0,
            wake_folds: 0,
            wake_shortcuts: 0,
            obs: None,
        }
    }

    /// Attaches the timing-observability probe ([`crate::obs`]). Recording
    /// happens only at command-issue events, so the fast and reference
    /// loops observe identical streams.
    pub fn enable_obs(&mut self) {
        let total_banks = self.raa.len();
        self.obs = Some(Box::new(ObsProbe::new(total_banks)));
    }

    /// Whether the observability probe is attached.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Detaches the probe and freezes it into a report; any open
    /// mitigation pause is closed at `mem_cycles`. `None` when obs was
    /// never enabled.
    pub fn take_obs_report(&mut self, mem_cycles: Cycle) -> Option<ObsReport> {
        self.obs.take().map(|p| p.finish(mem_cycles))
    }

    /// Probe hook for a non-demand command: opens/extends a mitigation
    /// pause when demand is actually waiting behind it.
    fn obs_block(&mut self, cause: PauseCause, now: Cycle) {
        if let Some(obs) = self.obs.as_deref_mut() {
            if self.reads.len() + self.writes.len() > 0 {
                obs.note_block(cause, now);
            }
        }
    }

    /// Whether a new request of `kind` can be accepted this cycle.
    pub fn can_accept(&self, kind: ReqKind) -> bool {
        match kind {
            ReqKind::Read => self.reads.len() < self.cfg.read_q,
            ReqKind::Write => self.writes.len() < self.cfg.write_q,
        }
    }

    /// Enqueues a demand request. Returns `false` (rejecting the request)
    /// when the corresponding queue is full.
    pub fn push_request(&mut self, req: MemRequest) -> bool {
        if !self.can_accept(req.kind) {
            return false;
        }
        let write = req.kind == ReqKind::Write;
        let queue = if write {
            &mut self.writes
        } else {
            &mut self.reads
        };
        let slot = queue.push(req);
        if !self.wake_dirty {
            self.wake_arrivals.push((write, slot));
        }
        true
    }

    /// Delivers completions whose data has arrived by `now`.
    pub fn drain_completions(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        while let Some(PendingCompletion(c)) = self.completions.peek() {
            if c.at > now {
                break;
            }
            let c = *c;
            self.completions.pop();
            out.push(c);
        }
    }

    /// Outstanding demand requests (both queues).
    pub fn pending_requests(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Outstanding victim refreshes.
    pub fn pending_vrrs(&self) -> usize {
        self.vrrq.len() - self.vrr_tombstones
    }

    /// Reads still waiting for data.
    pub fn pending_reads(&self) -> usize {
        self.reads.len() + self.completions.len()
    }

    /// Controller statistics.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Controller-side mechanism statistics.
    pub fn mitigation_stats(&self) -> CtrlMitigationStats {
        self.mitigation.stats()
    }

    /// The attached controller-side mechanism.
    pub fn mitigation(&self) -> &dyn CtrlMitigation {
        self.mitigation.as_ref()
    }

    /// The controller configuration.
    pub fn config(&self) -> &CtrlConfig {
        &self.cfg
    }

    /// Arrival time of the earliest pending read completion, if any. The
    /// event-driven loop uses this to bound fast-forward jumps: completions
    /// are drained outside [`MemoryController::tick`], so they do not
    /// contribute to [`MemoryController::next_wake`].
    pub fn next_completion_at(&self) -> Option<Cycle> {
        self.completions.peek().map(|PendingCompletion(c)| c.at)
    }

    /// How many times [`MemoryController::next_wake`] actually recomputed
    /// its verdict (as opposed to serving the memoized one or folding
    /// arrivals into it). Exposed for the cache-invalidation tests.
    pub fn wake_recomputes(&self) -> u64 {
        self.wake_recomputes
    }

    /// How many times [`MemoryController::next_wake`] folded new requests
    /// into the memoized verdict instead of recomputing it.
    pub fn wake_folds(&self) -> u64 {
        self.wake_folds
    }

    /// How many ticks issued straight from the fused-scan verdict without
    /// re-scanning the queues (see [`MemoryController::next_wake`]).
    pub fn wake_shortcuts(&self) -> u64 {
        self.wake_shortcuts
    }

    /// The exact first cycle strictly after `now` at which
    /// [`MemoryController::tick`] could act, assuming no new requests
    /// arrive in the meantime. Called right after a tick; the simulation
    /// loop may skip every cycle before the returned one.
    ///
    /// The verdict is the min over every action the tick priority ladder
    /// could take — back-off window deadlines and visible-alert times,
    /// refresh due times, recovery / urgent-refresh / RAA-hot / idle-rank
    /// refresh service (`PREab` → `REFab`/`RFMab`), the first eight
    /// pending VRRs, and both demand queues' per-bank candidates via
    /// `demand_event`, the scan step 6 of the tick also uses — each at its
    /// [`DramDevice::earliest_issue_at`]. Every quantity consulted only
    /// changes when a command issues, a request arrives, or one of the
    /// included timers fires, so the result is memoized behind a dirty
    /// flag set on issue and reused until `now` catches up to it.
    ///
    /// When the wake is decided *strictly* by a demand candidate (every
    /// refresh/back-off/VRR source is later), the fused scan also caches
    /// the exact [`Decision`] the scheduler will take at the wake cycle, so
    /// the tick there skips its own queue scan
    /// ([`MemoryController::tick`]'s step 6 applies the cached verdict
    /// directly). The same discipline guards it: any issue invalidates,
    /// and the verdict is only honoured at exactly the cached cycle.
    ///
    /// A request arrival only *adds* a candidate, so when arrivals are all
    /// that happened since the last recompute they are folded into the
    /// memo one bank at a time ([`MemoryController::fold_arrivals`]); in
    /// debug builds and in strict mode every fold is checked against a
    /// full recompute.
    pub fn next_wake(&mut self, dram: &DramDevice, now: Cycle) -> Cycle {
        let memo_valid = !self.wake_dirty && self.wake_cache > now;
        if memo_valid && self.wake_arrivals.is_empty() {
            return self.wake_cache;
        }
        let (wake, decision) = match memo_valid.then(|| self.fold_arrivals(dram, now)) {
            Some(Ok(folded)) => {
                if cfg!(debug_assertions) || dram.config().strict {
                    assert_eq!(folded, self.compute_wake(dram, now), "fold at cycle {now}");
                }
                self.wake_folds += 1;
                folded
            }
            _ => {
                self.wake_recomputes += 1;
                self.compute_wake(dram, now)
            }
        };
        self.wake_cache = wake;
        self.wake_decision = decision;
        self.wake_prefers_writes = self.prefers_writes();
        self.wake_dirty = false;
        self.wake_arrivals.clear();
        wake
    }

    /// The memoized wake and verdict with the pending arrivals folded in,
    /// in order, or why only [`MemoryController::compute_wake`] can bring
    /// them up to date. An arrival is its bank's youngest entry: it adds a
    /// candidate only as its bank's oldest hit or oldest non-hit (and not
    /// a capped bypassing hit, nor in a rank in recovery or RAA-hot), and
    /// displaces none. One strictly later than the wake changes nothing;
    /// one strictly earlier is the unique minimum, so it is the new wake
    /// and verdict whatever its class, age or queue. A tie needs the full
    /// rule, as does a queue preference that moved under a demand verdict
    /// (it breaks cross-queue ties among the old candidates) and an
    /// arrival that may end its rank's opportunistic refresh, the one wake
    /// source that depends on the queues.
    fn fold_arrivals(&self, dram: &DramDevice, now: Cycle) -> Result<Wake, Rescan> {
        if self.wake_decision.is_some() && self.prefers_writes() != self.wake_prefers_writes {
            return Err(Rescan::Preference);
        }
        let (mut wake, mut decision) = (self.wake_cache, self.wake_decision);
        let (cap, streak) = (self.cfg.cap, &self.hit_streak);
        for &(write, slot) in &self.wake_arrivals {
            let queue = if write { &self.writes } else { &self.reads };
            let entry = queue.get(slot);
            let rank = entry.req.addr.bank.rank as usize;
            let flat = entry.req.addr.bank.flat(dram.geometry());
            // A rank holding more requests than there are arrivals had
            // demand before them, so it had no opportunistic refresh.
            let rank_len = self.reads.rank_len(rank) + self.writes.rank_len(rank);
            if self.refresh[rank].pending() && rank_len <= self.wake_arrivals.len() {
                return Err(Rescan::RefreshPending);
            }
            if !self.rank_usable(rank) {
                continue;
            }
            let candidates =
                scheduler::bank_candidates(queue, dram, flat, write, now + 1, cap, streak);
            if let Some((t, _, d)) = candidates.into_iter().flatten().find(|c| c.1 == entry.seq) {
                match t.cmp(&wake) {
                    Ordering::Less => (wake, decision) = (t, Some((d, write))),
                    Ordering::Equal => return Err(Rescan::Tie),
                    Ordering::Greater => {}
                }
            }
        }
        Ok((wake, decision))
    }

    /// Earliest cycle at which `rank` could take its next refresh-service
    /// step: `PREab` while any bank is open, otherwise `REFab`/`RFMab`
    /// (both gated by the same all-idle ACT frontier).
    fn rank_service_ready(dram: &DramDevice, rank: usize) -> Cycle {
        if dram.rank_all_idle(rank) {
            dram.refresh_ready_at(rank)
        } else {
            dram.preall_ready_at(rank)
        }
    }

    fn compute_wake(&self, dram: &DramDevice, now: Cycle) -> Wake {
        let ranks = dram.geometry().ranks;
        // Wake sources from the ladder's steps 1–5 (timers, refresh/RFM
        // service, VRRs). Demand is folded in afterwards so that a wake
        // decided strictly by demand can carry its scheduling verdict.
        let mut wake = Cycle::MAX;
        for r in 0..ranks {
            let engine = &self.refresh[r];
            // A REF becoming due can flip the pending/urgent verdicts.
            wake = wake.min(engine.next_due());
            let fsm = &self.fsm[r];
            match fsm.state {
                BackOffState::Window { deadline } => wake = wake.min(deadline),
                // A latched alert matters once visible (and honoured).
                BackOffState::Normal if fsm.policy().honours_alert() => {
                    if let Some(at) = dram.alert_latched_at(r) {
                        wake = wake.min(at);
                    }
                }
                // Delay only advances on demand activations, which are
                // issues (they invalidate the cache themselves).
                _ => {}
            }
            if fsm.in_recovery() {
                // Only recovery PREab/RFMab may touch this rank; demand and
                // VRR scans below skip it.
                wake = wake.min(Self::rank_service_ready(dram, r));
                continue;
            }
            if engine.urgent() {
                wake = wake.min(Self::rank_service_ready(dram, r));
            }
            if self.cfg.raa_threshold.is_some() && self.raa_hot[r] {
                wake = wake.min(Self::rank_service_ready(dram, r));
            }
            if engine.pending() && self.reads.rank_len(r) + self.writes.rank_len(r) == 0 {
                // Opportunistic refresh: due, and the rank has no demand.
                wake = wake.min(Self::rank_service_ready(dram, r));
            }
        }
        // The first eight live VRRs (the tick's service window).
        let mut considered = 0;
        for v in &self.vrrq {
            let Some(v) = v else { continue };
            if considered >= 8 {
                break;
            }
            considered += 1;
            if self.fsm[v.bank.rank as usize].in_recovery() {
                continue;
            }
            let cmd = if dram.open_row(v.bank).is_some() {
                Command::Pre { bank: v.bank }
            } else {
                Command::Vrr {
                    bank: v.bank,
                    row: v.row,
                }
            };
            wake = wake.min(dram.earliest_issue_at(&cmd, now));
        }
        // Demand, with the queue preference the *wake-cycle* tick will
        // compute: its `drain_mode_next` sees today's queue lengths (they
        // move on issues, which invalidate this, and on arrivals, checked).
        let (t_d, d_d) = self.demand_event(dram, self.prefers_writes(), now + 1);
        // The verdict is only usable when demand strictly decides the
        // wake: on a tie with any step-1..5 source that step acts first.
        let decision = if t_d < wake { d_d } else { None };
        (wake.min(t_d).max(now + 1), decision)
    }

    /// The demand step of the tick ladder: the first cycle `>= from` at
    /// which either queue has an issuable FR-FCFS+Cap candidate, and the
    /// decision taken there with its queue (`true` = writes). The preferred
    /// queue (`serve_writes`) falls through to the other one and wins ties,
    /// so when it already acts at `from` the other queue is not scanned.
    fn demand_event(&self, dram: &DramDevice, serve_writes: bool, from: Cycle) -> Wake {
        let rank_usable = |r: usize| self.rank_usable(r);
        let (cap, streak) = (self.cfg.cap, &self.hit_streak);
        let scan = |writes: bool| {
            let queue = if writes { &self.writes } else { &self.reads };
            let (t, d) =
                scheduler::next_demand_event(queue, dram, writes, from, cap, streak, &rank_usable);
            (t, d.map(|d| (d, writes)))
        };
        let preferred = scan(serve_writes);
        if preferred.0 <= from {
            return preferred;
        }
        let other = scan(!serve_writes);
        if preferred.0 <= other.0 {
            preferred
        } else {
            other
        }
    }

    /// Whether demand may be scheduled to `rank`: not while it recovers
    /// from a back-off, nor while its RAA counters demand an RFM.
    fn rank_usable(&self, rank: usize) -> bool {
        !self.fsm[rank].in_recovery() && !self.raa_hot[rank]
    }

    /// Advances the controller by one memory cycle, issuing at most one
    /// command to the device.
    pub fn tick(&mut self, dram: &mut DramDevice, now: Cycle) {
        if self.tick_inner(dram, now) {
            self.wake_dirty = true;
        }
    }

    /// The tick body; returns `true` when any wake-relevant state changed
    /// (a command issued, a timer fired, or an alert was honoured).
    fn tick_inner(&mut self, dram: &mut DramDevice, now: Cycle) -> bool {
        let t = *dram.timings();
        let ranks = dram.geometry().ranks;
        let mut changed = false;
        for r in 0..ranks {
            changed |= self.refresh[r].tick(now);
            changed |= self.fsm[r].tick(now);
            if dram.alert_visible(r, now) && self.fsm[r].on_alert(now, t.aboact) {
                self.stats.back_offs += 1;
                dram.clear_alert(r);
                changed = true;
            }
        }

        // 1. Back-off recovery: PREab then RFMab until the period ends.
        for r in 0..ranks {
            if !self.fsm[r].in_recovery() {
                continue;
            }
            if !dram.rank_all_idle(r) {
                let cmd = Command::PreAll { rank: r };
                if dram.can_issue(&cmd, now) {
                    dram.issue(&cmd, now);
                    self.obs_block(PauseCause::BackOff, now);
                    return true;
                }
                // Wait for tRAS etc.; nothing else may touch this rank.
                continue;
            }
            let cmd = Command::RfmAll { rank: r };
            if dram.can_issue(&cmd, now) {
                dram.issue(&cmd, now);
                self.obs_block(PauseCause::BackOff, now);
                self.stats.recovery_rfms += 1;
                let still = dram.alert_still_needed(r);
                if self.fsm[r].on_recovery_rfm(still) {
                    dram.clear_alert(r);
                }
                return true;
            }
            // RFM blocked (previous RFM/REF in flight): hold the rank.
        }

        // 2. Urgent refresh (postponement limit reached).
        for r in 0..ranks {
            if !self.refresh[r].urgent() || self.fsm[r].in_recovery() {
                continue;
            }
            if self.try_refresh(dram, r, now) {
                return true;
            }
        }

        // 3. PRFM: RAA threshold crossed somewhere in the rank. A hot rank
        // blocks further demand (the DDR5 RAA maximum-limit rule) so its
        // banks drain, precharge, and the RFM can issue.
        if let Some(th) = self.cfg.raa_threshold {
            for r in 0..ranks {
                if self.fsm[r].in_recovery() || !self.raa_hot[r] {
                    continue;
                }
                if !dram.rank_all_idle(r) {
                    let cmd = Command::PreAll { rank: r };
                    if dram.can_issue(&cmd, now) {
                        dram.issue(&cmd, now);
                        self.obs_block(PauseCause::Raa, now);
                        return true;
                    }
                    continue;
                }
                let cmd = Command::RfmAll { rank: r };
                if dram.can_issue(&cmd, now) {
                    dram.issue(&cmd, now);
                    self.obs_block(PauseCause::Raa, now);
                    self.stats.raa_rfms += 1;
                    let base = r * dram.geometry().banks_per_rank();
                    for i in 0..dram.geometry().banks_per_rank() {
                        let c = &mut self.raa[base + i];
                        *c = c.saturating_sub(th);
                    }
                    self.raa_hot[r] =
                        (0..dram.geometry().banks_per_rank()).any(|i| self.raa[base + i] >= th);
                    return true;
                }
            }
        }

        // 4. Opportunistic refresh: due, and the rank has no demand traffic.
        for r in 0..ranks {
            if !self.refresh[r].pending() || self.fsm[r].in_recovery() {
                continue;
            }
            if self.reads.rank_len(r) + self.writes.rank_len(r) > 0 {
                continue;
            }
            if self.try_refresh(dram, r, now) {
                return true;
            }
        }

        // 5. Victim-row refreshes (strict priority over demand): the first
        // eight live entries, oldest first (tombstones are invisible).
        let mut considered = 0;
        let mut idx = 0;
        while idx < self.vrrq.len() && considered < 8 {
            let Some(PendingVrr {
                bank,
                row,
                completes_service_of,
            }) = self.vrrq[idx]
            else {
                idx += 1;
                continue;
            };
            considered += 1;
            idx += 1;
            if self.fsm[bank.rank as usize].in_recovery() {
                continue;
            }
            if dram.open_row(bank).is_some() {
                let cmd = Command::Pre { bank };
                if dram.can_issue(&cmd, now) {
                    dram.issue(&cmd, now);
                    self.obs_block(PauseCause::Vrr, now);
                    self.hit_streak[bank.flat(dram.geometry())] = 0;
                    return true;
                }
                continue;
            }
            let cmd = Command::Vrr { bank, row };
            if dram.can_issue(&cmd, now) {
                dram.issue(&cmd, now);
                self.obs_block(PauseCause::Vrr, now);
                self.vrrq[idx - 1] = None;
                self.vrr_tombstones += 1;
                self.vrr_compact();
                self.stats.vrrs_issued += 1;
                if let Some(aggressor) = completes_service_of {
                    dram.note_aggressor_serviced(bank, aggressor);
                }
                return true;
            }
        }

        // 6. Demand traffic under FR-FCFS+Cap with write draining.
        self.drain_mode = self.drain_mode_next();
        // Fused-scan fast path: `compute_wake` already decided what this
        // exact cycle's demand verdict is, and nothing invalidated it (no
        // issue since, and every arrival folded in). Steps 1–5 above
        // were all enumerated as strictly-later wake sources, so they
        // cannot have acted; skip the queue scans and apply the verdict.
        if !self.wake_dirty && self.wake_arrivals.is_empty() && now == self.wake_cache {
            if let Some((decision, is_write_queue)) = self.wake_decision.take() {
                self.wake_shortcuts += 1;
                self.apply(decision, is_write_queue, dram, now);
                return true;
            }
        }
        let serve_writes = self.drain_mode || self.reads.is_empty();
        match self.demand_event(dram, serve_writes, now) {
            (at, Some((decision, is_write_queue))) if at == now => {
                self.apply(decision, is_write_queue, dram, now);
                true
            }
            _ => changed,
        }
    }

    /// Drops leading tombstones and, past a threshold, compacts the VRR
    /// queue in one order-preserving sweep.
    fn vrr_compact(&mut self) {
        while matches!(self.vrrq.front(), Some(None)) {
            self.vrrq.pop_front();
            self.vrr_tombstones -= 1;
        }
        if self.vrr_tombstones > VRR_COMPACT_THRESHOLD && self.vrr_tombstones * 2 > self.vrrq.len()
        {
            self.vrrq.retain(Option::is_some);
            self.vrr_tombstones = 0;
        }
    }

    fn try_refresh(&mut self, dram: &mut DramDevice, rank: usize, now: Cycle) -> bool {
        if !dram.rank_all_idle(rank) {
            let cmd = Command::PreAll { rank };
            if dram.can_issue(&cmd, now) {
                dram.issue(&cmd, now);
                self.obs_block(PauseCause::Refresh, now);
                return true;
            }
            return false;
        }
        let cmd = Command::RefAll { rank };
        if dram.can_issue(&cmd, now) {
            dram.issue(&cmd, now);
            self.obs_block(PauseCause::Refresh, now);
            self.refresh[rank].refreshed();
            return true;
        }
        false
    }

    /// Write-drain hysteresis: the drain mode a tick settles on, given the
    /// current mode and write-queue occupancy.
    fn drain_mode_next(&self) -> bool {
        if self.drain_mode {
            self.writes.len() > self.cfg.wr_low
        } else {
            self.writes.len() >= self.cfg.wr_high
        }
    }

    /// The queue the next demand step serves first (`true` = writes):
    /// writes while draining, or when no read waits.
    fn prefers_writes(&self) -> bool {
        self.drain_mode_next() || self.reads.is_empty()
    }

    fn apply(
        &mut self,
        decision: Decision,
        is_write_queue: bool,
        dram: &mut DramDevice,
        now: Cycle,
    ) {
        // Every decision issues exactly one demand command, closing any
        // open mitigation pause at its issue cycle.
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.note_demand(now);
        }
        let t = *dram.timings();
        let geo = *dram.geometry();
        let queue = if is_write_queue {
            &mut self.writes
        } else {
            &mut self.reads
        };
        match decision {
            Decision::Cas(slot, bypass) => {
                let entry = queue.remove(slot);
                let cmd = entry.cas_command();
                dram.issue(&cmd, now);
                let flat = entry.req.addr.bank.flat(&geo);
                // Row-locality classification at service time.
                let outcome = if entry.caused_pre {
                    self.stats.row_conflicts += 1;
                    RowOutcome::Conflict
                } else if entry.caused_act {
                    self.stats.row_misses += 1;
                    RowOutcome::Miss
                } else {
                    self.stats.row_hits += 1;
                    RowOutcome::Hit
                };
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.record_cas(flat, outcome, now);
                }
                // Cap bookkeeping: only bypassing hits build the streak.
                if bypass {
                    self.hit_streak[flat] += 1;
                } else {
                    self.hit_streak[flat] = 0;
                }
                match entry.req.kind {
                    ReqKind::Read => {
                        self.stats.reads_served += 1;
                        let at = now + t.cl + t.bl;
                        self.stats.read_latency_sum += at - entry.req.arrived;
                        if let Some(obs) = self.obs.as_deref_mut() {
                            obs.record_read(entry.req.core, at - entry.req.arrived);
                        }
                        if entry.req.core != INTERNAL_CORE {
                            self.completions.push(PendingCompletion(Completion {
                                id: entry.req.id,
                                at,
                            }));
                        }
                    }
                    ReqKind::Write => {
                        self.stats.writes_served += 1;
                    }
                }
            }
            Decision::Act(slot) => {
                let addr = queue.get(slot).req.addr;
                queue.get_mut(slot).caused_act = true;
                let cmd = Command::Act {
                    bank: addr.bank,
                    row: addr.row,
                };
                dram.issue(&cmd, now);
                let flat = addr.bank.flat(&geo);
                self.hit_streak[flat] = 0;
                self.on_demand_activate(addr, now, dram);
            }
            Decision::Pre(slot) => {
                let bank = queue.get(slot).req.addr.bank;
                queue.get_mut(slot).caused_pre = true;
                let cmd = Command::Pre { bank };
                dram.issue(&cmd, now);
                self.hit_streak[bank.flat(&geo)] = 0;
            }
        }
    }

    /// Bookkeeping common to every demand activation: PRFM RAA counters,
    /// delay-period progress, and the controller-side mechanism.
    fn on_demand_activate(
        &mut self,
        addr: chronus_dram::DramAddr,
        now: Cycle,
        dram: &mut DramDevice,
    ) {
        let rank = addr.bank.rank as usize;
        if self.fsm[rank].on_activate() {
            // Delay period over: any alert latched (and masked) during the
            // delay is stale per the PRAC spec; the chip reasserts on the
            // next threshold crossing.
            dram.clear_alert(rank);
        }
        if let Some(th) = self.cfg.raa_threshold {
            let flat = addr.bank.flat(dram.geometry());
            self.raa[flat] = self.raa[flat].saturating_add(1);
            if self.raa[flat] >= th {
                self.raa_hot[rank] = true;
            }
        }
        self.actions_buf.clear();
        self.mitigation
            .on_activate(addr, now, &mut self.actions_buf);
        let blast = dram.config().blast_radius;
        let rows = dram.geometry().rows;
        for a in self.actions_buf.drain(..) {
            match a {
                MitigationAction::RefreshVictims { bank, aggressor } => {
                    let mut victims =
                        chronus_dram::geometry::victims_of(aggressor, blast, rows).peekable();
                    while let Some(row) = victims.next() {
                        // The last victim's VRR completes the service.
                        let last = victims.peek().is_none();
                        self.vrrq.push_back(Some(PendingVrr {
                            bank,
                            row,
                            completes_service_of: last.then_some(aggressor),
                        }));
                    }
                    debug_assert!(self.vrrq.len() < 1 << 20, "runaway VRR queue");
                }
                MitigationAction::RefreshRow { bank, row } => {
                    self.vrrq.push_back(Some(PendingVrr {
                        bank,
                        row,
                        completes_service_of: None,
                    }));
                    debug_assert!(self.vrrq.len() < 1 << 20, "runaway VRR queue");
                }
                MitigationAction::AuxRead { addr } => {
                    self.reads.push(MemRequest {
                        id: u64::MAX,
                        kind: ReqKind::Read,
                        addr,
                        core: INTERNAL_CORE,
                        arrived: now,
                    });
                }
                MitigationAction::AuxWrite { addr } => {
                    self.writes.push(MemRequest {
                        id: u64::MAX,
                        kind: ReqKind::Write,
                        addr,
                        core: INTERNAL_CORE,
                        arrived: now,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_dram::{DramAddr, DramConfig};

    fn setup(policy: RfmPolicy) -> (MemoryController, DramDevice) {
        let dram = DramDevice::new(DramConfig::tiny());
        let cfg = CtrlConfig {
            rfm_policy: policy,
            ..CtrlConfig::default()
        };
        let ctrl = MemoryController::new(cfg, &dram);
        (ctrl, dram)
    }

    fn read_req(id: u64, bank: BankId, row: u32, col: u32, now: Cycle) -> MemRequest {
        MemRequest {
            id,
            kind: ReqKind::Read,
            addr: DramAddr::new(bank, row, col),
            core: 0,
            arrived: now,
        }
    }

    const B0: BankId = BankId::new(0, 0, 0);

    #[test]
    fn read_completes_end_to_end() {
        let (mut ctrl, mut dram) = setup(RfmPolicy::None);
        assert!(ctrl.push_request(read_req(1, B0, 10, 3, 0)));
        let mut done = Vec::new();
        for now in 0..500 {
            ctrl.tick(&mut dram, now);
            ctrl.drain_completions(now, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert_eq!(ctrl.stats().reads_served, 1);
        assert_eq!(ctrl.stats().row_misses, 1);
        assert_eq!(dram.stats().acts, 1);
        assert_eq!(dram.stats().reads, 1);
    }

    #[test]
    fn second_read_same_row_is_a_hit() {
        let (mut ctrl, mut dram) = setup(RfmPolicy::None);
        ctrl.push_request(read_req(1, B0, 10, 3, 0));
        ctrl.push_request(read_req(2, B0, 10, 7, 0));
        let mut done = Vec::new();
        for now in 0..1000 {
            ctrl.tick(&mut dram, now);
            ctrl.drain_completions(now, &mut done);
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(ctrl.stats().row_hits, 1);
        assert_eq!(ctrl.stats().row_misses, 1);
        assert_eq!(dram.stats().acts, 1, "one activation serves both");
    }

    #[test]
    fn conflicting_rows_cause_precharge() {
        let (mut ctrl, mut dram) = setup(RfmPolicy::None);
        ctrl.push_request(read_req(1, B0, 10, 0, 0));
        ctrl.push_request(read_req(2, B0, 20, 0, 0));
        let mut done = Vec::new();
        for now in 0..2000 {
            ctrl.tick(&mut dram, now);
            ctrl.drain_completions(now, &mut done);
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(ctrl.stats().row_conflicts, 1);
        assert_eq!(dram.stats().acts, 2);
        assert!(dram.stats().pres >= 1);
    }

    #[test]
    fn refresh_is_issued_periodically() {
        let (mut ctrl, mut dram) = setup(RfmPolicy::None);
        let refi = dram.timings().refi;
        for now in 0..(refi * 3 + 100) {
            ctrl.tick(&mut dram, now);
        }
        assert!(dram.stats().refs >= 2, "got {}", dram.stats().refs);
    }

    #[test]
    fn writes_drain_in_batches() {
        let (mut ctrl, mut dram) = setup(RfmPolicy::None);
        for i in 0..50u64 {
            let row = (i / 8) as u32;
            let bank = BankId::new(0, (i % 2) as u8, ((i / 2) % 2) as u8);
            assert!(ctrl.push_request(MemRequest {
                id: i,
                kind: ReqKind::Write,
                addr: DramAddr::new(bank, row, (i % 8) as u32),
                core: 0,
                arrived: 0,
            }));
        }
        for now in 0..20_000 {
            ctrl.tick(&mut dram, now);
            if ctrl.pending_requests() == 0 {
                break;
            }
        }
        assert_eq!(ctrl.pending_requests(), 0);
        assert_eq!(ctrl.stats().writes_served, 50);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let (mut ctrl, dram) = setup(RfmPolicy::None);
        let _ = dram;
        for i in 0..64u64 {
            assert!(ctrl.push_request(read_req(i, B0, i as u32, 0, 0)));
        }
        assert!(!ctrl.can_accept(ReqKind::Read));
        assert!(!ctrl.push_request(read_req(99, B0, 0, 0, 0)));
        assert!(ctrl.can_accept(ReqKind::Write));
    }

    #[test]
    fn wake_cache_memoizes_and_invalidates() {
        let (mut ctrl, mut dram) = setup(RfmPolicy::None);
        // First call computes (idle controller: wake is the refresh due).
        let w1 = ctrl.next_wake(&dram, 0);
        assert_eq!(ctrl.wake_recomputes(), 1);
        assert_eq!(w1, dram.timings().refi);
        // Later calls before the wake are served from the cache.
        let w2 = ctrl.next_wake(&dram, 5);
        assert_eq!(w2, w1);
        assert_eq!(ctrl.wake_recomputes(), 1);
        // An inert tick (no issue, no timer) keeps the cache valid.
        ctrl.tick(&mut dram, 6);
        assert_eq!(ctrl.next_wake(&dram, 6), w1);
        assert_eq!(ctrl.wake_recomputes(), 1);
        // An arrival is folded in, not rescanned: its ACT beats the
        // refresh, so it becomes the wake and the verdict.
        assert!(ctrl.push_request(read_req(1, B0, 10, 0, 7)));
        let w3 = ctrl.next_wake(&dram, 7);
        assert_eq!((ctrl.wake_recomputes(), ctrl.wake_folds()), (1, 1));
        assert_eq!(w3, 8, "idle bank: the ACT is issuable next cycle");
        // The tick at the folded wake applies the folded verdict.
        ctrl.tick(&mut dram, 8); // issues the ACT
        assert_eq!(ctrl.wake_shortcuts(), 1);
        assert_eq!(dram.stats().acts, 1);
        // An issuing tick invalidates.
        let w4 = ctrl.next_wake(&dram, 8);
        assert_eq!(ctrl.wake_recomputes(), 2);
        assert_eq!(w4, 8 + dram.timings().rcd, "next action is the RD");
        // And the fresh verdict memoizes again.
        let _ = ctrl.next_wake(&dram, 9);
        assert_eq!(ctrl.wake_recomputes(), 2);
        // Reaching the cached wake forces a recompute even without dirt.
        let _ = ctrl.next_wake(&dram, w4);
        assert_eq!(ctrl.wake_recomputes(), 3);
        assert_eq!(ctrl.wake_folds(), 1);
    }

    /// A device-side stand-in for PRAC: asserts the back-off signal on
    /// every `every`-th activation to rank 1.
    struct AlertEvery {
        every: u32,
        acts: u32,
    }

    impl chronus_dram::DramMitigation for AlertEvery {
        fn on_activate(&mut self, bank: BankId, _row: RowId, _now: Cycle) -> bool {
            self.acts += u32::from(bank.rank == 1);
            bank.rank == 1 && self.acts.is_multiple_of(self.every)
        }

        fn on_precharge(&mut self, _bank: BankId, _row: RowId, _now: Cycle) -> bool {
            false
        }

        fn on_rfm(&mut self, _bank: BankId, _now: Cycle) -> chronus_dram::RfmOutcome {
            chronus_dram::RfmOutcome::default()
        }

        fn on_periodic_refresh(&mut self, _: usize, _: Cycle, _: &mut Vec<(BankId, RowId)>) {}

        fn kind_name(&self) -> &'static str {
            "alert-every"
        }
    }

    #[test]
    fn folded_wakes_equal_rescans_under_random_traffic() {
        // `tiny()` widened to two ranks, so one rank can sit in back-off
        // recovery (or owe a refresh) while the other serves demand, with
        // refreshes due four times as often so that many fall due under
        // traffic; drain thresholds low enough for writeback bursts to
        // cross them.
        let mut dram_cfg = DramConfig::tiny();
        dram_cfg.geometry.ranks = 2;
        dram_cfg.timings.refi /= 4;
        let mitigation = Box::new(AlertEvery { every: 24, acts: 0 });
        let mut dram = DramDevice::with_mitigation(dram_cfg, mitigation);
        let cfg = CtrlConfig {
            wr_high: 10,
            wr_low: 4,
            rfm_policy: RfmPolicy::PracBackOff {
                n_ref: 2,
                n_delay: 0,
            },
            ..CtrlConfig::default()
        };
        let mut ctrl = MemoryController::new(cfg, &dram);
        let geo = *dram.geometry();
        let mut state = 0x5eed_u64;
        let mut rng = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let rescanned = |ctrl: &MemoryController, dram: &DramDevice, now| {
            assert_eq!(
                (ctrl.wake_cache, ctrl.wake_decision),
                ctrl.compute_wake(dram, now),
                "memoized wake at cycle {now} differs from a rescan"
            );
        };
        // Keep, earlier, tie, preference flip, refresh pending.
        let mut seen = [0u32; 5];
        let (mut now, mut wake, mut id) = (0, 0, 0);
        let mut done = Vec::new();
        for step in 0..12_000u64 {
            if now >= wake {
                ctrl.tick(&mut dram, now);
                wake = ctrl.next_wake(&dram, now);
                rescanned(&ctrl, &dram, now);
            }
            ctrl.drain_completions(now, &mut done);
            // Four phases: mixed traffic; none (the queues drain); a trickle
            // (reads come and go while writes wait); reads under
            // writeback bursts that cross the drain thresholds.
            // Four phases: mixed traffic; a sparse one that steps from
            // wake to wake (the queues drain, and an arrival can land
            // between a refresh's PREab and its REF); a trickle (reads
            // come and go while writes wait); reads under writeback bursts
            // that cross the drain thresholds.
            let phase = (step / 250) % 4;
            let (reads, writes) = match phase {
                0 => (u64::from(rng(4) == 0), u64::from(rng(6) == 0)),
                1 => (u64::from(rng(4) == 0), 0),
                2 => (u64::from(rng(12) == 0), u64::from(rng(6) == 0)),
                _ => (
                    u64::from(rng(6) == 0),
                    if rng(12) == 0 { 4 + rng(8) } else { 0 },
                ),
            };
            let mut pushed = false;
            for k in 0..reads + writes {
                let bank = BankId::from_flat(rng(geo.total_banks() as u64) as usize, &geo);
                let mut req = read_req(id, bank, rng(4) as u32, rng(16) as u32, now);
                if k >= reads {
                    req.kind = ReqKind::Write;
                }
                pushed |= ctrl.push_request(req);
                id += 1;
            }
            if pushed {
                if !ctrl.wake_dirty && ctrl.wake_cache > now {
                    let outcome = match ctrl.fold_arrivals(&dram, now) {
                        Ok((w, _)) if w == ctrl.wake_cache => 0,
                        Ok(_) => 1,
                        Err(Rescan::Tie) => 2,
                        Err(Rescan::Preference) => 3,
                        Err(Rescan::RefreshPending) => 4,
                    };
                    seen[outcome] += 1;
                }
                wake = ctrl.next_wake(&dram, now);
                rescanned(&ctrl, &dram, now);
            }
            now = if phase == 1 {
                wake
            } else {
                wake.min(now + 1 + rng(8))
            };
        }
        assert!(seen.iter().all(|&n| n > 0), "outcomes {seen:?}");
        assert_eq!(ctrl.wake_folds(), u64::from(seen[0] + seen[1]));
        assert!(ctrl.stats().back_offs > 0 && dram.stats().refs > 0);
    }

    #[test]
    fn cross_queue_ties_go_to_the_preferred_queue() {
        // An ACT to B0 at cycle 0 holds every other bank's ACT behind one
        // rank floor (tRRD); a request to another row of B0 waits for its
        // PRE (tRAS), later still. Each queue's first request sits in slot 0.
        let (b1, b2) = (BankId::new(0, 1, 0), BankId::new(0, 1, 1));
        let with = |read: (BankId, u32), write: (BankId, u32)| {
            let (mut ctrl, mut dram) = setup(RfmPolicy::None);
            dram.issue(&Command::Act { bank: B0, row: 1 }, 0);
            assert!(ctrl.push_request(read_req(1, read.0, read.1, 0, 0)));
            let mut w = read_req(2, write.0, write.1, 0, 0);
            w.kind = ReqKind::Write;
            assert!(ctrl.push_request(w));
            (ctrl, dram)
        };
        // A tie after `from` (so neither scan is skipped): the preferred
        // queue wins it, whichever that is.
        let (ctrl, dram) = with((b1, 5), (b2, 5));
        let (t_reads, d_reads) = ctrl.demand_event(&dram, false, 1);
        let (t_writes, d_writes) = ctrl.demand_event(&dram, true, 1);
        assert!(
            t_reads > 1 && t_reads == t_writes,
            "{t_reads} vs {t_writes}"
        );
        assert_eq!(d_reads, Some((Decision::Act(0), false)));
        assert_eq!(d_writes, Some((Decision::Act(0), true)));
        // The other queue wins only when strictly earlier.
        let (ctrl, dram) = with((b1, 5), (B0, 2));
        let (t, d) = ctrl.demand_event(&dram, true, 1);
        assert_eq!((t, d), (t_reads, Some((Decision::Act(0), false))));
        let (ctrl, dram) = with((B0, 2), (b1, 5));
        let (t, d) = ctrl.demand_event(&dram, false, 1);
        assert_eq!((t, d), (t_reads, Some((Decision::Act(0), true))));
    }

    #[test]
    fn drain_mode_enters_at_wr_high_and_leaves_at_wr_low() {
        let cfg = CtrlConfig {
            wr_high: 6,
            wr_low: 2,
            ..CtrlConfig::default()
        };
        // (queued writes, draining before the tick, draining after it)
        for (writes, before, after) in [
            (5, false, false),
            (6, false, true),
            (3, true, true),
            (2, true, false),
        ] {
            let mut dram = DramDevice::new(DramConfig::tiny());
            let mut ctrl = MemoryController::new(cfg, &dram);
            for i in 0..writes {
                let mut w = read_req(i, B0, i as u32, 0, 0);
                w.kind = ReqKind::Write;
                assert!(ctrl.push_request(w));
            }
            ctrl.drain_mode = before;
            ctrl.tick(&mut dram, 0);
            assert_eq!(ctrl.drain_mode, after, "{writes} writes, draining {before}");
        }
    }

    #[test]
    fn an_arrival_to_a_rank_that_owes_a_refresh_is_rescanned() {
        // Two ranks, both owing a refresh. After rank 0's one read issues,
        // neither has demand, so each has an opportunistic-refresh wake:
        // rank 1's PREab, one cycle later, when its open row's tRAS
        // expires. A hit to that row then arrives. It ends rank 1's
        // opportunistic refresh, and its RD waits for the data bus, so the
        // wake moves later: folding it in would keep the PREab's cycle.
        let mut dram_cfg = DramConfig::tiny();
        dram_cfg.geometry.ranks = 2;
        let mut dram = DramDevice::new(dram_cfg);
        let mut ctrl = MemoryController::new(CtrlConfig::default(), &dram);
        let t = *dram.timings();
        let now = t.refi + 100;
        let (r0, r1) = (BankId::new(0, 0, 0), BankId::new(1, 0, 0));
        dram.issue(&Command::Act { bank: r1, row: 7 }, now + 1 - t.ras);
        dram.issue(&Command::Act { bank: r0, row: 5 }, now + 2 - t.ras);
        assert!(ctrl.push_request(read_req(1, r0, 5, 0, now)));
        ctrl.tick(&mut dram, now);
        assert_eq!(dram.stats().reads, 1, "rank 0's read issues first");
        assert_eq!(ctrl.next_wake(&dram, now), now + 1, "rank 1's PREab");
        assert!(ctrl.push_request(read_req(2, r1, 7, 0, now)));
        let wake = ctrl.next_wake(&dram, now);
        assert_eq!((ctrl.wake_recomputes(), ctrl.wake_folds()), (2, 0));
        assert!(wake > now + 1, "wake {wake}");
        assert_eq!((wake, ctrl.wake_decision), ctrl.compute_wake(&dram, now));
    }

    #[test]
    fn an_unfolded_arrival_voids_the_cached_verdict() {
        // Row 5 is open and a request to row 9 waits for its PRE at tRAS:
        // that PRE is the cached verdict. A hit to row 5 then arrives, and
        // the controller ticks at the cached wake without being asked for
        // `next_wake` first. The hit beats the PRE there.
        let (mut ctrl, mut dram) = setup(RfmPolicy::None);
        dram.issue(&Command::Act { bank: B0, row: 5 }, 0);
        assert!(ctrl.push_request(read_req(1, B0, 9, 0, 1)));
        let ras = dram.timings().ras;
        assert_eq!(ctrl.next_wake(&dram, 1), ras);
        assert!(ctrl.push_request(read_req(2, B0, 5, 0, 2)));
        ctrl.tick(&mut dram, ras);
        assert_eq!(ctrl.wake_shortcuts(), 0);
        assert_eq!((dram.stats().reads, dram.stats().pres), (1, 0));
    }

    #[test]
    fn wake_is_exact_under_load() {
        // The wake must be the exact cycle the next command issues: every
        // cycle before it must be a no-op tick.
        let (mut ctrl, mut dram) = setup(RfmPolicy::None);
        assert!(ctrl.push_request(read_req(1, B0, 10, 0, 0)));
        assert!(ctrl.push_request(read_req(2, B0, 11, 0, 0)));
        let mut now = 0;
        let mut issued = 0;
        while ctrl.pending_requests() > 0 && now < 2_000 {
            let before = {
                let s = dram.stats();
                s.acts + s.pres + s.reads + s.writes + s.refs
            };
            ctrl.tick(&mut dram, now);
            let after = {
                let s = dram.stats();
                s.acts + s.pres + s.reads + s.writes + s.refs
            };
            let wake = ctrl.next_wake(&dram, now);
            assert!(wake > now);
            if after > before {
                issued += 1;
            }
            // Every skipped cycle must be inert in the reference ticking.
            for c in now + 1..wake {
                let pre = {
                    let s = dram.stats();
                    s.acts + s.pres + s.reads + s.writes + s.refs
                };
                ctrl.tick(&mut dram, c);
                let post = {
                    let s = dram.stats();
                    s.acts + s.pres + s.reads + s.writes + s.refs
                };
                assert_eq!(pre, post, "cycle {c} acted before the wake {wake}");
            }
            now = wake;
        }
        assert_eq!(ctrl.pending_requests(), 0);
        // ACT, RD, PRE, ACT, RD at minimum.
        assert!(issued >= 5, "only {issued} commands issued");
    }

    #[test]
    fn obs_probe_is_observational_and_records() {
        let run = |obs: bool| {
            let (mut ctrl, mut dram) = setup(RfmPolicy::None);
            if obs {
                ctrl.enable_obs();
                assert!(ctrl.obs_enabled());
            }
            ctrl.push_request(read_req(1, B0, 10, 3, 0));
            ctrl.push_request(read_req(2, B0, 10, 7, 0));
            ctrl.push_request(read_req(3, B0, 20, 0, 0));
            for now in 0..3_000 {
                ctrl.tick(&mut dram, now);
            }
            let stats = *ctrl.stats();
            let report = ctrl.take_obs_report(3_000);
            (stats, report)
        };
        let (s_off, r_off) = run(false);
        let (s_on, r_on) = run(true);
        assert_eq!(s_off, s_on, "probe must not perturb controller stats");
        assert!(r_off.is_none(), "no report without enable_obs");
        let r = r_on.unwrap();
        assert_eq!(r.read_latency.total, 3);
        assert_eq!(r.per_core_latency[0].total, 3, "all reads from core 0");
        assert_eq!(r.hit_gaps.total, 1, "second read hits the open row");
        assert_eq!(r.conflict_gaps.total, 1, "third read conflicts");
        assert!(r.latency_entropy_bits > 0.0, "latencies differ across rows");
        assert!(
            (r.outcome_entropy_bits - crate::obs::entropy_bits(&[1, 1, 1])).abs() < 1e-12,
            "one hit, one miss, one conflict"
        );
    }

    #[test]
    fn vrr_tombstones_preserve_order_and_counts() {
        let (mut ctrl, _dram) = setup(RfmPolicy::None);
        for i in 0..20u32 {
            ctrl.vrrq.push_back(Some(PendingVrr {
                bank: B0,
                row: i,
                completes_service_of: None,
            }));
        }
        assert_eq!(ctrl.pending_vrrs(), 20);
        // Tombstone a middle run the way issue does.
        for i in 3..9 {
            ctrl.vrrq[i] = None;
            ctrl.vrr_tombstones += 1;
            ctrl.vrr_compact();
        }
        assert_eq!(ctrl.pending_vrrs(), 14);
        let live: Vec<u32> = ctrl.vrrq.iter().flatten().map(|v| v.row).collect();
        let expect: Vec<u32> = (0..3).chain(9..20).collect();
        assert_eq!(live, expect, "issue order preserved across tombstones");
        // Tombstoning the head pops eagerly.
        ctrl.vrrq[0] = None;
        ctrl.vrr_tombstones += 1;
        ctrl.vrr_compact();
        assert!(ctrl.vrrq.front().unwrap().is_some());
        assert_eq!(ctrl.pending_vrrs(), 13);
    }
}
