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
    /// The queue preference changed under a cached demand verdict.
    Preference,
    /// An arrival's rank owes a refresh and may have had no demand.
    RefreshPending,
}

/// A step of the tick ladder that takes the bus ahead of demand, in
/// priority order. A rank step first precharges the rank (`PREab` while
/// any bank is open), then issues `RFMab` (recovery, RAA) or `REFab`
/// (urgent, opportunistic); a VRR first precharges its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Service {
    /// Step 1: back-off recovery of the rank.
    Recovery(usize),
    /// Step 2: the rank's refresh debt reached the postponement limit.
    Urgent(usize),
    /// Step 3, PRFM: a bank of the rank crossed the RAA threshold. The rank
    /// takes no demand until the RFM (the DDR5 RAA maximum-limit rule), so
    /// its banks drain and precharge.
    Raa(usize),
    /// Step 4: a refresh is due and the rank has no demand.
    Opportunistic(usize),
    /// Step 5: the victim-row refresh at this `vrrq` index.
    Vrr(usize),
}

impl Service {
    /// The mitigation pause this step opens while demand waits.
    fn cause(self) -> PauseCause {
        match self {
            Service::Recovery(_) => PauseCause::BackOff,
            Service::Urgent(_) | Service::Opportunistic(_) => PauseCause::Refresh,
            Service::Raa(_) => PauseCause::Raa,
            Service::Vrr(_) => PauseCause::Vrr,
        }
    }
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
    /// The verdict is the min over the timers that change what the ladder
    /// owes (refresh due times, back-off window deadlines, visible-alert
    /// times), the ladder's steps 1–5 via `service_event`, and both demand
    /// queues' per-bank candidates via `demand_event` — the two functions
    /// the tick itself acts on, asked here from `now + 1`, so "what issues
    /// now" and "when can anything issue next" are one statement. Every
    /// quantity consulted only changes when a command issues, a request
    /// arrives, or one of the included timers fires, so the result is
    /// memoized behind a dirty flag set on issue and reused until `now`
    /// catches up to it.
    ///
    /// When the wake is decided *strictly* by a demand candidate (every
    /// timer and ladder step is later), the fused scan also caches the
    /// exact [`Decision`] the scheduler will take at the wake cycle, so the
    /// tick there skips the ladder and its own queue scan and applies the
    /// cached verdict directly. The same discipline guards it: any issue
    /// invalidates, and the verdict is only honoured at exactly the cached
    /// cycle; debug builds and strict mode assert that no ladder step could
    /// issue there.
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
    /// and verdict whatever its class, age or queue. One that ties the
    /// wake takes the verdict only if it comes first in the order
    /// `demand_event` applies ([`MemoryController::tie_rank`]); against no
    /// verdict it changes nothing, because a timer or ladder step acts
    /// first at that cycle. A queue preference that moved under a demand
    /// verdict needs the full rule (it breaks cross-queue ties among the
    /// old candidates), as does an arrival that may end its rank's
    /// opportunistic refresh, the one wake source that depends on the
    /// queues.
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
                    Ordering::Equal => {
                        if decision
                            .is_some_and(|held| self.tie_rank((d, write)) < self.tie_rank(held))
                        {
                            decision = Some((d, write));
                        }
                    }
                    Ordering::Greater => {}
                }
            }
        }
        Ok((wake, decision))
    }

    /// Where a demand candidate stands among those issuable at one cycle,
    /// in the order `demand_event` applies: the preferred queue first,
    /// then a row hit before a non-hit, then the older request.
    fn tie_rank(&self, (decision, write): (Decision, bool)) -> (bool, bool, u64) {
        let queue = if write { &self.writes } else { &self.reads };
        let (slot, hit) = match decision {
            Decision::Cas(slot, _) => (slot, true),
            Decision::Act(slot) | Decision::Pre(slot) => (slot, false),
        };
        (write != self.prefers_writes(), !hit, queue.get(slot).seq)
    }

    fn compute_wake(&self, dram: &DramDevice, now: Cycle) -> Wake {
        // The timers that change what the ladder owes: a REF falling due
        // (pending/urgent), a back-off window's deadline (recovery), a
        // latched alert becoming visible (honoured: a window opens). Delay
        // only advances on demand activations, which are issues (they
        // invalidate the cache themselves).
        let mut wake = Cycle::MAX;
        for r in 0..dram.geometry().ranks {
            wake = wake.min(self.refresh[r].next_due());
            let fsm = &self.fsm[r];
            match fsm.state {
                BackOffState::Window { deadline } => wake = wake.min(deadline),
                BackOffState::Normal if fsm.policy().honours_alert() => {
                    if let Some(at) = dram.alert_latched_at(r) {
                        wake = wake.min(at);
                    }
                }
                _ => {}
            }
        }
        // Steps 1–5. Demand is folded in afterwards so that a wake decided
        // strictly by demand can carry its scheduling verdict.
        wake = wake.min(self.service_event(dram, now + 1).0);
        // Demand, with the queue preference the *wake-cycle* tick will
        // compute: its `drain_mode_next` sees today's queue lengths (they
        // move on issues, which invalidate this, and on arrivals, checked).
        let (t_d, d_d) = self.demand_event(dram, self.prefers_writes(), now + 1);
        // The verdict is only usable when demand strictly decides the
        // wake: on a tie with any step-1..5 source that step acts first.
        let decision = if t_d < wake { d_d } else { None };
        (wake.min(t_d).max(now + 1), decision)
    }

    /// Steps 1–5 of the tick ladder, the service that takes the bus ahead
    /// of demand: the first cycle `>= from` at which a step can issue, and
    /// the step and command issued there. The walk is in priority order —
    /// back-off recovery, urgent refresh, RAA-hot RFM and opportunistic
    /// refresh, each over every rank, then the first eight live VRRs,
    /// oldest first — and a later candidate wins only when strictly
    /// earlier, so the first one issuable at `from` ends it. A rank in
    /// recovery takes nothing but its recovery service. When no rank owes
    /// a step and no VRR waits — most ticks — it answers before the walk.
    fn service_event(&self, dram: &DramDevice, from: Cycle) -> (Cycle, Option<(Service, Command)>) {
        let ranks = dram.geometry().ranks;
        if self.pending_vrrs() == 0 && !(0..ranks).any(|r| (0..4).any(|step| self.owes(step, r))) {
            return (Cycle::MAX, None);
        }
        let mut best = (Cycle::MAX, None);
        // Times a candidate; `true` when it issues at `from`: unbeatable.
        let mut offer = |service: Service, cmd: Command| {
            let t = dram.earliest_issue_at(&cmd, from);
            if t < best.0 {
                best = (t, Some((service, cmd)));
            }
            t == from
        };
        'walk: {
            // Steps 1–4, each over every rank: the step, and whether it
            // ends in `REFab` (else `RFMab`).
            for step in 0..4 {
                for r in 0..ranks {
                    if !self.owes(step, r) {
                        continue;
                    }
                    let (service, refresh) = match step {
                        0 => (Service::Recovery(r), false),
                        1 => (Service::Urgent(r), true),
                        2 => (Service::Raa(r), false),
                        _ => (Service::Opportunistic(r), true),
                    };
                    let cmd = match (dram.rank_all_idle(r), refresh) {
                        (false, _) => Command::PreAll { rank: r },
                        (true, true) => Command::RefAll { rank: r },
                        (true, false) => Command::RfmAll { rank: r },
                    };
                    if offer(service, cmd) {
                        break 'walk;
                    }
                }
            }
            let live = (self.vrrq.iter().enumerate()).filter_map(|(i, v)| Some((i, (*v)?)));
            for (i, PendingVrr { bank, row, .. }) in live.take(8) {
                if self.fsm[bank.rank as usize].in_recovery() {
                    continue;
                }
                let cmd = if dram.open_row(bank).is_some() {
                    Command::Pre { bank }
                } else {
                    Command::Vrr { bank, row }
                };
                if offer(Service::Vrr(i), cmd) {
                    break 'walk;
                }
            }
        }
        best
    }

    /// Whether rank `r` owes ladder step `step` (0–3: back-off recovery,
    /// urgent refresh, RAA-hot RFM, opportunistic refresh). A rank in
    /// recovery owes nothing else.
    fn owes(&self, step: usize, r: usize) -> bool {
        let free = !self.fsm[r].in_recovery();
        match step {
            0 => !free,
            1 => free && self.refresh[r].urgent(),
            2 => free && self.raa_hot[r],
            _ => {
                free && self.refresh[r].pending()
                    && self.reads.rank_len(r) + self.writes.rank_len(r) == 0
            }
        }
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

        // Fused-scan fast path: `compute_wake` already decided this exact
        // cycle's demand verdict, with every ladder step strictly later, and
        // nothing invalidated it (no issue since, and every arrival folded
        // in). Skip the ladder and the queue scans and apply the verdict.
        if !self.wake_dirty && self.wake_arrivals.is_empty() && now == self.wake_cache {
            if let Some((decision, is_write_queue)) = self.wake_decision.take() {
                if cfg!(debug_assertions) || dram.config().strict {
                    let (at, _) = self.service_event(dram, now);
                    assert!(at > now, "shortcut over a ladder step at cycle {now}");
                }
                self.wake_shortcuts += 1;
                self.drain_mode = self.drain_mode_next();
                self.apply(decision, is_write_queue, dram, now);
                return true;
            }
        }

        // 1–5. Back-off recovery, refresh, RFM and VRR service.
        if let (at, Some((service, cmd))) = self.service_event(dram, now) {
            if at == now {
                self.apply_service(service, cmd, dram, now);
                return true;
            }
        }

        // 6. Demand traffic under FR-FCFS+Cap with write draining. Only a
        // tick that reaches this step settles the drain mode.
        self.drain_mode = self.drain_mode_next();
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

    /// Issues the command a ladder step chose and does that step's
    /// bookkeeping.
    fn apply_service(&mut self, service: Service, cmd: Command, dram: &mut DramDevice, now: Cycle) {
        dram.issue(&cmd, now);
        self.obs_block(service.cause(), now);
        match (service, cmd) {
            (Service::Recovery(r), Command::RfmAll { .. }) => {
                self.stats.recovery_rfms += 1;
                if self.fsm[r].on_recovery_rfm(dram.alert_still_needed(r)) {
                    dram.clear_alert(r);
                }
            }
            (Service::Urgent(r) | Service::Opportunistic(r), Command::RefAll { .. }) => {
                self.refresh[r].refreshed();
            }
            (Service::Raa(r), Command::RfmAll { .. }) => {
                let th = self
                    .cfg
                    .raa_threshold
                    .expect("a rank runs hot only under PRFM");
                self.stats.raa_rfms += 1;
                let banks = dram.geometry().banks_per_rank();
                let raa = &mut self.raa[r * banks..(r + 1) * banks];
                for c in raa.iter_mut() {
                    *c = c.saturating_sub(th);
                }
                self.raa_hot[r] = raa.iter().any(|&c| c >= th);
            }
            (Service::Vrr(_), Command::Pre { bank }) => {
                self.hit_streak[bank.flat(dram.geometry())] = 0;
            }
            (Service::Vrr(i), Command::Vrr { bank, .. }) => {
                let completes_service_of = self.vrrq[i].take().and_then(|v| v.completes_service_of);
                self.vrr_tombstones += 1;
                self.vrr_compact();
                self.stats.vrrs_issued += 1;
                if let Some(aggressor) = completes_service_of {
                    dram.note_aggressor_serviced(bank, aggressor);
                }
            }
            // A rank step's PREab has nothing to record.
            _ => {}
        }
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

    /// A controller-side stand-in for a tracker: asks for the victims of
    /// every `every`-th demand activation to be refreshed.
    struct VictimsEvery {
        every: u32,
        acts: u32,
    }

    impl CtrlMitigation for VictimsEvery {
        fn on_activate(&mut self, addr: DramAddr, _now: Cycle, out: &mut Vec<MitigationAction>) {
            self.acts += 1;
            if self.acts.is_multiple_of(self.every) {
                out.push(MitigationAction::RefreshVictims {
                    bank: addr.bank,
                    aggressor: addr.row,
                });
            }
        }

        fn kind_name(&self) -> &'static str {
            "victims-every"
        }
    }

    #[test]
    fn folded_wakes_equal_rescans_under_random_traffic() {
        // `tiny()` widened to two ranks, so one rank can sit in back-off
        // recovery (or owe a refresh) while the other serves demand, with
        // refreshes due four times as often so that many fall due under
        // traffic; drain thresholds low enough for writeback bursts to
        // cross them; and an RAA threshold and a VRR-issuing mechanism, so
        // that every ladder step takes the bus.
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
            raa_threshold: Some(24),
            ..CtrlConfig::default()
        };
        let victims = Box::new(VictimsEvery { every: 32, acts: 0 });
        let mut ctrl = MemoryController::with_mitigation(cfg, &dram, victims);
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
        // Whether an arrival's own candidate ties the memoized wake.
        let ties = |ctrl: &MemoryController, dram: &DramDevice, now: Cycle| {
            ctrl.wake_arrivals.iter().any(|&(write, slot)| {
                let queue = if write { &ctrl.writes } else { &ctrl.reads };
                let (entry, geo) = (queue.get(slot), dram.geometry());
                let bank = entry.req.addr.bank;
                let (cap, streak) = (ctrl.cfg.cap, &ctrl.hit_streak);
                ctrl.rank_usable(bank.rank as usize)
                    && scheduler::bank_candidates(
                        queue,
                        dram,
                        bank.flat(geo),
                        write,
                        now + 1,
                        cap,
                        streak,
                    )
                    .into_iter()
                    .flatten()
                    .any(|(t, seq, _)| seq == entry.seq && t == ctrl.wake_cache)
            })
        };
        // Folded: keep, earlier, a tie taken, a tie lost to the held
        // verdict, a tie under no verdict; rescanned: preference flip,
        // refresh pending.
        let mut seen = [0u32; 7];
        // Ladder steps issued: recovery, urgent, RAA, opportunistic, VRR.
        let mut served = [0u64; 5];
        let (mut now, mut wake, mut id) = (0, 0, 0);
        let mut done = Vec::new();
        for step in 0..12_000u64 {
            if now >= wake {
                let before = *ctrl.stats();
                // The tick's refresh timers, replayed on copies: a REF to a
                // rank that was not urgent is opportunistic.
                let owed: Vec<(u64, bool)> = (ctrl.refresh.iter())
                    .map(|e| {
                        let mut e = e.clone();
                        e.tick(now);
                        (e.completed(), e.urgent())
                    })
                    .collect();
                ctrl.tick(&mut dram, now);
                let after = ctrl.stats();
                served[0] += after.recovery_rfms - before.recovery_rfms;
                served[2] += after.raa_rfms - before.raa_rfms;
                served[4] += after.vrrs_issued - before.vrrs_issued;
                for (e, &(refs, urgent)) in ctrl.refresh.iter().zip(&owed) {
                    served[if urgent { 1 } else { 3 }] += e.completed() - refs;
                }
                wake = ctrl.next_wake(&dram, now);
                rescanned(&ctrl, &dram, now);
            }
            ctrl.drain_completions(now, &mut done);
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
                    let tied = ties(&ctrl, &dram, now);
                    let outcome = match ctrl.fold_arrivals(&dram, now) {
                        Ok((w, _)) if w < ctrl.wake_cache => 1,
                        Ok((_, d)) if d != ctrl.wake_decision => 2,
                        Ok(_) if tied && ctrl.wake_decision.is_some() => 3,
                        Ok(_) if tied => 4,
                        Ok(_) => 0,
                        Err(Rescan::Preference) => 5,
                        Err(Rescan::RefreshPending) => 6,
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
        assert!(served.iter().all(|&n| n > 0), "ladder steps {served:?}");
        assert_eq!(
            ctrl.wake_folds(),
            seen[..5].iter().map(|&n| u64::from(n)).sum()
        );
        assert!(ctrl.stats().back_offs > 0 && dram.stats().refs > 0);
    }

    #[test]
    fn the_ladder_serves_steps_in_priority_order() {
        // Two ranks, each with row 5 of its first bank open since cycle 0,
        // so a rank step's PREab and a VRR's or demand request's PRE to
        // either rank all become issuable at tRAS. Each case makes rank 1
        // owe a step and rank 0 the next-lower one (so a walk that took
        // the ranks one by one would pick wrong too). Asked from the cycle
        // before the tie, the ladder names rank 1's step; the tick at the
        // tie precharges rank 1 and leaves rank 0 open.
        let mut dram_cfg = DramConfig::tiny();
        dram_cfg.geometry.ranks = 2;
        let banks = [BankId::new(0, 0, 0), BankId::new(1, 0, 0)];
        let cfg = CtrlConfig {
            rfm_policy: RfmPolicy::PracBackOff {
                n_ref: 1,
                n_delay: 0,
            },
            raa_threshold: Some(8),
            ..CtrlConfig::default()
        };
        // Makes `rank` owe ladder step `step` (1–5), or queues demand (6).
        let owe = |ctrl: &mut MemoryController, step: usize, rank: usize, refi: Cycle| {
            let bank = banks[rank];
            match step {
                1 => ctrl.fsm[rank].state = BackOffState::Recovery { remaining: 1 },
                2 => _ = ctrl.refresh[rank].tick(4 * refi),
                3 => ctrl.raa_hot[rank] = true,
                4 => _ = ctrl.refresh[rank].tick(refi),
                5 => ctrl.vrrq.push_back(Some(PendingVrr {
                    bank,
                    row: 9,
                    completes_service_of: None,
                })),
                _ => assert!(ctrl.push_request(read_req(1, bank, 9, 0, 0))),
            }
        };
        let expected = [
            (Service::Recovery(1), Command::PreAll { rank: 1 }),
            (Service::Urgent(1), Command::PreAll { rank: 1 }),
            (Service::Raa(1), Command::PreAll { rank: 1 }),
            (Service::Opportunistic(1), Command::PreAll { rank: 1 }),
            (Service::Vrr(0), Command::Pre { bank: banks[1] }),
        ];
        for (step, expect) in (1..).zip(expected) {
            let mut dram = DramDevice::new(dram_cfg.clone());
            let mut ctrl = MemoryController::new(cfg, &dram);
            let t = *dram.timings();
            for bank in banks {
                dram.issue(&Command::Act { bank, row: 5 }, 0);
            }
            owe(&mut ctrl, step, 1, t.refi);
            owe(&mut ctrl, step + 1, 0, t.refi);
            let tie = t.ras;
            assert_eq!(
                ctrl.service_event(&dram, tie - 1),
                (tie, Some(expect)),
                "step {step}"
            );
            assert_eq!(ctrl.next_wake(&dram, tie - 1), tie, "step {step}");
            ctrl.tick(&mut dram, tie);
            assert_eq!(
                banks.map(|b| dram.open_row(b)),
                [Some(5), None],
                "step {step} against step {}",
                step + 1
            );
        }
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
