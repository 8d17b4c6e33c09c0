//! The SimpleO3-style trace-driven core.
//!
//! A 128-entry instruction window retires up to four instructions per
//! cycle in order; non-memory instructions (bubbles) complete immediately,
//! loads complete when the LLC (or DRAM, on a miss) answers, stores are
//! posted. The trace replays from the start if the core reaches its
//! instruction target before the rest of the system (standard
//! multi-programmed methodology; IPC is recorded at the moment the target
//! is reached).
//!
//! Stretches in which the core only retires ready slots and dispatches
//! queued bubbles are applied in closed form instead of cycle by cycle:
//! a *bubble sprint* drains the window's ready prefix — the whole window,
//! or the slots ahead of a pending miss — and a *fill sprint* tops the
//! window up behind a memory-blocked head. Both are observationally
//! identical to per-cycle execution, which `set_sprint_enabled(false)`
//! restores.
//!
//! The window is run-length encoded (`Window`): a sprint moves whole
//! runs, so its cost does not grow with the window. A bubble sprint
//! appends everything it dispatched as *one* run stamped with its last
//! cycle. Per-cycle dispatch would have stamped those slots up to `k − 1`
//! cycles earlier, but every such stamp lies before the sprint's horizon,
//! and nothing reads those stamps before then; afterwards each of them
//! reads as "ready" (see `SimpleO3Core::bubble_sprint`).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::cache::{LoadResult, SharedLlc};
use crate::trace::{Trace, TraceOp};

/// Core parameters (Table 2: 4-wide, 128-entry window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instruction-window capacity.
    pub window: usize,
    /// Dispatch/retire width.
    pub width: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            window: 128,
            width: 4,
        }
    }
}

/// Externally visible execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Still executing toward the instruction target.
    Running,
    /// Reached the target (keeps replaying to apply pressure).
    Done,
}

/// When the core next makes progress — the contract behind the simulator's
/// event-driven fast-forward. It is two-sided:
///
/// - anything other than [`CoreWake::Busy`] ⇒ every
///   [`SimpleO3Core::tick`] before the reported cycle is a no-op (it
///   changes neither the core nor the LLC), so those ticks may be skipped
///   wholesale — for as long as no LLC fill is delivered
///   ([`SharedLlc::on_fill`] / [`SimpleO3Core::on_mem_complete`]); a fill
///   voids the report and the core must be ticked and asked again;
/// - [`CoreWake::Busy`] ⇒ the very next tick changes core or LLC state,
///   so a core never asks to be polled through cycles in which nothing
///   can happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreWake {
    /// Retires or dispatches on the very next cycle: tick every cycle.
    Busy,
    /// Nothing happens before this CPU cycle (head of window becomes
    /// ready, or a sprint ends). A bubble sprint may run while a miss is
    /// pending behind the ready prefix it drains; the fill only voids the
    /// report, the sprint's end stays where it was.
    At(u64),
    /// Stalled until an LLC fill arrives — a memory-blocked window head,
    /// or a dispatch the LLC rejected for want of an MSHR with nothing
    /// left to retire; no timed event pending.
    Blocked,
}

/// A run of consecutive window slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// `n` slots that all complete at CPU cycle `at` (bubbles, LLC hits,
    /// posted stores).
    Ready { at: u64, n: u32 },
    /// One load waiting for a memory completion with this token.
    Waiting(u64),
}

/// The instruction window as runs of slots, oldest first, plus the slot
/// count. A push whose stamp equals the back run's stamp extends that
/// run, so a cycle's bubbles — or a whole bubble sprint — are one run.
/// Every operation names slots, not runs: runs are only the encoding, and
/// any two windows with the same slot sequence behave identically.
/// Counts are `u32`: a window never holds more slots than its capacity,
/// which [`SimpleO3Core::new`] bounds.
#[derive(Debug)]
struct Window {
    runs: VecDeque<Run>,
    len: u32,
}

impl Window {
    fn with_capacity(slots: usize) -> Self {
        Self {
            runs: VecDeque::with_capacity(slots),
            len: 0,
        }
    }

    /// Slots held.
    fn len(&self) -> u32 {
        self.len
    }

    /// The oldest run.
    fn front(&self) -> Option<Run> {
        self.runs.front().copied()
    }

    /// Appends `n` slots that complete at cycle `at`.
    fn push_ready(&mut self, at: u64, n: u32) {
        debug_assert!(n > 0, "a run holds at least one slot");
        self.len += n;
        if let Some(Run::Ready { at: back, n: m }) = self.runs.back_mut() {
            if *back == at {
                *m += n;
                return;
            }
        }
        self.runs.push_back(Run::Ready { at, n });
    }

    /// Appends one load waiting on `token`.
    fn push_waiting(&mut self, token: u64) {
        self.len += 1;
        self.runs.push_back(Run::Waiting(token));
    }

    /// Removes up to `max` slots from the front, in order, while they are
    /// ready at `now`; returns how many it removed.
    fn retire(&mut self, now: u64, max: u32) -> u32 {
        let mut left = max;
        while left > 0 {
            match self.runs.front_mut() {
                Some(Run::Ready { at, n }) if *at <= now => {
                    if *n > left {
                        *n -= left;
                        left = 0;
                    } else {
                        left -= *n;
                        self.runs.pop_front();
                    }
                }
                _ => break,
            }
        }
        self.len -= max - left;
        max - left
    }

    /// Removes up to `max` slots from the back while they are stamped `now`
    /// or later; returns how many it removed. A back run that merged a
    /// push into an older run of the same stamp gives up only `max`.
    fn pop_back_from(&mut self, now: u64, max: u32) -> u32 {
        let mut left = max;
        while left > 0 {
            match self.runs.back_mut() {
                Some(Run::Ready { at, n }) if *at >= now => {
                    if *n > left {
                        *n -= left;
                        left = 0;
                    } else {
                        left -= *n;
                        self.runs.pop_back();
                    }
                }
                _ => break,
            }
        }
        self.len -= max - left;
        max - left
    }

    /// Readies the load waiting on `token` at cycle `now`, if it is here.
    fn complete(&mut self, token: u64, now: u64) {
        if let Some(run) = self.runs.iter_mut().find(|r| **r == Run::Waiting(token)) {
            *run = Run::Ready { at: now, n: 1 };
        }
    }

    /// Length of the ready prefix: slots ready at `now` ahead of the first
    /// waiting or not-yet-ready one.
    fn ready_prefix(&self, now: u64) -> u32 {
        self.runs
            .iter()
            .map_while(|r| match *r {
                Run::Ready { at, n } if at <= now => Some(n),
                _ => None,
            })
            .sum()
    }
}

/// A trace-driven out-of-order core.
#[derive(Debug)]
pub struct SimpleO3Core {
    cfg: CoreConfig,
    id: u8,
    trace: Trace,
    pos: usize,
    bubbles_left: u32,
    window: Window,
    next_token: u64,
    retired: u64,
    target: u64,
    finished_at: Option<u64>,
    llc_hit_latency: u32,
    stalled_op: Option<TraceOp>,
    /// The last dispatch attempt ended with the LLC rejecting
    /// `stalled_op` (no MSHR); cleared by the next accepted dispatch.
    /// Rejection is monotone between fills — MSHR occupancy only falls in
    /// [`SharedLlc::on_fill`], and a full file stops every core from
    /// allocating — so until a fill the retry is a no-op and dispatch is
    /// as stuck as behind a full window.
    rejected: bool,
    /// Bubble-sprint horizon: ticks before this cycle are no-ops because a
    /// closed-form sprint already accounted for them.
    ff_until: u64,
    /// First CPU cycle the active sprint covers; each of its cycles
    /// retires a full `width`.
    sprint_start: u64,
    /// Whether closed-form bubble sprints are allowed. The reference
    /// simulation loop disables them so its cores execute strictly cycle
    /// by cycle — which is exactly what lets the equivalence harness catch
    /// any sprint-math drift.
    sprint_enabled: bool,
    /// Slots appended by an active *fill sprint* (window filling behind a
    /// memory-blocked head). Nonzero only while such a sprint is in
    /// flight; a completion arriving mid-sprint pops the not-yet-reached
    /// tail of exactly these slots (see [`SimpleO3Core::on_mem_complete`]).
    fill_appended: u32,
}

impl SimpleO3Core {
    /// A core executing `trace` until `target` instructions retire.
    ///
    /// # Panics
    ///
    /// If the trace is empty, the window or width is zero, or the window
    /// holds more than `u32::MAX` slots.
    pub fn new(id: u8, cfg: CoreConfig, trace: Trace, target: u64, llc_hit_latency: u32) -> Self {
        assert!(!trace.entries.is_empty(), "core needs a non-empty trace");
        assert!(
            cfg.window > 0 && cfg.width > 0,
            "core window and width must be nonzero (window {}, width {})",
            cfg.window,
            cfg.width
        );
        assert!(
            u32::try_from(cfg.window).is_ok(),
            "core window of {} slots exceeds u32::MAX",
            cfg.window
        );
        Self {
            // A cycle never retires or dispatches more than the window
            // holds, so a narrower window is the real width — the one the
            // sprints' per-cycle arithmetic must use.
            cfg: CoreConfig {
                width: cfg.width.min(cfg.window),
                ..cfg
            },
            id,
            trace,
            pos: 0,
            bubbles_left: 0,
            window: Window::with_capacity(cfg.window),
            next_token: 0,
            retired: 0,
            target,
            finished_at: None,
            llc_hit_latency,
            stalled_op: None,
            rejected: false,
            ff_until: 0,
            sprint_start: 0,
            sprint_enabled: true,
            fill_appended: 0,
        }
    }

    /// Removes retirement credit a sprint granted for cycles that never
    /// elapsed. The simulation loop calls this once, with the last CPU
    /// cycle it actually simulated, before reading [`SimpleO3Core::retired`]
    /// — a run that ends mid-sprint (cycle-limit truncation, or another
    /// core finishing) must report exactly what the naive loop would have
    /// retired by that cycle.
    pub fn settle_retired(&mut self, last_cpu_cycle: u64) {
        if self.ff_until <= self.sprint_start {
            return;
        }
        let k = self.ff_until - self.sprint_start;
        let executed = if last_cpu_cycle < self.sprint_start {
            0
        } else {
            (last_cpu_cycle - self.sprint_start + 1).min(k)
        };
        self.retired -= self.cfg.width as u64 * (k - executed);
        self.ff_until = self.sprint_start + executed;
    }

    /// Enables or disables closed-form bubble sprints (enabled by
    /// default). With sprints off every cycle is executed naively.
    pub fn set_sprint_enabled(&mut self, enabled: bool) {
        self.sprint_enabled = enabled;
    }

    /// The core index.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the instruction target has been reached.
    pub fn state(&self) -> CoreState {
        if self.finished_at.is_some() {
            CoreState::Done
        } else {
            CoreState::Running
        }
    }

    /// CPU cycle at which the target was reached.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// IPC at the point the target was reached (or up to `now` if still
    /// running).
    pub fn ipc(&self, now: u64) -> f64 {
        let cycles = self.finished_at.unwrap_or(now).max(1);
        self.target.min(self.retired) as f64 / cycles as f64
    }

    /// Tokens are tagged with the core id in the upper bits so the
    /// simulator can route completions.
    pub fn token_core(token: u64) -> u8 {
        (token >> 48) as u8
    }

    /// The token the next load miss will wait on. `next_token` advances
    /// only when a miss is accepted, so a rejected load leaves no trace in
    /// the core.
    fn next_load_token(&self) -> u64 {
        ((self.id as u64) << 48) | (self.next_token & 0xFFFF_FFFF_FFFF)
    }

    /// Delivers a memory completion for `token`.
    ///
    /// A completion landing mid-fill-sprint ends the sprint early: the
    /// appended slots stamped `now` or later model dispatches that, under
    /// naive execution, would happen only at or after this cycle — after
    /// the retirement the completion may now unblock — so they are popped
    /// back into `bubbles_left` and the horizon rewinds to `now`. Slots
    /// stamped before `now` were already dispatched in naive terms and
    /// stay. The rewind is always safe (it merely forfeits the skip). It
    /// reads only stamps a fill sprint wrote, which are exact; a bubble
    /// sprint's single stamp is never rewound.
    pub fn on_mem_complete(&mut self, token: u64, now: u64) {
        if self.fill_appended > 0 && now < self.ff_until {
            self.bubbles_left += self.window.pop_back_from(now, self.fill_appended);
            self.fill_appended = 0;
            self.ff_until = now;
        }
        self.window.complete(token, now);
    }

    /// When this core next makes progress, evaluated after its tick for
    /// CPU cycle `now`. See [`CoreWake`] for the skip contract.
    pub fn next_event_cycle(&self, now: u64) -> CoreWake {
        if now + 1 < self.ff_until {
            // Mid-sprint: every tick before `ff_until` returns immediately.
            return CoreWake::At(self.ff_until);
        }
        if !self.rejected && (self.window.len() as usize) < self.cfg.window {
            // Dispatch makes progress: bubbles, a fresh trace entry, or the
            // first LLC attempt of the stalled op.
            return CoreWake::Busy;
        }
        // Dispatch is stuck (window full, or the LLC rejected the stalled
        // op and only a fill can change its answer): the next event is
        // whatever the window head allows retirement to do.
        match self.window.front() {
            Some(Run::Ready { at, .. }) if at > now => CoreWake::At(at),
            Some(Run::Ready { .. }) => CoreWake::Busy,
            // An empty window here means every MSHR is owned elsewhere
            // (another core, or this core's posted stores).
            Some(Run::Waiting(_)) | None => CoreWake::Blocked,
        }
    }

    /// Attempts to replace upcoming pure-bubble cycles with a closed-form
    /// sprint. Called at the end of a tick for cycle `now`; on success the
    /// next `k` ticks become no-ops (guarded by `ff_until`) and the state
    /// delta they would have produced is applied immediately.
    ///
    /// Preconditions guarantee the skipped cycles are observationally
    /// identical to naive execution: the window starts with a ready
    /// prefix of `R` slots (stamped `≤ now`), and at least `width·k`
    /// bubbles are queued, so dispatch never reaches the stalled memory
    /// op. Each skipped cycle then retires `width` slots and dispatches
    /// `width` bubbles, touching neither the LLC nor the token counter — so
    /// no externally visible state can diverge. (A tick that ends with
    /// bubbles still queued has dispatched a full `width` or filled the
    /// window, so `len ≥ width` whenever the gate passes.) When the
    /// whole window is ready (`R = len`) the sprint runs on through the
    /// slots it dispatches itself, bounded by the bubbles left; otherwise
    /// it stops at `k ≤ R/width`, so every cycle retires exactly `width`
    /// prefix slots. A fill landing mid-sprint only readies a slot behind
    /// the prefix, which in-order retirement cannot reach before the
    /// sprint ends, so it cannot change any skipped cycle.
    #[inline(always)]
    fn try_bubble_sprint(&mut self, now: u64) {
        let w = self.cfg.width as u64;
        let min_k = (self.window.len() as u64).div_ceil(w).max(2);
        if self.sprint_enabled && self.bubbles_left as u64 >= min_k * w {
            self.bubble_sprint(now, min_k);
        }
    }

    /// The sprint behind [`SimpleO3Core::try_bubble_sprint`]'s gate, out of
    /// line so that a tick whose gate fails pays for the gate alone.
    ///
    /// It costs O(runs in the ready prefix), not O(window): the `w·k`
    /// retired slots leave the front runs and everything the sprint
    /// dispatched that is still in the window comes back as *one* run
    /// stamped `now + k`. Per-cycle dispatch would have stamped the slot
    /// at distance `d` from the back `now + k − d/w`; the one stamp is
    /// exact because nothing can tell those stamps apart. Every one is
    /// `≤ now + k = ff_until − 1`. Before `ff_until` a tick returns early
    /// and [`SimpleO3Core::next_event_cycle`] answers `At(ff_until)`
    /// without reading the window; at any later cycle `q` each stamp is
    /// `≤ q`, which both retirement (`at ≤ q`) and the wake report
    /// (`at > q`) read as "ready". The one reader of stamps it did not just
    /// write, the rewind in [`SimpleO3Core::on_mem_complete`], pops only
    /// slots a fill sprint appended.
    #[inline(never)]
    fn bubble_sprint(&mut self, now: u64, min_k: u64) {
        let (w, len) = (self.cfg.width as u64, self.window.len() as u64);
        let ready = self.window.ready_prefix(now) as u64;
        // A fully ready window sprints on through slots it dispatches and
        // past its last old slot; a ready prefix only through itself.
        let (mut k, floor) = if ready == len {
            (self.bubbles_left as u64 / w, min_k)
        } else {
            (ready / w, 2)
        };
        if self.finished_at.is_none() {
            // Stop short of the instruction target so `finished_at` is
            // recorded by a real tick at the exact retirement cycle.
            let headroom = self.target.saturating_sub(1).saturating_sub(self.retired);
            k = k.min(headroom / w);
        }
        if k < floor {
            // Below the floor: a prefix sprint must skip at least 2 cycles.
            return;
        }
        self.retired += w * k;
        self.bubbles_left -= (w * k) as u32;
        self.sprint_start = now + 1;
        // The window keeps its length: the w·k retired slots leave from
        // the front — old slots first, all of them ready — and as many of
        // the newest dispatches as old slots left stay at the back.
        let drained = (w * k).min(len) as u32;
        let taken = self.window.retire(now, drained);
        debug_assert_eq!(taken, drained, "a sprint drains only ready slots");
        self.window.push_ready(now + k, drained);
        self.ff_until = now + k + 1;
    }

    /// Attempts a *fill sprint*: with the window head blocked on memory
    /// and enough bubbles queued to top the window up, every upcoming
    /// cycle until the window is full retires nothing (retirement is
    /// in-order and the head is waiting) and dispatches only bubbles —
    /// touching neither the LLC nor the token counter. Those cycles are
    /// applied closed-form: the missing slots are appended with the
    /// stamps naive dispatch would have given them, one run of `width`
    /// per cycle, and the next `⌈free/width⌉` ticks become no-ops. Unlike
    /// a bubble sprint this grants zero retirement credit, so there is
    /// nothing for [`SimpleO3Core::settle_retired`] to unwind; the only way
    /// the skipped cycles can diverge from naive execution is a memory
    /// completion arriving mid-sprint, which rewinds the undispatched
    /// tail (see [`SimpleO3Core::on_mem_complete`]). That rewind tells
    /// dispatched slots from undispatched ones by their stamps, which is
    /// why a fill sprint keeps one stamp per cycle where a bubble sprint
    /// needs only one.
    fn try_fill_sprint(&mut self, now: u64) {
        if !self.sprint_enabled || self.ff_until > now {
            // Sprints disabled, or a bubble sprint already fired.
            return;
        }
        let w = self.cfg.width as u64;
        let free = (self.cfg.window - self.window.len() as usize) as u64;
        // Profitability floor (≥ 2 skipped cycles), and enough bubbles
        // that dispatch never reaches the stalled memory op mid-sprint.
        if free < 2 * w || (self.bubbles_left as u64) < free {
            return;
        }
        if !matches!(self.window.front(), Some(Run::Waiting(_))) {
            return;
        }
        let k = free.div_ceil(w);
        for j in 0..k {
            self.window
                .push_ready(now + 1 + j, (free - j * w).min(w) as u32);
        }
        self.bubbles_left -= free as u32;
        self.fill_appended = free as u32;
        self.ff_until = now + k + 1;
        // Zero retirement credit: mark the sprint pre-settled so
        // `settle_retired` ignores it.
        self.sprint_start = self.ff_until;
    }

    /// Advances one CPU cycle: retire from the window head, then dispatch
    /// new instructions, issuing LLC accesses as needed.
    pub fn tick(&mut self, now: u64, llc: &mut SharedLlc) {
        if now < self.ff_until {
            // A sprint already accounted for this cycle.
            return;
        }
        // Any fill sprint has fully elapsed once a tick executes.
        self.fill_appended = 0;
        let (width, capacity) = (self.cfg.width as u32, self.cfg.window as u32);
        // Retire in order.
        let retired_now = self.window.retire(now, width);
        self.retired += retired_now as u64;
        if retired_now > 0 && self.retired >= self.target && self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
        // Dispatch.
        let mut dispatched = 0;
        while dispatched < width && self.window.len() < capacity {
            if self.bubbles_left > 0 {
                let n = self
                    .bubbles_left
                    .min(width - dispatched)
                    .min(capacity - self.window.len());
                self.bubbles_left -= n;
                self.window.push_ready(now, n);
                dispatched += n;
                continue;
            }
            let op = match self.stalled_op.take() {
                Some(op) => op,
                None => {
                    let entry = self.trace.entries[self.pos];
                    self.pos = (self.pos + 1) % self.trace.entries.len();
                    if entry.bubbles > 0 {
                        self.bubbles_left = entry.bubbles;
                        // Re-enter the loop to dispatch the bubbles first.
                        self.stalled_op = Some(entry.op);
                        continue;
                    }
                    entry.op
                }
            };
            let accepted = match op {
                TraceOp::Load(addr) => {
                    let token = self.next_load_token();
                    match llc.load(addr, token) {
                        LoadResult::Hit => {
                            self.window.push_ready(now + self.llc_hit_latency as u64, 1);
                            true
                        }
                        LoadResult::Miss => {
                            self.window.push_waiting(token);
                            self.next_token += 1;
                            true
                        }
                        LoadResult::Rejected => false,
                    }
                }
                TraceOp::LoadNc(addr) => {
                    let token = self.next_load_token();
                    match llc.load_uncached(addr, token) {
                        LoadResult::Miss => {
                            self.window.push_waiting(token);
                            self.next_token += 1;
                            true
                        }
                        LoadResult::Hit => unreachable!("uncached loads never hit"),
                        LoadResult::Rejected => false,
                    }
                }
                TraceOp::Store(addr) => {
                    if llc.store(addr, self.id) {
                        // Posted: occupies a window slot this cycle only.
                        self.window.push_ready(now, 1);
                        true
                    } else {
                        false
                    }
                }
            };
            self.rejected = !accepted;
            if !accepted {
                self.stalled_op = Some(op);
                break;
            }
            dispatched += 1;
        }
        self.try_bubble_sprint(now);
        self.try_fill_sprint(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::trace::TraceEntry;

    fn bubble_trace(n: usize) -> Trace {
        Trace {
            name: "bubbles".into(),
            entries: (0..n)
                .map(|i| TraceEntry {
                    bubbles: 9,
                    op: TraceOp::Load(0x100000 + (i as u64) * 64),
                })
                .collect(),
        }
    }

    fn llc() -> SharedLlc {
        SharedLlc::new(CacheConfig::default())
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Slot {
        ReadyAt(u64),
        WaitingMem(u64),
    }

    /// The per-slot window that `Window` replaced, kept as the reference
    /// its operations are checked against.
    #[derive(Default)]
    struct SlotWindow(VecDeque<Slot>);

    impl SlotWindow {
        fn push_ready(&mut self, at: u64, n: u32) {
            self.0.extend((0..n).map(|_| Slot::ReadyAt(at)));
        }

        fn push_waiting(&mut self, token: u64) {
            self.0.push_back(Slot::WaitingMem(token));
        }

        fn retire(&mut self, now: u64, max: u32) -> u32 {
            let mut n = 0;
            while n < max && matches!(self.0.front(), Some(Slot::ReadyAt(at)) if *at <= now) {
                self.0.pop_front();
                n += 1;
            }
            n
        }

        fn pop_back_from(&mut self, now: u64, max: u32) -> u32 {
            let mut n = 0;
            while n < max && matches!(self.0.back(), Some(Slot::ReadyAt(at)) if *at >= now) {
                self.0.pop_back();
                n += 1;
            }
            n
        }

        fn complete(&mut self, token: u64, now: u64) {
            for slot in self.0.iter_mut() {
                if *slot == Slot::WaitingMem(token) {
                    *slot = Slot::ReadyAt(now);
                    return;
                }
            }
        }

        fn ready_prefix(&self, now: u64) -> u32 {
            let ready = |s: &&Slot| matches!(s, Slot::ReadyAt(at) if *at <= now);
            self.0.iter().take_while(ready).count() as u32
        }
    }

    /// The window's slots, oldest first, with every stamp below `floor`
    /// read as `floor`.
    fn slots(window: &Window, floor: u64) -> Vec<Slot> {
        let mut out = Vec::new();
        for run in &window.runs {
            match *run {
                Run::Ready { at, n } => out.extend((0..n).map(|_| Slot::ReadyAt(at.max(floor)))),
                Run::Waiting(token) => out.push(Slot::WaitingMem(token)),
            }
        }
        out
    }

    /// Every field a tick can change that later behaviour depends on, with
    /// window stamps below `floor` read as `floor` (see [`slots`]).
    fn fingerprint(core: &SimpleO3Core, floor: u64) -> impl PartialEq {
        (
            core.retired,
            slots(&core.window, floor),
            core.pos,
            core.bubbles_left,
            core.next_token,
            core.rejected,
        )
    }

    #[test]
    fn window_matches_the_per_slot_reference() {
        // Random operation streams against the per-slot window, at three
        // capacities. Stamps cluster around `now` so that retirement and
        // the rewind stop inside runs, and a quarter of the pushes reuse
        // the back run's stamp: merged runs must give up only what
        // `pop_back_from` is asked for.
        let mut rng = crate::TestRng(41);
        let mut merged = 0;
        for cap in [3u32, 12, 128] {
            for _ in 0..200 {
                let mut runs = Window::with_capacity(cap as usize);
                let mut slots_ref = SlotWindow::default();
                let (mut now, mut next_token) = (10u64, 0u64);
                for step in 0..300 {
                    now += rng.below(3);
                    let stamp = now + rng.below(8) - 4;
                    let max = rng.below(cap as u64 + 2) as u32;
                    let what = match rng.below(6) {
                        0 if runs.len() < cap => {
                            let at = match runs.runs.back() {
                                Some(Run::Ready { at, .. }) if rng.below(4) == 0 => {
                                    merged += 1;
                                    *at
                                }
                                _ => stamp,
                            };
                            let n = 1 + rng.below((cap - runs.len()) as u64) as u32;
                            runs.push_ready(at, n);
                            slots_ref.push_ready(at, n);
                            format!("push_ready({at}, {n})")
                        }
                        1 if runs.len() < cap => {
                            runs.push_waiting(next_token);
                            slots_ref.push_waiting(next_token);
                            next_token += 1;
                            "push_waiting".into()
                        }
                        2 => {
                            let (a, b) = (runs.retire(now, max), slots_ref.retire(now, max));
                            assert_eq!(a, b, "retire({now}, {max}) at step {step}");
                            format!("retire({now}, {max})")
                        }
                        3 => {
                            // Mostly a token still in the window, now and
                            // then one that is not.
                            let token = rng.below(next_token + 1);
                            runs.complete(token, stamp);
                            slots_ref.complete(token, stamp);
                            format!("complete({token}, {stamp})")
                        }
                        4 => {
                            let a = runs.pop_back_from(stamp, max);
                            let b = slots_ref.pop_back_from(stamp, max);
                            assert_eq!(a, b, "pop_back_from({stamp}, {max}) at step {step}");
                            format!("pop_back_from({stamp}, {max})")
                        }
                        _ => {
                            let (a, b) = (runs.ready_prefix(now), slots_ref.ready_prefix(now));
                            assert_eq!(a, b, "ready_prefix({now}) at step {step}");
                            format!("ready_prefix({now})")
                        }
                    };
                    assert_eq!(
                        slots(&runs, 0),
                        Vec::from(slots_ref.0.clone()),
                        "cap {cap} step {step}: {what}"
                    );
                    assert_eq!(
                        runs.len() as usize,
                        slots_ref.0.len(),
                        "cap {cap} step {step}"
                    );
                    assert!(
                        runs.runs
                            .iter()
                            .all(|r| !matches!(r, Run::Ready { n: 0, .. })),
                        "cap {cap} step {step}: {what} left an empty run"
                    );
                }
            }
        }
        assert!(
            merged > 500,
            "only {merged} pushes merged into the back run"
        );
    }

    #[test]
    fn bubbles_retire_at_full_width() {
        // All-bubble execution retires 4 IPC after warmup.
        let mut core = SimpleO3Core::new(0, CoreConfig::default(), bubble_trace(4), 400, 24);
        let mut llc = llc();
        let mut now = 0;
        while core.state() == CoreState::Running && now < 10_000 {
            core.tick(now, &mut llc);
            // Complete outstanding loads instantly to isolate bubble flow.
            let mut waiters = Vec::new();
            while let Some(req) = llc.pop_request() {
                llc.on_fill(req.line_addr, req.uncached, &mut waiters);
                for t in waiters.drain(..) {
                    core.on_mem_complete(t, now);
                }
            }
            now += 1;
        }
        assert_eq!(core.state(), CoreState::Done);
        let ipc = core.ipc(now);
        assert!(ipc > 2.0, "bubble IPC too low: {ipc}");
    }

    #[test]
    fn load_miss_blocks_retirement_until_completion() {
        let trace = Trace {
            name: "one-load".into(),
            entries: vec![TraceEntry {
                bubbles: 0,
                op: TraceOp::Load(0x40),
            }],
        };
        let mut core = SimpleO3Core::new(0, CoreConfig::default(), trace, 1, 24);
        let mut llc = llc();
        core.tick(0, &mut llc);
        for now in 1..50 {
            core.tick(now, &mut llc);
        }
        assert_eq!(core.state(), CoreState::Running, "no data, no retire");
        let req = llc.pop_request().unwrap();
        let mut waiters = Vec::new();
        llc.on_fill(req.line_addr, false, &mut waiters);
        for t in waiters {
            core.on_mem_complete(t, 50);
        }
        core.tick(50, &mut llc);
        core.tick(51, &mut llc);
        assert_eq!(core.state(), CoreState::Done);
    }

    #[test]
    fn trace_wraps_around() {
        let mut core = SimpleO3Core::new(0, CoreConfig::default(), bubble_trace(2), 100, 24);
        let mut llc = llc();
        let mut waiters = Vec::new();
        for now in 0..5000 {
            core.tick(now, &mut llc);
            while let Some(req) = llc.pop_request() {
                llc.on_fill(req.line_addr, req.uncached, &mut waiters);
                for t in waiters.drain(..) {
                    core.on_mem_complete(t, now);
                }
            }
            if core.state() == CoreState::Done {
                break;
            }
        }
        assert_eq!(core.state(), CoreState::Done, "2-entry trace must wrap");
    }

    #[test]
    fn token_routing_embeds_core_id() {
        let core = SimpleO3Core::new(3, CoreConfig::default(), bubble_trace(1), 10, 24);
        let t = core.next_load_token();
        assert_eq!(SimpleO3Core::token_core(t), 3);
    }

    #[test]
    fn fill_sprint_matches_naive_execution() {
        // A load miss at the head with hundreds of bubbles behind it: the
        // sprint-enabled core must stay observationally identical to the
        // naive core, including across completions that land mid-sprint
        // (the rewind path). Completions are answered on a period chosen
        // to hit both mid-sprint and post-sprint delivery.
        let trace = Trace {
            name: "miss-then-bubbles".into(),
            entries: vec![
                TraceEntry {
                    bubbles: 0,
                    op: TraceOp::Load(0x40),
                },
                TraceEntry {
                    bubbles: 300,
                    op: TraceOp::Load(0x2000),
                },
            ],
        };
        let mut fast = SimpleO3Core::new(0, CoreConfig::default(), trace.clone(), 900, 24);
        let mut naive = SimpleO3Core::new(0, CoreConfig::default(), trace, 900, 24);
        naive.set_sprint_enabled(false);
        let mut llc_f = llc();
        let mut llc_n = llc();
        let mut waiters = Vec::new();
        let (mut saw_fill, mut saw_rewind) = (false, false);
        // Answer each miss a fixed 7 cycles after issue — well inside the
        // ~31-cycle fill sprint the first miss triggers.
        let mut pending: Vec<(u64, u64, bool)> = Vec::new();
        for now in 0..4000u64 {
            let mut i = 0;
            while i < pending.len() {
                let (at, line, uncached) = pending[i];
                if at != now {
                    i += 1;
                    continue;
                }
                pending.swap_remove(i);
                saw_rewind |= fast.fill_appended > 0 && now < fast.ff_until;
                llc_f.on_fill(line, uncached, &mut waiters);
                for t in waiters.drain(..) {
                    fast.on_mem_complete(t, now);
                }
                llc_n.on_fill(line, uncached, &mut waiters);
                for t in waiters.drain(..) {
                    naive.on_mem_complete(t, now);
                }
            }
            fast.tick(now, &mut llc_f);
            naive.tick(now, &mut llc_n);
            saw_fill |= fast.fill_appended > 0;
            while let Some(req) = llc_f.pop_request() {
                let req_n = llc_n.pop_request().expect("cores issue in lockstep");
                assert_eq!(req.line_addr, req_n.line_addr);
                pending.push((now + 7, req.line_addr, req.uncached));
            }
        }
        assert!(saw_fill, "test never triggered a fill sprint");
        assert!(saw_rewind, "test never exercised the mid-sprint rewind");
        // Observational equivalence: the loop above already asserted the
        // cores issued identical LLC requests in lockstep; the settled
        // retirement state must match too. (Internal window shape may
        // legitimately differ if the run ends mid-sprint.)
        fast.settle_retired(3999);
        assert_eq!(fast.retired(), naive.retired());
        assert_eq!(fast.finished_at(), naive.finished_at());
    }

    #[test]
    fn prefix_sprint_matches_naive_execution() {
        // Long bubble runs ending in LLC misses, LLC hits (latency 6) and
        // stores, on two cores over a tiny LLC, fills answered after random
        // delays — some land mid-sprint. The sprinting cores must issue the
        // naive twins' LLC requests in lockstep, equal them whenever no
        // sprint is in flight (up to stamps that already read as ready),
        // report the same next event then, and settle to their retirement
        // count at a random truncation cycle.
        let mut rng = crate::TestRng(29);
        let (mut saw_prefix, mut saw_narrow, mut saw_capped) = (false, false, false);
        let mut widest_one_run = 0;
        for case in 0..64u64 {
            let cfg = CoreConfig {
                // A window narrower than the width: a cycle retires and
                // dispatches at most a window, and so must a sprint cycle.
                // One far wider than the default: a full-window sprint must
                // still leave a single run.
                window: match case {
                    5 => 1024,
                    _ if case % 4 == 3 => 3,
                    _ => 128,
                },
                width: 4,
            };
            let llc_cfg = CacheConfig {
                capacity: 4096,
                ways: 2,
                line_bytes: 64,
                hit_latency: 6,
                mshrs: [2, 64][(case % 2) as usize],
            };
            let traces: Vec<Trace> = (0..2)
                .map(|_| Trace {
                    name: "prefix".into(),
                    entries: (0..40)
                        .map(|_| TraceEntry {
                            bubbles: match rng.below(4) {
                                0 => rng.below(4) as u32,
                                _ => 120 + rng.below(900) as u32,
                            },
                            op: match rng.below(4) {
                                // Four hot lines: LLC hits once filled.
                                0 => TraceOp::Load(rng.below(4) * 64),
                                1 => TraceOp::Store(rng.below(1 << 16) * 64),
                                _ => TraceOp::Load((64 + rng.below(1 << 16)) * 64),
                            },
                        })
                        .collect(),
                })
                .collect();
            let target = 2_000 + rng.below(6_000);
            let end = 500 + rng.below(3_500);
            let build = |sprint| -> Vec<SimpleO3Core> {
                (0..2)
                    .map(|id| {
                        let t = traces[id].clone();
                        let mut core = SimpleO3Core::new(id as u8, cfg, t, target, 6);
                        core.set_sprint_enabled(sprint);
                        core
                    })
                    .collect()
            };
            let (mut fast, mut naive) = (build(true), build(false));
            let (mut llc_f, mut llc_n) = (SharedLlc::new(llc_cfg), SharedLlc::new(llc_cfg));
            let mut pending: Vec<(u64, u64, bool)> = Vec::new();
            let mut waiters = Vec::new();
            for now in 0..end {
                let mut i = 0;
                while i < pending.len() {
                    let (at, line, uncached) = pending[i];
                    if at > now {
                        i += 1;
                        continue;
                    }
                    pending.swap_remove(i);
                    for (llc, cores) in [(&mut llc_f, &mut fast), (&mut llc_n, &mut naive)] {
                        llc.on_fill(line, uncached, &mut waiters);
                        for t in waiters.drain(..) {
                            cores[SimpleO3Core::token_core(t) as usize].on_mem_complete(t, now);
                        }
                    }
                }
                for c in 0..2 {
                    fast[c].tick(now, &mut llc_f);
                    naive[c].tick(now, &mut llc_n);
                    let (f, n) = (&fast[c], &naive[c]);
                    let what = format!("case {case} core {c} cycle {now}");
                    if f.sprint_start == now + 1 && f.ff_until > now + 1 {
                        // A bubble sprint started this tick.
                        let w = f.cfg.width as u64;
                        let k = f.ff_until - 1 - now;
                        saw_prefix |= f.window.runs.iter().any(|r| matches!(r, Run::Waiting(_)));
                        saw_narrow |= cfg.window < cfg.width;
                        saw_capped |= f.finished_at.is_none()
                            && target - 1 - f.retired < w
                            && f.bubbles_left as u64 >= w;
                        // A prefix sprint drains at most the prefix, less
                        // than the window; a full-window one all of it.
                        if w * k >= f.window.len() as u64 {
                            assert_eq!(f.window.runs.len(), 1, "{what}: full-window sprint");
                            if cfg.window > 128 {
                                widest_one_run = widest_one_run.max(f.window.len());
                            }
                        }
                    }
                    if f.ff_until <= now + 1 {
                        assert!(fingerprint(f, now) == fingerprint(n, now), "{what}: state");
                        assert_eq!(f.finished_at, n.finished_at, "{what}: finished_at");
                        assert_eq!(
                            f.next_event_cycle(now),
                            n.next_event_cycle(now),
                            "{what}: wake"
                        );
                    }
                }
                while let Some(req) = llc_f.pop_request() {
                    assert_eq!(Some(req), llc_n.pop_request(), "case {case} cycle {now}");
                    pending.push((now + 1 + rng.below(60), req.line_addr, req.uncached));
                }
                assert_eq!(llc_n.pop_request(), None, "case {case} cycle {now}");
            }
            for (f, n) in fast.iter_mut().zip(&naive) {
                f.settle_retired(end - 1);
                assert_eq!(f.retired(), n.retired(), "case {case}: settled retirement");
                assert_eq!(f.finished_at(), n.finished_at(), "case {case}: finished_at");
            }
        }
        assert!(
            saw_prefix,
            "no sprint started with a miss behind the prefix"
        );
        assert!(saw_narrow, "no sprint on a window narrower than the width");
        assert!(
            saw_capped,
            "no sprint was cut short by the instruction target"
        );
        assert!(
            widest_one_run > 128,
            "no full-window sprint on the 1024-slot window drained more than \
             the default window (widest: {widest_one_run} slots)"
        );
    }

    #[test]
    fn wake_reports_keep_both_halves_of_the_contract() {
        // Random Load/LoadNc/Store/bubble traces on two cores sharing a
        // tiny LLC, fills answered after random delays. After every tick
        // the core's `next_event_cycle` is recorded; the next tick must
        // then change (core, LLC) state if it said `Busy`, and must change
        // nothing if it said `At(c)` with `c` still ahead or `Blocked` —
        // unless a fill was delivered in between, which voids the report.
        let mut rng = crate::TestRng(13);
        let (mut saw_rejected_blocked, mut saw_rejected_empty, mut saw_rejected_at) =
            (false, false, false);
        for case in 0..96u64 {
            let mshrs = [1, 2, 4, 64][(case % 4) as usize];
            let cfg = CoreConfig {
                // A short window makes "window full" reachable at 64 MSHRs.
                window: if case % 8 < 4 { 128 } else { 12 },
                width: 4,
            };
            let mut llc = SharedLlc::new(CacheConfig {
                capacity: 4096,
                ways: 2,
                line_bytes: 64,
                hit_latency: 6,
                mshrs,
            });
            let mut cores: Vec<SimpleO3Core> = (0..2u8)
                .map(|id| {
                    let entries = (0..200)
                        .map(|_| {
                            let addr = rng.below(96) * 64;
                            TraceEntry {
                                // Mostly back-to-back accesses, now and
                                // then a stretch long enough to sprint.
                                bubbles: match rng.below(8) {
                                    0 => 40 + rng.below(300) as u32,
                                    1..=3 => rng.below(6) as u32,
                                    _ => 0,
                                },
                                op: match rng.below(3) {
                                    0 => TraceOp::Load(addr),
                                    1 => TraceOp::LoadNc(addr),
                                    _ => TraceOp::Store(addr),
                                },
                            }
                        })
                        .collect();
                    let trace = Trace {
                        name: "random".into(),
                        entries,
                    };
                    SimpleO3Core::new(id, cfg, trace, 5_000, 6)
                })
                .collect();
            let mut last_wake = [CoreWake::Busy; 2];
            let mut fill_since = [true; 2];
            let mut pending: Vec<(u64, u64, bool)> = Vec::new();
            let mut waiters = Vec::new();
            for now in 0..4_000u64 {
                let mut i = 0;
                while i < pending.len() {
                    let (at, line, uncached) = pending[i];
                    if at > now {
                        i += 1;
                        continue;
                    }
                    pending.swap_remove(i);
                    llc.on_fill(line, uncached, &mut waiters);
                    for t in waiters.drain(..) {
                        cores[SimpleO3Core::token_core(t) as usize].on_mem_complete(t, now);
                    }
                    fill_since = [true; 2];
                }
                for (c, core) in cores.iter_mut().enumerate() {
                    let before = (fingerprint(core, 0), llc.fingerprint());
                    core.tick(now, &mut llc);
                    let changed = before != (fingerprint(core, 0), llc.fingerprint());
                    let what =
                        format!("case {case} core {c} cycle {now}: after {:?}", last_wake[c]);
                    match last_wake[c] {
                        // Cycle 0 has no report behind it.
                        CoreWake::Busy => assert!(changed || now == 0, "{what} the tick was inert"),
                        CoreWake::At(at) if now >= at => {}
                        CoreWake::At(_) | CoreWake::Blocked => {
                            assert!(fill_since[c] || !changed, "{what} the tick changed state")
                        }
                    }
                    last_wake[c] = core.next_event_cycle(now);
                    fill_since[c] = false;
                    if core.rejected {
                        match last_wake[c] {
                            CoreWake::Blocked if core.window.len() == 0 => {
                                saw_rejected_empty = true
                            }
                            CoreWake::Blocked => saw_rejected_blocked = true,
                            CoreWake::At(_) => saw_rejected_at = true,
                            CoreWake::Busy => {}
                        }
                    }
                }
                while let Some(req) = llc.pop_request() {
                    pending.push((now + 1 + rng.below(60), req.line_addr, req.uncached));
                }
            }
        }
        assert!(
            saw_rejected_blocked,
            "no rejected core behind a waiting head"
        );
        assert!(saw_rejected_empty, "no rejected core with an empty window");
        assert!(saw_rejected_at, "no rejected core behind a timed head");
    }

    #[test]
    fn window_fills_under_memory_stalls() {
        // A pointer-chase of distinct lines with no completions: the window
        // must fill up and dispatch must stop.
        let trace = Trace {
            name: "chase".into(),
            entries: (0..64u64)
                .map(|i| TraceEntry {
                    bubbles: 0,
                    op: TraceOp::Load(i * 64),
                })
                .collect(),
        };
        let mut core = SimpleO3Core::new(0, CoreConfig::default(), trace, 1000, 24);
        let mut llc = SharedLlc::new(CacheConfig {
            mshrs: 1024,
            ..CacheConfig::default()
        });
        for now in 0..1000 {
            core.tick(now, &mut llc);
        }
        assert_eq!(core.retired(), 0);
        assert_eq!(core.window.len(), 128, "window saturated");
    }

    #[test]
    #[should_panic(expected = "window and width must be nonzero")]
    fn zero_window_is_rejected_at_construction() {
        let cfg = CoreConfig {
            window: 0,
            width: 4,
        };
        SimpleO3Core::new(0, cfg, bubble_trace(1), 10, 24);
    }

    #[test]
    #[should_panic(expected = "window and width must be nonzero")]
    fn zero_width_is_rejected_at_construction() {
        let cfg = CoreConfig {
            window: 128,
            width: 0,
        };
        SimpleO3Core::new(0, cfg, bubble_trace(1), 10, 24);
    }
}
