//! Layer kernels: what is invisible below `System::run`, measured by
//! replaying one trace through a single layer's public API at a time.
//!
//! Each kernel reports the work it did as a count, its busy time per
//! operation, and — where the layer can waste work — the ratio of useful
//! outcomes to attempts. Every kernel also checks its own bookkeeping
//! against the layer's counters; a disagreement is a verification
//! failure of the run.

use std::hint::black_box;
use std::time::Instant;

use chronus_core::MechanismKind;
use chronus_cpu::{CoreState, CoreWake, SharedLlc, SimpleO3Core, Trace, TraceOp};
use chronus_ctrl::{AddressMapping, Completion, CtrlConfig, MemRequest, MemoryController, ReqKind};
use chronus_dram::{
    BankId, Command, DisturbOracle, DramAddr, DramConfig, DramDevice, DramStats, MitigationStats,
    ThresholdModel, TimingMode, Timings,
};
use chronus_energy::{EnergyParams, MechanismEnergy};
use chronus_security::sweep::{fig3a, fig3b};
use chronus_security::wave::WaveTiming;
use chronus_sim::{SimConfig, System};

use crate::scale::{Scale, MEMSYS_DEPTH};
use crate::stats::median;

/// The kernels' metrics and any bookkeeping disagreement they found.
#[derive(Default)]
pub struct KernelMetrics {
    /// `(metric, value)`; `NaN` where the trace gives the layer no work.
    pub values: Vec<(&'static str, f64)>,
    /// Kernels whose own count disagreed with the layer's counter.
    pub mismatches: Vec<String>,
}

/// `MechanismKind::None` followed by every mechanism, with the suffix its
/// metrics carry.
pub const MECHANISMS: [(MechanismKind, &str); 12] = [
    (MechanismKind::None, "baseline"),
    (MechanismKind::Prfm, "prfm"),
    (MechanismKind::Prac1, "prac1"),
    (MechanismKind::Prac2, "prac2"),
    (MechanismKind::Prac4, "prac4"),
    (MechanismKind::PracPrfm, "pracprfm"),
    (MechanismKind::Chronus, "chronus"),
    (MechanismKind::ChronusPb, "chronuspb"),
    (MechanismKind::Graphene, "graphene"),
    (MechanismKind::Hydra, "hydra"),
    (MechanismKind::Para, "para"),
    (MechanismKind::Abacus, "abacus"),
];

/// `core.hooks.ns_per_act.<mech>` for the eleven mechanisms, in
/// [`MECHANISMS`] order.
pub const HOOK_METRICS: [&str; 11] = [
    "core.hooks.ns_per_act.prfm",
    "core.hooks.ns_per_act.prac1",
    "core.hooks.ns_per_act.prac2",
    "core.hooks.ns_per_act.prac4",
    "core.hooks.ns_per_act.pracprfm",
    "core.hooks.ns_per_act.chronus",
    "core.hooks.ns_per_act.chronuspb",
    "core.hooks.ns_per_act.graphene",
    "core.hooks.ns_per_act.hydra",
    "core.hooks.ns_per_act.para",
    "core.hooks.ns_per_act.abacus",
];

/// `sim.build.ms.<mech>` for Baseline and the eleven mechanisms, in
/// [`MECHANISMS`] order.
pub const BUILD_METRICS: [&str; 12] = [
    "sim.build.ms.baseline",
    "sim.build.ms.prfm",
    "sim.build.ms.prac1",
    "sim.build.ms.prac2",
    "sim.build.ms.prac4",
    "sim.build.ms.pracprfm",
    "sim.build.ms.chronus",
    "sim.build.ms.chronuspb",
    "sim.build.ms.graphene",
    "sim.build.ms.hydra",
    "sim.build.ms.para",
    "sim.build.ms.abacus",
];

fn ns_per(seconds: f64, ops: u64) -> f64 {
    if ops == 0 {
        f64::NAN
    } else {
        seconds * 1e9 / ops as f64
    }
}

fn ratio(useful: u64, attempts: u64) -> f64 {
    if attempts == 0 {
        f64::NAN
    } else {
        useful as f64 / attempts as f64
    }
}

/// The address mapping `cfg` resolves to, as `System::build` picks it.
fn mapping_of(cfg: &SimConfig) -> AddressMapping {
    cfg.mapping
        .unwrap_or_else(|| cfg.mechanism.preferred_mapping())
}

/// A Baseline-timing device of `cfg`'s geometry that never panics on a
/// timing violation (the kernels ask `earliest_issue_at` first).
fn baseline_device(cfg: &SimConfig) -> DramDevice {
    let mut dram_cfg = DramConfig::with_mode(TimingMode::Baseline);
    dram_cfg.geometry = cfg.geometry;
    dram_cfg.strict = false;
    DramDevice::new(dram_cfg)
}

/// `trace` cut or cycled to exactly `entries` entries, so every workload's
/// kernels do the same amount of work.
pub fn kernel_trace(trace: &Trace, entries: usize) -> Trace {
    Trace {
        name: trace.name.clone(),
        entries: trace
            .entries
            .iter()
            .copied()
            .cycle()
            .take(entries)
            .collect(),
    }
}

/// One line the LLC asked memory for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissReq {
    /// Line address.
    pub line_addr: u64,
    /// A dirty-victim writeback rather than a fill.
    pub write: bool,
}

/// What the LLC kernel measured.
pub struct LlcKernel {
    /// Cacheable loads and stores replayed.
    pub accesses: u64,
    /// The cache's own hit counter.
    pub hits: u64,
    /// The cache's own miss counter.
    pub misses: u64,
    /// Seconds spent.
    pub seconds: f64,
    /// Every request the cache sent towards memory, in order.
    pub miss_stream: Vec<MissReq>,
}

/// Replays `trace` through `SharedLlc::load`/`store`/`load_uncached`,
/// filling every miss at once (`pop_request` + `on_fill`), and collects
/// the stream of fills and writebacks memory would see.
pub fn llc_kernel(cfg: &SimConfig, trace: &Trace) -> LlcKernel {
    let mut llc = SharedLlc::new(cfg.llc);
    let mut waiters = Vec::new();
    let mut miss_stream = Vec::new();
    let mut accesses = 0;
    let t = Instant::now();
    for (token, e) in trace.entries.iter().enumerate() {
        match e.op {
            TraceOp::Load(a) => {
                accesses += 1;
                black_box(llc.load(a, token as u64));
            }
            TraceOp::Store(a) => {
                accesses += 1;
                black_box(llc.store(a, 0));
            }
            TraceOp::LoadNc(a) => {
                black_box(llc.load_uncached(a, token as u64));
            }
        }
        while let Some(req) = llc.pop_request() {
            miss_stream.push(MissReq {
                line_addr: req.line_addr,
                write: false,
            });
            if let Some(victim) = llc.on_fill(req.line_addr, req.uncached, &mut waiters) {
                miss_stream.push(MissReq {
                    line_addr: victim,
                    write: true,
                });
            }
        }
    }
    let seconds = t.elapsed().as_secs_f64();
    let (hits, misses) = llc.hit_miss();
    LlcKernel {
        accesses,
        hits,
        misses,
        seconds,
        miss_stream,
    }
}

/// What the core kernel measured.
pub struct CoreKernel {
    /// Instructions retired.
    pub retired: u64,
    /// `SimpleO3Core::tick` calls made.
    pub ticks: u64,
    /// Whether the core reached its target.
    pub done: bool,
    /// Seconds spent.
    pub seconds: f64,
}

/// Ticks one `SimpleO3Core` through `trace` against an LLC whose misses
/// fill in the same cycle, skipping the cycles the core's own wake
/// contract declares inert.
pub fn core_kernel(cfg: &SimConfig, trace: &Trace) -> CoreKernel {
    let target = trace.instructions();
    let mut llc = SharedLlc::new(cfg.llc);
    let mut core = SimpleO3Core::new(0, cfg.core, trace.clone(), target, cfg.llc.hit_latency);
    let mut waiters = Vec::new();
    let mut now = 0u64;
    let mut ticks = 0u64;
    // No trace needs more ticks than instructions plus hit latencies; the
    // cap only ends a kernel the core would never finish.
    let cap = target.saturating_mul(64).max(1 << 20);
    let t = Instant::now();
    while core.state() != CoreState::Done && ticks < cap {
        core.tick(now, &mut llc);
        ticks += 1;
        while let Some(req) = llc.pop_request() {
            llc.on_fill(req.line_addr, req.uncached, &mut waiters);
            for token in waiters.drain(..) {
                core.on_mem_complete(token, now);
            }
        }
        now = match core.next_event_cycle(now) {
            CoreWake::At(c) => c.max(now + 1),
            CoreWake::Busy | CoreWake::Blocked => now + 1,
        };
    }
    let seconds = t.elapsed().as_secs_f64();
    core.settle_retired(now.saturating_sub(1));
    CoreKernel {
        retired: core.retired().min(target),
        ticks,
        done: core.state() == CoreState::Done,
        seconds,
    }
}

/// What the memory-system kernel measured.
#[derive(Default)]
pub struct MemsysKernel {
    /// Requests accepted (reads and writes).
    pub requests: u64,
    /// Reads among them.
    pub reads: u64,
    /// The controller's `reads_served` at the end.
    pub reads_served: u64,
    /// Cycles on which a request was due but the queue refused it.
    pub rejects: u64,
    /// `tick` calls.
    pub ticks: u64,
    /// `next_wake` calls.
    pub next_wakes: u64,
    /// Seconds inside `tick` (timer overhead removed); instrumented
    /// replay only.
    pub tick_s: f64,
    /// Seconds inside `next_wake` (timer overhead removed); instrumented
    /// replay only.
    pub next_wake_s: f64,
    /// The controller's fused-scan shortcut count.
    pub wake_shortcuts: u64,
    /// The controller's wake recomputation count.
    pub wake_recomputes: u64,
    /// Seconds for the whole replay.
    pub seconds: f64,
}

/// Mean cost of one `Instant::now()` + `elapsed()` pair, so per-call
/// timings can have it removed.
fn timer_overhead() -> f64 {
    let n = 100_000;
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..n {
        let s = Instant::now();
        acc += s.elapsed().as_secs_f64();
    }
    black_box(acc);
    t.elapsed().as_secs_f64() / f64::from(n)
}

/// Replays `stream` closed-loop through a Baseline `MemoryController` +
/// `DramDevice` with at most [`MEMSYS_DEPTH`] reads outstanding, driving
/// it exactly as `System::run` does: `tick` when the wake cycle is due,
/// `next_wake` after a tick or an arrival, `drain_completions` each
/// visited cycle. With `per_call`, `tick` and `next_wake` are timed one
/// call at a time.
pub fn memsys_kernel(cfg: &SimConfig, stream: &[MissReq], per_call: bool) -> MemsysKernel {
    let mut dram = baseline_device(cfg);
    let mapping = mapping_of(cfg);
    let mut ctrl = MemoryController::new(
        CtrlConfig {
            mapping,
            ..CtrlConfig::default()
        },
        &dram,
    );
    let geo = cfg.geometry;
    let overhead = if per_call { timer_overhead() } else { 0.0 };
    let mut k = MemsysKernel::default();
    let mut completions: Vec<Completion> = Vec::with_capacity(64);
    let mut now = 0u64;
    let mut wake = 0u64;
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let t = Instant::now();
    while next < stream.len() || outstanding > 0 {
        if now >= wake {
            if per_call {
                let s = Instant::now();
                ctrl.tick(&mut dram, now);
                k.tick_s += s.elapsed().as_secs_f64() - overhead;
                let s = Instant::now();
                wake = ctrl.next_wake(&dram, now);
                k.next_wake_s += s.elapsed().as_secs_f64() - overhead;
            } else {
                ctrl.tick(&mut dram, now);
                wake = ctrl.next_wake(&dram, now);
            }
            k.ticks += 1;
            k.next_wakes += 1;
        }
        completions.clear();
        ctrl.drain_completions(now, &mut completions);
        outstanding -= completions.len();

        let mut pushed = false;
        while next < stream.len() && outstanding < MEMSYS_DEPTH {
            let req = stream[next];
            let kind = if req.write {
                ReqKind::Write
            } else {
                ReqKind::Read
            };
            if !ctrl.can_accept(kind) {
                k.rejects += 1;
                break;
            }
            ctrl.push_request(MemRequest {
                id: next as u64,
                kind,
                addr: mapping.decode(req.line_addr, &geo),
                core: 0,
                arrived: now,
            });
            k.requests += 1;
            if !req.write {
                k.reads += 1;
                outstanding += 1;
            }
            next += 1;
            pushed = true;
        }
        if pushed {
            if per_call {
                let s = Instant::now();
                wake = ctrl.next_wake(&dram, now);
                k.next_wake_s += s.elapsed().as_secs_f64() - overhead;
            } else {
                wake = ctrl.next_wake(&dram, now);
            }
            k.next_wakes += 1;
        }
        // Nothing changes before the controller can act or data returns
        // (a refused request waits for an issue, which is a wake).
        let mut target = wake;
        if let Some(at) = ctrl.next_completion_at() {
            target = target.min(at);
        }
        now = target.max(now + 1);
    }
    k.seconds = t.elapsed().as_secs_f64();
    k.reads_served = ctrl.stats().reads_served;
    k.wake_shortcuts = ctrl.wake_shortcuts();
    k.wake_recomputes = ctrl.wake_recomputes();
    k
}

/// One row activation of the command stream the device kernel issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Act {
    /// Decoded coordinates.
    pub addr: DramAddr,
    /// Cycle it issued at.
    pub at: u64,
}

/// What the device kernel measured.
pub struct IssueKernel {
    /// Commands issued.
    pub cmds: u64,
    /// The device's own ACT + RD + WR + PRE counters, summed.
    pub device_cmds: u64,
    /// Seconds spent.
    pub seconds: f64,
    /// The activations, for the hook and oracle kernels.
    pub acts: Vec<Act>,
}

/// Turns `stream` into the open-page ACT/RD/WR/PRE command stream a
/// controller would issue, asking `earliest_issue_at` for each command's
/// cycle and `issue`-ing it there.
pub fn issue_kernel(cfg: &SimConfig, stream: &[MissReq]) -> IssueKernel {
    let mut dev = baseline_device(cfg);
    let mapping = mapping_of(cfg);
    let decoded: Vec<(DramAddr, bool)> = stream
        .iter()
        .map(|r| (mapping.decode(r.line_addr, &cfg.geometry), r.write))
        .collect();
    let mut acts = Vec::new();
    let mut cmds = 0u64;
    let mut now = 0u64;
    let t = Instant::now();
    let mut go = |dev: &mut DramDevice, cmd: Command, now: &mut u64| {
        let at = dev.earliest_issue_at(&cmd, *now);
        dev.issue(&cmd, at);
        *now = at;
        cmds += 1;
        at
    };
    for &(addr, write) in &decoded {
        let bank = addr.bank;
        let open = dev.open_row(bank);
        if open != Some(addr.row) {
            if open.is_some() {
                go(&mut dev, Command::Pre { bank }, &mut now);
            }
            let at = go(
                &mut dev,
                Command::Act {
                    bank,
                    row: addr.row,
                },
                &mut now,
            );
            acts.push(Act { addr, at });
        }
        let cas = if write {
            Command::Wr {
                bank,
                col: addr.col,
            }
        } else {
            Command::Rd {
                bank,
                col: addr.col,
            }
        };
        go(&mut dev, cas, &mut now);
    }
    let seconds = t.elapsed().as_secs_f64();
    let s = dev.stats();
    IssueKernel {
        cmds,
        device_cmds: s.acts + s.pres + s.reads + s.writes,
        seconds,
        acts,
    }
}

/// Nanoseconds per `DisturbOracle::on_activate` with `lanes` VRD lanes.
pub fn oracle_kernel(cfg: &SimConfig, acts: &[Act], lanes: u64) -> f64 {
    let models = (0..lanes)
        .map(|seed| ThresholdModel::PerRow {
            nominal: 1024,
            floor: 512,
            seed,
        })
        .collect();
    let mut oracle = DisturbOracle::with_lanes(cfg.geometry, 2, models);
    let t = Instant::now();
    for a in acts {
        oracle.on_activate(a.addr.bank, a.addr.row);
    }
    let seconds = t.elapsed().as_secs_f64();
    black_box(oracle.max_aggressor_acts());
    ns_per(seconds, acts.len() as u64)
}

/// Nanoseconds per activation through `mech`'s hooks: the on-die
/// `on_activate`/`on_precharge` (serving an RFM when they raise the
/// alert, as the controller would) and the controller-side `on_activate`.
pub fn hooks_kernel(cfg: &SimConfig, acts: &[Act], mech: MechanismKind, nrh: u32) -> f64 {
    let mut setup = mech.build(nrh, cfg.geometry, cfg.seed);
    let ras = Timings::for_mode(setup.timing_mode).ras;
    let mut actions = Vec::new();
    let mut alerts = 0u64;
    let t = Instant::now();
    for a in acts {
        let (bank, row): (BankId, u32) = (a.addr.bank, a.addr.row);
        let mut alert = setup.dram_mitigation.on_activate(bank, row, a.at);
        setup
            .ctrl_mitigation
            .on_activate(a.addr, a.at, &mut actions);
        actions.clear();
        alert |= setup.dram_mitigation.on_precharge(bank, row, a.at + ras);
        if alert {
            alerts += 1;
            black_box(setup.dram_mitigation.on_rfm(bank, a.at + ras));
        }
    }
    let seconds = t.elapsed().as_secs_f64();
    black_box(alerts);
    ns_per(seconds, acts.len() as u64)
}

/// Median milliseconds of `System::build` for `mech` at `nrh`.
pub fn build_kernel(cfg: &SimConfig, mech: MechanismKind, nrh: u32) -> f64 {
    let mut cfg = cfg.clone();
    cfg.mechanism = mech;
    cfg.nrh = nrh;
    cfg.threshold_override = None;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(System::build(&cfg));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn energy_kernel() -> f64 {
    let stats = DramStats {
        acts: 1_000_000,
        pres: 1_000_000,
        reads: 3_000_000,
        writes: 1_000_000,
        refs: 10_000,
        rfms: 5_000,
        vrrs: 2_000,
        rfm_victim_rows: 20_000,
        borrowed_refreshes: 100,
        active_standby_cycles: 50_000_000,
        precharge_standby_cycles: 150_000_000,
        total_cycles: 100_000_000,
    };
    let mit = MitigationStats {
        counter_updates: 1_000_000,
        ..MitigationStats::default()
    };
    let timings = Timings::for_mode(TimingMode::Prac);
    let (params, mech) = (EnergyParams::default(), MechanismEnergy::prac());
    let n = 100_000u64;
    let t = Instant::now();
    for i in 0..n {
        let mut s = stats;
        s.acts += i;
        black_box(chronus_energy::compute(
            black_box(&s),
            &mit,
            &timings,
            &params,
            &mech,
            4,
        ));
    }
    ns_per(t.elapsed().as_secs_f64(), n)
}

fn fig3_kernel() -> f64 {
    let t = Instant::now();
    black_box(fig3a(&WaveTiming::baseline_default()));
    black_box(fig3b(&WaveTiming::prac_default()));
    t.elapsed().as_secs_f64()
}

/// Runs every kernel on `trace` (cut or cycled to the scale's
/// `kernel_entries`) under `cfg`.
pub fn run_all(cfg: &SimConfig, trace: &Trace, scale: &Scale, seed: u64) -> KernelMetrics {
    let mut m = KernelMetrics::default();
    let nrh = scale.nrh as u32;
    let entries = scale.kernel_entries as usize;

    // workloads: regenerate the same kind of trace the workload replays.
    let t = Instant::now();
    let generated = match trace.entries.first().map(|e| e.op) {
        Some(TraceOp::LoadNc(_)) | None => {
            chronus_workloads::perf_attack_trace(AddressMapping::Mop, &cfg.geometry, 4, 8, entries)
        }
        Some(_) => {
            let app = chronus_workloads::synthetic_app(&trace.name, 0)
                .unwrap_or_else(|| panic!("unknown app profile '{}'", trace.name));
            let per_entry = trace.instructions() as f64 / trace.entries.len() as f64;
            app.generate((entries as f64 * per_entry) as u64, seed)
        }
    };
    m.values.push((
        "workloads.generate.ns_per_entry",
        ns_per(t.elapsed().as_secs_f64(), generated.entries.len() as u64),
    ));
    drop(generated);

    let trace = kernel_trace(trace, entries);

    let llc = llc_kernel(cfg, &trace);
    m.values.extend([
        ("cpu.llc.ns_per_access", ns_per(llc.seconds, entries as u64)),
        ("cpu.llc.hit_ratio", ratio(llc.hits, llc.hits + llc.misses)),
    ]);
    if llc.hits + llc.misses != llc.accesses {
        m.mismatches.push(format!(
            "cpu.llc: hits {} + misses {} != accesses {}",
            llc.hits, llc.misses, llc.accesses
        ));
    }

    let core = core_kernel(cfg, &trace);
    m.values.extend([
        ("cpu.core.ns_per_instr", ns_per(core.seconds, core.retired)),
        ("cpu.core.ticks", core.ticks as f64),
    ]);
    if !core.done || core.retired != trace.instructions() {
        m.mismatches.push(format!(
            "cpu.core: retired {} of {} instructions",
            core.retired,
            trace.instructions()
        ));
    }

    let mapping = mapping_of(cfg);
    let t = Instant::now();
    for e in &trace.entries {
        black_box(mapping.decode(black_box(e.op.addr()), &cfg.geometry));
    }
    m.values.push((
        "ctrl.mapping.ns_per_decode",
        ns_per(t.elapsed().as_secs_f64(), entries as u64),
    ));

    let stream = &llc.miss_stream;
    let whole = memsys_kernel(cfg, stream, false);
    let split = memsys_kernel(cfg, stream, true);
    m.values.extend([
        (
            "ctrl.memsys.ns_per_request",
            ns_per(whole.seconds, whole.requests),
        ),
        ("ctrl.tick.count", whole.ticks as f64),
        ("ctrl.tick.ns", ns_per(split.tick_s, split.ticks)),
        ("ctrl.next_wake.count", whole.next_wakes as f64),
        (
            "ctrl.next_wake.ns",
            ns_per(split.next_wake_s, split.next_wakes),
        ),
        (
            "ctrl.wake.shortcut_ratio",
            ratio(
                whole.wake_shortcuts,
                whole.wake_shortcuts + whole.wake_recomputes,
            ),
        ),
        (
            "ctrl.queue.reject_frac",
            ratio(whole.rejects, whole.requests + whole.rejects),
        ),
    ]);
    if whole.reads_served != whole.reads || whole.requests != stream.len() as u64 {
        m.mismatches.push(format!(
            "ctrl.memsys: pushed {} reads of {} requests, controller served {} reads",
            whole.reads,
            stream.len(),
            whole.reads_served
        ));
    }

    let issue = issue_kernel(cfg, stream);
    m.values.extend([
        ("dram.issue.ns_per_cmd", ns_per(issue.seconds, issue.cmds)),
        ("dram.issue.cmds", issue.cmds as f64),
    ]);
    if issue.cmds != issue.device_cmds {
        m.mismatches.push(format!(
            "dram.issue: issued {} commands, device counted {}",
            issue.cmds, issue.device_cmds
        ));
    }

    m.values.extend([
        (
            "dram.oracle.ns_per_act.lanes1",
            oracle_kernel(cfg, &issue.acts, 1),
        ),
        (
            "dram.oracle.ns_per_act.lanes64",
            oracle_kernel(cfg, &issue.acts, 64),
        ),
    ]);
    for (&(mech, _), name) in MECHANISMS[1..].iter().zip(HOOK_METRICS) {
        m.values
            .push((name, hooks_kernel(cfg, &issue.acts, mech, nrh)));
    }
    for (&(mech, _), name) in MECHANISMS.iter().zip(BUILD_METRICS) {
        m.values.push((name, build_kernel(cfg, mech, nrh)));
    }
    m.values.push(("energy.compute.ns", energy_kernel()));
    m.values.push(("security.fig3.s", fig3_kernel()));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_workloads::synthetic_app;

    fn input(app: &str, entries: usize) -> (SimConfig, Trace) {
        let mut cfg = SimConfig::single_core();
        cfg.nrh = 32;
        let trace = synthetic_app(app, 0).unwrap().generate(400_000, 7);
        (cfg, kernel_trace(&trace, entries))
    }

    #[test]
    fn kernel_trace_cuts_and_cycles() {
        let (_, t) = input("511.povray", 10);
        assert_eq!(t.entries.len(), 10);
        let cycled = kernel_trace(&t, 25);
        assert_eq!(cycled.entries.len(), 25);
        assert_eq!(cycled.entries[10], t.entries[0]);
        assert_eq!(cycled.entries[24], t.entries[4]);
    }

    #[test]
    fn llc_kernel_agrees_with_the_caches_counters() {
        for app in ["429.mcf", "470.lbm"] {
            let (cfg, trace) = input(app, 5_000);
            let k = llc_kernel(&cfg, &trace);
            assert_eq!(k.accesses, 5_000);
            assert_eq!(k.hits + k.misses, k.accesses, "{app}");
            // Every miss asked memory for exactly one fill.
            let fills = k.miss_stream.iter().filter(|r| !r.write).count() as u64;
            assert_eq!(fills, k.misses, "{app}");
        }
    }

    #[test]
    fn core_kernel_retires_the_whole_trace() {
        let (cfg, trace) = input("470.lbm", 3_000);
        let k = core_kernel(&cfg, &trace);
        assert!(k.done);
        assert_eq!(k.retired, trace.instructions());
        assert!(k.ticks > 0);
    }

    #[test]
    fn memsys_kernel_serves_every_read_it_pushed() {
        let (cfg, trace) = input("429.mcf", 4_000);
        let stream = llc_kernel(&cfg, &trace).miss_stream;
        for per_call in [false, true] {
            let k = memsys_kernel(&cfg, &stream, per_call);
            assert_eq!(k.requests, stream.len() as u64);
            assert_eq!(k.reads_served, k.reads);
            assert_eq!(k.reads, stream.iter().filter(|r| !r.write).count() as u64);
            assert!(k.ticks > 0 && k.next_wakes >= k.ticks);
            assert!(k.wake_recomputes > 0);
        }
    }

    #[test]
    fn issue_kernel_agrees_with_the_devices_counters() {
        let (cfg, trace) = input("429.mcf", 4_000);
        let stream = llc_kernel(&cfg, &trace).miss_stream;
        let k = issue_kernel(&cfg, &stream);
        assert_eq!(k.cmds, k.device_cmds);
        assert!(!k.acts.is_empty() && k.acts.len() <= stream.len());
        // Issue cycles never run backwards.
        assert!(k.acts.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn per_mechanism_kernels_yield_numbers() {
        let (cfg, trace) = input("429.mcf", 2_000);
        let stream = llc_kernel(&cfg, &trace).miss_stream;
        let acts = issue_kernel(&cfg, &stream).acts;
        for (mech, name) in &MECHANISMS[1..] {
            assert!(hooks_kernel(&cfg, &acts, *mech, 32) > 0.0, "{name}");
        }
        assert!(oracle_kernel(&cfg, &acts, 1) > 0.0);
        assert!(oracle_kernel(&cfg, &acts, 64) > 0.0);
        assert!(build_kernel(&cfg, MechanismKind::Chronus, 32) > 0.0);
        assert_eq!(HOOK_METRICS.len() + 1, MECHANISMS.len());
        assert_eq!(BUILD_METRICS.len(), MECHANISMS.len());
        for ((_, suffix), name) in MECHANISMS.iter().zip(BUILD_METRICS) {
            assert!(name.ends_with(suffix));
        }
        for ((_, suffix), name) in MECHANISMS[1..].iter().zip(HOOK_METRICS) {
            assert!(name.ends_with(suffix));
        }
    }
}
