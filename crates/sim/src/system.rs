//! System assembly and the main simulation loop.
//!
//! One loop body serves every entry point, in one of two steppings.
//! [`System::run`] steps it event-driven: fast-forwarding both clock
//! domains over provably inert stretches (empty controller queues,
//! memory-blocked or bubble-sprinting cores), skipping one core's ticks
//! while it waits for a fill or a timed event, allocation-free on its
//! per-cycle paths. [`System::run_reference`] steps it strictly cycle by
//! cycle, with no controller wake, no core sprints and no jumps; the two
//! are kept bit-identical in their [`SimReport`] output (see
//! `tests/loop_equivalence.rs`), so the fast path can never silently
//! change figure results.

use chronus_core::MechanismKind;
use chronus_cpu::{CoreState, CoreWake, SharedLlc, SimpleO3Core, Trace};
use chronus_ctrl::{Completion, CtrlConfig, MemRequest, MemoryController, ReqKind};
use chronus_dram::{DisturbOracle, DramConfig, DramDevice, Geometry, ThresholdModel};
use chronus_energy::{EnergyParams, MechanismEnergy};

use crate::config::SimConfig;
use crate::report::SimReport;
use crate::slab::InflightSlab;

/// CPU cycles per `CLOCK_MEM` memory cycles: 4.2 GHz / 1.6 GHz = 21 / 8.
const CLOCK_CPU: u64 = 21;
const CLOCK_MEM: u64 = 8;

/// Request id for traffic that never produces a routed completion
/// (writebacks); demand reads use dense slab indices instead.
const UNROUTED_ID: u64 = u64::MAX;

/// What [`System::run`]'s event-driven loop did to produce a report: host
/// bookkeeping carried *beside* the [`SimReport`], never inside it, so it
/// stays out of the cell hash and of every byte-identity net.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Loop iterations executed (memory cycles visited, not jumped over).
    pub iterations: u64,
    /// Fast-forward jumps taken.
    pub jumps: u64,
    /// Controller ticks executed.
    pub ctrl_ticks: u64,
    /// Core ticks executed, summed over cores.
    pub core_ticks: u64,
}

/// A fully wired simulation instance.
pub struct System {
    cfg: SimConfig,
    dram: DramDevice,
    ctrl: MemoryController,
    llc: SharedLlc,
    mechanism_label: String,
    secure: bool,
}

impl System {
    /// Builds the platform for `cfg` (mechanism thresholds are derived
    /// from the analytical security models).
    pub fn build(cfg: &SimConfig) -> Self {
        let setup = cfg.mechanism.build_with_threshold(
            cfg.nrh,
            cfg.geometry,
            cfg.seed,
            cfg.threshold_override,
        );
        let timing_mode = cfg.timing_override.unwrap_or(setup.timing_mode);
        let mut dram_cfg = DramConfig::with_mode(timing_mode);
        dram_cfg.geometry = cfg.geometry;
        dram_cfg.strict = cfg.strict_timing;
        if cfg.oracle {
            dram_cfg.oracle_model = Some(cfg.oracle_model());
        }
        let dram = DramDevice::with_mitigation(dram_cfg, setup.dram_mitigation);
        let ctrl_cfg = CtrlConfig {
            mapping: cfg
                .mapping
                .unwrap_or_else(|| cfg.mechanism.preferred_mapping()),
            rfm_policy: setup.rfm_policy,
            raa_threshold: setup.raa_threshold,
            ..CtrlConfig::default()
        };
        let mut ctrl = MemoryController::with_mitigation(ctrl_cfg, &dram, setup.ctrl_mitigation);
        if cfg.obs {
            ctrl.enable_obs();
        }
        let llc = SharedLlc::new(cfg.llc);
        Self {
            cfg: cfg.clone(),
            dram,
            ctrl,
            llc,
            mechanism_label: cfg.mechanism.label().to_string(),
            secure: setup.secure,
        }
    }

    fn build_cores(&self, traces: Vec<Trace>) -> Vec<SimpleO3Core> {
        assert_eq!(traces.len(), self.cfg.num_cores, "need one trace per core");
        let llc_hit_latency = self.cfg.llc.hit_latency;
        traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                SimpleO3Core::new(
                    i as u8,
                    self.cfg.core,
                    t,
                    self.cfg.instructions_per_core,
                    llc_hit_latency,
                )
            })
            .collect()
    }

    /// Runs `traces` (one per core) until every core retires its target,
    /// then returns the report. Event-driven: inert cycles are jumped in
    /// both clock domains.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces does not match `num_cores`.
    pub fn run(self, traces: Vec<Trace>) -> SimReport {
        self.run_with_stats(traces).0
    }

    /// [`System::run`], also returning the loop's [`LoopStats`].
    ///
    /// # Panics
    ///
    /// Panics if the number of traces does not match `num_cores`.
    pub fn run_with_stats(mut self, traces: Vec<Trace>) -> (SimReport, LoopStats) {
        let mut cores = self.build_cores(traces);
        let mut stats = LoopStats::default();
        let (mem_cycle, cpu_cycle, truncated) = self.run_loop::<false>(&mut cores, &mut stats);
        (self.finish(cores, mem_cycle, cpu_cycle, truncated), stats)
    }

    /// The one loop body, behind [`System::run`], [`System::run_batch`]
    /// and [`System::run_reference`]: drives `cores` to completion, counting
    /// what it does into `stats`, and returns `(mem_cycle, cpu_cycle,
    /// truncated)` for [`System::finish`]. The event-driven stepping also
    /// skips the ticks of a core that cannot change: after a tick that
    /// retired and dispatched nothing it asks the core's
    /// [`SimpleO3Core::next_event_cycle`] and sleeps it until `At(c)`, or
    /// until the next delivered fill for `Blocked`; any delivered fill
    /// wakes every core (see [`CoreWake`]). `EVERY_CYCLE` picks the
    /// reference stepping: the controller ticks every memory cycle and is
    /// never asked for `next_wake` (so its cached verdict cannot fire),
    /// every core ticks every CPU cycle, core sprints are off and nothing
    /// is jumped — it re-derives all that the event-driven stepping skips.
    fn run_loop<const EVERY_CYCLE: bool>(
        &mut self,
        cores: &mut [SimpleO3Core],
        stats: &mut LoopStats,
    ) -> (u64, u64, bool) {
        for core in cores.iter_mut() {
            core.set_sprint_enabled(!EVERY_CYCLE);
        }
        let mapping = self.ctrl.config().mapping;
        let geo = *self.dram.geometry();

        let mut mem_cycle: u64 = 0;
        let mut cpu_cycle: u64 = 0;
        let mut cpu_credit: u64 = 0;
        let mut inflight = InflightSlab::new();
        let mut completions: Vec<Completion> = Vec::with_capacity(64);
        let mut waiters: Vec<u64> = Vec::with_capacity(16);
        let mut truncated = false;
        // First cycle at which the controller could act again; recomputed
        // whenever new work reaches it.
        let mut ctrl_wake: u64 = 0;
        // Per core, the first CPU cycle whose tick can change it: ticks
        // before it are skipped (never set in the reference stepping).
        let mut asleep_until: Vec<u64> = vec![0; cores.len()];

        loop {
            stats.iterations += 1;
            // --- memory domain ---
            let mut pushed = false;
            if EVERY_CYCLE || mem_cycle >= ctrl_wake {
                stats.ctrl_ticks += 1;
                self.ctrl.tick(&mut self.dram, mem_cycle);
                if !EVERY_CYCLE {
                    ctrl_wake = self.ctrl.next_wake(&self.dram, mem_cycle);
                }
            }
            completions.clear();
            self.ctrl.drain_completions(mem_cycle, &mut completions);
            if !completions.is_empty() {
                // A fill is the one event that frees an MSHR or readies a
                // slot, for any core: it voids every sleep.
                asleep_until.fill(0);
                pushed |= deliver_fills(
                    &mut self.ctrl,
                    &mut self.llc,
                    cores,
                    &mut inflight,
                    &completions,
                    &mut waiters,
                    mapping,
                    &geo,
                    mem_cycle,
                    cpu_cycle,
                );
            }
            if self.llc.peek_request().is_some() {
                pushed |= forward_llc_requests(
                    &mut self.ctrl,
                    &mut self.llc,
                    &mut inflight,
                    mapping,
                    &geo,
                    mem_cycle,
                );
            }
            if pushed && !EVERY_CYCLE {
                // Arrivals can move the wake earlier; folding them in here
                // (rather than re-arming to `mem_cycle + 1`) lets the next
                // tick reuse the fused-scan verdict and keeps jumps long
                // when the arrival itself cannot issue for a while.
                ctrl_wake = self.ctrl.next_wake(&self.dram, mem_cycle);
            }

            // --- CPU domain (21 CPU cycles per 8 memory cycles) ---
            cpu_credit += CLOCK_CPU;
            while cpu_credit >= CLOCK_MEM {
                cpu_credit -= CLOCK_MEM;
                for (core, until) in cores.iter_mut().zip(asleep_until.iter_mut()) {
                    if !EVERY_CYCLE && cpu_cycle < *until {
                        continue;
                    }
                    stats.core_ticks += 1;
                    if !core.tick(cpu_cycle, &mut self.llc) && !EVERY_CYCLE {
                        *until = horizon(core.next_event_cycle(cpu_cycle));
                    }
                }
                cpu_cycle += 1;
            }

            mem_cycle += 1;
            if cores.iter().all(|c| c.state() == CoreState::Done) {
                break;
            }
            if self.cfg.max_mem_cycles > 0 && mem_cycle >= self.cfg.max_mem_cycles {
                truncated = true;
                break;
            }
            if EVERY_CYCLE {
                continue;
            }

            // --- event-driven fast-forward ---
            // Jump over iterations in which neither domain can change
            // state: the controller sleeps until `ctrl_wake`, no data is
            // due before the earliest pending completion, the LLC outbox
            // is empty or its head is unacceptable, and every core is
            // fill-gated or sleeping until a known CPU cycle.
            if let Some(req) = self.llc.peek_request() {
                let kind = if req.write {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                if self.ctrl.can_accept(kind) {
                    // The head would be forwarded next iteration.
                    continue;
                }
                // A stalled head is inert: queue space only frees when the
                // controller issues (at `ctrl_wake`), and both bounds below
                // already include it, so the jump cannot delay forwarding.
            }
            let last_cpu = cpu_cycle - 1;
            let mut target = ctrl_wake;
            if let Some(at) = self.ctrl.next_completion_at() {
                target = target.min(at);
            }
            if target <= mem_cycle {
                continue;
            }
            for (core, until) in cores.iter().zip(asleep_until.iter_mut()) {
                if *until <= cpu_cycle {
                    // Awake: ask, and keep the answer as its sleep.
                    *until = horizon(core.next_event_cycle(last_cpu));
                }
                if *until != u64::MAX {
                    // Iteration executing CPU cycle `until`: the credit
                    // accumulator runs cycle c once total CPU cycles exceed
                    // c, i.e. at iteration ceil(8(c+1)/21) - 1 (0 for a
                    // busy core, which rules the jump out).
                    let m = (CLOCK_MEM * (*until + 1)).div_ceil(CLOCK_CPU) - 1;
                    target = target.min(m);
                }
            }
            if target <= mem_cycle {
                continue;
            }
            if self.cfg.max_mem_cycles > 0 {
                target = target.min(self.cfg.max_mem_cycles);
                if target <= mem_cycle {
                    continue;
                }
            }
            // Advance both clock domains over the inert stretch exactly as
            // the per-cycle loop would have.
            stats.jumps += 1;
            let skipped = target - mem_cycle;
            mem_cycle = target;
            cpu_credit += CLOCK_CPU * skipped;
            cpu_cycle += cpu_credit / CLOCK_MEM;
            cpu_credit %= CLOCK_MEM;
            if self.cfg.max_mem_cycles > 0 && mem_cycle >= self.cfg.max_mem_cycles {
                truncated = true;
                break;
            }
        }

        (mem_cycle, cpu_cycle, truncated)
    }

    /// [`System::run`]'s loop in its strictly cycle-by-cycle stepping: the
    /// equivalence baseline for [`System::run`] (and for before/after
    /// benchmarking). Both must produce bit-identical [`SimReport`]s.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces does not match `num_cores`.
    pub fn run_reference(mut self, traces: Vec<Trace>) -> SimReport {
        let mut cores = self.build_cores(traces);
        let (mem_cycle, cpu_cycle, truncated) =
            self.run_loop::<true>(&mut cores, &mut LoopStats::default());
        self.finish(cores, mem_cycle, cpu_cycle, truncated)
    }

    /// Runs a batch of config variants over one shared workload, in
    /// lockstep where possible, and returns one [`SimReport`] per variant,
    /// each bit-identical to what its solo [`System::run`] would produce.
    ///
    /// The engine partitions the variants into *timing cohorts* (equal
    /// [`SimConfig::cohort_key`]s). The disturbance oracle is strictly
    /// observational (no hook affects a timing frontier), so variants that
    /// differ only in oracle-visible parameters — the VRD distribution
    /// (`vrd`), the seed of a seed-insensitive mechanism, or `nrh` under the
    /// unmitigated baseline — share one simulation: the cohort runs once
    /// with a multi-lane [`DisturbOracle`] (one threshold-model lane per
    /// member) and each member's report is the cohort report with its own
    /// `nrh` and lane flip count patched in. Every other field is provably
    /// cohort-invariant: the mechanism label, timing, and `secure` verdict
    /// are functions of the cohort key alone.
    ///
    /// A variant whose parameters *do* perturb timing (different
    /// mechanism, threshold, mapping, LLC, …) forks onto its own cohort —
    /// its own controller clock — but still shares the decoded traces,
    /// which the caller generates once.
    ///
    /// # Panics
    ///
    /// Panics if `cfgs` is empty or any variant's `num_cores` does not
    /// match the trace count.
    pub fn run_batch(cfgs: &[SimConfig], traces: &[Trace]) -> Vec<SimReport> {
        assert!(!cfgs.is_empty(), "batch needs at least one variant");
        for cfg in cfgs {
            assert_eq!(
                cfg.num_cores,
                traces.len(),
                "every batch member must run the shared workload"
            );
        }
        let mut cohorts: Vec<(SimConfig, Vec<usize>)> = Vec::new();
        for (i, cfg) in cfgs.iter().enumerate() {
            let key = cfg.cohort_key();
            match cohorts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => cohorts.push((key, vec![i])),
            }
        }
        let mut out: Vec<Option<SimReport>> = vec![None; cfgs.len()];
        for (_, members) in &cohorts {
            let rep_cfg = &cfgs[members[0]];
            let mut sys = System::build(rep_cfg);
            if rep_cfg.oracle {
                // One lane per member, in member order: the counter state
                // is shared, each lane judges its own threshold model.
                let models: Vec<ThresholdModel> =
                    members.iter().map(|&i| cfgs[i].oracle_model()).collect();
                sys.dram.set_oracle(Some(DisturbOracle::with_lanes(
                    rep_cfg.geometry,
                    sys.dram.config().blast_radius,
                    models,
                )));
            }
            let mut cores = sys.build_cores(traces.to_vec());
            let (mem_cycle, cpu_cycle, truncated) =
                sys.run_loop::<false>(&mut cores, &mut LoopStats::default());
            let lane_flips: Option<Vec<u64>> = sys
                .dram
                .oracle()
                .map(|o| (0..o.lane_count()).map(|l| o.flips_of(l)).collect());
            let template = sys.finish(cores, mem_cycle, cpu_cycle, truncated);
            for (lane, &i) in members.iter().enumerate() {
                let mut report = template.clone();
                report.nrh = cfgs[i].nrh;
                if let Some(flips) = &lane_flips {
                    report.oracle_flips = Some(flips[lane]);
                }
                out[i] = Some(report);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every member belongs to a cohort"))
            .collect()
    }

    fn finish(
        mut self,
        mut cores: Vec<SimpleO3Core>,
        mem_cycle: u64,
        cpu_cycle: u64,
        truncated: bool,
    ) -> SimReport {
        for core in &mut cores {
            // Remove sprint credit for cycles the run never reached.
            core.settle_retired(cpu_cycle.saturating_sub(1));
        }
        let obs = self.ctrl.take_obs_report(mem_cycle);
        self.dram.finalize(mem_cycle);
        let mech_energy = match self.cfg.mechanism {
            MechanismKind::Prac1
            | MechanismKind::Prac2
            | MechanismKind::Prac4
            | MechanismKind::PracPrfm => MechanismEnergy::prac(),
            MechanismKind::Chronus | MechanismKind::ChronusPb => MechanismEnergy::chronus(),
            _ => MechanismEnergy::default(),
        };
        let energy = chronus_energy::compute(
            self.dram.stats(),
            &self.dram.mitigation_stats(),
            self.dram.timings(),
            &EnergyParams::default(),
            &mech_energy,
            2 * self.dram.config().blast_radius,
        );
        SimReport {
            mechanism: self.mechanism_label,
            nrh: self.cfg.nrh,
            secure: self.secure,
            mem_cycles: mem_cycle,
            cpu_cycles: cpu_cycle,
            ipc: cores.iter().map(|c| c.ipc(cpu_cycle)).collect(),
            retired: cores.iter().map(|c| c.retired()).collect(),
            dram: *self.dram.stats(),
            ctrl: *self.ctrl.stats(),
            dram_mitigation: self.dram.mitigation_stats(),
            ctrl_mitigation: self.ctrl.mitigation_stats(),
            energy,
            oracle_max_acts: self.dram.oracle().map(|o| o.max_aggressor_acts()),
            oracle_flips: self.dram.oracle().map(|o| o.flips()),
            truncated,
            obs,
        }
    }
}

/// The first CPU cycle whose tick can change a core that reported `wake`
/// after its last tick: 0 for a busy core, `u64::MAX` for one that waits
/// for a fill.
fn horizon(wake: CoreWake) -> u64 {
    match wake {
        CoreWake::Busy => 0,
        CoreWake::At(c) => c,
        CoreWake::Blocked => u64::MAX,
    }
}

/// Routes drained completions back through the LLC: wakes waiting cores
/// and queues dirty-victim writebacks. Returns `true` if a request was
/// pushed to the controller.
#[allow(clippy::too_many_arguments)]
fn deliver_fills(
    ctrl: &mut MemoryController,
    llc: &mut SharedLlc,
    cores: &mut [SimpleO3Core],
    inflight: &mut InflightSlab,
    completions: &[Completion],
    waiters: &mut Vec<u64>,
    mapping: chronus_ctrl::AddressMapping,
    geo: &Geometry,
    mem_cycle: u64,
    cpu_cycle: u64,
) -> bool {
    let mut pushed = false;
    for c in completions {
        let Some(read) = inflight.take(c.id) else {
            continue;
        };
        let writeback = llc.on_fill(read.line_addr, read.uncached, waiters);
        for token in waiters.drain(..) {
            let core = SimpleO3Core::token_core(token) as usize;
            cores[core].on_mem_complete(token, cpu_cycle);
        }
        if let Some(victim) = writeback {
            let addr = mapping.decode(victim, geo);
            // Writebacks are controller-internal; when the write queue is
            // full the modelled writeback is dropped (it only under-counts
            // write traffic in an already-saturated state).
            pushed |= ctrl.push_request(MemRequest {
                id: UNROUTED_ID,
                kind: ReqKind::Write,
                addr,
                core: chronus_ctrl::request::INTERNAL_CORE,
                arrived: mem_cycle,
            });
        }
    }
    pushed
}

/// Forwards LLC misses/writebacks to the controller while it accepts
/// them. Returns `true` if any request was pushed.
fn forward_llc_requests(
    ctrl: &mut MemoryController,
    llc: &mut SharedLlc,
    inflight: &mut InflightSlab,
    mapping: chronus_ctrl::AddressMapping,
    geo: &Geometry,
    mem_cycle: u64,
) -> bool {
    let mut pushed = false;
    while let Some(req) = llc.peek_request() {
        let kind = if req.write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        if !ctrl.can_accept(kind) {
            break;
        }
        let req = *req;
        llc.pop_request();
        let id = if req.write {
            UNROUTED_ID
        } else {
            inflight.insert(req.line_addr, req.uncached)
        };
        let addr = mapping.decode(req.line_addr, geo);
        let accepted = ctrl.push_request(MemRequest {
            id,
            kind,
            addr,
            core: req.core,
            arrived: mem_cycle,
        });
        debug_assert!(accepted);
        pushed = true;
    }
    pushed
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_workloads::synthetic_app;

    fn quick_cfg(mech: MechanismKind, nrh: u32) -> SimConfig {
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 20_000;
        cfg.mechanism = mech;
        cfg.nrh = nrh;
        cfg
    }

    fn trace_for(name: &str, slot: u64) -> Trace {
        synthetic_app(name, slot).unwrap().generate(25_000, 3)
    }

    #[test]
    fn baseline_single_core_completes() {
        let cfg = quick_cfg(MechanismKind::None, 1024);
        let r = System::build(&cfg).run(vec![trace_for("429.mcf", 0)]);
        assert!(!r.truncated);
        assert!(r.retired[0] >= 20_000);
        assert!(r.ipc[0] > 0.0);
        assert!(r.dram.acts > 0);
        assert!(r.dram.refs > 0, "periodic refresh must run");
    }

    #[test]
    fn cpu_clock_leads_memory_clock() {
        let cfg = quick_cfg(MechanismKind::None, 1024);
        let r = System::build(&cfg).run(vec![trace_for("470.lbm", 0)]);
        let ratio = r.cpu_cycles as f64 / r.mem_cycles as f64;
        assert!((ratio - 2.625).abs() < 0.01, "clock ratio {ratio}");
    }

    #[test]
    fn four_core_mix_completes() {
        let mut cfg = SimConfig::four_core();
        cfg.instructions_per_core = 10_000;
        let traces = vec![
            trace_for("429.mcf", 0),
            trace_for("470.lbm", 1),
            trace_for("tpch2", 2),
            trace_for("511.povray", 3),
        ];
        let r = System::build(&cfg).run(traces);
        assert_eq!(r.ipc.len(), 4);
        assert!(r.total_instructions() >= 40_000);
    }

    #[test]
    fn prac_timing_slows_memory_bound_app() {
        let base =
            System::build(&quick_cfg(MechanismKind::None, 1024)).run(vec![trace_for("429.mcf", 0)]);
        let prac = System::build(&quick_cfg(MechanismKind::Prac4, 1024))
            .run(vec![trace_for("429.mcf", 0)]);
        assert!(
            prac.ipc[0] < base.ipc[0],
            "PRAC {} !< baseline {}",
            prac.ipc[0],
            base.ipc[0]
        );
    }

    #[test]
    fn chronus_is_near_baseline_at_high_nrh() {
        let base =
            System::build(&quick_cfg(MechanismKind::None, 1024)).run(vec![trace_for("429.mcf", 0)]);
        let chronus = System::build(&quick_cfg(MechanismKind::Chronus, 1024))
            .run(vec![trace_for("429.mcf", 0)]);
        let slowdown = 1.0 - chronus.ipc[0] / base.ipc[0];
        assert!(slowdown < 0.02, "Chronus slowdown {slowdown}");
    }

    #[test]
    fn max_cycles_truncates() {
        let mut cfg = quick_cfg(MechanismKind::None, 1024);
        cfg.max_mem_cycles = 500;
        let r = System::build(&cfg).run(vec![trace_for("429.mcf", 0)]);
        assert!(r.truncated);
    }

    #[test]
    fn max_cycles_truncates_identically_in_both_loops() {
        // The fast loop may jump straight to the cycle limit; the report
        // must still match the per-cycle loop bit for bit.
        let mut cfg = quick_cfg(MechanismKind::None, 1024);
        cfg.max_mem_cycles = 1_000;
        let fast = System::build(&cfg).run(vec![trace_for("511.povray", 0)]);
        let naive = System::build(&cfg).run_reference(vec![trace_for("511.povray", 0)]);
        assert!(fast.truncated && naive.truncated);
        assert_eq!(fast, naive);
    }

    #[test]
    fn reference_stepping_borrows_nothing_from_the_fast_path() {
        // One stepping on one cell, stopped before `finish` so the
        // controller's wake counters and the cores can still be read.
        type Stepped = (System, Vec<SimpleO3Core>, [u64; 2], LoopStats);
        fn stepped<const EVERY_CYCLE: bool>(cfg: &SimConfig, app: &str) -> Stepped {
            let mut sys = System::build(cfg);
            let mut cores = sys.build_cores(vec![trace_for(app, 0)]);
            let mut stats = LoopStats::default();
            let (mem, cpu, _) = sys.run_loop::<EVERY_CYCLE>(&mut cores, &mut stats);
            (sys, cores, [mem, cpu], stats)
        }
        let mcf = quick_cfg(MechanismKind::Prac4, 1024);
        let (sys, _, [mem, cpu], stats) = stepped::<true>(&mcf, "429.mcf");
        assert_eq!((stats.iterations, stats.jumps), (mem, 0));
        assert_eq!(stats.core_ticks, cpu * sys.cfg.num_cores as u64);
        let wake = (sys.ctrl.wake_recomputes(), sys.ctrl.wake_shortcuts());
        assert_eq!(wake, (0, 0), "the reference consulted the wake");
        let (sys, _, _, stats) = stepped::<false>(&mcf, "429.mcf");
        let shortcuts = sys.ctrl.wake_shortcuts();
        assert!(stats.jumps > 0 && shortcuts > 0, "{stats:?}");
        // Sprints show only as retirement credit for cycles not yet run:
        // cut short inside 511.povray's bubbles, the fast stepping holds
        // some and the reference must hold none.
        let mut povray = quick_cfg(MechanismKind::None, 1024);
        povray.max_mem_cycles = 20_000;
        let credit = |(_, mut cores, [_, cpu], _): Stepped| {
            let retired = cores[0].retired();
            cores[0].settle_retired(cpu - 1);
            retired - cores[0].retired()
        };
        let fast = credit(stepped::<false>(&povray, "511.povray"));
        let reference = credit(stepped::<true>(&povray, "511.povray"));
        assert!(fast > 0 && reference == 0, "credit {fast} / {reference}");
    }

    #[test]
    fn obs_report_present_iff_enabled() {
        let cfg = quick_cfg(MechanismKind::None, 1024);
        let off = System::build(&cfg).run(vec![trace_for("429.mcf", 0)]);
        assert!(off.obs.is_none(), "obs is opt-in");
        let mut cfg_on = cfg.clone();
        cfg_on.obs = true;
        let on = System::build(&cfg_on).run(vec![trace_for("429.mcf", 0)]);
        let obs = on.obs.as_ref().expect("obs enabled");
        // The histogram is the distribution behind the existing scalars.
        assert_eq!(obs.read_latency.total, on.ctrl.reads_served);
        assert_eq!(obs.read_latency.sum, on.ctrl.read_latency_sum);
        assert!(obs.latency_entropy_bits > 0.0, "mcf latencies vary");
        // Periodic refresh under demand traffic must be visible as pauses.
        assert!(obs.pauses.refresh_intervals > 0);
        // Observational only: everything else bit-identical to the off run.
        let mut stripped = on.clone();
        stripped.obs = None;
        assert_eq!(stripped, off, "obs flag must not perturb the simulation");
    }

    #[test]
    fn attack_traces_are_not_polled() {
        // The §11 attacker's core is fill-gated almost always (its 64
        // uncached loads own the MSHR file), so the loop should visit
        // little more than the cycles where the controller acts or data
        // returns. Measured 1.30 iterations per such event (84 171 for
        // 411 028 memory cycles); when a rejected core re-polled the LLC
        // every cycle it was 6.33 (409 769: every cycle visited). And the
        // core, asleep until a fill, should tick little more than once a
        // fill: measured 0.64 core ticks per event (41 678 for 64 754);
        // when it ticked in every visited iteration, 2–3 of them each, it
        // was 3.4 (220 948).
        let mut cfg = quick_cfg(MechanismKind::Prac4, 32);
        cfg.mapping = Some(chronus_ctrl::AddressMapping::Mop);
        cfg.oracle = true;
        let trace = chronus_workloads::perf_attack_trace(
            chronus_ctrl::AddressMapping::Mop,
            &cfg.geometry,
            4,
            8,
            20_000,
        );
        let (r, stats) = System::build(&cfg).run_with_stats(vec![trace]);
        assert!(!r.truncated);
        let events = stats.ctrl_ticks + r.ctrl.reads_served;
        assert!(
            stats.iterations <= 2 * events,
            "{} iterations for {events} controller ticks + reads served: \
             something polls again ({stats:?})",
            stats.iterations
        );
        assert!(
            stats.jumps > 0 && stats.core_ticks <= events,
            "{} core ticks for {events} controller ticks + reads served: \
             a fill-gated core is ticked ({stats:?})",
            stats.core_ticks
        );
    }

    #[test]
    fn idle_cores_are_not_polled() {
        // 511.povray: every memory access follows ≈ 10 k bubbles, so a
        // miss lands behind a window of ready ones. The bubble sprint drains that prefix in
        // closed form, so the loop visits little beyond the miss's own
        // round trip. Measured 6.0 iterations and 5.1 core ticks per read
        // served (1 253 and 1 055 for 208 reads); while the core ticked the
        // window dry cycle by cycle it was 12.7 and 33.3, and while it
        // ticked in every visited iteration, 6.0 and 15.8.
        let mut cfg = quick_cfg(MechanismKind::None, 1024);
        cfg.instructions_per_core = 2_000_000;
        let trace = synthetic_app("511.povray", 0)
            .unwrap()
            .generate(2_400_000, 3);
        let (r, stats) = System::build(&cfg).run_with_stats(vec![trace]);
        assert!(!r.truncated);
        let reads = r.ctrl.reads_served;
        assert!(reads > 0, "povray must miss now and then");
        assert!(
            stats.iterations <= 8 * reads && stats.core_ticks <= 6 * reads,
            "{reads} reads served: the core is polled through its drain ({stats:?})"
        );
    }

    #[test]
    fn sleeping_cores_wake_on_any_fill() {
        // A §11 attacker and three benign cores over one or two MSHRs: a
        // benign core the LLC rejects sleeps until a fill, and the fill
        // that frees the entry it needs is usually another core's. Waking
        // only the cores whose tokens completed leaves such a core asleep,
        // and the fast report leaves the reference's.
        let mapping = chronus_ctrl::AddressMapping::Mop;
        let mut cfg = SimConfig::four_core();
        cfg.instructions_per_core = 2_000;
        cfg.mechanism = MechanismKind::Prac4;
        cfg.nrh = 64;
        cfg.mapping = Some(mapping);
        cfg.max_mem_cycles = 4_000_000;
        let traces = vec![
            chronus_workloads::perf_attack_trace(mapping, &cfg.geometry, 4, 8, 2_400),
            trace_for("429.mcf", 1),
            trace_for("470.lbm", 2),
            trace_for("429.mcf", 3),
        ];
        for mshrs in [1, 2] {
            cfg.llc.mshrs = mshrs;
            let (fast, stats) = System::build(&cfg).run_with_stats(traces.clone());
            let reference = System::build(&cfg).run_reference(traces.clone());
            assert!(
                !reference.truncated,
                "mshrs {mshrs}: the reference truncated"
            );
            assert_eq!(fast, reference, "mshrs {mshrs}");
            // Every core ticking in every visited iteration: 21/8 each.
            let every_iteration = stats.iterations * CLOCK_CPU * cfg.num_cores as u64;
            assert!(
                stats.core_ticks * CLOCK_MEM < every_iteration,
                "mshrs {mshrs}: no core slept ({stats:?})"
            );
        }
    }

    #[test]
    fn arrivals_fold_instead_of_rescanning() {
        // A request arrival can only add a candidate, so the controller
        // folds it into the memoized wake instead of rescanning its queues.
        // Measured reads served / folds / recomputes / controller ticks:
        // 429.mcf 1 130 / 845 / 3 133 / 2 857 (0.75 folds a read), 470.lbm
        // 684 / 666 / 1 106 / 1 082 (0.97). When every arrival rescanned,
        // recomputes were 3 978 and 1 772: one per read above the ticks.
        for app in ["429.mcf", "470.lbm"] {
            let mut sys = System::build(&quick_cfg(MechanismKind::None, 1024));
            let mut cores = sys.build_cores(vec![trace_for(app, 0)]);
            let mut stats = LoopStats::default();
            sys.run_loop::<false>(&mut cores, &mut stats);
            let reads = sys.ctrl.stats().reads_served;
            let (folds, recomputes) = (sys.ctrl.wake_folds(), sys.ctrl.wake_recomputes());
            assert!(
                folds >= reads / 2 && recomputes <= stats.ctrl_ticks + reads / 2,
                "{app}: {folds} folds, {recomputes} recomputes for {reads} reads served \
                 and {} controller ticks",
                stats.ctrl_ticks
            );
        }
    }
}
