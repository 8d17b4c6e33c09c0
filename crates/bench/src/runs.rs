//! Experiment orchestration: alone/baseline/mechanism runs over mixes,
//! expressed as declarative `chronus-grid` specs, and the execution every
//! figure binary shares ([`figure_main`]).
//!
//! Every simulation a figure needs — including the per-mix alone-IPC and
//! no-mitigation baseline context runs — is one grid cell, so repeated
//! invocations complete from the content-addressed result store and
//! `--shard i/N` splits any figure across processes or machines.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use chronus_core::MechanismKind;
use chronus_grid::{
    run_grid, AppTrace, CellSpec, ExecOpts, FaultPlan, GridOutcome, GridSpec, ResultStore,
    WorkloadSpec, DEGRADED_EXIT,
};
use chronus_sim::{SimConfig, SimReport};
use chronus_workloads::{four_core_mixes, AppProfile, Mix};
use serde::Serialize;

use crate::opts::HarnessOpts;
use crate::tables::write_text;

/// One evaluated (workload, mechanism, N_RH) point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Workload (mix or application) name.
    pub workload: String,
    /// Intensity label (mix class or app class letter).
    pub class: String,
    /// Mechanism label.
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Weighted speedup normalised to the unmitigated baseline (single
    /// core: plain speedup).
    pub ws_norm: f64,
    /// DRAM energy normalised to the baseline.
    pub energy_norm: f64,
    /// Whether the configuration is wave-attack secure.
    pub secure: bool,
    /// Back-offs honoured by the controller.
    pub back_offs: u64,
    /// Preventive victim-row refreshes (VRRs + RFM victims + borrowed).
    pub preventive_rows: u64,
}

/// The harness's part of every cell config: `base` retiring
/// `--instructions` per core at `--seed`, under a budget of
/// `cycles_per_instr` memory cycles per instruction (never below 2^22),
/// with the `--obs` probe attached when asked for.
pub(crate) fn harness_config(
    base: SimConfig,
    opts: &HarnessOpts,
    cycles_per_instr: u64,
) -> SimConfig {
    SimConfig {
        instructions_per_core: opts.instructions,
        seed: opts.seed,
        max_mem_cycles: opts
            .instructions
            .saturating_mul(cycles_per_instr)
            .max(1 << 22),
        obs: opts.obs,
        ..base
    }
}

/// Instructions of trace each core replays: 10% beyond its budget.
pub(crate) fn trace_instructions(opts: &HarnessOpts) -> u64 {
    opts.instructions + opts.instructions / 10
}

/// The multi-programmed configuration every mix cell uses (the core count
/// follows the cell's workload).
pub(crate) fn mix_config(mech: MechanismKind, nrh: u32, opts: &HarnessOpts) -> SimConfig {
    SimConfig {
        mechanism: mech,
        nrh,
        ..harness_config(SimConfig::four_core(), opts, 4000)
    }
}

/// The single-core alone-run configuration behind `IPC_alone`: mechanism
/// off, and the config's own seed rather than `--seed`.
fn alone_config(opts: &HarnessOpts) -> SimConfig {
    let base = SimConfig::single_core();
    SimConfig {
        seed: base.seed,
        ..harness_config(base, opts, 4000)
    }
}

/// The per-core trace specs of a mix (slot i, seed `opts.seed ^ (i << 8)`).
/// Shared with `grids.rs` so every mix-shaped grid produces hash-identical
/// cells (the basis of cross-figure cache sharing).
pub(crate) fn mix_workload(apps: &[AppProfile], opts: &HarnessOpts) -> WorkloadSpec {
    WorkloadSpec::Apps {
        apps: apps
            .iter()
            .enumerate()
            .map(|(i, p)| AppTrace::new(p.name, i as u64, opts.seed ^ (i as u64) << 8))
            .collect(),
        trace_instructions: trace_instructions(opts),
    }
}

/// Set when any executed grid ended degraded; read by [`exit_code`] so the
/// process reports [`DEGRADED_EXIT`] no matter how many grids a binary ran
/// in between.
static DEGRADED: AtomicBool = AtomicBool::new(false);

/// The process's fault plan: `CHRONUS_FAULTS`, parsed on the first call.
/// A malformed spec is a usage error (exit 2) naming the running binary —
/// silently running *without* the faults the user asked for would
/// invalidate whatever they were testing.
pub fn env_faults() -> Option<FaultPlan> {
    static FAULTS: OnceLock<Option<FaultPlan>> = OnceLock::new();
    FAULTS
        .get_or_init(|| match FaultPlan::from_env() {
            Ok(plan) => plan.filter(FaultPlan::is_active),
            Err(msg) => {
                let arg0 = std::env::args_os().next().unwrap_or_default();
                let tool = Path::new(&arg0)
                    .file_stem()
                    .map_or("chronus-bench".into(), |s| s.to_string_lossy());
                eprintln!("{tool}: ${}: {msg}", chronus_grid::FAULTS_ENV);
                std::process::exit(2);
            }
        })
        .clone()
}

/// Opens the result store the harness options point at, wiring any
/// `CHRONUS_FAULTS` injection into its I/O path.
pub fn open_store(opts: &HarnessOpts) -> ResultStore {
    let store = match &opts.grid_dir {
        Some(dir) => ResultStore::open(dir),
        None => ResultStore::open_default(),
    };
    store
        .unwrap_or_else(|e| panic!("opening grid result store: {e}"))
        .with_faults(env_faults())
}

/// Grid execution options derived from the harness options (including the
/// `CHRONUS_FAULTS` environment).
pub fn exec_opts(opts: &HarnessOpts) -> ExecOpts {
    ExecOpts {
        threads: opts.threads,
        shard: opts.shard,
        progress: !opts.quiet,
        faults: env_faults(),
    }
}

/// Executes a spec with the harness options and prints the cache/shard
/// accounting line on stderr. `--no-cache` runs without a store — no
/// directory is created or read.
///
/// Cells that failed (a panic, or a run past its cycle budget) never abort
/// the binary: they are reported on stderr, recorded in the store's
/// failure manifest, and flagged so [`exit_code`] returns
/// [`DEGRADED_EXIT`] — the figure still renders from every healthy cell.
pub fn execute(spec: &GridSpec, opts: &HarnessOpts) -> GridOutcome {
    let store = (!opts.no_cache).then(|| open_store(opts));
    let outcome = run_grid(spec, store.as_ref(), &exec_opts(opts));
    if !opts.quiet {
        let where_ = match &store {
            Some(s) => format!(" (store: {})", s.dir().display()),
            None => String::new(),
        };
        eprintln!(
            "[{}] {} in {:.1}s{where_}",
            spec.name,
            outcome.stats.summary(),
            outcome.wall_seconds,
        );
    }
    if outcome.is_degraded() {
        DEGRADED.store(true, Ordering::Relaxed);
        eprintln!(
            "[{}] DEGRADED: {} cell(s) failed:",
            spec.name,
            outcome.failures.len()
        );
        for f in &outcome.failures {
            eprintln!(
                "[{}]   #{} '{}' ({:?}): {}",
                spec.name, f.index, f.label, f.kind, f.error
            );
        }
        eprintln!(
            "[{}] rerun the same command to retry the failed cells \
             (completed cells replay from the store)",
            spec.name
        );
    } else if !outcome.is_complete() && opts.shard.is_full() {
        // With a full shard and zero recorded failures every cell should
        // resolve; a hole here means the executor itself lost track.
        panic!("grid '{}' incomplete after a full (1/1) run", spec.name);
    }
    outcome
}

/// The exit code this process should end with: [`DEGRADED_EXIT`] if any
/// grid executed so far was degraded, `0` otherwise.
pub fn exit_code() -> i32 {
    if DEGRADED.load(Ordering::Relaxed) {
        DEGRADED_EXIT
    } else {
        0
    }
}

/// Terminates the process with [`exit_code`] — the last line of every
/// figure binary, so degraded grids surface to scripts and CI.
pub fn finish() -> ! {
    std::process::exit(exit_code());
}

/// The whole `main` of a figure binary: parses `tool`'s flags, executes the
/// registered grid `grid`, prints its text, writes its rows to `--out` and
/// ends with [`finish`].
pub fn figure_main(tool: &str, grid: &str) -> ! {
    let opts = HarnessOpts::from_args(tool);
    let figure = crate::grids::figure(grid, &opts)
        .unwrap_or_else(|| panic!("'{grid}' is not a registered grid"));
    let render = figure
        .render
        .unwrap_or_else(|| panic!("grid '{grid}' has no renderer"));
    let (text, json) = render(&execute(&figure.spec, &opts));
    print!("{text}");
    if let Some(path) = &opts.out {
        write_text(path, &json);
    }
    finish()
}

fn preventive_rows(report: &SimReport) -> u64 {
    report.dram.rfm_victim_rows + report.dram.vrrs + report.dram.borrowed_refreshes * 4
}

/// A multi-programmed mix sweep (Fig. 4, 8, 9, 10, 12) as a grid: per mix,
/// one alone cell per core, one unmitigated baseline cell, and one cell
/// per (mechanism, N_RH) point.
pub struct MixSweep {
    /// The declarative grid.
    pub spec: GridSpec,
    mixes: Vec<Mix>,
    /// Per mix: alone-run cell index per core.
    alone: Vec<Vec<usize>>,
    /// Per mix: baseline cell index.
    baseline: Vec<usize>,
    /// (mix index, cell index) in row order.
    jobs: Vec<(usize, usize)>,
}

impl MixSweep {
    /// Builds the grid. `tweak` is applied to every cell's resolved config
    /// (alone, baseline and sweep cells alike) — Fig. 12 forces the ABACuS
    /// address mapping through it.
    pub fn build(
        name: &str,
        mechanisms: &[MechanismKind],
        nrh_list: &[u32],
        opts: &HarnessOpts,
        tweak: &dyn Fn(&mut SimConfig),
    ) -> Self {
        let mixes = four_core_mixes(opts.mixes_per_class, opts.seed);
        let mut spec = GridSpec::new(name);
        let mut alone = Vec::new();
        let mut baseline = Vec::new();
        let mut jobs = Vec::new();
        for mix in &mixes {
            let mut per_core = Vec::new();
            for (i, app) in mix.apps.iter().enumerate() {
                let mut cfg = alone_config(opts);
                tweak(&mut cfg);
                let workload = WorkloadSpec::Apps {
                    apps: vec![AppTrace::new(
                        app.name,
                        i as u64,
                        opts.seed ^ (i as u64) << 8,
                    )],
                    trace_instructions: trace_instructions(opts),
                };
                per_core.push(spec.push(CellSpec::new(
                    format!("{}:alone:{}", mix.name, app.name),
                    workload,
                    cfg,
                )));
            }
            alone.push(per_core);

            let mut cfg = mix_config(MechanismKind::None, 1024, opts);
            tweak(&mut cfg);
            baseline.push(spec.push(CellSpec::new(
                format!("{}:baseline", mix.name),
                mix_workload(&mix.apps, opts),
                cfg,
            )));
        }
        for (m, mix) in mixes.iter().enumerate() {
            for &mech in mechanisms {
                for &nrh in nrh_list {
                    let mut cfg = mix_config(mech, nrh, opts);
                    tweak(&mut cfg);
                    let cell = spec.push(CellSpec::new(
                        format!("{}:{}@{}", mix.name, mech.label(), nrh),
                        mix_workload(&mix.apps, opts),
                        cfg,
                    ));
                    jobs.push((m, cell));
                }
            }
        }
        Self {
            spec,
            mixes,
            alone,
            baseline,
            jobs,
        }
    }

    /// Assembles normalised rows from an outcome. Cells missing under a
    /// partial shard are skipped; an unsharded run yields every row.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<SweepRow> {
        let mut rows = Vec::new();
        for &(m, cell) in &self.jobs {
            let Some(report) = outcome.reports[cell].as_ref() else {
                continue;
            };
            let Some(baseline) = outcome.reports[self.baseline[m]].as_ref() else {
                continue;
            };
            let ipc_alone: Option<Vec<f64>> = self.alone[m]
                .iter()
                .map(|&i| outcome.reports[i].as_ref().map(|r| r.ipc[0]))
                .collect();
            let Some(ipc_alone) = ipc_alone else {
                continue;
            };
            let mix = &self.mixes[m];
            let ws_norm =
                report.weighted_speedup(&ipc_alone) / baseline.weighted_speedup(&ipc_alone);
            rows.push(SweepRow {
                workload: mix.name.clone(),
                class: mix.class.label(),
                mechanism: report.mechanism.clone(),
                nrh: report.nrh,
                ws_norm,
                energy_norm: report.energy_normalized_to(baseline),
                secure: report.secure,
                back_offs: report.ctrl.back_offs,
                preventive_rows: preventive_rows(report),
            });
        }
        rows
    }
}

/// A homogeneous-copies sweep (Fig. 7 with one core, Fig. 14/15 with
/// eight) as a grid: per app, one baseline cell and one cell per
/// (mechanism, N_RH).
pub struct AppSweep {
    /// The declarative grid.
    pub spec: GridSpec,
    apps: Vec<AppProfile>,
    baseline: Vec<usize>,
    /// (app index, cell index) in row order.
    jobs: Vec<(usize, usize)>,
}

impl AppSweep {
    /// Builds the grid over `apps`.
    pub fn build(
        name: &str,
        apps: &[AppProfile],
        mechanisms: &[MechanismKind],
        nrh_list: &[u32],
        opts: &HarnessOpts,
        num_cores: usize,
        large_llc: bool,
    ) -> Self {
        let mut spec = GridSpec::new(name);
        let workload = |app: &AppProfile| WorkloadSpec::Apps {
            apps: (0..num_cores)
                .map(|i| AppTrace::new(app.name, i as u64, opts.seed ^ i as u64))
                .collect(),
            trace_instructions: trace_instructions(opts),
        };
        let config = |mech: MechanismKind, nrh: u32| {
            let base = if large_llc {
                SimConfig::eight_core_large_llc()
            } else {
                SimConfig::four_core()
            };
            SimConfig {
                mechanism: mech,
                nrh,
                ..harness_config(base, opts, 4000)
            }
        };
        let baseline = apps
            .iter()
            .map(|app| {
                spec.push(CellSpec::new(
                    format!("{}:baseline", app.name),
                    workload(app),
                    config(MechanismKind::None, 1024),
                ))
            })
            .collect();
        let mut jobs = Vec::new();
        for (i, app) in apps.iter().enumerate() {
            for &mech in mechanisms {
                for &nrh in nrh_list {
                    let cell = spec.push(CellSpec::new(
                        format!("{}:{}@{}", app.name, mech.label(), nrh),
                        workload(app),
                        config(mech, nrh),
                    ));
                    jobs.push((i, cell));
                }
            }
        }
        Self {
            spec,
            apps: apps.to_vec(),
            baseline,
            jobs,
        }
    }

    /// Assembles normalised rows (homogeneous WS reduces to the IPC-sum
    /// ratio); cells missing under a partial shard are skipped.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<SweepRow> {
        let mut rows = Vec::new();
        for &(i, cell) in &self.jobs {
            let (Some(report), Some(base)) = (
                outcome.reports[cell].as_ref(),
                outcome.reports[self.baseline[i]].as_ref(),
            ) else {
                continue;
            };
            let app = &self.apps[i];
            rows.push(SweepRow {
                workload: app.name.to_string(),
                class: app.class().letter().to_string(),
                mechanism: report.mechanism.clone(),
                nrh: report.nrh,
                ws_norm: report.ipc.iter().sum::<f64>() / base.ipc.iter().sum::<f64>(),
                energy_norm: report.energy_normalized_to(base),
                secure: report.secure,
                back_offs: report.ctrl.back_offs,
                preventive_rows: preventive_rows(report),
            });
        }
        rows
    }
}
