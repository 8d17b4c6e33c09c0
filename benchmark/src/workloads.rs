//! The seven workloads: what each sets up, what one timed pass runs, and
//! how its outputs are verified. Everything here calls the simulator's
//! public functions from outside; nothing reaches into a crate.

use std::path::Path;
use std::time::Instant;

use chronus_bench::grids::{build_spec, fig7_nrh_list};
use chronus_bench::{AppSweep, HarnessOpts};
use chronus_core::MechanismKind;
use chronus_cpu::Trace;
use chronus_ctrl::AddressMapping;
use chronus_dram::{BankId, Geometry};
use chronus_grid::{GridSpec, ResultStore};
use chronus_sim::{SimConfig, SimReport, System, VrdSpec};
use chronus_workloads::{
    all_profiles, perf_attack_trace, synthetic_app, wave_attack_trace, AppProfile,
};

use crate::host::{self, Probe};
use crate::scale::Scale;
use crate::span::Recorder;

/// One workload: its name and why it is in the benchmark.
pub struct WorkloadInfo {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The workloads, in the order a round runs them.
pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "membound-ondie",
        why: "429.mcf (random row misses) and 470.lbm (streaming, 45% stores) under Baseline/PRFM/PRAC-4/Chronus: the ctrl+dram demand path with on-die hooks",
    },
    WorkloadInfo {
        name: "membound-trackers",
        why: "429.mcf under Graphene/Hydra/PARA/ABACuS: controller-side trackers dominate, kept apart so they do not drown the on-die numbers",
    },
    WorkloadInfo {
        name: "idle-sprint",
        why: "511.povray at 700 M instructions: fast-forward, core fill sprint and LLC with the controller asleep; bypasses every ctrl/dram/hook optimisation",
    },
    WorkloadInfo {
        name: "attack-oracle",
        why: "perf-attack and wave-attack traces with the oracle on: every access is PRE+ACT, back-off/RFM recovery hot, LLC bypassed",
    },
    WorkloadInfo {
        name: "grid-cold",
        why: "fig7 (every 3rd app)+fig8+perf_attack specs executed into a fresh store on 2 threads: per-cell trace generation, System::build, JSON, store puts, leases; simulation is the minority",
    },
    WorkloadInfo {
        name: "grid-warm",
        why: "the same specs served 80 times from a filled store: cell hashing, store get+verify, report parsing; zero simulation, bypasses every simulator optimisation",
    },
    WorkloadInfo {
        name: "batch-cohorts",
        why: "System::run_batch: 64 VRD variants collapsing into one 64-lane cohort, and 12 mechanisms forking over one shared four-core trace set",
    },
];

/// Whether `name` is one of the workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The figure specs the grid workloads execute.
pub const GRID_SPECS: [&str; 3] = ["fig7", "fig8", "perf_attack"];

/// One `System::build(cfg).run(traces)` call.
pub struct SoloCell {
    /// `app:mechanism`.
    pub label: String,
    /// The cell's configuration.
    pub cfg: SimConfig,
    /// The cell's own copy of its traces (`run` consumes them).
    pub traces: Vec<Trace>,
}

/// One `System::run_batch(cfgs, traces)` call.
pub struct BatchJob {
    /// `vrd64` or `fork12`.
    pub label: String,
    /// The variants.
    pub cfgs: Vec<SimConfig>,
    /// The shared traces.
    pub traces: Vec<Trace>,
}

/// The grid workloads' inputs.
pub struct GridJob {
    /// The figure specs, in [`GRID_SPECS`] order.
    pub specs: Vec<GridSpec>,
    /// Per spec, the content hash of every cell.
    pub hashes: Vec<Vec<String>>,
    /// Harness options pointing at the store.
    pub opts: HarnessOpts,
    /// How often one pass executes the specs.
    pub reps: usize,
}

/// A workload after set-up, ready for its timed pass.
pub enum Prepared {
    /// Independent single-system cells.
    Solo(Vec<SoloCell>),
    /// Batched cohorts.
    Batch(Vec<BatchJob>),
    /// Figure specs through the grid executor.
    Grid(GridJob),
}

/// One timed segment of a pass: a cell, a batch job, or a stretch of grid
/// executions. The calibration probe runs before the first segment and
/// after each one, so every segment knows how fast the host was around it.
pub struct Row {
    /// Cell, batch job, spec, or range of repetitions.
    pub label: String,
    /// Host seconds, as measured.
    pub wall_s: f64,
    /// User+sys CPU seconds over all threads, as measured.
    pub cpu_s: f64,
    /// Share of that CPU time spent in the kernel (0 when the segment is
    /// too short for the tick counters to tell).
    pub sys_share: f64,
    /// Mean of the probe readings just before and just after.
    pub probe: Probe,
    /// Simulated memory cycles of the reports this row produced.
    pub mem_cycles: u64,
    /// Simulated instructions of the reports this row produced.
    pub instructions: u64,
    /// Reports this row produced.
    pub reports: u64,
}

/// What the grid executor reported, summed over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecTotals {
    /// Σ `GridOutcome::wall_seconds`.
    pub wall_s: f64,
    /// Cells served from the store.
    pub cached: u64,
    /// Cells simulated.
    pub simulated: u64,
    /// Cells that failed permanently.
    pub failed: u64,
    /// Cells waited for on another holder's lease.
    pub waited: u64,
}

/// Everything one pass produced.
#[derive(Default)]
pub struct PassOutput {
    /// Every report, in production order.
    pub reports: Vec<SimReport>,
    /// One row per timed segment.
    pub rows: Vec<Row>,
    /// Labels of cells that failed (degraded grid cells).
    pub failures: Vec<String>,
    /// Grid executor totals (zero for non-grid workloads).
    pub exec: ExecTotals,
}

fn base_cfg(mech: MechanismKind, instructions: u64, scale: &Scale, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = instructions;
    cfg.mechanism = mech;
    cfg.nrh = scale.nrh as u32;
    cfg.seed = seed;
    // The harness binaries' safety limit; no cell may reach it.
    cfg.max_mem_cycles = instructions.saturating_mul(6000).max(1 << 22);
    cfg
}

fn app_trace(app: &str, slot: u64, instructions: u64, seed: u64) -> Trace {
    synthetic_app(app, slot)
        .unwrap_or_else(|| panic!("unknown app profile '{app}'"))
        .generate(instructions + instructions / 10, seed)
}

fn app_cells(
    app: &str,
    instructions: u64,
    mechs: &[MechanismKind],
    scale: &Scale,
    seed: u64,
) -> Vec<SoloCell> {
    let trace = app_trace(app, 0, instructions, seed);
    mechs
        .iter()
        .map(|&mech| SoloCell {
            label: format!("{app}:{}", mech.label()),
            cfg: base_cfg(mech, instructions, scale, seed),
            traces: vec![trace.clone()],
        })
        .collect()
}

fn attack_cells(
    name: &str,
    trace: &Trace,
    mechs: &[MechanismKind],
    scale: &Scale,
    seed: u64,
) -> Vec<SoloCell> {
    mechs
        .iter()
        .map(|&mech| {
            let mut cfg = base_cfg(mech, trace.entries.len() as u64, scale, seed);
            cfg.oracle = true;
            cfg.mapping = Some(AddressMapping::Mop);
            SoloCell {
                label: format!("{name}:{}", mech.label()),
                cfg,
                traces: vec![trace.clone()],
            }
        })
        .collect()
}

fn batch_jobs(scale: &Scale, seed: u64) -> Vec<BatchJob> {
    let vrd_cfgs = (0..scale.batch_vrd_lanes)
        .map(|lane| {
            let mut cfg = base_cfg(MechanismKind::None, scale.batch_vrd_instr, scale, seed);
            cfg.nrh = 1024;
            cfg.oracle = true;
            cfg.vrd = Some(VrdSpec {
                min_pct: 50,
                seed: lane,
            });
            cfg
        })
        .collect();
    let fork_apps = ["429.mcf", "470.lbm", "tpch2", "511.povray"];
    let fork_cfgs = std::iter::once(MechanismKind::None)
        .chain(MechanismKind::all().iter().copied())
        .map(|mech| {
            let mut cfg = base_cfg(mech, scale.batch_fork_instr, scale, seed);
            cfg.num_cores = fork_apps.len();
            cfg
        })
        .collect();
    vec![
        BatchJob {
            label: format!("vrd{}", scale.batch_vrd_lanes),
            cfgs: vrd_cfgs,
            traces: vec![app_trace("429.mcf", 0, scale.batch_vrd_instr, seed)],
        },
        BatchJob {
            label: format!("fork{}", MechanismKind::all().len() + 1),
            cfgs: fork_cfgs,
            traces: fork_apps
                .iter()
                .enumerate()
                .map(|(i, app)| {
                    app_trace(
                        app,
                        i as u64,
                        scale.batch_fork_instr,
                        seed ^ (i as u64) << 8,
                    )
                })
                .collect(),
        },
    ]
}

/// Threads the grid workloads use: the scale's, capped at `nproc`.
pub fn grid_threads(scale: &Scale) -> usize {
    (scale.grid_threads as usize).min(host::nproc()).max(1)
}

fn grid_job(scale: &Scale, seed: u64, store: &Path, reps: usize, rec: &mut Recorder) -> GridJob {
    let opts = HarnessOpts {
        instructions: scale.grid_instr,
        mixes_per_class: 1,
        nrh_list: vec![scale.nrh as u32],
        threads: grid_threads(scale),
        seed,
        grid_dir: Some(store.to_path_buf()),
        quiet: true,
        ..HarnessOpts::default()
    };
    let specs: Vec<GridSpec> = GRID_SPECS
        .iter()
        .map(|&name| {
            rec.time("bench.build_spec", |_| match name {
                // The registry's own builder for Fig. 7, over every n-th
                // application: the full roster makes a pass too long to
                // repeat often enough (see the README on `grid-cold`).
                "fig7" => {
                    let apps: Vec<AppProfile> = all_profiles()
                        .into_iter()
                        .step_by(scale.grid_fig7_app_stride as usize)
                        .collect();
                    let nrh = fig7_nrh_list(&opts);
                    AppSweep::build(
                        name,
                        &apps,
                        MechanismKind::headline(),
                        &nrh,
                        &opts,
                        1,
                        false,
                    )
                    .spec
                }
                _ => build_spec(name, &opts).expect("registered grid name"),
            })
        })
        .collect();
    let hashes = specs
        .iter()
        .map(|spec| rec.time("grid.hash", |_| spec.hashes()))
        .collect();
    ResultStore::open(store).expect("the result store opens");
    GridJob {
        specs,
        hashes,
        opts,
        reps,
    }
}

/// Sets `name` up at `scale` from `seed`: generates traces, resolves
/// configurations, builds and hashes specs, creates the store. `store` is
/// where the grid workloads keep their result store.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn prepare(name: &str, scale: &Scale, seed: u64, store: &Path, rec: &mut Recorder) -> Prepared {
    use MechanismKind::{Abacus, Chronus, Graphene, Hydra, None as Baseline, Para, Prac4, Prfm};
    let geo = Geometry::ddr5();
    match name {
        "membound-ondie" => Prepared::Solo(rec.time("workloads.traces", |_| {
            let mechs = [Baseline, Prfm, Prac4, Chronus];
            let mut cells = app_cells("429.mcf", scale.ondie_mcf_instr, &mechs, scale, seed);
            cells.extend(app_cells(
                "470.lbm",
                scale.ondie_lbm_instr,
                &mechs,
                scale,
                seed,
            ));
            cells
        })),
        "membound-trackers" => Prepared::Solo(rec.time("workloads.traces", |_| {
            app_cells(
                "429.mcf",
                scale.trackers_instr,
                &[Graphene, Hydra, Para, Abacus],
                scale,
                seed,
            )
        })),
        "idle-sprint" => Prepared::Solo(rec.time("workloads.traces", |_| {
            app_cells(
                "511.povray",
                scale.idle_instr,
                &[Baseline, Prac4, Chronus, Graphene],
                scale,
                seed,
            )
        })),
        "attack-oracle" => Prepared::Solo(rec.time("workloads.traces", |_| {
            let perf = perf_attack_trace(
                AddressMapping::Mop,
                &geo,
                4,
                8,
                scale.perf_attack_accesses as usize,
            );
            // The seed moves the wave around its bank; the pattern (and
            // so the work) is the same for every seed.
            let first_row = 1_000 + (seed % 1_000) as u32 * 8;
            let rows: Vec<u32> = (0..scale.wave_rows as u32)
                .map(|i| first_row + i * 8)
                .collect();
            let wave = wave_attack_trace(
                AddressMapping::Mop,
                &geo,
                BankId::new(0, 1, 1),
                &rows,
                scale.wave_accesses as usize,
            );
            let mut cells =
                attack_cells("perf-attack", &perf, &[Prfm, Prac4, Chronus], scale, seed);
            cells.extend(attack_cells(
                "wave-attack",
                &wave,
                &[Prac4, Chronus],
                scale,
                seed,
            ));
            cells
        })),
        "grid-cold" => Prepared::Grid(grid_job(scale, seed, store, 1, rec)),
        "grid-warm" => Prepared::Grid(grid_job(
            scale,
            seed,
            store,
            scale.grid_warm_reps as usize,
            rec,
        )),
        "batch-cohorts" => {
            Prepared::Batch(rec.time("workloads.traces", |_| batch_jobs(scale, seed)))
        }
        other => panic!("unknown workload '{other}'"),
    }
}

/// The kernel's share of the CPU time between two [`host::cpu_ticks`]
/// readings; 0 when fewer than ten ticks passed, too few to split.
pub fn sys_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let user = after.0.saturating_sub(before.0);
    let sys = after.1.saturating_sub(before.1);
    if user + sys < 10 {
        0.0
    } else {
        sys as f64 / (user + sys) as f64
    }
}

/// Runs a pass segment by segment, reading the calibration probe between
/// segments.
struct Segments<'a> {
    rec: &'a mut Recorder,
    out: PassOutput,
    last_probe: Probe,
}

impl<'a> Segments<'a> {
    fn new(rec: &'a mut Recorder) -> Self {
        let last_probe = rec.time("host.probe", |_| host::calibration_probe());
        Self {
            rec,
            out: PassOutput::default(),
            last_probe,
        }
    }

    /// Times `f` as one segment, then reads the probe again.
    fn run(&mut self, label: String, f: impl FnOnce(&mut Recorder) -> Vec<SimReport>) {
        let ticks0 = host::cpu_ticks();
        let cpu0 = host::process_cpu_seconds();
        let t = Instant::now();
        let reports = f(self.rec);
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_seconds() - cpu0;
        let sys_share = sys_share(ticks0, host::cpu_ticks());
        let probe = self.rec.time("host.probe", |_| host::calibration_probe());
        self.out.rows.push(Row {
            label,
            wall_s,
            cpu_s,
            sys_share,
            probe: Probe::mean(self.last_probe, probe),
            mem_cycles: reports.iter().map(|r| r.mem_cycles).sum(),
            instructions: reports.iter().map(SimReport::total_instructions).sum(),
            reports: reports.len() as u64,
        });
        self.last_probe = probe;
        self.out.reports.extend(reports);
    }
}

/// Repetitions of the grid specs one segment of a warm pass serves.
const WARM_REPS_PER_SEGMENT: usize = 10;

impl Prepared {
    /// Trace entries generated during set-up.
    pub fn trace_entries(&self) -> u64 {
        let count = |traces: &[Trace]| traces.iter().map(|t| t.entries.len() as u64).sum::<u64>();
        match self {
            Prepared::Solo(cells) => cells.iter().map(|c| count(&c.traces)).sum(),
            Prepared::Batch(jobs) => jobs.iter().map(|j| count(&j.traces)).sum(),
            Prepared::Grid(_) => 0,
        }
    }

    /// The trace and configuration the layer kernels replay: the first
    /// cell's first core.
    pub fn kernel_input(&self) -> (SimConfig, Trace) {
        match self {
            Prepared::Solo(cells) => (cells[0].cfg.clone(), cells[0].traces[0].clone()),
            Prepared::Batch(jobs) => (jobs[0].cfgs[0].clone(), jobs[0].traces[0].clone()),
            Prepared::Grid(job) => {
                let cell = &job.specs[0].cells[0];
                let mut traces = cell.workload.traces(&cell.config.geometry);
                (cell.config.clone(), traces.swap_remove(0))
            }
        }
    }

    /// Runs only the first cell (the untimed warm-up, on a shrunk scale).
    pub fn warm_up(self) {
        match self {
            Prepared::Solo(cells) => {
                if let Some(c) = cells.into_iter().next() {
                    std::hint::black_box(System::build(&c.cfg).run(c.traces));
                }
            }
            Prepared::Batch(jobs) => {
                if let Some(j) = jobs.first() {
                    std::hint::black_box(System::run_batch(&j.cfgs, &j.traces));
                }
            }
            Prepared::Grid(job) => {
                std::hint::black_box(chronus_grid::simulate_cell(&job.specs[0].cells[0]));
            }
        }
    }

    /// The timed pass. A workload passes once: `System::run` takes the
    /// cells' traces by value.
    pub fn pass(&mut self, rec: &mut Recorder) -> PassOutput {
        let mut segments = Segments::new(rec);
        match self {
            Prepared::Solo(cells) => {
                for c in cells {
                    let traces = std::mem::take(&mut c.traces);
                    segments.run(c.label.clone(), |rec| {
                        rec.time("cell", |rec| {
                            let sys = rec.time("sim.build", |_| System::build(&c.cfg));
                            vec![rec.time("sim.run", |_| sys.run(traces))]
                        })
                    });
                }
            }
            Prepared::Batch(jobs) => {
                for j in jobs {
                    segments.run(j.label.clone(), |rec| {
                        rec.time("sim.run_batch", |_| System::run_batch(&j.cfgs, &j.traces))
                    });
                }
            }
            Prepared::Grid(job) => {
                let mut exec = ExecTotals::default();
                let mut failures = Vec::new();
                let mut execute = |rec: &mut Recorder, spec: &GridSpec| -> Vec<SimReport> {
                    let outcome =
                        rec.time("grid.exec", |_| chronus_bench::execute(spec, &job.opts));
                    exec.wall_s += outcome.wall_seconds;
                    exec.cached += outcome.stats.cached as u64;
                    exec.simulated += outcome.stats.simulated as u64;
                    exec.failed += outcome.stats.failed as u64;
                    exec.waited += outcome.stats.waited as u64;
                    failures.extend(
                        outcome
                            .failures
                            .iter()
                            .map(|f| format!("{}:{}", spec.name, f.label)),
                    );
                    outcome.reports.into_iter().flatten().collect()
                };
                if job.reps == 1 {
                    // A cold pass: each spec is long enough for a segment.
                    for spec in &job.specs {
                        segments.run(spec.name.clone(), |rec| execute(rec, spec));
                    }
                } else {
                    let reps: Vec<usize> = (0..job.reps).collect();
                    for chunk in reps.chunks(WARM_REPS_PER_SEGMENT) {
                        let label = format!("reps {}..={}", chunk[0], chunk[chunk.len() - 1]);
                        segments.run(label, |rec| {
                            chunk
                                .iter()
                                .flat_map(|_| &job.specs)
                                .flat_map(|spec| execute(rec, spec))
                                .collect()
                        });
                    }
                }
                segments.out.exec = exec;
                segments.out.failures = failures;
            }
        }
        segments.out
    }

    /// Checks every cell against the simulator's own reference on this
    /// (shrunk) scale: `run` against `run_reference`, and every
    /// `run_batch` member against its solo `run`. Returns how many checks
    /// ran and the labels of the ones that failed. Grid workloads are
    /// verified by serving their store again (see the driver).
    pub fn verify(self) -> (u64, Vec<String>) {
        let mut attempted = 0;
        let mut mismatches = Vec::new();
        match self {
            Prepared::Solo(cells) => {
                for c in cells {
                    attempted += 1;
                    let fast = System::build(&c.cfg).run(c.traces.clone());
                    let reference = System::build(&c.cfg).run_reference(c.traces);
                    if fast != reference {
                        mismatches.push(format!("{}: run != run_reference", c.label));
                    } else if fast.truncated {
                        mismatches.push(format!("{}: truncated", c.label));
                    }
                }
            }
            Prepared::Batch(jobs) => {
                for j in jobs {
                    let batch = System::run_batch(&j.cfgs, &j.traces);
                    for (i, (cfg, member)) in j.cfgs.iter().zip(&batch).enumerate() {
                        attempted += 1;
                        let solo = System::build(cfg).run(j.traces.clone());
                        if solo != *member {
                            mismatches.push(format!("{}[{i}]: run_batch != run", j.label));
                        } else if solo.truncated {
                            mismatches.push(format!("{}[{i}]: truncated", j.label));
                        }
                    }
                }
            }
            Prepared::Grid(_) => {}
        }
        (attempted, mismatches)
    }
}
