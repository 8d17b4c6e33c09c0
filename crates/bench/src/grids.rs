//! The named experiment-grid registry.
//!
//! Every simulation-driven figure and table is registered here as a
//! declarative [`GridSpec`] builder, so the `chronus-sweep` CLI can list,
//! pre-compute, shard, merge and garbage-collect the exact cells the
//! figure binaries consume. The binaries themselves call the same
//! builders, which is what makes `chronus-sweep run fig8 --shard 1/2` on
//! one machine + `--shard 2/2` on another, followed by `fig8` against the
//! merged store, equivalent to running `fig8` directly.

use chronus_core::MechanismKind;
use chronus_ctrl::AddressMapping;
use chronus_grid::{AppTrace, AttackSpec, CellSpec, GridOutcome, GridSpec, WorkloadSpec};
use chronus_sim::{SimConfig, SimReport, VrdSpec};
use chronus_workloads::{all_profiles, eight_core_spec17_profiles, four_core_mixes, Mix};
use serde::Serialize;

use crate::opts::HarnessOpts;
use crate::runs::{mix_config, AppSweep, MixSweep};
use crate::tables::geomean;

/// Every registered grid, in `all_figures` order.
pub const GRID_NAMES: &[&str] = &[
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig12",
    "fig14_15",
    "table4",
    "ablation",
    "perf_attack",
    "leakage",
    "vrd-sweep",
    "smoke",
];

/// Builds the spec of a registered grid with the given options, applying
/// the same per-figure option forcing the binaries apply (e.g. Fig. 7
/// truncates long N_RH sweeps to {1024, 32}).
///
/// Returns `None` for unknown names.
pub fn build_spec(name: &str, opts: &HarnessOpts) -> Option<GridSpec> {
    let spec = match name {
        "fig4" => {
            let mechs = [
                MechanismKind::Prac4,
                MechanismKind::Prac2,
                MechanismKind::Prac1,
                MechanismKind::PracPrfm,
                MechanismKind::Prfm,
            ];
            MixSweep::build("fig4", &mechs, &opts.nrh_list, opts, &|_| {}).spec
        }
        "fig7" => {
            let nrh = fig7_nrh_list(opts);
            AppSweep::build(
                "fig7",
                &all_profiles(),
                MechanismKind::headline(),
                &nrh,
                opts,
                1,
                false,
            )
            .spec
        }
        "fig8" => {
            MixSweep::build(
                "fig8",
                MechanismKind::headline(),
                &opts.nrh_list,
                opts,
                &|_| {},
            )
            .spec
        }
        "fig9" => MixSweep::build("fig9", MechanismKind::headline(), &[32], opts, &|_| {}).spec,
        "fig10" => {
            MixSweep::build(
                "fig10",
                MechanismKind::headline(),
                &opts.nrh_list,
                opts,
                &|_| {},
            )
            .spec
        }
        "fig12" => fig12_sweep(opts).spec,
        "fig14_15" => {
            AppSweep::build(
                "fig14_15",
                &eight_core_spec17_profiles(),
                &[MechanismKind::Prac4],
                &opts.nrh_list,
                opts,
                8,
                true,
            )
            .spec
        }
        "table4" => Table4Grid::build(opts).spec,
        "ablation" => AblationGrid::build(opts).spec,
        "perf_attack" => PerfAttackGrid::build(opts).spec,
        "leakage" => LeakageGrid::build(opts).spec,
        "vrd-sweep" => VrdSweepGrid::build(opts).spec,
        "smoke" => smoke_grid(),
        _ => return None,
    };
    Some(spec)
}

/// Fig. 7 forces long sweeps down to its two published points.
pub fn fig7_nrh_list(opts: &HarnessOpts) -> Vec<u32> {
    if opts.nrh_list.len() > 2 {
        vec![1024, 32]
    } else {
        opts.nrh_list.clone()
    }
}

/// perf_attack forces long sweeps down to its two published points.
pub fn perf_attack_nrh_list(opts: &HarnessOpts) -> Vec<u32> {
    if opts.nrh_list.len() > 2 {
        vec![128, 20]
    } else {
        opts.nrh_list.clone()
    }
}

/// The Fig. 12 sweep: Chronus vs ABACuS with everything (alone runs,
/// baseline and sweep cells) under the ABACuS address mapping.
pub fn fig12_sweep(opts: &HarnessOpts) -> MixSweep {
    MixSweep::build(
        "fig12",
        &[MechanismKind::Chronus, MechanismKind::Abacus],
        &opts.nrh_list,
        opts,
        &|cfg| cfg.mapping = Some(AddressMapping::AbacusMop),
    )
}

/// The deliberately tiny two-cell grid the CI smoke job runs twice to
/// prove the second pass is 100% cache hits.
pub fn smoke_grid() -> GridSpec {
    let mut spec = GridSpec::new("smoke");
    for (slot, app) in ["511.povray", "429.mcf"].iter().enumerate() {
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 3_000;
        cfg.mechanism = MechanismKind::Chronus;
        cfg.nrh = 64;
        cfg.max_mem_cycles = 1 << 22;
        let workload = WorkloadSpec::Apps {
            apps: vec![AppTrace::new(*app, slot as u64, 42)],
            trace_instructions: 3_600,
        };
        spec.push(CellSpec::new(format!("smoke:{app}"), workload, cfg));
    }
    spec
}

/// One Table 4 output row.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    /// RowHammer threshold.
    pub nrh: u32,
    /// Performance overhead with the pre-erratum (buggy) PRAC timings.
    pub four_core_overhead_old: f64,
    /// Performance overhead with the fixed timings.
    pub four_core_overhead_new: f64,
    /// Energy overhead with the pre-erratum timings.
    pub energy_overhead_old: f64,
    /// Energy overhead with the fixed timings.
    pub energy_overhead_new: f64,
}

/// Table 4 as a grid: per mix one baseline cell, and per (N_RH, mix) a
/// pre-erratum ("old") and fixed ("new") PRAC-4 cell.
pub struct Table4Grid {
    /// The declarative grid.
    pub spec: GridSpec,
    baseline: Vec<usize>,
    /// (nrh, mix, old cell, new cell).
    jobs: Vec<(u32, usize, usize, usize)>,
}

impl Table4Grid {
    /// Builds the grid.
    pub fn build(opts: &HarnessOpts) -> Self {
        let mixes = four_core_mixes(opts.mixes_per_class, opts.seed);
        let mut spec = GridSpec::new("table4");
        let workload = |mix: &Mix| crate::runs::mix_workload(&mix.apps, opts);
        let baseline = mixes
            .iter()
            .map(|mix| {
                spec.push(CellSpec::new(
                    format!("{}:baseline", mix.name),
                    workload(mix),
                    mix_config(mix.apps.len(), MechanismKind::None, 1024, opts),
                ))
            })
            .collect();
        let mut jobs = Vec::new();
        for &nrh in &opts.nrh_list {
            for (m, mix) in mixes.iter().enumerate() {
                let mut old_cfg = mix_config(mix.apps.len(), MechanismKind::Prac4, nrh, opts);
                old_cfg.timing_override = Some(chronus_dram::TimingMode::PracBuggy);
                let old = spec.push(CellSpec::new(
                    format!("{}:prac4-old@{nrh}", mix.name),
                    workload(mix),
                    old_cfg,
                ));
                let new_cfg = mix_config(mix.apps.len(), MechanismKind::Prac4, nrh, opts);
                let new = spec.push(CellSpec::new(
                    format!("{}:prac4-new@{nrh}", mix.name),
                    workload(mix),
                    new_cfg,
                ));
                jobs.push((nrh, m, old, new));
            }
        }
        Self {
            spec,
            baseline,
            jobs,
        }
    }

    /// Assembles the per-N_RH overhead rows (N_RH points taken from the
    /// grid's own jobs, in build order); points with any cell missing
    /// (partial shard) are skipped.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<Table4Row> {
        let ipc_sum = |r: &SimReport| r.ipc.iter().sum::<f64>();
        let mut nrh_list = Vec::new();
        for &(nrh, ..) in &self.jobs {
            if !nrh_list.contains(&nrh) {
                nrh_list.push(nrh);
            }
        }
        let mut rows = Vec::new();
        for nrh in nrh_list {
            let mut perf_old = Vec::new();
            let mut perf_new = Vec::new();
            let mut e_old = Vec::new();
            let mut e_new = Vec::new();
            let mut complete = true;
            for &(job_nrh, m, old_cell, new_cell) in &self.jobs {
                if job_nrh != nrh {
                    continue;
                }
                let (Some(old), Some(new), Some(base)) = (
                    outcome.reports[old_cell].as_ref(),
                    outcome.reports[new_cell].as_ref(),
                    outcome.reports[self.baseline[m]].as_ref(),
                ) else {
                    complete = false;
                    break;
                };
                perf_old.push(ipc_sum(old) / ipc_sum(base));
                perf_new.push(ipc_sum(new) / ipc_sum(base));
                e_old.push(old.energy_normalized_to(base));
                e_new.push(new.energy_normalized_to(base));
            }
            if !complete || perf_old.is_empty() {
                continue;
            }
            rows.push(Table4Row {
                nrh,
                four_core_overhead_old: 1.0 - geomean(&perf_old),
                four_core_overhead_new: 1.0 - geomean(&perf_new),
                energy_overhead_old: geomean(&e_old) - 1.0,
                energy_overhead_new: geomean(&e_new) - 1.0,
            });
        }
        rows
    }
}

/// One ablation output row.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Mechanism label.
    pub mechanism: String,
    /// Forced back-off threshold.
    pub nbo: u32,
    /// Whether the attacked run stayed wave-secure.
    pub secure: bool,
    /// Benign weighted-speedup loss under attack.
    pub benign_ws_loss: f64,
    /// Back-offs honoured in the attacked run.
    pub back_offs: u64,
    /// RFMs issued in the attacked run.
    pub rfms: u64,
}

/// The N_BO ablation as a grid: per (mechanism, N_BO), a calm cell (four
/// benign apps) and an attacked cell (three benign + attacker).
pub struct AblationGrid {
    /// The declarative grid.
    pub spec: GridSpec,
    /// (mechanism, nbo, calm cell, attacked cell).
    jobs: Vec<(MechanismKind, u32, usize, usize)>,
}

/// The ablation's fixed RowHammer threshold (the paper's N_RH = 20 point).
pub const ABLATION_NRH: u32 = 20;

/// The ablation's N_BO sweep.
pub const ABLATION_NBOS: [u32; 5] = [1, 2, 4, 8, 16];

impl AblationGrid {
    /// Builds the grid.
    pub fn build(opts: &HarnessOpts) -> Self {
        let benign = ["470.lbm", "tpch2", "473.astar"];
        let trace_instructions = opts.instructions + 5_000;
        let benign_specs: Vec<AppTrace> = benign
            .iter()
            .enumerate()
            .map(|(i, n)| AppTrace::new(*n, i as u64, opts.seed))
            .collect();
        let calm_workload = WorkloadSpec::Apps {
            apps: benign_specs
                .iter()
                .cloned()
                .chain(std::iter::once(AppTrace::new(
                    "548.exchange2",
                    3,
                    opts.seed,
                )))
                .collect(),
            trace_instructions,
        };
        let attacked_workload = WorkloadSpec::AppsWithAttacker {
            apps: benign_specs,
            trace_instructions,
            attack: AttackSpec {
                mapping: AddressMapping::Mop,
                banks: 4,
                rows: 8,
            },
        };
        let mut spec = GridSpec::new("ablation");
        let mut jobs = Vec::new();
        for &mech in &[MechanismKind::Prac4, MechanismKind::Chronus] {
            for &nbo in &ABLATION_NBOS {
                // The seed is intentionally left at the config default to
                // match the original harness exactly.
                let mut cfg = SimConfig::four_core();
                cfg.instructions_per_core = opts.instructions;
                cfg.mechanism = mech;
                cfg.nrh = ABLATION_NRH;
                cfg.threshold_override = Some(nbo);
                cfg.max_mem_cycles = opts.instructions.saturating_mul(8000).max(1 << 22);
                let calm = spec.push(CellSpec::new(
                    format!("{}:nbo{nbo}:calm", mech.label()),
                    calm_workload.clone(),
                    cfg.clone(),
                ));
                let attacked = spec.push(CellSpec::new(
                    format!("{}:nbo{nbo}:attacked", mech.label()),
                    attacked_workload.clone(),
                    cfg,
                ));
                jobs.push((mech, nbo, calm, attacked));
            }
        }
        Self { spec, jobs }
    }

    /// Assembles rows; pairs with a missing cell are skipped.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<AblationRow> {
        let ws = |r: &SimReport| r.ipc[..3].iter().sum::<f64>();
        let mut rows = Vec::new();
        for &(mech, nbo, calm_cell, attacked_cell) in &self.jobs {
            let (Some(calm), Some(attacked)) = (
                outcome.reports[calm_cell].as_ref(),
                outcome.reports[attacked_cell].as_ref(),
            ) else {
                continue;
            };
            rows.push(AblationRow {
                mechanism: mech.label().to_string(),
                nbo,
                secure: attacked.secure,
                benign_ws_loss: (1.0 - ws(attacked) / ws(calm)).max(0.0),
                back_offs: attacked.ctrl.back_offs,
                rfms: attacked.dram.rfms,
            });
        }
        rows
    }
}

/// One §11 attack output row.
#[derive(Debug, Clone, Serialize)]
pub struct AttackRow {
    /// Mechanism label.
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Geomean benign weighted-speedup loss across mixes.
    pub ws_loss_avg: f64,
    /// Worst benign weighted-speedup loss.
    pub ws_loss_max: f64,
    /// Worst single-application slowdown.
    pub max_slowdown: f64,
}

/// Per-mix (attacked cell, reference cell) indices of one
/// (mechanism, N_RH) attack point.
type AttackCells = Vec<(usize, usize)>;

/// The §11 performance-attack study as a grid: per (mechanism, N_RH, mix),
/// an attacked cell (three benign + attacker) and a reference cell (the
/// attacker replaced by the lightest app).
pub struct PerfAttackGrid {
    /// The declarative grid.
    pub spec: GridSpec,
    /// (mechanism, nrh, per-mix cells).
    jobs: Vec<(MechanismKind, u32, AttackCells)>,
}

impl PerfAttackGrid {
    /// Builds the grid.
    pub fn build(opts: &HarnessOpts) -> Self {
        let nrh_list = perf_attack_nrh_list(opts);
        let mixes = four_core_mixes(opts.mixes_per_class, opts.seed);
        let mechs = [
            (MechanismKind::Prac4, Some(1u32)),
            (MechanismKind::Chronus, None),
        ];
        let trace_instructions = opts.instructions + opts.instructions / 10;
        let mut spec = GridSpec::new("perf_attack");
        let mut jobs = Vec::new();
        for &(mech, nbo_override) in &mechs {
            for &nrh in &nrh_list {
                let mut cells = Vec::new();
                for mix in &mixes {
                    let benign: Vec<AppTrace> = mix.apps[..3]
                        .iter()
                        .enumerate()
                        .map(|(i, p)| AppTrace::new(p.name, i as u64, opts.seed))
                        .collect();
                    let mut cfg = SimConfig::four_core();
                    cfg.instructions_per_core = opts.instructions;
                    cfg.mechanism = mech;
                    cfg.nrh = nrh;
                    cfg.threshold_override = nbo_override;
                    cfg.seed = opts.seed;
                    cfg.max_mem_cycles = opts.instructions.saturating_mul(6000).max(1 << 22);
                    let attacked = spec.push(CellSpec::new(
                        format!("{}:{}@{nrh}:attacked", mix.name, mech.label()),
                        WorkloadSpec::AppsWithAttacker {
                            apps: benign.clone(),
                            trace_instructions,
                            attack: AttackSpec {
                                mapping: AddressMapping::Mop,
                                banks: 4,
                                rows: 8,
                            },
                        },
                        cfg.clone(),
                    ));
                    let reference = spec.push(CellSpec::new(
                        format!("{}:{}@{nrh}:reference", mix.name, mech.label()),
                        WorkloadSpec::Apps {
                            apps: benign
                                .into_iter()
                                .chain(std::iter::once(AppTrace::new(
                                    "548.exchange2",
                                    3,
                                    opts.seed,
                                )))
                                .collect(),
                            trace_instructions,
                        },
                        cfg,
                    ));
                    cells.push((attacked, reference));
                }
                jobs.push((mech, nrh, cells));
            }
        }
        Self { spec, jobs }
    }

    /// Assembles rows; (mechanism, N_RH) points with any missing mix are
    /// skipped.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<AttackRow> {
        let benign_ws = |r: &SimReport| r.ipc[..3].iter().sum::<f64>();
        let mut rows = Vec::new();
        for (mech, nrh, cells) in &self.jobs {
            let mut losses = Vec::new();
            let mut slowdowns = Vec::new();
            let mut complete = true;
            for &(attacked_cell, reference_cell) in cells {
                let (Some(attacked), Some(reference)) = (
                    outcome.reports[attacked_cell].as_ref(),
                    outcome.reports[reference_cell].as_ref(),
                ) else {
                    complete = false;
                    break;
                };
                let loss = 1.0 - benign_ws(attacked) / benign_ws(reference);
                losses.push(loss.max(0.0).max(1e-9));
                let slow = attacked.ipc[..3]
                    .iter()
                    .zip(&reference.ipc[..3])
                    .map(|(a, b)| 1.0 - a / b)
                    .fold(f64::MIN, f64::max);
                slowdowns.push(slow.max(0.0));
            }
            if !complete || losses.is_empty() {
                continue;
            }
            rows.push(AttackRow {
                mechanism: mech.label().to_string(),
                nrh: *nrh,
                ws_loss_avg: geomean(&losses),
                ws_loss_max: losses.iter().copied().fold(f64::MIN, f64::max),
                max_slowdown: slowdowns.iter().copied().fold(f64::MIN, f64::max),
            });
        }
        rows
    }
}

/// One timing-leakage output row.
#[derive(Debug, Clone, Serialize)]
pub struct LeakageRow {
    /// Mechanism label.
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Shannon entropy of the attacker core's read-latency distribution.
    pub attacker_latency_entropy_bits: f64,
    /// Shannon entropy of the aggregate read-latency distribution.
    pub latency_entropy_bits: f64,
    /// Shannon entropy of the merged inter-CAS gap distribution.
    pub gap_entropy_bits: f64,
    /// Shannon entropy of the hit/miss/conflict outcome mix.
    pub outcome_entropy_bits: f64,
    /// Shannon entropy of the mitigation-pause duration distribution.
    pub pause_entropy_bits: f64,
    /// Memory cycles demand issue was blocked by mitigation work.
    pub pause_cycles: u64,
    /// `pause_cycles` as a fraction of simulated memory cycles.
    pub pause_fraction: f64,
    /// Composite score the figure ranks by: attacker latency entropy +
    /// gap entropy + pause entropy. Higher = more timing signal exposed.
    pub leakage_score: f64,
}

/// The fixed RowHammer threshold of the leakage study: low enough that
/// every mechanism actually fires its mitigations under the probe attack.
pub const LEAKAGE_NRH: u32 = 64;

/// The timing-leakage study as a grid: one obs-enabled cell per mechanism
/// (the unprotected baseline plus all eleven mitigations) under a fixed
/// probe workload of one benign app and the §11 attacker.
pub struct LeakageGrid {
    /// The declarative grid.
    pub spec: GridSpec,
    /// (mechanism, cell).
    jobs: Vec<(MechanismKind, usize)>,
}

impl LeakageGrid {
    /// Builds the grid.
    pub fn build(opts: &HarnessOpts) -> Self {
        let trace_instructions = opts.instructions + opts.instructions / 10;
        let workload = WorkloadSpec::AppsWithAttacker {
            apps: vec![AppTrace::new("429.mcf", 0, opts.seed)],
            trace_instructions,
            attack: AttackSpec {
                mapping: AddressMapping::Mop,
                banks: 4,
                rows: 8,
            },
        };
        let mut spec = GridSpec::new("leakage");
        let mut jobs = Vec::new();
        for &mech in std::iter::once(&MechanismKind::None).chain(MechanismKind::all()) {
            let mut cfg = SimConfig::four_core();
            cfg.instructions_per_core = opts.instructions;
            cfg.mechanism = mech;
            cfg.nrh = LEAKAGE_NRH;
            cfg.seed = opts.seed;
            cfg.mapping = Some(AddressMapping::Mop);
            cfg.obs = true;
            cfg.max_mem_cycles = opts.instructions.saturating_mul(6000).max(1 << 22);
            let cell = spec.push(CellSpec::new(mech.label(), workload.clone(), cfg));
            jobs.push((mech, cell));
        }
        Self { spec, jobs }
    }

    /// Assembles rows ranked by descending leakage score; cells that are
    /// missing (partial shard) or lack an obs section are skipped.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<LeakageRow> {
        // The attacker is appended after the benign apps, so it is the
        // last core of the two-core probe workload.
        let attacker_core = 1;
        let mut rows = Vec::new();
        for &(mech, cell) in &self.jobs {
            let Some(report) = outcome.reports[cell].as_ref() else {
                continue;
            };
            let Some(obs) = report.obs.as_ref() else {
                continue;
            };
            let pause_cycles = obs.pauses.total_cycles();
            let attacker_latency_entropy_bits = obs.core_latency(attacker_core).entropy_bits();
            let leakage_score =
                attacker_latency_entropy_bits + obs.gap_entropy_bits + obs.pause_entropy_bits;
            rows.push(LeakageRow {
                mechanism: mech.label().to_string(),
                nrh: report.nrh,
                attacker_latency_entropy_bits,
                latency_entropy_bits: obs.latency_entropy_bits,
                gap_entropy_bits: obs.gap_entropy_bits,
                outcome_entropy_bits: obs.outcome_entropy_bits,
                pause_entropy_bits: obs.pause_entropy_bits,
                pause_cycles,
                pause_fraction: if report.mem_cycles == 0 {
                    0.0
                } else {
                    pause_cycles as f64 / report.mem_cycles as f64
                },
                leakage_score,
            });
        }
        rows.sort_by(|a, b| b.leakage_score.total_cmp(&a.leakage_score));
        rows
    }
}

/// One VRD Monte-Carlo output row: the disturbance census of one
/// `min_pct` distribution, aggregated across the seed samples.
#[derive(Debug, Clone, Serialize)]
pub struct VrdRow {
    /// Weakest-row threshold as a percentage of the nominal N_RH (100 =
    /// degenerate: every row at the nominal).
    pub min_pct: u32,
    /// Nominal RowHammer threshold.
    pub nominal_nrh: u32,
    /// Seed samples aggregated.
    pub samples: usize,
    /// Fewest oracle flips observed across samples.
    pub flips_min: u64,
    /// Mean oracle flips across samples.
    pub flips_mean: f64,
    /// Most oracle flips observed across samples.
    pub flips_max: u64,
}

/// Seed samples per `min_pct` point of the VRD sweep.
pub const VRD_SEEDS: usize = 16;

/// The `min_pct` points of the VRD sweep: the degenerate (scalar-
/// equivalent) distribution and a 2× spread.
pub const VRD_MIN_PCTS: [u32; 2] = [100, 50];

/// The Variable Read Disturbance Monte-Carlo study as a grid: an
/// unmitigated single-core 429.mcf run whose ground-truth oracle samples
/// per-row thresholds from `[nrh·min_pct/100, nrh]`, swept over
/// [`VRD_SEEDS`] sampling seeds per [`VRD_MIN_PCTS`] point. Every cell
/// shares one workload and differs only in oracle parameters, so the
/// entire grid is one timing cohort: the executor fills it with one
/// multi-lane [`chronus_sim::System::run_batch`] simulation.
pub struct VrdSweepGrid {
    /// The declarative grid.
    pub spec: GridSpec,
    /// (min_pct, member cells).
    jobs: Vec<(u32, Vec<usize>)>,
}

impl VrdSweepGrid {
    /// Builds the grid.
    pub fn build(opts: &HarnessOpts) -> Self {
        let workload = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("429.mcf", 0, opts.seed)],
            trace_instructions: opts.instructions + opts.instructions / 10,
        };
        let nominal = opts.nrh_list.first().copied().unwrap_or(1024);
        let mut spec = GridSpec::new("vrd-sweep");
        let mut jobs = Vec::new();
        for &min_pct in &VRD_MIN_PCTS {
            let start = spec.len();
            for s in 0..VRD_SEEDS {
                let mut cfg = SimConfig::single_core();
                cfg.instructions_per_core = opts.instructions;
                cfg.nrh = nominal;
                cfg.seed = opts.seed;
                cfg.oracle = true;
                cfg.vrd = Some(VrdSpec {
                    min_pct,
                    seed: opts.seed + s as u64,
                });
                cfg.max_mem_cycles = opts.instructions.saturating_mul(6000).max(1 << 22);
                let label = format!("vrd{min_pct}#{s}");
                spec.push(CellSpec::new(label, workload.clone(), cfg));
            }
            jobs.push((min_pct, (start..spec.len()).collect()));
        }
        Self { spec, jobs }
    }

    /// Assembles rows; `min_pct` points with any missing sample (partial
    /// shard) are skipped.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<VrdRow> {
        let mut rows = Vec::new();
        for (min_pct, cells) in &self.jobs {
            let mut flips = Vec::new();
            let mut nominal = 0;
            let mut complete = true;
            for &cell in cells {
                let Some(report) = outcome.reports[cell].as_ref() else {
                    complete = false;
                    break;
                };
                nominal = report.nrh;
                flips.push(report.oracle_flips.unwrap_or(0));
            }
            if !complete || flips.is_empty() {
                continue;
            }
            rows.push(VrdRow {
                min_pct: *min_pct,
                nominal_nrh: nominal,
                samples: flips.len(),
                flips_min: *flips.iter().min().expect("non-empty"),
                flips_mean: flips.iter().sum::<u64>() as f64 / flips.len() as f64,
                flips_max: *flips.iter().max().expect("non-empty"),
            });
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessOpts {
        HarnessOpts {
            instructions: 2_000,
            mixes_per_class: 1,
            nrh_list: vec![1024, 32],
            quiet: true,
            ..HarnessOpts::default()
        }
    }

    #[test]
    fn every_registered_grid_builds() {
        let opts = tiny();
        for name in GRID_NAMES {
            let spec = build_spec(name, &opts).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!spec.is_empty(), "{name} built an empty grid");
            assert_eq!(&spec.name, name);
            // Hashing must succeed for every cell.
            assert_eq!(spec.hashes().len(), spec.len());
            // Every cell ends within its cycle budget: the executor needs
            // no wall-clock watchdog because of it.
            for cell in &spec.cells {
                assert!(
                    cell.config.max_mem_cycles >= 1 << 22,
                    "{name}/{}: max_mem_cycles {}",
                    cell.label,
                    cell.config.max_mem_cycles
                );
            }
        }
        assert!(build_spec("not-a-grid", &opts).is_none());
    }

    #[test]
    fn smoke_grid_is_two_cells() {
        assert_eq!(smoke_grid().len(), 2);
    }

    #[test]
    fn leakage_grid_covers_every_mechanism_with_obs_on() {
        let grid = LeakageGrid::build(&tiny());
        assert_eq!(grid.spec.len(), 1 + MechanismKind::all().len());
        assert_eq!(grid.spec.len(), 12, "baseline + all eleven mechanisms");
        let labels: Vec<_> = grid.spec.cells.iter().map(|c| c.label.clone()).collect();
        assert!(labels.contains(&"Baseline".to_string()));
        assert!(labels.contains(&"Chronus".to_string()));
        for cell in &grid.spec.cells {
            assert!(
                cell.config.obs,
                "{}: leakage cells must carry the probe",
                cell.label
            );
            assert_eq!(cell.config.nrh, LEAKAGE_NRH);
            assert_eq!(cell.config.num_cores, 2, "one benign app + the attacker");
        }
    }

    #[test]
    fn vrd_sweep_is_one_timing_cohort() {
        let grid = VrdSweepGrid::build(&tiny());
        assert_eq!(grid.spec.len(), VRD_SEEDS * VRD_MIN_PCTS.len());
        for cell in &grid.spec.cells {
            assert!(cell.config.oracle, "{}: VRD needs the oracle", cell.label);
            assert!(cell.config.vrd.is_some());
            assert_eq!(cell.config.mechanism, MechanismKind::None);
            // One shared workload and one cohort key: the executor fills
            // the whole grid as one unit.
            assert_eq!(cell.workload, grid.spec.cells[0].workload);
            assert_eq!(
                cell.config.cohort_key(),
                grid.spec.cells[0].config.cohort_key()
            );
        }
        // Distinct cells: every member hashes uniquely.
        let hashes = grid.spec.hashes();
        let unique: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(unique.len(), hashes.len());
    }

    #[test]
    fn spec_building_is_deterministic() {
        let opts = tiny();
        for name in ["fig8", "table4", "perf_attack"] {
            let a = build_spec(name, &opts).unwrap();
            let b = build_spec(name, &opts).unwrap();
            assert_eq!(a.hashes(), b.hashes(), "{name} spec not deterministic");
        }
    }
}
