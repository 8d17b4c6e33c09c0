//! The named experiment-grid registry.
//!
//! Every simulation-driven figure and table is one entry here: a function
//! of the harness options returning a [`Figure`], the grid's cells together
//! with the renderer that turns their reports into the figure's text and
//! `--out` rows. [`build_spec`] hands an entry's cells to `chronus-sweep`
//! and the benchmark, and every figure binary is [`crate::figure_main`]
//! over the same entry. So `chronus-sweep run fig8 --shard 1/2` on one
//! machine + `--shard 2/2` on another, followed by `fig8` against the
//! merged store, reads exactly the cells the two shards filled.

use chronus_core::MechanismKind;
use chronus_ctrl::AddressMapping;
use chronus_dram::TimingMode;
use chronus_grid::{AppTrace, AttackSpec, CellSpec, GridOutcome, GridSpec, WorkloadSpec};
use chronus_security::{chronus_secure_nbo, dbc_chronus, dbc_prac};
use chronus_sim::{SimConfig, SimReport, VrdSpec};
use chronus_workloads::{all_profiles, eight_core_spec17_profiles, four_core_mixes};
use serde::Serialize;

use crate::opts::HarnessOpts;
use crate::runs::{
    harness_config, mix_config, mix_workload, trace_instructions, AppSweep, MixSweep, SweepRow,
};
use crate::tables::{format_table, geomean, to_json};

/// A figure's renderer: outcome → (stdout text, `--out` JSON).
type Render = Box<dyn Fn(&GridOutcome) -> (String, String)>;

/// A registered grid: its cells and how a figure binary renders them.
pub struct Figure {
    /// The declarative grid.
    pub spec: GridSpec,
    /// Renders an outcome as the binary's stdout text and its `--out`
    /// JSON rows; `None` for the grids no binary renders (`vrd-sweep`,
    /// `smoke`).
    pub render: Option<Render>,
}

impl Figure {
    /// A figure whose renderer assembles `rows` from an outcome, prints
    /// them through `text` and serialises them for `--out`.
    fn new<R: Serialize>(
        spec: GridSpec,
        rows: impl Fn(&GridOutcome) -> Vec<R> + 'static,
        text: impl Fn(&[R]) -> String + 'static,
    ) -> Self {
        let render = move |outcome: &GridOutcome| {
            let rows = rows(outcome);
            (text(&rows), to_json(&rows))
        };
        Self {
            spec,
            render: Some(Box::new(render)),
        }
    }
}

/// A registry entry: builds its grid's figure for the given options.
type Entry = fn(&HarnessOpts) -> Figure;

/// Every registered grid's name and its entry.
const REGISTRY: [(&str, Entry); 13] = [
    ("fig4", fig4),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig12", fig12),
    ("fig14_15", fig14_15),
    ("table4", table4),
    ("ablation", ablation),
    ("perf_attack", perf_attack),
    ("leakage", leakage),
    ("vrd-sweep", vrd_sweep),
    ("smoke", smoke),
];

/// Every registered grid's name, in registry order: the order of
/// `chronus-sweep list` and `run all` (`all_figures` runs its own subset
/// in its own order).
pub const GRID_NAMES: &[&str] = &{
    let mut names = [""; REGISTRY.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = REGISTRY[i].0;
        i += 1;
    }
    names
};

/// The figure registered under `name`, built for `opts`; `None` for
/// unknown names.
pub fn figure(name: &str, opts: &HarnessOpts) -> Option<Figure> {
    let (_, entry) = REGISTRY.iter().find(|(n, _)| *n == name)?;
    Some(entry(opts))
}

/// The cells of the grid registered under `name`, with the entry's own
/// option forcing (e.g. Fig. 7 truncates long N_RH sweeps to {1024, 32}).
///
/// Returns `None` for unknown names.
pub fn build_spec(name: &str, opts: &HarnessOpts) -> Option<GridSpec> {
    figure(name, opts).map(|f| f.spec)
}

/// `--nrh`, forced down to a figure's two `published` points when it is
/// longer than two.
fn published_points(opts: &HarnessOpts, published: [u32; 2]) -> Vec<u32> {
    if opts.nrh_list.len() > 2 {
        published.to_vec()
    } else {
        opts.nrh_list.clone()
    }
}

/// Fig. 7's N_RH points: at most two, {1024, 32} for a longer sweep.
pub fn fig7_nrh_list(opts: &HarnessOpts) -> Vec<u32> {
    published_points(opts, [1024, 32])
}

/// Moves a typed sweep's spec out for its [`Figure`], leaving an empty one
/// behind: the sweep keeps only the cell indices its rows read.
fn take(spec: &mut GridSpec) -> GridSpec {
    std::mem::replace(spec, GridSpec::new(""))
}

/// The mechanisms of `rows`, in order of first appearance.
fn mechanism_order(rows: &[SweepRow]) -> Vec<String> {
    let mut order: Vec<String> = Vec::new();
    for r in rows {
        if !order.contains(&r.mechanism) {
            order.push(r.mechanism.clone());
        }
    }
    order
}

/// Pivots sweep rows into a mechanism × N_RH table of geometric means.
fn pivot_geomean(
    rows: &[SweepRow],
    nrh_list: &[u32],
    value: fn(&SweepRow) -> f64,
) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for mech in &mechanism_order(rows) {
        let mut line = vec![mech.clone()];
        for &nrh in nrh_list {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| &r.mechanism == mech && r.nrh == nrh)
                .map(value)
                .collect();
            let unsafe_marker = rows
                .iter()
                .any(|r| &r.mechanism == mech && r.nrh == nrh && !r.secure);
            let g = geomean(&vals);
            line.push(if vals.is_empty() {
                "-".into()
            } else if unsafe_marker {
                format!("{g:.3}!")
            } else {
                format!("{g:.3}")
            });
        }
        out.push(line);
    }
    out
}

/// `title`, then the mechanism × N_RH table of `value`'s geomeans.
fn pivot_text(
    title: &str,
    rows: &[SweepRow],
    nrh_list: &[u32],
    value: fn(&SweepRow) -> f64,
) -> String {
    let mut headers = vec!["mechanism".to_string()];
    headers.extend(nrh_list.iter().map(|n| format!("N_RH={n}")));
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table = format_table(&headers, &pivot_geomean(rows, nrh_list, value));
    format!("{title}\n{table}\n")
}

/// A mix sweep printed as `title` over the mechanism × N_RH geomeans of
/// `value` (Fig. 4, 8, 10 and 12).
fn mix_pivot(
    mut sweep: MixSweep,
    title: String,
    nrh_list: &[u32],
    value: fn(&SweepRow) -> f64,
) -> Figure {
    let nrh_list = nrh_list.to_vec();
    Figure::new(
        take(&mut sweep.spec),
        move |outcome| sweep.rows(outcome),
        move |rows| pivot_text(&title, rows, &nrh_list, value),
    )
}

/// Fig. 4: the PRAC and RFM configurations on the four-core mixes.
fn fig4(opts: &HarnessOpts) -> Figure {
    let mechs = [
        MechanismKind::Prac4,
        MechanismKind::Prac2,
        MechanismKind::Prac1,
        MechanismKind::PracPrfm,
        MechanismKind::Prfm,
    ];
    let sweep = MixSweep::build("fig4", &mechs, &opts.nrh_list, opts, &|_| {});
    let title = format!(
        "Fig. 4: normalized weighted speedup, {} four-core mixes ('!' = not wave-attack secure)",
        opts.mixes_per_class * 6
    );
    mix_pivot(sweep, title, &opts.nrh_list, |r| r.ws_norm)
}

/// Fig. 7: the seven headline mechanisms on one core across the
/// 57-application roster, at N_RH = 1024 and 32.
fn fig7(opts: &HarnessOpts) -> Figure {
    let nrh_list = fig7_nrh_list(opts);
    let apps = all_profiles();
    let mut sweep = AppSweep::build(
        "fig7",
        &apps,
        MechanismKind::headline(),
        &nrh_list,
        opts,
        1,
        false,
    );
    let text = move |rows: &[SweepRow]| {
        let mech_order = mechanism_order(rows);
        let mut headers = vec!["application"];
        headers.extend(mech_order.iter().map(String::as_str));
        // The Fig. 7 x-axis applications (most memory-intensive first).
        let mut shown: Vec<&str> = apps
            .iter()
            .filter(|p| p.mpki >= 3.0)
            .map(|p| p.name)
            .collect();
        shown.truncate(20);
        let mut text = String::new();
        for &nrh in &nrh_list {
            let mut table: Vec<Vec<String>> = shown
                .iter()
                .map(|app| {
                    let mut line = vec![app.to_string()];
                    line.extend(mech_order.iter().map(|mech| {
                        rows.iter()
                            .find(|r| r.workload == *app && &r.mechanism == mech && r.nrh == nrh)
                            .map_or_else(|| "-".into(), |r| format!("{:.3}", r.ws_norm))
                    }));
                    line
                })
                .collect();
            let mut geo_line = vec![format!("geomean({})", apps.len())];
            geo_line.extend(mech_order.iter().map(|mech| {
                let vals: Vec<f64> = rows
                    .iter()
                    .filter(|r| &r.mechanism == mech && r.nrh == nrh)
                    .map(|r| r.ws_norm)
                    .collect();
                format!("{:.4}", geomean(&vals))
            }));
            table.push(geo_line);
            text += &format!(
                "\nFig. 7 (N_RH = {nrh}): normalized speedup per application\n{}\n",
                format_table(&headers, &table)
            );
        }
        text
    };
    Figure::new(take(&mut sweep.spec), move |o| sweep.rows(o), text)
}

/// Fig. 8: the seven headline mechanisms across N_RH on the four-core
/// mixes.
fn fig8(opts: &HarnessOpts) -> Figure {
    let sweep = MixSweep::build(
        "fig8",
        MechanismKind::headline(),
        &opts.nrh_list,
        opts,
        &|_| {},
    );
    let title = format!(
        "Fig. 8: normalized weighted speedup, {} four-core mixes ('!' = not secure)",
        opts.mixes_per_class * 6
    );
    mix_pivot(sweep, title, &opts.nrh_list, |r| r.ws_norm)
}

/// Fig. 9: the headline mechanisms per mix-intensity class at N_RH = 32.
fn fig9(opts: &HarnessOpts) -> Figure {
    let mut sweep = MixSweep::build("fig9", MechanismKind::headline(), &[32], opts, &|_| {});
    let text = |rows: &[SweepRow]| {
        let classes = ["HHHH", "HHMM", "LLHH", "MMMM", "MMLL", "LLLL"];
        let ws = |mech: &str, class: Option<&str>| -> Vec<f64> {
            rows.iter()
                .filter(|r| r.mechanism == mech && class.is_none_or(|c| r.class == c))
                .map(|r| r.ws_norm)
                .collect()
        };
        let table: Vec<Vec<String>> = mechanism_order(rows)
            .into_iter()
            .map(|mech| {
                let mut line = vec![mech.clone()];
                for class in classes {
                    let vals = ws(&mech, Some(class));
                    line.push(if vals.is_empty() {
                        "-".into()
                    } else {
                        format!("{:.3}", geomean(&vals))
                    });
                }
                line.push(format!("{:.3}", geomean(&ws(&mech, None))));
                line
            })
            .collect();
        let mut headers = vec!["mechanism"];
        headers.extend(classes);
        headers.push("geomean");
        format!(
            "Fig. 9: normalized weighted speedup by mix intensity at N_RH = 32\n{}\n",
            format_table(&headers, &table)
        )
    };
    Figure::new(take(&mut sweep.spec), move |o| sweep.rows(o), text)
}

/// Fig. 10: DRAM energy of the headline mechanisms across N_RH.
fn fig10(opts: &HarnessOpts) -> Figure {
    let sweep = MixSweep::build(
        "fig10",
        MechanismKind::headline(),
        &opts.nrh_list,
        opts,
        &|_| {},
    );
    let title = format!(
        "Fig. 10: DRAM energy normalized to no-mitigation baseline ({} mixes, higher = worse)",
        opts.mixes_per_class * 6
    );
    mix_pivot(sweep, title, &opts.nrh_list, |r| r.energy_norm)
}

/// Fig. 12 (Appendix C): Chronus vs ABACuS with everything (alone runs,
/// baseline and sweep cells) under the ABACuS address mapping.
fn fig12(opts: &HarnessOpts) -> Figure {
    let sweep = MixSweep::build(
        "fig12",
        &[MechanismKind::Chronus, MechanismKind::Abacus],
        &opts.nrh_list,
        opts,
        &|cfg| cfg.mapping = Some(AddressMapping::AbacusMop),
    );
    let title = "Fig. 12: Chronus vs ABACuS (ABACuS address mapping), normalized WS".to_string();
    mix_pivot(sweep, title, &opts.nrh_list, |r| r.ws_norm)
}

/// Fig. 14 + 15 (Appendix E): PRAC-4 on the eight-core homogeneous
/// SPEC CPU2017 workloads with the 4.5× larger LLC.
fn fig14_15(opts: &HarnessOpts) -> Figure {
    let mut sweep = AppSweep::build(
        "fig14_15",
        &eight_core_spec17_profiles(),
        &[MechanismKind::Prac4],
        &opts.nrh_list,
        opts,
        8,
        true,
    );
    let nrh_list = opts.nrh_list.clone();
    let text = move |rows: &[SweepRow]| {
        pivot_text(
            "Fig. 14: PRAC-4 normalized WS, 23 eight-core homogeneous SPEC17 workloads, 36 MiB LLC",
            rows,
            &nrh_list,
            |r| r.ws_norm,
        ) + &pivot_text(
            "Fig. 15: PRAC-4 normalized DRAM energy, same setup",
            rows,
            &nrh_list,
            |r| r.energy_norm,
        )
    };
    Figure::new(take(&mut sweep.spec), move |o| sweep.rows(o), text)
}

/// One Table 4 output row.
#[derive(Serialize)]
struct Table4Row {
    /// RowHammer threshold.
    nrh: u32,
    /// Performance overhead with the pre-erratum (buggy) PRAC timings.
    four_core_overhead_old: f64,
    /// Performance overhead with the fixed timings.
    four_core_overhead_new: f64,
    /// Energy overhead with the pre-erratum timings.
    energy_overhead_old: f64,
    /// Energy overhead with the fixed timings.
    energy_overhead_new: f64,
}

/// Table 4 (Appendix E): PRAC-4 overheads with the pre-erratum ("old") and
/// fixed ("new") timings. Per mix one baseline cell, and per (N_RH, mix)
/// an old and a new PRAC-4 cell.
fn table4(opts: &HarnessOpts) -> Figure {
    let mixes = four_core_mixes(opts.mixes_per_class, opts.seed);
    let mut spec = GridSpec::new("table4");
    let baseline: Vec<usize> = mixes
        .iter()
        .map(|mix| {
            spec.push(CellSpec::new(
                format!("{}:baseline", mix.name),
                mix_workload(&mix.apps, opts),
                mix_config(MechanismKind::None, 1024, opts),
            ))
        })
        .collect();
    // (nrh, mix, old cell, new cell).
    let mut jobs = Vec::new();
    for &nrh in &opts.nrh_list {
        for (m, mix) in mixes.iter().enumerate() {
            let new_cfg = mix_config(MechanismKind::Prac4, nrh, opts);
            let old_cfg = SimConfig {
                timing_override: Some(TimingMode::PracBuggy),
                ..new_cfg.clone()
            };
            let old = spec.push(CellSpec::new(
                format!("{}:prac4-old@{nrh}", mix.name),
                mix_workload(&mix.apps, opts),
                old_cfg,
            ));
            let new = spec.push(CellSpec::new(
                format!("{}:prac4-new@{nrh}", mix.name),
                mix_workload(&mix.apps, opts),
                new_cfg,
            ));
            jobs.push((nrh, m, old, new));
        }
    }
    // Per-N_RH rows (N_RH points taken from the jobs, in build order); a
    // point with any cell missing (partial shard) is skipped.
    let rows = move |outcome: &GridOutcome| {
        let ipc_sum = |r: &SimReport| r.ipc.iter().sum::<f64>();
        let mut nrh_list = Vec::new();
        for &(nrh, ..) in &jobs {
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
            for &(job_nrh, m, old_cell, new_cell) in &jobs {
                if job_nrh != nrh {
                    continue;
                }
                let (Some(old), Some(new), Some(base)) = (
                    outcome.reports[old_cell].as_ref(),
                    outcome.reports[new_cell].as_ref(),
                    outcome.reports[baseline[m]].as_ref(),
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
    };
    let text = |rows: &[Table4Row]| {
        let pct = |v: f64| format!("{:.1}%", v * 100.0);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                vec![
                    row.nrh.to_string(),
                    pct(row.four_core_overhead_old),
                    pct(row.four_core_overhead_new),
                    pct(row.energy_overhead_old),
                    pct(row.energy_overhead_new),
                ]
            })
            .collect();
        format!(
            "Table 4: PRAC-4 overheads, pre-erratum (old) vs fixed (new) timings\n{}\n",
            format_table(
                &["N_RH", "perf old", "perf new", "energy old", "energy new"],
                &table
            )
        )
    };
    Figure::new(spec, rows, text)
}

/// The §11 attacker: 8 rows in each of 4 banks, crafted against MOP.
const ATTACK: AttackSpec = AttackSpec {
    mapping: AddressMapping::Mop,
    banks: 4,
    rows: 8,
};

/// One ablation output row.
#[derive(Serialize)]
struct AblationRow {
    /// Mechanism label.
    mechanism: String,
    /// Forced back-off threshold.
    nbo: u32,
    /// Whether the attacked run stayed wave-secure.
    secure: bool,
    /// Benign weighted-speedup loss under attack.
    benign_ws_loss: f64,
    /// Back-offs honoured in the attacked run.
    back_offs: u64,
    /// RFMs issued in the attacked run.
    rfms: u64,
}

/// The ablation's fixed RowHammer threshold (the paper's N_RH = 20 point).
const ABLATION_NRH: u32 = 20;

/// The ablation's N_BO sweep.
const ABLATION_NBOS: [u32; 5] = [1, 2, 4, 8, 16];

/// The N_BO ablation: per (mechanism, N_BO), a calm cell (four benign
/// apps) and an attacked cell (three benign + the attacker).
fn ablation(opts: &HarnessOpts) -> Figure {
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
        attack: ATTACK,
    };
    let mut spec = GridSpec::new("ablation");
    // (mechanism, nbo, calm cell, attacked cell).
    let mut jobs = Vec::new();
    for &mech in &[MechanismKind::Prac4, MechanismKind::Chronus] {
        for &nbo in &ABLATION_NBOS {
            // The config's own seed rather than `--seed`, which keeps the
            // ablation's cell keys.
            let base = SimConfig::four_core();
            let cfg = SimConfig {
                mechanism: mech,
                nrh: ABLATION_NRH,
                threshold_override: Some(nbo),
                seed: base.seed,
                ..harness_config(base, opts, 8000)
            };
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
    // Pairs with a missing cell are skipped.
    let rows = move |outcome: &GridOutcome| {
        let ws = |r: &SimReport| r.ipc[..3].iter().sum::<f64>();
        let mut rows = Vec::new();
        for &(mech, nbo, calm_cell, attacked_cell) in &jobs {
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
    };
    let text = |rows: &[AblationRow]| {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.mechanism.clone(),
                    r.nbo.to_string(),
                    if r.secure { "yes" } else { "NO" }.into(),
                    format!("{:.1}%", r.benign_ws_loss * 100.0),
                    r.back_offs.to_string(),
                    r.rfms.to_string(),
                ]
            })
            .collect();
        let headers = [
            "mechanism",
            "N_BO",
            "wave-secure",
            "benign WS loss",
            "back-offs",
            "RFMs",
        ];
        format!(
            "Ablation: N_BO vs performance-attack damage at N_RH = {ABLATION_NRH}\n{}\n\
             Reading: PRAC must run at tiny N_BO to stay wave-secure — and tiny N_BO\n\
             multiplies attacker-triggered refreshes. Chronus stays secure at N_BO = 16.\n",
            format_table(&headers, &table)
        )
    };
    Figure::new(spec, rows, text)
}

/// One §11 attack output row.
#[derive(Serialize)]
struct AttackRow {
    /// Mechanism label.
    mechanism: String,
    /// RowHammer threshold.
    nrh: u32,
    /// Geomean benign weighted-speedup loss across mixes.
    ws_loss_avg: f64,
    /// Worst benign weighted-speedup loss.
    ws_loss_max: f64,
    /// Worst single-application slowdown.
    max_slowdown: f64,
}

/// The §11 performance-attack study: per (mechanism, N_RH, mix), an
/// attacked cell (three benign + the attacker) and a reference cell (the
/// attacker replaced by the lightest app), after the theoretical DRAM
/// bandwidth an attacker can burn with preventive refreshes.
fn perf_attack(opts: &HarnessOpts) -> Figure {
    let nrh_list = published_points(opts, [128, 20]);
    let mixes = four_core_mixes(opts.mixes_per_class, opts.seed);
    // PRAC-4 runs at the paper's published N_BO = 1 (its wave-secure
    // configuration per the paper's more pessimistic attack model);
    // Chronus at its derived threshold.
    let mechs = [
        (MechanismKind::Prac4, Some(1u32)),
        (MechanismKind::Chronus, None),
    ];
    let trace_instructions = trace_instructions(opts);
    let mut spec = GridSpec::new("perf_attack");
    // (mechanism, nrh, per-mix (attacked cell, reference cell)).
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
                let cfg = SimConfig {
                    mechanism: mech,
                    nrh,
                    threshold_override: nbo_override,
                    ..harness_config(SimConfig::four_core(), opts, 6000)
                };
                let attacked = spec.push(CellSpec::new(
                    format!("{}:{}@{nrh}:attacked", mix.name, mech.label()),
                    WorkloadSpec::AppsWithAttacker {
                        apps: benign.clone(),
                        trace_instructions,
                        attack: ATTACK,
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
    // (mechanism, N_RH) points with any missing mix are skipped.
    let rows = move |outcome: &GridOutcome| {
        let benign_ws = |r: &SimReport| r.ipc[..3].iter().sum::<f64>();
        let mut rows = Vec::new();
        for (mech, nrh, cells) in &jobs {
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
    };
    let text = |rows: &[AttackRow]| {
        let prac = dbc_prac(1, 4, 350.0, 52.0);
        let chronus = dbc_chronus(chronus_secure_nbo(20, 3).unwrap(), 350.0, 47.0);
        let pct = |v: f64| format!("{:.1}%", v * 100.0);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.mechanism.clone(),
                    r.nrh.to_string(),
                    pct(r.ws_loss_avg),
                    pct(r.ws_loss_max),
                    pct(r.max_slowdown),
                ]
            })
            .collect();
        let headers = [
            "mechanism",
            "N_RH",
            "avg WS loss",
            "max WS loss",
            "max slowdown",
        ];
        format!(
            "§11 theoretical DRAM bandwidth consumption by preventive refreshes (N_RH = 20):\n  \
             PRAC-4 (N_BO=1):      {:.0}%  (paper: 94%)\n  \
             Chronus (N_BO=16):    {:.0}%  (paper: 32%)\n\n\
             §11 simulated attack: benign-core performance loss (attacker: 8 rows x 4 banks)\n\
             {}\n",
            prac * 100.0,
            chronus * 100.0,
            format_table(&headers, &table)
        )
    };
    Figure::new(spec, rows, text)
}

/// One timing-leakage output row.
#[derive(Serialize)]
struct LeakageRow {
    /// Mechanism label.
    mechanism: String,
    /// RowHammer threshold.
    nrh: u32,
    /// Shannon entropy of the attacker core's read-latency distribution.
    attacker_latency_entropy_bits: f64,
    /// Shannon entropy of the aggregate read-latency distribution.
    latency_entropy_bits: f64,
    /// Shannon entropy of the merged inter-CAS gap distribution.
    gap_entropy_bits: f64,
    /// Shannon entropy of the hit/miss/conflict outcome mix.
    outcome_entropy_bits: f64,
    /// Shannon entropy of the mitigation-pause duration distribution.
    pause_entropy_bits: f64,
    /// Memory cycles demand issue was blocked by mitigation work.
    pause_cycles: u64,
    /// `pause_cycles` as a fraction of simulated memory cycles.
    pause_fraction: f64,
    /// Composite score the figure ranks by: attacker latency entropy +
    /// gap entropy + pause entropy. Higher = more timing signal exposed.
    leakage_score: f64,
}

/// The fixed RowHammer threshold of the leakage study: low enough that
/// every mechanism actually fires its mitigations under the probe attack.
const LEAKAGE_NRH: u32 = 64;

/// The timing-leakage study: one obs-enabled cell per mechanism (the
/// unprotected baseline plus all eleven mitigations) under a fixed probe
/// workload of one benign app and the §11 attacker, ranked by leakage
/// score.
fn leakage(opts: &HarnessOpts) -> Figure {
    let workload = WorkloadSpec::AppsWithAttacker {
        apps: vec![AppTrace::new("429.mcf", 0, opts.seed)],
        trace_instructions: trace_instructions(opts),
        attack: ATTACK,
    };
    let mut spec = GridSpec::new("leakage");
    // (mechanism, cell).
    let mut jobs = Vec::new();
    for &mech in std::iter::once(&MechanismKind::None).chain(MechanismKind::all()) {
        let cfg = SimConfig {
            mechanism: mech,
            nrh: LEAKAGE_NRH,
            mapping: Some(AddressMapping::Mop),
            obs: true,
            ..harness_config(SimConfig::four_core(), opts, 6000)
        };
        let cell = spec.push(CellSpec::new(mech.label(), workload.clone(), cfg));
        jobs.push((mech, cell));
    }
    // Ranked by descending leakage score; cells that are missing (partial
    // shard) or lack an obs section are skipped.
    let rows = move |outcome: &GridOutcome| {
        // The attacker is appended after the benign apps, so it is the
        // last core of the two-core probe workload.
        let attacker_core = 1;
        let mut rows = Vec::new();
        for &(mech, cell) in &jobs {
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
    };
    let text = |rows: &[LeakageRow]| {
        let bits = |v: f64| format!("{v:.3}");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.mechanism.clone(),
                    bits(r.leakage_score),
                    bits(r.attacker_latency_entropy_bits),
                    bits(r.gap_entropy_bits),
                    bits(r.pause_entropy_bits),
                    bits(r.outcome_entropy_bits),
                    format!("{:.2}%", r.pause_fraction * 100.0),
                ]
            })
            .collect();
        let headers = [
            "mechanism",
            "leakage score",
            "attacker H(lat)",
            "H(gap)",
            "H(pause)",
            "H(outcome)",
            "paused",
        ];
        format!(
            "Timing-channel leakage ranking at N_RH = {LEAKAGE_NRH} (probe: 429.mcf + attacker)\n\
             {}\n\
             Reading: the score sums the entropies (bits) of the timing distributions an\n\
             attacker can sample. Mechanisms that stall demand traffic in data-dependent\n\
             patterns rank high; the baseline bounds the channel floor of plain DRAM.\n",
            format_table(&headers, &table)
        )
    };
    Figure::new(spec, rows, text)
}

/// Seed samples per `min_pct` point of the VRD sweep.
const VRD_SEEDS: usize = 16;

/// The `min_pct` points of the VRD sweep: the degenerate (scalar-
/// equivalent) distribution and a 2× spread.
const VRD_MIN_PCTS: [u32; 2] = [100, 50];

/// The Variable Read Disturbance Monte-Carlo study: an unmitigated
/// single-core 429.mcf run whose ground-truth oracle samples per-row
/// thresholds from `[nrh·min_pct/100, nrh]`, swept over [`VRD_SEEDS`]
/// sampling seeds per [`VRD_MIN_PCTS`] point. Every cell shares one
/// workload and differs only in oracle parameters, so the entire grid is
/// one timing cohort: the executor fills it with one multi-lane
/// [`chronus_sim::System::run_batch`] simulation.
fn vrd_sweep(opts: &HarnessOpts) -> Figure {
    let workload = WorkloadSpec::Apps {
        apps: vec![AppTrace::new("429.mcf", 0, opts.seed)],
        trace_instructions: trace_instructions(opts),
    };
    let nominal = opts.nrh_list.first().copied().unwrap_or(1024);
    let mut spec = GridSpec::new("vrd-sweep");
    for min_pct in VRD_MIN_PCTS {
        for s in 0..VRD_SEEDS {
            let cfg = SimConfig {
                nrh: nominal,
                oracle: true,
                vrd: Some(VrdSpec {
                    min_pct,
                    seed: opts.seed + s as u64,
                }),
                ..harness_config(SimConfig::single_core(), opts, 6000)
            };
            let label = format!("vrd{min_pct}#{s}");
            spec.push(CellSpec::new(label, workload.clone(), cfg));
        }
    }
    Figure { spec, render: None }
}

/// The deliberately tiny two-cell grid the CI smoke job runs twice to
/// prove the second pass is 100% cache hits. It is fixed: no flag changes
/// its cells.
fn smoke(_: &HarnessOpts) -> Figure {
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
    Figure { spec, render: None }
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

    /// The figure binaries and the grid each renders.
    const FIGURE_BINS: [(&str, &str); 11] = [
        ("fig4", "fig4"),
        ("fig7", "fig7"),
        ("fig8", "fig8"),
        ("fig9", "fig9"),
        ("fig10", "fig10"),
        ("fig12", "fig12"),
        ("fig14_15", "fig14_15"),
        ("table4", "table4"),
        ("perf_attack", "perf_attack"),
        ("ablation", "ablation"),
        ("leakage_report", "leakage"),
    ];

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
        // Every figure binary renders a registered grid, and is nothing
        // but the call that does so.
        for (bin, grid) in FIGURE_BINS {
            let figure = figure(grid, &opts).unwrap_or_else(|| panic!("{bin}: '{grid}' missing"));
            assert!(figure.render.is_some(), "{bin}: '{grid}' has no renderer");
            let path = format!("{}/src/bin/{bin}.rs", env!("CARGO_MANIFEST_DIR"));
            let main = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(
                main.contains(&format!("figure_main(\"{bin}\", \"{grid}\")")),
                "{path} does not render '{grid}'"
            );
        }
    }

    #[test]
    fn every_grid_honours_obs() {
        for obs in [false, true] {
            let opts = HarnessOpts { obs, ..tiny() };
            for name in GRID_NAMES {
                // `leakage` always carries the probe; `smoke` ignores
                // every flag.
                let want = match *name {
                    "leakage" => true,
                    "smoke" => false,
                    _ => obs,
                };
                for cell in &build_spec(name, &opts).unwrap().cells {
                    assert_eq!(cell.config.obs, want, "{name}/{}", cell.label);
                }
            }
        }
    }

    #[test]
    fn a_partial_outcome_renders_without_panicking() {
        // A shard that holds none of a grid's cells renders every figure's
        // headers and an empty JSON row list.
        let opts = tiny();
        for (bin, grid) in FIGURE_BINS {
            let figure = figure(grid, &opts).unwrap();
            let outcome = GridOutcome {
                reports: vec![None; figure.spec.len()],
                stats: Default::default(),
                failures: Vec::new(),
                wall_seconds: 0.0,
            };
            let (text, json) = (figure.render.unwrap())(&outcome);
            assert!(!text.is_empty(), "{bin}: no text");
            assert_eq!(json, "[]", "{bin}");
        }
    }

    #[test]
    fn smoke_grid_is_two_cells() {
        assert_eq!(build_spec("smoke", &tiny()).unwrap().len(), 2);
    }

    #[test]
    fn leakage_grid_covers_every_mechanism_with_obs_on() {
        let spec = build_spec("leakage", &tiny()).unwrap();
        assert_eq!(spec.len(), 1 + MechanismKind::all().len());
        assert_eq!(spec.len(), 12, "baseline + all eleven mechanisms");
        let labels: Vec<_> = spec.cells.iter().map(|c| c.label.clone()).collect();
        assert!(labels.contains(&"Baseline".to_string()));
        assert!(labels.contains(&"Chronus".to_string()));
        for cell in &spec.cells {
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
        let spec = build_spec("vrd-sweep", &tiny()).unwrap();
        assert_eq!(spec.len(), VRD_SEEDS * VRD_MIN_PCTS.len());
        for cell in &spec.cells {
            assert!(cell.config.oracle, "{}: VRD needs the oracle", cell.label);
            assert!(cell.config.vrd.is_some());
            assert_eq!(cell.config.mechanism, MechanismKind::None);
            // One shared workload and one cohort key: the executor fills
            // the whole grid as one unit.
            assert_eq!(cell.workload, spec.cells[0].workload);
            assert_eq!(cell.config.cohort_key(), spec.cells[0].config.cohort_key());
        }
        // Distinct cells: every member hashes uniquely.
        let hashes = spec.hashes();
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
