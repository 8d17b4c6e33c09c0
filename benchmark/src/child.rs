//! What one child process does: set a workload up, warm up, run one timed
//! pass (or verify, or run the layer kernels), and describe the result as
//! one JSON document on its standard output.
//!
//! The driver spawns a child per (round, workload), so peak memory is per
//! workload and a panic is a failed operation of that round, not the end
//! of the run.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use chronus_grid::{hash::digest128, ResultStore};
use chronus_sim::{SimReport, System};
use serde::JsonValue;

use crate::host::{self, Probe};
use crate::json::{arr, int, num, obj, string};
use crate::kernels;
use crate::scale::Scale;
use crate::span::{self, Recorder};
use crate::stats;
use crate::workloads::{prepare, sys_share, ExecTotals, GridJob, PassOutput, Prepared, Row};

/// What a child is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up, warm-up, one timed pass with the recorder off.
    Pass,
    /// The same with the recorder on, plus the decomposed grid replay.
    Traced,
    /// The untimed verification pass on the shrunk scale.
    Verify,
    /// The layer kernels.
    Kernels,
}

impl Mode {
    /// The mode called `s` on the command line.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "pass" => Some(Mode::Pass),
            "traced" => Some(Mode::Traced),
            "verify" => Some(Mode::Verify),
            "kernels" => Some(Mode::Kernels),
            _ => None,
        }
    }

    /// The command-line spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Pass => "pass",
            Mode::Traced => "traced",
            Mode::Verify => "verify",
            Mode::Kernels => "kernels",
        }
    }
}

/// One child invocation.
pub struct ChildArgs {
    /// What to do.
    pub mode: Mode,
    /// Which workload.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// The result store of the grid workloads (unused by the others).
    pub store: PathBuf,
    /// How often a grid pass executes its specs, when the driver
    /// overrides the workload's own count (verification serves once).
    pub reps: Option<usize>,
}

/// Digest, size and round-trip check of a pass's reports.
struct Digest {
    hex: String,
    bytes: u64,
    mismatches: Vec<String>,
}

/// Serializes the first `unique` reports to canonical JSON, parses them
/// back (they must compare equal), and digests the text. Reports past
/// `unique` are repeats (grid-warm serves the same cells again) and must
/// equal the report they repeat.
fn digest_reports(reports: &[SimReport], unique: usize, rec: &mut Recorder) -> Digest {
    let mut text = String::new();
    let mut mismatches = Vec::new();
    for (i, report) in reports[..unique].iter().enumerate() {
        let json = rec.time("sim.report.to_json", |_| {
            serde_json::to_string(report).expect("reports always serialize")
        });
        let back: Result<SimReport, _> =
            rec.time("sim.report.from_json", |_| serde_json::from_str(&json));
        if back.ok().as_ref() != Some(report) {
            mismatches.push(format!("report {i}: JSON round trip differs"));
        }
        text.push_str(&json);
        text.push('\n');
    }
    for (i, report) in reports.iter().enumerate().skip(unique) {
        if unique == 0 || *report != reports[i % unique] {
            mismatches.push(format!("report {i}: differs from its first serving"));
        }
    }
    Digest {
        hex: digest128(text.as_bytes()),
        bytes: text.len() as u64,
        mismatches,
    }
}

/// The exact modelled-design counts of a set of reports. A change meant
/// only to speed the simulator up must leave every one identical.
pub fn design_counts(reports: &[SimReport]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::NAN };
    let row_hits = sum(&|r| r.ctrl.row_hits);
    let row_total = row_hits + sum(&|r| r.ctrl.row_misses + r.ctrl.row_conflicts);
    let ipcs: Vec<f64> = reports.iter().flat_map(|r| r.ipc.iter().copied()).collect();
    vec![
        ("sim.mem_cycles", sum(&|r| r.mem_cycles)),
        ("sim.instructions", sum(&SimReport::total_instructions)),
        ("sim.truncated", sum(&|r| u64::from(r.truncated))),
        ("dram.acts", sum(&|r| r.dram.acts)),
        ("dram.reads", sum(&|r| r.dram.reads)),
        ("dram.writes", sum(&|r| r.dram.writes)),
        ("dram.refs", sum(&|r| r.dram.refs)),
        ("dram.rfms", sum(&|r| r.dram.rfms)),
        ("dram.vrrs", sum(&|r| r.dram.vrrs)),
        ("ctrl.back_offs", sum(&|r| r.ctrl.back_offs)),
        ("ctrl.row_hit_ratio", ratio(row_hits, row_total)),
        (
            "ctrl.avg_read_latency_cycles",
            ratio(
                sum(&|r| r.ctrl.read_latency_sum),
                sum(&|r| r.ctrl.reads_served),
            ),
        ),
        (
            "cpu.ipc_mean",
            ratio(ipcs.iter().sum::<f64>(), ipcs.len() as f64),
        ),
        (
            "dram.oracle.max_acts",
            reports
                .iter()
                .filter_map(|r| r.oracle_max_acts)
                .max()
                .map_or(f64::NAN, f64::from),
        ),
        (
            "dram.oracle.flips",
            if reports.iter().any(|r| r.oracle_flips.is_some()) {
                sum(&|r| r.oracle_flips.unwrap_or(0))
            } else {
                f64::NAN
            },
        ),
        (
            "energy.total_mj",
            reports.iter().map(|r| r.energy.total_mj()).sum::<f64>(),
        ),
    ]
}

fn pairs(rows: Vec<(&'static str, f64)>) -> JsonValue {
    obj(rows.into_iter().map(|(k, v)| (k, num(v))))
}

/// What the decomposed, single-threaded grid replay measured beyond its
/// spans.
#[derive(Default)]
struct Replay {
    trace_entries: u64,
    run_mem_cycles: u64,
    run_instructions: u64,
    store_bytes: u64,
    mismatches: Vec<String>,
}

/// Replays the grid pipeline of `job`'s unique cells one public call at a
/// time on this thread — regenerate traces, build, run, put, get — into a
/// store of its own, so each step has a span. This is the single-thread
/// floor the executor's wall-clock is compared with.
fn grid_replay(job: &GridJob, store_dir: &Path, rec: &mut Recorder) -> Replay {
    let mut replay = Replay::default();
    let store = ResultStore::open(store_dir).expect("replay store opens");
    let mut seen = HashSet::new();
    for (spec, hashes) in job.specs.iter().zip(&job.hashes) {
        for (cell, hash) in spec.cells.iter().zip(hashes) {
            if !seen.insert(hash) {
                continue;
            }
            let report = rec.time("grid.simulate_cell", |rec| {
                let traces = rec.time("workloads.traces", |_| {
                    cell.workload.traces(&cell.config.geometry)
                });
                replay.trace_entries += traces.iter().map(|t| t.entries.len() as u64).sum::<u64>();
                let sys = rec.time("sim.build", |_| System::build(&cell.config));
                rec.time("sim.run", |_| sys.run(traces))
            });
            replay.run_mem_cycles += report.mem_cycles;
            replay.run_instructions += report.total_instructions();
            rec.time("grid.store.put", |_| store.put(hash, cell, &report))
                .expect("replay store accepts the entry");
            let back = rec.time("grid.store.get", |_| store.get(hash));
            if back.as_ref() != Some(&report) {
                replay
                    .mismatches
                    .push(format!("{}:{}: store get != put", spec.name, cell.label));
            }
            replay.store_bytes += std::fs::metadata(store.path_of(hash)).map_or(0, |m| m.len());
        }
    }
    replay
}

/// Wall-clock sidecars the executor recorded for the unique cells of
/// `job`.
fn recorded_walls(job: &GridJob) -> Vec<f64> {
    let Some(Ok(store)) = job.opts.grid_dir.as_ref().map(ResultStore::open) else {
        return Vec::new();
    };
    let mut seen = HashSet::new();
    job.hashes
        .iter()
        .flatten()
        .filter(|h| seen.insert(*h))
        .filter_map(|h| store.recorded_wall(h))
        .collect()
}

/// The per-layer metrics a traced pass yields from its spans and the
/// executor's own accounting. `NaN` marks a metric that does not apply to
/// this workload.
fn layer_metrics(
    rec: &Recorder,
    prepared: &Prepared,
    setup_entries: u64,
    pass: &PassOutput,
    digest: &Digest,
    replay: Option<&Replay>,
    walls: &[f64],
) -> Vec<(&'static str, f64)> {
    let (threads, hashed_cells) = match prepared {
        Prepared::Grid(job) => (
            job.opts.threads,
            job.hashes.iter().map(Vec::len).sum::<usize>() as u64,
        ),
        _ => (1, 0),
    };
    let spans = rec.spans();
    let own = |name: &str| span::self_time_of(spans, name);
    let count = |name: &str| span::count_of(spans, name) as f64;
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.duration())
    };
    let per = |seconds: f64, ops: f64| {
        if ops > 0.0 {
            seconds * 1e9 / ops
        } else {
            f64::NAN
        }
    };
    let is_grid = replay.is_some();
    let grid_only = |v: f64| if is_grid { v } else { f64::NAN };
    // `sim.run` spans cover the pass's own reports on the solo workloads
    // and the replay's on the grid workloads.
    let (run_cycles, run_instr) = match replay {
        Some(r) => (r.run_mem_cycles as f64, r.run_instructions as f64),
        None if count("sim.run") > 0.0 => (
            pass.reports.iter().map(|r| r.mem_cycles).sum::<u64>() as f64,
            pass.reports
                .iter()
                .map(SimReport::total_instructions)
                .sum::<u64>() as f64,
        ),
        None => (0.0, 0.0),
    };
    let batch_s = own("sim.run_batch");
    let simulated = pass.exec.simulated as f64;
    let cell_s_sum: f64 = walls.iter().sum();
    let have_walls = is_grid && simulated > 0.0 && !walls.is_empty();
    let if_walls = |v: f64| if have_walls { v } else { f64::NAN };
    let budget = threads as f64 * pass.exec.wall_s;
    vec![
        ("workloads.traces.s", own("workloads.traces")),
        (
            "workloads.traces.entries",
            (setup_entries + replay.map_or(0, |r| r.trace_entries)) as f64,
        ),
        ("sim.build.s", own("sim.build")),
        ("sim.build.count", count("sim.build")),
        ("sim.run.s", own("sim.run")),
        ("sim.run.ns_per_mem_cycle", per(own("sim.run"), run_cycles)),
        ("sim.run.ns_per_instr", per(own("sim.run"), run_instr)),
        ("sim.run_batch.s", batch_s),
        (
            "sim.run_batch.variants_per_s",
            if batch_s > 0.0 {
                pass.reports.len() as f64 / batch_s
            } else {
                f64::NAN
            },
        ),
        ("sim.report.to_json.s", own("sim.report.to_json")),
        ("sim.report.from_json.s", own("sim.report.from_json")),
        ("sim.report.bytes", digest.bytes as f64),
        ("bench.build_spec.s", own("bench.build_spec")),
        ("grid.hash.s", own("grid.hash")),
        ("grid.hash.cells", hashed_cells as f64),
        ("grid.store.put.s", own("grid.store.put")),
        ("grid.store.get.s", own("grid.store.get")),
        (
            "grid.store.bytes",
            replay.map_or(0.0, |r| r.store_bytes as f64),
        ),
        ("grid.simulate_cell.s", total("grid.simulate_cell")),
        ("grid.exec.wall_s", pass.exec.wall_s),
        ("grid.exec.cell_s_sum", if_walls(cell_s_sum)),
        ("grid.exec.overhead_s", if_walls(budget - cell_s_sum)),
        (
            "grid.exec.parallel_eff",
            if_walls(if budget > 0.0 {
                cell_s_sum / budget
            } else {
                f64::NAN
            }),
        ),
        ("grid.exec.cached", grid_only(pass.exec.cached as f64)),
        ("grid.exec.simulated", grid_only(simulated)),
        ("grid.exec.failed", grid_only(pass.exec.failed as f64)),
        ("grid.exec.waited", grid_only(pass.exec.waited as f64)),
        (
            "grid.cell_wall.p50_s",
            if_walls(stats::percentile(walls, 50.0)),
        ),
        (
            "grid.cell_wall.p90_s",
            if_walls(stats::percentile(walls, 90.0)),
        ),
        (
            "grid.cell_wall.max_s",
            if_walls(stats::percentile(walls, 100.0)),
        ),
    ]
}

fn exec_json(e: &ExecTotals) -> JsonValue {
    obj([
        ("wall_s", num(e.wall_s)),
        ("cached", int(e.cached)),
        ("simulated", int(e.simulated)),
        ("failed", int(e.failed)),
        ("waited", int(e.waited)),
    ])
}

fn spans_json(rec: &Recorder) -> JsonValue {
    let own = span::self_times(rec.spans());
    arr(rec.spans().iter().zip(own).map(|(s, own)| {
        obj([
            ("name", string(s.name)),
            (
                "parent",
                s.parent.map_or(JsonValue::Null, |p| int(p as u64)),
            ),
            ("start_s", num(s.start)),
            ("end_s", num(s.end)),
            ("self_s", num(own)),
        ])
    }))
}

fn prepare_at(args: &ChildArgs, scale: &Scale, rec: &mut Recorder) -> Prepared {
    let mut prepared = prepare(&args.workload, scale, args.seed, &args.store, rec);
    if let (Prepared::Grid(job), Some(reps)) = (&mut prepared, args.reps) {
        job.reps = reps;
    }
    prepared
}

/// Set-up, warm-up and one timed pass; the body of [`Mode::Pass`] and
/// [`Mode::Traced`].
fn run_pass(args: &ChildArgs, scale: &Scale) -> JsonValue {
    let traced = args.mode == Mode::Traced;
    let mut rec = Recorder::new(traced);
    // The probe is read on both sides of whatever is timed: the set-ups
    // here, and every segment of the pass in `Prepared::pass`.
    let probe_before = host::calibration_probe();
    let ticks_before = host::cpu_ticks();
    let mut setups = Vec::new();
    let mut prepared = None;
    let repeats = scale.setup_repeats.max(1);
    for i in 1..=repeats {
        drop(prepared.take());
        let t = Instant::now();
        // Only the set-up that is kept leaves spans.
        prepared = Some(if i == repeats {
            rec.time("setup", |rec| prepare_at(args, scale, rec))
        } else {
            prepare_at(args, scale, &mut Recorder::new(false))
        });
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("set up at least once");
    let raw_setup_s = stats::median(&setups);
    let setup_sys_share = sys_share(ticks_before, host::cpu_ticks());
    let setup_probe = Probe::mean(probe_before, host::calibration_probe());

    let t = Instant::now();
    let shrunk = scale.shrunk(scale.warmup_div);
    prepare_at(args, &shrunk, &mut Recorder::new(false)).warm_up();
    let warmup_s = t.elapsed().as_secs_f64();

    // The pass takes the cells' traces with it.
    let setup_entries = prepared.trace_entries();
    let pass = rec.time("pass", |rec| prepared.pass(rec));
    let peak_rss_mb = host::peak_rss_mib();

    // A grid pass that serves its specs `reps` times repeats its reports.
    let grid = match &prepared {
        Prepared::Grid(job) => Some(job),
        _ => None,
    };
    let unique = pass.reports.len() / grid.map_or(1, |job| job.reps.max(1));
    let digest = rec.time("digest", |rec| digest_reports(&pass.reports, unique, rec));
    let mut failures = pass.failures.clone();
    failures.extend(digest.mismatches.iter().cloned());
    failures.extend(
        pass.reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.truncated)
            .map(|(i, r)| format!("report {i} ({}): truncated", r.mechanism)),
    );

    let total = |f: &dyn Fn(&SimReport) -> u64| int(pass.reports.iter().map(f).sum());
    let rows_total = |f: &dyn Fn(&Row) -> f64| pass.rows.iter().map(f).sum::<f64>();
    let mut doc = vec![
        ("workload", string(&args.workload)),
        ("mode", string(args.mode.as_str())),
        (
            "setup_s",
            num(setup_probe.host_seconds(raw_setup_s, setup_sys_share)),
        ),
        (
            "wall_s",
            num(rows_total(&|r| r.probe.host_seconds(r.wall_s, r.sys_share))),
        ),
        (
            "cpu_s",
            num(rows_total(&|r| r.probe.host_seconds(r.cpu_s, r.sys_share))),
        ),
        ("peak_rss_mb", num(peak_rss_mb)),
        ("raw_setup_s", num(raw_setup_s)),
        ("raw_wall_s", num(rows_total(&|r| r.wall_s))),
        ("raw_cpu_s", num(rows_total(&|r| r.cpu_s))),
        ("warmup_s", num(warmup_s)),
        (
            "calib_s",
            num(rows_total(&|r| r.probe.user_s) / pass.rows.len().max(1) as f64),
        ),
        (
            "calib_sys_s",
            num(rows_total(&|r| r.probe.sys_s) / pass.rows.len().max(1) as f64),
        ),
        (
            "sys_share",
            num(rows_total(&|r| r.sys_share * r.cpu_s) / rows_total(&|r| r.cpu_s)),
        ),
        ("cells", int(pass.reports.len() as u64)),
        ("mem_cycles", total(&|r| r.mem_cycles)),
        ("instructions", total(&SimReport::total_instructions)),
        ("digest", string(&digest.hex)),
        ("counts", pairs(design_counts(&pass.reports[..unique]))),
        ("exec", exec_json(&pass.exec)),
        (
            "rows",
            arr(pass.rows.iter().map(|r| {
                obj([
                    ("label", string(&r.label)),
                    ("wall_s", num(r.probe.host_seconds(r.wall_s, r.sys_share))),
                    ("raw_wall_s", num(r.wall_s)),
                    ("raw_cpu_s", num(r.cpu_s)),
                    ("sys_share", num(r.sys_share)),
                    ("probe_user_s", num(r.probe.user_s)),
                    ("probe_sys_s", num(r.probe.sys_s)),
                    ("mem_cycles", int(r.mem_cycles)),
                    ("instructions", int(r.instructions)),
                    ("reports", int(r.reports)),
                ])
            })),
        ),
    ];

    if traced {
        let replay = grid.map(|job| {
            let dir = args.store.with_extension("replay");
            let replay = rec.time("replay", |rec| grid_replay(job, &dir, rec));
            let _ = std::fs::remove_dir_all(&dir);
            replay
        });
        if let Some(r) = &replay {
            failures.extend(r.mismatches.iter().cloned());
        }
        let walls = grid.map(recorded_walls).unwrap_or_default();
        let layer = layer_metrics(
            &rec,
            &prepared,
            setup_entries,
            &pass,
            &digest,
            replay.as_ref(),
            &walls,
        );
        doc.push(("layer", pairs(layer)));
        doc.push(("coverage", num(span::coverage(rec.spans(), "pass"))));
        doc.push((
            "self_time_by_name",
            arr(span::self_time_by_name(rec.spans())
                .into_iter()
                .map(|(name, n, s)| {
                    obj([
                        ("name", string(name)),
                        ("count", int(n)),
                        ("self_s", num(s)),
                    ])
                })),
        ));
        doc.push(("spans", spans_json(&rec)));
    }
    doc.push(("failed", int(failures.len() as u64)));
    doc.push(("failures", arr(failures.into_iter().map(string))));
    obj(doc)
}

/// Runs one child invocation and returns the document it prints.
pub fn run(args: &ChildArgs, scale: &Scale) -> JsonValue {
    match args.mode {
        Mode::Pass | Mode::Traced => run_pass(args, scale),
        Mode::Verify => {
            let shrunk = scale.shrunk(scale.verify_div);
            let (attempted, mismatches) =
                prepare_at(args, &shrunk, &mut Recorder::new(false)).verify();
            obj([
                ("workload", string(&args.workload)),
                ("mode", string(args.mode.as_str())),
                ("attempted", int(attempted)),
                ("failed", int(mismatches.len() as u64)),
                ("failures", arr(mismatches.into_iter().map(string))),
            ])
        }
        Mode::Kernels => {
            let (cfg, trace) = prepare_at(args, scale, &mut Recorder::new(false)).kernel_input();
            let metrics = kernels::run_all(&cfg, &trace, scale, args.seed);
            obj([
                ("workload", string(&args.workload)),
                ("mode", string(args.mode.as_str())),
                ("layer", pairs(metrics.values)),
                ("failed", int(metrics.mismatches.len() as u64)),
                ("failures", arr(metrics.mismatches.into_iter().map(string))),
            ])
        }
    }
}
