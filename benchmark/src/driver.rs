//! The parent process: runs rounds of child processes, verifies outputs,
//! and reports medians.
//!
//! Closed loop, one generator: a round runs each selected workload once,
//! one child after another, and the next round starts when the last child
//! has ended. Rounds interleave the workloads because this kind of box
//! has slow phases lasting seconds; a median over interleaved rounds sees
//! them as outliers instead of as one workload's result.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::JsonValue;

use crate::child::Mode;
use crate::host;
use crate::json::{arr, int, num, obj, render, string, Get};
use crate::metrics::{per_layer, END_TO_END};
use crate::scale::Scale;
use crate::stats::{summarize, Summary};
use crate::workloads::{grid_threads, WORKLOADS};

/// What one invocation of the benchmark was asked for.
pub struct RunOpts {
    /// The repository root (holds `benchmark/` and the simulator).
    pub root: PathBuf,
    /// The workloads to run, in round order.
    pub workloads: Vec<String>,
    /// The workload seed.
    pub seed: u64,
    /// Measuring budget per workload; `None` runs the scale's fixed
    /// number of rounds.
    pub seconds: Option<f64>,
    /// `Some(false)`: end-to-end metrics only. `Some(true)`: the traced
    /// run only. `None`: both.
    pub trace: Option<bool>,
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    /// The workload.
    pub name: String,
    /// Documents of the timed rounds.
    pub rounds: Vec<JsonValue>,
    /// Cells attempted over rounds and verification.
    pub attempted: u64,
    /// What failed, by cell label or check.
    pub failures: Vec<String>,
    /// The traced child's document, when a traced run was made.
    pub traced: Option<JsonValue>,
    /// The kernels child's document, when a traced run was made.
    pub kernels: Option<JsonValue>,
}

impl WorkloadResult {
    /// An empty result for `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            rounds: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            traced: None,
            kernels: None,
        }
    }

    /// The per-round values of one end-to-end metric.
    pub fn round_values(&self, metric: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|doc| {
                let wall = doc.f64_of("wall_s");
                match metric {
                    "sim_mcycles_per_s" => doc.u64_of("mem_cycles") as f64 / 1e6 / wall,
                    "sim_mips" => doc.u64_of("instructions") as f64 / 1e6 / wall,
                    "cells_per_s" => doc.u64_of("cells") as f64 / wall,
                    other => doc.f64_of(other),
                }
            })
            .collect()
    }

    /// The distribution of one end-to-end metric over the accepted
    /// rounds.
    pub fn summary(&self, metric: &str) -> Summary {
        summarize(&self.round_values(metric))
    }

    /// The digest every accepted round agreed on (empty without rounds).
    pub fn digest(&self) -> &str {
        self.rounds.first().map_or("", |d| d.str_of("digest"))
    }

    /// The exact modelled-design counts (identical in every round).
    pub fn counts(&self) -> &[(String, JsonValue)] {
        self.rounds
            .first()
            .or(self.traced.as_ref())
            .map_or(&[], |d| d.obj_of("counts"))
    }

    /// Every per-layer metric by name; `NaN` where it does not apply.
    pub fn layer_values(&self) -> Vec<(&'static str, f64)> {
        let lookup = |name: &str| -> f64 {
            let from = |doc: &Option<JsonValue>, key: &str| {
                doc.as_ref().map_or(f64::NAN, |d| d.field(key).f64_of(name))
            };
            match name {
                "trace.overhead_frac" => {
                    let reference = self.summary("wall_s").median;
                    self.traced
                        .as_ref()
                        .map_or(f64::NAN, |t| t.f64_of("wall_s") / reference - 1.0)
                }
                "host.calib.s" => {
                    let mut probes: Vec<f64> =
                        self.rounds.iter().map(|d| d.f64_of("calib_s")).collect();
                    probes.extend(self.traced.iter().map(|d| d.f64_of("calib_s")));
                    summarize(&probes).median
                }
                _ => [
                    from(&self.traced, "layer"),
                    from(&self.kernels, "layer"),
                    from(&self.traced, "counts"),
                ]
                .into_iter()
                .find(|v| !v.is_nan())
                .unwrap_or(f64::NAN),
            }
        };
        per_layer()
            .iter()
            .map(|m| (m.name, lookup(m.name)))
            .collect()
    }
}

/// Spawns this executable as a child and parses the document it prints.
/// Any way the child can fail — spawn error, non-zero exit (a panic), no
/// parseable document — is an `Err` naming it.
fn spawn_child(
    mode: Mode,
    workload: &str,
    seed: u64,
    store: &Path,
    reps: Option<usize>,
) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode.as_str(), "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .arg("--store")
        .arg(store)
        // The executor reads its fault-injection plan from the
        // environment; a benchmark run must never inherit one.
        .env_remove(chronus_grid::FAULTS_ENV)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(reps) = reps {
        cmd.args(["--reps", &reps.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {} {workload}: {}",
            mode.as_str(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    JsonValue::parse(last).map_err(|e| format!("child {} {workload}: {e}", mode.as_str()))
}

/// One benchmark run in progress.
struct Session<'a> {
    opts: &'a RunOpts,
    scale: &'a Scale,
    scratch: PathBuf,
    results: Vec<WorkloadResult>,
    /// Digest the grid-warm store was filled with.
    warm_fill_digest: Option<String>,
    /// The newest grid-cold store, kept for the served-again check.
    cold_store: Option<PathBuf>,
    /// Passes started, to name fresh stores.
    passes: usize,
}

impl Session<'_> {
    fn result(&mut self, workload: &str) -> &mut WorkloadResult {
        self.results
            .iter_mut()
            .find(|r| r.name == workload)
            .expect("results hold every selected workload")
    }

    /// Folds a child's outcome into `workload`'s attempted and failed
    /// operations; a child that died is one failed operation.
    fn record(
        &mut self,
        workload: &str,
        what: &str,
        attempted_key: &str,
        doc: Result<JsonValue, String>,
    ) -> Option<JsonValue> {
        let r = self.result(workload);
        match doc {
            Ok(doc) => {
                r.attempted += doc.u64_of(attempted_key).max(1);
                r.failures.extend(
                    doc.arr_of("failures")
                        .iter()
                        .map(|f| format!("{what}{}", f.as_str().unwrap_or("?"))),
                );
                Some(doc)
            }
            Err(e) => {
                r.attempted += 1;
                r.failures.push(format!("{what}{e}"));
                None
            }
        }
    }

    /// A pass served from a filled store must simulate nothing and
    /// produce the reports the fill produced.
    fn check_served(&mut self, workload: &str, doc: &JsonValue, filled_digest: &str) {
        let simulated = doc.field("exec").u64_of("simulated");
        let r = self.result(workload);
        if simulated > 0 {
            r.failures
                .push(format!("{simulated} cell(s) simulated from a filled store"));
        }
        if doc.str_of("digest") != filled_digest {
            r.failures
                .push("warm reports differ from the cold reports".into());
        }
    }

    /// One child pass of `workload` against the store it needs: a fresh
    /// one for grid-cold, the once-filled one for grid-warm.
    fn pass(&mut self, workload: &str, mode: Mode) -> Option<JsonValue> {
        let seed = self.opts.seed;
        self.passes += 1;
        let store = match workload {
            "grid-warm" => {
                let store = self.scratch.join("warm");
                if self.warm_fill_digest.is_none() {
                    // Filled once per run by an untimed grid-cold pass.
                    let fill = spawn_child(Mode::Pass, "grid-cold", seed, &store, None);
                    let fill = self.record(workload, "fill: ", "cells", fill);
                    self.warm_fill_digest =
                        Some(fill.map_or_else(String::new, |d| d.str_of("digest").to_string()));
                }
                store
            }
            "grid-cold" => {
                if let Some(old) = self.cold_store.take() {
                    let _ = std::fs::remove_dir_all(old);
                }
                let store = self.scratch.join(format!("cold-{}", self.passes));
                self.cold_store = Some(store.clone());
                store
            }
            _ => self.scratch.join("unused"),
        };
        let doc = spawn_child(mode, workload, seed, &store, None);
        let doc = self.record(workload, "", "cells", doc)?;
        if workload == "grid-warm" {
            let filled = self.warm_fill_digest.clone().unwrap_or_default();
            self.check_served(workload, &doc, &filled);
        }
        Some(doc)
    }

    /// Whether `workload` has had its timed rounds: the fixed number, or
    /// with a `--seconds` budget as many as fit, never fewer than the
    /// floor.
    fn rounds_done(&self, workload: &str, tries: usize, spent_s: f64) -> bool {
        if self.opts.trace == Some(true) {
            // The traced run only needs a reference for its overhead.
            return tries >= self.scale.trace_reference_rounds as usize;
        }
        if workload == "grid-cold" {
            return tries >= self.scale.rounds_grid_cold as usize;
        }
        let floor = self.scale.rounds_floor as usize;
        match self.opts.seconds {
            Some(budget) => tries >= floor && (spent_s >= budget || tries >= 4 * floor),
            None => tries >= self.scale.rounds as usize,
        }
    }

    /// Runs the timed rounds: round r runs every workload once.
    fn timed_rounds(&mut self) {
        let names: Vec<String> = self.results.iter().map(|r| r.name.clone()).collect();
        let mut docs: Vec<Vec<JsonValue>> = names.iter().map(|_| Vec::new()).collect();
        let mut tries = vec![0usize; names.len()];
        let mut spent = vec![0.0f64; names.len()];
        loop {
            let mut ran = false;
            for (w, name) in names.iter().enumerate() {
                if self.rounds_done(name, tries[w], spent[w]) {
                    continue;
                }
                let t = Instant::now();
                docs[w].extend(self.pass(name, Mode::Pass));
                tries[w] += 1;
                spent[w] += t.elapsed().as_secs_f64();
                ran = true;
            }
            if !ran {
                break;
            }
        }
        for (w, name) in names.iter().enumerate() {
            let r = self.result(name);
            r.rounds = std::mem::take(&mut docs[w]);
            let first = r.digest().to_string();
            if r.rounds.iter().any(|d| d.str_of("digest") != first) {
                r.failures.push("sim_digest drifted between rounds".into());
            }
        }
    }

    /// The always-on, untimed verification pass of `workload`.
    fn verify(&mut self, workload: &str) {
        let seed = self.opts.seed;
        match workload {
            // Every warm pass was already compared with the cold fill.
            "grid-warm" => {}
            // Serve the newest cold store again: nothing may simulate and
            // the reports must be byte-equal.
            "grid-cold" => {
                let Some(store) = self.cold_store.clone() else {
                    return;
                };
                let served = spawn_child(Mode::Pass, "grid-warm", seed, &store, Some(1));
                if let Some(doc) = self.record(workload, "verify: ", "cells", served) {
                    let r = self.result(workload);
                    let cold = r.rounds.last();
                    let cold = cold.map_or("", |d| d.str_of("digest")).to_string();
                    self.check_served(workload, &doc, &cold);
                }
            }
            _ => {
                let doc = spawn_child(Mode::Verify, workload, seed, &self.scratch, None);
                self.record(workload, "verify: ", "attempted", doc);
            }
        }
    }

    /// The traced run of `workload`: one traced pass and the kernels.
    fn traced_run(&mut self, workload: &str) {
        let traced = self.pass(workload, Mode::Traced);
        self.result(workload).traced = traced;
        let unused = self.scratch.join("unused");
        let kernels = spawn_child(Mode::Kernels, workload, self.opts.seed, &unused, None);
        let kernels = self.record(workload, "kernels: ", "attempted", kernels);
        self.result(workload).kernels = kernels;
    }
}

/// Runs the benchmark as `opts` asks and returns one result per selected
/// workload.
pub fn run(opts: &RunOpts, scale: &Scale) -> Vec<WorkloadResult> {
    // The result stores of this run; removed when it ends.
    let scratch = out_dir(&opts.root).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("benchmark/out is writable");
    let mut session = Session {
        opts,
        scale,
        scratch: scratch.clone(),
        results: opts
            .workloads
            .iter()
            .map(|w| WorkloadResult::new(w))
            .collect(),
        warm_fill_digest: None,
        cold_store: None,
        passes: 0,
    };
    session.timed_rounds();
    if opts.trace != Some(true) {
        for w in &opts.workloads {
            session.verify(w);
        }
    }
    if opts.trace != Some(false) {
        for w in &opts.workloads {
            session.traced_run(w);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    session.results
}

/// `benchmark/out/` under `root`.
pub fn out_dir(root: &Path) -> PathBuf {
    root.join("benchmark").join("out")
}

fn summary_json(s: &Summary, values: &[f64]) -> JsonValue {
    obj([
        ("median", num(s.median)),
        ("min", num(s.min)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("max", num(s.max)),
        ("n", int(s.n as u64)),
        ("spread", num(s.spread())),
        ("values", arr(values.iter().map(|v| num(*v)))),
    ])
}

/// The output header: what was measured, on what, at which scale.
pub fn header(opts: &RunOpts, scale: &Scale, unix: u64) -> JsonValue {
    let out = out_dir(&opts.root);
    obj([
        ("utc", string(host::utc_stamp(unix))),
        ("git_sha", string(host::git_sha(&opts.root))),
        ("rustc", string(host::rustc_version(&opts.root))),
        ("nproc", int(host::nproc() as u64)),
        ("cpu_model", string(host::cpu_model())),
        ("out_fs_type", string(host::fs_type(&out))),
        ("sim_version", int(u64::from(chronus_grid::SIM_VERSION))),
        ("seed", int(opts.seed)),
        ("seconds", opts.seconds.map_or(JsonValue::Null, num)),
        ("grid_threads", int(grid_threads(scale) as u64)),
        (
            "release_profile",
            obj(std::env::vars()
                .filter(|(k, _)| k.starts_with("CARGO_PROFILE_RELEASE_"))
                .map(|(k, v)| (k, string(v)))),
        ),
        (
            "scale",
            obj(scale.fields().into_iter().map(|(k, v)| (k, int(v)))),
        ),
    ])
}

fn workload_json(r: &WorkloadResult) -> JsonValue {
    let failed = r.failures.len() as u64;
    obj([
        ("workload", string(&r.name)),
        ("attempted", int(r.attempted)),
        ("failed", int(failed)),
        (
            "fail_frac",
            num(if r.attempted > 0 {
                failed as f64 / r.attempted as f64
            } else {
                f64::NAN
            }),
        ),
        ("failures", arr(r.failures.iter().map(string))),
        ("sim_digest", string(r.digest())),
        ("counts", JsonValue::Obj(r.counts().to_vec())),
        (
            "end_to_end",
            obj(END_TO_END.iter().map(|m| {
                let values = r.round_values(m.name);
                (m.name, summary_json(&summarize(&values), &values))
            })),
        ),
        (
            "per_layer",
            obj(r.layer_values().into_iter().map(|(name, v)| (name, num(v)))),
        ),
        ("rounds", arr(r.rounds.iter().cloned())),
        ("traced", r.traced.clone().unwrap_or(JsonValue::Null)),
        ("kernels", r.kernels.clone().unwrap_or(JsonValue::Null)),
    ])
}

/// Prints every metric of every result by name and unit.
pub fn print_report(header: &JsonValue, results: &[WorkloadResult], show_layers: bool) {
    println!("# chronus-benchmark {}", render(header, false));
    for r in results {
        println!();
        println!(
            "## {}  ({} rounds; attempted {}, failed {}; sim_digest {})",
            r.name,
            r.rounds.len(),
            r.attempted,
            r.failures.len(),
            r.digest()
        );
        if !r.rounds.is_empty() {
            println!(
                "{:<20} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3} {:>7}",
                "end-to-end", "unit", "median", "min", "q1", "q3", "max", "n", "spread"
            );
            for m in &END_TO_END {
                let s = r.summary(m.name);
                println!(
                    "{:<20} {:>6} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>3} {:>6.2}%",
                    m.name,
                    m.unit,
                    s.median,
                    s.min,
                    s.q1,
                    s.q3,
                    s.max,
                    s.n,
                    s.spread() * 100.0
                );
            }
            // As measured, before scaling by the calibration probe.
            for raw in ["raw_wall_s", "raw_cpu_s", "raw_setup_s", "calib_s"] {
                let s = r.summary(raw);
                println!(
                    "{raw:<20} {:>6} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>3} {:>6.2}%",
                    "s",
                    s.median,
                    s.min,
                    s.q1,
                    s.q3,
                    s.max,
                    s.n,
                    s.spread() * 100.0
                );
            }
            let failed = r.failures.len() as f64;
            println!(
                "{:<20} {:>6} {:>12.5}",
                "fail_frac",
                "ratio",
                failed / r.attempted.max(1) as f64
            );
        }
        if show_layers && r.traced.is_some() {
            println!("{:<34} {:>7} {:>16}", "per-layer", "unit", "value");
            let layers = per_layer();
            for ((name, v), m) in r.layer_values().into_iter().zip(&layers) {
                let value = if v.is_nan() {
                    "null".to_string()
                } else {
                    format!("{v:.6}")
                };
                println!("{name:<34} {:>7} {value:>16}", m.unit);
            }
            if let Some(t) = &r.traced {
                println!(
                    "spans cover {:.1}% of the traced pass",
                    t.f64_of("coverage") * 100.0
                );
            }
        }
        for f in &r.failures {
            println!("FAILED {}: {f}", r.name);
        }
    }
}

/// Writes `benchmark/out/<utc>-<sha>.json` and appends the summary line
/// to `benchmark/out/history.jsonl`. Returns the file written.
pub fn write_outputs(
    opts: &RunOpts,
    header: &JsonValue,
    results: &[WorkloadResult],
) -> std::io::Result<PathBuf> {
    let dir = out_dir(&opts.root);
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-{}", header.str_of("utc"), header.str_of("git_sha"));
    // Two runs inside one second (the driver's short runs) get a suffix.
    let path = (0..)
        .map(|i| match i {
            0 => dir.join(format!("{stem}.json")),
            i => dir.join(format!("{stem}.{i}.json")),
        })
        .find(|p| !p.exists())
        .expect("some suffix is free");
    let full = obj([
        ("header", header.clone()),
        ("workloads", arr(results.iter().map(workload_json))),
    ]);
    std::fs::write(&path, render(&full, true))?;

    let line = obj([
        ("utc", string(header.str_of("utc"))),
        ("git_sha", string(header.str_of("git_sha"))),
        ("seed", int(opts.seed)),
        (
            "file",
            string(path.file_name().unwrap_or_default().to_string_lossy()),
        ),
        (
            "workloads",
            obj(results.iter().map(|r| {
                let mut members: Vec<(String, JsonValue)> = END_TO_END
                    .iter()
                    .filter(|_| !r.rounds.is_empty())
                    .map(|m| (m.name.to_string(), num(r.summary(m.name).median)))
                    .collect();
                members.push(("failed".into(), int(r.failures.len() as u64)));
                members.push(("attempted".into(), int(r.attempted)));
                members.push(("sim_digest".into(), string(r.digest())));
                (r.name.clone(), JsonValue::Obj(members))
            })),
        ),
    ]);
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?;
    writeln!(history, "{}", render(&line, false))?;
    Ok(path)
}

/// The one-line result the driver reads: end-to-end medians with
/// `traced = false`, per-layer values with `traced = true`. A per-layer
/// metric that does not apply to the workload reads 0 here (the line must
/// carry a number); the run's JSON file has `null`.
pub fn contract_line(r: &WorkloadResult, traced: bool) -> String {
    let metric = |name: &str, unit: &str, v: f64| {
        (
            name.to_string(),
            obj([
                ("value", num(if v.is_finite() { v } else { 0.0 })),
                ("unit", string(unit)),
            ]),
        )
    };
    let metrics: Vec<(String, JsonValue)> = if traced {
        let layers = per_layer();
        r.layer_values()
            .into_iter()
            .zip(&layers)
            .map(|((name, v), m)| metric(name, m.unit, v))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| metric(m.name, m.unit, r.summary(m.name).median))
            .collect()
    };
    let failed = r.failures.len() as u64;
    render(
        &obj([
            ("correct", JsonValue::Bool(failed == 0)),
            ("attempted", int(r.attempted.max(1))),
            ("failed", int(failed.min(r.attempted.max(1)))),
            ("metrics", JsonValue::Obj(metrics)),
        ]),
        false,
    )
}

/// Compares two runs of the same code. Returns the lines to print and
/// whether the two agree: every end-to-end median within its bound, and
/// every modelled-design count and digest identical.
pub fn selfcheck(a: &[WorkloadResult], b: &[WorkloadResult]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut agree = true;
    for (ra, rb) in a.iter().zip(b) {
        for m in &END_TO_END {
            let (sa, sb) = (ra.summary(m.name), rb.summary(m.name));
            let change = (sb.median - sa.median) / sa.median;
            let spread = sa.spread().max(sb.spread());
            let verdict = if change.is_nan() || change.abs() > m.bound {
                agree = false;
                "DIFFERS"
            } else if spread > m.bound {
                "unresolved"
            } else {
                "unchanged"
            };
            lines.push(format!(
                "{:<18} {:<18} {:>12.5} {:>12.5} {:>+7.2}% (bound {:.0}%, spread {:.2}%) {verdict}",
                ra.name,
                m.name,
                sa.median,
                sb.median,
                change * 100.0,
                m.bound * 100.0,
                spread * 100.0
            ));
        }
        if ra.digest() != rb.digest() || ra.counts() != rb.counts() {
            agree = false;
            lines.push(format!(
                "{:<18} modelled-design counts or sim_digest DIFFER between the two runs",
                ra.name
            ));
        }
        if !ra.failures.is_empty() || !rb.failures.is_empty() {
            agree = false;
            lines.push(format!("{:<18} has failed operations", ra.name));
        }
    }
    (lines, agree)
}

/// Every workload name, in round order.
pub fn all_workloads() -> Vec<String> {
    WORKLOADS.iter().map(|w| w.name.to_string()).collect()
}
