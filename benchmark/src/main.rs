//! Command line of the benchmark; `run.sh` builds and execs this.

use std::path::PathBuf;
use std::process::ExitCode;

use chronus_benchmark::child::{self, ChildArgs, Mode};
use chronus_benchmark::driver::{self, RunOpts};
use chronus_benchmark::json::render;
use chronus_benchmark::metrics::benchmark_json;
use chronus_benchmark::scale::Scale;
use chronus_benchmark::workloads::is_workload;

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME]... [--seed N] [--seconds S] \
[--trace 0|1] [--selfcheck]
  no --workload   every workload, rounds interleaved, then a traced run of each
  --workload NAME one workload (repeatable); with exactly one, the last line of
                  output is the one-line JSON result
  --seed N        workload seed (default 11)
  --seconds S     measuring budget per workload instead of the fixed rounds
  --trace 0|1     0: end-to-end metrics only; 1: the traced run only
  --selfcheck     run twice and fail when two medians differ by more than a bound";

struct Cli {
    root: PathBuf,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    selfcheck: bool,
    emit_benchmark_json: bool,
    child: Option<Mode>,
    store: PathBuf,
    reps: Option<usize>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        workloads: Vec::new(),
        seed: 11,
        seconds: None,
        trace: None,
        selfcheck: false,
        emit_benchmark_json: false,
        child: None,
        store: PathBuf::new(),
        reps: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let bad = |v: &str| format!("{flag}: invalid value '{v}'");
        match flag.as_str() {
            "--root" => cli.root = PathBuf::from(value()?),
            "--workload" => {
                let v = value()?;
                if !is_workload(&v) {
                    return Err(format!("--workload: unknown workload '{v}'"));
                }
                cli.workloads.push(v);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&v));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                cli.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                });
            }
            "--selfcheck" => cli.selfcheck = true,
            "--emit-benchmark-json" => cli.emit_benchmark_json = true,
            "--child" => {
                let v = value()?;
                cli.child = Some(Mode::parse(&v).ok_or_else(|| bad(&v))?);
            }
            "--store" => cli.store = PathBuf::from(value()?),
            "--reps" => {
                let v = value()?;
                cli.reps = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("chronus-benchmark: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::FULL;

    if cli.emit_benchmark_json {
        println!("{}", render(&benchmark_json(), true));
        return ExitCode::SUCCESS;
    }

    if let Some(mode) = cli.child {
        let [workload] = &cli.workloads[..] else {
            eprintln!("chronus-benchmark: --child takes exactly one --workload");
            return ExitCode::from(2);
        };
        let doc = child::run(
            &ChildArgs {
                mode,
                workload: workload.clone(),
                seed: cli.seed,
                store: cli.store,
                reps: cli.reps,
            },
            &scale,
        );
        println!("{}", render(&doc, false));
        return ExitCode::SUCCESS;
    }

    let single = cli.workloads.len() == 1;
    let opts = RunOpts {
        root: cli.root,
        workloads: if cli.workloads.is_empty() {
            driver::all_workloads()
        } else {
            cli.workloads
        },
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };

    let mut ok = true;
    let mut runs = Vec::new();
    for _ in 0..if cli.selfcheck { 2 } else { 1 } {
        let unix = chronus_benchmark::host::unix_seconds();
        let results = driver::run(&opts, &scale);
        let header = driver::header(&opts, &scale, unix);
        driver::print_report(&header, &results, opts.trace != Some(false));
        match driver::write_outputs(&opts, &header, &results) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("chronus-benchmark: writing results: {e}");
                ok = false;
            }
        }
        ok &= results.iter().all(|r| r.failures.is_empty());
        runs.push(results);
    }
    if let [a, b] = &runs[..] {
        let (lines, agree) = driver::selfcheck(a, b);
        println!("\n## selfcheck: first run vs second run");
        for line in lines {
            println!("{line}");
        }
        println!("selfcheck: {}", if agree { "PASS" } else { "FAIL" });
        ok &= agree;
    }
    if single {
        let last = runs.last().expect("at least one run");
        println!(
            "{}",
            driver::contract_line(&last[0], opts.trace == Some(true))
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
