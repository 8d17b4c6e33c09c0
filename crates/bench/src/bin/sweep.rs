//! `chronus-sweep` — the experiment-grid console.
//!
//! ```text
//! chronus-sweep list   [grid]   [flags]   show grids, or one grid's cells
//! chronus-sweep run    <grid|all> [flags] execute (respects --shard i/N)
//! chronus-sweep status <grid|all> [flags] cache accounting, no simulation
//! chronus-sweep merge  <grid> [flags]     assemble a complete grid from
//!                                         the store (--out FILE for JSON)
//! chronus-sweep fsck   [flags]            verify every store entry;
//!                                         quarantine corrupt ones
//! chronus-sweep gc     [flags]            drop store entries no current
//!                                         grid references
//! ```
//!
//! Exit codes: `0` clean, `2` usage error, `3` degraded — `run` with
//! failed cells (a panic, a run past its cycle budget, a store write),
//! `status`/`merge` over corrupt or failed entries, `fsck` that
//! quarantined anything. Quarantined cells re-enter the grid as plain
//! cache misses: the next `run` re-simulates them. A run
//! killed mid-grid needs no recovery step: its finished cells are in the
//! store, and a plain rerun simulates the rest (reaping stale temp files
//! before its first write).
//!
//! Flags are the shared harness flags (`--instructions`, `--mixes`,
//! `--seed`, `--nrh`, `--threads`, `--shard`, `--grid-dir`, `--no-cache`,
//! `--quiet`, `--out`). Grid specs are derived from these flags, so `gc`
//! keeps exactly the cells the same flags would run.
//!
//! Sharding is the one way to split a grid across processes or machines:
//!
//! ```text
//! machine A$ chronus-sweep run fig8 --shard 1/2 --grid-dir store
//! machine B$ chronus-sweep run fig8 --shard 2/2 --grid-dir store
//! # copy store/ together (files are content-addressed; union is safe)
//! machine A$ chronus-sweep merge fig8 --grid-dir store --out fig8.json
//! ```
//!
//! Two unsharded runs on one store do not divide the work: each simulates
//! every miss it finds. The store stays correct (entries are
//! byte-deterministic and written atomically); only compute is duplicated.

use std::collections::HashSet;

use chronus_bench::grids::{build_spec, GRID_NAMES};
use chronus_bench::opts::{HarnessOpts, ParseOutcome, VALUELESS_FLAGS};
use chronus_bench::{format_table, write_json};
use chronus_grid::{merge, run_grid, EntryState, GridSpec, ResultStore, DEGRADED_EXIT};

fn usage() -> String {
    format!(
        "chronus-sweep: experiment-grid console \
         (list | run | status | merge | fsck | gc)\n\
         grids: {}  (or 'all')\n{}",
        GRID_NAMES.join(" "),
        HarnessOpts::usage("chronus-sweep")
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("chronus-sweep: {msg}");
    eprintln!("try --help");
    std::process::exit(2);
}

fn main() {
    // Positionals (subcommand, grid) come first; everything else is the
    // shared flag set.
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if a.starts_with('-') {
            flags.push(a.clone());
            // Flags with values: forward the value too.
            if !VALUELESS_FLAGS.contains(&a.as_str()) {
                if let Some(v) = args.next() {
                    flags.push(v);
                }
            }
        } else {
            positional.push(a);
        }
    }
    let opts = match HarnessOpts::parse_from(flags) {
        Ok(o) => o,
        Err(ParseOutcome::Help) => {
            eprintln!("{}", usage());
            std::process::exit(0);
        }
        Err(ParseOutcome::Invalid(msg)) => fail(&msg),
    };
    let command = positional.first().map(String::as_str).unwrap_or("list");
    let grid_arg = positional.get(1).map(String::as_str);

    match command {
        "list" => list(grid_arg, &opts),
        "run" => run(grid_arg, &opts),
        "status" => status(grid_arg, &opts),
        "merge" => merge_cmd(grid_arg, &opts),
        "fsck" => fsck(&opts),
        "gc" => gc(&opts),
        other => fail(&format!("unknown command '{other}'")),
    }
}

fn store_of(opts: &HarnessOpts) -> ResultStore {
    chronus_bench::runs::open_store(opts)
}

/// The store for a read-only command, or `None` when its directory does not
/// exist: `list` and `status` report every cell missing rather than create
/// an empty store.
fn existing_store(opts: &HarnessOpts) -> Option<ResultStore> {
    let dir = opts
        .grid_dir
        .clone()
        .unwrap_or_else(ResultStore::default_dir);
    dir.is_dir().then(|| store_of(opts))
}

/// Resolves `all` / a name / `None` into specs.
fn specs_for(grid_arg: Option<&str>, opts: &HarnessOpts) -> Vec<GridSpec> {
    match grid_arg {
        None | Some("all") => GRID_NAMES
            .iter()
            .map(|n| build_spec(n, opts).expect("registered grid"))
            .collect(),
        Some(name) => match build_spec(name, opts) {
            Some(spec) => vec![spec],
            None => fail(&format!(
                "unknown grid '{name}' (known: {} or 'all')",
                GRID_NAMES.join(" ")
            )),
        },
    }
}

fn list(grid_arg: Option<&str>, opts: &HarnessOpts) {
    let store = existing_store(opts);
    let cached = |hash: &str| store.as_ref().is_some_and(|s| s.contains(hash));
    match grid_arg {
        None | Some("all") => {
            let mut rows = Vec::new();
            for spec in specs_for(Some("all"), opts) {
                let hashes = spec.hashes();
                let cached = hashes.iter().filter(|h| cached(h)).count();
                rows.push(vec![
                    spec.name.clone(),
                    spec.len().to_string(),
                    cached.to_string(),
                    (spec.len() - cached).to_string(),
                ]);
            }
            println!(
                "{}",
                format_table(&["grid", "cells", "cached", "missing"], &rows)
            );
        }
        Some(_) => {
            let spec = specs_for(grid_arg, opts).remove(0);
            let hashes = spec.hashes();
            let rows: Vec<Vec<String>> = spec
                .cells
                .iter()
                .zip(&hashes)
                .enumerate()
                .map(|(i, (cell, hash))| {
                    vec![
                        i.to_string(),
                        hash.clone(),
                        if cached(hash) { "yes" } else { "no" }.into(),
                        cell.label.clone(),
                    ]
                })
                .collect();
            println!(
                "{}",
                format_table(&["cell", "hash", "cached", "label"], &rows)
            );
        }
    }
}

fn run(grid_arg: Option<&str>, opts: &HarnessOpts) {
    let store = (!opts.no_cache).then(|| store_of(opts));
    let exec = chronus_bench::runs::exec_opts(opts);
    let mut degraded = false;
    for spec in specs_for(grid_arg, opts) {
        let outcome = run_grid(&spec, store.as_ref(), &exec);
        println!(
            "chronus-sweep: grid={} shard={} {} wall={:.1}s",
            spec.name,
            opts.shard,
            outcome.stats.summary(),
            outcome.wall_seconds
        );
        if outcome.is_degraded() {
            degraded = true;
            for f in &outcome.failures {
                println!(
                    "chronus-sweep: grid={} FAILED cell #{} '{}' ({:?}): {}",
                    spec.name, f.index, f.label, f.kind, f.error
                );
            }
        }
    }
    if degraded {
        eprintln!(
            "chronus-sweep: run degraded — rerun the same command to retry failed cells \
             (completed cells replay from the store)"
        );
        std::process::exit(DEGRADED_EXIT);
    }
}

fn status(grid_arg: Option<&str>, opts: &HarnessOpts) {
    let store = existing_store(opts);
    let mut degraded = false;
    for spec in specs_for(grid_arg, opts) {
        let hashes = spec.hashes();
        // `verify` (not `contains`): a truncated or tampered entry must
        // show up as corrupt here, never crash the accounting.
        let mut cached = 0usize;
        let mut corrupt = 0usize;
        let mut walls = Vec::new();
        if let Some(store) = &store {
            for h in &hashes {
                match store.verify(h) {
                    EntryState::Ok(_) => {
                        cached += 1;
                        if let Some(wall) = store.recorded_wall(h) {
                            walls.push(wall);
                        }
                    }
                    EntryState::Bad(_) => corrupt += 1,
                    EntryState::Missing => {}
                }
            }
        }
        let failed = store
            .as_ref()
            .and_then(|s| s.load_manifest(&spec.name))
            .map_or(0, |m| m.failures.len());
        println!(
            "chronus-sweep: grid={} cells={} cached={} missing={} corrupt={} failed={}{}",
            spec.name,
            hashes.len(),
            cached,
            hashes.len() - cached - corrupt,
            corrupt,
            failed,
            wall_percentiles(&mut walls)
        );
        if corrupt > 0 {
            degraded = true;
            eprintln!(
                "chronus-sweep: grid={} has {corrupt} corrupt entries — \
                 run `chronus-sweep fsck` to quarantine them",
                spec.name
            );
        }
        if failed > 0 {
            degraded = true;
        }
    }
    if degraded {
        std::process::exit(DEGRADED_EXIT);
    }
}

/// Formats the per-grid wall-clock summary from the store's `<hash>.wall`
/// sidecars: ` wall_p50=… wall_p90=… wall_max=…`, or the empty string when
/// no cached cell has a recorded wall-clock (the line stays grep-stable).
fn wall_percentiles(walls: &mut [f64]) -> String {
    if walls.is_empty() {
        return String::new();
    }
    walls.sort_by(f64::total_cmp);
    // Nearest-rank percentile: the smallest recorded wall-clock at or
    // above the requested fraction of the sorted sample.
    let rank = |p: f64| walls[((walls.len() as f64 * p).ceil() as usize).max(1) - 1];
    format!(
        " wall_p50={:.2}s wall_p90={:.2}s wall_max={:.2}s",
        rank(0.50),
        rank(0.90),
        walls[walls.len() - 1]
    )
}

fn merge_cmd(grid_arg: Option<&str>, opts: &HarnessOpts) {
    let Some(name) = grid_arg else {
        fail("merge needs a grid name");
    };
    let store = store_of(opts);
    let specs = specs_for(Some(name), opts);
    if opts.out.is_some() && specs.len() > 1 {
        fail("merge --out needs a single grid name, not 'all' (each grid is one JSON file)");
    }
    let mut degraded = false;
    for spec in specs {
        match merge(&spec, &store) {
            Ok(reports) => {
                println!(
                    "chronus-sweep: grid={} merged={} cells from {}",
                    spec.name,
                    reports.len(),
                    store.dir().display()
                );
                if let Some(path) = &opts.out {
                    write_json(path, &reports);
                }
            }
            Err(holes) => {
                // Distinguish never-ran from corrupt-on-disk: both block
                // the merge, but the remedies differ (run shards vs fsck).
                degraded = true;
                let hashes = spec.hashes();
                let (corrupt, missing): (Vec<usize>, Vec<usize>) = holes
                    .into_iter()
                    .partition(|&i| store.verify(&hashes[i]).is_bad());
                let preview = |idx: &[usize]| -> String {
                    idx.iter()
                        .take(8)
                        .map(|&i| spec.cells[i].label.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                if !missing.is_empty() {
                    eprintln!(
                        "chronus-sweep: grid='{}' incomplete: {} of {} cells missing \
                         (first: {}) — run the remaining shards first",
                        spec.name,
                        missing.len(),
                        spec.len(),
                        preview(&missing)
                    );
                }
                if !corrupt.is_empty() {
                    eprintln!(
                        "chronus-sweep: grid='{}': {} corrupt entries (first: {}) — \
                         run `chronus-sweep fsck`, then rerun the grid",
                        spec.name,
                        corrupt.len(),
                        preview(&corrupt)
                    );
                }
            }
        }
    }
    if degraded {
        std::process::exit(DEGRADED_EXIT);
    }
}

fn fsck(opts: &HarnessOpts) {
    let store = store_of(opts);
    match store.fsck() {
        Ok(report) => {
            println!(
                "chronus-sweep: fsck {} ({})",
                report.summary(),
                store.dir().display()
            );
            for (name, issue) in &report.quarantined {
                println!("chronus-sweep: quarantined {name}: {issue}");
            }
            if !report.quarantined.is_empty() {
                eprintln!(
                    "chronus-sweep: {} entries moved to {} — the next run re-simulates them",
                    report.quarantined.len(),
                    store.quarantine_dir().display()
                );
                std::process::exit(DEGRADED_EXIT);
            }
        }
        Err(e) => fail(&format!("fsck failed: {e}")),
    }
}

fn gc(opts: &HarnessOpts) {
    let store = store_of(opts);
    let mut keep: HashSet<String> = HashSet::new();
    for spec in specs_for(Some("all"), opts) {
        keep.extend(spec.hashes());
    }
    match store.gc(&keep) {
        Ok(removed) => println!(
            "chronus-sweep: gc removed {removed} entries from {} ({} kept)",
            store.dir().display(),
            keep.len()
        ),
        Err(e) => fail(&format!("gc failed: {e}")),
    }
}
