//! The grid executor: cache lookup, shard filtering, fault-isolated
//! parallel simulation, store write-back, and the order-preserving merge.
//!
//! The unit of work is a *timing cohort*: the owned misses that share a
//! workload and a [`SimConfig::cohort_key`] simulate cycle-identically, so
//! one unit generates their traces once and runs them as one
//! [`System::run_batch`] (a unit of one is a batch of one). Every member
//! keeps its own hash, store entry and wall sidecar, and its entry is
//! byte-identical to a solo fill. A Monte-Carlo sweep over oracle-only
//! parameters (VRD seeds) fills as one simulation; any other grid runs one
//! unit per distinct cell.
//!
//! A cell's outcome is a function of the cell. Each unit simulates once, on
//! its worker, behind one `catch_unwind`; nothing is retried, because a
//! simulation that panicked once panics again. A panic, or a report that
//! ran past the cell's `max_mem_cycles` (`truncated`), is recorded in a
//! [`FailureManifest`] instead of aborting the run, and such a report is
//! neither stored nor returned. A store write is tried once too: a failed
//! one is recorded as `StoreWrite`, its report is still returned, and the
//! next run re-simulates the cell. Every loop iteration advances the memory
//! clock, so the cycle budget ends every run when `max_mem_cycles > 0`
//! (every registered grid sets it) and no wall-clock watchdog is needed. A
//! degraded grid still completes every healthy cell, persists everything
//! it computed, and reports the casualties.
//!
//! Processes split a grid with `--shard i/N` ([`Shard`]) and assemble it
//! with [`merge`]; they never coordinate. Entries are byte-deterministic
//! and written through a temp file and a rename, so two unsharded runs
//! racing on one store both simulate every miss they find: duplicate
//! compute, never corruption. The failure manifest is merged under the
//! store lock, so racing writers keep each other's records.
//!
//! A pass served entirely from the store reads its entries and writes
//! nothing: stale temp files are reaped only once the pass owns a miss,
//! before its first write, and the store lock is taken only for a failure
//! to record or a manifest file to heal.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use chronus_sim::{try_run_parallel, SimConfig, SimReport, System};
use serde::{Deserialize, Serialize};

use crate::cell::CellSpec;
use crate::faults::FaultPlan;
use crate::hash::cell_hash;
use crate::progress::Progress;
use crate::shard::Shard;
use crate::spec::GridSpec;
use crate::store::{ManifestState, ResultStore, STALE_TMP_AGE};

/// Process exit code of a run that completed in degraded mode (some cells
/// failed permanently and are listed in the failure manifest). Distinct
/// from `2` (usage errors) so scripts can tell "rerun me" from "fix the
/// invocation".
pub const DEGRADED_EXIT: i32 = 3;

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker threads for cell simulation.
    pub threads: usize,
    /// The shard this process owns (default: the full grid).
    pub shard: Shard,
    /// Progress/ETA lines on stderr.
    pub progress: bool,
    /// Deterministic fault injection at the executor boundary (see
    /// [`crate::faults`]); `None` (the default) costs nothing.
    pub faults: Option<FaultPlan>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8),
            shard: Shard::full(),
            progress: true,
            faults: None,
        }
    }
}

/// What one [`run_grid`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Cells in the spec.
    pub total: usize,
    /// Cells satisfied from the result store.
    pub cached: usize,
    /// Cells simulated by this process.
    pub simulated: usize,
    /// Cells owned by other shards and not yet in the store.
    pub skipped: usize,
    /// Cells that failed (a panic or a run past the cycle budget) and have
    /// no report.
    pub failed: usize,
    /// Always 0: an executor never waits on another process's work (racing
    /// runs each simulate their misses). Kept because the benchmark harness
    /// reads it.
    pub waited: usize,
}

impl ExecStats {
    /// `cells=N cached=C simulated=S skipped=K failed=F` — the
    /// machine-readable form the CI smoke jobs grep.
    pub fn summary(&self) -> String {
        format!(
            "cells={} cached={} simulated={} skipped={} failed={}",
            self.total, self.cached, self.simulated, self.skipped, self.failed
        )
    }
}

/// How a cell (or its persistence) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The simulation panicked.
    Panic,
    /// The simulation ran past its `max_mem_cycles` budget: its report is
    /// `truncated`, so it is neither stored nor returned.
    Budget,
    /// The simulation succeeded but the result could not be persisted;
    /// the in-memory report was still returned.
    StoreWrite,
}

/// One permanently failed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Position of the (representative) cell in the spec.
    pub index: usize,
    /// The cell's display label.
    pub label: String,
    /// The cell's content hash.
    pub hash: String,
    /// Failure class.
    pub kind: FailureKind,
    /// The error observed (panic payload, budget note, or the I/O error).
    pub error: String,
}

/// The persisted record of a degraded run: which cells failed, how, and
/// under which shard. Written to `<store>/failures/<grid>.json` whenever a
/// run ends with failures. Updates merge under the store lock: a later run
/// (any shard) drops every recorded failure whose cell now verifies in the
/// store and the manifest disappears once nothing is left — so sharded
/// reruns and [`merge`] heal it exactly like unsharded ones. `shard`
/// records the last writer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureManifest {
    /// Grid name.
    pub grid: String,
    /// The shard that produced this manifest (`"1/1"` when unsharded).
    pub shard: String,
    /// The failures, in spec order.
    pub failures: Vec<CellFailure>,
}

impl FailureManifest {
    /// Whether the manifest records no failures.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The result of one grid execution.
#[derive(Debug)]
pub struct GridOutcome {
    /// One slot per spec cell, in spec order; `None` means the cell belongs
    /// to another shard and was not in the store, or failed permanently
    /// (see [`Self::failures`]).
    pub reports: Vec<Option<SimReport>>,
    /// Cache/shard accounting.
    pub stats: ExecStats,
    /// Cells that failed in this run (simulation failures leave their
    /// report slots empty; store-write failures do not).
    pub failures: Vec<CellFailure>,
    /// Wall-clock of the whole call in seconds.
    pub wall_seconds: f64,
}

impl GridOutcome {
    /// Whether every cell has a report.
    pub fn is_complete(&self) -> bool {
        self.reports.iter().all(Option::is_some)
    }

    /// Whether this run should exit with [`DEGRADED_EXIT`].
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// Simulates one cell (trace regeneration + full system run).
pub fn simulate_cell(cell: &CellSpec) -> SimReport {
    let traces = cell.workload.traces(&cell.config.geometry);
    System::build(&cell.config).run(traces)
}

/// Renders a panic payload for the failure record.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Simulates one timing cohort: the members share a workload and a
/// [`SimConfig::cohort_key`], so their traces are generated once and one
/// [`System::run_batch`] returns every member's report, each equal to its
/// [`simulate_cell`].
fn simulate_cohort(cells: &[&CellSpec]) -> Vec<SimReport> {
    let traces = cells[0].workload.traces(&cells[0].config.geometry);
    let cfgs: Vec<SimConfig> = cells.iter().map(|c| c.config.clone()).collect();
    System::run_batch(&cfgs, &traces)
}

/// What one worker produced for one owned cell.
struct CellDone {
    report: SimReport,
    /// Persistence failed (the report itself is still good).
    store_failure: Option<CellFailure>,
}

/// A simulated member's report and the wall-clock of the simulation that
/// produced it (a cohort is one simulation: every member records the whole
/// unit's wall), or the panic message.
type Simulated = Result<(SimReport, f64), String>;

/// Groups the owned misses (representative spec indices, ascending) into
/// units of work, one per timing cohort: cells sharing a workload and a
/// [`SimConfig::cohort_key`], keyed by one content hash — [`cell_hash`] of
/// the cell with its config replaced by its cohort key. Units are ordered
/// by their first member, members by spec index.
fn plan_units(cells: &[CellSpec], owned: &[usize]) -> Vec<Vec<usize>> {
    let mut unit_of: HashMap<String, usize> = HashMap::new();
    let mut units: Vec<Vec<usize>> = Vec::new();
    for &i in owned {
        let cohort = CellSpec {
            config: cells[i].config.cohort_key(),
            ..cells[i].clone()
        };
        match unit_of.entry(cell_hash(&cohort)) {
            Entry::Occupied(u) => units[*u.get()].push(i),
            Entry::Vacant(slot) => {
                slot.insert(units.len());
                units.push(vec![i]);
            }
        }
    }
    units.sort_unstable_by_key(|u| u[0]);
    units
}

/// What every unit's worker shares: the run's spec, store and progress
/// line.
struct UnitRunner<'a> {
    cells: &'a [CellSpec],
    hashes: &'a [String],
    store: Option<&'a ResultStore>,
    progress: &'a Progress,
    opts: &'a ExecOpts,
}

impl UnitRunner<'_> {
    /// Runs one unit: simulates its members as one cohort and settles each
    /// member. A cohort that panics (an injected fault of any member
    /// included) runs each member alone, so only the panicking ones are
    /// recorded; a cohort over budget does not, because its members are
    /// cycle-identical.
    fn run(&self, members: Vec<usize>) -> Vec<(usize, Result<CellDone, CellFailure>)> {
        let n = members.len();
        let simulated: Vec<Simulated> = match self.simulate(&members) {
            Ok((reports, wall)) => reports.into_iter().map(|r| Ok((r, wall))).collect(),
            Err(error) if n > 1 => {
                let label = format!("cohort of {}", self.cells[members[0]].label);
                let note = format!("{error}; running its {n} members one by one");
                self.progress.cell_failed(&label, &note);
                members
                    .iter()
                    .map(|&i| self.simulate(&[i]).map(|(mut r, wall)| (r.remove(0), wall)))
                    .collect()
            }
            Err(error) => vec![Err(error)],
        };
        members
            .iter()
            .zip(simulated)
            .map(|(&i, result)| (i, self.settle(i, result)))
            .collect()
    }

    /// Simulates `members` as one cohort on this worker, behind one
    /// `catch_unwind`, after each member's injected fault; returns the
    /// reports in member order and the wall-clock, or the panic message.
    fn simulate(&self, members: &[usize]) -> Result<(Vec<SimReport>, f64), String> {
        let started = Instant::now();
        let faults = self.opts.faults.as_ref();
        let reports = catch_unwind(AssertUnwindSafe(|| {
            for &i in members {
                let hash = &self.hashes[i];
                if faults.is_some_and(|f| f.exec_fault(hash)) {
                    panic!("injected fault: panic (cell {hash})");
                }
            }
            let cells: Vec<&CellSpec> = members.iter().map(|&i| &self.cells[i]).collect();
            simulate_cohort(&cells)
        }))
        .map_err(panic_message)?;
        Ok((reports, started.elapsed().as_secs_f64()))
    }

    /// Settles member `i`: a panic or a report past the cycle budget is a
    /// failure; any other report is persisted, its entry, then its wall
    /// sidecar.
    fn settle(&self, i: usize, simulated: Simulated) -> Result<CellDone, CellFailure> {
        let cell = &self.cells[i];
        let hash = self.hashes[i].as_str();
        let failure = |kind, error: String| CellFailure {
            index: i,
            label: cell.label.clone(),
            hash: hash.to_string(),
            kind,
            error,
        };
        let (report, wall) = simulated.map_err(|error| {
            self.progress.cell_failed(&cell.label, &error);
            failure(FailureKind::Panic, error)
        })?;
        if report.truncated {
            let error = format!(
                "ran past its cycle budget (max_mem_cycles = {})",
                cell.config.max_mem_cycles
            );
            self.progress.cell_failed(&cell.label, &error);
            return Err(failure(FailureKind::Budget, error));
        }
        self.progress.cell_done(&cell.label);
        let mut store_failure = None;
        if let Some(store) = self.store {
            match store.put(hash, cell, &report) {
                Ok(()) => store.record_wall(hash, wall),
                Err(e) => {
                    eprintln!(
                        "chronus-grid: failed to persist cell {hash} to {}: {e}",
                        store.dir().display()
                    );
                    store_failure = Some(failure(FailureKind::StoreWrite, e.to_string()));
                }
            }
        }
        Ok(CellDone {
            report,
            store_failure,
        })
    }
}

/// Executes a grid: serves cached cells from `store`, simulates the misses
/// this shard owns (in parallel, each unit fault-isolated), and
/// persists every fresh result. `store: None` disables caching entirely —
/// every owned cell re-simulates and nothing touches the filesystem.
///
/// Identical cells (same content hash) appearing at several spec positions
/// are simulated once and fanned out to all positions; cells of one timing
/// cohort are simulated together (see the module docs).
///
/// A failing cell never aborts the run: a cell that panics or runs past
/// its cycle budget is simulated once and recorded in
/// [`GridOutcome::failures`] (and, when a store is present, persisted as a
/// [`FailureManifest`]) while every other cell completes normally; a failed
/// store write is recorded too, and its report still returned. A cohort
/// that panics (an injected fault of any member included) runs as units of
/// one; faults are pure in the cell, so every cell's outcome equals its
/// solo outcome.
pub fn run_grid(spec: &GridSpec, store: Option<&ResultStore>, opts: &ExecOpts) -> GridOutcome {
    let started = Instant::now();
    let hashes = spec.hashes();
    let mut reports: Vec<Option<SimReport>> = vec![None; spec.cells.len()];
    let mut stats = ExecStats {
        total: spec.cells.len(),
        ..ExecStats::default()
    };

    // Cache pass. Deduplicate lookups so a hash shared by many cells is
    // read once.
    let mut by_hash: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, h) in hashes.iter().enumerate() {
        by_hash.entry(h.as_str()).or_default().push(i);
    }
    let mut pending: Vec<usize> = Vec::new(); // representative indices
    for (hash, indices) in &by_hash {
        match store.and_then(|s| s.get(hash)) {
            Some(report) => {
                stats.cached += indices.len();
                for &i in indices {
                    reports[i] = Some(report.clone());
                }
            }
            None => pending.push(indices[0]),
        }
    }

    // Shard filter: a duplicated hash is owned by the shard owning its
    // first (representative) position.
    pending.sort_unstable();
    let (owned, foreign): (Vec<usize>, Vec<usize>) =
        pending.into_iter().partition(|&i| opts.shard.owns(i));
    for i in foreign {
        stats.skipped += by_hash[hashes[i].as_str()].len();
    }

    // The temp-file reap exists for the cells this run simulates; a pass
    // that owns no miss lists no directory.
    if let Some(s) = store.filter(|_| !owned.is_empty()) {
        match s.reap_tmp_older_than(STALE_TMP_AGE) {
            Ok(0) | Err(_) => {}
            Ok(n) => eprintln!(
                "chronus-grid: reaped {n} stale temp file(s) from {} (crash leftovers)",
                s.dir().display()
            ),
        }
    }

    // Simulate the owned misses, one timing cohort per unit of work, each
    // isolated. Store writes happen inside the worker, so a unit's entries
    // land as soon as it finishes.
    let units = plan_units(&spec.cells, &owned);
    let progress = Progress::new(&spec.name, owned.len(), opts.progress);
    let runner = UnitRunner {
        cells: &spec.cells,
        hashes: &hashes,
        store,
        progress: &progress,
        opts,
    };
    let worker_results = try_run_parallel(units.clone(), opts.threads, |unit| runner.run(unit));

    // Fan-out and accounting. Worker-level panics (outside the per-unit
    // guard) are demoted to failures of the unit's cells: one bad worker
    // must never take the grid down.
    let mut failures: Vec<CellFailure> = Vec::new();
    for (unit, result) in units.iter().zip(worker_results) {
        let members = result.unwrap_or_else(|panic_msg| {
            unit.iter()
                .map(|&i| {
                    let failure = CellFailure {
                        index: i,
                        label: spec.cells[i].label.clone(),
                        hash: hashes[i].clone(),
                        kind: FailureKind::Panic,
                        error: format!("worker thread panicked: {panic_msg}"),
                    };
                    (i, Err(failure))
                })
                .collect()
        });
        for (i, member) in members {
            let indices = &by_hash[hashes[i].as_str()];
            match member {
                Ok(done) => {
                    stats.simulated += indices.len();
                    if let Some(failure) = done.store_failure {
                        failures.push(failure);
                    }
                    for &j in indices {
                        reports[j] = Some(done.report.clone());
                    }
                }
                Err(failure) => {
                    stats.failed += indices.len();
                    failures.push(failure);
                }
            }
        }
    }
    failures.sort_by_key(|f| f.index);

    // Persist (or heal) the failure manifest so `chronus-sweep status` and
    // later runs see what degraded.
    if let Some(store) = store {
        update_manifest(
            store,
            spec,
            &opts.shard,
            &failures,
            reports.iter().all(Option::is_some),
        );
    }

    GridOutcome {
        reports,
        stats,
        failures,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Merges this run's failures into the grid's persisted manifest under the
/// store lock (taken only when there is a failure to record or a manifest
/// file to heal). Prior failures whose cells now verify in the store are
/// dropped (any shard's rerun heals them); failures re-observed this run
/// replace their prior record; an empty result removes the manifest.
fn update_manifest(
    store: &ResultStore,
    spec: &GridSpec,
    shard: &Shard,
    failures: &[CellFailure],
    complete: bool,
) {
    // Nothing to record and no manifest to heal: no lock, no lock file.
    if failures.is_empty() && !store.manifest_path(&spec.name).exists() {
        return;
    }
    let lock = store.lock();
    if let Err(e) = &lock {
        eprintln!("chronus-grid: store lock for manifest update failed ({e}); proceeding");
    }
    // A fully clean, complete, unsharded run owns the whole grid: clear
    // unconditionally (even records from stale specs).
    if failures.is_empty() && shard.is_full() && complete {
        store.clear_manifest(&spec.name);
        return;
    }
    let mut merged: Vec<CellFailure> = Vec::new();
    if let ManifestState::Ok(prior) = store.manifest_state(&spec.name) {
        for f in prior.failures {
            if failures.iter().any(|g| g.hash == f.hash) {
                continue; // superseded by this run's record
            }
            if store.verify(&f.hash).is_ok() {
                continue; // healed since (by any shard or process)
            }
            merged.push(f);
        }
    }
    merged.extend_from_slice(failures);
    merged.sort_by(|a, b| (a.index, &a.hash).cmp(&(b.index, &b.hash)));
    merged.dedup_by(|a, b| a.hash == b.hash);
    if merged.is_empty() {
        store.clear_manifest(&spec.name);
    } else {
        let manifest = FailureManifest {
            grid: spec.name.clone(),
            shard: shard.to_string(),
            failures: merged,
        };
        if let Err(e) = store.save_manifest(&manifest) {
            eprintln!("chronus-grid: failed to write failure manifest: {e}");
        }
    }
}

/// Collects a complete grid from the store alone, in spec order — the merge
/// step after sharded runs. The output depends only on the spec and the
/// store contents, so merging after `--shard 1/2` + `--shard 2/2` is
/// byte-identical to merging after one unsharded run. Entries failing
/// integrity verification count as missing (they re-simulate on the next
/// run) rather than erroring the merge.
///
/// As a side effect, the grid's failure manifest is healed (removed, under
/// the store lock) when every cell it records now verifies in the store —
/// so a manifest left by a degraded shard does not outlive its recovery.
///
/// # Errors
///
/// Returns the indices of cells missing from the store.
pub fn merge(spec: &GridSpec, store: &ResultStore) -> Result<Vec<SimReport>, Vec<usize>> {
    let mut out = Vec::with_capacity(spec.cells.len());
    let mut missing = Vec::new();
    for (i, hash) in spec.hashes().iter().enumerate() {
        match store.get(hash) {
            Some(r) => out.push(r),
            None => missing.push(i),
        }
    }
    heal_manifest(spec, store);
    if missing.is_empty() {
        Ok(out)
    } else {
        Err(missing)
    }
}

/// Removes the grid's failure manifest when every failure it records now
/// verifies in the store (under the store lock, so a concurrent writer is
/// not clobbered).
fn heal_manifest(spec: &GridSpec, store: &ResultStore) {
    let Ok(_lock) = store.lock() else {
        return;
    };
    let ManifestState::Ok(manifest) = store.manifest_state(&spec.name) else {
        return;
    };
    if manifest.failures.is_empty()
        || manifest
            .failures
            .iter()
            .all(|f| store.verify(&f.hash).is_ok())
    {
        store.clear_manifest(&spec.name);
        eprintln!(
            "chronus-grid: failure manifest for '{}' healed (every recorded cell now verifies)",
            spec.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{AppTrace, WorkloadSpec};
    use chronus_sim::SimConfig;

    fn tiny_spec() -> GridSpec {
        let mut spec = GridSpec::new("exec-test");
        for (i, nrh) in [64u32, 64, 32].iter().enumerate() {
            // Cells 0 and 1 are identical on purpose (dedup path).
            let mut cfg = SimConfig::single_core();
            cfg.instructions_per_core = 1_000;
            cfg.nrh = *nrh;
            cfg.mechanism = chronus_core::MechanismKind::Chronus;
            let w = WorkloadSpec::Apps {
                apps: vec![AppTrace::new("511.povray", 0, 2)],
                trace_instructions: 1_500,
            };
            spec.push(CellSpec::new(format!("c{i}"), w, cfg));
        }
        spec
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chronus-grid-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn duplicate_cells_simulate_once() {
        let dir = scratch("dedup");
        let store = ResultStore::open(&dir).unwrap();
        let spec = tiny_spec();
        let opts = ExecOpts {
            threads: 2,
            progress: false,
            ..ExecOpts::default()
        };
        let out = run_grid(&spec, Some(&store), &opts);
        assert!(out.is_complete());
        assert!(!out.is_degraded());
        // 3 slots filled but only 2 distinct simulations persisted.
        assert_eq!(out.stats.simulated, 3);
        assert_eq!(store.list().unwrap().len(), 2);
        assert_eq!(out.reports[0], out.reports[1]);
        assert_ne!(out.reports[0], out.reports[2]);

        // Second run: everything cached, nothing simulated.
        let again = run_grid(&spec, Some(&store), &opts);
        assert_eq!(again.stats.cached, 3);
        assert_eq!(again.stats.simulated, 0);
        assert_eq!(again.reports, out.reports);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every path under `dir`, relative to it, sorted.
    fn tree(dir: &std::path::Path) -> Vec<String> {
        fn walk(root: &std::path::Path, dir: &std::path::Path, out: &mut Vec<String>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                out.push(path.strip_prefix(root).unwrap().display().to_string());
                if path.is_dir() {
                    walk(root, &path, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(dir, dir, &mut out);
        out.sort();
        out
    }

    #[test]
    fn a_cached_pass_leaves_no_footprint() {
        let dir = scratch("footprint");
        let spec = tiny_spec();
        // Filled with `put` alone: no wall sidecar, no lock file.
        let store = ResultStore::open(&dir).unwrap();
        for (cell, hash) in spec.cells.iter().zip(spec.hashes()) {
            store.put(&hash, cell, &simulate_cell(cell)).unwrap();
        }
        // An orphaned temp file past the reap age.
        let tmp = dir.join(format!(".{}.999.tmp", "e".repeat(32)));
        let old = std::time::SystemTime::now() - STALE_TMP_AGE - std::time::Duration::from_secs(60);
        std::fs::File::create(&tmp)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let before = tree(&dir);
        assert!(!before.iter().any(|p| p == ".store.lock"));

        // Every pass opens the store afresh, as each figure binary does.
        let pass = |spec: &GridSpec| {
            let store = ResultStore::open(&dir).unwrap();
            run_grid(spec, Some(&store), &quiet_opts())
        };
        let cached = pass(&spec);
        assert_eq!((cached.stats.cached, cached.stats.simulated), (3, 0));
        assert_eq!(tree(&dir), before, "a fully cached pass must touch nothing");

        // A pass that owns a miss reaps the orphan and adds exactly the new
        // cell's entry and wall sidecar.
        let mut grown = spec.clone();
        let mut extra = spec.cells[2].clone();
        extra.config.nrh = 16;
        grown.push(extra);
        let out = pass(&grown);
        assert_eq!((out.stats.cached, out.stats.simulated), (3, 1));
        let fresh = &grown.hashes()[3];
        let mut expected: Vec<String> = before
            .into_iter()
            .filter(|p| !p.ends_with(".tmp"))
            .chain([format!("{fresh}.json"), format!("{fresh}.wall")])
            .collect();
        expected.sort();
        assert_eq!(tree(&dir), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_store_never_touches_the_filesystem() {
        let dir = scratch("nocache");
        let spec = tiny_spec();
        let opts = ExecOpts {
            threads: 1,
            progress: false,
            ..ExecOpts::default()
        };
        let out = run_grid(&spec, None, &opts);
        assert!(out.is_complete());
        assert_eq!(out.stats.simulated, 3);
        assert!(!dir.exists(), "cache-less run must not create directories");
    }

    #[test]
    fn summary_includes_failure_accounting() {
        let stats = ExecStats {
            total: 4,
            cached: 1,
            simulated: 2,
            skipped: 0,
            failed: 1,
            waited: 0,
        };
        assert_eq!(
            stats.summary(),
            "cells=4 cached=1 simulated=2 skipped=0 failed=1"
        );
    }

    #[test]
    fn manifest_roundtrips_through_the_store() {
        let dir = scratch("manifest");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.load_manifest("g").is_none());
        let manifest = FailureManifest {
            grid: "g".into(),
            shard: "1/1".into(),
            failures: vec![CellFailure {
                index: 3,
                label: "cell-3".into(),
                hash: "f".repeat(32),
                kind: FailureKind::Budget,
                error: "ran past its cycle budget (max_mem_cycles = 4194304)".into(),
            }],
        };
        store.save_manifest(&manifest).unwrap();
        assert_eq!(store.load_manifest("g").unwrap(), manifest);
        store.clear_manifest("g");
        assert!(store.load_manifest("g").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn mcf(seed: u64) -> WorkloadSpec {
        WorkloadSpec::Apps {
            apps: vec![AppTrace::new("429.mcf", 0, seed)],
            trace_instructions: 3_000,
        }
    }

    /// An unmitigated, oracle-judged cell: `nrh` and `vrd` reach only the
    /// oracle, so every such cell over one workload is one timing cohort.
    fn vrd_cell(label: &str, workload: WorkloadSpec, nrh: u32, vrd_seed: u64) -> CellSpec {
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 2_000;
        cfg.nrh = nrh;
        cfg.oracle = true;
        cfg.vrd = Some(chronus_sim::VrdSpec {
            min_pct: 50,
            seed: vrd_seed,
        });
        CellSpec::new(label, workload, cfg)
    }

    /// 2 `min_pct` points × 16 VRD seeds over one workload.
    fn vrd_sweep() -> GridSpec {
        let mut spec = GridSpec::new("vrd-units");
        for min_pct in [100, 50] {
            for seed in 0..16 {
                let mut cell = vrd_cell(&format!("vrd{min_pct}#{seed}"), mcf(42), 1024, seed);
                cell.config.vrd = Some(chronus_sim::VrdSpec { min_pct, seed });
                spec.push(cell);
            }
        }
        spec
    }

    /// The units the executor plans for `spec` on a cold store: owned
    /// misses are first positions of their hash that `shard` owns.
    fn units_of(spec: &GridSpec, shard: Shard) -> Vec<Vec<usize>> {
        let hashes = spec.hashes();
        let owned: Vec<usize> = (0..spec.len())
            .filter(|&i| !hashes[..i].contains(&hashes[i]) && shard.owns(i))
            .collect();
        plan_units(&spec.cells, &owned)
    }

    #[test]
    fn units_are_timing_cohorts() {
        // 32 VRD members are one unit.
        let vrd = vrd_sweep();
        assert_eq!(
            units_of(&vrd, Shard::full()),
            vec![(0..32).collect::<Vec<_>>()]
        );

        // A mechanism forks its own unit; so does a second workload. A hash
        // duplicated at two positions is one member (its first position).
        let mut spec = GridSpec::new("forks");
        spec.push(vrd_cell("a", mcf(42), 1024, 1));
        spec.push(vrd_cell("b", mcf(42), 512, 2));
        let mut chronus = vrd_cell("c", mcf(42), 1024, 1);
        chronus.config.mechanism = chronus_core::MechanismKind::Chronus;
        spec.push(chronus.clone());
        spec.push(vrd_cell("d", mcf(7), 1024, 1));
        spec.push(vrd_cell("dup-of-b", mcf(42), 512, 2));
        let mut chronus_vrd = chronus;
        chronus_vrd.config.vrd = None;
        spec.push(chronus_vrd);
        assert_eq!(
            units_of(&spec, Shard::full()),
            vec![vec![0, 1], vec![2, 5], vec![3]]
        );

        // A shard filter splits a cohort: each shard fills its own half.
        let halves: Vec<Vec<Vec<usize>>> = (1..=2)
            .map(|k| units_of(&vrd, Shard { index: k, count: 2 }))
            .collect();
        assert_eq!(halves[0], vec![(0..32).step_by(2).collect::<Vec<_>>()]);
        assert_eq!(halves[1], vec![(1..32).step_by(2).collect::<Vec<_>>()]);
    }

    /// Four VRD variants of one workload: one cohort.
    fn cohort_grid(name: &str) -> GridSpec {
        let mut spec = GridSpec::new(name);
        for (i, (nrh, vrd_seed)) in [(1024u32, 1u64), (1024, 2), (512, 1), (256, 3)]
            .into_iter()
            .enumerate()
        {
            spec.push(vrd_cell(&format!("mc#{i}"), mcf(42), nrh, vrd_seed));
        }
        spec
    }

    /// `(file name, bytes)` of the store's top-level entries — the
    /// byte-identity surface (sidecars are not part of it).
    fn entry_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_type().unwrap().is_file())
            .map(|e| (e.file_name().into_string().unwrap(), e.path()))
            .filter(|(name, _)| name.ends_with(".json"))
            .map(|(name, path)| (name, std::fs::read(path).unwrap()))
            .collect();
        out.sort();
        out
    }

    fn quiet_opts() -> ExecOpts {
        ExecOpts {
            threads: 2,
            progress: false,
            ..ExecOpts::default()
        }
    }

    #[test]
    fn cohort_fill_is_byte_identical_to_solo() {
        let solo_dir = scratch("solo");
        let cohort_dir = scratch("cohort");
        let spec = cohort_grid("byte-identity");
        assert_eq!(units_of(&spec, Shard::full()).len(), 1);

        // The reference: every cell simulated alone and put by hand.
        let solo_store = ResultStore::open(&solo_dir).unwrap();
        let solo: Vec<SimReport> = spec.cells.iter().map(simulate_cell).collect();
        for ((cell, hash), report) in spec.cells.iter().zip(spec.hashes()).zip(&solo) {
            solo_store.put(&hash, cell, report).unwrap();
        }

        let store = ResultStore::open(&cohort_dir).unwrap();
        let out = run_grid(&spec, Some(&store), &quiet_opts());
        assert!(out.is_complete() && !out.is_degraded());
        assert_eq!(out.stats.simulated, 4);
        let entries = entry_bytes(&cohort_dir);
        assert_eq!(entries.len(), 4);
        assert_eq!(
            entries,
            entry_bytes(&solo_dir),
            "cohort entries must be byte-identical to solo puts"
        );
        for (report, solo) in out.reports.iter().zip(&solo) {
            assert_eq!(report.as_ref(), Some(solo));
        }
        let _ = std::fs::remove_dir_all(&solo_dir);
        let _ = std::fs::remove_dir_all(&cohort_dir);
    }

    #[test]
    fn second_cohort_pass_is_fully_cached() {
        let dir = scratch("cohort-cached");
        let spec = cohort_grid("cached");
        let store = ResultStore::open(&dir).unwrap();
        let first = run_grid(&spec, Some(&store), &quiet_opts());
        assert_eq!(first.stats.simulated, 4);
        let second = run_grid(&spec, Some(&store), &quiet_opts());
        assert_eq!(second.stats.cached, 4);
        assert_eq!(second.stats.simulated, 0);
        assert_eq!(second.reports, first.reports);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cohort_members_record_the_units_whole_wall() {
        // A cohort is one simulation: `chronus-sweep status` and the
        // benchmark read each member's `.wall` sidecar as that simulation's
        // cost, so each must hold the unit's whole wall — not wall ÷
        // members.
        let dir = scratch("cohort-wall");
        let spec = cohort_grid("wall");
        let store = ResultStore::open(&dir).unwrap();
        let out = run_grid(&spec, Some(&store), &quiet_opts());
        assert!(out.is_complete() && !out.is_degraded());
        assert_eq!(out.stats.simulated, 4);
        let walls: Vec<f64> = spec
            .hashes()
            .iter()
            .map(|h| store.recorded_wall(h).unwrap())
            .collect();
        assert!(walls.iter().all(|&w| w == walls[0]), "{walls:?}");

        // The unit simulates at least one member's timing, so its wall is
        // no shorter than half the fastest of three solo fills of member 0
        // (load only lengthens a fill); a quarter of it would be.
        let mut solo = GridSpec::new("wall-solo");
        solo.push(spec.cells[0].clone());
        let solo_wall = (0..3)
            .map(|k| {
                let solo_dir = scratch(&format!("cohort-wall-solo{k}"));
                let solo_store = ResultStore::open(&solo_dir).unwrap();
                assert_eq!(
                    run_grid(&solo, Some(&solo_store), &quiet_opts())
                        .stats
                        .simulated,
                    1
                );
                let wall = solo_store.recorded_wall(&solo.hashes()[0]).unwrap();
                let _ = std::fs::remove_dir_all(&solo_dir);
                wall
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            walls[0] >= solo_wall / 2.0,
            "{walls:?} against solo {solo_wall}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_workloads_split_into_units() {
        // A second workload is its own unit; every cell still completes.
        let mut spec = cohort_grid("mixed");
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 2_000;
        let povray = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("511.povray", 0, 7)],
            trace_instructions: 3_000,
        };
        spec.push(CellSpec::new("povray", povray, cfg));
        assert_eq!(units_of(&spec, Shard::full()).len(), 2);
        let out = run_grid(&spec, None, &quiet_opts());
        assert!(out.is_complete());
        assert_eq!(out.stats.simulated, 5);
        assert_eq!(
            out.reports[4].as_ref(),
            Some(&simulate_cell(&spec.cells[4]))
        );
    }
}
