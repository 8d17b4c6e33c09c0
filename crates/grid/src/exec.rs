//! The grid executor: cache lookup, shard filtering, fault-isolated
//! parallel simulation, store write-back, and the order-preserving merge.
//!
//! The unit of work is a *timing cohort*: the owned misses that share a
//! workload and a [`SimConfig::cohort_key`] simulate cycle-identically, so
//! one unit generates their traces once and runs them as one
//! [`System::run_batch`] (a unit of one is a batch of one). Every member
//! keeps its own hash, store entry, lease and journal events, and its entry
//! is byte-identical to a solo fill. A Monte-Carlo sweep over oracle-only
//! parameters (VRD seeds) fills as one simulation; any other grid runs one
//! unit per distinct cell.
//!
//! Unit execution is *fault-isolated*: every attempt runs in its own
//! watchdog-guarded thread behind `catch_unwind`, failures (panics,
//! deadline overruns, store write errors) are retried under a capped
//! exponential backoff, and cells that exhaust their retries are recorded
//! in a [`FailureManifest`] instead of aborting the run. A degraded grid
//! still completes every healthy cell, persists everything it computed,
//! and reports the casualties — the contract multi-hour, multi-machine
//! sweeps depend on.
//!
//! Store-backed runs are additionally *coordinated* (see [`CoordOpts`]):
//! each miss is claimed through a heartbeat-refreshed lease before
//! simulating, so N concurrent processes sharing one store partition the
//! grid dynamically with zero duplicate simulation — a cell leased by a
//! live holder is waited on, not recomputed. Every claim, completion and
//! failure is appended to the store's operations journal, and the failure
//! manifest is merged under the advisory store lock instead of
//! last-writer-wins. Coordination failures (lease I/O errors) degrade to
//! uncoordinated execution: store entries are byte-deterministic and
//! written atomically, so the worst case is duplicate compute, never
//! corruption.
//!
//! A pass served entirely from the store reads its entries and writes
//! nothing: stale temp files are reaped and the lease plane is opened only
//! once the pass owns a miss, before its first write, and the store lock
//! is taken only for a failure to record or a manifest file to heal.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use chronus_sim::{try_run_parallel, SimConfig, SimReport, System};
use serde::{Deserialize, Serialize};

use crate::cell::CellSpec;
use crate::faults::{ExecFault, FaultInjector};
use crate::hash::{cell_hash, mix64};
use crate::journal::{EventKind, Journal};
use crate::lease::{self, ClaimOutcome, LeaseManager};
use crate::progress::Progress;
use crate::retry::RetryPolicy;
use crate::shard::Shard;
use crate::spec::GridSpec;
use crate::store::{ManifestState, ResultStore, STALE_TMP_AGE};

/// Process exit code of a run that completed in degraded mode (some cells
/// failed permanently and are listed in the failure manifest). Distinct
/// from `2` (usage errors) so scripts can tell "rerun me" from "fix the
/// invocation".
pub const DEGRADED_EXIT: i32 = 3;

/// Smallest lease TTL the executor will stamp. Short grids heartbeat well
/// under this; the watchdog deadline raises it once armed.
const LEASE_TTL_FLOOR: Duration = Duration::from_secs(15);

/// How long a waiter sleeps between polls of a cell leased elsewhere.
const LEASE_WAIT_POLL: Duration = Duration::from_millis(150);

/// Inter-process coordination options for store-backed runs. Defaults are
/// what every CLI entry point uses; tests shrink `lease_ttl` to exercise
/// stale-lease reclamation quickly.
#[derive(Debug, Clone, Default)]
pub struct CoordOpts {
    /// Override the lease time-to-live. `None` derives it from the
    /// watchdog deadline estimator (20× observed mean wall-clock), floored
    /// at 15 s — a lease always outlives its heartbeat interval by 4×.
    pub lease_ttl: Option<Duration>,
    /// Override the holder identity recorded in leases and the journal.
    /// `None` mints a process-unique `host-pid-instance` id.
    pub holder: Option<String>,
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker threads for cell simulation.
    pub threads: usize,
    /// The shard this process owns (default: the full grid).
    pub shard: Shard,
    /// Progress/ETA lines on stderr.
    pub progress: bool,
    /// Retry policy for failed cell attempts and store writes.
    pub retry: RetryPolicy,
    /// Hard per-cell watchdog deadline. `None` derives one adaptively from
    /// the wall-clock of cells recorded so far (20× the observed mean,
    /// floored at 30 s, armed only once three samples exist).
    pub cell_timeout: Option<Duration>,
    /// Deterministic fault injection at the executor boundary (see
    /// [`crate::faults`]); `None` (the default) costs nothing.
    pub faults: Option<FaultInjector>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8),
            shard: Shard::full(),
            progress: true,
            retry: RetryPolicy::default(),
            cell_timeout: None,
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
    /// Cells that failed permanently (retries exhausted) and have no
    /// report.
    pub failed: usize,
    /// Cells resolved by waiting on another process's lease (its result
    /// was read back instead of recomputed).
    pub waited: usize,
}

impl ExecStats {
    /// `cells=N cached=C simulated=S skipped=K failed=F waited=W` — the
    /// machine-readable form the CI smoke jobs grep.
    pub fn summary(&self) -> String {
        format!(
            "cells={} cached={} simulated={} skipped={} failed={} waited={}",
            self.total, self.cached, self.simulated, self.skipped, self.failed, self.waited
        )
    }
}

/// How a cell (or its persistence) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The simulation panicked on every attempt.
    Panic,
    /// The simulation overran its watchdog deadline on every attempt.
    Timeout,
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
    /// Attempts consumed (first try + retries).
    pub attempts: u32,
    /// The last error observed (panic payload, timeout note, or I/O
    /// error).
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
    /// Cells that failed permanently in this run (simulation failures
    /// leave their report slots empty; store-write failures do not).
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

/// Derives watchdog deadlines from observed per-cell wall-clocks: once
/// three samples exist, a cell gets `max(30 s, 20× mean)`. Seeded from the
/// store's recorded wall sidecars so a resumed run is armed immediately.
struct DeadlineEstimator {
    explicit: Option<Duration>,
    /// `(samples, total seconds)`.
    state: Mutex<(u32, f64)>,
}

const DEADLINE_FLOOR: Duration = Duration::from_secs(30);
const DEADLINE_FACTOR: f64 = 20.0;
const DEADLINE_MIN_SAMPLES: u32 = 3;

impl DeadlineEstimator {
    fn new(explicit: Option<Duration>) -> Self {
        Self {
            explicit,
            state: Mutex::new((0, 0.0)),
        }
    }

    fn record(&self, seconds: f64) {
        let mut state = self.state.lock().expect("estimator lock");
        state.0 += 1;
        state.1 += seconds;
    }

    fn deadline(&self) -> Option<Duration> {
        if let Some(t) = self.explicit {
            return Some(t);
        }
        let state = self.state.lock().expect("estimator lock");
        if state.0 < DEADLINE_MIN_SAMPLES {
            return None;
        }
        let mean = state.1 / f64::from(state.0);
        Some(DEADLINE_FLOOR.max(Duration::from_secs_f64(mean * DEADLINE_FACTOR)))
    }
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
fn simulate_cohort(cells: &[CellSpec]) -> Vec<SimReport> {
    let traces = cells[0].workload.traces(&cells[0].config.geometry);
    let cfgs: Vec<SimConfig> = cells.iter().map(|c| c.config.clone()).collect();
    System::run_batch(&cfgs, &traces)
}

/// Runs one attempt of one unit in a dedicated watchdog-guarded thread.
///
/// Each member's injected fault for `attempt` fires first, then the cohort
/// simulates, all behind `catch_unwind` in a freshly spawned thread while
/// this (worker) thread waits on a channel with the deadline. A panic comes
/// back as [`FailureKind::Panic`]; a deadline overrun as
/// [`FailureKind::Timeout`] — the stuck thread is abandoned (it holds only
/// cloned data and its late result is dropped with the channel).
fn run_unit_guarded(
    cells: Vec<CellSpec>,
    hashes: Vec<String>,
    attempt: u32,
    faults: Option<FaultInjector>,
    deadline: Option<Duration>,
) -> Result<Vec<SimReport>, (FailureKind, String)> {
    let (tx, rx) = mpsc::sync_channel::<Result<Vec<SimReport>, String>>(1);
    let spawned = std::thread::Builder::new()
        .name(format!("cell-{}", &hashes[0][..8.min(hashes[0].len())]))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(injector) = &faults {
                    for hash in &hashes {
                        match injector.exec_fault(hash, attempt) {
                            Some(ExecFault::Panic) => {
                                panic!("injected fault: panic (cell {hash}, attempt {attempt})")
                            }
                            Some(ExecFault::Stall(pause)) => std::thread::sleep(pause),
                            None => {}
                        }
                    }
                }
                simulate_cohort(&cells)
            }));
            let _ = tx.send(outcome.map_err(panic_message));
        });
    if let Err(e) = spawned {
        return Err((FailureKind::Panic, format!("spawning cell thread: {e}")));
    }
    let received = match deadline {
        Some(limit) => rx.recv_timeout(limit).map_err(|_| {
            (
                FailureKind::Timeout,
                format!("watchdog deadline {limit:.1?} exceeded"),
            )
        })?,
        None => rx
            .recv()
            .map_err(|_| (FailureKind::Panic, "cell thread died silently".to_string()))?,
    };
    received.map_err(|msg| (FailureKind::Panic, msg))
}

/// The per-run coordination plane: lease manager + journal + the set of
/// hashes this run currently holds leases on (kept fresh by the heartbeat
/// thread).
struct CoordPlane {
    leases: LeaseManager,
    journal: Arc<Journal>,
    grid: String,
    ttl_override: Option<Duration>,
    active: Mutex<HashSet<String>>,
}

impl CoordPlane {
    /// The TTL to stamp into (and refresh onto) leases right now.
    fn ttl(&self, estimator: &DeadlineEstimator) -> Duration {
        self.ttl_override.unwrap_or_else(|| {
            estimator
                .deadline()
                .map_or(LEASE_TTL_FLOOR, |d| d.max(LEASE_TTL_FLOOR))
        })
    }

    /// Heartbeat period: a quarter of the TTL, clamped to [50 ms, 2 s].
    fn heartbeat_interval(&self, estimator: &DeadlineEstimator) -> Duration {
        (self.ttl(estimator) / 4).clamp(Duration::from_millis(50), Duration::from_secs(2))
    }

    fn register(&self, hash: &str) {
        self.active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(hash.to_string());
    }

    fn release(&self, hash: &str) {
        self.active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(hash);
        self.leases.release(hash);
    }

    /// Refreshes every lease this run holds (heartbeat-thread body).
    fn refresh_active(&self, estimator: &DeadlineEstimator) {
        let held: Vec<String> = self
            .active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect();
        let ttl = self.ttl(estimator);
        for hash in held {
            match self.leases.refresh(&hash, ttl) {
                Ok(true) => {}
                Ok(false) => eprintln!(
                    "chronus-grid: lease on cell {hash} was lost (reclaimed as stale); \
                     continuing — a duplicate computation is possible but harmless"
                ),
                Err(e) => eprintln!("chronus-grid: lease heartbeat for {hash} failed: {e}"),
            }
        }
    }

    /// Plane-open hook: sweep leases abandoned by crashed holders so no
    /// cell stays blocked longer than one TTL (and, on this host, no
    /// longer than the next pass that owns a miss).
    fn reclaim_stale_on_open(&self) {
        match self.leases.reclaim_stale() {
            Ok(reclaimed) if !reclaimed.is_empty() => {
                eprintln!(
                    "chronus-grid: reclaimed {} stale lease(s) left by crashed holder(s)",
                    reclaimed.len()
                );
                for (hash, holder) in reclaimed {
                    self.journal.record(
                        EventKind::Fail,
                        &self.grid,
                        &hash,
                        0,
                        0.0,
                        "",
                        &format!("reclaimed stale lease from {holder}"),
                    );
                }
            }
            Ok(_) => {}
            Err(e) => eprintln!("chronus-grid: stale-lease sweep failed: {e}"),
        }
    }
}

/// How a worker obtained the right to produce a cell's report.
enum ClaimResult {
    /// We hold the lease; simulate.
    Claimed,
    /// Another process completed the cell while we waited; here is its
    /// verified result (boxed: a report dwarfs the other variants).
    Resolved(Box<SimReport>),
    /// Lease I/O failed; proceed without coordination (duplicate compute
    /// possible, corruption not).
    Uncoordinated,
}

/// Claims `hash` or waits out the live holder. Stale leases (crashed
/// holders) are reclaimed inside `try_claim`, so a waiter never blocks
/// longer than one TTL past the holder's death.
fn claim_or_wait(
    plane: &CoordPlane,
    store: &ResultStore,
    hash: &str,
    ttl: Duration,
) -> ClaimResult {
    loop {
        match plane.leases.try_claim(hash, ttl) {
            Ok(ClaimOutcome::Claimed) => {
                // Double-check under the lease: the entry may have landed
                // between the cache pass and this claim.
                if let Some(report) = store.get(hash) {
                    plane.leases.release(hash);
                    return ClaimResult::Resolved(Box::new(report));
                }
                plane.register(hash);
                return ClaimResult::Claimed;
            }
            Ok(ClaimOutcome::Held(_)) => {
                std::thread::sleep(LEASE_WAIT_POLL);
                if let Some(report) = store.get(hash) {
                    return ClaimResult::Resolved(Box::new(report));
                }
                // Not there yet: the holder is still computing (wait more)
                // or failed/died (the next try_claim reclaims or surfaces
                // its release).
            }
            Err(e) => {
                eprintln!(
                    "chronus-grid: lease claim for cell {hash} failed ({e}); continuing \
                     uncoordinated (worst case: duplicate compute)"
                );
                return ClaimResult::Uncoordinated;
            }
        }
    }
}

/// What one worker produced for one owned cell.
struct CellDone {
    report: SimReport,
    /// Persistence failed (the report itself is still good).
    store_failure: Option<CellFailure>,
    /// The report came from another process's computation.
    waited: bool,
}

/// A simulated member's report, the attempt that produced it, and that
/// attempt's wall-clock (a cohort is one simulation: every member records
/// the whole unit's wall, so deadlines derived from it stay per-simulation).
type Simulated = Result<(SimReport, u32, f64), CellFailure>;

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

/// What every unit's worker shares: the run's spec, store, coordination
/// plane, deadline estimator and progress line.
struct UnitRunner<'a> {
    cells: &'a [CellSpec],
    hashes: &'a [String],
    store: Option<&'a ResultStore>,
    plane: Option<&'a CoordPlane>,
    estimator: &'a DeadlineEstimator,
    progress: &'a Progress,
    opts: &'a ExecOpts,
}

impl UnitRunner<'_> {
    /// Runs one unit: claims its members in increasing spec index (a member
    /// resolved by waiting on another holder leaves the unit), simulates the
    /// rest as one cohort, and persists each member. A cohort attempt that
    /// panics or times out (an injected fault of any member included) falls
    /// back to running each member alone. The members' `Claim` events are
    /// fsync'd once before simulating and their `Complete`/`Fail` events
    /// once after persisting; only then are their leases released.
    fn run(&self, unit: Vec<usize>) -> Vec<(usize, Result<CellDone, CellFailure>)> {
        let mut out = Vec::with_capacity(unit.len());
        let mut live: Vec<(usize, bool)> = Vec::with_capacity(unit.len());
        for i in unit {
            let claim = match (self.store, self.plane) {
                (Some(store), Some(plane)) => {
                    claim_or_wait(plane, store, &self.hashes[i], plane.ttl(self.estimator))
                }
                _ => ClaimResult::Uncoordinated,
            };
            match claim {
                ClaimResult::Resolved(report) => {
                    self.progress.cell_done(&self.cells[i].label);
                    out.push((
                        i,
                        Ok(CellDone {
                            report: *report,
                            store_failure: None,
                            waited: true,
                        }),
                    ));
                }
                claim => {
                    let claimed = matches!(claim, ClaimResult::Claimed);
                    let note = if claimed { "" } else { "uncoordinated" };
                    self.journal(EventKind::Claim, i, 0, 0.0, "", note);
                    live.push((i, claimed));
                }
            }
        }
        self.sync_journal();
        let members: Vec<usize> = live.iter().map(|&(i, _)| i).collect();
        let n = members.len();
        let simulated: Vec<Simulated> = match (n > 1).then(|| self.attempt(&members, 0)) {
            Some(Ok((reports, wall))) => reports
                .into_iter()
                .zip(&members)
                .map(|(report, &i)| {
                    self.progress.cell_done(&self.cells[i].label);
                    Ok((report, 0, wall))
                })
                .collect(),
            failed => {
                if let Some(Err((_, error))) = failed {
                    let label = format!("cohort of {}", self.cells[members[0]].label);
                    let note = format!("{error}; running its {n} members one by one");
                    self.progress.cell_failed(&label, 0, &note);
                }
                members.iter().map(|&i| self.simulate_alone(i)).collect()
            }
        };
        for (&i, result) in members.iter().zip(simulated) {
            out.push((i, self.persist(i, result)));
        }
        self.sync_journal();
        if let Some(plane) = self.plane {
            for (i, _) in live.into_iter().filter(|&(_, holds_lease)| holds_lease) {
                plane.release(&self.hashes[i]);
            }
        }
        out
    }

    /// Writes an event about cell `i` to the journal (store-backed runs
    /// only); it is durable after the next [`Self::sync_journal`].
    fn journal(&self, kind: EventKind, i: usize, attempt: u32, wall: f64, sum: &str, note: &str) {
        let Some(plane) = self.plane else { return };
        let hash = &self.hashes[i];
        if let Err(e) = plane
            .journal
            .write(kind, &plane.grid, hash, attempt, wall, sum, note)
        {
            eprintln!(
                "chronus-grid: journal append failed for {hash} ({kind:?}): {e} (run continues; \
                 audit trail incomplete)"
            );
        }
    }

    /// Fsyncs the events this unit wrote.
    fn sync_journal(&self) {
        if let Err(e) = self.plane.map_or(Ok(()), |plane| plane.journal.sync()) {
            eprintln!("chronus-grid: journal fsync failed: {e} (run continues)");
        }
    }

    /// One watchdog-guarded attempt at `members` as one cohort; returns the
    /// reports in member order and the attempt's wall-clock.
    fn attempt(
        &self,
        members: &[usize],
        attempt: u32,
    ) -> Result<(Vec<SimReport>, f64), (FailureKind, String)> {
        let started = Instant::now();
        let reports = run_unit_guarded(
            members.iter().map(|&i| self.cells[i].clone()).collect(),
            members.iter().map(|&i| self.hashes[i].clone()).collect(),
            attempt,
            self.opts.faults.clone(),
            self.estimator.deadline(),
        )?;
        let wall = started.elapsed().as_secs_f64();
        self.estimator.record(wall);
        Ok((reports, wall))
    }

    /// Cell `i` as a unit of one, from attempt 0, retried under the policy.
    fn simulate_alone(&self, i: usize) -> Simulated {
        let cell = &self.cells[i];
        let hash = self.hashes[i].as_str();
        let token = mix64(hash.as_bytes());
        let mut attempt: u32 = 0;
        loop {
            match self.attempt(&[i], attempt) {
                Ok((mut reports, wall)) => {
                    self.progress.cell_done(&cell.label);
                    return Ok((reports.remove(0), attempt, wall));
                }
                Err((kind, error)) => {
                    self.progress.cell_failed(&cell.label, attempt, &error);
                    if attempt >= self.opts.retry.max_retries {
                        return Err(CellFailure {
                            index: i,
                            label: cell.label.clone(),
                            hash: hash.to_string(),
                            kind,
                            attempts: attempt + 1,
                            error,
                        });
                    }
                    self.opts.retry.sleep_before_retry(attempt, token);
                    attempt += 1;
                }
            }
        }
    }

    /// Persists a simulated member (entry, wall sidecar) and writes the
    /// journal event that settles it.
    fn persist(&self, i: usize, simulated: Simulated) -> Result<CellDone, CellFailure> {
        let cell = &self.cells[i];
        let hash = self.hashes[i].as_str();
        let (report, attempt, wall) = match simulated {
            Ok(done) => done,
            Err(failure) => {
                let detail = format!("{:?}: {}", failure.kind, failure.error);
                self.journal(EventKind::Fail, i, failure.attempts, 0.0, "", &detail);
                return Err(failure);
            }
        };
        let mut store_failure = None;
        if let Some(store) = self.store {
            match put_with_retry(store, hash, cell, &report, &self.opts.retry) {
                Ok(checksum) => {
                    store.record_wall(hash, wall);
                    self.journal(EventKind::Complete, i, attempt, wall, &checksum, "");
                }
                Err(e) => {
                    eprintln!(
                        "chronus-grid: failed to persist cell {hash} to {}: {e}",
                        store.dir().display()
                    );
                    let detail = format!("store-write: {e}");
                    self.journal(EventKind::Fail, i, attempt, wall, "", &detail);
                    store_failure = Some(CellFailure {
                        index: i,
                        label: cell.label.clone(),
                        hash: hash.to_string(),
                        kind: FailureKind::StoreWrite,
                        attempts: self.opts.retry.attempts(),
                        error: e.to_string(),
                    });
                }
            }
        }
        Ok(CellDone {
            report,
            store_failure,
            waited: false,
        })
    }
}

/// Executes a grid: serves cached cells from `store`, simulates the misses
/// this shard owns (in parallel, each attempt fault-isolated), and
/// persists every fresh result. `store: None` disables caching entirely —
/// every owned cell re-simulates and nothing touches the filesystem.
///
/// Identical cells (same content hash) appearing at several spec positions
/// are simulated once and fanned out to all positions; cells of one timing
/// cohort are simulated together (see the module docs).
///
/// A failing cell never aborts the run: attempts are retried under
/// `opts.retry`, and cells that exhaust their budget are recorded in
/// [`GridOutcome::failures`] (and, when a store is present, persisted as a
/// [`FailureManifest`]) while every other cell completes normally. A cohort
/// whose one attempt panics or times out (an injected fault of any member
/// included) runs as units of one, each retried from attempt 0; faults are
/// pure in `(cell, attempt)`, so every cell's outcome equals its solo
/// outcome.
///
/// Store-backed runs coordinate through leases and the operations journal
/// with default [`CoordOpts`]; see [`run_grid_coordinated`].
pub fn run_grid(spec: &GridSpec, store: Option<&ResultStore>, opts: &ExecOpts) -> GridOutcome {
    run_grid_coordinated(spec, store, opts, &CoordOpts::default())
}

/// [`run_grid`] with explicit inter-process coordination options.
pub fn run_grid_coordinated(
    spec: &GridSpec,
    store: Option<&ResultStore>,
    opts: &ExecOpts,
    coord: &CoordOpts,
) -> GridOutcome {
    let started = Instant::now();
    let hashes = spec.hashes();
    let mut reports: Vec<Option<SimReport>> = vec![None; spec.cells.len()];
    let mut stats = ExecStats {
        total: spec.cells.len(),
        ..ExecStats::default()
    };
    let estimator = Arc::new(DeadlineEstimator::new(opts.cell_timeout));

    // The journal exists from the start but does no I/O until it records,
    // so a demote during the cache pass is journaled. Store-level events go
    // through it unless the store already carries one.
    let holder = coord.holder.clone().unwrap_or_else(lease::unique_holder);
    let journal = store
        .map(|s| Arc::new(Journal::open(s.dir(), holder.clone()).with_faults(opts.faults.clone())));
    let journaled_store: Option<ResultStore> = match (store, &journal) {
        (Some(s), Some(j)) if s.journal().is_none() => Some(s.clone().with_journal(j.clone())),
        (s, _) => s.cloned(),
    };
    let store = journaled_store.as_ref();

    // Cache pass. Deduplicate lookups so a hash shared by many cells is
    // read once.
    let mut by_hash: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, h) in hashes.iter().enumerate() {
        by_hash.entry(h.as_str()).or_default().push(i);
    }
    let mut pending: Vec<usize> = Vec::new(); // representative indices
    let mut served: Vec<&str> = Vec::new();
    for (hash, indices) in &by_hash {
        match store.and_then(|s| s.get(hash)) {
            Some(report) => {
                stats.cached += indices.len();
                served.push(hash);
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

    // The temp-file reap, the lease plane, the deadline estimator and the
    // heartbeat exist for the cells this run simulates; a pass that owns no
    // miss lists no directory, opens no `leases/`, reads no wall sidecar and
    // starts no thread. Lease I/O failure at open degrades to uncoordinated
    // execution.
    let has_work = !owned.is_empty();
    let plane: Option<Arc<CoordPlane>> = match (store.filter(|_| has_work), journal) {
        (Some(s), Some(journal)) => {
            match s.reap_tmp_older_than(STALE_TMP_AGE) {
                Ok(0) | Err(_) => {}
                Ok(n) => eprintln!(
                    "chronus-grid: reaped {n} stale temp file(s) from {} (crash leftovers)",
                    s.dir().display()
                ),
            }
            for hash in &served {
                if let Some(wall) = s.recorded_wall(hash) {
                    estimator.record(wall);
                }
            }
            let leases = LeaseManager::open(s.dir(), holder).map_err(|e| {
                eprintln!("chronus-grid: could not open lease plane ({e}); running uncoordinated")
            });
            leases.ok().map(|leases| {
                let plane = CoordPlane {
                    leases: leases.with_faults(opts.faults.clone()),
                    journal,
                    grid: spec.name.clone(),
                    ttl_override: coord.lease_ttl,
                    active: Mutex::new(HashSet::new()),
                };
                plane.reclaim_stale_on_open();
                Arc::new(plane)
            })
        }
        _ => None,
    };

    // Heartbeat thread: keeps every held lease's deadline ahead of the
    // clock while cells compute. Stopped (and joined) before returning.
    let hb_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = plane.as_ref().map(|p| {
        let plane = Arc::clone(p);
        let estimator = Arc::clone(&estimator);
        let stop = Arc::clone(&hb_stop);
        std::thread::Builder::new()
            .name("lease-heartbeat".into())
            .spawn(move || {
                // Parked, not sleeping, between beats: the stop below is an
                // `unpark`, so the join never waits out a sleep. `unpark`
                // synchronizes with the return of `park_timeout`, which
                // makes the relaxed `stop` store visible here.
                let mut due = Instant::now() + plane.heartbeat_interval(&estimator);
                while !stop.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now < due {
                        std::thread::park_timeout(due - now);
                        continue;
                    }
                    plane.refresh_active(&estimator);
                    due = Instant::now() + plane.heartbeat_interval(&estimator);
                }
            })
            .expect("spawn heartbeat thread")
    });

    // Simulate the owned misses, one timing cohort per unit of work, each
    // attempt isolated and retried. Claims, store writes and journal events
    // all happen inside the worker, so a cell's lease is released the
    // moment its unit's entries land — not at the end-of-grid barrier.
    let units = plan_units(&spec.cells, &owned);
    let progress = Progress::new(&spec.name, owned.len(), opts.progress);
    let runner = UnitRunner {
        cells: &spec.cells,
        hashes: &hashes,
        store,
        plane: plane.as_deref(),
        estimator: &estimator,
        progress: &progress,
        opts,
    };
    let worker_results = try_run_parallel(units.clone(), opts.threads, |unit| runner.run(unit));

    if let Some(handle) = heartbeat {
        hb_stop.store(true, Ordering::Relaxed);
        handle.thread().unpark();
        let _ = handle.join();
    }

    // Fan-out and accounting. Worker-level panics (outside the per-attempt
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
                        attempts: 1,
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
                    if done.waited {
                        stats.waited += indices.len();
                    } else {
                        stats.simulated += indices.len();
                    }
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
pub(crate) fn update_manifest(
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

/// Persists one cell, retrying transient write failures under `retry`.
/// Returns the entry's footer digest.
fn put_with_retry(
    store: &ResultStore,
    hash: &str,
    cell: &CellSpec,
    report: &SimReport,
    retry: &RetryPolicy,
) -> std::io::Result<String> {
    let token = mix64(format!("put|{hash}").as_bytes());
    let mut attempt: u32 = 0;
    loop {
        match store.put(hash, cell, report) {
            Ok(checksum) => return Ok(checksum),
            Err(e) if attempt >= retry.max_retries => return Err(e),
            Err(_) => {
                retry.sleep_before_retry(attempt, token);
                attempt += 1;
            }
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
        // Filled with `put` alone: no `leases/`, no `journal/`, no lock file.
        let store = ResultStore::open(&dir).unwrap();
        for (cell, hash) in spec.cells.iter().zip(spec.hashes()) {
            store.put(&hash, cell, &simulate_cell(cell)).unwrap();
        }
        // An orphaned temp file past the reap age, and a stale lease left
        // by a holder on another host.
        let tmp = dir.join(format!(".{}.999.tmp", "e".repeat(32)));
        let old = std::time::SystemTime::now() - STALE_TMP_AGE - Duration::from_secs(60);
        std::fs::File::create(&tmp)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let stale = crate::lease::LeaseInfo {
            holder: "elsewhere-7-0".into(),
            deadline_ms: 1,
            refreshes: 0,
        };
        let lease = LeaseManager::open(&dir, "planter")
            .unwrap()
            .lease_path(&"f".repeat(32));
        std::fs::write(&lease, serde_json::to_string(&stale).unwrap()).unwrap();
        let before = tree(&dir);
        assert!(!before.iter().any(|p| p == ".store.lock" || p == "journal"));

        // Every pass opens the store afresh, as each figure binary does.
        let pass = |spec: &GridSpec| {
            let store = ResultStore::open(&dir).unwrap();
            run_grid_coordinated(spec, Some(&store), &quiet_opts(), &CoordOpts::default())
        };
        let cached = pass(&spec);
        assert_eq!((cached.stats.cached, cached.stats.simulated), (3, 0));
        assert_eq!(tree(&dir), before, "a fully cached pass must touch nothing");

        // A pass that owns a miss reaps the orphan and reclaims the lease.
        let mut grown = spec.clone();
        let mut extra = spec.cells[2].clone();
        extra.config.nrh = 16;
        grown.push(extra);
        let out = pass(&grown);
        assert_eq!((out.stats.cached, out.stats.simulated), (3, 1));
        assert!(!tmp.exists(), "stale temp file reaped");
        assert!(!lease.exists(), "stale lease reclaimed");
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
            "cells=4 cached=1 simulated=2 skipped=0 failed=1 waited=0"
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
                kind: FailureKind::Timeout,
                attempts: 4,
                error: "watchdog deadline 1.0s exceeded".into(),
            }],
        };
        store.save_manifest(&manifest).unwrap();
        assert_eq!(store.load_manifest("g").unwrap(), manifest);
        store.clear_manifest("g");
        assert!(store.load_manifest("g").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_estimator_arms_after_three_samples() {
        let est = DeadlineEstimator::new(None);
        assert_eq!(est.deadline(), None);
        est.record(0.5);
        est.record(0.5);
        assert_eq!(est.deadline(), None, "two samples must not arm");
        est.record(0.5);
        // 20 × 0.5 s = 10 s is below the 30 s floor.
        assert_eq!(est.deadline(), Some(Duration::from_secs(30)));
        est.record(17.5); // mean now 4.75 s → 95 s
        assert_eq!(est.deadline(), Some(Duration::from_secs_f64(95.0)));

        let explicit = DeadlineEstimator::new(Some(Duration::from_millis(250)));
        assert_eq!(explicit.deadline(), Some(Duration::from_millis(250)));
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
    /// byte-identity surface (sidecars and journals are not part of it).
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
        // A cohort is one simulation: the next run seeds its watchdog
        // deadline from the served members' `.wall` sidecars, so each must
        // hold the unit's whole wall — not wall ÷ members, which would arm
        // a deadline shorter than the one simulation a partly cached
        // cohort's remainder runs.
        let dir = scratch("cohort-wall");
        let spec = cohort_grid("wall");
        let store = ResultStore::open(&dir).unwrap();
        // Every member stalls 40 ms on attempt 0, so the unit's one attempt
        // takes at least 4 × 40 ms.
        let faults = crate::faults::FaultPlan::parse("stall:1.0,stall_ms:40,attempts:1,seed:1")
            .unwrap()
            .injector();
        let opts = ExecOpts {
            faults: Some(faults),
            ..quiet_opts()
        };
        let out = run_grid(&spec, Some(&store), &opts);
        assert!(out.is_complete() && !out.is_degraded());
        assert_eq!(out.stats.simulated, 4);
        let walls: Vec<f64> = spec
            .hashes()
            .iter()
            .map(|h| store.recorded_wall(h).unwrap())
            .collect();
        assert!(walls.iter().all(|&w| w >= 0.160), "{walls:?}");
        assert!(walls.iter().all(|&w| w == walls[0]), "{walls:?}");
        let completes: Vec<f64> = crate::journal::read_events(&dir)
            .unwrap()
            .events
            .into_iter()
            .filter(|e| e.kind == EventKind::Complete)
            .map(|e| e.wall)
            .collect();
        assert_eq!(completes.len(), 4);
        assert!(completes.iter().all(|&w| (w - walls[0]).abs() < 1e-6));
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
