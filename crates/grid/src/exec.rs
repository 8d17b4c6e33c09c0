//! The grid executor: cache lookup, shard filtering, fault-isolated
//! parallel simulation, store write-back, and the order-preserving merge.
//!
//! Cell execution is *fault-isolated*: every attempt runs in its own
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

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use chronus_sim::{try_run_parallel, SimReport, System};
use serde::{Deserialize, Serialize};

use crate::cell::CellSpec;
use crate::faults::{ExecFault, FaultInjector};
use crate::hash::mix64;
use crate::journal::{EventKind, Journal};
use crate::lease::{self, ClaimOutcome, LeaseManager};
use crate::progress::Progress;
use crate::retry::RetryPolicy;
use crate::shard::Shard;
use crate::spec::GridSpec;
use crate::store::{ManifestState, ResultStore};

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
#[derive(Debug, Clone)]
pub struct CoordOpts {
    /// Lease claims + operations journal (on by default when a store is
    /// present; irrelevant without one).
    pub enabled: bool,
    /// Override the lease time-to-live. `None` derives it from the
    /// watchdog deadline estimator (20× observed mean wall-clock), floored
    /// at 15 s — a lease always outlives its heartbeat interval by 4×.
    pub lease_ttl: Option<Duration>,
    /// Override the holder identity recorded in leases and the journal.
    /// `None` mints a process-unique `host-pid-instance` id.
    pub holder: Option<String>,
}

impl Default for CoordOpts {
    fn default() -> Self {
        Self {
            enabled: true,
            lease_ttl: None,
            holder: None,
        }
    }
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

/// Runs one attempt of one cell in a dedicated watchdog-guarded thread.
///
/// The simulation runs behind `catch_unwind` in a freshly spawned thread
/// while this (worker) thread waits on a channel with the deadline. A
/// panic comes back as [`FailureKind::Panic`]; a deadline overrun as
/// [`FailureKind::Timeout`] — the stuck thread is abandoned (it holds only
/// cloned data and its late result is dropped with the channel).
fn run_cell_guarded(
    cell: CellSpec,
    hash: String,
    attempt: u32,
    faults: Option<FaultInjector>,
    deadline: Option<Duration>,
) -> Result<SimReport, (FailureKind, String)> {
    let (tx, rx) = mpsc::sync_channel::<Result<SimReport, String>>(1);
    let spawned = std::thread::Builder::new()
        .name(format!("cell-{}", &hash[..8.min(hash.len())]))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(injector) = &faults {
                    match injector.exec_fault(&hash, attempt) {
                        Some(ExecFault::Panic) => {
                            panic!("injected fault: panic (cell {hash}, attempt {attempt})")
                        }
                        Some(ExecFault::Stall(pause)) => std::thread::sleep(pause),
                        None => {}
                    }
                }
                simulate_cell(&cell)
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
    fn open(
        store: &ResultStore,
        grid: &str,
        coord: &CoordOpts,
        faults: Option<FaultInjector>,
    ) -> std::io::Result<Self> {
        let holder = coord.holder.clone().unwrap_or_else(lease::unique_holder);
        let leases = LeaseManager::open(store.dir(), holder.clone())?.with_faults(faults.clone());
        let journal = Arc::new(Journal::open(store.dir(), holder).with_faults(faults));
        Ok(Self {
            leases,
            journal,
            grid: grid.to_string(),
            ttl_override: coord.lease_ttl,
            active: Mutex::new(HashSet::new()),
        })
    }

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

    /// Executor-open hook: sweep leases abandoned by crashed holders so no
    /// cell stays blocked longer than one TTL (and, on this host, no
    /// longer than the next open).
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

/// Executes a grid: serves cached cells from `store`, simulates the misses
/// this shard owns (in parallel, each attempt fault-isolated), and
/// persists every fresh result. `store: None` disables caching entirely —
/// every owned cell re-simulates and nothing touches the filesystem.
///
/// Identical cells (same content hash) appearing at several spec positions
/// are simulated once and fanned out to all positions.
///
/// A failing cell never aborts the run: attempts are retried under
/// `opts.retry`, and cells that exhaust their budget are recorded in
/// [`GridOutcome::failures`] (and, when a store is present, persisted as a
/// [`FailureManifest`]) while every other cell completes normally.
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

    // Coordination plane (leases + journal) for store-backed runs; lease
    // I/O failure at open degrades to uncoordinated execution.
    let plane: Option<Arc<CoordPlane>> = match store {
        Some(s) if coord.enabled => {
            match CoordPlane::open(s, &spec.name, coord, opts.faults.clone()) {
                Ok(plane) => Some(Arc::new(plane)),
                Err(e) => {
                    eprintln!(
                        "chronus-grid: could not open lease/journal plane ({e}); running \
                         uncoordinated"
                    );
                    None
                }
            }
        }
        _ => None,
    };
    // Route store-level events (demotes) through this run's journal unless
    // the store already carries one.
    let journaled_store: Option<ResultStore> = match (store, &plane) {
        (Some(s), Some(p)) if s.journal().is_none() => {
            Some(s.clone().with_journal(p.journal.clone()))
        }
        (Some(s), _) => Some(s.clone()),
        (None, _) => None,
    };
    let store = journaled_store.as_ref();
    if let Some(p) = &plane {
        p.reclaim_stale_on_open();
    }

    // Cache pass. Deduplicate lookups so a hash shared by many cells is
    // read once.
    let mut by_hash: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, h) in hashes.iter().enumerate() {
        by_hash.entry(h.as_str()).or_default().push(i);
    }
    let mut pending: Vec<(&str, usize)> = Vec::new(); // (hash, representative index)
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
            None => pending.push((hash, indices[0])),
        }
    }

    // Shard filter: a duplicated hash is owned by the shard owning its
    // first (representative) position.
    pending.sort_by_key(|&(_, i)| i);
    let (owned, foreign): (Vec<_>, Vec<_>) =
        pending.into_iter().partition(|&(_, i)| opts.shard.owns(i));
    for (_, i) in &foreign {
        stats.skipped += by_hash[hashes[*i].as_str()].len();
    }

    // The deadline estimator and the lease heartbeat exist for the cells
    // this run simulates; a pass that owns no miss consults neither, so it
    // reads no wall sidecar and starts no thread.
    let has_work = !owned.is_empty();
    if let Some(s) = store.filter(|_| has_work) {
        for hash in &served {
            if let Some(wall) = s.recorded_wall(hash) {
                estimator.record(wall);
            }
        }
    }

    // Heartbeat thread: keeps every held lease's deadline ahead of the
    // clock while cells compute. Stopped (and joined) before returning.
    let hb_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = plane.as_ref().filter(|_| has_work).map(|p| {
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

    // Simulate the owned misses, each cell isolated and retried. Claims,
    // store writes and journal events all happen inside the worker, so a
    // cell's lease is released the moment its entry lands — not at the
    // end-of-grid barrier.
    let progress = Progress::new(&spec.name, owned.len(), opts.progress);
    let progress_ref = &progress;
    let cells_ref = &spec.cells;
    let hashes_ref = &hashes;
    let estimator_ref = &estimator;
    let plane_ref = plane.as_deref();
    let owned_indices: Vec<usize> = owned.iter().map(|&(_, i)| i).collect();
    let worker_results = try_run_parallel(owned_indices.clone(), opts.threads, move |i| {
        let cell = &cells_ref[i];
        let hash = hashes_ref[i].as_str();

        // Claim the cell (or wait out a live holder, or degrade to
        // uncoordinated on lease I/O failure).
        let mut holds_lease = false;
        if let (Some(store), Some(plane)) = (store, plane_ref) {
            match claim_or_wait(plane, store, hash, plane.ttl(estimator_ref)) {
                ClaimResult::Resolved(report) => {
                    progress_ref.cell_done(&cell.label);
                    return Ok(CellDone {
                        report: *report,
                        store_failure: None,
                        waited: true,
                    });
                }
                ClaimResult::Claimed => holds_lease = true,
                ClaimResult::Uncoordinated => {}
            }
            plane.journal.record(
                EventKind::Claim,
                &plane.grid,
                hash,
                0,
                0.0,
                "",
                if holds_lease { "" } else { "uncoordinated" },
            );
        }

        let token = mix64(hash.as_bytes());
        let mut attempt: u32 = 0;
        let simulated = loop {
            let attempt_started = Instant::now();
            let outcome = run_cell_guarded(
                cell.clone(),
                hash.to_string(),
                attempt,
                opts.faults.clone(),
                estimator_ref.deadline(),
            );
            match outcome {
                Ok(report) => {
                    let wall = attempt_started.elapsed().as_secs_f64();
                    estimator_ref.record(wall);
                    progress_ref.cell_done(&cell.label);
                    break Ok((report, wall));
                }
                Err((kind, error)) => {
                    progress_ref.cell_failed(&cell.label, attempt, &error);
                    if attempt >= opts.retry.max_retries {
                        break Err(CellFailure {
                            index: i,
                            label: cell.label.clone(),
                            hash: hash.to_string(),
                            kind,
                            attempts: attempt + 1,
                            error,
                        });
                    }
                    opts.retry.sleep_before_retry(attempt, token);
                    attempt += 1;
                }
            }
        };

        let out = match simulated {
            Ok((report, wall)) => {
                let mut store_failure = None;
                if let Some(store) = store {
                    match put_with_retry(store, hash, cell, &report, &opts.retry) {
                        Ok(checksum) => {
                            store.record_wall(hash, wall);
                            if let Some(plane) = plane_ref {
                                plane.journal.record(
                                    EventKind::Complete,
                                    &plane.grid,
                                    hash,
                                    attempt,
                                    wall,
                                    &checksum,
                                    "",
                                );
                            }
                        }
                        Err(e) => {
                            eprintln!(
                                "chronus-grid: failed to persist cell {hash} to {}: {e}",
                                store.dir().display()
                            );
                            if let Some(plane) = plane_ref {
                                plane.journal.record(
                                    EventKind::Fail,
                                    &plane.grid,
                                    hash,
                                    attempt,
                                    wall,
                                    "",
                                    &format!("store-write: {e}"),
                                );
                            }
                            store_failure = Some(CellFailure {
                                index: i,
                                label: cell.label.clone(),
                                hash: hash.to_string(),
                                kind: FailureKind::StoreWrite,
                                attempts: opts.retry.attempts(),
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
            Err(failure) => {
                if let Some(plane) = plane_ref {
                    plane.journal.record(
                        EventKind::Fail,
                        &plane.grid,
                        hash,
                        failure.attempts,
                        0.0,
                        "",
                        &format!("{:?}: {}", failure.kind, failure.error),
                    );
                }
                Err(failure)
            }
        };
        if holds_lease {
            if let Some(plane) = plane_ref {
                plane.release(hash);
            }
        }
        out
    });

    if let Some(handle) = heartbeat {
        hb_stop.store(true, Ordering::Relaxed);
        handle.thread().unpark();
        let _ = handle.join();
    }

    // Fan-out and accounting. Worker-level panics (outside the per-cell
    // guard) are demoted to cell failures too: one bad worker must never
    // take the grid down.
    let mut failures: Vec<CellFailure> = Vec::new();
    for (&i, result) in owned_indices.iter().zip(worker_results) {
        let hash = hashes[i].as_str();
        let indices = &by_hash[hash];
        let flattened = match result {
            Ok(done) => done,
            Err(panic_msg) => Err(CellFailure {
                index: i,
                label: spec.cells[i].label.clone(),
                hash: hash.to_string(),
                kind: FailureKind::Panic,
                attempts: 1,
                error: format!("worker thread panicked: {panic_msg}"),
            }),
        };
        match flattened {
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
/// store lock. Prior failures whose cells now verify in the store are
/// dropped (any shard's rerun heals them); failures re-observed this run
/// replace their prior record; an empty result removes the manifest.
pub(crate) fn update_manifest(
    store: &ResultStore,
    spec: &GridSpec,
    shard: &Shard,
    failures: &[CellFailure],
    complete: bool,
) {
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
}
