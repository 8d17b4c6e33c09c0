//! Append-only operations journal: every store mutation, auditable.
//!
//! Each holder (one executor, `doctor` pass, `gc`, …) appends to its own
//! `<store>/journal/<holder>.jsonl` — one compact JSON object per line,
//! fsync'd per event (or once per unit of work's events), never
//! rewritten. Single-writer-per-file means no
//! append interleaving between processes; readers merge all files and sort
//! by `(at_ms, holder, seq)` to reconstruct the global order.
//!
//! Six event kinds cover the store's whole mutation surface:
//!
//! | kind       | meaning                                                  |
//! |------------|----------------------------------------------------------|
//! | Claim      | holder leased a cell and is about to simulate it          |
//! | Complete   | entry persisted; `checksum` = its footer digest, `wall` s |
//! | Fail       | cell permanently failed (kind + error in `detail`)        |
//! | Demote     | corrupt entry/manifest demoted to a reported miss         |
//! | Quarantine | `fsck` moved a corrupt file into `quarantine/`            |
//! | Gc         | `gc` removed an entry not in the keep-set                 |
//!
//! Journal writes are *audit*, not *control*: an append failure is reported
//! and swallowed by the higher layers (a broken audit trail must never take
//! down a simulation run), and `doctor` treats a missing Complete event for
//! an existing, verified entry as benign for exactly that reason. A torn
//! trailing line (crash mid-append) is counted and skipped by the reader.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::faults::FaultInjector;

/// Subdirectory of the store that holds journal files.
pub const JOURNAL_SUBDIR: &str = "journal";

/// What happened to a cell (or store file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A holder leased the cell and is about to simulate it.
    Claim,
    /// The entry was persisted; `checksum` carries its footer digest.
    Complete,
    /// The cell permanently failed; `detail` carries kind + error.
    Fail,
    /// A corrupt entry or manifest was demoted to a reported miss.
    Demote,
    /// `fsck` quarantined a corrupt file.
    Quarantine,
    /// `gc` removed an entry outside the keep-set.
    Gc,
}

/// One journal line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// Per-holder monotonic sequence number (tie-break within one file).
    pub seq: u64,
    /// Wall-clock epoch milliseconds at append time.
    pub at_ms: u64,
    /// Holder identity that appended the event.
    pub holder: String,
    /// Grid name, or `"-"` for store-level maintenance events.
    pub grid: String,
    /// Event kind.
    pub kind: EventKind,
    /// Cell hash (or quarantined file name for non-cell targets).
    pub hash: String,
    /// Attempt number the event refers to (0-based; 0 when n/a).
    pub attempt: u32,
    /// Wall-clock seconds of the simulation (0 when n/a).
    pub wall: f64,
    /// Entry footer digest for `Complete`; empty otherwise.
    pub checksum: String,
    /// Free-form context (failure kind+error, reclaim reason, …).
    pub detail: String,
}

struct JournalState {
    file: Option<File>,
    seq: u64,
}

/// One holder's append-only journal under `<store>/journal/`.
///
/// The file (and the directory) are created lazily on first append, so
/// read-only store usage never litters the store.
pub struct Journal {
    dir: PathBuf,
    holder: String,
    faults: Option<FaultInjector>,
    state: Mutex<JournalState>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("holder", &self.holder)
            .finish()
    }
}

impl Journal {
    /// A journal for `holder` under `<store_dir>/journal/`.
    pub fn open(store_dir: &Path, holder: impl Into<String>) -> Self {
        Self {
            dir: store_dir.join(JOURNAL_SUBDIR),
            holder: holder.into(),
            faults: None,
            state: Mutex::new(JournalState { file: None, seq: 0 }),
        }
    }

    /// Attaches deterministic fault injection to the append path.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// This journal's holder identity.
    pub fn holder(&self) -> &str {
        &self.holder
    }

    /// This holder's journal file path.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.jsonl", self.holder))
    }

    /// Appends one event (fills `seq`, `at_ms`, `holder`) and fsyncs it.
    ///
    /// # Errors
    ///
    /// Propagates append/fsync failures (including injected journal
    /// faults). Callers on the simulation path report and swallow these —
    /// audit never aborts compute.
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &self,
        kind: EventKind,
        grid: &str,
        hash: &str,
        attempt: u32,
        wall: f64,
        checksum: &str,
        detail: &str,
    ) -> io::Result<()> {
        self.write(kind, grid, hash, attempt, wall, checksum, detail)?;
        self.sync()
    }

    /// [`Journal::append`] without the fsync: the event is durable after
    /// the next [`Journal::sync`], so a unit of work fsyncs its members'
    /// events once.
    ///
    /// # Errors
    ///
    /// As [`Journal::append`], fsync aside.
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &self,
        kind: EventKind,
        grid: &str,
        hash: &str,
        attempt: u32,
        wall: f64,
        checksum: &str,
        detail: &str,
    ) -> io::Result<()> {
        if let Some(faults) = &self.faults {
            if let Some(e) = faults.journal_fault(hash) {
                return Err(e);
            }
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.file.is_none() {
            std::fs::create_dir_all(&self.dir)?;
            state.file = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.path())?,
            );
        }
        let event = JournalEvent {
            seq: state.seq,
            at_ms: crate::lease::now_ms(),
            holder: self.holder.clone(),
            grid: grid.to_string(),
            kind,
            hash: hash.to_string(),
            attempt,
            wall,
            checksum: checksum.to_string(),
            detail: detail.to_string(),
        };
        let line = serde_json::to_string(&event).expect("journal events always serialize");
        let file = state.file.as_mut().expect("opened above");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        state.seq += 1;
        Ok(())
    }

    /// Fsyncs every event written so far.
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure.
    pub fn sync(&self) -> io::Result<()> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.file.as_ref().map_or(Ok(()), File::sync_data)
    }

    /// [`Journal::append`] that reports failures to stderr instead of
    /// propagating them — the audit-never-aborts-compute convenience.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: EventKind,
        grid: &str,
        hash: &str,
        attempt: u32,
        wall: f64,
        checksum: &str,
        detail: &str,
    ) {
        if let Err(e) = self.append(kind, grid, hash, attempt, wall, checksum, detail) {
            eprintln!(
                "chronus-grid: journal append failed for {hash} ({kind:?}): {e} (run continues; audit trail incomplete)"
            );
        }
    }
}

/// The merged, ordered view of every journal file under a store.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// All parsed events, sorted by `(at_ms, holder, seq)`.
    pub events: Vec<JournalEvent>,
    /// Unparsable lines skipped (torn trailing writes from crashes).
    pub torn_lines: usize,
    /// Journal files read.
    pub files: usize,
}

/// Reads and merges every `<store_dir>/journal/*.jsonl`. Unparsable lines
/// (torn by a crash mid-append) are counted, not fatal.
///
/// # Errors
///
/// Propagates directory/file read failures; a missing journal directory is
/// an empty scan, not an error.
pub fn read_events(store_dir: &Path) -> io::Result<JournalScan> {
    let mut scan = JournalScan::default();
    let dir = store_dir.join(JOURNAL_SUBDIR);
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            paths.push(path);
        }
    }
    paths.sort();
    for path in paths {
        scan.files += 1;
        let text = std::fs::read_to_string(&path)?;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JournalEvent>(line) {
                Ok(event) => scan.events.push(event),
                Err(_) => scan.torn_lines += 1,
            }
        }
    }
    scan.events
        .sort_by(|a, b| (a.at_ms, &a.holder, a.seq).cmp(&(b.at_ms, &b.holder, b.seq)));
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chronus-grid-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = scratch("roundtrip");
        let journal = Journal::open(&dir, "host-1-0");
        journal
            .append(EventKind::Claim, "g", &"a".repeat(32), 0, 0.0, "", "")
            .unwrap();
        journal
            .append(
                EventKind::Complete,
                "g",
                &"a".repeat(32),
                1,
                0.25,
                "deadbeef",
                "",
            )
            .unwrap();
        let scan = read_events(&dir).unwrap();
        assert_eq!(scan.files, 1);
        assert_eq!(scan.torn_lines, 0);
        assert_eq!(scan.events.len(), 2);
        assert_eq!(scan.events[0].kind, EventKind::Claim);
        assert_eq!(scan.events[0].seq, 0);
        assert_eq!(scan.events[1].kind, EventKind::Complete);
        assert_eq!(scan.events[1].checksum, "deadbeef");
        assert_eq!(scan.events[1].wall, 0.25);
        assert_eq!(scan.events[1].seq, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_merges_holders_and_tolerates_torn_lines() {
        let dir = scratch("torn");
        let a = Journal::open(&dir, "host-1-0");
        let b = Journal::open(&dir, "host-2-0");
        a.append(EventKind::Claim, "g", &"a".repeat(32), 0, 0.0, "", "")
            .unwrap();
        b.append(EventKind::Gc, "-", &"b".repeat(32), 0, 0.0, "", "")
            .unwrap();
        // Simulate a crash mid-append: a torn half-line at EOF.
        {
            let mut f = OpenOptions::new().append(true).open(a.path()).unwrap();
            f.write_all(b"{\"seq\":9,\"at_ms\":1,\"holde").unwrap();
        }
        let scan = read_events(&dir).unwrap();
        assert_eq!(scan.files, 2);
        assert_eq!(scan.events.len(), 2);
        assert_eq!(scan.torn_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_dir_is_an_empty_scan() {
        let dir = scratch("empty");
        let scan = read_events(&dir).unwrap();
        assert_eq!(scan.files, 0);
        assert!(scan.events.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_swallows_injected_faults() {
        let dir = scratch("faulted");
        let plan = crate::FaultPlan::parse("journal:1.0,seed:3").unwrap();
        let journal = Journal::open(&dir, "host-1-0").with_faults(Some(plan.injector()));
        // Must not panic or error out of `record`.
        journal.record(EventKind::Claim, "g", &"a".repeat(32), 0, 0.0, "", "");
        assert!(
            journal
                .append(EventKind::Claim, "g", &"a".repeat(32), 0, 0.0, "", "")
                .is_err(),
            "append must surface the injected fault"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
