//! Thread-safe progress and ETA reporting on stderr.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Tracks completions across worker threads and prints one stderr line per
/// finished cell: count, elapsed wall-clock and a naive ETA extrapolated
/// from the mean cell cost so far (cells vary wildly — memory-bound mixes
/// cost orders of magnitude more than idle-heavy ones — so the ETA is an
/// order-of-magnitude aid, not a promise).
pub struct Progress {
    tag: String,
    total: usize,
    done: AtomicUsize,
    started: Instant,
    enabled: bool,
    /// Last-printed whole-second mark, for throttling.
    last_tick: AtomicU64,
}

impl Progress {
    /// A reporter for `total` pending cells; `enabled = false` silences it.
    pub fn new(tag: &str, total: usize, enabled: bool) -> Self {
        Self {
            tag: tag.to_string(),
            total,
            done: AtomicUsize::new(0),
            started: Instant::now(),
            enabled,
            last_tick: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one finished cell (thread-safe) and maybe prints.
    pub fn cell_done(&self, label: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        // Print at most once per second, but always print the final cell.
        let tick = elapsed as u64;
        let last = self.last_tick.swap(tick, Ordering::Relaxed);
        if tick == last && done != self.total {
            return;
        }
        let per_cell = elapsed / done as f64;
        let remaining = self.total.saturating_sub(done);
        let eta = per_cell * remaining as f64;
        eprintln!(
            "[{}] {done}/{} cells simulated, elapsed {elapsed:.1}s, eta {eta:.1}s ({label})",
            self.tag, self.total
        );
    }

    /// Reports a failed cell. Failures always print — even with progress
    /// disabled, a degraded run must leave a trace on stderr.
    pub fn cell_failed(&self, label: &str, error: &str) {
        eprintln!("[{}] cell '{label}' failed: {error}", self.tag);
    }

    /// Completions so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_without_printing() {
        let p = Progress::new("test", 3, false);
        p.cell_done("a");
        p.cell_done("b");
        assert_eq!(p.completed(), 2);
    }
}
