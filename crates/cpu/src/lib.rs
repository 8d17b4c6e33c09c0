//! Trace-driven CPU frontend: cores, shared LLC, and system metrics.
//!
//! Models the processor side of Table 2: 4.2 GHz cores with a 128-entry
//! instruction window and 4-wide issue/retire, above a shared 8 MiB,
//! 8-way, 64 B-line last-level cache with MSHR-based miss handling.
//!
//! * [`trace`] — the memory-trace format (`bubbles` non-memory
//!   instructions followed by a load/store), compatible in spirit with
//!   Ramulator 2.0's SimpleO3 traces, plus a non-cacheable load used by
//!   adversarial patterns (modelling `clflush`-based hammering).
//! * [`cache`] — the shared LLC: write-allocate, writeback, LRU, MSHR
//!   merging; misses surface as line requests the simulator forwards to
//!   the memory controller.
//! * [`core`] — the SimpleO3-style core model.
//! * [`metrics`] — weighted speedup [Snavely & Tullsen, ASPLOS'00] and
//!   maximum slowdown, the paper's performance metrics.

pub mod cache;
pub mod core;
pub mod metrics;
pub mod trace;

/// A seeded generator for this crate's randomized tests (splitmix64): the
/// same seed replays the same case on every machine.
#[cfg(test)]
pub(crate) struct TestRng(pub u64);

#[cfg(test)]
impl TestRng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub use cache::{CacheConfig, LoadResult, SharedLlc, UncoreRequest};
pub use core::{CoreConfig, CoreState, CoreWake, SimpleO3Core};
pub use metrics::{max_slowdown, weighted_speedup};
pub use trace::{Trace, TraceEntry, TraceOp};
