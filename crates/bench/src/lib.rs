//! Benchmark-harness library: shared orchestration for the per-figure
//! binaries, built on the `chronus-grid` experiment engine.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --instructions N   instructions per core         (default 60 000)
//! --mixes N          four-core mixes per class     (default 2 → 12 mixes)
//! --threads N        worker threads                (default: all cores)
//! --seed N           RNG seed                      (default 42)
//! --nrh a,b,c        RowHammer threshold sweep     (default 1024…20)
//! --out FILE         also write results as JSON
//! --shard i/N        own 1/N of the grid cells     (default 1/1)
//! --grid-dir DIR     result-store directory        (default: grid-cache)
//! --no-cache         bypass the result store
//! --quiet            no progress/ETA lines
//! ```
//!
//! Paper scale is `--instructions 100000000 --mixes 10`. Completed cells
//! are cached in the content-addressed result store, so re-running any
//! binary (or `all_figures`) re-simulates nothing that already finished;
//! see BENCH_README.md ("Sweeps, sharding and the result cache").

pub mod grids;
pub mod opts;
pub mod runs;
pub mod tables;

pub use opts::HarnessOpts;
pub use runs::{execute, exit_code, figure_main, finish, AppSweep, MixSweep, SweepRow};
pub use tables::{format_table, geomean, write_json};
