//! `chronus-grid` — sharded, cached, resumable experiment-grid
//! orchestration.
//!
//! The paper's artifact farms ~500 Ramulator jobs onto a Slurm cluster to
//! produce its figures; this crate is the single-machine (and
//! multi-machine) equivalent for the Rust reproduction. A figure or table
//! is a declarative [`GridSpec`]: an ordered list of [`CellSpec`]s, each
//! pairing a [`WorkloadSpec`] (how to regenerate the per-core traces) with
//! a fully resolved [`chronus_sim::SimConfig`]. Execution is:
//!
//! * **content-addressed** — every cell is keyed by a stable 128-bit hash
//!   of its resolved config + workload identity + a simulator-version
//!   stamp ([`cell::SIM_VERSION`]), so a completed cell is never
//!   re-simulated, across runs, figures, and machines sharing a store;
//! * **resumable** — interrupt a sweep anywhere; the next run picks up at
//!   the first missing cell;
//! * **sharded** — `--shard i/N` deterministically partitions the cells of
//!   a grid across processes or machines; [`exec::merge`] then assembles
//!   results from the shared (or copied-together) store byte-identically
//!   to an unsharded run. Sharding is the one way to split a grid: the
//!   store needs no coordination beyond atomic, byte-deterministic writes,
//!   so two unsharded runs racing on one store duplicate compute but never
//!   corrupt it.
//!
//! ```no_run
//! use chronus_grid::{AppTrace, CellSpec, ExecOpts, GridSpec, ResultStore, WorkloadSpec};
//! use chronus_sim::SimConfig;
//!
//! let mut spec = GridSpec::new("demo");
//! for nrh in [1024u32, 32] {
//!     let mut cfg = SimConfig::single_core();
//!     cfg.mechanism = chronus_core::MechanismKind::Chronus;
//!     cfg.nrh = nrh;
//!     let workload = WorkloadSpec::Apps {
//!         apps: vec![AppTrace::new("429.mcf", 0, 42)],
//!         trace_instructions: 110_000,
//!     };
//!     spec.push(CellSpec::new(format!("mcf@{nrh}"), workload, cfg));
//! }
//! let store = ResultStore::open_default().unwrap();
//! let outcome = chronus_grid::run_grid(&spec, Some(&store), &ExecOpts::default());
//! assert!(outcome.is_complete());
//! ```

pub mod cell;
pub mod exec;
pub mod faults;
pub mod hash;
pub mod progress;
pub mod shard;
pub mod spec;
pub mod store;

pub use cell::{AppTrace, AttackSpec, CellKey, CellSpec, WorkloadSpec, SIM_VERSION};
pub use exec::{
    merge, run_grid, simulate_cell, CellFailure, ExecOpts, ExecStats, FailureKind, FailureManifest,
    GridOutcome, DEGRADED_EXIT,
};
pub use faults::{FaultPlan, FAULTS_ENV};
pub use hash::cell_hash;
pub use progress::Progress;
pub use shard::Shard;
pub use spec::GridSpec;
pub use store::{
    CellRecord, EntryIssue, EntryState, FsckReport, ManifestState, ResultStore, StoreLock,
    DEFAULT_GRID_DIR, GRID_DIR_ENV, STORE_FORMAT_VERSION,
};
