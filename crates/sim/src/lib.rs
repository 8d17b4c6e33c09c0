//! Full-system simulator.
//!
//! Wires the trace-driven cores and shared LLC (`chronus-cpu`), memory
//! controller (`chronus-ctrl`), DDR5 device (`chronus-dram`), mitigation
//! mechanisms (`chronus-core`) and energy model (`chronus-energy`) into
//! the evaluation platform of Table 2, with the 4.2 GHz : 1.6 GHz clock
//! ratio expressed exactly as 21 CPU cycles per 8 memory cycles.
//!
//! ```no_run
//! use chronus_sim::{SimConfig, System};
//! use chronus_core::MechanismKind;
//! use chronus_workloads::synthetic_app;
//!
//! let mut cfg = SimConfig::four_core();
//! cfg.mechanism = MechanismKind::Chronus;
//! cfg.nrh = 1024;
//! let traces: Vec<_> = ["429.mcf", "470.lbm", "tpch2", "511.povray"]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, n)| synthetic_app(n, i as u64).unwrap().generate(100_000, 42))
//!     .collect();
//! let report = System::build(&cfg).run(traces);
//! println!("weighted IPC sum: {:?}", report.ipc);
//! ```

pub mod config;
pub mod parallel;
pub mod report;
pub mod slab;
pub mod system;

pub use config::{SimConfig, VrdSpec};
pub use parallel::try_run_parallel;
pub use report::SimReport;
pub use slab::InflightSlab;
pub use system::{LoopStats, System};
