//! Cycle-level DDR5 DRAM device model.
//!
//! This crate is the lowest layer of the Chronus reproduction stack. It
//! models a DDR5 module (ranks → bank groups → banks → rows) at command
//! granularity with a full timing-constraint engine, and exposes the two
//! extension points the paper's mechanisms need:
//!
//! * [`DramMitigation`] — the on-DRAM-die mitigation hook (PRAC counters,
//!   Chronus CCU, RFM victim selection, borrowed refresh).
//! * the `alert_n` back-off pin ([`DramDevice::alert_visible`]), which the
//!   memory controller polls to drive its RFM/back-off state machine.
//!
//! Three timing modes reproduce Table 1 and Appendix E of the paper:
//! [`TimingMode::Baseline`] (DDR5 without PRAC), [`TimingMode::Prac`]
//! (post-erratum PRAC timings), and [`TimingMode::PracBuggy`] (the
//! pre-erratum timings where `tRAS`/`tRTP`/`tWR` were not reduced).
//!
//! An optional [`oracle::DisturbOracle`] tracks ground-truth per-row
//! disturbance so tests can verify that no row is ever hammered `N_RH`
//! times between refreshes of its victims.
//!
//! ```
//! use chronus_dram::{Command, DramConfig, DramDevice, BankId};
//!
//! let cfg = DramConfig::ddr5_baseline();
//! let mut dev = DramDevice::new(cfg);
//! let bank = BankId::new(0, 0, 0);
//! assert!(dev.can_issue(&Command::Act { bank, row: 42 }, 0));
//! dev.issue(&Command::Act { bank, row: 42 }, 0);
//! assert_eq!(dev.open_row(bank), Some(42));
//! ```

pub mod bank;
pub mod command;
pub mod device;
pub mod geometry;
pub mod mitigation;
pub mod oracle;
pub mod rank;
pub mod row_table;
pub mod stats;
pub mod timing;

pub use bank::{Bank, BankState};
pub use command::Command;
pub use device::{DramConfig, DramDevice};
pub use geometry::{BankId, DramAddr, Geometry, RowId};
pub use mitigation::{DramMitigation, MitigationStats, NoMitigation, RfmOutcome};
pub use oracle::{DisturbOracle, ThresholdModel};
pub use row_table::RowTable;
pub use stats::DramStats;
pub use timing::{TimingMode, Timings, TimingsNs};

/// Memory-controller command-clock cycle count (tCK = 0.625 ns for DDR5-3200).
pub type Cycle = u64;
