//! Per-bank state machine and timing frontier.

use serde::{Deserialize, Serialize};

use crate::geometry::RowId;
use crate::Cycle;

/// Row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BankState {
    /// All rows precharged.
    Idle,
    /// `row` is latched in the row buffer.
    Opened {
        /// The open row.
        row: RowId,
    },
}

/// One DRAM bank: its row-buffer state plus the earliest cycle at which each
/// command class may next be issued (the per-bank timing frontier).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bank {
    /// Row-buffer state.
    pub(crate) state: BankState,
    /// Earliest next ACT.
    pub(crate) next_act: Cycle,
    /// Earliest next PRE.
    pub(crate) next_pre: Cycle,
    /// Earliest next RD.
    pub(crate) next_rd: Cycle,
    /// Earliest next WR.
    pub(crate) next_wr: Cycle,
    /// Activations served by this bank (for stats / PRFM RAA).
    pub acts: u64,
}

impl Bank {
    /// A fresh, idle bank.
    pub fn new() -> Self {
        Self {
            state: BankState::Idle,
            next_act: 0,
            next_pre: 0,
            next_rd: 0,
            next_wr: 0,
            acts: 0,
        }
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<RowId> {
        match self.state {
            BankState::Idle => None,
            BankState::Opened { row } => Some(row),
        }
    }

    /// True if the bank is precharged.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, BankState::Idle)
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bank_is_idle() {
        let b = Bank::new();
        assert!(b.is_idle());
        assert_eq!(b.open_row(), None);
        assert_eq!(b.acts, 0);
    }

    #[test]
    fn opened_bank_reports_row() {
        let mut b = Bank::new();
        b.state = BankState::Opened { row: 123 };
        assert!(!b.is_idle());
        assert_eq!(b.open_row(), Some(123));
    }
}
