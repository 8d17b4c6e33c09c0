//! DRAM module geometry and addressing types.
//!
//! The simulated system follows Table 2 of the paper: one channel, two
//! ranks, eight bank groups of four banks each (64 banks total) and 64K
//! rows per bank.

use serde::{Deserialize, Serialize};

/// Row index within a bank.
pub type RowId = u32;

/// Physical organization of one DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Ranks sharing the channel (Table 2: 2).
    pub ranks: usize,
    /// Bank groups per rank (Table 2: 8).
    pub bankgroups: usize,
    /// Banks per bank group (Table 2: 4).
    pub banks_per_group: usize,
    /// Rows per bank (Table 2: 64K).
    pub rows: usize,
    /// Cache-line-sized columns per row (8 KiB row / 64 B line = 128).
    pub cols: usize,
    /// Bytes per column access (one cache line).
    pub line_bytes: usize,
}

impl Geometry {
    /// The paper's simulated configuration (Table 2).
    pub const fn ddr5() -> Self {
        Self {
            ranks: 2,
            bankgroups: 8,
            banks_per_group: 4,
            rows: 65_536,
            cols: 128,
            line_bytes: 64,
        }
    }

    /// A shrunken geometry for fast unit tests (same shape, fewer rows).
    pub const fn tiny() -> Self {
        Self {
            ranks: 1,
            bankgroups: 2,
            banks_per_group: 2,
            rows: 1024,
            cols: 16,
            line_bytes: 64,
        }
    }

    /// Banks in one rank.
    pub const fn banks_per_rank(&self) -> usize {
        self.bankgroups * self.banks_per_group
    }

    /// Banks in the whole channel.
    pub const fn total_banks(&self) -> usize {
        self.ranks * self.banks_per_rank()
    }

    /// Total channel capacity in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        (self.total_banks() * self.rows * self.cols * self.line_bytes) as u64
    }

    /// Row size in bytes.
    pub const fn row_bytes(&self) -> usize {
        self.cols * self.line_bytes
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::ddr5()
    }
}

/// Identifies one bank in the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BankId {
    /// Rank index.
    pub rank: u8,
    /// Bank-group index within the rank.
    pub group: u8,
    /// Bank index within the bank group.
    pub bank: u8,
}

impl BankId {
    /// Creates a bank identifier.
    pub const fn new(rank: u8, group: u8, bank: u8) -> Self {
        Self { rank, group, bank }
    }

    /// Flat index across the channel: `rank * banks_per_rank + group * banks_per_group + bank`.
    pub fn flat(&self, geo: &Geometry) -> usize {
        (self.rank as usize) * geo.banks_per_rank()
            + (self.group as usize) * geo.banks_per_group
            + self.bank as usize
    }

    /// Inverse of [`BankId::flat`].
    pub fn from_flat(idx: usize, geo: &Geometry) -> Self {
        let rank = idx / geo.banks_per_rank();
        let rem = idx % geo.banks_per_rank();
        Self {
            rank: rank as u8,
            group: (rem / geo.banks_per_group) as u8,
            bank: (rem % geo.banks_per_group) as u8,
        }
    }
}

impl std::fmt::Display for BankId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}g{}b{}", self.rank, self.group, self.bank)
    }
}

/// Fully decoded DRAM coordinates of one cache-line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramAddr {
    /// Target bank.
    pub bank: BankId,
    /// Row within the bank.
    pub row: RowId,
    /// Cache-line column within the row.
    pub col: u32,
}

impl DramAddr {
    /// Creates a decoded address.
    pub const fn new(bank: BankId, row: RowId, col: u32) -> Self {
        Self { bank, row, col }
    }

    /// True if `self` and `other` touch the same bank.
    pub fn same_bank(&self, other: &DramAddr) -> bool {
        self.bank == other.bank
    }

    /// True if `self` and `other` touch the same row of the same bank.
    pub fn same_row(&self, other: &DramAddr) -> bool {
        self.same_bank(other) && self.row == other.row
    }
}

/// Victim rows of `aggressor` under the given blast radius, clamped to the
/// bank (paper §5 assumes a blast radius of 2, i.e. four victims), in the
/// order `−d`, `+d` for `d = 1..=blast_radius`. Allocation-free: this runs
/// once per activation under the oracle.
pub fn victims_of(aggressor: RowId, blast_radius: u32, rows: usize) -> impl Iterator<Item = RowId> {
    (1..=blast_radius).flat_map(move |d| {
        let down = aggressor.checked_sub(d);
        let up = Some(aggressor + d).filter(|&up| (up as usize) < rows);
        [down, up].into_iter().flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr5_geometry_matches_table2() {
        let g = Geometry::ddr5();
        assert_eq!(g.total_banks(), 64);
        assert_eq!(g.banks_per_rank(), 32);
        assert_eq!(g.rows, 65_536);
        // 64 banks * 64K rows * 8 KiB rows = 32 GiB.
        assert_eq!(g.capacity_bytes(), 32 * (1 << 30));
        assert_eq!(g.row_bytes(), 8192);
    }

    #[test]
    fn bank_id_flat_roundtrip() {
        let g = Geometry::ddr5();
        for idx in 0..g.total_banks() {
            let b = BankId::from_flat(idx, &g);
            assert_eq!(b.flat(&g), idx);
        }
    }

    #[test]
    fn bank_id_flat_orders_rank_major() {
        let g = Geometry::ddr5();
        assert_eq!(BankId::new(0, 0, 0).flat(&g), 0);
        assert_eq!(BankId::new(0, 0, 1).flat(&g), 1);
        assert_eq!(BankId::new(0, 1, 0).flat(&g), 4);
        assert_eq!(BankId::new(1, 0, 0).flat(&g), 32);
    }

    #[test]
    fn victims_blast_radius_two_interior() {
        let v: Vec<RowId> = victims_of(100, 2, 65_536).collect();
        assert_eq!(v, vec![99, 101, 98, 102]);
    }

    #[test]
    fn victims_clamped_at_edges() {
        let victims = |row| victims_of(row, 2, 65_536).collect::<Vec<RowId>>();
        assert_eq!(victims(0), vec![1, 2]);
        assert_eq!(victims(1), vec![0, 2, 3]);
        let last = 65_535;
        assert_eq!(victims(last), vec![last - 1, last - 2]);
    }

    #[test]
    fn same_row_requires_same_bank() {
        let a = DramAddr::new(BankId::new(0, 0, 0), 5, 1);
        let b = DramAddr::new(BankId::new(0, 0, 1), 5, 1);
        assert!(!a.same_row(&b));
        assert!(a.same_row(&DramAddr::new(BankId::new(0, 0, 0), 5, 9)));
    }
}
