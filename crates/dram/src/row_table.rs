//! A lazily paged `banks × rows` table of `u32` per-row state.
//!
//! PRAC/Chronus activation counters and the oracle's `acts`/`damage` planes
//! are logically one `u32` per DRAM row (4 M rows, 16 MiB per plane on the
//! Table 2 geometry), yet a simulated cell writes a few hundred of them.
//! [`RowTable`] keeps one optional page per [`PAGE_ROWS`] rows of a bank and
//! materialises a page the first time a row in it is written, so building
//! and dropping a table costs the page directory, not the plane. An absent
//! page reads as all zeros; reads and clears never allocate.

use std::ops::Range;

/// Rows per page: 1024 `u32`s = 4 KiB, one host page. A row's victims
/// (blast radius 2) almost always share its page, and a 64K-row bank needs
/// a 64-entry directory.
pub const PAGE_ROWS: usize = 1024;

type Page = Box<[u32; PAGE_ROWS]>;

/// Per-row `u32` state for every bank of a channel, zero until written.
#[derive(Debug, Clone)]
pub struct RowTable {
    rows: usize,
    pages_per_bank: usize,
    /// `pages[bank * pages_per_bank + row / PAGE_ROWS]`; `None` = all zero.
    pages: Vec<Option<Page>>,
}

impl RowTable {
    /// An all-zero table of `banks × rows` entries with no resident page.
    pub fn new(banks: usize, rows: usize) -> Self {
        let pages_per_bank = rows.div_ceil(PAGE_ROWS);
        Self {
            rows,
            pages_per_bank,
            pages: (0..banks * pages_per_bank).map(|_| None).collect(),
        }
    }

    fn page_index(&self, bank: usize, row: usize) -> usize {
        // Together with the directory's own bounds check this rejects every
        // out-of-range (bank, row), including rows in a last page's tail.
        assert!(row < self.rows, "row {row} out of range");
        bank * self.pages_per_bank + row / PAGE_ROWS
    }

    /// The value of `(bank, row)`.
    pub fn get(&self, bank: usize, row: usize) -> u32 {
        match &self.pages[self.page_index(bank, row)] {
            Some(page) => page[row % PAGE_ROWS],
            None => 0,
        }
    }

    /// Mutable access to `(bank, row)`, materialising its page.
    pub fn slot(&mut self, bank: usize, row: usize) -> &mut u32 {
        let idx = self.page_index(bank, row);
        let page = self.pages[idx].get_or_insert_with(|| Box::new([0; PAGE_ROWS]));
        &mut page[row % PAGE_ROWS]
    }

    /// Zeroes `(bank, row)`.
    pub fn clear(&mut self, bank: usize, row: usize) {
        let idx = self.page_index(bank, row);
        if let Some(page) = &mut self.pages[idx] {
            page[row % PAGE_ROWS] = 0;
        }
    }

    /// Zeroes rows `range` of `bank`. An empty range is a no-op.
    pub fn clear_range(&mut self, bank: usize, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        assert!(range.end <= self.rows, "row range {range:?} out of range");
        let base = bank * self.pages_per_bank;
        for p in range.start / PAGE_ROWS..=(range.end - 1) / PAGE_ROWS {
            if let Some(page) = &mut self.pages[base + p] {
                let first = p * PAGE_ROWS;
                let lo = range.start.max(first) - first;
                let hi = range.end.min(first + PAGE_ROWS) - first;
                page[lo..hi].fill(0);
            }
        }
    }

    /// Pages materialised so far (each [`PAGE_ROWS`] × 4 bytes).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_clears_of_unwritten_rows_allocate_nothing() {
        let rows = 3 * PAGE_ROWS + 17;
        let mut t = RowTable::new(4, rows);
        for bank in 0..4 {
            assert_eq!(t.get(bank, 0), 0);
            assert_eq!(t.get(bank, rows - 1), 0);
            t.clear(bank, PAGE_ROWS + 5);
            t.clear_range(bank, 0..rows);
            t.clear_range(bank, PAGE_ROWS - 1..PAGE_ROWS + 1);
            t.clear_range(bank, 7..7);
        }
        assert_eq!(t.resident_pages(), 0);
    }

    #[test]
    fn a_write_materialises_exactly_its_page() {
        let mut t = RowTable::new(2, 2 * PAGE_ROWS);
        *t.slot(1, PAGE_ROWS + 3) += 5;
        assert_eq!(t.resident_pages(), 1);
        assert_eq!(t.get(1, PAGE_ROWS + 3), 5);
        assert_eq!(t.get(1, PAGE_ROWS + 2), 0);
        assert_eq!(t.get(0, PAGE_ROWS + 3), 0, "banks do not alias");
        *t.slot(1, PAGE_ROWS + 4) += 1;
        assert_eq!(t.resident_pages(), 1, "same page");
        t.clear(1, PAGE_ROWS + 3);
        assert_eq!(t.get(1, PAGE_ROWS + 3), 0);
        assert_eq!(t.get(1, PAGE_ROWS + 4), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_in_the_last_pages_tail_are_rejected() {
        let t = RowTable::new(1, PAGE_ROWS + 1);
        let _ = t.get(0, PAGE_ROWS + 1);
    }
}
