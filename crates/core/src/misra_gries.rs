//! Misra–Gries frequent-item counting with a spillover counter.
//!
//! Graphene and ABACuS both build on this structure [Misra & Gries '82;
//! Park+, MICRO'20]. The table guarantees that any row activated `n` times
//! within an epoch has an estimated count of at least `n − spillover`, so
//! a mechanism that triggers at estimated count `T` can never let a true
//! count exceed `T + spillover_max` undetected.
//!
//! # Contract
//!
//! Simulation reports depend on *which* counter a full table hands to a
//! new row, so the victim rule is fixed:
//!
//! * slots fill in index order (slot 0 first) and are never freed before
//!   [`MisraGries::clear`];
//! * a full table replaces the **lowest-index slot whose count equals the
//!   spillover**; when there is none, the spillover is incremented and no
//!   slot changes.
//!
//! Every count is ≥ the spillover (insertion is at `spillover + 1`,
//! [`MisraGries::reset_row`] re-arms at `spillover`, and the spillover only
//! grows while no count equals it), so that slot is the minimum of the
//! `(count, slot)` order iff the minimum's count equals the spillover.
//!
//! # Complexity
//!
//! `observe` and `reset_row` are O(log n) in the live slots, `estimate` is
//! O(1), and `clear` and memory are proportional to the slots in use —
//! never to `capacity`, which only bounds them (Graphene sizes ≈42 500
//! counters per bank at `N_RH` = 32 and a workload touches a few hundred).
//! The hash index is only ever probed by key: its iteration order reaches
//! no result.

use std::collections::{BTreeSet, HashMap};

use chronus_dram::RowId;

/// One Misra–Gries summary.
#[derive(Debug, Clone)]
pub struct MisraGries {
    capacity: usize,
    /// Slot → tracked row; grows on demand up to `capacity`.
    rows: Vec<RowId>,
    /// Slot → estimated count.
    counts: Vec<u32>,
    /// Tracked row → slot.
    index: HashMap<RowId, u32>,
    /// `(count, slot)` of every live slot; the minimum is the eviction
    /// candidate.
    order: BTreeSet<(u32, u32)>,
    spillover: u32,
}

impl MisraGries {
    /// A summary with `capacity` counters.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "need at least one counter");
        assert!(
            u32::try_from(capacity).is_ok(),
            "slot indices are 32-bit: {capacity} counters is too many"
        );
        Self {
            capacity,
            rows: Vec::new(),
            counts: Vec::new(),
            index: HashMap::new(),
            order: BTreeSet::new(),
            spillover: 0,
        }
    }

    fn set_count(&mut self, slot: u32, count: u32) {
        let old = std::mem::replace(&mut self.counts[slot as usize], count);
        self.order.remove(&(old, slot));
        self.order.insert((count, slot));
    }

    /// Observes one activation of `row`; returns the row's new estimated
    /// count.
    pub fn observe(&mut self, row: RowId) -> u32 {
        if let Some(&slot) = self.index.get(&row) {
            let est = self.counts[slot as usize] + 1;
            self.set_count(slot, est);
            return est;
        }
        if self.rows.len() < self.capacity {
            let slot = self.rows.len() as u32;
            let est = self.spillover + 1;
            self.rows.push(row);
            self.counts.push(est);
            self.index.insert(row, slot);
            self.order.insert((est, slot));
            return est;
        }
        // Table full: if some entry equals the spillover count, replace it;
        // otherwise increment the spillover.
        let spill = self.spillover;
        match self.order.first() {
            Some(&(count, slot)) if count == spill => {
                let evicted = std::mem::replace(&mut self.rows[slot as usize], row);
                self.index.remove(&evicted);
                self.index.insert(row, slot);
                self.set_count(slot, spill + 1);
                spill + 1
            }
            _ => {
                self.spillover += 1;
                self.spillover
            }
        }
    }

    /// The row's estimated count, if tracked.
    pub fn estimate(&self, row: RowId) -> Option<u32> {
        self.index.get(&row).map(|&slot| self.counts[slot as usize])
    }

    /// Resets `row`'s counter to the current spillover level (post-refresh
    /// re-arm, as Graphene does).
    pub fn reset_row(&mut self, row: RowId) {
        if let Some(&slot) = self.index.get(&row) {
            self.set_count(slot, self.spillover);
        }
    }

    /// Clears the whole summary (epoch reset every `tREFW`).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.counts.clear();
        self.index.clear();
        self.order.clear();
        self.spillover = 0;
    }

    /// Current spillover counter.
    pub fn spillover(&self) -> u32 {
        self.spillover
    }

    /// Number of counters the modelled table has (its storage cost), not
    /// the number in use.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_frequent_rows_exactly_when_table_fits() {
        let mut mg = MisraGries::new(4);
        for _ in 0..10 {
            mg.observe(1);
        }
        for _ in 0..3 {
            mg.observe(2);
        }
        assert_eq!(mg.estimate(1), Some(10));
        assert_eq!(mg.estimate(2), Some(3));
        assert_eq!(mg.spillover(), 0);
    }

    #[test]
    fn spillover_grows_under_many_distinct_rows() {
        let mut mg = MisraGries::new(2);
        for row in 0..100u32 {
            mg.observe(row);
        }
        assert!(mg.spillover() > 0);
    }

    #[test]
    fn undercount_bounded_by_spillover() {
        // Classic MG guarantee: est ≥ true − spillover. Hammer one row
        // amid noise and check its estimate.
        let mut mg = MisraGries::new(4);
        let mut true_count = 0u32;
        for i in 0..500u32 {
            mg.observe(1000);
            true_count += 1;
            mg.observe(i % 97); // noise
        }
        let est = mg.estimate(1000).unwrap_or(0);
        assert!(
            est + mg.spillover() >= true_count,
            "est {est} + spill {} < true {true_count}",
            mg.spillover()
        );
    }

    #[test]
    fn full_table_replaces_the_lowest_slot_at_spillover() {
        let mut mg = MisraGries::new(3);
        for row in [10, 11, 12, 10, 11, 12] {
            mg.observe(row); // every slot at 2
        }
        assert_eq!(mg.observe(13), 1, "no slot at spillover 0: it grows");
        assert_eq!(mg.observe(14), 2, "still none at 1: it grows again");
        // Slots 0..3 all sit at the spillover now; slot 0 goes first.
        assert_eq!(mg.observe(15), 3);
        assert_eq!(mg.estimate(10), None);
        assert_eq!(mg.estimate(11), Some(2));
        mg.reset_row(12); // slot 2 re-armed at 2, but slot 1 is lower
        assert_eq!(mg.observe(16), 3);
        assert_eq!(mg.estimate(11), None);
        assert_eq!(mg.estimate(12), Some(2));
    }

    #[test]
    fn reset_rearms_at_spillover_level() {
        let mut mg = MisraGries::new(2);
        for _ in 0..9 {
            mg.observe(5);
        }
        mg.reset_row(5);
        assert_eq!(mg.estimate(5), Some(mg.spillover()));
    }

    #[test]
    fn clear_resets_everything() {
        let mut mg = MisraGries::new(2);
        for row in 0..50u32 {
            mg.observe(row);
        }
        mg.clear();
        assert_eq!(mg.spillover(), 0);
        assert_eq!(mg.estimate(0), None);
    }
}
