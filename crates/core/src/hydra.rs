//! Hydra [Qureshi+, ISCA'22]: hybrid group/row tracking with in-DRAM
//! counters.
//!
//! Two levels:
//!
//! 1. A **Group Count Table** (GCT) in controller SRAM counts activations
//!    per group of rows. While a group's count stays below the group
//!    threshold, no per-row state exists.
//! 2. When a group saturates, tracking switches to per-row counters stored
//!    **in DRAM** (the Row Count Table, RCT), cached in a small SRAM
//!    structure. RCT cache misses inject real DRAM read traffic and dirty
//!    evictions inject writebacks — the source of Hydra's overhead at low
//!    `N_RH` (Fig. 8/10).
//!
//! A row whose count reaches `N_RH / 2` triggers a preventive refresh of
//! its victims. All state resets every `tREFW` epoch.

use std::collections::HashMap;

use chronus_ctrl::{CtrlMitigation, CtrlMitigationStats, MitigationAction};
use chronus_dram::{Cycle, DramAddr, Geometry, RowId};

/// Hydra configuration.
#[derive(Debug, Clone, Copy)]
pub struct HydraConfig {
    /// Rows per GCT group (Hydra paper: 128 rows/group).
    pub rows_per_group: usize,
    /// Group threshold: switch to per-row tracking at this group count
    /// (Hydra paper: 0.4 × N_RH).
    pub group_threshold: u32,
    /// Per-row threshold triggering a preventive refresh (N_RH / 2).
    pub row_threshold: u32,
    /// RCT cache capacity in entries (Hydra paper: 4K entries).
    pub cache_entries: usize,
    /// Epoch length in cycles (tREFW).
    pub epoch_cycles: u64,
}

impl HydraConfig {
    /// Hydra configured for `nrh` with the paper's proportions.
    pub fn for_nrh(nrh: u32, epoch_cycles: u64) -> Self {
        Self {
            rows_per_group: 128,
            group_threshold: (nrh * 2 / 5).max(1),
            row_threshold: (nrh / 2).max(1),
            cache_entries: 4096,
            epoch_cycles,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheLine {
    key: (usize, RowId),
    count: u32,
    dirty: bool,
}

/// The Hydra mechanism.
#[derive(Debug)]
pub struct Hydra {
    geo: Geometry,
    cfg: HydraConfig,
    /// Per flat bank, per group: activation counts.
    gct: Vec<Vec<u32>>,
    /// RCT backing store (models DRAM-resident counters; traffic costs are
    /// injected separately).
    rct: HashMap<(usize, RowId), u32>,
    /// `(flat_bank, group)` of every non-zero GCT entry, so the epoch
    /// reset touches only those.
    gct_touched: Vec<(usize, usize)>,
    /// FIFO RCT cache.
    cache: Vec<CacheLine>,
    /// Cached key → slot in `cache`; only ever probed by key.
    cache_index: HashMap<(usize, RowId), usize>,
    cache_next: usize,
    epoch_end: Cycle,
    stats: CtrlMitigationStats,
}

impl Hydra {
    /// A Hydra instance for the given geometry and configuration.
    pub fn new(geo: Geometry, cfg: HydraConfig) -> Self {
        assert!(cfg.rows_per_group >= 1, "need at least one row per group");
        assert!(cfg.cache_entries >= 1, "need at least one RCT cache entry");
        let groups = geo.rows.div_ceil(cfg.rows_per_group);
        Self {
            geo,
            cfg,
            gct: (0..geo.total_banks()).map(|_| vec![0u32; groups]).collect(),
            rct: HashMap::new(),
            gct_touched: Vec::new(),
            cache: Vec::new(),
            cache_index: HashMap::new(),
            cache_next: 0,
            epoch_end: cfg.epoch_cycles,
            stats: CtrlMitigationStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HydraConfig {
        &self.cfg
    }

    /// DRAM address of the RCT entry for (`flat_bank`, `row`): counters
    /// live in reserved rows at the top of the same bank.
    fn rct_addr(&self, bank: chronus_dram::BankId, row: RowId) -> DramAddr {
        let per_row = self.geo.cols as u32; // one counter line per col slot
        let idx = row / per_row;
        let col = row % per_row;
        let rct_row = (self.geo.rows as u32 - 1).saturating_sub(idx);
        DramAddr::new(bank, rct_row, col)
    }

    /// Inserts into the RCT cache; returns the line's slot and the evicted
    /// dirty line, if any.
    fn cache_insert(&mut self, line: CacheLine) -> (usize, Option<CacheLine>) {
        if self.cache.len() < self.cfg.cache_entries {
            let slot = self.cache.len();
            self.cache.push(line);
            self.cache_index.insert(line.key, slot);
            return (slot, None);
        }
        let slot = self.cache_next;
        self.cache_next = (self.cache_next + 1) % self.cfg.cache_entries;
        let evicted = std::mem::replace(&mut self.cache[slot], line);
        self.cache_index.remove(&evicted.key);
        self.cache_index.insert(line.key, slot);
        (slot, evicted.dirty.then_some(evicted))
    }
}

impl CtrlMitigation for Hydra {
    fn on_activate(&mut self, addr: DramAddr, now: Cycle, actions: &mut Vec<MitigationAction>) {
        if now >= self.epoch_end {
            for (flat, group) in self.gct_touched.drain(..) {
                self.gct[flat][group] = 0;
            }
            self.rct.clear();
            self.cache.clear();
            self.cache_index.clear();
            self.cache_next = 0;
            self.epoch_end = now - now % self.cfg.epoch_cycles + self.cfg.epoch_cycles;
        }
        let flat = addr.bank.flat(&self.geo);
        let group = addr.row as usize / self.cfg.rows_per_group;
        let gcount = &mut self.gct[flat][group];
        if *gcount < self.cfg.group_threshold {
            if *gcount == 0 {
                self.gct_touched.push((flat, group));
            }
            *gcount += 1;
            return;
        }
        // Per-row tracking phase. Rows start at the group threshold
        // (conservative initialisation, as in Hydra).
        let key = (flat, addr.row);
        let (slot, count) = match self.cache_index.get(&key) {
            Some(&slot) => {
                let line = &mut self.cache[slot];
                line.count += 1;
                line.dirty = true;
                (slot, line.count)
            }
            None => {
                // Miss: fetch the counter from DRAM (read traffic), then
                // update it in cache.
                self.stats.aux_reads += 1;
                actions.push(MitigationAction::AuxRead {
                    addr: self.rct_addr(addr.bank, addr.row),
                });
                let stored = *self.rct.get(&key).unwrap_or(&self.cfg.group_threshold);
                let count = stored + 1;
                let (slot, evicted) = self.cache_insert(CacheLine {
                    key,
                    count,
                    dirty: true,
                });
                if let Some(evicted) = evicted {
                    self.stats.aux_writes += 1;
                    self.rct.insert(evicted.key, evicted.count);
                    let (eflat, erow) = evicted.key;
                    let ebank = chronus_dram::BankId::from_flat(eflat, &self.geo);
                    actions.push(MitigationAction::AuxWrite {
                        addr: self.rct_addr(ebank, erow),
                    });
                }
                (slot, count)
            }
        };
        if count >= self.cfg.row_threshold {
            // Reset and preventively refresh.
            self.cache[slot].count = 0;
            self.cache[slot].dirty = true;
            self.rct.insert(key, 0);
            self.stats.triggers += 1;
            self.stats.victim_refreshes += 1;
            actions.push(MitigationAction::RefreshVictims {
                bank: addr.bank,
                aggressor: addr.row,
            });
        }
    }

    fn stats(&self) -> CtrlMitigationStats {
        self.stats
    }

    fn kind_name(&self) -> &'static str {
        "hydra"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_dram::BankId;

    fn mech(nrh: u32) -> Hydra {
        Hydra::new(Geometry::tiny(), HydraConfig::for_nrh(nrh, 51_200_000))
    }

    const B: BankId = BankId::new(0, 0, 0);

    #[test]
    fn group_phase_absorbs_early_activations() {
        let mut h = mech(100);
        let addr = DramAddr::new(B, 5, 0);
        let mut actions = Vec::new();
        for _ in 0..h.config().group_threshold {
            h.on_activate(addr, 0, &mut actions);
        }
        assert!(actions.is_empty(), "no RCT traffic in the group phase");
        // The next activation enters per-row tracking: one RCT fetch.
        h.on_activate(addr, 0, &mut actions);
        assert!(matches!(actions[0], MitigationAction::AuxRead { .. }));
    }

    #[test]
    fn row_threshold_triggers_refresh() {
        let mut h = mech(20);
        let addr = DramAddr::new(B, 5, 0);
        let mut actions = Vec::new();
        // group_threshold = 8; row_threshold = 10. Rows initialise at 8,
        // so two more tracked activations reach 10.
        for _ in 0..20 {
            h.on_activate(addr, 0, &mut actions);
            if actions
                .iter()
                .any(|a| matches!(a, MitigationAction::RefreshVictims { .. }))
            {
                break;
            }
        }
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, MitigationAction::RefreshVictims { aggressor: 5, .. })),
            "no refresh in {actions:?}"
        );
        assert!(h.stats().triggers >= 1);
    }

    #[test]
    fn cache_hit_avoids_dram_traffic() {
        let mut h = mech(1000);
        let addr = DramAddr::new(B, 5, 0);
        let mut actions = Vec::new();
        for _ in 0..h.config().group_threshold + 1 {
            h.on_activate(addr, 0, &mut actions);
        }
        let reads_after_first_miss = h.stats().aux_reads;
        assert_eq!(reads_after_first_miss, 1);
        h.on_activate(addr, 0, &mut actions);
        assert_eq!(h.stats().aux_reads, 1, "second access hits the cache");
    }

    #[test]
    fn cache_evictions_write_back() {
        let mut h = Hydra::new(
            Geometry::tiny(),
            HydraConfig {
                rows_per_group: 128,
                group_threshold: 1,
                row_threshold: 1000,
                cache_entries: 2,
                epoch_cycles: 51_200_000,
            },
        );
        let mut actions = Vec::new();
        // Activate 3+ distinct rows past the tiny cache.
        for row in [5u32, 200, 400, 600] {
            let addr = DramAddr::new(B, row, 0);
            h.on_activate(addr, 0, &mut actions); // group phase (th=1)
            h.on_activate(addr, 0, &mut actions); // tracked
        }
        assert!(h.stats().aux_writes > 0, "evictions must write back");
    }

    #[test]
    #[should_panic(expected = "need at least one RCT cache entry")]
    fn zero_cache_entries_are_rejected() {
        Hydra::new(
            Geometry::tiny(),
            HydraConfig {
                cache_entries: 0,
                ..HydraConfig::for_nrh(32, 51_200_000)
            },
        );
    }

    #[test]
    #[should_panic(expected = "need at least one row per group")]
    fn zero_rows_per_group_are_rejected() {
        Hydra::new(
            Geometry::tiny(),
            HydraConfig {
                rows_per_group: 0,
                ..HydraConfig::for_nrh(32, 51_200_000)
            },
        );
    }

    #[test]
    fn rct_addresses_land_in_reserved_region() {
        let h = mech(100);
        let a = h.rct_addr(B, 5);
        assert!(a.row as usize >= Geometry::tiny().rows - 64);
    }
}
