//! Cross-crate property tests.

use std::collections::HashMap;

use chronus::core::hydra::HydraConfig;
use chronus::core::{decrement, Att, Hydra, MisraGries};
use chronus::ctrl::{AddressMapping, CtrlMitigation, CtrlMitigationStats, MitigationAction};
use chronus::dram::row_table::PAGE_ROWS;
use chronus::dram::{
    geometry::victims_of, BankId, DisturbOracle, DramAddr, Geometry, RowId, RowTable,
    ThresholdModel,
};
use chronus::security::wave::{discrete, prfm_wave_max_acts, WaveTiming};
use chronus::workloads::generator::synthetic_from_profile;
use chronus::workloads::AppProfile;
use proptest::prelude::*;

/// Reference Misra–Gries table: a linear scan over `capacity` slots that
/// states the victim rule directly — slots fill in index order and a full
/// table replaces the lowest-index slot whose count equals the spillover.
struct LinearMisraGries {
    entries: Vec<Option<(RowId, u32)>>,
    spillover: u32,
}

impl LinearMisraGries {
    fn new(capacity: usize) -> Self {
        Self {
            entries: vec![None; capacity],
            spillover: 0,
        }
    }

    fn observe(&mut self, row: RowId) -> u32 {
        for e in self.entries.iter_mut().flatten() {
            if e.0 == row {
                e.1 += 1;
                return e.1;
            }
        }
        if let Some(slot) = self.entries.iter_mut().find(|e| e.is_none()) {
            let est = self.spillover + 1;
            *slot = Some((row, est));
            return est;
        }
        let spill = self.spillover;
        if let Some(e) = self.entries.iter_mut().flatten().find(|e| e.1 == spill) {
            *e = (row, spill + 1);
            return spill + 1;
        }
        self.spillover += 1;
        self.spillover
    }

    fn estimate(&self, row: RowId) -> Option<u32> {
        self.entries
            .iter()
            .flatten()
            .find(|e| e.0 == row)
            .map(|e| e.1)
    }

    fn reset_row(&mut self, row: RowId) {
        let spill = self.spillover;
        if let Some(e) = self.entries.iter_mut().flatten().find(|e| e.0 == row) {
            e.1 = spill;
        }
    }

    fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.spillover = 0;
    }
}

/// Reference oracle: the `acts`/`damage` planes of
/// `chronus::dram::DisturbOracle` as two dense `flat_bank × rows` vectors,
/// with the periodic sweep a pair of slice fills.
struct DenseOracle {
    geo: Geometry,
    blast_radius: u32,
    damage: Vec<u32>,
    acts: Vec<u32>,
    max_damage: u32,
    max_acts: u32,
    lanes: Vec<(ThresholdModel, u64)>,
}

impl DenseOracle {
    fn new(geo: Geometry, blast_radius: u32, models: &[ThresholdModel]) -> Self {
        let cells = geo.total_banks() * geo.rows;
        Self {
            geo,
            blast_radius,
            damage: vec![0; cells],
            acts: vec![0; cells],
            max_damage: 0,
            max_acts: 0,
            lanes: models.iter().map(|&m| (m, 0)).collect(),
        }
    }

    fn on_activate(&mut self, bank: BankId, row: RowId) {
        let flat = bank.flat(&self.geo);
        let base = flat * self.geo.rows;
        self.acts[base + row as usize] += 1;
        let a = self.acts[base + row as usize];
        self.max_acts = self.max_acts.max(a);
        for (model, flips) in &mut self.lanes {
            if a == model.threshold_of(flat, row) {
                *flips += 1;
            }
        }
        for v in victims_of(row, self.blast_radius, self.geo.rows) {
            self.damage[base + v as usize] += 1;
            self.max_damage = self.max_damage.max(self.damage[base + v as usize]);
        }
    }

    fn on_row_refreshed(&mut self, bank: BankId, row: RowId) {
        self.damage[bank.flat(&self.geo) * self.geo.rows + row as usize] = 0;
    }

    fn on_victims_refreshed(&mut self, bank: BankId, aggressor: RowId) {
        let base = bank.flat(&self.geo) * self.geo.rows;
        self.acts[base + aggressor as usize] = 0;
        for v in victims_of(aggressor, self.blast_radius, self.geo.rows) {
            self.damage[base + v as usize] = 0;
        }
    }

    fn on_periodic_sweep(&mut self, rank: usize, ref_idx: u64) {
        let rows = self.geo.rows;
        let per_slice = rows.div_ceil(8192);
        let slice = (ref_idx % 8192) as usize;
        let start = (slice * per_slice).min(rows);
        let end = ((slice + 1) * per_slice).min(rows);
        let br = self.blast_radius as usize;
        let a_start = if start == 0 { 0 } else { start + br };
        let a_end = if end >= rows {
            rows
        } else {
            end.saturating_sub(br)
        };
        let first = rank * self.geo.banks_per_rank();
        for b in first..first + self.geo.banks_per_rank() {
            let o = b * rows;
            self.damage[o + start..o + end].fill(0);
            if a_start < a_end {
                self.acts[o + a_start..o + a_end].fill(0);
            }
        }
    }
}

#[derive(Clone, Copy)]
struct LinearCacheLine {
    key: (usize, RowId),
    count: u32,
    dirty: bool,
}

/// Reference Hydra: the same GCT/RCT/FIFO model as `chronus::core::Hydra`
/// with every cache lookup a linear scan and a full-table GCT reset.
struct LinearHydra {
    geo: Geometry,
    cfg: HydraConfig,
    gct: Vec<Vec<u32>>,
    rct: HashMap<(usize, RowId), u32>,
    cache: Vec<LinearCacheLine>,
    cache_next: usize,
    epoch_end: u64,
    stats: CtrlMitigationStats,
}

impl LinearHydra {
    fn new(geo: Geometry, cfg: HydraConfig) -> Self {
        let groups = geo.rows.div_ceil(cfg.rows_per_group);
        Self {
            geo,
            cfg,
            gct: vec![vec![0; groups]; geo.total_banks()],
            rct: HashMap::new(),
            cache: Vec::new(),
            cache_next: 0,
            epoch_end: cfg.epoch_cycles,
            stats: CtrlMitigationStats::default(),
        }
    }

    fn rct_addr(&self, bank: BankId, row: RowId) -> DramAddr {
        let per_row = self.geo.cols as u32;
        let rct_row = (self.geo.rows as u32 - 1).saturating_sub(row / per_row);
        DramAddr::new(bank, rct_row, row % per_row)
    }

    fn cache_lookup(&self, key: (usize, RowId)) -> Option<usize> {
        self.cache.iter().position(|l| l.key == key)
    }

    fn cache_insert(&mut self, line: LinearCacheLine) -> Option<LinearCacheLine> {
        if self.cache.len() < self.cfg.cache_entries {
            self.cache.push(line);
            return None;
        }
        let slot = self.cache_next;
        self.cache_next = (self.cache_next + 1) % self.cfg.cache_entries;
        let evicted = std::mem::replace(&mut self.cache[slot], line);
        evicted.dirty.then_some(evicted)
    }

    fn on_activate(&mut self, addr: DramAddr, now: u64, actions: &mut Vec<MitigationAction>) {
        if now >= self.epoch_end {
            for g in &mut self.gct {
                g.iter_mut().for_each(|c| *c = 0);
            }
            self.rct.clear();
            self.cache.clear();
            self.cache_next = 0;
            self.epoch_end = now - now % self.cfg.epoch_cycles + self.cfg.epoch_cycles;
        }
        let flat = addr.bank.flat(&self.geo);
        let gcount = &mut self.gct[flat][addr.row as usize / self.cfg.rows_per_group];
        if *gcount < self.cfg.group_threshold {
            *gcount += 1;
            return;
        }
        let key = (flat, addr.row);
        let count = match self.cache_lookup(key) {
            Some(i) => {
                self.cache[i].count += 1;
                self.cache[i].dirty = true;
                self.cache[i].count
            }
            None => {
                self.stats.aux_reads += 1;
                actions.push(MitigationAction::AuxRead {
                    addr: self.rct_addr(addr.bank, addr.row),
                });
                let count = *self.rct.get(&key).unwrap_or(&self.cfg.group_threshold) + 1;
                let line = LinearCacheLine {
                    key,
                    count,
                    dirty: true,
                };
                if let Some(evicted) = self.cache_insert(line) {
                    self.stats.aux_writes += 1;
                    self.rct.insert(evicted.key, evicted.count);
                    let (eflat, erow) = evicted.key;
                    actions.push(MitigationAction::AuxWrite {
                        addr: self.rct_addr(BankId::from_flat(eflat, &self.geo), erow),
                    });
                }
                count
            }
        };
        if count >= self.cfg.row_threshold {
            if let Some(i) = self.cache_lookup(key) {
                self.cache[i].count = 0;
                self.cache[i].dirty = true;
            }
            self.rct.insert(key, 0);
            self.stats.triggers += 1;
            self.stats.victim_refreshes += 1;
            actions.push(MitigationAction::RefreshVictims {
                bank: addr.bank,
                aggressor: addr.row,
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mapping_roundtrips_everywhere(phys in 0u64..(32u64 << 30), which in 0usize..3) {
        let geo = Geometry::ddr5();
        let m = [AddressMapping::Mop, AddressMapping::RoBaRaCoCh, AddressMapping::AbacusMop][which];
        let a = m.decode(phys, &geo);
        prop_assert_eq!(m.encode(&a, &geo), phys & !63);
        prop_assert!((a.row as usize) < geo.rows);
        prop_assert!((a.col as usize) < geo.cols);
        prop_assert!((a.bank.rank as usize) < geo.ranks);
    }

    #[test]
    fn decrementer_equals_wrapping_sub(x: u8) {
        prop_assert_eq!(decrement(x), x.wrapping_sub(1));
    }

    #[test]
    fn victims_are_symmetric_and_within_blast(row in 0u32..65_536, blast in 1u32..4) {
        let v: Vec<RowId> = victims_of(row, blast, 65_536).collect();
        prop_assert!(v.len() <= 2 * blast as usize);
        for x in &v {
            let d = x.abs_diff(row);
            prop_assert!(d >= 1 && d <= blast);
        }
        // Interior rows have the full set.
        if row >= blast && row + blast < 65_536 {
            prop_assert_eq!(v.len(), 2 * blast as usize);
        }
    }

    #[test]
    fn att_tracks_the_maximum_count(
        ops in prop::collection::vec((0u32..16, 1u32..1000), 1..200)
    ) {
        // Feed (row, count) observations where counts only grow per row;
        // the ATT max must match the true running maximum.
        let mut att = Att::new(4);
        let mut true_counts = HashMap::new();
        for (row, inc) in ops {
            let c = true_counts.entry(row).or_insert(0u32);
            *c += inc;
            att.observe(row, *c);
        }
        let (max_row, max_count) = true_counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(r, c)| (*r, *c))
            .unwrap();
        let (att_row, att_count) = att.peek_max().unwrap();
        prop_assert_eq!(att_count, max_count);
        // Ties may resolve to another row with the same count.
        prop_assert!(true_counts[&att_row] == max_count || att_row == max_row);
    }

    #[test]
    fn misra_gries_never_undercounts_beyond_spillover(
        rows in prop::collection::vec(0u32..64, 1..2000)
    ) {
        let mut mg = MisraGries::new(8);
        let mut true_counts = HashMap::new();
        for &r in &rows {
            mg.observe(r);
            *true_counts.entry(r).or_insert(0u32) += 1;
        }
        for (&row, &true_count) in &true_counts {
            let est = mg.estimate(row).unwrap_or(0);
            prop_assert!(
                est + mg.spillover() >= true_count,
                "row {} est {} spill {} true {}",
                row, est, mg.spillover(), true_count
            );
        }
    }

    #[test]
    fn indexed_misra_gries_matches_the_linear_scan_table(
        capacity in 1usize..=8,
        ops in prop::collection::vec((0u32..64, 0u32..12), 1..600)
    ) {
        // Twelve rows over at most eight counters: tables fill, rows
        // re-armed at the spillover get replaced, and the spillover grows
        // when none is. Every observable must agree after every step.
        let mut indexed = MisraGries::new(capacity);
        let mut linear = LinearMisraGries::new(capacity);
        for (op, row) in ops {
            match op {
                0 => {
                    indexed.clear();
                    linear.clear();
                }
                1..=8 => {
                    indexed.reset_row(row);
                    linear.reset_row(row);
                }
                _ => prop_assert_eq!(indexed.observe(row), linear.observe(row)),
            }
            prop_assert_eq!(indexed.spillover(), linear.spillover);
            for r in 0..12 {
                prop_assert_eq!(indexed.estimate(r), linear.estimate(r), "row {}", r);
            }
        }
        prop_assert_eq!(indexed.capacity(), capacity);
    }

    #[test]
    fn row_table_matches_a_dense_vector(
        ops in prop::collection::vec((0u8..10, 0usize..2, 0usize..4000, 0usize..4000), 1..300)
    ) {
        // Two full pages and a 300-row tail per bank. Every fourth draw
        // lands on a page edge or an end of the bank, so ranges straddle
        // pages, start at 0 and end at `ROWS`.
        const ROWS: usize = 2 * PAGE_ROWS + 300;
        const EDGES: [usize; 8] = [
            0, 1, PAGE_ROWS - 1, PAGE_ROWS, PAGE_ROWS + 1, 2 * PAGE_ROWS - 1, 2 * PAGE_ROWS, ROWS - 1,
        ];
        let pick = |x: usize| if x.is_multiple_of(4) { EDGES[x / 4 % EDGES.len()] } else { x % ROWS };
        let mut table = RowTable::new(2, ROWS);
        let mut dense = vec![0u32; 2 * ROWS];
        let mut written = std::collections::HashSet::new();
        for (op, bank, x, y) in ops {
            let row = pick(x);
            match op {
                0 => {
                    table.clear(bank, row);
                    dense[bank * ROWS + row] = 0;
                }
                1 | 2 => {
                    // Half-open, so the far end is one past a picked row.
                    let (lo, hi) = (row.min(pick(y)), row.max(pick(y)) + (op as usize - 1));
                    table.clear_range(bank, lo..hi);
                    dense[bank * ROWS + lo..bank * ROWS + hi].fill(0);
                }
                3 => prop_assert_eq!(table.get(bank, row), dense[bank * ROWS + row]),
                _ => {
                    *table.slot(bank, row) += y as u32;
                    dense[bank * ROWS + row] += y as u32;
                    written.insert((bank, row / PAGE_ROWS));
                }
            }
        }
        for bank in 0..2 {
            for row in 0..ROWS {
                prop_assert_eq!(table.get(bank, row), dense[bank * ROWS + row], "{}/{}", bank, row);
            }
        }
        prop_assert_eq!(table.resident_pages(), written.len(), "only writes materialise pages");
    }

    #[test]
    fn paged_oracle_matches_the_dense_oracle(
        three_lanes: bool,
        ops in prop::collection::vec((0u8..12, 0u8..4, 0usize..5, 0u32..9), 1..500)
    ) {
        // 41 060 rows: 40 pages and a 100-row tail per bank, six rows per
        // refresh slice, so a sweep clears two `acts` rows and the slices
        // past 6 843 are empty. Activity sits on the bank's first slices,
        // the slice straddling the first page boundary (1 020..1 026) and
        // the last rows, and the sweeps visit the same places.
        let geo = Geometry { rows: 5 * 8192 + 100, ..Geometry::tiny() };
        const BASES: [u32; 5] = [0, 6, 1020, 41_046, 41_052];
        const SWEEPS: [u64; 9] = [0, 1, 170, 171, 6841, 6842, 6843, 8191, 8192];
        let models = [
            ThresholdModel::Uniform(5),
            ThresholdModel::Uniform(9),
            ThresholdModel::PerRow { nominal: 12, floor: 3, seed: 42 },
        ];
        let models = &models[..if three_lanes { 3 } else { 1 }];
        let mut paged = DisturbOracle::with_lanes(geo, 2, models.to_vec());
        let mut dense = DenseOracle::new(geo, 2, models);
        for (op, bank, region, off) in ops {
            let bank = BankId::from_flat(bank as usize, &geo);
            let row = (BASES[region] + off).min(geo.rows as u32 - 1);
            match op {
                0 => {
                    paged.on_row_refreshed(bank, row);
                    dense.on_row_refreshed(bank, row);
                }
                1 => {
                    paged.on_victims_refreshed(bank, row);
                    dense.on_victims_refreshed(bank, row);
                }
                2 | 3 => {
                    let ref_idx = SWEEPS[(region * 9 + off as usize) % SWEEPS.len()];
                    paged.on_periodic_sweep(0, ref_idx);
                    dense.on_periodic_sweep(0, ref_idx);
                }
                _ => {
                    paged.on_activate(bank, row);
                    dense.on_activate(bank, row);
                }
            }
            prop_assert_eq!(paged.max_aggressor_acts(), dense.max_acts);
            prop_assert_eq!(paged.max_damage(), dense.max_damage);
            for (lane, &(_, flips)) in dense.lanes.iter().enumerate() {
                prop_assert_eq!(paged.flips_of(lane), flips, "lane {}", lane);
            }
        }
        for flat in 0..geo.total_banks() {
            let bank = BankId::from_flat(flat, &geo);
            for base in BASES {
                for row in base.saturating_sub(3)..(base + 12).min(geo.rows as u32) {
                    let at = flat * geo.rows + row as usize;
                    prop_assert_eq!(paged.acts_of(bank, row), dense.acts[at], "acts {}/{}", flat, row);
                    prop_assert_eq!(paged.damage_of(bank, row), dense.damage[at], "damage {}/{}", flat, row);
                }
            }
        }
    }

    #[test]
    fn indexed_hydra_matches_the_linear_scan_cache(
        cache_log2 in 0u32..3,
        row_threshold in 2u32..6,
        ops in prop::collection::vec((0u8..2, 0u32..8, 0u64..40), 1..400)
    ) {
        // Sixteen (bank, row) keys over a 1/2/4-line cache, and ~8 000
        // cycles over a 2 000-cycle epoch: hits, FIFO evictions with
        // writeback, triggers on both paths and several epoch resets.
        let geo = Geometry::tiny();
        let cfg = HydraConfig {
            rows_per_group: 128,
            group_threshold: 1,
            row_threshold,
            cache_entries: 1 << cache_log2,
            epoch_cycles: 2_000,
        };
        let mut indexed = Hydra::new(geo, cfg);
        let mut linear = LinearHydra::new(geo, cfg);
        let mut now = 0;
        for (bank, row, dt) in ops {
            now += dt;
            let addr = DramAddr::new(BankId::new(0, 0, bank), row * 100, 0);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            indexed.on_activate(addr, now, &mut got);
            linear.on_activate(addr, now, &mut want);
            prop_assert_eq!(got, want, "cycle {}", now);
            prop_assert_eq!(indexed.stats(), linear.stats);
        }
    }

    #[test]
    fn prfm_recurrence_tracks_discrete_attack(th in 2u32..40, r1 in 8u64..400) {
        let t = WaveTiming::baseline_default();
        let rec = prfm_wave_max_acts(th, r1, &t);
        let sim = discrete::prfm_attack(th, r1 as usize, &t);
        let hi = rec.max(sim);
        prop_assert!(rec.abs_diff(sim) <= hi / 3 + 3,
            "th={} r1={}: recurrence {} vs discrete {}", th, r1, rec, sim);
    }

    #[test]
    fn trace_generator_hits_target_mpki(mpki in 1.0f64..50.0, seed: u64) {
        let profile = AppProfile {
            name: "prop",
            mpki,
            locality: 0.5,
            read_ratio: 0.7,
            footprint: 32 << 20,
        };
        let t = synthetic_from_profile(profile, 0).generate(150_000, seed);
        let got = t.mpki();
        prop_assert!((got - mpki).abs() / mpki < 0.25,
            "target {} got {}", mpki, got);
    }

    #[test]
    fn trace_text_roundtrip(seed: u64) {
        let profile = AppProfile {
            name: "roundtrip",
            mpki: 10.0,
            locality: 0.3,
            read_ratio: 0.6,
            footprint: 16 << 20,
        };
        let t = synthetic_from_profile(profile, 1).generate(5_000, seed);
        let mut buf = Vec::new();
        t.write_text(&mut buf).unwrap();
        let back = chronus::cpu::Trace::read_text(&buf[..]).unwrap();
        prop_assert_eq!(back, t);
    }
}
