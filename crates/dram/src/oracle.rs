//! Ground-truth read-disturbance tracking.
//!
//! The oracle is *not* part of any mechanism: it observes every activation
//! and every victim refresh the device performs and maintains, per row, the
//! number of aggressor activations the row has absorbed since it was last
//! refreshed. Tests and the security harness use it to verify empirically
//! that a configuration keeps every row below `N_RH` (the paper's security
//! criterion, §8: a system is secure iff `A(i) < N_RH` for all rows at all
//! times — here expressed from the victim's perspective).
//!
//! Two refinements support the Monte-Carlo batch engine:
//!
//! * **Per-row thresholds** ([`ThresholdModel::PerRow`]): Variable Read
//!   Disturbance models `N_RH` as a per-row random variable. The per-row
//!   threshold is a pure hash of `(bank, row, seed)` — no per-row storage,
//!   deterministic across runs and processes.
//! * **Lanes**: the counter state (`acts`/`damage`) depends only on the
//!   command stream, never on the threshold, so one oracle can judge the
//!   same run against many threshold models at once. Each lane carries its
//!   own model and would-be-bitflip count; lane 0 is the "primary" lane the
//!   scalar accessors report.

use crate::geometry::{victims_of, BankId, Geometry, RowId};
use crate::row_table::RowTable;

/// How the would-be-bitflip threshold is assigned to rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdModel {
    /// Every row flips at the same activation count (the classic scalar
    /// `N_RH`).
    Uniform(u32),
    /// Per-row thresholds drawn uniformly from `[floor, nominal]` by a
    /// deterministic hash of `(bank, row, seed)` — the Variable Read
    /// Disturbance model. `floor == nominal` degenerates to
    /// [`ThresholdModel::Uniform`] behaviour exactly.
    PerRow {
        /// The nominal (maximum) threshold; reported as `nrh`.
        nominal: u32,
        /// The weakest row's threshold (≥ 1, ≤ `nominal`).
        floor: u32,
        /// Sampling seed for the per-row hash.
        seed: u64,
    },
}

/// SplitMix64: a full-period 64-bit finalizer; one application per
/// `(bank, row)` gives an i.i.d.-quality per-row draw.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ThresholdModel {
    /// The flip threshold of one row.
    pub fn threshold_of(&self, flat_bank: usize, row: RowId) -> u32 {
        match *self {
            ThresholdModel::Uniform(nrh) => nrh,
            ThresholdModel::PerRow {
                nominal,
                floor,
                seed,
            } => {
                debug_assert!(floor >= 1 && floor <= nominal);
                let span = (nominal - floor + 1) as u64;
                let h = splitmix64(seed ^ splitmix64(((flat_bank as u64) << 32) | row as u64));
                floor + (h % span) as u32
            }
        }
    }

    /// The smallest threshold any row can have — the fast-skip bound for
    /// the activation hot path.
    pub fn min_threshold(&self) -> u32 {
        match *self {
            ThresholdModel::Uniform(nrh) => nrh,
            ThresholdModel::PerRow { floor, .. } => floor,
        }
    }

    /// The nominal threshold (what reports call `nrh`).
    pub fn nominal(&self) -> u32 {
        match *self {
            ThresholdModel::Uniform(nrh) => nrh,
            ThresholdModel::PerRow { nominal, .. } => nominal,
        }
    }
}

/// One threshold model judging the shared counter state.
#[derive(Debug, Clone)]
struct OracleLane {
    model: ThresholdModel,
    flips: u64,
}

/// Per-row disturbance counters with would-be-bitflip detection.
///
/// Two complementary views are maintained:
///
/// * **Per-aggressor** `A(i)`: activations of row *i* since *i*'s victims
///   were last refreshed. This is the paper's §8 security criterion
///   (`A(i) < N_RH` for all rows at all times) and what the deterministic
///   mechanisms bound.
/// * **Per-victim damage**: disturbances a row absorbed from all its
///   neighbours since it was last refreshed — a diagnostic for
///   probabilistic mechanisms such as PARA that refresh victims
///   individually.
///
/// Counters live in two lazily paged [`RowTable`] planes shared by every
/// lane; only the flip verdicts are per-lane.
#[derive(Debug, Clone)]
pub struct DisturbOracle {
    geo: Geometry,
    blast_radius: u32,
    /// Disturbances each row absorbed since its last refresh.
    damage: RowTable,
    /// A(row): activations since the row's victims were refreshed.
    acts: RowTable,
    max_damage: u32,
    max_acts: u32,
    lanes: Vec<OracleLane>,
    /// min over lanes of `min_threshold()`: activation counts below this
    /// can never flip any lane.
    min_thr: u32,
}

impl DisturbOracle {
    /// Creates an oracle that flags aggressors reaching `nrh` activations.
    pub fn new(geo: Geometry, blast_radius: u32, nrh: u32) -> Self {
        Self::with_model(geo, blast_radius, ThresholdModel::Uniform(nrh))
    }

    /// An oracle with a single (possibly per-row) threshold model.
    pub fn with_model(geo: Geometry, blast_radius: u32, model: ThresholdModel) -> Self {
        Self::with_lanes(geo, blast_radius, vec![model])
    }

    /// An oracle judging the same command stream against several threshold
    /// models at once (one lane per model; lane order is preserved).
    pub fn with_lanes(geo: Geometry, blast_radius: u32, models: Vec<ThresholdModel>) -> Self {
        assert!(!models.is_empty(), "oracle needs at least one lane");
        let min_thr = models
            .iter()
            .map(ThresholdModel::min_threshold)
            .min()
            .expect("non-empty");
        Self {
            geo,
            blast_radius,
            damage: RowTable::new(geo.total_banks(), geo.rows),
            acts: RowTable::new(geo.total_banks(), geo.rows),
            max_damage: 0,
            max_acts: 0,
            lanes: models
                .into_iter()
                .map(|model| OracleLane { model, flips: 0 })
                .collect(),
            min_thr,
        }
    }

    /// Records an activation of `row`: `A(row)` increments and all of
    /// `row`'s victims absorb one disturbance.
    pub fn on_activate(&mut self, bank: BankId, row: RowId) {
        let flat = bank.flat(&self.geo);
        let a = self.acts.slot(flat, row as usize);
        *a += 1;
        if *a > self.max_acts {
            self.max_acts = *a;
        }
        if *a >= self.min_thr {
            let a = *a;
            for lane in &mut self.lanes {
                if a == lane.model.threshold_of(flat, row) {
                    lane.flips += 1;
                }
            }
        }
        for v in victims_of(row, self.blast_radius, self.geo.rows) {
            let d = self.damage.slot(flat, v as usize);
            *d += 1;
            if *d > self.max_damage {
                self.max_damage = *d;
            }
        }
    }

    /// Records that `row` itself has been refreshed (an individual VRR or
    /// the periodic sweep): its absorbed damage clears. Per-aggressor
    /// counts are unaffected — use [`DisturbOracle::on_victims_refreshed`]
    /// when a whole victim set is serviced.
    pub fn on_row_refreshed(&mut self, bank: BankId, row: RowId) {
        self.damage.clear(bank.flat(&self.geo), row as usize);
    }

    /// Records that all victims of `aggressor` were refreshed: `A(aggressor)`
    /// resets and the victims' damage clears.
    pub fn on_victims_refreshed(&mut self, bank: BankId, aggressor: RowId) {
        let flat = bank.flat(&self.geo);
        self.acts.clear(flat, aggressor as usize);
        for v in victims_of(aggressor, self.blast_radius, self.geo.rows) {
            self.damage.clear(flat, v as usize);
        }
    }

    /// Records a periodic-refresh sweep segment: REFab number `ref_idx`
    /// refreshes a 1/8192-th slice of every bank in the rank (DDR5 refreshes
    /// the whole device every 8192 REFs). Aggressors whose complete victim
    /// set lies inside the refreshed slice reset their `A` count.
    pub fn on_periodic_sweep(&mut self, rank: usize, ref_idx: u64) {
        let slices = 8192u64;
        let rows_per_slice = (self.geo.rows as u64).div_ceil(slices);
        let slice = ref_idx % slices;
        let start = (slice * rows_per_slice).min(self.geo.rows as u64) as usize;
        let end = ((slice + 1) * rows_per_slice).min(self.geo.rows as u64) as usize;
        let base = rank * self.geo.banks_per_rank();
        let br = self.blast_radius as usize;
        let a_start = if start == 0 { 0 } else { start + br };
        let a_end = if end >= self.geo.rows {
            self.geo.rows
        } else {
            end.saturating_sub(br)
        };
        for b in base..base + self.geo.banks_per_rank() {
            self.damage.clear_range(b, start..end);
            self.acts.clear_range(b, a_start..a_end);
        }
    }

    /// Highest disturbance any victim has absorbed between refreshes.
    pub fn max_damage(&self) -> u32 {
        self.max_damage
    }

    /// Highest `A(i)` any aggressor reached between victim refreshes — the
    /// §8 security metric.
    pub fn max_aggressor_acts(&self) -> u32 {
        self.max_acts
    }

    /// Number of would-be bitflip events on the primary lane (an aggressor
    /// reaching its row's threshold).
    pub fn flips(&self) -> u64 {
        self.lanes[0].flips
    }

    /// Would-be bitflip count of lane `lane`.
    pub fn flips_of(&self, lane: usize) -> u64 {
        self.lanes[lane].flips
    }

    /// Number of threshold lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Current absorbed damage of one row.
    pub fn damage_of(&self, bank: BankId, row: RowId) -> u32 {
        self.damage.get(bank.flat(&self.geo), row as usize)
    }

    /// Current `A(row)` of one row.
    pub fn acts_of(&self, bank: BankId, row: RowId) -> u32 {
        self.acts.get(bank.flat(&self.geo), row as usize)
    }

    /// The configured (nominal) disturbance threshold of the primary lane.
    pub fn nrh(&self) -> u32 {
        self.lanes[0].model.nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> DisturbOracle {
        DisturbOracle::new(Geometry::tiny(), 2, 10)
    }

    #[test]
    fn activation_damages_victims_not_self() {
        let mut o = oracle();
        let b = BankId::new(0, 0, 0);
        o.on_activate(b, 100);
        assert_eq!(o.damage_of(b, 100), 0);
        assert_eq!(o.damage_of(b, 99), 1);
        assert_eq!(o.damage_of(b, 101), 1);
        assert_eq!(o.damage_of(b, 98), 1);
        assert_eq!(o.damage_of(b, 102), 1);
        assert_eq!(o.damage_of(b, 103), 0);
        assert_eq!(o.max_damage(), 1);
    }

    #[test]
    fn refresh_clears_damage() {
        let mut o = oracle();
        let b = BankId::new(0, 0, 0);
        for _ in 0..5 {
            o.on_activate(b, 100);
        }
        assert_eq!(o.damage_of(b, 101), 5);
        assert_eq!(o.acts_of(b, 100), 5);
        o.on_row_refreshed(b, 101);
        assert_eq!(o.damage_of(b, 101), 0);
        assert_eq!(o.damage_of(b, 99), 5); // untouched
        assert_eq!(o.acts_of(b, 100), 5); // single-victim refresh ≠ service
        o.on_victims_refreshed(b, 100);
        assert_eq!(o.damage_of(b, 99), 0);
        assert_eq!(o.acts_of(b, 100), 0);
        // High-water marks persist.
        assert_eq!(o.max_damage(), 5);
        assert_eq!(o.max_aggressor_acts(), 5);
    }

    #[test]
    fn double_sided_hammer_accumulates() {
        let mut o = oracle();
        let b = BankId::new(0, 0, 0);
        for _ in 0..4 {
            o.on_activate(b, 99);
            o.on_activate(b, 101);
        }
        // Row 100 is a blast-1 victim of both aggressors.
        assert_eq!(o.damage_of(b, 100), 8);
    }

    #[test]
    fn flips_detected_at_threshold() {
        let mut o = oracle();
        let b = BankId::new(0, 0, 0);
        for _ in 0..10 {
            o.on_activate(b, 50);
        }
        assert!(o.flips() > 0);
        assert_eq!(o.max_aggressor_acts(), 10);
    }

    #[test]
    fn periodic_sweep_clears_slice() {
        let geo = Geometry::tiny();
        let mut o = DisturbOracle::new(geo, 2, 1000);
        let b = BankId::new(0, 0, 0);
        o.on_activate(b, 1); // damages rows 0, 2, 3
                             // Slice 0 covers the first ceil(1024/8192) = 1 row of every bank.
        o.on_periodic_sweep(0, 0);
        assert_eq!(o.damage_of(b, 0), 0);
        assert_eq!(o.damage_of(b, 2), 1);
    }

    #[test]
    fn per_row_thresholds_are_deterministic_and_bounded() {
        let m = ThresholdModel::PerRow {
            nominal: 100,
            floor: 50,
            seed: 7,
        };
        let again = ThresholdModel::PerRow {
            nominal: 100,
            floor: 50,
            seed: 7,
        };
        let mut seen_below_nominal = false;
        for bank in 0..4usize {
            for row in 0..256u32 {
                let t = m.threshold_of(bank, row);
                assert!((50..=100).contains(&t), "threshold {t} out of range");
                assert_eq!(t, again.threshold_of(bank, row), "not deterministic");
                seen_below_nominal |= t < 100;
            }
        }
        assert!(seen_below_nominal, "distribution degenerate at nominal");
        // A different seed must resample.
        let other = ThresholdModel::PerRow {
            nominal: 100,
            floor: 50,
            seed: 8,
        };
        let differs = (0..256u32).any(|r| other.threshold_of(0, r) != m.threshold_of(0, r));
        assert!(differs, "seed does not perturb the draw");
    }

    #[test]
    fn degenerate_per_row_distribution_matches_uniform_exactly() {
        // floor == nominal: every row's threshold collapses to the scalar
        // N_RH, so flips, watermarks, and per-row counters must reproduce
        // the Uniform oracle bit for bit regardless of seed.
        let geo = Geometry::tiny();
        let mut uniform = DisturbOracle::new(geo, 2, 10);
        let mut degenerate = DisturbOracle::with_model(
            geo,
            2,
            ThresholdModel::PerRow {
                nominal: 10,
                floor: 10,
                seed: 0xDEAD_BEEF,
            },
        );
        let b = BankId::new(0, 0, 0);
        for i in 0..25u32 {
            let row = 40 + (i % 3) * 7;
            uniform.on_activate(b, row);
            degenerate.on_activate(b, row);
            if i % 11 == 0 {
                uniform.on_victims_refreshed(b, row);
                degenerate.on_victims_refreshed(b, row);
            }
        }
        assert_eq!(uniform.flips(), degenerate.flips());
        assert_eq!(
            uniform.max_aggressor_acts(),
            degenerate.max_aggressor_acts()
        );
        assert_eq!(uniform.max_damage(), degenerate.max_damage());
        assert_eq!(uniform.nrh(), degenerate.nrh());
        for row in 0..120u32 {
            assert_eq!(uniform.acts_of(b, row), degenerate.acts_of(b, row));
            assert_eq!(uniform.damage_of(b, row), degenerate.damage_of(b, row));
        }
    }

    #[test]
    fn lanes_judge_the_same_counters_independently() {
        let geo = Geometry::tiny();
        let mut o = DisturbOracle::with_lanes(
            geo,
            2,
            vec![ThresholdModel::Uniform(5), ThresholdModel::Uniform(10)],
        );
        let b = BankId::new(0, 0, 0);
        for _ in 0..10 {
            o.on_activate(b, 50);
        }
        assert_eq!(o.lane_count(), 2);
        assert_eq!(o.flips_of(0), 1, "lane 0 crossed 5 once");
        assert_eq!(o.flips_of(1), 1, "lane 1 crossed 10 once");
        assert_eq!(o.flips(), o.flips_of(0), "primary lane is lane 0");
        // Counter state is shared: one activation stream, one watermark.
        assert_eq!(o.max_aggressor_acts(), 10);
    }

    #[test]
    fn lane_flips_match_solo_oracles_on_mixed_thresholds() {
        // The multi-lane batch contract: each lane's flip count equals a
        // dedicated single-lane oracle fed the same activation stream.
        let geo = Geometry::tiny();
        let models = [
            ThresholdModel::Uniform(4),
            ThresholdModel::Uniform(9),
            ThresholdModel::PerRow {
                nominal: 12,
                floor: 3,
                seed: 42,
            },
        ];
        let mut batched = DisturbOracle::with_lanes(geo, 2, models.to_vec());
        let mut solos: Vec<_> = models
            .iter()
            .map(|&m| DisturbOracle::with_model(geo, 2, m))
            .collect();
        let b = BankId::new(0, 0, 0);
        for i in 0..60u32 {
            let row = 30 + (i % 5) * 4;
            batched.on_activate(b, row);
            for s in &mut solos {
                s.on_activate(b, row);
            }
            if i % 17 == 0 {
                batched.on_victims_refreshed(b, row);
                for s in &mut solos {
                    s.on_victims_refreshed(b, row);
                }
            }
        }
        for (lane, solo) in solos.iter().enumerate() {
            assert_eq!(batched.flips_of(lane), solo.flips(), "lane {lane}");
        }
    }
}
