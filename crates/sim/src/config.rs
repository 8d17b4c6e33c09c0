//! Simulation configuration (Table 2 defaults).

use chronus_core::MechanismKind;
use chronus_cpu::{CacheConfig, CoreConfig};
use chronus_ctrl::AddressMapping;
use chronus_dram::{Geometry, ThresholdModel, TimingMode};
use chronus_security::VrdModel;
use serde::{Deserialize, Serialize};

/// Variable Read Disturbance sampling: give the oracle per-row thresholds
/// drawn uniformly from `[nominal·min_pct/100, nominal]` instead of the
/// scalar `nrh`. Purely observational — the oracle never affects timing —
/// so two configs differing only here simulate identically and can share
/// one batched run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VrdSpec {
    /// The weakest row's threshold as a percentage of `nrh` (100 =
    /// degenerate: the scalar model, still sampled per row).
    pub min_pct: u32,
    /// Per-row sampling seed (independent of the mechanism seed).
    pub seed: u64,
}

/// Everything needed to build a [`crate::System`].
///
/// Serialization is stable field-by-field JSON: the experiment-grid result
/// cache (`chronus-grid`) derives its content-addressed cell keys from this
/// representation, so renaming or reordering fields invalidates cached
/// sweeps (which is the safe direction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of cores (and traces).
    pub num_cores: usize,
    /// Instructions each core must retire.
    pub instructions_per_core: u64,
    /// RowHammer threshold the mechanism is configured for.
    pub nrh: u32,
    /// The mitigation mechanism under test.
    pub mechanism: MechanismKind,
    /// Force the mechanism threshold (PRAC/Chronus `N_BO`, PRFM `RFMth`)
    /// instead of deriving the secure value — ablations and
    /// paper-published configurations.
    pub threshold_override: Option<u32>,
    /// Address mapping; `None` uses the mechanism's preferred mapping
    /// (MOP, or ABACuS-MOP for ABACuS).
    pub mapping: Option<AddressMapping>,
    /// Override the timing mode (Table 4 uses `PracBuggy`); `None` uses
    /// the mechanism's mode.
    pub timing_override: Option<TimingMode>,
    /// LLC configuration.
    pub llc: CacheConfig,
    /// Core configuration.
    pub core: CoreConfig,
    /// DRAM geometry.
    pub geometry: Geometry,
    /// Attach the ground-truth disturbance oracle (slower; used by the
    /// security harness).
    pub oracle: bool,
    /// Panic when the controller issues a command its own scan did not
    /// clear, i.e. one `earliest_issue_at` places after the issue cycle
    /// (tests); off for speed in harness runs. The rules themselves have an
    /// independent oracle in `chronus-dram`'s tests: `legacy_can_issue`
    /// plus the hand-computed device unit tests.
    pub strict_timing: bool,
    /// RNG seed (PARA and workload placement).
    pub seed: u64,
    /// Safety limit on memory cycles (0 = none).
    pub max_mem_cycles: u64,
    /// Attach the timing-observability probe (`chronus_ctrl::obs`): the
    /// report gains an `ObsReport` section. Observational only — every
    /// pre-existing report field is unchanged by this flag.
    pub obs: bool,
    /// Per-row N_RH distribution for the oracle (requires `oracle`);
    /// `None` keeps the scalar `nrh` threshold.
    pub vrd: Option<VrdSpec>,
}

impl SimConfig {
    /// The paper's four-core configuration (Table 2).
    pub fn four_core() -> Self {
        Self {
            num_cores: 4,
            instructions_per_core: 100_000,
            nrh: 1024,
            mechanism: MechanismKind::None,
            threshold_override: None,
            mapping: None,
            timing_override: None,
            llc: CacheConfig::default(),
            core: CoreConfig::default(),
            geometry: Geometry::ddr5(),
            oracle: false,
            strict_timing: false,
            seed: 1,
            max_mem_cycles: 0,
            obs: false,
            vrd: None,
        }
    }

    /// Single-core configuration (Fig. 7).
    pub fn single_core() -> Self {
        Self {
            num_cores: 1,
            ..Self::four_core()
        }
    }

    /// The Appendix E eight-core configuration: eight cores over the 4.5×
    /// larger LLC of [Kim+, CAL'25].
    pub fn eight_core_large_llc() -> Self {
        Self {
            num_cores: 8,
            llc: CacheConfig::large_kim25(),
            ..Self::four_core()
        }
    }

    /// The oracle threshold model this configuration implies: the scalar
    /// `nrh`, or a per-row VRD distribution whose floor comes from the
    /// analytical [`VrdModel`] (so the simulated weakest row and the
    /// security-search floor are the same number).
    pub fn oracle_model(&self) -> ThresholdModel {
        match self.vrd {
            None => ThresholdModel::Uniform(self.nrh),
            Some(v) => ThresholdModel::PerRow {
                nominal: self.nrh,
                floor: VrdModel {
                    nominal: self.nrh,
                    min_pct: v.min_pct,
                }
                .floor(),
                seed: v.seed,
            },
        }
    }

    /// The config with every timing-inert field canonicalized away: two
    /// configs with equal keys simulate cycle-identically (one timing
    /// cohort), differing only in what the oracle judges and the report's
    /// `nrh`. Cleared: `vrd`, the seed of a mechanism that draws none, and
    /// `nrh` under no mechanism (only the oracle consumes it there).
    pub fn cohort_key(&self) -> Self {
        let mut key = self.clone();
        key.vrd = None;
        if !key.mechanism.uses_seed() {
            key.seed = 0;
        }
        if key.mechanism == MechanismKind::None {
            key.nrh = 0;
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_core_matches_table2() {
        let c = SimConfig::four_core();
        assert_eq!(c.num_cores, 4);
        assert_eq!(c.llc.capacity, 8 << 20);
        assert_eq!(c.core.window, 128);
        assert_eq!(c.core.width, 4);
        assert_eq!(c.geometry.total_banks(), 64);
    }

    #[test]
    fn eight_core_uses_large_cache() {
        let c = SimConfig::eight_core_large_llc();
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.llc.capacity, 36 << 20);
    }

    #[test]
    fn oracle_model_follows_vrd_spec() {
        let mut c = SimConfig::single_core();
        c.nrh = 1000;
        assert_eq!(c.oracle_model(), ThresholdModel::Uniform(1000));
        c.vrd = Some(VrdSpec {
            min_pct: 50,
            seed: 7,
        });
        assert_eq!(
            c.oracle_model(),
            ThresholdModel::PerRow {
                nominal: 1000,
                floor: 500,
                seed: 7,
            }
        );
        // Degenerate distribution: still per-row, floor pinned at nominal.
        c.vrd = Some(VrdSpec {
            min_pct: 100,
            seed: 7,
        });
        assert_eq!(
            c.oracle_model(),
            ThresholdModel::PerRow {
                nominal: 1000,
                floor: 1000,
                seed: 7,
            }
        );
    }
}
