//! Mechanism selection and secure auto-configuration.
//!
//! [`MechanismKind::build`] assembles the device-side hook, controller-side
//! hook, RFM policy and timing mode for any evaluated mechanism, deriving
//! wave-attack-secure thresholds from `chronus-security` exactly as the
//! paper's §5 (PRFM/PRAC sweeps) and §8 (Chronus bound) prescribe. When no
//! secure configuration exists (e.g. PRAC below `N_RH` = 20, PARA below
//! `N_RH` ≈ 27), the most aggressive configuration is used and
//! [`MechanismSetup::secure`] is `false` — the red-edged bars of Fig. 4.

use chronus_ctrl::{AddressMapping, CtrlMitigation, NoCtrlMitigation, RfmPolicy};
use chronus_dram::{DramMitigation, Geometry, NoMitigation, TimingMode, Timings};
use chronus_security::wave::WaveTiming;
use chronus_security::{chronus_secure_nbo, prac_secure_nbo, prfm_secure_threshold};
use serde::{Deserialize, Serialize};

use crate::abacus::Abacus;
use crate::chronus::ChronusMechanism;
use crate::graphene::Graphene;
use crate::hydra::{Hydra, HydraConfig};
use crate::para::Para;
use crate::prac::PracMechanism;
use crate::prfm::PrfmSampler;

/// Every mechanism the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MechanismKind {
    /// No mitigation (the normalisation baseline).
    None,
    /// Periodic RFM (early DDR5).
    Prfm,
    /// PRAC with one RFM per back-off.
    Prac1,
    /// PRAC with two RFMs per back-off.
    Prac2,
    /// PRAC with four RFMs per back-off (the paper's main PRAC variant).
    Prac4,
    /// PRAC-4 combined with PRFM (`RFMth` = 75, §3).
    PracPrfm,
    /// Chronus: CCU + Chronus Back-Off (§7).
    Chronus,
    /// Chronus-PB: CCU with PRAC-4's back-off policy (§9).
    ChronusPb,
    /// Graphene [MICRO'20].
    Graphene,
    /// Hydra [ISCA'22].
    Hydra,
    /// PARA [ISCA'14].
    Para,
    /// ABACuS [USENIX Sec'24] (Appendix C).
    Abacus,
}

impl MechanismKind {
    /// All simulatable mechanisms (excluding the baseline).
    pub fn all() -> &'static [MechanismKind] {
        use MechanismKind::*;
        &[
            Prfm, Prac1, Prac2, Prac4, PracPrfm, Chronus, ChronusPb, Graphene, Hydra, Para, Abacus,
        ]
    }

    /// The seven mechanisms of the paper's headline comparison (Fig. 7–10).
    pub fn headline() -> &'static [MechanismKind] {
        use MechanismKind::*;
        &[Chronus, ChronusPb, Prac4, Graphene, Hydra, Prfm, Para]
    }

    /// Display label used across figures.
    pub fn label(&self) -> &'static str {
        match self {
            MechanismKind::None => "Baseline",
            MechanismKind::Prfm => "PRFM",
            MechanismKind::Prac1 => "PRAC-1",
            MechanismKind::Prac2 => "PRAC-2",
            MechanismKind::Prac4 => "PRAC-4",
            MechanismKind::PracPrfm => "PRAC+PRFM",
            MechanismKind::Chronus => "Chronus",
            MechanismKind::ChronusPb => "Chronus-PB",
            MechanismKind::Graphene => "Graphene",
            MechanismKind::Hydra => "Hydra",
            MechanismKind::Para => "PARA",
            MechanismKind::Abacus => "ABACuS",
        }
    }

    /// The DRAM timing mode this mechanism requires: PRAC variants pay the
    /// Table 1 penalty; Chronus's CCU and all controller-side mechanisms
    /// keep baseline timings.
    pub fn timing_mode(&self) -> TimingMode {
        match self {
            MechanismKind::Prac1
            | MechanismKind::Prac2
            | MechanismKind::Prac4
            | MechanismKind::PracPrfm => TimingMode::Prac,
            _ => TimingMode::Baseline,
        }
    }

    /// The address mapping the mechanism is evaluated with (ABACuS uses its
    /// own mapping, Appendix C; everything else uses the paper's MOP).
    pub fn preferred_mapping(&self) -> AddressMapping {
        match self {
            MechanismKind::Abacus => AddressMapping::AbacusMop,
            _ => AddressMapping::Mop,
        }
    }

    /// Whether the built mechanism consumes the RNG seed (only PARA draws
    /// from it). The batch engine folds seed-insensitive variants into one
    /// simulation, so this must stay exact: report `true` for any new
    /// mechanism that reads `seed` in `build_with_threshold`.
    pub fn uses_seed(&self) -> bool {
        matches!(self, MechanismKind::Para)
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully configured mechanism ready to plug into the simulator.
pub struct MechanismSetup {
    /// Which mechanism this is.
    pub kind: MechanismKind,
    /// The RowHammer threshold it is configured for.
    pub nrh: u32,
    /// DRAM timing mode (Table 1 column).
    pub timing_mode: TimingMode,
    /// On-die hook for the device.
    pub dram_mitigation: Box<dyn DramMitigation + Send>,
    /// Controller-side hook.
    pub ctrl_mitigation: Box<dyn CtrlMitigation>,
    /// Controller back-off policy.
    pub rfm_policy: RfmPolicy,
    /// PRFM RAA threshold, if the controller counts activations.
    pub raa_threshold: Option<u32>,
    /// Whether this configuration provably keeps every row below `nrh`
    /// under the wave attack.
    pub secure: bool,
    /// The derived mechanism threshold (N_BO, RFMth, T, or p×1000),
    /// for reporting.
    pub threshold: u32,
}

impl std::fmt::Debug for MechanismSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MechanismSetup")
            .field("kind", &self.kind)
            .field("nrh", &self.nrh)
            .field("timing_mode", &self.timing_mode)
            .field("rfm_policy", &self.rfm_policy)
            .field("raa_threshold", &self.raa_threshold)
            .field("secure", &self.secure)
            .field("threshold", &self.threshold)
            .finish()
    }
}

impl MechanismKind {
    /// Builds the mechanism for threshold `nrh` on `geo`, deriving secure
    /// configuration parameters from the analytical models. `seed` feeds
    /// PARA's RNG.
    pub fn build(self, nrh: u32, geo: Geometry, seed: u64) -> MechanismSetup {
        self.build_with_threshold(nrh, geo, seed, None)
    }

    /// Like [`MechanismKind::build`], but forces the mechanism threshold
    /// (PRAC/Chronus `N_BO`, PRFM `RFMth`) instead of deriving it — used
    /// for ablations and for replaying the paper's exact published
    /// configurations (e.g. PRAC-4 with `N_BO` = 1 at `N_RH` = 20).
    ///
    /// The forced configuration is marked secure only if the analytical
    /// worst case stays below `nrh`.
    pub fn build_with_threshold(
        self,
        nrh: u32,
        geo: Geometry,
        seed: u64,
        threshold_override: Option<u32>,
    ) -> MechanismSetup {
        let mode = self.timing_mode();
        let baseline_t = Timings::for_mode(TimingMode::Baseline);
        let a_normal = baseline_t.a_normal() as u32;
        let att_entries = (a_normal + 1) as usize;
        // Per-bank activation budget within one refresh window.
        let acts_per_epoch = baseline_t.refw / baseline_t.rc;
        let epoch_cycles = baseline_t.refw;
        let wave_prac = WaveTiming::prac_default();
        let wave_base = WaveTiming::baseline_default();

        let mut setup = MechanismSetup {
            kind: self,
            nrh,
            timing_mode: mode,
            dram_mitigation: Box::new(NoMitigation),
            ctrl_mitigation: Box::new(NoCtrlMitigation),
            rfm_policy: RfmPolicy::None,
            raa_threshold: None,
            secure: true,
            threshold: 0,
        };
        match self {
            MechanismKind::None => {
                setup.secure = false; // no protection at all
            }
            MechanismKind::Prfm => {
                let (th, secure) = match threshold_override {
                    Some(th) => (
                        th,
                        chronus_security::prfm_worst_case(th, &wave_base).max_acts < nrh as u64,
                    ),
                    None => match prfm_secure_threshold(nrh, &wave_base) {
                        Some(th) => (th, true),
                        None => (1, false),
                    },
                };
                setup.raa_threshold = Some(th);
                setup.dram_mitigation = Box::new(PrfmSampler::new(geo, att_entries * 2));
                setup.secure = secure;
                setup.threshold = th;
            }
            MechanismKind::Prac1 | MechanismKind::Prac2 | MechanismKind::Prac4 => {
                let n = match self {
                    MechanismKind::Prac1 => 1,
                    MechanismKind::Prac2 => 2,
                    _ => 4,
                };
                let (nbo, secure) = match threshold_override {
                    Some(nbo) => (
                        nbo,
                        chronus_security::prac_worst_case(nbo, n, n, &wave_prac).max_acts
                            < nrh as u64,
                    ),
                    None => match prac_secure_nbo(nrh, n, n, &wave_prac) {
                        Some(nbo) => (nbo, true),
                        None => (1, false),
                    },
                };
                setup.dram_mitigation = Box::new(PracMechanism::new(geo, nbo, att_entries));
                setup.rfm_policy = RfmPolicy::PracBackOff {
                    n_ref: n,
                    n_delay: n,
                };
                setup.secure = secure;
                setup.threshold = nbo;
            }
            MechanismKind::PracPrfm => {
                let (nbo, secure) = match prac_secure_nbo(nrh, 4, 4, &wave_prac) {
                    Some(nbo) => (nbo, true),
                    None => (1, false),
                };
                setup.dram_mitigation = Box::new(PracMechanism::new(geo, nbo, att_entries));
                setup.rfm_policy = RfmPolicy::PracBackOff {
                    n_ref: 4,
                    n_delay: 4,
                };
                // §3: the JEDEC example pairs PRAC with RFMth = 75.
                setup.raa_threshold = Some(75);
                setup.secure = secure;
                setup.threshold = nbo;
            }
            MechanismKind::Chronus => {
                let (nbo, secure) = match threshold_override {
                    Some(nbo) => (
                        nbo.min(256),
                        chronus_security::chronus_max_acts(nbo.min(256), a_normal) < nrh,
                    ),
                    None => match chronus_secure_nbo(nrh, a_normal) {
                        Some(nbo) => (nbo, true),
                        None => (1, false),
                    },
                };
                setup.dram_mitigation = Box::new(ChronusMechanism::new(geo, nbo, att_entries));
                setup.rfm_policy = RfmPolicy::ChronusBackOff;
                setup.secure = secure;
                setup.threshold = nbo;
            }
            MechanismKind::ChronusPb => {
                // CCU removes the timing penalty but the PRAC back-off
                // policy stays wave-attack-limited, and the 8-bit counter
                // caps the threshold at 256 (§7.1).
                let (nbo, secure) = match prac_secure_nbo(nrh, 4, 4, &wave_base) {
                    Some(nbo) => (nbo.min(256), true),
                    None => (1, false),
                };
                setup.dram_mitigation =
                    Box::new(ChronusMechanism::chronus_pb(geo, nbo, att_entries));
                setup.rfm_policy = RfmPolicy::PracBackOff {
                    n_ref: 4,
                    n_delay: 4,
                };
                setup.secure = secure;
                setup.threshold = nbo;
            }
            MechanismKind::Graphene => {
                let g = Graphene::for_nrh(geo, nrh, acts_per_epoch, epoch_cycles);
                setup.threshold = g.threshold();
                setup.ctrl_mitigation = Box::new(g);
            }
            MechanismKind::Hydra => {
                let cfg = HydraConfig::for_nrh(nrh, epoch_cycles);
                setup.threshold = cfg.row_threshold;
                setup.ctrl_mitigation = Box::new(Hydra::new(geo, cfg));
            }
            MechanismKind::Para => {
                let p = Para::for_nrh(nrh, 2, geo.rows, seed);
                setup.secure = p.is_secure();
                setup.threshold = (p.p() * 1000.0) as u32;
                setup.ctrl_mitigation = Box::new(p);
            }
            MechanismKind::Abacus => {
                let a = Abacus::for_nrh(geo, nrh, acts_per_epoch, epoch_cycles);
                setup.threshold = a.threshold();
                setup.ctrl_mitigation = Box::new(a);
            }
        }
        setup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prac4_at_nrh20_is_most_aggressive_but_secure() {
        let s = MechanismKind::Prac4.build(20, Geometry::ddr5(), 0);
        assert!(s.secure, "paper: PRAC-4 is securable at N_RH = 20");
        // The wave attack forces an aggressive back-off threshold (the
        // paper derives N_BO = 1; our Eq. 2 model admits a slightly larger
        // value — see EXPERIMENTS.md). Chronus, immune to the wave attack,
        // runs at N_BO = 16 for the same N_RH.
        let chronus = MechanismKind::Chronus.build(20, Geometry::ddr5(), 0);
        assert!(
            s.threshold < chronus.threshold / 2,
            "PRAC N_BO {} vs Chronus N_BO {}",
            s.threshold,
            chronus.threshold
        );
        assert_eq!(s.timing_mode, TimingMode::Prac);
        assert_eq!(
            s.rfm_policy,
            RfmPolicy::PracBackOff {
                n_ref: 4,
                n_delay: 4
            }
        );
    }

    #[test]
    fn prac_relaxes_at_high_nrh() {
        let lo = MechanismKind::Prac4
            .build(64, Geometry::ddr5(), 0)
            .threshold;
        let hi = MechanismKind::Prac4
            .build(1024, Geometry::ddr5(), 0)
            .threshold;
        assert!(hi > lo);
    }

    #[test]
    fn chronus_nbo_is_nrh_minus_four() {
        let s = MechanismKind::Chronus.build(20, Geometry::ddr5(), 0);
        assert!(s.secure);
        assert_eq!(s.threshold, 16, "§11: N_BO = 16 at N_RH = 20");
        assert_eq!(s.timing_mode, TimingMode::Baseline, "CCU keeps timings");
        assert_eq!(s.rfm_policy, RfmPolicy::ChronusBackOff);
        let s1k = MechanismKind::Chronus.build(1024, Geometry::ddr5(), 0);
        assert_eq!(s1k.threshold, 256, "8-bit counter cap");
    }

    #[test]
    fn chronus_pb_uses_prac_policy_with_baseline_timing() {
        let s = MechanismKind::ChronusPb.build(128, Geometry::ddr5(), 0);
        assert_eq!(s.timing_mode, TimingMode::Baseline);
        assert!(matches!(
            s.rfm_policy,
            RfmPolicy::PracBackOff { n_ref: 4, .. }
        ));
        // Wave-attack-limited: threshold well below Chronus's.
        let chronus = MechanismKind::Chronus.build(128, Geometry::ddr5(), 0);
        assert!(s.threshold < chronus.threshold);
    }

    #[test]
    fn para_flags_insecure_at_low_nrh() {
        // p = 4(1 − 10^(−15/N_RH)) exceeds 1 below N_RH ≈ 120.
        assert!(!MechanismKind::Para.build(20, Geometry::ddr5(), 0).secure);
        assert!(!MechanismKind::Para.build(64, Geometry::ddr5(), 0).secure);
        assert!(MechanismKind::Para.build(256, Geometry::ddr5(), 0).secure);
    }

    #[test]
    fn prac_prfm_sets_raa_75() {
        let s = MechanismKind::PracPrfm.build(256, Geometry::ddr5(), 0);
        assert_eq!(s.raa_threshold, Some(75));
    }

    #[test]
    fn headline_list_matches_figures() {
        assert_eq!(MechanismKind::headline().len(), 7);
        assert!(MechanismKind::headline().contains(&MechanismKind::Chronus));
    }

    #[test]
    fn abacus_prefers_its_own_mapping() {
        assert_eq!(
            MechanismKind::Abacus.preferred_mapping(),
            AddressMapping::AbacusMop
        );
        assert_eq!(
            MechanismKind::Chronus.preferred_mapping(),
            AddressMapping::Mop
        );
    }

    #[test]
    fn threshold_override_forces_and_reclassifies() {
        // The paper's published PRAC-4 configuration at N_RH = 20 is
        // N_BO = 1 — forcing it keeps the mechanism secure (tighter than
        // necessary under our model).
        let s = MechanismKind::Prac4.build_with_threshold(20, Geometry::ddr5(), 0, Some(1));
        assert_eq!(s.threshold, 1);
        assert!(s.secure);
        // Forcing a lax threshold flips the secure flag.
        let lax = MechanismKind::Prac4.build_with_threshold(20, Geometry::ddr5(), 0, Some(64));
        assert_eq!(lax.threshold, 64);
        assert!(!lax.secure);
        // Chronus: anything ≤ N_RH − A_normal − 1 stays secure.
        let c = MechanismKind::Chronus.build_with_threshold(20, Geometry::ddr5(), 0, Some(8));
        assert_eq!(c.threshold, 8);
        assert!(c.secure);
        let c_bad = MechanismKind::Chronus.build_with_threshold(20, Geometry::ddr5(), 0, Some(18));
        assert!(!c_bad.secure);
    }

    #[test]
    fn all_mechanisms_build_at_every_sweep_point() {
        for &kind in MechanismKind::all() {
            for nrh in [1024u32, 512, 256, 128, 64, 32, 20] {
                let s = kind.build(nrh, Geometry::ddr5(), 1);
                assert_eq!(s.nrh, nrh);
                assert!(!s.kind.label().is_empty());
            }
        }
    }
}
