//! Configuration sweeps (Fig. 3) and secure-threshold search.
//!
//! The paper configures every mechanism "against the wave attack": the
//! largest threshold whose worst-case achievable activation count stays
//! below `N_RH`. These searches feed `chronus-core`'s mechanism builders so
//! the simulated mechanisms run exactly the configurations the paper's
//! security analysis prescribes.

use std::collections::BTreeMap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::wave::{prac_wave_max_acts, prfm_wave_max_acts, PracBackOff, WaveTiming};

/// Starting row-set sizes swept in Fig. 3 (2K – 64K) plus smaller sets that
/// matter for aggressive configurations.
pub const R1_SWEEP: &[u64] = &[
    2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16_384, 32_768, 65_536,
];

/// Worst case over the `R_1` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorstCase {
    /// Highest achievable activation count before mitigation.
    pub max_acts: u64,
    /// The starting row-set size that achieves it.
    pub worst_r1: u64,
}

/// Worst-case wave-attack outcome against PRFM with threshold `rfm_th`.
pub fn prfm_worst_case(rfm_th: u32, t: &WaveTiming) -> WorstCase {
    let mut worst = WorstCase {
        max_acts: 0,
        worst_r1: R1_SWEEP[0],
    };
    for &r1 in R1_SWEEP {
        let m = prfm_wave_max_acts(rfm_th, r1, t);
        if m > worst.max_acts {
            worst = WorstCase {
                max_acts: m,
                worst_r1: r1,
            };
        }
    }
    worst
}

/// Worst-case wave-attack outcome against PRAC-N.
pub fn prac_worst_case(nbo: u32, n_ref: u32, n_delay: u32, t: &WaveTiming) -> WorstCase {
    let cfg = PracBackOff {
        nbo,
        n_ref,
        n_delay,
    };
    let mut worst = WorstCase {
        max_acts: 0,
        worst_r1: R1_SWEEP[0],
    };
    for &r1 in R1_SWEEP {
        let m = prac_wave_max_acts(cfg, r1, t);
        if m > worst.max_acts {
            worst = WorstCase {
                max_acts: m,
                worst_r1: r1,
            };
        }
    }
    worst
}

/// The full argument list of one secure-threshold search: the searches are
/// pure, so equal keys have equal answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SearchKey {
    nrh: u32,
    /// `(n_ref, n_delay)` for a PRAC search, `None` for PRFM.
    back_off: Option<(u32, u32)>,
    /// The four [`WaveTiming`] fields by bit pattern.
    timing: [u64; 4],
}

impl SearchKey {
    fn new(nrh: u32, back_off: Option<(u32, u32)>, t: &WaveTiming) -> Self {
        Self {
            nrh,
            back_off,
            timing: [t.trc_ns, t.trfm_ns, t.taboact_ns, t.trefw_ns].map(f64::to_bits),
        }
    }
}

/// Process-wide answers of [`prfm_secure_threshold`] / [`prac_secure_nbo`].
/// A figure grid asks the same few questions (N_RH point × mechanism) once
/// per cell, and each search iterates the wave recurrence for a millisecond
/// or more; one entry per distinct argument list is all the table ever holds.
static SEARCH_MEMO: Mutex<BTreeMap<SearchKey, Option<u32>>> = Mutex::new(BTreeMap::new());

fn memoised(key: SearchKey, search: impl FnOnce() -> Option<u32>) -> Option<u32> {
    const HELD: &str = "the memo lock is never held across a search, so it cannot be poisoned";
    if let Some(&hit) = SEARCH_MEMO.lock().expect(HELD).get(&key) {
        return hit;
    }
    // Two threads missing on one key both search; the answers are equal.
    let found = search();
    SEARCH_MEMO.lock().expect(HELD).insert(key, found);
    found
}

/// Largest `RFMth` that keeps the worst-case activation count below `nrh`,
/// or `None` if even `RFMth = 1` is insecure. Answers repeat questions from
/// a process-wide memo; [`prfm_secure_threshold_search`] is the search.
pub fn prfm_secure_threshold(nrh: u32, t: &WaveTiming) -> Option<u32> {
    memoised(SearchKey::new(nrh, None, t), || {
        prfm_secure_threshold_search(nrh, t)
    })
}

/// Largest `N_BO` that keeps PRAC-N's worst case below `nrh`, or `None` if
/// even `N_BO = 1` is insecure (the paper: PRAC is not securable below
/// `N_RH = 20`). Answers repeat questions from a process-wide memo;
/// [`prac_secure_nbo_search`] is the search.
pub fn prac_secure_nbo(nrh: u32, n_ref: u32, n_delay: u32, t: &WaveTiming) -> Option<u32> {
    memoised(SearchKey::new(nrh, Some((n_ref, n_delay)), t), || {
        prac_secure_nbo_search(nrh, n_ref, n_delay, t)
    })
}

/// The un-memoised search behind [`prfm_secure_threshold`].
pub fn prfm_secure_threshold_search(nrh: u32, t: &WaveTiming) -> Option<u32> {
    if prfm_worst_case(1, t).max_acts >= nrh as u64 {
        return None;
    }
    // Worst-case count is monotone non-decreasing in the threshold: binary
    // search the largest secure value.
    let (mut lo, mut hi) = (1u32, 4096u32);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if prfm_worst_case(mid, t).max_acts < nrh as u64 {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// The un-memoised search behind [`prac_secure_nbo`].
pub fn prac_secure_nbo_search(nrh: u32, n_ref: u32, n_delay: u32, t: &WaveTiming) -> Option<u32> {
    if prac_worst_case(1, n_ref, n_delay, t).max_acts >= nrh as u64 {
        return None;
    }
    let (mut lo, mut hi) = (1u32, nrh.max(2));
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if prac_worst_case(mid, n_ref, n_delay, t).max_acts < nrh as u64 {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// The Variable Read Disturbance threshold distribution: `N_RH` is a
/// per-row random variable drawn uniformly from `[floor, nominal]`
/// (PAPERS.md: VRD), parameterized as the nominal threshold plus the
/// weakest row's percentage of it. This is the analytical side of the
/// `vrd-sweep` Monte-Carlo grid — the simulator's per-row oracle
/// (`chronus_dram::ThresholdModel::PerRow`) samples against exactly this
/// floor, and secure-configuration searches must hold at the floor, since
/// a configuration is only secure if the *weakest* row stays safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VrdModel {
    /// The nominal (maximum) per-row threshold.
    pub nominal: u32,
    /// The weakest row's threshold as a percentage of nominal (100 =
    /// degenerate: every row at nominal, the scalar model).
    pub min_pct: u32,
}

impl VrdModel {
    /// The weakest row's threshold: `nominal · min_pct / 100`, clamped to
    /// `[1, nominal]`.
    pub fn floor(&self) -> u32 {
        ((self.nominal as u64 * self.min_pct as u64) / 100).clamp(1, self.nominal as u64) as u32
    }

    /// Whether the distribution collapses to the scalar model (every row
    /// at nominal).
    pub fn is_degenerate(&self) -> bool {
        self.floor() == self.nominal
    }

    /// Expected threshold of a uniformly drawn row.
    pub fn mean(&self) -> f64 {
        (self.floor() as f64 + self.nominal as f64) / 2.0
    }
}

/// Largest `RFMth` that keeps every row of a VRD distribution secure: the
/// scalar search evaluated at the distribution's floor.
pub fn prfm_secure_threshold_vrd(model: &VrdModel, t: &WaveTiming) -> Option<u32> {
    prfm_secure_threshold(model.floor(), t)
}

/// Largest `N_BO` that keeps every row of a VRD distribution secure under
/// PRAC-N: the scalar search evaluated at the distribution's floor.
pub fn prac_secure_nbo_vrd(
    model: &VrdModel,
    n_ref: u32,
    n_delay: u32,
    t: &WaveTiming,
) -> Option<u32> {
    prac_secure_nbo(model.floor(), n_ref, n_delay, t)
}

/// One series point of Fig. 3a: max activations vs `RFMth` for each
/// starting row-set size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3aPoint {
    /// Bank-activation threshold on the x axis.
    pub rfm_th: u32,
    /// Starting row-set size (colour-coded series).
    pub r1: u64,
    /// Maximum activations to a single row (y axis).
    pub max_acts: u64,
}

/// Regenerates the Fig. 3a sweep.
pub fn fig3a(t: &WaveTiming) -> Vec<Fig3aPoint> {
    let thresholds = [2u32, 3, 4, 8, 16, 32, 64, 80, 128, 256];
    let row_sets = [2048u64, 4096, 8192, 16_384, 32_768, 65_536];
    let mut out = Vec::new();
    for &rfm_th in &thresholds {
        for &r1 in &row_sets {
            out.push(Fig3aPoint {
                rfm_th,
                r1,
                max_acts: prfm_wave_max_acts(rfm_th, r1, t),
            });
        }
    }
    out
}

/// One series point of Fig. 3b: worst-case max activations vs `N_BO` for
/// each PRAC-N variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3bPoint {
    /// Back-off threshold on the x axis.
    pub nbo: u32,
    /// PRAC variant (`N_Ref = N_Delay = n`).
    pub n: u32,
    /// Worst-case maximum activations over the row-set sweep.
    pub max_acts: u64,
    /// The row-set size achieving the worst case.
    pub worst_r1: u64,
}

/// Regenerates the Fig. 3b sweep.
pub fn fig3b(t: &WaveTiming) -> Vec<Fig3bPoint> {
    let nbos = [1u32, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256];
    let variants = [1u32, 2, 4];
    let mut out = Vec::new();
    for &nbo in &nbos {
        for &n in &variants {
            let w = prac_worst_case(nbo, n, n, t);
            out.push(Fig3bPoint {
                nbo,
                n,
                max_acts: w.max_acts,
                worst_r1: w.worst_r1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prac4_is_securable_at_nrh_20() {
        let t = WaveTiming::prac_default();
        let nbo = prac_secure_nbo(20, 4, 4, &t);
        assert!(nbo.is_some(), "paper: PRAC-4 is secure at N_RH = 20");
    }

    #[test]
    fn prac_is_not_securable_at_very_low_nrh() {
        let t = WaveTiming::prac_default();
        // Below the worst-case wave-attack count even N_BO = 1 fails.
        let floor = prac_worst_case(1, 4, 4, &t).max_acts as u32;
        assert!(prac_secure_nbo(floor, 4, 4, &t).is_none());
    }

    #[test]
    fn secure_nbo_grows_with_nrh() {
        let t = WaveTiming::prac_default();
        let mut prev = 0;
        for nrh in [32u32, 64, 128, 256, 512, 1024] {
            let nbo = prac_secure_nbo(nrh, 4, 4, &t).expect("securable");
            assert!(nbo >= prev, "nbo not monotone at nrh={nrh}");
            prev = nbo;
        }
        assert!(prev > 64, "high N_RH should allow a relaxed threshold");
    }

    #[test]
    fn secure_threshold_is_actually_secure_and_maximal() {
        let t = WaveTiming::prac_default();
        for nrh in [64u32, 256, 1024] {
            let nbo = prac_secure_nbo(nrh, 4, 4, &t).unwrap();
            assert!(prac_worst_case(nbo, 4, 4, &t).max_acts < nrh as u64);
            assert!(prac_worst_case(nbo + 1, 4, 4, &t).max_acts >= nrh as u64);
        }
    }

    #[test]
    fn prfm_secure_threshold_for_low_nrh_is_small() {
        let t = WaveTiming::baseline_default();
        // Fig. 3a: preventing bitflips at N_RH ≈ 32 needs RFMth < 4.
        let th = prfm_secure_threshold(32, &t).expect("securable");
        assert!(th <= 8, "got {th}");
        let th_1k = prfm_secure_threshold(1024, &t).expect("securable");
        assert!(th_1k > th);
    }

    #[test]
    fn memoised_answers_equal_the_search_over_the_paper_sweep() {
        // Asked twice so both the filling miss and the hit are compared.
        for t in [WaveTiming::baseline_default(), WaveTiming::prac_default()] {
            for nrh in [1024u32, 512, 256, 128, 64, 32, 20] {
                let prfm = prfm_secure_threshold_search(nrh, &t);
                assert_eq!(prfm_secure_threshold(nrh, &t), prfm, "PRFM nrh={nrh}");
                assert_eq!(prfm_secure_threshold(nrh, &t), prfm, "PRFM nrh={nrh}");
                for n in [1u32, 2, 4] {
                    let prac = prac_secure_nbo_search(nrh, n, n, &t);
                    assert_eq!(prac_secure_nbo(nrh, n, n, &t), prac, "PRAC-{n} nrh={nrh}");
                    assert_eq!(prac_secure_nbo(nrh, n, n, &t), prac, "PRAC-{n} nrh={nrh}");
                }
            }
        }
    }

    #[test]
    fn memo_keys_on_every_argument() {
        // Neighbouring questions that differ in one argument each: a memo
        // that dropped any of them from its key would hand one the other's
        // answer.
        let base = WaveTiming::prac_default();
        let slow_rfm = WaveTiming {
            trfm_ns: 700.0,
            ..base
        };
        let short_window = WaveTiming {
            trefw_ns: 8.0e6,
            ..base
        };
        let long_aboact = WaveTiming {
            taboact_ns: 360.0,
            ..base
        };
        for t in [base, slow_rfm, short_window, long_aboact] {
            for (n_ref, n_delay) in [(4u32, 4u32), (4, 1), (1, 4)] {
                assert_eq!(
                    prac_secure_nbo(96, n_ref, n_delay, &t),
                    prac_secure_nbo_search(96, n_ref, n_delay, &t),
                    "n_ref={n_ref} n_delay={n_delay} {t:?}"
                );
            }
            assert_eq!(
                prfm_secure_threshold(96, &t),
                prfm_secure_threshold_search(96, &t),
                "{t:?}"
            );
        }
    }

    #[test]
    fn eight_threads_asking_at_once_agree_with_the_search() {
        // N_RH values no other test asks about, so the threads race on cold
        // keys: some miss together and search twice, the rest hit.
        let t = WaveTiming::prac_default();
        let start = std::sync::Barrier::new(8);
        let answers: Vec<_> = std::thread::scope(|s| {
            let asks: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (
                            prfm_secure_threshold(777, &t),
                            prac_secure_nbo(777, 4, 4, &t),
                            prac_secure_nbo(19, 1, 1, &t),
                        )
                    })
                })
                .collect();
            asks.into_iter().map(|a| a.join().unwrap()).collect()
        });
        let want = (
            prfm_secure_threshold_search(777, &t),
            prac_secure_nbo_search(777, 4, 4, &t),
            prac_secure_nbo_search(19, 1, 1, &t),
        );
        assert!(want.0.is_some() && want.1.is_some());
        for got in answers {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn vrd_floor_math() {
        let m = VrdModel {
            nominal: 1000,
            min_pct: 50,
        };
        assert_eq!(m.floor(), 500);
        assert!(!m.is_degenerate());
        assert_eq!(m.mean(), 750.0);
        // 100% (or more) collapses to the scalar model.
        let scalar = VrdModel {
            nominal: 64,
            min_pct: 100,
        };
        assert_eq!(scalar.floor(), 64);
        assert!(scalar.is_degenerate());
        // The floor never reaches zero.
        let tiny = VrdModel {
            nominal: 10,
            min_pct: 1,
        };
        assert_eq!(tiny.floor(), 1);
    }

    #[test]
    fn vrd_secure_search_holds_at_the_weakest_row() {
        let t = WaveTiming::prac_default();
        let model = VrdModel {
            nominal: 1024,
            min_pct: 25,
        };
        let vrd_nbo = prac_secure_nbo_vrd(&model, 4, 4, &t).expect("securable");
        let scalar_nbo = prac_secure_nbo(1024, 4, 4, &t).expect("securable");
        assert_eq!(vrd_nbo, prac_secure_nbo(model.floor(), 4, 4, &t).unwrap());
        assert!(
            vrd_nbo <= scalar_nbo,
            "a spread distribution can never relax the threshold"
        );
        // Degenerate distribution = scalar search exactly.
        let degenerate = VrdModel {
            nominal: 1024,
            min_pct: 100,
        };
        assert_eq!(
            prac_secure_nbo_vrd(&degenerate, 4, 4, &t),
            prac_secure_nbo(1024, 4, 4, &t)
        );
        assert_eq!(
            prfm_secure_threshold_vrd(&degenerate, &WaveTiming::baseline_default()),
            prfm_secure_threshold(1024, &WaveTiming::baseline_default())
        );
    }

    #[test]
    fn fig3a_has_full_grid() {
        let pts = fig3a(&WaveTiming::baseline_default());
        assert_eq!(pts.len(), 10 * 6);
        // Larger row sets never reduce the achievable count at fixed th.
        let at = |th: u32, r1: u64| {
            pts.iter()
                .find(|p| p.rfm_th == th && p.r1 == r1)
                .unwrap()
                .max_acts
        };
        assert!(at(256, 65_536) >= at(256, 2048) || at(256, 2048) > 1000);
    }

    #[test]
    fn fig3b_prac4_dominates_prac1() {
        let pts = fig3b(&WaveTiming::prac_default());
        for nbo in [1u32, 4, 16, 64] {
            let get = |n: u32| {
                pts.iter()
                    .find(|p| p.nbo == nbo && p.n == n)
                    .unwrap()
                    .max_acts
            };
            assert!(get(4) <= get(1), "PRAC-4 should dominate at nbo={nbo}");
        }
    }
}
