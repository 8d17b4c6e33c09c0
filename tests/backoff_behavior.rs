//! Behavioural contracts of the back-off machinery — in both senses:
//! DRAM-level back-off (§3 vs §7.2: PRAC serves a fixed number of RFMs
//! per back-off; Chronus serves as many as needed and no more) and the
//! grid executor's retry back-off, whose deterministic schedule the
//! `executor_retry_backoff` module below pins down.

use chronus::core::MechanismKind;
use chronus::ctrl::AddressMapping;
use chronus::dram::{BankId, Geometry};
use chronus::sim::{SimConfig, SimReport, System};
use chronus::workloads::wave_attack_trace;

fn attack(mech: MechanismKind, nrh: u32, rows: u32, accesses: usize) -> SimReport {
    let geo = Geometry::ddr5();
    let row_list: Vec<u32> = (0..rows).map(|i| 1000 + i * 16).collect();
    let t = wave_attack_trace(
        AddressMapping::Mop,
        &geo,
        BankId::new(0, 0, 0),
        &row_list,
        accesses,
    );
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = t.instructions() - 16;
    cfg.mechanism = mech;
    cfg.nrh = nrh;
    cfg.oracle = true;
    cfg.max_mem_cycles = 60_000_000;
    System::build(&cfg).run(vec![t])
}

#[test]
fn prac4_serves_exactly_four_rfms_per_backoff() {
    let r = attack(MechanismKind::Prac4, 64, 8, 8_000);
    assert!(r.ctrl.back_offs > 0, "attack must trigger back-offs");
    // The run may end mid-recovery, so allow one unfinished period.
    let expect = 4 * r.ctrl.back_offs;
    assert!(
        r.ctrl.recovery_rfms <= expect && r.ctrl.recovery_rfms + 4 > expect,
        "PRAC-4's recovery period is always N_Ref = 4 RFMs ({} vs {})",
        r.ctrl.recovery_rfms,
        expect
    );
}

#[test]
fn prac1_serves_one_rfm_per_backoff() {
    let r = attack(MechanismKind::Prac1, 64, 8, 8_000);
    assert!(r.ctrl.back_offs > 0);
    assert!(
        r.ctrl.back_offs - r.ctrl.recovery_rfms <= 1,
        "{} back-offs vs {} RFMs",
        r.ctrl.back_offs,
        r.ctrl.recovery_rfms
    );
}

#[test]
fn chronus_refresh_count_is_demand_driven() {
    // Two alternating hot rows: Chronus spends about two RFMs per
    // back-off instead of PRAC's fixed four.
    let few = attack(MechanismKind::Chronus, 64, 2, 8_000);
    assert!(few.ctrl.back_offs > 0);
    let per_backoff = few.ctrl.recovery_rfms as f64 / few.ctrl.back_offs as f64;
    assert!(
        per_backoff < 3.0,
        "two hot rows should not need 4 RFMs (got {per_backoff:.2})"
    );
    // Many concurrently hot rows: recoveries must stretch to cover them.
    let many = attack(MechanismKind::Chronus, 64, 8, 12_000);
    assert!(many.ctrl.back_offs > 0);
    let per_backoff_many = many.ctrl.recovery_rfms as f64 / many.ctrl.back_offs as f64;
    assert!(
        per_backoff_many > per_backoff,
        "Chronus must scale refreshes with demand ({per_backoff:.2} vs {per_backoff_many:.2})"
    );
}

#[test]
fn both_policies_keep_the_oracle_clean() {
    for mech in [MechanismKind::Prac4, MechanismKind::Chronus] {
        let r = attack(mech, 64, 8, 10_000);
        assert_eq!(r.oracle_flips, Some(0), "{mech:?} leaked a bitflip");
    }
}

#[test]
fn prac_prfm_uses_both_triggers() {
    let r = attack(MechanismKind::PracPrfm, 64, 8, 8_000);
    // The RFMth = 75 periodic trigger fires long before any counter
    // reaches the back-off threshold under a spread attack.
    assert!(r.ctrl.raa_rfms > 0, "PRFM side must fire");
    assert!(r.dram.rfms >= r.ctrl.raa_rfms + r.ctrl.recovery_rfms);
    assert_eq!(r.oracle_flips, Some(0));
}

#[test]
fn chronus_pb_combines_ccu_with_fixed_recovery() {
    let r = attack(MechanismKind::ChronusPb, 64, 8, 8_000);
    if r.ctrl.back_offs > 0 {
        assert_eq!(
            r.ctrl.recovery_rfms,
            4 * r.ctrl.back_offs,
            "Chronus-PB inherits PRAC's fixed recovery"
        );
    }
    assert_eq!(r.oracle_flips, Some(0));
}

#[test]
fn borrowed_refresh_services_aggressors_during_ref() {
    // Benign-rate hammering below the back-off threshold: periodic REFs
    // should transparently service the tracked aggressors (§5).
    let r = attack(MechanismKind::Prac4, 1024, 4, 20_000);
    assert!(
        r.dram.borrowed_refreshes > 0,
        "borrowed refreshes never fired"
    );
    assert_eq!(r.ctrl.back_offs, 0, "threshold 1017 must not be reached");
}

#[test]
fn mechanisms_stay_secure_at_rowpress_style_thresholds() {
    // §12: RowPress is mitigated by configuring RowHammer defences at
    // sub-500 thresholds. Verify the stack holds at N_RH = 500.
    for mech in [
        MechanismKind::Chronus,
        MechanismKind::Prac4,
        MechanismKind::Graphene,
    ] {
        let r = attack(mech, 500, 16, 12_000);
        assert_eq!(r.oracle_flips, Some(0), "{mech:?} at N_RH=500");
        assert!(r.oracle_max_acts.unwrap() < 500);
    }
}

/// Contracts of the *executor's* retry back-off: the schedule the grid
/// uses when a cell attempt fails. Everything is asserted through the real
/// [`RetryPolicy`] with no clock — the schedule is a pure function of the
/// policy and the retry token.
mod executor_retry_backoff {
    use chronus::grid::retry::RetryPolicy;

    #[test]
    fn default_policy_schedule_is_capped_exponential_within_jitter() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_retries, 3);
        for token in [0u64, 17, u64::MAX] {
            for retry in 0..p.max_retries {
                let raw = p.raw_delay_ms(retry) as f64;
                let ms = p.delay_ms(retry, token) as f64;
                assert!(
                    ms >= (raw * (1.0 - p.jitter)).floor() && ms <= (raw * (1.0 + p.jitter)).ceil(),
                    "retry {retry} token {token}: {ms} outside ±{}% of {raw}",
                    p.jitter * 100.0
                );
            }
        }
        // Doubling, capped.
        assert_eq!(p.raw_delay_ms(0), 250);
        assert_eq!(p.raw_delay_ms(1), 500);
        assert_eq!(p.raw_delay_ms(2), 1_000);
        assert_eq!(p.raw_delay_ms(63), p.cap_ms);
    }

    #[test]
    fn schedule_is_deterministic_per_token_and_decorrelated_across_tokens() {
        let p = RetryPolicy {
            max_retries: 6,
            ..RetryPolicy::default()
        };
        assert_eq!(p.schedule_ms(42), p.schedule_ms(42), "pure in the token");
        assert_ne!(
            p.schedule_ms(42),
            p.schedule_ms(43),
            "different cells must not retry in lockstep"
        );
    }

    #[test]
    fn retry_budget_shapes_the_schedule_length() {
        let retries = |max_retries| RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        };
        assert!(retries(0).schedule_ms(1).is_empty());
        assert_eq!(retries(0).attempts(), 1);
        assert_eq!(retries(5).schedule_ms(1).len(), 5);
    }
}
