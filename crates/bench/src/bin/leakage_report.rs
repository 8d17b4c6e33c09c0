//! Timing-channel leakage figure: how much timing signal each mitigation
//! exposes to a co-located attacker.
//!
//! Every RowHammer mitigation perturbs timing — refreshes, RFMs, back-off
//! recovery and VRR all stall demand traffic in attacker-observable ways.
//! This figure runs the probe workload (one benign app + the §11 attacker)
//! under every mechanism with the observability probe attached, and ranks
//! the mechanisms by a composite leakage score: the Shannon entropy of the
//! attacker's read-latency distribution, plus the inter-CAS gap entropy,
//! plus the mitigation-pause duration entropy. Higher = more timing signal
//! an attacker can measure.

fn main() {
    chronus_bench::figure_main("leakage_report", "leakage")
}
