//! Ablation study: how the back-off threshold (`N_BO`) drives the
//! performance-attack exposure of PRAC-4 and Chronus.
//!
//! This isolates the paper's central design argument (§6.2/§7.2): PRAC's
//! wave-attack vulnerability forces tiny `N_BO` values, and small `N_BO`
//! is exactly what lets an attacker trigger preventive refreshes cheaply.
//! Chronus, immune to the wave attack, keeps `N_BO` near `N_RH`.

fn main() {
    chronus_bench::figure_main("ablation", "ablation")
}
