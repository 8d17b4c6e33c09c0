//! §11: the performance-degradation (memory-service-denial) attack.
//!
//! Prints (1) the theoretical maximum DRAM bandwidth an attacker can burn
//! with preventive refreshes under PRAC vs Chronus, and (2) simulated
//! system-performance loss when one core hammers 8 rows in each of 4
//! banks next to three benign applications.

fn main() {
    chronus_bench::figure_main("perf_attack", "perf_attack")
}
