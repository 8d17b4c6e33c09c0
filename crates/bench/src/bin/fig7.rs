//! Fig. 7: single-core performance of the seven headline mechanisms at
//! N_RH = 1024 and 32, across the 57-application roster.

fn main() {
    chronus_bench::figure_main("fig7", "fig7")
}
