//! Fig. 10: normalised DRAM energy of the headline mechanisms across N_RH.

fn main() {
    chronus_bench::figure_main("fig10", "fig10")
}
