//! Fig. 8: normalised weighted speedup of all seven headline mechanisms
//! across N_RH on the four-core mixes.

fn main() {
    chronus_bench::figure_main("fig8", "fig8")
}
