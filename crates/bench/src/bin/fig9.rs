//! Fig. 9: per-intensity-class breakdown at N_RH = 32.

fn main() {
    chronus_bench::figure_main("fig9", "fig9")
}
