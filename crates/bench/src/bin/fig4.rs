//! Fig. 4: performance impact of the PRAC and RFM configurations on
//! four-core workloads (normalised weighted speedup vs N_RH).

fn main() {
    chronus_bench::figure_main("fig4", "fig4")
}
