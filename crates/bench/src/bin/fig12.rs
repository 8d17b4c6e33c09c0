//! Fig. 12 (Appendix C): Chronus vs ABACuS on the four-core mixes, both
//! evaluated under ABACuS's address mapping.

fn main() {
    chronus_bench::figure_main("fig12", "fig12")
}
