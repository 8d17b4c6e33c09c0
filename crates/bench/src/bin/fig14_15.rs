//! Fig. 14 + Fig. 15 (Appendix E): PRAC-4 on 23 eight-core homogeneous
//! SPEC CPU2017 workloads with the 4.5× larger LLC of [Kim+, CAL'25].

fn main() {
    chronus_bench::figure_main("fig14_15", "fig14_15")
}
