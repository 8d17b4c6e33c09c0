//! Table 4 (Appendix E): PRAC overheads before and after the timing-bug
//! fix — the pre-erratum runs leave tRAS/tRTP/tWR unreduced.

fn main() {
    chronus_bench::figure_main("table4", "table4")
}
