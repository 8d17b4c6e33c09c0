//! Scaled-down versions of the figure pipelines, exercised under
//! criterion so `cargo bench` touches every experiment code path: each
//! simulated bench builds a registered figure, simulates its cells and
//! renders it, as the figure binary does.

use criterion::{criterion_group, criterion_main, Criterion};

use chronus_bench::grids::figure;
use chronus_bench::{execute, HarnessOpts};
use chronus_security::sweep::{fig3a, fig3b};
use chronus_security::wave::WaveTiming;

fn tiny_opts() -> HarnessOpts {
    HarnessOpts {
        instructions: 3_000,
        mixes_per_class: 1,
        threads: 8,
        seed: 7,
        nrh_list: vec![1024, 32],
        // Bypass the grid result store so every iteration really
        // simulates, and keep progress lines out of bench output.
        no_cache: true,
        quiet: true,
        ..HarnessOpts::default()
    }
}

/// The registered figure `name` at `opts`: its text and `--out` rows.
fn render(name: &str, opts: &HarnessOpts) -> (String, String) {
    let figure = figure(name, opts).expect("registered grid");
    let render = figure.render.expect("a figure binary renders it");
    render(&execute(&figure.spec, opts))
}

fn smoke_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig3_security_sweep");
    g.sample_size(10);
    g.bench_function("fig3a+fig3b", |b| {
        b.iter(|| {
            let a = fig3a(&WaveTiming::baseline_default());
            let bb = fig3b(&WaveTiming::prac_default());
            (a.len(), bb.len())
        })
    });
    g.finish();
}

fn smoke_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig4_prac_variants");
    g.sample_size(10);
    g.bench_function("6mixes_2nrh", |b| {
        let opts = tiny_opts();
        b.iter(|| render("fig4", &opts))
    });
    g.finish();
}

fn smoke_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig8_headline");
    g.sample_size(10);
    g.bench_function("6mixes_nrh32", |b| {
        let opts = HarnessOpts {
            nrh_list: vec![32],
            ..tiny_opts()
        };
        b.iter(|| render("fig8", &opts))
    });
    g.finish();
}

fn smoke_fig14(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig14_eight_core");
    g.sample_size(10);
    g.bench_function("23apps_nrh1024", |b| {
        let opts = HarnessOpts {
            nrh_list: vec![1024],
            ..tiny_opts()
        };
        b.iter(|| render("fig14_15", &opts))
    });
    g.finish();
}

criterion_group!(figures, smoke_fig3, smoke_fig4, smoke_fig8, smoke_fig14);
criterion_main!(figures);
