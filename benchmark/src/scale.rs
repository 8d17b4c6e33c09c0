//! Every size the benchmark runs at, in one place. There are no scale
//! flags: a result is comparable with another only when both ran
//! [`Scale::FULL`], and the output header records each constant.

macro_rules! scale {
    ($($(#[$doc:meta])* $name:ident: $full:expr, $tiny:expr;)*) => {
        /// The benchmark's sizes. `FULL` is what `run.sh` measures; `TINY`
        /// exists for the package's own tests.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct Scale {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Scale {
            /// The measured scale.
            pub const FULL: Scale = Scale { $($name: $full,)* };
            /// A seconds-long scale for `cargo test`.
            pub const TINY: Scale = Scale { $($name: $tiny,)* };

            /// Every constant by name, for the output header.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

scale! {
    /// RowHammer threshold every mechanism is configured for.
    nrh: 32, 32;
    /// `membound-ondie`: instructions of the `429.mcf` cells.
    ondie_mcf_instr: 1_200_000, 20_000;
    /// `membound-ondie`: instructions of the `470.lbm` cells.
    ondie_lbm_instr: 3_200_000, 30_000;
    /// `membound-trackers`: instructions of the `429.mcf` cells.
    trackers_instr: 550_000, 10_000;
    /// `idle-sprint`: instructions of the `511.povray` cells.
    idle_instr: 700_000_000, 2_000_000;
    /// `attack-oracle`: accesses of the `perf_attack_trace` cells.
    perf_attack_accesses: 160_000, 3_000;
    /// `attack-oracle`: accesses of the `wave_attack_trace` cells.
    wave_accesses: 50_000, 2_000;
    /// `attack-oracle`: rows the wave hammers in its one bank.
    wave_rows: 64, 64;
    /// `grid-*`: `HarnessOpts::instructions` of the three figure specs.
    grid_instr: 2_500, 600;
    /// `grid-*`: the Fig. 7 spec covers every n-th application profile.
    grid_fig7_app_stride: 3, 12;
    /// `grid-warm`: how often the three specs are served in one pass.
    grid_warm_reps: 80, 2;
    /// `batch-cohorts` (a): instructions of the shared `429.mcf` trace.
    batch_vrd_instr: 4_000_000, 20_000;
    /// `batch-cohorts` (a): VRD variants, one oracle lane each.
    batch_vrd_lanes: 64, 8;
    /// `batch-cohorts` (b): instructions per core of the four-core set.
    batch_fork_instr: 140_000, 4_000;
    /// Layer kernels: trace entries each kernel replays.
    kernel_entries: 200_000, 4_000;
    /// How often a child sets its workload up; `setup_s` is the median.
    /// Set-up takes milliseconds, too little to read from one sample.
    setup_repeats: 5, 2;
    /// Warm-up runs the first cell at `1/warmup_div` of its size.
    warmup_div: 16, 4;
    /// Verification runs every cell at `1/verify_div` of its size.
    verify_div: 10, 2;
    /// Worker threads of the grid workloads (never more than `nproc`).
    grid_threads: 2, 2;
    /// Timed rounds per workload when no `--seconds` budget is given.
    rounds: 7, 2;
    /// Timed rounds of `grid-cold`, with or without a `--seconds` budget:
    /// its passes swing the most from one to the next (kernel time on two
    /// threads), so it gets more of them.
    rounds_grid_cold: 12, 2;
    /// Fewest rounds a `--seconds` budget may cut any other run to.
    rounds_floor: 5, 2;
    /// Untraced rounds a `--trace 1` run measures the overhead against.
    trace_reference_rounds: 3, 1;
}

impl Scale {
    /// This scale with every instruction and access count divided by
    /// `div` (warm-up and verification sizes).
    pub fn shrunk(&self, div: u64) -> Scale {
        let d = |x: u64| (x / div).max(200);
        Scale {
            ondie_mcf_instr: d(self.ondie_mcf_instr),
            ondie_lbm_instr: d(self.ondie_lbm_instr),
            trackers_instr: d(self.trackers_instr),
            idle_instr: d(self.idle_instr),
            perf_attack_accesses: d(self.perf_attack_accesses),
            wave_accesses: d(self.wave_accesses),
            grid_instr: d(self.grid_instr),
            batch_vrd_instr: d(self.batch_vrd_instr),
            batch_fork_instr: d(self.batch_fork_instr),
            ..*self
        }
    }
}

/// Iterations of the probe's user-space half (about 35 ms).
pub const PROBE_USER_ITERS: u64 = 1_000_000;

/// Mappings the probe's kernel half faults in, one after another.
pub const PROBE_SYS_CHUNKS: usize = 8;

/// Pages per mapping (4 MiB: small enough not to move the peak RSS).
pub const PROBE_SYS_CHUNK_PAGES: usize = 1024;

/// What the probe's user-space half takes on the reference box with
/// nothing else running. Host times are reported as `measured × reference
/// / probe`, the probe being read right around the measured interval; the
/// constant only sets the unit and cancels between two commits.
pub const PROBE_REF_USER_S: f64 = 0.035;

/// The same for the probe's kernel half.
pub const PROBE_REF_SYS_S: f64 = 0.013;

/// Outstanding reads of the closed-loop memory-system kernel.
pub const MEMSYS_DEPTH: usize = 32;
