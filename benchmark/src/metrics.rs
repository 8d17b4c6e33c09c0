//! The metric tables: every name the benchmark reports, with its unit,
//! its better direction and — written down before anything was measured —
//! which end-to-end metric on which workload a per-layer metric should
//! move. `BENCHMARK.json` at the repository root is generated from these
//! tables (`--emit-benchmark-json`) and a test keeps the two equal.

use crate::json::{arr, int, num, obj, string};
use crate::kernels::{BUILD_METRICS, HOOK_METRICS};
use crate::workloads::WORKLOADS;
use serde::JsonValue;

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// One end-to-end metric.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics, defined on every workload; `README.md` says
/// what each one measures.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_mcycles_per_s",
        unit: "1e6/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_mips",
        unit: "1e6/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// One per-layer metric.
pub struct Layer {
    /// Name; its prefix is the crate (layer) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better. Modelled-design counts have
    /// no better direction (they must not change at all); they read
    /// `false`.
    pub higher_is_better: bool,
    /// Which end-to-end metric on which workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better,
        moves,
    }
}

const SOLO: &str = "wall_s on the solo workloads";
const GRID_COLD: &str = "wall_s, cpu_s on grid-cold only";
const GRID_WARM: &str = "wall_s, cells_per_s on grid-warm only";
const MEMBOUND: &str = "wall_s on membound-ondie, attack-oracle; none on idle-sprint, grid-warm";
const IDENTITY: &str = "none: must stay identical unless the modelled design changes";

/// The per-layer metrics that are not per mechanism.
const LAYERS: [Layer; 67] = [
    // (1) pipeline spans of the traced run
    layer(
        "workloads.traces.s",
        "s",
        false,
        "setup_s on the solo workloads; wall_s on grid-cold",
    ),
    layer("workloads.traces.entries", "count", false, IDENTITY),
    layer(
        "sim.build.s",
        "s",
        false,
        "wall_s on grid-cold (248 builds at 2500 instr); small share of the solo workloads",
    ),
    layer("sim.build.count", "count", false, IDENTITY),
    layer("sim.run.s", "s", false, SOLO),
    layer(
        "sim.run.ns_per_mem_cycle",
        "ns",
        false,
        "sim_mcycles_per_s on the solo workloads",
    ),
    layer(
        "sim.run.ns_per_instr",
        "ns",
        false,
        "sim_mips on the solo workloads",
    ),
    layer(
        "sim.run_batch.s",
        "s",
        false,
        "wall_s on batch-cohorts only",
    ),
    layer(
        "sim.run_batch.variants_per_s",
        "1/s",
        true,
        "cells_per_s on batch-cohorts only",
    ),
    layer("sim.report.to_json.s", "s", false, GRID_COLD),
    layer("sim.report.from_json.s", "s", false, GRID_WARM),
    layer(
        "sim.report.bytes",
        "B",
        false,
        "wall_s on grid-cold, grid-warm (store I/O volume)",
    ),
    layer(
        "bench.build_spec.s",
        "s",
        false,
        "setup_s on grid-cold, grid-warm",
    ),
    layer("grid.hash.s", "s", false, GRID_WARM),
    layer("grid.hash.cells", "count", false, IDENTITY),
    layer("grid.store.put.s", "s", false, GRID_COLD),
    layer("grid.store.get.s", "s", false, GRID_WARM),
    layer(
        "grid.store.bytes",
        "B",
        false,
        "wall_s on grid-cold, grid-warm (store I/O volume)",
    ),
    layer(
        "grid.simulate_cell.s",
        "s",
        false,
        "wall_s on grid-cold: the single-thread, store-less floor",
    ),
    layer(
        "grid.exec.wall_s",
        "s",
        false,
        "wall_s on grid-cold, grid-warm",
    ),
    layer("grid.exec.cell_s_sum", "s", false, GRID_COLD),
    layer("grid.exec.overhead_s", "s", false, GRID_COLD),
    layer(
        "grid.exec.parallel_eff",
        "ratio",
        true,
        "wall_s on grid-cold with cpu_s flat",
    ),
    layer("grid.exec.cached", "count", false, IDENTITY),
    layer("grid.exec.simulated", "count", false, IDENTITY),
    layer(
        "grid.exec.failed",
        "count",
        false,
        "failed operations on grid-cold, grid-warm",
    ),
    layer("grid.exec.waited", "count", false, GRID_COLD),
    layer("grid.cell_wall.p50_s", "s", false, GRID_COLD),
    layer(
        "grid.cell_wall.p90_s",
        "s",
        false,
        "wall_s on grid-cold (worker balance)",
    ),
    layer(
        "grid.cell_wall.max_s",
        "s",
        false,
        "wall_s on grid-cold (the slowest cell bounds the tail)",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        false,
        "none: the cost of the recorder itself",
    ),
    layer(
        "host.calib.s",
        "s",
        false,
        "none: the user-space half of the calibration probe host times are scaled by",
    ),
    // (2) layer kernels
    layer(
        "workloads.generate.ns_per_entry",
        "ns",
        false,
        "setup_s on the solo workloads; wall_s on grid-cold",
    ),
    layer(
        "cpu.llc.ns_per_access",
        "ns",
        false,
        "wall_s on idle-sprint and the lbm cells; none on attack-oracle",
    ),
    layer("cpu.llc.hit_ratio", "ratio", true, IDENTITY),
    layer(
        "cpu.core.ns_per_instr",
        "ns",
        false,
        "wall_s on idle-sprint and the lbm cells; none on attack-oracle",
    ),
    layer(
        "cpu.core.ticks",
        "count",
        false,
        "wall_s on idle-sprint (fewer ticks per instruction = longer sprints)",
    ),
    layer("ctrl.mapping.ns_per_decode", "ns", false, MEMBOUND),
    layer("ctrl.memsys.ns_per_request", "ns", false, MEMBOUND),
    layer("ctrl.tick.count", "count", false, MEMBOUND),
    layer("ctrl.tick.ns", "ns", false, MEMBOUND),
    layer("ctrl.next_wake.count", "count", false, MEMBOUND),
    layer("ctrl.next_wake.ns", "ns", false, MEMBOUND),
    layer("ctrl.wake.shortcut_ratio", "ratio", true, MEMBOUND),
    layer(
        "ctrl.queue.reject_frac",
        "ratio",
        false,
        "none: back-pressure the closed loop saw",
    ),
    layer("dram.issue.ns_per_cmd", "ns", false, MEMBOUND),
    layer("dram.issue.cmds", "count", false, IDENTITY),
    layer(
        "dram.oracle.ns_per_act.lanes1",
        "ns",
        false,
        "wall_s on attack-oracle, batch-cohorts only",
    ),
    layer(
        "dram.oracle.ns_per_act.lanes64",
        "ns",
        false,
        "wall_s on batch-cohorts only",
    ),
    layer(
        "energy.compute.ns",
        "ns",
        false,
        "none measurable: once per report",
    ),
    layer(
        "security.fig3.s",
        "s",
        false,
        "none: analytical model, outside every workload",
    ),
    // (3) modelled-design counts, exact, summed over the workload's reports
    layer("sim.mem_cycles", "count", false, IDENTITY),
    layer("sim.instructions", "count", false, IDENTITY),
    layer("sim.truncated", "count", false, IDENTITY),
    layer("dram.acts", "count", false, IDENTITY),
    layer("dram.reads", "count", false, IDENTITY),
    layer("dram.writes", "count", false, IDENTITY),
    layer("dram.refs", "count", false, IDENTITY),
    layer("dram.rfms", "count", false, IDENTITY),
    layer("dram.vrrs", "count", false, IDENTITY),
    layer("ctrl.back_offs", "count", false, IDENTITY),
    layer("ctrl.row_hit_ratio", "ratio", true, IDENTITY),
    layer("ctrl.avg_read_latency_cycles", "cycles", false, IDENTITY),
    layer("cpu.ipc_mean", "ipc", true, IDENTITY),
    layer("dram.oracle.max_acts", "count", false, IDENTITY),
    layer("dram.oracle.flips", "count", false, IDENTITY),
    layer("energy.total_mj", "mJ", false, IDENTITY),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = LAYERS.into_iter().collect();
    for name in HOOK_METRICS {
        let moves = if ["graphene", "hydra", "para", "abacus"]
            .iter()
            .any(|m| name.ends_with(m))
        {
            "wall_s on membound-trackers only"
        } else {
            "wall_s on membound-ondie, attack-oracle"
        };
        out.push(layer(name, "ns", false, moves));
    }
    for name in BUILD_METRICS {
        out.push(layer(
            name,
            "ms",
            false,
            "wall_s on grid-cold; setup share of the solo workloads",
        ));
    }
    out
}

fn better(higher: bool) -> JsonValue {
    string(if higher { "higher" } else { "lower" })
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> JsonValue {
    obj([
        ("command", arr([string("bash"), string("benchmark/run.sh")])),
        ("paths", arr([string("benchmark")])),
        ("run_seconds", int(RUN_SECONDS)),
        (
            "workloads",
            arr(WORKLOADS
                .iter()
                .map(|w| obj([("name", string(w.name)), ("why", string(w.why))]))),
        ),
        (
            "end_to_end",
            arr(END_TO_END.iter().map(|m| {
                obj([
                    ("name", string(m.name)),
                    ("unit", string(m.unit)),
                    ("better", better(m.higher_is_better)),
                    ("bound", num(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            arr(per_layer().iter().map(|m| {
                obj([
                    ("name", string(m.name)),
                    ("unit", string(m.unit)),
                    ("better", better(m.higher_is_better)),
                ])
            })),
        ),
    ])
}
