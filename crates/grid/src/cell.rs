//! Declarative descriptions of one grid cell: the workload and the fully
//! resolved simulator configuration.
//!
//! A cell is everything needed to reproduce one simulation run with no
//! further inputs: trace generation is re-derived from the names, slots and
//! seeds recorded here, so a [`CellSpec`] can be hashed, cached, shipped to
//! another machine, and re-simulated there with bit-identical results.

use chronus_cpu::Trace;
use chronus_ctrl::AddressMapping;
use chronus_sim::SimConfig;
use chronus_workloads::{perf_attack_trace, synthetic_app};
use serde::{Deserialize, Serialize};

/// Simulator-version stamp baked into every cache key.
///
/// Bump this whenever a change to the simulator (timing, scheduling,
/// mechanism behaviour, energy accounting, trace generation, …) can alter
/// any `SimReport` field: stale cache entries then miss instead of serving
/// results from an older simulator.
pub const SIM_VERSION: u32 = 3;

/// One synthetic per-core trace: the app profile plus the exact generation
/// parameters the harnesses use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppTrace {
    /// Profile name (must resolve via `chronus_workloads::profile_by_name`).
    pub app: String,
    /// Placement slot (base-address stripe) for `synthetic_app`.
    pub slot: u64,
    /// Trace-generation seed.
    pub seed: u64,
}

impl AppTrace {
    /// A trace spec.
    pub fn new(app: impl Into<String>, slot: u64, seed: u64) -> Self {
        Self {
            app: app.into(),
            slot,
            seed,
        }
    }

    fn generate(&self, instructions: u64) -> Trace {
        synthetic_app(&self.app, self.slot)
            .unwrap_or_else(|| panic!("unknown app profile '{}'", self.app))
            .generate(instructions, self.seed)
    }
}

/// The §11 performance-attack trace parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackSpec {
    /// Address mapping the attacker crafts addresses against.
    pub mapping: AddressMapping,
    /// Banks hammered round-robin.
    pub banks: usize,
    /// Aggressor rows per bank.
    pub rows: usize,
}

/// How a cell's per-core traces are produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// One synthetic trace per entry (multi-programmed mix, homogeneous
    /// copies, or a single alone run).
    Apps {
        /// Per-core trace specs, one per core.
        apps: Vec<AppTrace>,
        /// Instructions generated per trace (harnesses pad past the
        /// retirement target).
        trace_instructions: u64,
    },
    /// Benign traces plus one `perf_attack_trace` appended as the last
    /// core (§11 / ablation harnesses).
    AppsWithAttacker {
        /// Benign per-core trace specs.
        apps: Vec<AppTrace>,
        /// Instructions generated per benign trace; also the attacker's
        /// access count.
        trace_instructions: u64,
        /// Attacker parameters.
        attack: AttackSpec,
    },
}

impl WorkloadSpec {
    /// Number of cores this workload drives.
    pub fn num_cores(&self) -> usize {
        match self {
            WorkloadSpec::Apps { apps, .. } => apps.len(),
            WorkloadSpec::AppsWithAttacker { apps, .. } => apps.len() + 1,
        }
    }

    /// Regenerates the per-core traces (deterministic in the spec).
    pub fn traces(&self, geo: &chronus_dram::Geometry) -> Vec<Trace> {
        match self {
            WorkloadSpec::Apps {
                apps,
                trace_instructions,
            } => apps
                .iter()
                .map(|a| a.generate(*trace_instructions))
                .collect(),
            WorkloadSpec::AppsWithAttacker {
                apps,
                trace_instructions,
                attack,
            } => {
                let mut traces: Vec<Trace> = apps
                    .iter()
                    .map(|a| a.generate(*trace_instructions))
                    .collect();
                traces.push(perf_attack_trace(
                    attack.mapping,
                    geo,
                    attack.banks,
                    attack.rows,
                    *trace_instructions as usize,
                ));
                traces
            }
        }
    }

    /// Short human label, e.g. `429.mcf+470.lbm` or `470.lbm+…+ATTACK`.
    pub fn summary(&self) -> String {
        let join = |apps: &[AppTrace]| {
            apps.iter()
                .map(|a| a.app.as_str())
                .collect::<Vec<_>>()
                .join("+")
        };
        match self {
            WorkloadSpec::Apps { apps, .. } => join(apps),
            WorkloadSpec::AppsWithAttacker { apps, .. } => format!("{}+ATTACK", join(apps)),
        }
    }
}

/// One experiment-grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Display label (tables, progress); NOT part of the cache key, so
    /// relabelling cells never invalidates cached results.
    pub label: String,
    /// Trace production.
    pub workload: WorkloadSpec,
    /// Fully resolved simulator configuration.
    pub config: SimConfig,
}

impl CellSpec {
    /// A cell; `config.num_cores` is forced to match the workload.
    pub fn new(label: impl Into<String>, workload: WorkloadSpec, mut config: SimConfig) -> Self {
        config.num_cores = workload.num_cores();
        Self {
            label: label.into(),
            workload,
            config,
        }
    }
}

/// The identity actually hashed for the result store: everything that can
/// change the simulation output, and nothing that can't.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellKey {
    /// [`SIM_VERSION`] at hash time.
    pub sim_version: u32,
    /// The workload.
    pub workload: WorkloadSpec,
    /// The configuration.
    pub config: SimConfig,
}

impl CellKey {
    /// The key of a cell.
    pub fn of(cell: &CellSpec) -> Self {
        Self {
            sim_version: SIM_VERSION,
            workload: cell.workload.clone(),
            config: cell.config.clone(),
        }
    }
}

/// The [`CellKey`] of a cell, serialized without building one: hashing a
/// grid renders every cell's key, and cloning a workload and a full
/// `SimConfig` just to render them costs more than the rendering. The
/// member names and order are `CellKey`'s — `tests/cache_key.rs` holds the
/// two renderings equal, which is what keeps existing stores addressable.
pub(crate) struct CellKeyRef<'a>(pub &'a CellSpec);

impl Serialize for CellKeyRef<'_> {
    fn json_write(&self, w: &mut serde::JsonWriter) {
        w.obj_begin();
        w.obj_key("sim_version");
        SIM_VERSION.json_write(w);
        w.obj_key("workload");
        self.0.workload.json_write(w);
        w.obj_key("config");
        self.0.config.json_write(w);
        w.obj_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_regenerate_deterministically() {
        let w = WorkloadSpec::Apps {
            apps: vec![
                AppTrace::new("429.mcf", 0, 7),
                AppTrace::new("470.lbm", 1, 9),
            ],
            trace_instructions: 2_000,
        };
        let geo = chronus_dram::Geometry::ddr5();
        let a = w.traces(&geo);
        let b = w.traces(&geo);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].entries.len(), b[0].entries.len());
        assert_eq!(a[1].entries, b[1].entries);
    }

    #[test]
    fn attacker_appends_one_core() {
        let w = WorkloadSpec::AppsWithAttacker {
            apps: vec![AppTrace::new("470.lbm", 0, 1)],
            trace_instructions: 500,
            attack: AttackSpec {
                mapping: AddressMapping::Mop,
                banks: 2,
                rows: 4,
            },
        };
        assert_eq!(w.num_cores(), 2);
        let traces = w.traces(&chronus_dram::Geometry::ddr5());
        assert_eq!(traces.len(), 2);
        assert!(w.summary().ends_with("+ATTACK"));
    }

    #[test]
    fn cell_forces_core_count() {
        let w = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("429.mcf", 0, 1)],
            trace_instructions: 100,
        };
        let cell = CellSpec::new("x", w, chronus_sim::SimConfig::four_core());
        assert_eq!(cell.config.num_cores, 1);
    }
}
