//! `chronus-benchmark`: a host-time benchmark of the Chronus simulator.
//!
//! Seven workloads are timed end to end in child processes, tracing off;
//! a separate traced run per workload attributes the time to layers, by
//! spans around every call into a crate's public functions and by layer
//! kernels that replay a trace through one layer at a time. No simulator
//! source is touched: everything is measured from outside. See
//! `README.md` for the workloads, the metric glossary and how the
//! metrics are expected to interact.

pub mod child;
pub mod driver;
pub mod host;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod scale;
pub mod span;
pub mod stats;
pub mod workloads;
