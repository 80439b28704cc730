//! The repository's benchmark: four fixed workloads, run one per process,
//! each timed end to end with tracing off and attributed to layers by a
//! separate traced run.  `perfbench/README.md` documents the workloads, the
//! metrics and the layer each metric belongs to.

pub mod check;
pub mod cpu;
pub mod metrics;
pub mod paper;
pub mod spans;
pub mod traced;
pub mod workload;
