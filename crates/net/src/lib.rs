//! # otis-net
//!
//! The unified, spec-driven facade of the OTIS lightwave-network
//! reproduction.  The paper's argument is inherently *comparative* — POPS
//! vs. stack-Kautz vs. single-OPS de Bruijn under the same traffic — so any
//! network must be addressable as a uniform parameterized object.  This
//! crate provides exactly that:
//!
//! * [`NetworkSpec`] — the spec language: `"SK(6,3,2)"`, `"POPS(9,8)"`,
//!   `"II(4,12)"`, `"KG(3,4)"`, `"DB(2,8)"`, `"SII(2,3,12)"`, `"K(5)"`;
//! * [`Network`] — the facade, one concrete struct for every family:
//!   [`Network::topology`], [`Network::design`], [`Network::verify`],
//!   [`Network::route`] and [`Network::simulate`] give every family the same
//!   five-layer surface, each per-family decision being one `match` on the
//!   spec;
//! * [`DemandSpec`] (re-exported from `otis-sim`, whose
//!   [`otis_sim::workload`] module holds its grammar) — the one workload
//!   value, spelled like the network spec: stationary patterns
//!   `"uniform(0.3)"`, `"perm(0.5,7)"`, `"hotspot(0.4,0,0.2)"`,
//!   `"transpose(0.5)"`, `"bitrev(0.5)"` and the demand processes
//!   `"poisson(0.3)"`, `"poisson(0.3,0)"`, `"onoff(0.6,16,48)"`,
//!   `"mix(0.1,0.9,0.05)"`, `"trace(file.trc)"`, with typed validation at
//!   parse time (NaN/negative rates refused) and topology-aware checks at
//!   bind time (trace node ids validated against the processor count, with
//!   the trace's own line numbers);
//! * [`scenarios`] — the load/latency frontier of a comparison: a
//!   comparison (experiment T5 of the reproduction harness) is a grid of
//!   specs and loads whose [`ScenarioRow`]s, one spec at a time, feed
//!   [`saturation_point`];
//! * [`engine`] — the parallel scenario engine: declarative
//!   `(spec × workload × seed × fault pattern)` grids executed across scoped
//!   worker threads with deterministic, thread-count-independent results.
//!   Every cell runs with one [`SimOptions`] (re-exported from `otis-sim`,
//!   whose kernels take it directly) and yields one [`ScenarioRow`].
//!   Fault injection is plumbed through [`SimOptions::faults`] using
//!   [`FaultSet`] from the routing layer;
//! * [`prepared`] — the prepare/execute split behind simulation:
//!   [`Network::prepare_with_alternates`] builds an immutable
//!   [`PreparedSim`] kernel (the fault-filtered graph and all routing
//!   state) once per `(network, fault-pattern)` pair, cheap runs through
//!   one dispatch ([`PreparedSim::run_demand_with_timeline_scratch`]) pay
//!   only for the slot loop, and the engine caches kernels on exactly that
//!   key so a grid builds each one exactly once and drops it after its last
//!   cell;
//! * [`sink`] — the streaming result surface: [`run_grid_streaming`] hands
//!   completed cells to a [`RowSink`] in deterministic grid order through a
//!   bounded reorder buffer (memory O(threads + window), not O(cells)), with
//!   built-in [`CollectSink`], [`TableSink`], [`CsvSink`] and
//!   [`JsonLinesSink`] sinks and format-aware sentinels (an undefined
//!   average is `-` in the table, empty in CSV, `null` in JSONL);
//! * [`config`] — the study grammar: one line-oriented `.scn` text
//!   declares specs, workloads, seeds, slots, faults, wavelengths,
//!   alternate routes, threads, output format and output path for a whole
//!   study ([`parse_scenario_config`]); its keys are the one table
//!   [`STUDY_KEYS`], which the `scenarios` flags share.
//!
//! ## The fault-timeline layer
//!
//! Faults can also be *dynamic*: a [`FaultSchedule`] (re-exported from
//! `otis-sim`, round-trippable like the other spec languages —
//! `"fail(node 3)@32; recover@96"`) swaps a run's active kernel at scheduled
//! slots, preparing every epoch kernel afresh for the static faults plus the
//! scheduled ones in force and re-resolving in-flight messages against the
//! new routing tables.  The grid sweeps schedules as a first-class axis
//! ([`ScenarioGrid::fault_schedules`], the `.scn` `fault_schedule` key), the
//! prepared surface exposes the same machinery as
//! [`PreparedSim::timeline_of`] / [`PreparedTimeline`], and sinks append the
//! restoration columns (`fault_events`, `in_flight_at_failure`,
//! `dropped_by_failure`, `restore_slots`, `post_failure_latency_peak`)
//! exactly when a grid schedules faults — schedule-free grids stream
//! byte-identical legacy output.
//!
//! ## The wavelength layer
//!
//! Both simulators optionally multiplex `W` wavelengths per optical channel
//! ([`SimOptions::wavelengths`], re-exported [`WavelengthConfig`] /
//! [`WavelengthAssignment`] from `otis-sim`); multi-OPS kernels can
//! additionally try Yen alternate routes before counting a blocked packet
//! ([`SimOptions::alt_paths`], [`Network::prepare_with_alternates`]).  The
//! scenario grid sweeps wavelength counts as a first-class axis
//! ([`ScenarioGrid::wavelengths`]), and sinks extend their schema with the
//! blocking-ratio, utilization, alternate-route-rate and
//! cost-per-delivered-bit columns exactly when a grid exercises the layer —
//! capacity-1 grids stream byte-identical legacy output.
//!
//! ## Quick example
//!
//! ```
//! use otis_net::{DemandSpec, Network, SimOptions};
//!
//! // The paper's worked example, end to end, from one string.
//! let sk = Network::from_spec("SK(6,3,2)").unwrap();
//! let report = sk.verify().unwrap();
//! assert_eq!(report.processors, 72);
//! assert_eq!(report.links, 48);
//!
//! // Routing and simulation through the same handle.
//! assert!(sk.route(0, 71).unwrap().hop_count() <= 2);
//! assert_eq!(sk.hop_count(0, 0), Some(0));
//! let uniform: DemandSpec = "uniform(0.2)".parse().unwrap();
//! let metrics = Network::from_spec("POPS(9,8)")
//!     .unwrap()
//!     .simulate(&uniform, &SimOptions::new(200, 42))
//!     .unwrap();
//! assert!(metrics.delivered > 0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod config;
pub mod engine;
pub mod error;
pub mod network;
pub mod prepared;
pub mod route;
pub mod scenarios;
pub mod sink;
pub mod spec;
pub mod topology;

pub use config::{
    line_key, parse_scenario_config, study_key, ConfigError, ScenarioConfig, StudyKey, STUDY_KEYS,
};
pub use engine::{
    default_thread_count, reorder_window, run_grid, run_grid_streaming, worker_count, GridWarning,
    ScenarioGrid, ScenarioRow, StreamSummary, MAX_THREADS,
};
pub use error::{NetworkError, SpecError};
pub use network::Network;
pub use otis_routing::FaultSet;
pub use otis_sim::{
    validate_trace, AltPathsError, DemandSource, DemandSpec, FaultAction, FaultEvent,
    FaultSchedule, FaultScheduleError, FaultTarget, SimOptions, TraceError, TraceReplay,
    TraceStats, TrafficError, WavelengthAssignment, WavelengthConfig, WavelengthCountError,
    MAX_ALT_PATHS, MAX_WAVELENGTHS,
};
pub use prepared::{PreparedSim, PreparedTimeline};
pub use route::Route;
pub use scenarios::saturation_point;
pub use sink::{
    CollectSink, CsvSink, FieldValue, JsonLinesSink, OutputFormat, RowSink, TableSink,
    UnknownFormat,
};
pub use spec::NetworkSpec;
pub use topology::NetworkTopology;

/// [`DemandSpec`] under its former name.  It exists only for the benchmark
/// harness under `perfbench/`, which still names it; code in this
/// workspace names [`DemandSpec`].
pub type TrafficSpec = DemandSpec;
