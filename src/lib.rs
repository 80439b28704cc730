//! # otis-lightwave
//!
//! Umbrella crate for the reproduction of *"OTIS-Based Multi-Hop Multi-OPS
//! Lightwave Networks"* (Coudert, Ferreira, Muñoz, 1999).  It re-exports the
//! workspace crates under short module names so examples and downstream users
//! can depend on a single crate:
//!
//! * [`net`] — **the recommended entry point**: the spec-driven [`Network`]
//!   facade, one uniform API from a spec string (`"SK(6,3,2)"`,
//!   `"POPS(9,8)"`, `"II(4,12)"`, `"KG(3,4)"`, `"DB(2,8)"`, …) to topology,
//!   optical design, verification, routing and simulation;
//! * [`graphs`] — digraphs, hypergraphs, stack-graphs and their algorithms;
//! * [`topologies`] — Kautz, Imase–Itoh, de Bruijn, POPS, stack-Kautz, …;
//! * [`optics`] — OTIS, OPS couplers, multiplexers, beam-splitters, netlists,
//!   power and cost models;
//! * [`designs`] — the paper's OTIS-based optical designs and their
//!   verification (the `otis-core` crate);
//! * [`routing`] — label, arithmetic, fault-tolerant, stack and hot-potato
//!   routing;
//! * [`sim`] — the slotted multi-OPS network simulator.
//!
//! ## Quickstart
//!
//! Any network of the paper is one spec string away; the facade exposes
//! every layer of the reproduction through a single handle:
//!
//! ```
//! use otis_lightwave::net::{run_grid, DemandSpec, Network, NetworkSpec, ScenarioGrid, SimOptions};
//!
//! // The paper's worked example SK(6,3,2), verified optically end-to-end
//! // (the OTIS design is built and traced signal by signal).
//! let sk = Network::from_spec("SK(6,3,2)").unwrap();
//! let report = sk.verify().expect("the design realizes the stack-Kautz network");
//! assert_eq!(report.processors, 72);
//! assert_eq!(report.links, 48);
//!
//! // Shortest-path routing is inherited from the Kautz quotient ...
//! let route = sk.route(0, 71).unwrap();
//! assert!(route.hop_count() <= 2);
//!
//! // ... and the same handle drives the slotted simulator under a workload
//! // parsed from a spec string.
//! let uniform: DemandSpec = "uniform(0.2)".parse().unwrap();
//! let metrics = sk.simulate(&uniform, &SimOptions::new(300, 42)).unwrap();
//! assert!(metrics.delivered > 0);
//!
//! // Comparison scenarios are data: a grid of specs and loads.
//! let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "POPS(2,6)", "DB(2,4)"]
//!     .iter()
//!     .map(|s| s.parse().unwrap())
//!     .collect();
//! let grid = ScenarioGrid::new(specs).loads(&[0.1, 0.5]).seeds(&[7]).slots(200);
//! let rows = run_grid(&grid, 2).unwrap();
//! assert_eq!(rows.len(), 6);
//!
//! // Workloads bind to a network with typed topology checks (DB(2,4) has
//! // 2^4 processors, so bit-reversal traffic is well-defined on it).
//! let bitrev: DemandSpec = "bitrev(0.5)".parse().unwrap();
//! let db = Network::from_spec("DB(2,4)").unwrap();
//! let metrics = db.simulate(&bitrev, &SimOptions::new(200, 7)).unwrap();
//! assert!(metrics.delivered > 0);
//! ```
//!
//! The per-layer crates remain available for work below the facade (custom
//! netlists, new topology families, new routers).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use otis_core as designs;
pub use otis_graphs as graphs;
pub use otis_net as net;
pub use otis_optics as optics;
pub use otis_routing as routing;
pub use otis_sim as sim;
pub use otis_topologies as topologies;

pub use otis_net::{Network, NetworkSpec};
