//! # otis-graphs
//!
//! Directed-graph, directed-hypergraph and *stack-graph* substrate used by the
//! OTIS lightwave-network reproduction.
//!
//! The paper "OTIS-Based Multi-Hop Multi-OPS Lightwave Networks" (Coudert,
//! Ferreira, Muñoz, 1999) analyses optical interconnection networks with
//! graph-theoretical tools:
//!
//! * point-to-point networks are modelled by **digraphs** (Kautz, Imase–Itoh,
//!   de Bruijn, complete digraphs, …);
//! * one-to-many (OPS-coupler based) networks are modelled by **directed
//!   hypergraphs**, and more specifically by **stack-graphs** `ς(s, G)`
//!   obtained by piling up `s` copies of a digraph `G` and viewing each stack
//!   of arcs as a single hyperarc (Definition 1 of the paper).
//!
//! This crate provides those three structures along with the algorithms the
//! reproduction needs: BFS / shortest paths, diameter and average distance,
//! strong connectivity, Eulerian and Hamiltonian checks, the line-digraph
//! operator `L(G)` (used to define Kautz graphs iteratively), Yen's
//! k-shortest loopless paths (alternate routes for the wavelength layer),
//! isomorphism decided by line-digraph reduction (Kautz, Imase–Itoh and de
//! Bruijn pairs reduce to tiny bases before any search), and per-channel
//! wavelength-occupancy bitmasks ([`spectrum::SpectrumMap`]) for
//! multi-wavelength capacity studies.
//!
//! The crate has no dependencies (the vendored `rand` only seeds its tests)
//! so that the rest of the workspace can build on a stable, auditable
//! substrate.
//!
//! ## Quick example
//!
//! ```
//! use otis_graphs::{Digraph, DigraphBuilder};
//! use otis_graphs::algorithms::{diameter, is_strongly_connected};
//!
//! // A directed 4-cycle.
//! let mut b = DigraphBuilder::new(4);
//! for u in 0..4 {
//!     b.add_arc(u, (u + 1) % 4);
//! }
//! let g: Digraph = b.build();
//! assert!(is_strongly_connected(&g));
//! assert_eq!(diameter(&g), Some(3));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod algorithms;
pub mod digraph;
pub mod error;
pub mod hyper;
pub mod isomorphism;
pub mod line_digraph;
pub mod spectrum;
pub mod stack;

pub use digraph::{Arc, Digraph, DigraphBuilder, NodeId};
pub use error::GraphError;
pub use hyper::{HyperArc, Hypergraph};
pub use isomorphism::{are_isomorphic, relabel};
pub use line_digraph::{line_digraph, line_digraph_iterated};
pub use spectrum::SpectrumMap;
pub use stack::{StackGraph, StackNode};
