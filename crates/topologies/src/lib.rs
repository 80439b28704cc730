//! # otis-topologies
//!
//! Graph-theoretic topology families used by the OTIS lightwave-network
//! reproduction:
//!
//! * point-to-point digraph families: complete digraphs `K_n` / `K⁺_n`,
//!   Kautz graphs `KG(d, k)` (both by word labels and by line-digraph
//!   iteration), Imase–Itoh graphs `II(d, n)` and de Bruijn graphs
//!   `B(d, k)`;
//! * multi-OPS (hypergraph) families built as stack-graphs: the single-hop
//!   `POPS(t, g)` network and the multi-hop `SK(s, d, k)` stack-Kautz and
//!   `SII(s, d, n)` stack-Imase–Itoh networks;
//! * the directed Moore bound, used to quantify how close Kautz/Imase–Itoh
//!   graphs are to the densest possible digraphs of given degree and
//!   diameter.
//!
//! All families return plain [`otis_graphs::Digraph`] / [`otis_graphs::StackGraph`]
//! values so the algorithms of `otis-graphs` apply uniformly.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod complete;
pub mod de_bruijn;
pub mod imase_itoh;
pub mod kautz;
pub mod labels;
pub mod moore;
pub mod pops;
pub mod stack_imase_itoh;
pub mod stack_kautz;
pub mod summary;

pub use complete::{complete_digraph, complete_digraph_with_loops};
pub use de_bruijn::de_bruijn;
pub use imase_itoh::{imase_itoh, imase_itoh_neighbors, ImaseItoh};
pub use kautz::{kautz, kautz_by_line_digraph, kautz_node_count, kautz_with_loops, Kautz};
pub use labels::KautzWord;
pub use moore::moore_bound;
pub use pops::Pops;
pub use stack_imase_itoh::StackImaseItoh;
pub use stack_kautz::StackKautz;
pub use summary::TopologySummary;
