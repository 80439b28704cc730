//! # otis-routing
//!
//! Routing algorithms for the topologies of the OTIS lightwave-network
//! reproduction.
//!
//! The paper's §2.5 notes that "routing on the Kautz graph is very simple,
//! since a shortest path routing algorithm (every path is of length at most
//! k) is induced by the label of the nodes.  It can be extended to generate a
//! path of length at most k + 2 which survives d − 1 link or node faults",
//! and that the stack-Kautz network "inherits most of the properties of the
//! Kautz graph, like shortest path routing, fault tolerance and others".
//! This crate implements those routers and the checks behind those claims:
//!
//! * [`kautz`] — word-label routing on `KG(d, k)` (longest suffix/prefix
//!   overlap, at most `k` hops);
//! * [`imase_itoh`] — arithmetic routing on `II(d, n)` (base `−d` digit
//!   decomposition, provably shortest);
//! * [`fault_tolerant`] — fault-avoiding routing and the empirical validation
//!   of the `≤ k + 2` bound under up to `d − 1` faults;
//! * [`stack`] — routing in stack-graphs, which covers every multi-OPS
//!   family (POPS, stack-Kautz, stack-Imase–Itoh): a route's couplers
//!   depend only on the source and destination groups
//!   ([`StackRouter::group_couplers`]), and each hop is received in the
//!   coupler's target group at the destination's in-group index; a POPS
//!   route is the one coupler of its group pair;
//! * [`hot_potato`] — the deflection-routing baseline used for the
//!   single-OPS comparison (Zhang & Acampora style hot-potato);
//! * [`table`] — generic next-hop routing tables computed from any digraph,
//!   used as the reference the specialised routers are checked against, and
//!   the word-parallel all-pairs distance tables the hot-potato router
//!   ranks ports with.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod fault_tolerant;
pub mod hot_potato;
pub mod imase_itoh;
pub mod kautz;
pub mod stack;
pub mod table;

pub use fault_tolerant::{
    fault_tolerant_route, node_fault_patterns_up_to, surviving_subgraph, FaultSet,
};
pub use hot_potato::HotPotatoRouter;
pub use imase_itoh::imase_itoh_route;
pub use kautz::{kautz_route, kautz_route_words};
pub use stack::{StackHop, StackRoute, StackRouter};
pub use table::{DistanceTable, RoutingTable};
