//! # otis-optics
//!
//! Optical-hardware substrate for the OTIS lightwave-network reproduction.
//!
//! The paper designs its networks out of a small catalogue of free-space and
//! guided optical components:
//!
//! * the **OTIS(G, T)** architecture (Marsden et al.): two planes of lenses
//!   that connect `G·T` transmitters to `G·T` receivers along the transpose
//!   permutation `(i, j) ↦ (T−1−j, G−1−i)`;
//! * **optical passive star (OPS) couplers** of degree `s`: an optical
//!   multiplexer followed by a beam-splitter, broadcasting any one of `s`
//!   inputs to all `s` outputs (with a `1/s` power split), single wavelength,
//!   one sender per time slot;
//! * **optical multiplexers** and **beam-splitters** as stand-alone parts
//!   (the group-of-processors building block of §3.1 splits the OPS coupler
//!   into its two halves and puts an OTIS between the processors and them);
//! * **fiber links** (used for the loop couplers of the stack-Kautz design).
//!
//! This crate models those parts at the port level ([`components`]), the
//! OTIS transpose itself ([`otis`]), complete optical designs as netlists
//! with signal tracing ([`netlist`], [`trace`]), a power/loss budget
//! ([`power`]), a hardware-cost inventory ([`cost`]) and the
//! electrical-vs-optical interconnect comparison of Feldman et al.
//! ([`electrical`]).
//!
//! The behavioural contract is deliberately simple — the paper's results only
//! depend on *which transmitter reaches which receiver* and on *how many
//! discrete parts* a design needs — but it is strict: signal tracing is exact
//! and the `otis-core` crate uses it to verify that every design realizes its
//! target topology arc for arc.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod components;
pub mod cost;
pub mod electrical;
pub mod netlist;
pub mod otis;
pub mod power;
pub mod trace;

pub use components::{Component, ComponentId, ComponentKind};
pub use cost::HardwareInventory;
pub use netlist::{Netlist, PortRef};
pub use otis::Otis;
pub use power::PowerBudget;
pub use trace::{trace_from_transmitter, TraceResult};
