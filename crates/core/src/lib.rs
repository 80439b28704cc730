//! # otis-core
//!
//! The paper's contribution: **optical designs of multi-OPS lightwave
//! networks built from the OTIS architecture**, together with machinery that
//! *verifies*, by exact signal tracing, that every design realizes its target
//! topology.
//!
//! The designs implemented here follow §3 and §4 of the paper:
//!
//! * [`group`] — the group-of-processors building block (§3.1, Fig. 8/9):
//!   one `OTIS(t, g)` plus `g` optical multiplexers connects the `t`
//!   processors of a group to the inputs of its `g` OPS couplers, and one
//!   `OTIS(g, t)` plus `g` beam-splitters connects the couplers' outputs back
//!   to the group;
//! * [`imase_itoh_design`] — Proposition 1 (Fig. 10): the point-to-point
//!   interconnections of the Imase–Itoh graph `II(d, n)` are realized exactly
//!   by a single `OTIS(d, n)`; with Corollary 1 (`KG(d, k)` is
//!   `II(d, d^(k-1)(d+1))`) the same design realizes the Kautz graph;
//! * [`stack_imase_itoh_design`] — §4.2 and the "trivial extension"
//!   mentioned at the end of §2.7: the multi-hop network `SII(s, d, n)`
//!   built from `n` group blocks (`OTIS(s, d+1)` / `OTIS(d+1, s)` plus
//!   multiplexers and splitters), one central `OTIS(d, n)` and a fiber loop
//!   for each group without a loop in `II(d, n)`; at `n = d^(k-1)(d+1)` it
//!   is the stack-Kautz network `SK(s, d, k)`, and at `d = n = g` it is the
//!   single-hop `POPS(t, g)` of §4.1 (Fig. 11), `SII(t, g, g)`, because
//!   `K⁺_g = II(g, g)`;
//! * [`stack_kautz_design`] — §4.2 (Fig. 12): the paper's closed-form
//!   hardware inventory of `SK(s, d, k)`;
//! * [`design`] and [`verify`] — the one representation of a design,
//!   point-to-point or multi-OPS (netlist + processor↔transceiver maps +
//!   couplers), and the checks that its traced connectivity equals the
//!   target (stack-)graph arc for arc.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod design;
pub mod group;
pub mod imase_itoh_design;
pub mod stack_imase_itoh_design;
pub mod stack_kautz_design;
pub mod verify;

pub use design::{InducedGraphError, OpticalDesign};
pub use imase_itoh_design::ImaseItohDesign;
pub use stack_imase_itoh_design::StackImaseItohDesign;
pub use verify::{VerificationError, VerificationReport};
