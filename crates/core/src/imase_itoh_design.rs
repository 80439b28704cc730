//! Proposition 1: the Imase–Itoh graph `II(d, n)` on a single `OTIS(d, n)`.
//!
//! The design (Fig. 10 of the paper) uses:
//!
//! * one `OTIS(d, n)` — `d` transmitter groups of size `n`, `n` receiver
//!   groups of size `d`;
//! * `d` transmitters and `d` receivers per graph node.
//!
//! Node `u` is associated with the OTIS inputs of flat index
//! `d·u + (α − 1)` for `α = 1, …, d` (the paper's
//! `e_{du+α−1} = (⌊(du+α−1)/n⌋, du+α−1 − ⌊(du+α−1)/n⌋·n)`), and with the OTIS
//! outputs `(u, q)` for `q = 0, …, d−1`.  With that assignment, the
//! transmitter `α` of node `u` is imaged by the OTIS transpose onto a
//! receiver of node `v ≡ (−d·u − α) mod n` — exactly the Imase–Itoh
//! adjacency.  [`ImaseItohDesign::verify`] re-derives the adjacency from the
//! netlist by signal tracing and checks it against
//! [`otis_topologies::imase_itoh()`] arc for arc, in α order.
//!
//! Corollary 1: since `KG(d, k) = II(d, d^(k-1)(d+1))` (§2.6 of the paper),
//! the same design at `n = d^(k-1)(d+1)` realizes the Kautz graph on one
//! `OTIS(d, d^(k-1)(d+1))`.  It keeps the Imase–Itoh node numbering
//! (integers mod `n`); the correspondence with Kautz word labels is the
//! isomorphism `II(d, n) ≅ KG(d, k)`, which `otis_graphs::are_isomorphic`
//! decides by reducing both graphs through their line-digraph roots to
//! `K_{d+1}`.

use crate::design::OpticalDesign;
use crate::verify::{verify_point_to_point, VerificationError, VerificationReport};
use otis_optics::components::ComponentKind;
use otis_optics::netlist::{Netlist, PortRef};
use otis_optics::HardwareInventory;
use otis_topologies::imase_itoh;
use std::collections::BTreeMap;

/// The OTIS-based optical design of `II(d, n)`.
#[derive(Debug, Clone)]
pub struct ImaseItohDesign {
    d: usize,
    n: usize,
    design: OpticalDesign,
}

impl ImaseItohDesign {
    /// Builds the design for `II(d, n)`.
    pub fn new(d: usize, n: usize) -> Self {
        assert!(
            d >= 1 && n >= 1,
            "II parameters must satisfy d >= 1, n >= 1"
        );
        let mut netlist = Netlist::new();
        let otis = netlist.add(
            ComponentKind::Otis {
                groups: d,
                group_size: n,
            },
            format!("central OTIS({d},{n})"),
        );

        // d transmitters per node; transmitter a (0-based) of node u sits at
        // OTIS input flat index d*u + a.
        let mut transmitters: Vec<Vec<otis_optics::ComponentId>> = Vec::with_capacity(n);
        for u in 0..n {
            let mut row = Vec::with_capacity(d);
            for a in 0..d {
                let tx = netlist.add(
                    ComponentKind::Transmitter,
                    format!("node {u} transmitter alpha={}", a + 1),
                );
                let flat = d * u + a;
                netlist.connect(PortRef::new(tx, 0), PortRef::new(otis, flat));
                row.push(tx);
            }
            transmitters.push(row);
        }

        // d receivers per node; receiver q of node v sits at OTIS output
        // (v, q), i.e. flat index v*d + q.
        let mut receivers: Vec<Vec<otis_optics::ComponentId>> = Vec::with_capacity(n);
        let mut receiver_owner = BTreeMap::new();
        for v in 0..n {
            let mut row = Vec::with_capacity(d);
            for q in 0..d {
                let rx = netlist.add(ComponentKind::Receiver, format!("node {v} receiver {q}"));
                let flat = v * d + q;
                netlist.connect(PortRef::new(otis, flat), PortRef::new(rx, 0));
                receiver_owner.insert(rx, v);
                row.push(rx);
            }
            receivers.push(row);
        }

        ImaseItohDesign {
            d,
            n,
            design: OpticalDesign {
                netlist,
                transmitters,
                receivers,
                receiver_owner,
                couplers: Vec::new(),
            },
        }
    }

    /// The underlying point-to-point design (netlist + maps, no couplers).
    pub fn design(&self) -> &OpticalDesign {
        &self.design
    }

    /// The underlying point-to-point design, by value.
    pub fn into_design(self) -> OpticalDesign {
        self.design
    }

    /// The target digraph `II(d, n)`.
    pub fn target(&self) -> otis_graphs::Digraph {
        imase_itoh(self.d, self.n)
    }

    /// Verifies, by signal tracing, that the design realizes `II(d, n)`:
    /// every transmitter α of every node `u` reaches exactly one receiver and
    /// that receiver belongs to node `(−d·u − α) mod n`.
    pub fn verify(&self) -> Result<VerificationReport, VerificationError> {
        verify_point_to_point(&self.design, &self.target())
    }

    /// The parts list: one `OTIS(d, n)`, `d·n` transmitters, `d·n` receivers.
    pub fn inventory(&self) -> HardwareInventory {
        self.design.inventory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_ii_3_12_is_realized_exactly() {
        let design = ImaseItohDesign::new(3, 12);
        let report = design
            .verify()
            .expect("Proposition 1 must hold for II(3,12)");
        assert_eq!(report.processors, 12);
        assert_eq!(report.links, 36);
        // 1 OTIS + 36 tx + 36 rx.
        assert_eq!(report.components, 73);
    }

    #[test]
    fn proposition_1_holds_over_a_parameter_sweep() {
        for (d, n) in [
            (1, 4),
            (2, 5),
            (2, 6),
            (2, 12),
            (3, 7),
            (3, 12),
            (4, 9),
            (4, 30),
            (5, 11),
        ] {
            let design = ImaseItohDesign::new(d, n);
            design
                .verify()
                .unwrap_or_else(|e| panic!("II({d},{n}) OTIS design failed: {e}"));
        }
    }

    #[test]
    fn inventory_matches_proposition() {
        let design = ImaseItohDesign::new(3, 12);
        let inv = design.inventory();
        assert_eq!(inv.otis_units(), 1);
        assert_eq!(inv.otis_units_of(3, 12), 1);
        assert_eq!(inv.transmitter_count(), 36);
        assert_eq!(inv.receiver_count(), 36);
        assert_eq!(inv.coupler_count(), 0);
        assert_eq!(inv.lens_count(), 72);
    }

    #[test]
    fn netlist_is_fully_wired() {
        let design = ImaseItohDesign::new(2, 7);
        assert!(design.design().netlist.is_fully_wired());
    }

    #[test]
    fn loss_is_single_otis_traversal() {
        let design = ImaseItohDesign::new(3, 12);
        let loss = design.design().worst_case_loss_db();
        assert!((loss - otis_optics::power::OTIS_LOSS_DB).abs() < 1e-9);
    }

    #[test]
    fn accessors() {
        let design = ImaseItohDesign::new(4, 10);
        assert_eq!(design.design().processor_count(), 10);
        assert_eq!(design.design().coupler_count(), 0);
        assert_eq!(design.inventory().otis_units_of(4, 10), 1);
        assert_eq!(design.target().node_count(), 10);
        assert_eq!(design.target().arc_count(), 40);
    }
}
