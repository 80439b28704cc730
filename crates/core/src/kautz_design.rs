//! Corollary 1: the Kautz graph `KG(d, k)` on a single OTIS.
//!
//! Since `KG(d, k) = II(d, d^(k-1)(d+1))` (§2.6 of the paper), the OTIS
//! realization of Imase–Itoh graphs immediately yields an OTIS realization of
//! Kautz graphs: one `OTIS(d, d^(k-1)(d+1))`.
//!
//! The design inherits the Imase–Itoh node numbering (integers mod `n`); the
//! correspondence with Kautz word labels is the graph isomorphism
//! `II(d, n) ≅ KG(d, k)`, which
//! [`KautzDesign::verify_kautz_isomorphism`] decides by reducing both graphs
//! through their line-digraph roots to `K_{d+1}`.  Routing on the design
//! therefore uses the Imase–Itoh arithmetic router from `otis-routing`, which
//! the paper's shortest-path-by-labels routing maps onto through the same
//! isomorphism.

use crate::imase_itoh_design::ImaseItohDesign;
use crate::verify::{VerificationError, VerificationReport};
use otis_graphs::are_isomorphic;
use otis_optics::HardwareInventory;
use otis_topologies::{kautz, kautz_node_count};

/// The OTIS-based optical design of `KG(d, k)`.
#[derive(Debug, Clone)]
pub struct KautzDesign {
    d: usize,
    k: usize,
    inner: ImaseItohDesign,
}

impl KautzDesign {
    /// Builds the design for `KG(d, k)` as `II(d, d^(k-1)(d+1))` on
    /// `OTIS(d, d^(k-1)(d+1))`.
    pub fn new(d: usize, k: usize) -> Self {
        let n = kautz_node_count(d, k);
        KautzDesign {
            d,
            k,
            inner: ImaseItohDesign::new(d, n),
        }
    }

    /// Kautz degree `d`.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// Kautz diameter `k`.
    pub fn diameter(&self) -> usize {
        self.k
    }

    /// Number of nodes `d^(k-1)(d+1)`.
    pub fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    /// The underlying Imase–Itoh design (Proposition 1 machinery).
    pub fn imase_itoh_design(&self) -> &ImaseItohDesign {
        &self.inner
    }

    /// Verifies that the optical design realizes `II(d, d^(k-1)(d+1))`
    /// exactly (Proposition 1 applied at the Kautz size).
    pub fn verify(&self) -> Result<VerificationReport, VerificationError> {
        self.inner.verify()
    }

    /// Checks that the realized graph is isomorphic to the word-labelled
    /// Kautz graph `KG(d, k)`.  Both are iterated line digraphs of
    /// `K_{d+1}`, so the check reduces them level by level and runs in
    /// O(m) per level, milliseconds even for `KG(2, 10)`.
    pub fn verify_kautz_isomorphism(&self) -> bool {
        are_isomorphic(&self.inner.target(), &kautz(self.d, self.k))
    }

    /// The parts list: one `OTIS(d, d^(k-1)(d+1))` plus `d` transmitters and
    /// `d` receivers per node.
    pub fn inventory(&self) -> HardwareInventory {
        self.inner.inventory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corollary_1_kg_3_2() {
        // KG(3,2) = II(3,12) realized by OTIS(3,12).
        let design = KautzDesign::new(3, 2);
        assert_eq!(design.node_count(), 12);
        let report = design.verify().expect("Corollary 1 must hold");
        assert_eq!(report.processors, 12);
        assert!(design.verify_kautz_isomorphism());
    }

    #[test]
    fn corollary_1_sweep() {
        for (d, k) in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)] {
            let design = KautzDesign::new(d, k);
            design
                .verify()
                .unwrap_or_else(|e| panic!("KG({d},{k}) OTIS design failed: {e}"));
        }
    }

    #[test]
    fn small_instances_are_kautz_isomorphic() {
        for (d, k) in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)] {
            assert!(
                KautzDesign::new(d, k).verify_kautz_isomorphism(),
                "II-realization of KG({d},{k}) is not isomorphic to the word construction"
            );
        }
    }

    #[test]
    fn inventory_uses_a_single_otis() {
        let design = KautzDesign::new(2, 3);
        let inv = design.inventory();
        assert_eq!(inv.otis_units(), 1);
        assert_eq!(inv.otis_units_of(2, 12), 1);
        assert_eq!(inv.transmitter_count(), 24);
        assert_eq!(inv.receiver_count(), 24);
    }

    #[test]
    fn accessors() {
        let design = KautzDesign::new(3, 2);
        assert_eq!(design.degree(), 3);
        assert_eq!(design.diameter(), 2);
        assert_eq!(design.imase_itoh_design().node_count(), 12);
    }
}
