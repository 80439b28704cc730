//! §4.2: the stack-Kautz network on OTIS (Fig. 12).
//!
//! `SK(s, d, k)` has `n = d^(k-1)(d+1)` groups of `s` processors and
//! `n·(d+1)` OPS couplers of degree `s`.  The paper's construction:
//!
//! * **the groups**: `n` transmitter-side `OTIS(s, d+1)` and `n`
//!   receiver-side `OTIS(d+1, s)` blocks connect every group to its `d+1`
//!   multiplexers and `d+1` beam-splitters;
//! * **the optical interconnection network**: one `OTIS(d, n)` realizes the
//!   Kautz interconnections between the "Kautz arc" multiplexers and
//!   beam-splitters (Corollary 1, via `KG(d, k) = II(d, n)`);
//! * **the loops**: one fiber per group closes the loop coupler.
//!
//! The worked example of the paper, `SK(6, 3, 2)`, uses 12 `OTIS(6, 4)`,
//! 12 `OTIS(4, 6)`, 48 optical multiplexers, 48 beam-splitters and one
//! `OTIS(3, 12)`; the tests check this inventory exactly.
//!
//! Groups are numbered with the Imase–Itoh integer labels (as in Fig. 10 and
//! Fig. 12 of the paper); the Kautz word label of group `x` is obtained
//! through the `II(d, n) ≅ KG(d, k)` identification established in
//! `otis-topologies`.

use crate::design::MultiOpsDesign;
use crate::stack_imase_itoh_design::StackImaseItohDesign;
use crate::verify::{VerificationError, VerificationReport};
use otis_graphs::StackGraph;
use otis_optics::HardwareInventory;
use otis_topologies::kautz_node_count;

/// The OTIS-based optical design of `SK(s, d, k)`.
#[derive(Debug, Clone)]
pub struct StackKautzDesign {
    s: usize,
    d: usize,
    k: usize,
    inner: StackImaseItohDesign,
}

impl StackKautzDesign {
    /// Builds the design for `SK(s, d, k)`.
    pub fn new(s: usize, d: usize, k: usize) -> Self {
        let n = kautz_node_count(d, k);
        StackKautzDesign {
            s,
            d,
            k,
            inner: StackImaseItohDesign::new(s, d, n),
        }
    }

    /// Stacking factor `s`.
    pub fn stacking_factor(&self) -> usize {
        self.s
    }

    /// Kautz degree `d` (processors have network degree `d + 1`).
    pub fn kautz_degree(&self) -> usize {
        self.d
    }

    /// Diameter parameter `k`.
    pub fn diameter_parameter(&self) -> usize {
        self.k
    }

    /// Number of groups `d^(k-1)(d+1)`.
    pub fn group_count(&self) -> usize {
        self.inner.group_count()
    }

    /// Total number of processors `s·d^(k-1)(d+1)`.
    pub fn processor_count(&self) -> usize {
        self.inner.processor_count()
    }

    /// Number of OPS couplers `d^(k-1)(d+1)·(d+1)`.
    pub fn coupler_count(&self) -> usize {
        self.inner.design().coupler_count()
    }

    /// The general stack-Imase–Itoh machinery this design instantiates.
    pub fn stack_imase_itoh_design(&self) -> &StackImaseItohDesign {
        &self.inner
    }

    /// The underlying multi-OPS design (netlist + maps).
    pub fn design(&self) -> &MultiOpsDesign {
        self.inner.design()
    }

    /// The target stack-graph (the quotient carries Imase–Itoh integer group
    /// labels; it is isomorphic to `ς(s, KG⁺(d, k))`).
    pub fn target(&self) -> &StackGraph {
        self.inner.target()
    }

    /// Verifies, by signal tracing, that the design realizes the stack-Kautz
    /// network hyperarc for hyperarc.
    pub fn verify(&self) -> Result<VerificationReport, VerificationError> {
        self.inner.verify()
    }

    /// The parts list.
    pub fn inventory(&self) -> HardwareInventory {
        self.inner.inventory()
    }

    /// The inventory the paper predicts for `SK(s, d, k)`:
    /// `n` × `OTIS(s, d+1)`, `n` × `OTIS(d+1, s)`, `n(d+1)` multiplexers and
    /// beam-splitters, one `OTIS(d, n)`, `n` loop fibers, and `s·n·(d+1)`
    /// transmitters and receivers, with `n = d^(k-1)(d+1)`.  A closed form
    /// of the parameters alone: no design is built.
    pub fn expected_inventory(s: usize, d: usize, k: usize) -> HardwareInventory {
        let n = kautz_node_count(d, k);
        let mut inv = HardwareInventory::new();
        for _ in 0..n {
            inv.add_otis(s, d + 1);
            inv.add_otis(d + 1, s);
            for _ in 0..(d + 1) {
                inv.add_multiplexer(s);
                inv.add_splitter(s);
            }
        }
        inv.add_otis(d, n);
        inv.add_fibers(n);
        inv.add_transmitters(s * n * (d + 1));
        inv.add_receivers(s * n * (d + 1));
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_sk_6_3_2_is_realized() {
        let design = StackKautzDesign::new(6, 3, 2);
        assert_eq!(design.processor_count(), 72);
        assert_eq!(design.group_count(), 12);
        assert_eq!(design.coupler_count(), 48);
        let report = design.verify().expect("SK(6,3,2) OTIS design must verify");
        assert_eq!(report.processors, 72);
        assert_eq!(report.links, 48);
    }

    #[test]
    fn fig12_hardware_inventory_matches_the_paper() {
        // "12 OTIS(6,4), 12 OTIS(4,6), 48 optical multiplexers, 48
        //  beam-splitters and one OTIS(3,12)."
        let design = StackKautzDesign::new(6, 3, 2);
        let inv = design.inventory();
        assert_eq!(inv.otis_units_of(6, 4), 12);
        assert_eq!(inv.otis_units_of(4, 6), 12);
        assert_eq!(inv.otis_units_of(3, 12), 1);
        assert_eq!(inv.otis_units(), 25);
        assert_eq!(inv.multiplexer_count(), 48);
        assert_eq!(inv.splitter_count(), 48);
        assert_eq!(inv.fiber_count(), 12);
        assert_eq!(inv.transmitter_count(), 72 * 4);
        assert_eq!(inv.receiver_count(), 72 * 4);
        // And it matches the closed-form prediction.
        assert_eq!(inv, StackKautzDesign::expected_inventory(6, 3, 2));
    }

    #[test]
    fn verification_sweep() {
        for (s, d, k) in [
            (1, 2, 2),
            (2, 2, 2),
            (3, 2, 2),
            (2, 3, 2),
            (2, 2, 3),
            (4, 2, 2),
        ] {
            StackKautzDesign::new(s, d, k)
                .verify()
                .unwrap_or_else(|e| panic!("SK({s},{d},{k}) design failed: {e}"));
        }
    }

    #[test]
    fn expected_inventory_matches_actual_for_other_sizes() {
        for (s, d, k) in [(2, 2, 2), (3, 2, 3), (2, 3, 2)] {
            let design = StackKautzDesign::new(s, d, k);
            assert_eq!(
                design.inventory(),
                StackKautzDesign::expected_inventory(s, d, k),
                "SK({s},{d},{k})"
            );
        }
    }

    #[test]
    fn netlist_is_fully_wired() {
        let design = StackKautzDesign::new(2, 2, 2);
        assert!(design.design().netlist.is_fully_wired());
    }

    #[test]
    fn multi_hop_loss_is_bounded_by_one_hop_budget() {
        // A single hop: tx -> OTIS(s,d+1) -> mux -> OTIS(d,n) or fiber ->
        // splitter -> OTIS(d+1,s) -> rx.  The worst case path goes through
        // the central OTIS.
        let design = StackKautzDesign::new(6, 3, 2);
        let loss = design.design().worst_case_loss_db();
        let expected = 3.0 * otis_optics::power::OTIS_LOSS_DB
            + otis_optics::power::MULTIPLEXER_LOSS_DB
            + otis_optics::power::splitting_loss_db(6)
            + otis_optics::power::SPLITTER_EXCESS_LOSS_DB;
        assert!((loss - expected).abs() < 1e-9);
    }

    #[test]
    fn accessors() {
        let design = StackKautzDesign::new(6, 3, 2);
        assert_eq!(design.stacking_factor(), 6);
        assert_eq!(design.kautz_degree(), 3);
        assert_eq!(design.diameter_parameter(), 2);
        assert_eq!(design.target().node_count(), 72);
        assert_eq!(design.stack_imase_itoh_design().group_count(), 12);
    }
}
