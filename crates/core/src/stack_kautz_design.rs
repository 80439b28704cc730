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
//! Since `KG(d, k) = II(d, n)`, this construction is
//! [`StackImaseItohDesign`](crate::StackImaseItohDesign) at the Kautz size
//! `n = d^(k-1)(d+1)`, which is how `SK(s, d, k)` is built; this module
//! keeps the paper's closed-form parts list, [`expected_inventory`].  Groups
//! are numbered with the Imase–Itoh integer labels (as in Fig. 10 and
//! Fig. 12 of the paper); the Kautz word label of group `x` is obtained
//! through the `II(d, n) ≅ KG(d, k)` identification established in
//! `otis-topologies`.

use otis_optics::HardwareInventory;
use otis_topologies::kautz_node_count;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackImaseItohDesign;

    /// The design `Network` builds for `SK(s, d, k)`.
    fn stack_kautz(s: usize, d: usize, k: usize) -> StackImaseItohDesign {
        StackImaseItohDesign::new(s, d, kautz_node_count(d, k))
    }

    #[test]
    fn fig12_sk_6_3_2_is_realized() {
        let design = stack_kautz(6, 3, 2);
        assert_eq!(design.design().processor_count(), 72);
        assert_eq!(design.target().group_count(), 12);
        assert_eq!(design.design().coupler_count(), 48);
        let report = design.verify().expect("SK(6,3,2) OTIS design must verify");
        assert_eq!(report.processors, 72);
        assert_eq!(report.links, 48);
    }

    #[test]
    fn fig12_hardware_inventory_matches_the_paper() {
        // "12 OTIS(6,4), 12 OTIS(4,6), 48 optical multiplexers, 48
        //  beam-splitters and one OTIS(3,12)."
        let design = stack_kautz(6, 3, 2);
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
        assert_eq!(inv, expected_inventory(6, 3, 2));
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
            stack_kautz(s, d, k)
                .verify()
                .unwrap_or_else(|e| panic!("SK({s},{d},{k}) design failed: {e}"));
        }
    }

    #[test]
    fn expected_inventory_matches_actual_for_other_sizes() {
        for (s, d, k) in [(2, 2, 2), (3, 2, 3), (2, 3, 2)] {
            let design = stack_kautz(s, d, k);
            assert_eq!(
                design.inventory(),
                expected_inventory(s, d, k),
                "SK({s},{d},{k})"
            );
        }
    }

    #[test]
    fn netlist_is_fully_wired() {
        let design = stack_kautz(2, 2, 2);
        assert!(design.design().netlist.is_fully_wired());
    }

    #[test]
    fn multi_hop_loss_is_bounded_by_one_hop_budget() {
        // A single hop: tx -> OTIS(s,d+1) -> mux -> OTIS(d,n) or fiber ->
        // splitter -> OTIS(d+1,s) -> rx.  The worst case path goes through
        // the central OTIS.
        let design = stack_kautz(6, 3, 2);
        let loss = design.design().worst_case_loss_db();
        let expected = 3.0 * otis_optics::power::OTIS_LOSS_DB
            + otis_optics::power::MULTIPLEXER_LOSS_DB
            + otis_optics::power::splitting_loss_db(6)
            + otis_optics::power::SPLITTER_EXCESS_LOSS_DB;
        assert!((loss - expected).abs() < 1e-9);
    }
}
