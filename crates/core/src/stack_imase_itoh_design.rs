//! The stack-Imase–Itoh network on OTIS (the general multi-hop design).
//!
//! This module contains the full construction machinery of §4.2, written for
//! the general quotient `II⁺(d, n)` (the paper notes the stack-Kautz design
//! "can be trivially extended to the stack-Imase–Itoh network"; conversely,
//! since `KG(d, k) = II(d, d^(k-1)(d+1))`, the stack-Kautz design is this
//! construction instantiated at a Kautz size, and
//! [`crate::stack_kautz_design`] holds its closed-form inventory).  The
//! ingredients, per the paper:
//!
//! * **the groups**: for every group `u` (a node of the quotient), one
//!   transmitter-side `OTIS(s, δ_u)` + `δ_u` multiplexers and one
//!   receiver-side `OTIS(δ_u, s)` + `δ_u` beam-splitters, where
//!   `δ_u = d + 1` in the usual case and `d` when `II(d, n)` already has a
//!   loop at `u` (so that the quotient degree of `II⁺` is respected);
//! * **the optical interconnection network**: one central `OTIS(d, n)`
//!   realizing `II(d, n)` (Proposition 1) between the `d` "graph arc"
//!   multiplexers of every group and the `d` "graph arc" beam-splitters of
//!   the destination groups;
//! * **the loops**: the loop coupler of each group is closed with a fiber
//!   from its loop multiplexer to its loop beam-splitter (the paper: "the
//!   loops are not taken into account in the optical interconnection network
//!   and we consider that they are connected using an appropriate technique
//!   (e.g., optical fiber)").
//!
//! **POPS (§4.1, Fig. 11) is this construction at `d = n = g`.**  By
//! Proposition 1, `OTIS(g, g)` realizes `II(g, g)`, and `II(g, g)` is `K⁺_g`:
//! every node has an arc to every node, its own loop included.  So
//! `SII(t, g, g)` has `g` groups of `t` processors, each with `g`
//! multiplexers and `g` beam-splitters on an `OTIS(t, g)` / `OTIS(g, t)`
//! pair, one central `OTIS(g, g)` and no loop fibers: exactly the paper's
//! `POPS(t, g)` network, whose `g²` couplers it realizes once each.

use crate::design::OpticalDesign;
use crate::group::{add_receiver_side_group, add_transmitter_side_group};
use crate::verify::{verify_multi_ops, VerificationError, VerificationReport};
use otis_graphs::StackGraph;
use otis_optics::components::ComponentKind;
use otis_optics::netlist::{Netlist, PortRef};
use otis_optics::{HardwareInventory, Otis};
use otis_topologies::imase_itoh;
use std::collections::BTreeMap;

/// The OTIS-based optical design of the stack-Imase–Itoh network
/// `SII(s, d, n) = ς(s, II⁺(d, n))`.
#[derive(Debug, Clone)]
pub struct StackImaseItohDesign {
    target: StackGraph,
    design: OpticalDesign,
}

impl StackImaseItohDesign {
    /// Builds the design for `SII(s, d, n)`; `new(t, g, g)` is the design of
    /// `POPS(t, g)`.
    pub fn new(s: usize, d: usize, n: usize) -> Self {
        assert!(s >= 1, "stacking factor s must be >= 1");
        assert!(
            d >= 1 && n >= 1,
            "Imase-Itoh parameters must satisfy d >= 1, n >= 1"
        );

        let ii = imase_itoh(d, n);
        let target = StackGraph::new(s, ii.with_loops()).expect("s >= 1 was checked");
        let has_loop: Vec<bool> = (0..n).map(|u| ii.has_arc(u, u)).collect();

        let mut netlist = Netlist::new();

        // Per-group building blocks.  Group u needs δ_u couplers where δ_u is
        // its out-degree in II⁺(d, n).
        let degrees: Vec<usize> = (0..n)
            .map(|u| if has_loop[u] { d } else { d + 1 })
            .collect();
        let tx_groups: Vec<_> = (0..n)
            .map(|u| add_transmitter_side_group(&mut netlist, s, degrees[u], &format!("group {u}")))
            .collect();
        let rx_groups: Vec<_> = (0..n)
            .map(|u| add_receiver_side_group(&mut netlist, s, degrees[u], &format!("group {u}")))
            .collect();

        // The central OTIS(d, n) realizing II(d, n) between multiplexers and
        // beam-splitters (Proposition 1, applied at the group level).
        let core = netlist.add(
            ComponentKind::Otis {
                groups: d,
                group_size: n,
            },
            format!("central OTIS({d},{n})"),
        );
        let core_otis = Otis::new(d, n);

        // Graph-arc multiplexer a (0-based; the paper's α = a + 1) of group u
        // occupies core input flat d·u + a; core output (p, q) feeds
        // beam-splitter q of group p.
        for (u, tx_group) in tx_groups.iter().enumerate() {
            for a in 0..d {
                let mux = tx_group.multiplexers[a];
                let flat = d * u + a;
                netlist.connect(PortRef::new(mux, 0), PortRef::new(core, flat));
            }
        }
        for (p, rx_group) in rx_groups.iter().enumerate() {
            for q in 0..d {
                let split = rx_group.splitters[q];
                let flat = core_otis.rx_index(p, q);
                netlist.connect(PortRef::new(core, flat), PortRef::new(split, 0));
            }
        }

        // Loop couplers: fiber from the loop multiplexer to the loop
        // beam-splitter of the same group (only for groups whose quotient
        // loop is not already one of the II arcs).
        let mut loop_fibers: Vec<Option<otis_optics::ComponentId>> = vec![None; n];
        for u in 0..n {
            if !has_loop[u] {
                let fiber = netlist.add(ComponentKind::Fiber, format!("group {u} loop fiber"));
                let mux = tx_groups[u].multiplexers[d];
                let split = rx_groups[u].splitters[d];
                netlist.connect(PortRef::new(mux, 0), PortRef::new(fiber, 0));
                netlist.connect(PortRef::new(fiber, 0), PortRef::new(split, 0));
                loop_fibers[u] = Some(fiber);
            }
        }

        // Processor maps: processor (group u, index y) has flat id u·s + y.
        let mut transmitters = Vec::with_capacity(s * n);
        let mut receivers = Vec::with_capacity(s * n);
        let mut receiver_owner = BTreeMap::new();
        for u in 0..n {
            for y in 0..s {
                let p = u * s + y;
                transmitters.push(tx_groups[u].transmitters[y].clone());
                receivers.push(rx_groups[u].receivers[y].clone());
                for &rx in &rx_groups[u].receivers[y] {
                    receiver_owner.insert(rx, p);
                }
            }
        }

        // Couplers, by multiplexer, in the arc order of the quotient
        // II⁺(d, n): graph-arc multiplexer a of group u carries the II arc
        // (u, α = a + 1), in (u, α) order, then the loop multiplexers of the
        // added loops in node order — the order `Digraph::with_loops`
        // produces.
        let mut couplers: Vec<_> = tx_groups
            .iter()
            .flat_map(|tx_group| tx_group.multiplexers[..d].iter().copied())
            .collect();
        couplers.extend(
            (0..n)
                .filter(|&u| !has_loop[u])
                .map(|u| tx_groups[u].multiplexers[d]),
        );

        StackImaseItohDesign {
            target,
            design: OpticalDesign {
                netlist,
                transmitters,
                receivers,
                receiver_owner,
                couplers,
            },
        }
    }

    /// The target stack-graph `ς(s, II⁺(d, n))`.
    pub fn target(&self) -> &StackGraph {
        &self.target
    }

    /// The underlying multi-OPS design (netlist + maps + couplers).
    pub fn design(&self) -> &OpticalDesign {
        &self.design
    }

    /// The underlying multi-OPS design, by value.
    pub fn into_design(self) -> OpticalDesign {
        self.design
    }

    /// Verifies, by signal tracing, that the design realizes
    /// `ς(s, II⁺(d, n))` hyperarc for hyperarc.
    pub fn verify(&self) -> Result<VerificationReport, VerificationError> {
        verify_multi_ops(&self.design, &self.target)
    }

    /// The parts list.
    pub fn inventory(&self) -> HardwareInventory {
        self.design.inventory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_topologies::Pops;

    #[test]
    fn small_sii_verifies() {
        let design = StackImaseItohDesign::new(2, 2, 6);
        let report = design.verify().expect("SII(2,2,6) must verify");
        assert_eq!(report.processors, 12);
    }

    #[test]
    fn verification_sweep_including_loopy_quotients() {
        // II(3,10) and II(2,3) contain loops; the design must adapt the
        // per-group coupler count and still realize ς(s, II⁺).
        for (s, d, n) in [
            (2, 2, 5),
            (2, 3, 10),
            (3, 2, 3),
            (2, 2, 9),
            (1, 2, 6),
            (2, 3, 7),
        ] {
            StackImaseItohDesign::new(s, d, n)
                .verify()
                .unwrap_or_else(|e| panic!("SII({s},{d},{n}) design failed: {e}"));
        }
    }

    #[test]
    fn processor_and_group_counts() {
        let design = StackImaseItohDesign::new(3, 2, 7);
        assert_eq!(design.target().stacking_factor(), 3);
        assert_eq!(design.target().group_count(), 7);
        assert_eq!(design.design().processor_count(), 21);
        assert_eq!(design.target().node_count(), 21);
    }

    #[test]
    fn netlist_is_fully_wired() {
        let design = StackImaseItohDesign::new(2, 2, 6);
        assert!(design.design().netlist.is_fully_wired());
    }

    #[test]
    fn inventory_counts_core_and_groups() {
        let design = StackImaseItohDesign::new(2, 2, 6);
        let inv = design.inventory();
        // II(2,6) has no loops, so every group has degree 3 blocks.
        assert_eq!(inv.otis_units_of(2, 6), 1);
        assert_eq!(inv.otis_units_of(2, 3), 6); // tx side OTIS(s=2, g=3)
        assert_eq!(inv.otis_units_of(3, 2), 6); // rx side OTIS(g=3, s=2)
        assert_eq!(inv.multiplexer_count(), 18);
        assert_eq!(inv.splitter_count(), 18);
        assert_eq!(inv.fiber_count(), 6);
        assert_eq!(inv.transmitter_count(), 2 * 6 * 3);
        assert_eq!(inv.receiver_count(), 2 * 6 * 3);
    }

    #[test]
    fn loopy_quotient_uses_fewer_fibers() {
        // II(2,3): every node u has neighbours (-2u-1, -2u-2) mod 3; node 1:
        // (-3, -4) mod 3 = (0, 2); node 0: (2, 1); node 2: (-5, -6) mod 3 = (1, 0).
        // No loops here — pick II(3,4) instead: node u, v = (-3u-α) mod 4.
        // u=0: (3,2,1); u=1: (-4,-5,-6)=(0,3,2); u=2: (-7,-8,-9)=(1,0,3); u=3: (-10,..)=(2,1,0).
        // Still no loops. II(2,4): u=0:(3,2) u=1:(-3,-4)=(1,0) -> loop at 1!
        let design = StackImaseItohDesign::new(2, 2, 4);
        let inv = design.inventory();
        // Node 1 (and by symmetry exactly the nodes with 2u+α ≡ 0 mod 4... )
        // carries an II loop, so it needs no fiber loop.
        assert!(inv.fiber_count() < 4);
        design.verify().expect("loopy SII(2,2,4) must still verify");
    }

    #[test]
    fn unowned_receiver_fails_verification() {
        let mut design = StackImaseItohDesign::new(2, 2, 3);
        let receiver = design.design.receivers[0][0];
        design.design.receiver_owner.remove(&receiver);
        match design.verify() {
            Err(VerificationError::AdjacencyMismatch { detail }) => {
                assert!(detail.contains("belongs to no processor"), "{detail}");
            }
            other => panic!("expected an unowned-receiver error, got {other:?}"),
        }
    }

    // §4.1: POPS(t, g) is SII(t, g, g), checked against its own model, the
    // stack-graph of `otis_topologies::Pops`.

    #[test]
    fn pops_fig11_4_2_is_realized() {
        let design = StackImaseItohDesign::new(4, 2, 2);
        let report = verify_multi_ops(design.design(), Pops::new(4, 2).stack_graph())
            .expect("POPS(4,2) OTIS design must verify");
        assert_eq!(report.processors, 8);
        assert_eq!(report.links, 4);
    }

    #[test]
    fn pops_hardware_inventory() {
        // Fig. 11 shows, for POPS(4,2), the transmitter-side OTIS(4,2)
        // blocks, the central OTIS(2,2) and the receiver-side OTIS(2,4)
        // blocks, plus the 4 multiplexers and 4 beam-splitters of the g² = 4
        // couplers.
        for (t, g) in [(4, 2), (1, 2), (2, 3), (3, 5)] {
            let inv = StackImaseItohDesign::new(t, g, g).inventory();
            assert_eq!(inv.otis_units_of(t, g), g, "POPS({t},{g})");
            assert_eq!(inv.otis_units_of(g, t), g, "POPS({t},{g})");
            assert_eq!(inv.otis_units_of(g, g), 1, "POPS({t},{g})");
            assert_eq!(inv.otis_units(), 2 * g + 1);
            assert_eq!(inv.multiplexer_count(), g * g);
            assert_eq!(inv.splitter_count(), g * g);
            assert_eq!(inv.transmitter_count(), t * g * g);
            assert_eq!(inv.receiver_count(), t * g * g);
            assert_eq!(inv.fiber_count(), 0);
        }
    }

    #[test]
    fn pops_verification_sweep() {
        for (t, g) in [(1, 2), (2, 2), (4, 2), (2, 3), (3, 3), (2, 4), (5, 3)] {
            let design = StackImaseItohDesign::new(t, g, g);
            verify_multi_ops(design.design(), Pops::new(t, g).stack_graph())
                .unwrap_or_else(|e| panic!("POPS({t},{g}) design failed: {e}"));
            design
                .verify()
                .unwrap_or_else(|e| panic!("SII({t},{g},{g}) design failed: {e}"));
        }
    }

    #[test]
    fn pops_netlist_is_fully_wired() {
        let design = StackImaseItohDesign::new(3, 3, 3);
        assert!(design.design().netlist.is_fully_wired());
        assert!(crate::verify::verify_fully_wired(design.design()).is_ok());
    }

    #[test]
    fn pops_single_hop_worst_case_loss() {
        // Path: tx -> OTIS(t,g) -> mux -> OTIS(g,g) -> splitter -> OTIS(g,t) -> rx.
        let design = StackImaseItohDesign::new(4, 2, 2);
        let loss = design.design().worst_case_loss_db();
        let expected = 3.0 * otis_optics::power::OTIS_LOSS_DB
            + otis_optics::power::MULTIPLEXER_LOSS_DB
            + otis_optics::power::splitting_loss_db(4)
            + otis_optics::power::SPLITTER_EXCESS_LOSS_DB;
        assert!(
            (loss - expected).abs() < 1e-9,
            "loss {loss} vs expected {expected}"
        );
    }
}
