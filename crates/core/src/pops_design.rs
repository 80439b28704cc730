//! §4.1: the POPS network on OTIS (Fig. 11).
//!
//! `POPS(t, g)` is built from three kinds of OTIS units:
//!
//! * per group, one transmitter-side `OTIS(t, g)` plus `g` optical
//!   multiplexers (the §3.1 building block, Fig. 8);
//! * per group, one receiver-side `OTIS(g, t)` plus `g` beam-splitters
//!   (Fig. 9);
//! * one central `OTIS(g, g)`, which realizes the interconnections of the
//!   quotient `K⁺_g`: the multiplexer outputs are its inputs and the
//!   beam-splitter inputs are its outputs.
//!
//! With the wiring chosen here, the multiplexer `m` of group `i` together
//! with the beam-splitter it reaches through the central OTIS forms the OPS
//! coupler `(i, g−1−m)` — inputs from group `i`, outputs to group `g−1−m` —
//! so all `g²` couplers of the POPS network are realized exactly once.
//! [`PopsDesign::verify`] recovers the couplers from the netlist by signal
//! tracing and checks them against the stack-graph model `ς(t, K⁺_g)`.

use crate::design::MultiOpsDesign;
use crate::group::{add_receiver_side_group, add_transmitter_side_group};
use crate::verify::{verify_multi_ops, VerificationError, VerificationReport};
use otis_optics::components::ComponentKind;
use otis_optics::netlist::{Netlist, PortRef};
use otis_optics::{HardwareInventory, Otis};
use otis_topologies::Pops;
use std::collections::BTreeMap;

/// The OTIS-based optical design of `POPS(t, g)`.
#[derive(Debug, Clone)]
pub struct PopsDesign {
    t: usize,
    g: usize,
    topology: Pops,
    design: MultiOpsDesign,
}

impl PopsDesign {
    /// Builds the optical design of `POPS(t, g)`.
    pub fn new(t: usize, g: usize) -> Self {
        assert!(t >= 1 && g >= 1, "POPS parameters must be >= 1");
        let topology = Pops::new(t, g);
        let mut netlist = Netlist::new();

        // Per-group building blocks.
        let tx_groups: Vec<_> = (0..g)
            .map(|i| add_transmitter_side_group(&mut netlist, t, g, &format!("group {i}")))
            .collect();
        let rx_groups: Vec<_> = (0..g)
            .map(|j| add_receiver_side_group(&mut netlist, t, g, &format!("group {j}")))
            .collect();

        // Central OTIS(g, g) realizing K⁺_g.
        let core = netlist.add(
            ComponentKind::Otis {
                groups: g,
                group_size: g,
            },
            format!("central OTIS({g},{g})"),
        );
        let core_otis = Otis::new(g, g);

        // Multiplexer m of group i drives core input (i, m); core output
        // (p, q) drives beam-splitter q of group p.
        for (i, txg) in tx_groups.iter().enumerate() {
            for (m, &mux) in txg.multiplexers.iter().enumerate() {
                let flat = core_otis.tx_index(i, m);
                netlist.connect(PortRef::new(mux, 0), PortRef::new(core, flat));
            }
        }
        for (p, rxg) in rx_groups.iter().enumerate() {
            for (q, &split) in rxg.splitters.iter().enumerate() {
                let flat = core_otis.rx_index(p, q);
                netlist.connect(PortRef::new(core, flat), PortRef::new(split, 0));
            }
        }

        // Processor maps: processor (group i, index y) has flat id i·t + y.
        let mut transmitters = Vec::with_capacity(t * g);
        let mut receivers = Vec::with_capacity(t * g);
        let mut receiver_owner = BTreeMap::new();
        for i in 0..g {
            for y in 0..t {
                let p = i * t + y;
                transmitters.push(tx_groups[i].transmitters[y].clone());
                receivers.push(rx_groups[i].receivers[y].clone());
                for &rx in &rx_groups[i].receivers[y] {
                    receiver_owner.insert(rx, p);
                }
            }
        }

        // Couplers in the order of the quotient arcs of K⁺_g (row-major
        // (i, j)): coupler (i, j) is multiplexer g−1−j of group i, and the
        // splitter it reaches through the central OTIS.
        let mut couplers = Vec::with_capacity(g * g);
        for (i, tx_group) in tx_groups.iter().enumerate() {
            for j in 0..g {
                let m = g - 1 - j;
                let mux = tx_group.multiplexers[m];
                // Follow the central OTIS: input (i, m) -> output (p, q).
                let (p, q) = core_otis.map_pair(i, m);
                let splitter = rx_groups[p].splitters[q];
                couplers.push((mux, splitter));
            }
        }

        PopsDesign {
            t,
            g,
            topology,
            design: MultiOpsDesign {
                netlist,
                transmitters,
                receivers,
                receiver_owner,
                couplers,
            },
        }
    }

    /// Group size `t`.
    pub fn group_size(&self) -> usize {
        self.t
    }

    /// Number of groups `g`.
    pub fn group_count(&self) -> usize {
        self.g
    }

    /// The POPS topology this design realizes.
    pub fn topology(&self) -> &Pops {
        &self.topology
    }

    /// The underlying multi-OPS design (netlist + maps).
    pub fn design(&self) -> &MultiOpsDesign {
        &self.design
    }

    /// The underlying multi-OPS design, by value.
    pub fn into_design(self) -> MultiOpsDesign {
        self.design
    }

    /// Verifies, by signal tracing, that the design realizes
    /// `POPS(t, g) = ς(t, K⁺_g)` hyperarc for hyperarc.
    pub fn verify(&self) -> Result<VerificationReport, VerificationError> {
        verify_multi_ops(&self.design, self.topology.stack_graph())
    }

    /// The parts list.  For `POPS(t, g)` this is `g` × `OTIS(t, g)`,
    /// `g` × `OTIS(g, t)`, one `OTIS(g, g)`, `g²` multiplexers, `g²`
    /// beam-splitters, `t·g·g` transmitters and `t·g·g` receivers.
    pub fn inventory(&self) -> HardwareInventory {
        self.design.inventory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_pops_4_2_is_realized() {
        let design = PopsDesign::new(4, 2);
        let report = design.verify().expect("POPS(4,2) OTIS design must verify");
        assert_eq!(report.processors, 8);
        assert_eq!(report.links, 4);
    }

    #[test]
    fn fig11_hardware_inventory() {
        // Fig. 11 shows the transmitter-side OTIS(4,2) blocks, the central
        // OTIS(2,2) and the receiver-side OTIS(2,4) blocks, plus the 4
        // multiplexers and 4 beam-splitters of the g² = 4 couplers.
        let inv = PopsDesign::new(4, 2).inventory();
        assert_eq!(inv.otis_units_of(4, 2), 2);
        assert_eq!(inv.otis_units_of(2, 4), 2);
        assert_eq!(inv.otis_units_of(2, 2), 1);
        assert_eq!(inv.otis_units(), 5);
        assert_eq!(inv.multiplexer_count(), 4);
        assert_eq!(inv.splitter_count(), 4);
        assert_eq!(inv.transmitter_count(), 16);
        assert_eq!(inv.receiver_count(), 16);
    }

    #[test]
    fn verification_sweep() {
        for (t, g) in [(1, 2), (2, 2), (4, 2), (2, 3), (3, 3), (2, 4), (5, 3)] {
            PopsDesign::new(t, g)
                .verify()
                .unwrap_or_else(|e| panic!("POPS({t},{g}) design failed: {e}"));
        }
    }

    #[test]
    fn netlist_is_fully_wired() {
        let design = PopsDesign::new(3, 3);
        assert!(design.design().netlist.is_fully_wired());
        assert!(crate::verify::verify_fully_wired(design.design()).is_ok());
    }

    #[test]
    fn coupler_order_matches_quotient_arcs() {
        // Coupler (i, j) must have its tail in group i and its head in
        // group j, in the row-major order used by the Pops topology.
        let design = PopsDesign::new(3, 3);
        let h = design.design().induced_hypergraph();
        let pops = design.topology();
        for i in 0..3 {
            for j in 0..3 {
                let c = i * 3 + j;
                let arc = h.hyperarc(c).unwrap();
                for &p in &arc.tail {
                    assert_eq!(pops.processor_label(p).0, i, "coupler ({i},{j}) tail");
                }
                for &p in &arc.head {
                    assert_eq!(pops.processor_label(p).0, j, "coupler ({i},{j}) head");
                }
                assert_eq!(arc.tail.len(), 3);
                assert_eq!(arc.head.len(), 3);
            }
        }
    }

    #[test]
    fn single_hop_worst_case_loss() {
        // Path: tx -> OTIS(t,g) -> mux -> OTIS(g,g) -> splitter -> OTIS(g,t) -> rx.
        let design = PopsDesign::new(4, 2);
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

    #[test]
    fn accessors() {
        let design = PopsDesign::new(4, 2);
        assert_eq!(design.group_size(), 4);
        assert_eq!(design.group_count(), 2);
        assert_eq!(design.topology().node_count(), 8);
        assert_eq!(design.design().coupler_count(), 4);
    }
}
