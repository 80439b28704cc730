//! The group-of-processors building block (§3.1 of the paper).
//!
//! A group of `t` processors needs to feed the inputs of `g` OPS couplers
//! (every processor must be able to transmit into every coupler) and to
//! listen to the outputs of `g` OPS couplers.  The paper realizes both sides
//! with one OTIS each:
//!
//! * **transmitter side** (Fig. 8): one `OTIS(t, g)` plus `g` optical
//!   multiplexers.  Processor `j` owns the `g` transmitters of OTIS input
//!   group `j`; its transmitter at offset `α` is imaged onto OTIS output
//!   `(g−1−α, t−1−j)`, i.e. input `t−1−j` of multiplexer `g−1−α`.  Every
//!   processor therefore reaches every multiplexer, each multiplexer collects
//!   exactly one transmitter of every processor, and the multiplexer's output
//!   is the input half of one OPS coupler.
//! * **receiver side** (Fig. 9): one `OTIS(g, t)` plus `g` beam-splitters.
//!   Beam-splitter `i` (the output half of one OPS coupler) owns the `t`
//!   transmit positions of OTIS input group `i`; its output at offset `j` is
//!   imaged onto OTIS output `(t−1−j, g−1−i)`, i.e. receiver `g−1−i` of
//!   processor `t−1−j`.  Every splitter therefore reaches every processor of
//!   the group.
//!
//! Multiplexer outputs and splitter inputs are deliberately left dangling —
//! the network-level design (`stack_imase_itoh_design`, which also builds
//! `POPS(t, g)`) wires them through the central optical interconnection
//! network.

use otis_optics::components::ComponentKind;
use otis_optics::netlist::{Netlist, PortRef};
use otis_optics::ComponentId;

/// The transmitter-side half of a group: `t` processors × `g` transmitters,
/// one `OTIS(t, g)`, `g` multiplexers whose outputs are left unconnected.
#[derive(Debug, Clone)]
pub struct TransmitterSideGroup {
    /// Group size `t`.
    pub t: usize,
    /// Number of couplers fed by the group, `g`.
    pub g: usize,
    /// The OTIS component.
    pub otis: ComponentId,
    /// `transmitters[j][alpha]`: transmitter at OTIS input `(j, alpha)`,
    /// owned by processor `j` of the group.
    pub transmitters: Vec<Vec<ComponentId>>,
    /// `multiplexers[m]`: the multiplexer collecting OTIS output group `m`.
    pub multiplexers: Vec<ComponentId>,
}

/// Adds the transmitter-side block of one group to `netlist`.
pub fn add_transmitter_side_group(
    netlist: &mut Netlist,
    t: usize,
    g: usize,
    label_prefix: &str,
) -> TransmitterSideGroup {
    assert!(t >= 1 && g >= 1, "group parameters must be >= 1");
    let otis = netlist.add(
        ComponentKind::Otis {
            groups: t,
            group_size: g,
        },
        format!("{label_prefix} transmitter-side OTIS({t},{g})"),
    );
    let transmitters: Vec<Vec<ComponentId>> = (0..t)
        .map(|j| {
            (0..g)
                .map(|alpha| {
                    netlist.add(
                        ComponentKind::Transmitter,
                        format!("{label_prefix} processor {j} transmitter {alpha}"),
                    )
                })
                .collect()
        })
        .collect();
    let multiplexers: Vec<ComponentId> = (0..g)
        .map(|m| {
            netlist.add(
                ComponentKind::Multiplexer { inputs: t },
                format!("{label_prefix} multiplexer {m}"),
            )
        })
        .collect();

    // Wire transmitters into the OTIS inputs and the OTIS outputs into the
    // multiplexers, following the transpose formula.
    for (j, row) in transmitters.iter().enumerate() {
        for (alpha, &tx) in row.iter().enumerate() {
            let input_flat = j * g + alpha;
            netlist.connect(PortRef::new(tx, 0), PortRef::new(otis, input_flat));
        }
    }
    for (m, &mux) in multiplexers.iter().enumerate() {
        for q in 0..t {
            let output_flat = m * t + q;
            netlist.connect(PortRef::new(otis, output_flat), PortRef::new(mux, q));
        }
    }
    TransmitterSideGroup {
        t,
        g,
        otis,
        transmitters,
        multiplexers,
    }
}

/// The receiver-side half of a group: `g` beam-splitters whose inputs are
/// left unconnected, one `OTIS(g, t)`, and `t` processors × `g` receivers.
#[derive(Debug, Clone)]
pub struct ReceiverSideGroup {
    /// Group size `t`.
    pub t: usize,
    /// Number of couplers heard by the group, `g`.
    pub g: usize,
    /// The OTIS component.
    pub otis: ComponentId,
    /// `splitters[i]`: the beam-splitter occupying OTIS input group `i`.
    pub splitters: Vec<ComponentId>,
    /// `receivers[p][q]`: receiver at OTIS output `(p, q)`, owned by
    /// processor `p` of the group.
    pub receivers: Vec<Vec<ComponentId>>,
}

/// Adds the receiver-side block of one group to `netlist`.
pub fn add_receiver_side_group(
    netlist: &mut Netlist,
    t: usize,
    g: usize,
    label_prefix: &str,
) -> ReceiverSideGroup {
    assert!(t >= 1 && g >= 1, "group parameters must be >= 1");
    let otis = netlist.add(
        ComponentKind::Otis {
            groups: g,
            group_size: t,
        },
        format!("{label_prefix} receiver-side OTIS({g},{t})"),
    );
    let splitters: Vec<ComponentId> = (0..g)
        .map(|i| {
            netlist.add(
                ComponentKind::BeamSplitter { outputs: t },
                format!("{label_prefix} beam-splitter {i}"),
            )
        })
        .collect();
    let receivers: Vec<Vec<ComponentId>> = (0..t)
        .map(|p| {
            (0..g)
                .map(|q| {
                    netlist.add(
                        ComponentKind::Receiver,
                        format!("{label_prefix} processor {p} receiver {q}"),
                    )
                })
                .collect()
        })
        .collect();

    for (i, &split) in splitters.iter().enumerate() {
        for j in 0..t {
            let input_flat = i * t + j;
            netlist.connect(PortRef::new(split, j), PortRef::new(otis, input_flat));
        }
    }
    for (p, row) in receivers.iter().enumerate() {
        for (q, &rx) in row.iter().enumerate() {
            let output_flat = p * g + q;
            netlist.connect(PortRef::new(otis, output_flat), PortRef::new(rx, 0));
        }
    }
    ReceiverSideGroup {
        t,
        g,
        otis,
        splitters,
        receivers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_optics::trace::{reachable_receivers, trace_from_transmitter};

    #[test]
    fn fig8_group_of_6_processors_4_multiplexers() {
        // Fig. 8: a group of 6 processors connected to 4 optical multiplexers
        // through OTIS(6, 4).
        let mut n = Netlist::new();
        let g = add_transmitter_side_group(&mut n, 6, 4, "fig8");
        assert_eq!(g.transmitters.len(), 6);
        assert_eq!(g.multiplexers.len(), 4);
        let inv = n.inventory();
        assert_eq!(inv.otis_units_of(6, 4), 1);
        assert_eq!(inv.multiplexer_count(), 4);
        assert_eq!(inv.transmitter_count(), 24);
    }

    #[test]
    fn every_processor_feeds_every_multiplexer_exactly_once() {
        let mut n = Netlist::new();
        let g = add_transmitter_side_group(&mut n, 5, 3, "test");
        // For each processor and multiplexer, exactly one of the processor's
        // transmitters ends at that multiplexer: the one at offset g−1−m.
        for j in 0..5 {
            for m in 0..3 {
                let expected_tx = g.transmitters[j][2 - m];
                let mut count = 0;
                for &tx in &g.transmitters[j] {
                    // Follow the wiring: tx -> otis input -> otis output -> mux input.
                    let dest = n.destination(PortRef::new(tx, 0)).unwrap();
                    assert_eq!(dest.component, g.otis);
                    let outs = n.component(g.otis).kind.propagate(dest.port);
                    let mux_port = n.destination(PortRef::new(g.otis, outs[0].0)).unwrap();
                    if mux_port.component == g.multiplexers[m] {
                        count += 1;
                        assert_eq!(tx, expected_tx);
                    }
                }
                assert_eq!(count, 1, "processor {j} -> multiplexer {m}");
            }
        }
    }

    #[test]
    fn each_multiplexer_collects_one_transmitter_per_processor() {
        let mut n = Netlist::new();
        add_transmitter_side_group(&mut n, 4, 4, "test");
        // Each multiplexer has t inputs, all driven: the only dangling ports
        // are the g multiplexer outputs.
        let problems = n.dangling_ports();
        assert_eq!(problems.len(), 4, "{problems:?}");
        assert!(problems.iter().all(|p| p.ends_with("is not connected")));
    }

    #[test]
    fn fig9_splitters_reach_the_whole_group() {
        // Fig. 9: 3 beam-splitters connected to a group of 5 processors
        // through OTIS(3, 5).
        let mut n = Netlist::new();
        let g = add_receiver_side_group(&mut n, 5, 3, "fig9");
        assert_eq!(g.splitters.len(), 3);
        assert_eq!(g.receivers.len(), 5);
        let inv = n.inventory();
        assert_eq!(inv.otis_units_of(3, 5), 1);
        assert_eq!(inv.splitter_count(), 3);
        assert_eq!(inv.receiver_count(), 15);
    }

    #[test]
    fn splitter_broadcast_covers_every_processor() {
        // Drive each splitter from a probe transmitter and check the light
        // reaches exactly one receiver of every processor of the group.
        let mut n = Netlist::new();
        let g = add_receiver_side_group(&mut n, 5, 3, "test");
        let probes: Vec<ComponentId> = (0..3)
            .map(|i| {
                let probe = n.add(ComponentKind::Transmitter, format!("probe {i}"));
                n.connect(PortRef::new(probe, 0), PortRef::new(g.splitters[i], 0));
                probe
            })
            .collect();
        for (i, &probe) in probes.iter().enumerate() {
            let reached = reachable_receivers(&n, probe);
            assert_eq!(reached.len(), 5, "splitter {i} must reach 5 processors");
            for p in 0..5 {
                // Processor p hears splitter i on its receiver g−1−i.
                let expected = g.receivers[p][2 - i];
                assert!(reached.contains(&expected));
            }
        }
    }

    #[test]
    fn transmitter_to_mux_loss_is_otis_plus_mux() {
        let mut n = Netlist::new();
        let g = add_transmitter_side_group(&mut n, 3, 2, "loss");
        // Connect each mux to a splitter-less receiver probe to complete paths.
        for m in 0..2 {
            let rx = n.add(ComponentKind::Receiver, format!("probe rx {m}"));
            n.connect(PortRef::new(g.multiplexers[m], 0), PortRef::new(rx, 0));
        }
        let hits = trace_from_transmitter(&n, g.transmitters[0][0]);
        assert_eq!(hits.len(), 1);
        let expected = otis_optics::power::OTIS_LOSS_DB + otis_optics::power::MULTIPLEXER_LOSS_DB;
        assert!((hits[0].loss_db - expected).abs() < 1e-9);
    }
}
