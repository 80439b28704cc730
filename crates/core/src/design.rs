//! Common representation of an optical design.
//!
//! Every design in this crate boils down to the same data: an optical
//! [`Netlist`], plus bookkeeping that says which transmitter / receiver
//! component belongs to which logical processor (and, for multi-OPS designs,
//! which multiplexer forms the input half of each OPS coupler).  From that,
//! the *induced* connectivity — which processors each processor can reach in
//! one optical hop, and through which coupler — is recovered purely by signal
//! tracing, never by construction-time assumption, so comparing it against
//! the target topology is a genuine end-to-end check of the design.

use otis_graphs::{Digraph, DigraphBuilder, HyperArc, Hypergraph};
use otis_optics::trace::trace_from_transmitter;
use otis_optics::{ComponentId, HardwareInventory, Netlist};
use std::collections::BTreeMap;
use std::fmt;

/// Why the connectivity induced by a netlist could not be interpreted as the
/// intended kind of graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InducedGraphError {
    /// A transmitter of a point-to-point design (one with no couplers)
    /// reaches zero or several receivers instead of exactly one.
    FanOutMismatch {
        /// The owning processor.
        processor: usize,
        /// The offending transmitter component.
        transmitter: ComponentId,
        /// How many receivers its light reaches.
        receivers_reached: usize,
    },
    /// A traced receiver is not registered to any processor.
    UnownedReceiver {
        /// The transmitter whose trace hit the receiver.
        transmitter: ComponentId,
        /// The receiver with no owning processor.
        receiver: ComponentId,
    },
}

impl fmt::Display for InducedGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InducedGraphError::FanOutMismatch {
                processor,
                transmitter,
                receivers_reached,
            } => {
                write!(
                    f,
                    "transmitter {transmitter} of processor {processor} reaches \
                     {receivers_reached} receivers, expected exactly 1"
                )
            }
            InducedGraphError::UnownedReceiver {
                transmitter,
                receiver,
            } => {
                write!(
                    f,
                    "receiver {receiver} reached from transmitter {transmitter} \
                     belongs to no processor"
                )
            }
        }
    }
}

impl std::error::Error for InducedGraphError {}

/// An optical design: a netlist, the transmitters and receivers each
/// processor owns, and the OPS couplers, if any.  A point-to-point design
/// has no couplers, and each of its transmitters illuminates exactly one
/// receiver; a multi-OPS design records the multiplexer forming the input
/// half of each coupler.
#[derive(Debug, Clone)]
pub struct OpticalDesign {
    /// The optical netlist.
    pub netlist: Netlist,
    /// `transmitters[u][a]` is the component id of processor `u`'s `a`-th
    /// transmitter (`a` is 0-based; the paper's α is `a + 1`).
    pub transmitters: Vec<Vec<ComponentId>>,
    /// `receivers[u][b]` is the component id of processor `u`'s `b`-th receiver.
    pub receivers: Vec<Vec<ComponentId>>,
    /// Reverse map from receiver component id to its owning processor.
    pub receiver_owner: BTreeMap<ComponentId, usize>,
    /// The multiplexer forming the input half of every OPS coupler, in
    /// target hyperarc order; empty for a point-to-point design.  Tracing
    /// from a multiplexer finds the coupler's beam-splitter and head.
    pub couplers: Vec<ComponentId>,
}

impl OpticalDesign {
    /// Number of processors.
    pub fn processor_count(&self) -> usize {
        self.transmitters.len()
    }

    /// Number of OPS couplers.
    pub fn coupler_count(&self) -> usize {
        self.couplers.len()
    }

    /// The processor owning `receiver`, which `transmitter`'s light reached.
    fn owner(
        &self,
        transmitter: ComponentId,
        receiver: ComponentId,
    ) -> Result<usize, InducedGraphError> {
        self.receiver_owner
            .get(&receiver)
            .copied()
            .filter(|&p| p < self.processor_count())
            .ok_or(InducedGraphError::UnownedReceiver {
                transmitter,
                receiver,
            })
    }

    /// The digraph on processors induced by tracing every transmitter: one
    /// arc from its owner to the owner of every receiver it reaches.  Arcs
    /// leaving a processor appear in transmitter order, so in a
    /// point-to-point design the α-th arc corresponds to the α-th
    /// transmitter; in a multi-OPS design two couplers joining the same
    /// groups give parallel arcs.
    ///
    /// Returns an [`InducedGraphError`] when a transmitter of a
    /// point-to-point design reaches zero or more than one receiver, or when
    /// a traced receiver is not registered to a processor.
    pub fn try_induced_digraph(&self) -> Result<Digraph, InducedGraphError> {
        let point_to_point = self.couplers.is_empty();
        let mut b = DigraphBuilder::new(self.processor_count());
        for (u, txs) in self.transmitters.iter().enumerate() {
            for &tx in txs {
                let hits = trace_from_transmitter(&self.netlist, tx);
                if point_to_point && hits.len() != 1 {
                    return Err(InducedGraphError::FanOutMismatch {
                        processor: u,
                        transmitter: tx,
                        receivers_reached: hits.len(),
                    });
                }
                for hit in hits {
                    b.add_arc(u, self.owner(tx, hit.receiver)?);
                }
            }
        }
        Ok(b.build())
    }

    /// Panicking wrapper around [`OpticalDesign::try_induced_digraph`],
    /// kept for call sites that treat a malformed design as a bug.
    ///
    /// # Panics
    /// Panics with the [`InducedGraphError`] message when the design is
    /// malformed.
    pub fn induced_digraph(&self) -> Digraph {
        let kind = if self.couplers.is_empty() {
            "point-to-point"
        } else {
            "multi-OPS"
        };
        self.try_induced_digraph()
            .unwrap_or_else(|e| panic!("malformed {kind} design: {e}"))
    }

    /// The hypergraph on processors induced by the couplers: for every
    /// coupler, the tail is the set of processors owning a transmitter whose
    /// light first meets the coupler's multiplexer, and the head is the set
    /// of processors that light reaches, both recovered by tracing.
    ///
    /// Returns [`InducedGraphError::UnownedReceiver`] when a traced receiver
    /// is not registered to a processor.
    pub fn try_induced_hypergraph(&self) -> Result<Hypergraph, InducedGraphError> {
        let mut feeders: BTreeMap<ComponentId, Vec<(usize, ComponentId)>> = BTreeMap::new();
        for (p, txs) in self.transmitters.iter().enumerate() {
            for &tx in txs {
                if let Some(mux) = first_component_hit(&self.netlist, tx) {
                    feeders.entry(mux).or_default().push((p, tx));
                }
            }
        }

        let mut h = Hypergraph::new(self.processor_count());
        for mux in &self.couplers {
            let fed = feeders.get(mux).map_or(&[][..], Vec::as_slice);
            let mut tail: Vec<usize> = fed.iter().map(|&(p, _)| p).collect();
            tail.dedup();
            // Whichever transmitter lights the multiplexer, the light reaches
            // the same receivers, so the first feeder's trace is the head.
            let mut head = Vec::new();
            if let Some(&(_, tx)) = fed.first() {
                for hit in trace_from_transmitter(&self.netlist, tx) {
                    head.push(self.owner(tx, hit.receiver)?);
                }
            }
            head.sort_unstable();
            head.dedup();
            h.add_hyperarc(HyperArc::new(tail, head))
                .expect("induced hyperarc endpoints are valid processors");
        }
        Ok(h)
    }

    /// The parts list of the design.
    pub fn inventory(&self) -> HardwareInventory {
        self.netlist.inventory()
    }

    /// Worst-case optical loss over all transmitter→receiver paths, in dB.
    pub fn worst_case_loss_db(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for txs in &self.transmitters {
            for &tx in txs {
                for hit in trace_from_transmitter(&self.netlist, tx) {
                    worst = worst.max(hit.loss_db);
                }
            }
        }
        worst
    }
}

/// Follows the wiring from a transmitter until the first multiplexer, OPS
/// coupler or fiber component is reached, passing transparently through OTIS
/// units.  Returns `None` when the transmitter's light never reaches such a
/// component (dangling design).
fn first_component_hit(netlist: &Netlist, transmitter: ComponentId) -> Option<ComponentId> {
    use otis_optics::components::ComponentKind;
    use otis_optics::netlist::PortRef;
    let mut port = PortRef::new(transmitter, 0);
    for _ in 0..netlist.component_count() + 1 {
        let next = netlist.destination(port)?;
        match netlist.component(next.component).kind {
            ComponentKind::Multiplexer { .. }
            | ComponentKind::OpsCoupler { .. }
            | ComponentKind::Fiber => return Some(next.component),
            ComponentKind::Receiver => return None,
            ComponentKind::Otis { .. } => {
                // OTIS is 1-to-1: follow through.
                let kind = netlist.component(next.component).kind;
                let outs = kind.propagate(next.port);
                debug_assert_eq!(outs.len(), 1);
                port = PortRef::new(next.component, outs[0].0);
            }
            ComponentKind::BeamSplitter { .. } => {
                // A splitter before any mux would make the "first coupler"
                // ill-defined; none of the designs do this.
                return None;
            }
            ComponentKind::Transmitter => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_optics::components::ComponentKind;
    use otis_optics::netlist::PortRef;

    /// Two processors, each with one transmitter and one receiver, connected
    /// through a degree-2 coupler made of an explicit mux + splitter.
    fn two_processor_design() -> OpticalDesign {
        let mut n = Netlist::new();
        let tx0 = n.add(ComponentKind::Transmitter, "p0 tx");
        let tx1 = n.add(ComponentKind::Transmitter, "p1 tx");
        let mux = n.add(ComponentKind::Multiplexer { inputs: 2 }, "mux");
        let split = n.add(ComponentKind::BeamSplitter { outputs: 2 }, "split");
        let rx0 = n.add(ComponentKind::Receiver, "p0 rx");
        let rx1 = n.add(ComponentKind::Receiver, "p1 rx");
        n.connect(PortRef::new(tx0, 0), PortRef::new(mux, 0));
        n.connect(PortRef::new(tx1, 0), PortRef::new(mux, 1));
        n.connect(PortRef::new(mux, 0), PortRef::new(split, 0));
        n.connect(PortRef::new(split, 0), PortRef::new(rx0, 0));
        n.connect(PortRef::new(split, 1), PortRef::new(rx1, 0));
        let mut receiver_owner = BTreeMap::new();
        receiver_owner.insert(rx0, 0);
        receiver_owner.insert(rx1, 1);
        OpticalDesign {
            netlist: n,
            transmitters: vec![vec![tx0], vec![tx1]],
            receivers: vec![vec![rx0], vec![rx1]],
            receiver_owner,
            couplers: vec![mux],
        }
    }

    #[test]
    fn induced_digraph_of_single_coupler() {
        let d = two_processor_design();
        let g = d.induced_digraph();
        assert_eq!(g.node_count(), 2);
        // Both processors reach both processors through the shared coupler.
        assert_eq!(g.arc_count(), 4);
        for u in 0..2 {
            for v in 0..2 {
                assert!(g.has_arc(u, v));
            }
        }
    }

    #[test]
    fn induced_hypergraph_of_single_coupler() {
        let d = two_processor_design();
        let h = d.try_induced_hypergraph().unwrap();
        assert_eq!(h.hyperarc_count(), 1);
        let a = h.hyperarc(0).unwrap();
        assert_eq!(a.tail, vec![0, 1]);
        assert_eq!(a.head, vec![0, 1]);
    }

    #[test]
    fn inventory_and_loss() {
        let d = two_processor_design();
        let inv = d.inventory();
        assert_eq!(inv.transmitter_count(), 2);
        assert_eq!(inv.receiver_count(), 2);
        assert_eq!(inv.multiplexer_count(), 1);
        assert_eq!(inv.splitter_count(), 1);
        assert!(d.worst_case_loss_db() > 0.0);
        assert_eq!(d.processor_count(), 2);
        assert_eq!(d.coupler_count(), 1);
    }

    #[test]
    fn point_to_point_induced_digraph() {
        // Two processors joined by direct fiber in both directions.
        let mut n = Netlist::new();
        let tx0 = n.add(ComponentKind::Transmitter, "p0 tx");
        let tx1 = n.add(ComponentKind::Transmitter, "p1 tx");
        let f0 = n.add(ComponentKind::Fiber, "f0");
        let f1 = n.add(ComponentKind::Fiber, "f1");
        let rx0 = n.add(ComponentKind::Receiver, "p0 rx");
        let rx1 = n.add(ComponentKind::Receiver, "p1 rx");
        n.connect(PortRef::new(tx0, 0), PortRef::new(f0, 0));
        n.connect(PortRef::new(f0, 0), PortRef::new(rx1, 0));
        n.connect(PortRef::new(tx1, 0), PortRef::new(f1, 0));
        n.connect(PortRef::new(f1, 0), PortRef::new(rx0, 0));
        let mut receiver_owner = BTreeMap::new();
        receiver_owner.insert(rx0, 0);
        receiver_owner.insert(rx1, 1);
        let d = OpticalDesign {
            netlist: n,
            transmitters: vec![vec![tx0], vec![tx1]],
            receivers: vec![vec![rx0], vec![rx1]],
            receiver_owner,
            couplers: Vec::new(),
        };
        let g = d.induced_digraph();
        assert_eq!(g.sorted_arc_list(), vec![(0, 1), (1, 0)]);
        assert_eq!(d.processor_count(), 2);
        assert!(d.worst_case_loss_db() > 0.0);
        assert_eq!(d.inventory().fiber_count(), 2);
    }

    #[test]
    fn point_to_point_accessors() {
        let d = crate::ImaseItohDesign::new(2, 5).into_design();
        assert_eq!(d.processor_count(), 5);
        assert_eq!(d.coupler_count(), 0);
        assert_eq!(d.inventory().otis_units(), 1);
        assert!(d.worst_case_loss_db() >= 0.0);
    }

    #[test]
    fn multi_ops_accessors() {
        // POPS(2,2), built as SII(2,2,2).
        let d = crate::StackImaseItohDesign::new(2, 2, 2).into_design();
        assert_eq!(d.processor_count(), 4);
        assert_eq!(d.coupler_count(), 4);
        assert!(d.worst_case_loss_db() > 0.0);
    }

    /// A transmitter wired into a splitter reaches two receivers: not a
    /// valid point-to-point design.
    fn fan_out_design() -> OpticalDesign {
        let mut n = Netlist::new();
        let tx0 = n.add(ComponentKind::Transmitter, "p0 tx");
        let split = n.add(ComponentKind::BeamSplitter { outputs: 2 }, "split");
        let rx0 = n.add(ComponentKind::Receiver, "p0 rx");
        let rx1 = n.add(ComponentKind::Receiver, "p1 rx");
        n.connect(PortRef::new(tx0, 0), PortRef::new(split, 0));
        n.connect(PortRef::new(split, 0), PortRef::new(rx0, 0));
        n.connect(PortRef::new(split, 1), PortRef::new(rx1, 0));
        let mut receiver_owner = BTreeMap::new();
        receiver_owner.insert(rx0, 0);
        receiver_owner.insert(rx1, 1);
        OpticalDesign {
            netlist: n,
            transmitters: vec![vec![tx0], Vec::new()],
            receivers: vec![vec![rx0], vec![rx1]],
            receiver_owner,
            couplers: Vec::new(),
        }
    }

    #[test]
    fn try_induced_digraph_reports_fan_out() {
        let d = fan_out_design();
        let err = d.try_induced_digraph().unwrap_err();
        assert_eq!(
            err,
            InducedGraphError::FanOutMismatch {
                processor: 0,
                transmitter: d.transmitters[0][0],
                receivers_reached: 2,
            }
        );
        assert!(err.to_string().contains("expected exactly 1"));
    }

    #[test]
    #[should_panic(expected = "malformed point-to-point design")]
    fn induced_digraph_wrapper_still_panics() {
        fan_out_design().induced_digraph();
    }

    #[test]
    fn try_induced_digraph_reports_unowned_receiver() {
        let mut d = fan_out_design();
        // Remove the splitter fan-out by rebuilding a 1-to-1 netlist whose
        // receiver is simply not registered.
        let mut n = Netlist::new();
        let tx0 = n.add(ComponentKind::Transmitter, "p0 tx");
        let f = n.add(ComponentKind::Fiber, "f");
        let rx = n.add(ComponentKind::Receiver, "orphan rx");
        n.connect(PortRef::new(tx0, 0), PortRef::new(f, 0));
        n.connect(PortRef::new(f, 0), PortRef::new(rx, 0));
        d.netlist = n;
        d.transmitters = vec![vec![tx0]];
        d.receivers = vec![vec![rx]];
        d.receiver_owner = BTreeMap::new();
        let err = d.try_induced_digraph().unwrap_err();
        assert_eq!(
            err,
            InducedGraphError::UnownedReceiver {
                transmitter: tx0,
                receiver: rx
            }
        );
        assert!(err.to_string().contains("belongs to no processor"));
    }
}
