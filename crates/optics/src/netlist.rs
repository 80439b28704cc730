//! Optical netlists: placed components plus port-to-port connections.
//!
//! A netlist is how the `otis-core` crate expresses a complete optical design
//! (Fig. 11 and Fig. 12 of the paper are netlists drawn as figures).  It is a
//! list of [`Component`]s and a set of directed connections from output
//! ports to input ports.  Physically, one output port illuminates exactly one
//! input port (free-space imaging or a fiber); the netlist enforces that and
//! also enforces that an input port is driven by at most one output port, so
//! that tracing is deterministic.
//!
//! Fan-out and fan-in happen *inside* components (beam-splitters and
//! multiplexers), never in the wiring — exactly as in the physical systems
//! the paper assembles.

use crate::components::{Component, ComponentId, ComponentKind};
use crate::cost::HardwareInventory;
use std::collections::BTreeMap;

/// A reference to one port of one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRef {
    /// The component.
    pub component: ComponentId,
    /// The port index within that component (input or output depending on
    /// context).
    pub port: usize,
}

impl PortRef {
    /// Creates a port reference.
    pub fn new(component: ComponentId, port: usize) -> Self {
        PortRef { component, port }
    }
}

/// A complete optical design: components plus wiring.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    components: Vec<Component>,
    /// Connection from an output port to the input port it illuminates.
    connections: BTreeMap<PortRef, PortRef>,
    /// Reverse index: which output port drives a given input port.
    driven_by: BTreeMap<PortRef, PortRef>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Places a component and returns its identifier.
    pub fn add(&mut self, kind: ComponentKind, label: impl Into<String>) -> ComponentId {
        self.components.push(Component::new(kind, label));
        self.components.len() - 1
    }

    /// Number of placed components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// The component with a given identifier.
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id]
    }

    /// All components, in placement order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Connects output port `from` to input port `to`.
    ///
    /// # Panics
    /// Panics when either reference is invalid, when `from` is already
    /// connected, or when `to` is already driven — an optical output
    /// illuminates exactly one input and an input is driven by at most one
    /// output.
    pub fn connect(&mut self, from: PortRef, to: PortRef) {
        let from_kind = &self.components[from.component].kind;
        let to_kind = &self.components[to.component].kind;
        assert!(
            from.port < from_kind.output_count(),
            "output port {} out of range for {}",
            from.port,
            from_kind.short_name()
        );
        assert!(
            to.port < to_kind.input_count(),
            "input port {} out of range for {}",
            to.port,
            to_kind.short_name()
        );
        assert!(
            !self.connections.contains_key(&from),
            "output port {from:?} is already connected"
        );
        assert!(
            !self.driven_by.contains_key(&to),
            "input port {to:?} is already driven"
        );
        self.connections.insert(from, to);
        self.driven_by.insert(to, from);
    }

    /// The input port illuminated by output port `from`, if connected.
    pub fn destination(&self, from: PortRef) -> Option<PortRef> {
        self.connections.get(&from).copied()
    }

    /// All component identifiers of a given kind predicate.
    pub fn components_where(&self, pred: impl Fn(&ComponentKind) -> bool) -> Vec<ComponentId> {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, c)| pred(&c.kind))
            .map(|(i, _)| i)
            .collect()
    }

    /// All transmitter component identifiers.
    pub fn transmitters(&self) -> Vec<ComponentId> {
        self.components_where(|k| matches!(k, ComponentKind::Transmitter))
    }

    /// All receiver component identifiers.
    pub fn receivers(&self) -> Vec<ComponentId> {
        self.components_where(|k| matches!(k, ComponentKind::Receiver))
    }

    /// Counts every placed part into a [`HardwareInventory`].
    pub fn inventory(&self) -> HardwareInventory {
        let mut inv = HardwareInventory::new();
        for c in &self.components {
            match c.kind {
                ComponentKind::Transmitter => inv.add_transmitters(1),
                ComponentKind::Receiver => inv.add_receivers(1),
                ComponentKind::Otis { groups, group_size } => inv.add_otis(groups, group_size),
                ComponentKind::Multiplexer { inputs } => inv.add_multiplexer(inputs),
                ComponentKind::BeamSplitter { outputs } => inv.add_splitter(outputs),
                ComponentKind::OpsCoupler { degree } => inv.add_coupler(degree),
                ComponentKind::Fiber => inv.add_fibers(1),
            }
        }
        inv
    }

    /// Checks structural completeness: every output port of every non-sink
    /// component is connected, and every input port of every non-source
    /// component is driven.  Returns the list of human-readable problems
    /// (empty when the netlist is fully wired).
    pub fn dangling_ports(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (id, c) in self.components.iter().enumerate() {
            for p in 0..c.kind.output_count() {
                let port = PortRef::new(id, p);
                if !self.connections.contains_key(&port) {
                    problems.push(format!(
                        "output {p} of component {id} ({}) is not connected",
                        c.kind.short_name()
                    ));
                }
            }
            for p in 0..c.kind.input_count() {
                let port = PortRef::new(id, p);
                if !self.driven_by.contains_key(&port) {
                    problems.push(format!(
                        "input {p} of component {id} ({}) is not driven",
                        c.kind.short_name()
                    ));
                }
            }
        }
        problems
    }

    /// `true` when [`Netlist::dangling_ports`] reports nothing.
    pub fn is_fully_wired(&self) -> bool {
        self.dangling_ports().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One transmitter feeding a degree-2 coupler feeding two receivers.
    fn tiny() -> (Netlist, ComponentId, ComponentId, ComponentId, ComponentId) {
        let mut n = Netlist::new();
        let tx = n.add(ComponentKind::Transmitter, "tx0");
        let tx1 = n.add(ComponentKind::Transmitter, "tx1");
        let coupler = n.add(ComponentKind::OpsCoupler { degree: 2 }, "ops");
        let rx0 = n.add(ComponentKind::Receiver, "rx0");
        let rx1 = n.add(ComponentKind::Receiver, "rx1");
        n.connect(PortRef::new(tx, 0), PortRef::new(coupler, 0));
        n.connect(PortRef::new(tx1, 0), PortRef::new(coupler, 1));
        n.connect(PortRef::new(coupler, 0), PortRef::new(rx0, 0));
        n.connect(PortRef::new(coupler, 1), PortRef::new(rx1, 0));
        (n, tx, coupler, rx0, rx1)
    }

    #[test]
    fn build_and_query() {
        let (n, tx, coupler, rx0, _) = tiny();
        assert_eq!(n.component_count(), 5);
        assert_eq!(
            n.destination(PortRef::new(tx, 0)),
            Some(PortRef::new(coupler, 0))
        );
        assert_eq!(
            n.destination(PortRef::new(coupler, 0)),
            Some(PortRef::new(rx0, 0))
        );
        assert_eq!(n.transmitters().len(), 2);
        assert_eq!(n.receivers().len(), 2);
        assert!(n.is_fully_wired());
    }

    #[test]
    fn inventory_from_netlist() {
        let (n, ..) = tiny();
        let inv = n.inventory();
        assert_eq!(inv.transmitter_count(), 2);
        assert_eq!(inv.receiver_count(), 2);
        assert_eq!(inv.coupler_count(), 1);
        assert_eq!(inv.couplers_of(2), 1);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_output_rejected() {
        let mut n = Netlist::new();
        let tx = n.add(ComponentKind::Transmitter, "tx");
        let rx0 = n.add(ComponentKind::Receiver, "rx0");
        let rx1 = n.add(ComponentKind::Receiver, "rx1");
        n.connect(PortRef::new(tx, 0), PortRef::new(rx0, 0));
        n.connect(PortRef::new(tx, 0), PortRef::new(rx1, 0));
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_drive_input_rejected() {
        let mut n = Netlist::new();
        let tx0 = n.add(ComponentKind::Transmitter, "tx0");
        let tx1 = n.add(ComponentKind::Transmitter, "tx1");
        let rx = n.add(ComponentKind::Receiver, "rx");
        n.connect(PortRef::new(tx0, 0), PortRef::new(rx, 0));
        n.connect(PortRef::new(tx1, 0), PortRef::new(rx, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn port_range_checked() {
        let mut n = Netlist::new();
        let tx = n.add(ComponentKind::Transmitter, "tx");
        let rx = n.add(ComponentKind::Receiver, "rx");
        n.connect(PortRef::new(tx, 1), PortRef::new(rx, 0));
    }

    #[test]
    fn dangling_ports_reported() {
        let mut n = Netlist::new();
        let tx = n.add(ComponentKind::Transmitter, "tx");
        let mux = n.add(ComponentKind::Multiplexer { inputs: 2 }, "mux");
        n.connect(PortRef::new(tx, 0), PortRef::new(mux, 0));
        let problems = n.dangling_ports();
        // mux input 1 undriven and mux output 0 unconnected.
        assert_eq!(problems.len(), 2);
        assert!(!n.is_fully_wired());
    }

    #[test]
    fn components_where_filters() {
        let (n, ..) = tiny();
        let couplers = n.components_where(|k| matches!(k, ComponentKind::OpsCoupler { .. }));
        assert_eq!(couplers.len(), 1);
        assert_eq!(n.component(couplers[0]).label, "ops");
    }
}
