//! The stack-Imase–Itoh network `SII(s, d, n)`.
//!
//! The paper notes (end of §2.7) that the definition of the stack-Kautz
//! network "can be trivially extended to the stack-Imase-Itoh network": take
//! the Imase–Itoh graph with a loop added at every node, `II⁺(d, n)`, as the
//! quotient and stack `s` copies.  Because `II(d, n)` exists for every `n`,
//! this yields multi-hop multi-OPS networks of **any** number of groups,
//! which is the practical reason to prefer it when the processor count does
//! not match a Kautz size.

use crate::imase_itoh::{imase_itoh, ImaseItoh};
use otis_graphs::{Hypergraph, StackGraph, StackNode};

/// The stack-Imase–Itoh network `SII(s, d, n) = ς(s, II⁺(d, n))`.
#[derive(Debug, Clone)]
pub struct StackImaseItoh {
    s: usize,
    n: usize,
    ii: ImaseItoh,
    stack: StackGraph,
}

impl StackImaseItoh {
    /// Builds `SII(s, d, n)`; all parameters must be at least 1.
    pub fn new(s: usize, d: usize, n: usize) -> Self {
        assert!(s >= 1, "stacking factor s must be >= 1");
        assert!(
            d >= 1 && n >= 1,
            "Imase-Itoh parameters must satisfy d >= 1, n >= 1"
        );
        let quotient = imase_itoh(d, n).with_loops();
        let stack = StackGraph::new(s, quotient).expect("s >= 1 was checked");
        StackImaseItoh {
            s,
            n,
            ii: ImaseItoh::new(d, n),
            stack,
        }
    }

    /// Stacking factor `s` (group size and coupler degree).
    pub fn stacking_factor(&self) -> usize {
        self.s
    }

    /// Number of processor groups `n`.
    pub fn group_count(&self) -> usize {
        self.n
    }

    /// Total number of processors `s·n`.
    pub fn node_count(&self) -> usize {
        self.s * self.n
    }

    /// Number of OPS couplers (arcs of `II⁺(d, n)`).
    pub fn coupler_count(&self) -> usize {
        self.stack.quotient().arc_count()
    }

    /// The stack-graph model.
    pub fn stack_graph(&self) -> &StackGraph {
        &self.stack
    }

    /// The quotient Imase–Itoh handle (without the added loops).
    pub fn imase_itoh(&self) -> &ImaseItoh {
        &self.ii
    }

    /// The hypergraph with one hyperarc per OPS coupler.
    pub fn hypergraph(&self) -> Hypergraph {
        self.stack.to_hypergraph()
    }

    /// Flat identifier of processor `(group, index)`.
    pub fn processor(&self, group: usize, index: usize) -> usize {
        self.stack.to_flat(StackNode::new(index, group))
    }

    /// The `(group, index)` label of a flat processor identifier.
    pub fn processor_label(&self, node: usize) -> (usize, usize) {
        let sn = self.stack.to_stack_node(node);
        (sn.group, sn.index)
    }

    /// Diameter of the network in optical hops.
    pub fn diameter(&self) -> Option<u32> {
        self.stack.diameter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imase_itoh::imase_itoh_diameter_bound;
    use crate::stack_kautz::StackKautz;

    #[test]
    fn basic_counts() {
        let sii = StackImaseItoh::new(4, 3, 10);
        assert_eq!(sii.node_count(), 40);
        assert_eq!(sii.group_count(), 10);
        assert_eq!(sii.stacking_factor(), 4);
        // II⁺(3,10) has one arc per II arc plus one loop per node that does
        // not already carry one.
        let ii = sii.imase_itoh().graph();
        let expected = ii.arc_count() + (ii.node_count() - ii.loop_count());
        assert_eq!(sii.coupler_count(), expected);
    }

    #[test]
    fn exists_for_any_group_count() {
        // Group counts that are NOT Kautz sizes.
        for n in [5usize, 7, 9, 11, 13, 17] {
            let sii = StackImaseItoh::new(2, 2, n);
            assert_eq!(sii.group_count(), n);
            assert!(sii.diameter().is_some(), "SII(2,2,{n}) must be connected");
        }
    }

    #[test]
    fn diameter_within_log_bound() {
        for (s, d, n) in [(2, 2, 9), (3, 3, 20), (2, 4, 33)] {
            let sii = StackImaseItoh::new(s, d, n);
            let dia = sii.diameter().unwrap();
            assert!(dia <= imase_itoh_diameter_bound(d, n));
        }
    }

    #[test]
    fn matches_stack_kautz_at_kautz_sizes() {
        // At n = d^(k-1)(d+1) the SII and SK networks have identical
        // group counts, coupler counts and diameters.
        let sk = StackKautz::new(3, 2, 3);
        let sii = StackImaseItoh::new(3, 2, 12);
        assert_eq!(sii.node_count(), sk.node_count());
        assert_eq!(sii.coupler_count(), sk.coupler_count());
        assert_eq!(sii.diameter(), sk.diameter());
    }

    #[test]
    fn processor_labels_roundtrip() {
        let sii = StackImaseItoh::new(3, 2, 7);
        for node in 0..sii.node_count() {
            let (g, y) = sii.processor_label(node);
            assert_eq!(sii.processor(g, y), node);
        }
    }

    #[test]
    fn coupler_degree_is_stacking_factor() {
        let sii = StackImaseItoh::new(5, 2, 6);
        let h = sii.hypergraph();
        for c in 0..h.hyperarc_count() {
            assert_eq!(h.hyperarc(c).unwrap().ops_degree(), Some(5));
        }
    }

    #[test]
    #[should_panic(expected = "s must be >= 1")]
    fn zero_stacking_factor_panics() {
        StackImaseItoh::new(0, 2, 5);
    }
}
