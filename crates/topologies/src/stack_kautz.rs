//! The stack-Kautz network `SK(s, d, k)`.
//!
//! Definition 4 of the paper: `SK(s, d, k) = ς(s, KG⁺(d, k))` — the
//! stack-graph of stacking factor `s` over the Kautz graph with loops.  It is
//! a **multi-hop multi-OPS** network with
//!
//! * `N = s · d^(k-1) · (d+1)` processors,
//! * `d^(k-1)(d+1)` groups of `s` processors,
//! * `d^(k-1)(d+1)·(d+1)` OPS couplers of degree `s` (one per arc of
//!   `KG⁺(d, k)`, i.e. `d` "Kautz" couplers plus one "loop" coupler per
//!   group),
//! * node degree `d + 1` (each processor can transmit on the couplers of the
//!   `d` Kautz out-arcs of its group plus the loop coupler of its group),
//! * diameter `k` (inherited from the Kautz quotient).
//!
//! Each processor is labelled `(x, y)` where `x` is a Kautz word (the group)
//! and `0 ≤ y < s` the index within the group.

use crate::kautz::{kautz_node_count, kautz_with_loops, Kautz};
use otis_graphs::{Hypergraph, StackGraph, StackNode};

/// The stack-Kautz network `SK(s, d, k)`.
#[derive(Debug, Clone)]
pub struct StackKautz {
    s: usize,
    d: usize,
    k: usize,
    kautz: Kautz,
    stack: StackGraph,
}

impl StackKautz {
    /// Builds `SK(s, d, k)`; all three parameters must be at least 1.
    pub fn new(s: usize, d: usize, k: usize) -> Self {
        assert!(s >= 1, "stacking factor s must be >= 1");
        assert!(
            d >= 1 && k >= 1,
            "Kautz parameters must satisfy d >= 1, k >= 1"
        );
        let quotient = kautz_with_loops(d, k);
        let stack = StackGraph::new(s, quotient).expect("s >= 1 was checked");
        StackKautz {
            s,
            d,
            k,
            kautz: Kautz::new(d, k),
            stack,
        }
    }

    /// Stacking factor `s` (group size, also the OPS coupler degree).
    pub fn stacking_factor(&self) -> usize {
        self.s
    }

    /// Total number of processors `s·d^(k-1)(d+1)`.
    pub fn node_count(&self) -> usize {
        self.s * kautz_node_count(self.d, self.k)
    }

    /// Number of processor groups, `d^(k-1)(d+1)`.
    pub fn group_count(&self) -> usize {
        kautz_node_count(self.d, self.k)
    }

    /// Number of OPS couplers: one per arc of `KG⁺(d, k)`, i.e.
    /// `d^(k-1)(d+1)·(d+1)`.
    pub fn coupler_count(&self) -> usize {
        self.group_count() * (self.d + 1)
    }

    /// The stack-graph `ς(s, KG⁺(d, k))`.
    pub fn stack_graph(&self) -> &StackGraph {
        &self.stack
    }

    /// The Kautz handle of the quotient (without loops) for label lookups.
    pub fn kautz(&self) -> &Kautz {
        &self.kautz
    }

    /// The hypergraph with one hyperarc per OPS coupler, in the arc order of
    /// `KG⁺(d, k)` (the `d` Kautz arcs of group 0 first, …, loops last).
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

    /// Diameter of the network in optical hops.  Inherited from the Kautz
    /// quotient: `k` (for `s ≥ 2` the loop couplers make same-group
    /// communication a single hop, so the diameter never exceeds `k`).
    pub fn diameter(&self) -> Option<u32> {
        self.stack.diameter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sk_6_3_2_matches_fig7() {
        // Fig. 7 / §4.2: SK(6, 3, 2) has 72 processors (12 groups of 6),
        // degree 4, diameter 2, and 48 OPS couplers of degree 6.
        let sk = StackKautz::new(6, 3, 2);
        assert_eq!(sk.node_count(), 72);
        assert_eq!(sk.group_count(), 12);
        assert_eq!(sk.stacking_factor(), 6);
        assert_eq!(sk.coupler_count(), 48);
        assert_eq!(sk.diameter(), Some(2));
        let h = sk.hypergraph();
        assert_eq!(h.out_degree(0), 4);
        assert_eq!(h.hyperarc_count(), 48);
        for c in 0..h.hyperarc_count() {
            assert_eq!(h.hyperarc(c).unwrap().ops_degree(), Some(6));
        }
    }

    #[test]
    fn node_count_formula() {
        for (s, d, k) in [(2, 2, 2), (4, 2, 3), (6, 3, 2), (3, 4, 2), (2, 3, 3)] {
            let sk = StackKautz::new(s, d, k);
            assert_eq!(sk.node_count(), s * d.pow((k - 1) as u32) * (d + 1));
            assert_eq!(sk.coupler_count(), sk.group_count() * (d + 1));
        }
    }

    #[test]
    fn every_processor_can_transmit_on_d_plus_1_couplers() {
        let sk = StackKautz::new(3, 2, 2);
        let h = sk.hypergraph();
        for node in 0..sk.node_count() {
            assert_eq!(h.out_degree(node), 3);
            assert_eq!(h.in_degree(node), 3);
        }
    }

    #[test]
    fn diameter_inherited_from_kautz() {
        for (s, d, k) in [(2, 2, 2), (2, 2, 3), (4, 3, 2), (2, 2, 4)] {
            let sk = StackKautz::new(s, d, k);
            assert_eq!(sk.diameter(), Some(k as u32), "SK({s},{d},{k})");
        }
    }

    #[test]
    fn processor_labels_roundtrip() {
        let sk = StackKautz::new(4, 2, 2);
        for node in 0..sk.node_count() {
            let (g, y) = sk.processor_label(node);
            assert_eq!(sk.processor(g, y), node);
            assert!(y < 4);
            assert!(g < sk.group_count());
        }
    }

    #[test]
    fn group_word_is_a_valid_kautz_label() {
        let sk = StackKautz::new(2, 3, 2);
        for node in 0..sk.node_count() {
            let w = sk.kautz().label(sk.processor_label(node).0);
            assert_eq!(w.degree(), 3);
            assert_eq!(w.len(), 2);
            assert_eq!(w.index(), sk.processor_label(node).0);
        }
    }

    #[test]
    fn stacking_factor_one_is_kautz_plus_loops() {
        let sk = StackKautz::new(1, 2, 3);
        assert_eq!(sk.node_count(), 12);
        // Flattened stack with s = 1 equals the quotient KG⁺(2,3).
        assert!(sk
            .stack_graph()
            .flatten()
            .same_arcs(&crate::kautz::kautz_with_loops(2, 3)));
    }

    #[test]
    #[should_panic(expected = "s must be >= 1")]
    fn zero_stacking_factor_panics() {
        StackKautz::new(0, 2, 2);
    }
}
