//! The Partitioned Optical Passive Star network `POPS(t, g)`.
//!
//! §2.4 of the paper: `POPS(t, g)` has `N = t·g` processors divided into `g`
//! groups of size `t`, and `g²` OPS couplers of degree `t`.  The coupler
//! labelled `(i, j)` has its inputs connected to group `i` and its outputs to
//! group `j`.  It is a **single-hop multi-OPS** network: any processor
//! reaches any other in one optical hop (possibly through the loop coupler
//! `(i, i)` of its own group).
//!
//! As proposed by Berthomé and Ferreira, `POPS(t, g)` is modelled as the
//! stack-graph `ς(t, K⁺_g)` (Fig. 5 of the paper): the quotient is the
//! complete digraph *with loops* on the `g` groups and the stacking factor is
//! the group size `t`.

use crate::complete::complete_digraph_with_loops;
use otis_graphs::{Hypergraph, StackGraph, StackNode};

/// The `POPS(t, g)` network, held as its stack-graph model `ς(t, K⁺_g)`.
#[derive(Debug, Clone)]
pub struct Pops {
    t: usize,
    g: usize,
    stack: StackGraph,
}

impl Pops {
    /// Builds `POPS(t, g)`.  Both the group size `t` and the number of groups
    /// `g` must be at least 1.
    pub fn new(t: usize, g: usize) -> Self {
        assert!(t >= 1, "group size t must be >= 1");
        assert!(g >= 1, "group count g must be >= 1");
        let quotient = complete_digraph_with_loops(g);
        let stack = StackGraph::new(t, quotient).expect("t >= 1 was checked");
        Pops { t, g, stack }
    }

    /// Group size `t` (also the degree of every OPS coupler).
    pub fn group_size(&self) -> usize {
        self.t
    }

    /// Number of groups `g`.
    pub fn group_count(&self) -> usize {
        self.g
    }

    /// Total number of processors `N = t·g`.
    pub fn node_count(&self) -> usize {
        self.t * self.g
    }

    /// Number of OPS couplers, `g²`.
    pub fn coupler_count(&self) -> usize {
        self.g * self.g
    }

    /// The stack-graph model `ς(t, K⁺_g)`.
    pub fn stack_graph(&self) -> &StackGraph {
        &self.stack
    }

    /// The hypergraph with one hyperarc per OPS coupler.  Hyperarc `i·g + j`
    /// is the coupler `(i, j)` (inputs from group `i`, outputs to group `j`),
    /// matching the paper's labelling.
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

    /// Single-hop property: every ordered pair of processors shares at least
    /// one coupler the source can write and the destination can read.
    /// Returns the diameter of the flattened network (1 whenever `N > 1`).
    pub fn diameter(&self) -> Option<u32> {
        self.stack.diameter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_4_2_matches_fig4() {
        // Fig. 4: POPS(4, 2) with 8 nodes, 4 couplers of degree 4.
        let p = Pops::new(4, 2);
        assert_eq!(p.node_count(), 8);
        assert_eq!(p.coupler_count(), 4);
        assert_eq!(p.group_size(), 4);
        assert_eq!(p.group_count(), 2);
        assert_eq!(p.diameter(), Some(1));
        let h = p.hypergraph();
        assert_eq!(h.hyperarc_count(), 4);
        for c in 0..4 {
            assert_eq!(h.hyperarc(c).unwrap().ops_degree(), Some(4));
        }
    }

    #[test]
    fn coupler_labelling() {
        let p = Pops::new(3, 4);
        let h = p.hypergraph();
        for i in 0..4 {
            for j in 0..4 {
                // Coupler (i,j) is hyperarc i·g + j; it must read from
                // group i and write to group j.
                let c = i * 4 + j;
                let arc = h.hyperarc(c).unwrap();
                for &n in &arc.tail {
                    assert_eq!(p.processor_label(n).0, i);
                }
                for &n in &arc.head {
                    assert_eq!(p.processor_label(n).0, j);
                }
            }
        }
    }

    #[test]
    fn processor_labelling_roundtrip() {
        let p = Pops::new(5, 3);
        for g in 0..3 {
            for x in 0..5 {
                let id = p.processor(g, x);
                assert_eq!(p.processor_label(id), (g, x));
            }
        }
    }

    #[test]
    fn single_hop_for_various_sizes() {
        for (t, g) in [(1, 2), (2, 2), (4, 2), (3, 5), (8, 4)] {
            let p = Pops::new(t, g);
            assert_eq!(p.diameter(), Some(1), "POPS({t},{g}) must be single-hop");
        }
    }

    #[test]
    fn transceiver_counts() {
        // One transmitter and one receiver per coupler touching the
        // processor's group: g of each.
        let p = Pops::new(6, 7);
        let h = p.hypergraph();
        for node in 0..p.node_count() {
            assert_eq!(h.out_degree(node), 7);
            assert_eq!(h.in_degree(node), 7);
        }
    }

    #[test]
    fn degenerate_single_group() {
        let p = Pops::new(4, 1);
        assert_eq!(p.coupler_count(), 1);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.diameter(), Some(1));
    }

    #[test]
    #[should_panic(expected = "t must be >= 1")]
    fn zero_group_size_panics() {
        Pops::new(0, 2);
    }
}
