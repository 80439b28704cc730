//! Directed hypergraphs.
//!
//! One-to-many optical networks are modelled by hypergraphs (Berge): an OPS
//! coupler of degree `s` is a **hyperarc** whose tail is the set of `s`
//! processors that can transmit into the coupler and whose head is the set of
//! `s` processors that receive everything the coupler broadcasts (Fig. 3 of
//! the paper).  This module provides a minimal directed-hypergraph type with
//! exactly the operations the reproduction needs: construction, incidence
//! queries, degree statistics, and conversion to the underlying "flattened"
//! digraph (replace every hyperarc by the complete bipartite set of arcs from
//! its tail to its head), which is how hop-distances in multi-OPS networks
//! are defined.

use crate::digraph::{Digraph, DigraphBuilder, NodeId};
use crate::error::GraphError;

/// A directed hyperarc: every node of `tail` can transmit, every node of
/// `head` receives the transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperArc {
    /// Nodes that may send through this hyperarc (inputs of the OPS coupler).
    pub tail: Vec<NodeId>,
    /// Nodes that receive from this hyperarc (outputs of the OPS coupler).
    pub head: Vec<NodeId>,
}

impl HyperArc {
    /// Creates a hyperarc from explicit tail and head node sets.
    pub fn new(tail: Vec<NodeId>, head: Vec<NodeId>) -> Self {
        HyperArc { tail, head }
    }

    /// The *degree* of the hyperarc in the OPS sense: an `OPS(s, z)` coupler
    /// has `s` inputs and `z` outputs and is "of degree s" when `s == z`.
    /// Returns `Some(s)` when tail and head have the same size `s`.
    pub fn ops_degree(&self) -> Option<usize> {
        if self.tail.len() == self.head.len() {
            Some(self.tail.len())
        } else {
            None
        }
    }

    /// Canonical form with sorted tail and head, used for comparisons that
    /// must not depend on enumeration order.
    pub fn canonical(&self) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut t = self.tail.clone();
        let mut h = self.head.clone();
        t.sort_unstable();
        h.sort_unstable();
        (t, h)
    }
}

/// A directed hypergraph on nodes `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    n: usize,
    arcs: Vec<HyperArc>,
}

impl Hypergraph {
    /// Creates an empty hypergraph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Hypergraph {
            n,
            arcs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of hyperarcs.
    pub fn hyperarc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Adds a hyperarc; all endpoints must be valid nodes.
    pub fn add_hyperarc(&mut self, arc: HyperArc) -> Result<usize, GraphError> {
        for &u in arc.tail.iter().chain(arc.head.iter()) {
            if u >= self.n {
                return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
            }
        }
        self.arcs.push(arc);
        Ok(self.arcs.len() - 1)
    }

    /// All hyperarcs in insertion order.
    pub fn hyperarcs(&self) -> &[HyperArc] {
        &self.arcs
    }

    /// The hyperarc with a given identifier.
    pub fn hyperarc(&self, id: usize) -> Result<&HyperArc, GraphError> {
        self.arcs.get(id).ok_or(GraphError::HyperArcOutOfRange {
            arc: id,
            m: self.arcs.len(),
        })
    }

    /// Out-degree of a node in the hypergraph sense: the number of hyperarcs
    /// it can transmit on. For an OPS network this is the number of optical
    /// transmitters the processor needs (one per coupler it feeds) or, with a
    /// tunable transmitter, the tuning range.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.arcs.iter().filter(|a| a.tail.contains(&u)).count()
    }

    /// In-degree of a node: the number of hyperarcs it listens to.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.arcs.iter().filter(|a| a.head.contains(&u)).count()
    }

    /// Flattens every hyperarc into the complete bipartite set of ordinary
    /// arcs from its tail to its head.  Hop distances in the multi-OPS
    /// network are, by definition, distances in this flattened digraph.
    pub fn flatten(&self) -> Digraph {
        let m: usize = self.arcs.iter().map(|a| a.tail.len() * a.head.len()).sum();
        let mut b = DigraphBuilder::with_capacity(self.n, m);
        for a in &self.arcs {
            for &u in &a.tail {
                for &v in &a.head {
                    b.add_arc(u, v);
                }
            }
        }
        b.build()
    }

    /// Returns `true` when the two hypergraphs have the same node count and
    /// the same multiset of hyperarcs up to tail/head enumeration order.
    pub fn same_hyperarcs(&self, other: &Hypergraph) -> bool {
        if self.n != other.n || self.arcs.len() != other.arcs.len() {
            return false;
        }
        let mut a: Vec<_> = self.arcs.iter().map(HyperArc::canonical).collect();
        let mut b: Vec<_> = other.arcs.iter().map(HyperArc::canonical).collect();
        a.sort();
        b.sort();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::diameter;

    /// The degree-4 OPS coupler of Fig. 2/3: sources {0,1,2,3}, destinations {4..7}.
    fn single_coupler() -> Hypergraph {
        let mut h = Hypergraph::new(8);
        h.add_hyperarc(HyperArc::new(vec![0, 1, 2, 3], vec![4, 5, 6, 7]))
            .unwrap();
        h
    }

    #[test]
    fn coupler_as_hyperarc() {
        let h = single_coupler();
        assert_eq!(h.hyperarc_count(), 1);
        let a = h.hyperarc(0).unwrap();
        assert_eq!(a.ops_degree(), Some(4));
        assert_eq!(h.out_degree(0), 1);
        assert_eq!(h.in_degree(5), 1);
        assert_eq!(h.in_degree(0), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut h = Hypergraph::new(3);
        let err = h.add_hyperarc(HyperArc::new(vec![0], vec![5])).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 3 }));
        assert!(h.hyperarc(0).is_err());
    }

    #[test]
    fn flatten_is_complete_bipartite_per_hyperarc() {
        let h = single_coupler();
        let g = h.flatten();
        assert_eq!(g.arc_count(), 16);
        for u in 0..4 {
            for v in 4..8 {
                assert!(g.has_arc(u, v));
            }
        }
        assert!(!g.has_arc(4, 0));
    }

    #[test]
    fn incidence_queries() {
        let mut h = Hypergraph::new(6);
        h.add_hyperarc(HyperArc::new(vec![0, 1], vec![2, 3]))
            .unwrap();
        h.add_hyperarc(HyperArc::new(vec![2, 3], vec![4, 5]))
            .unwrap();
        h.add_hyperarc(HyperArc::new(vec![4, 5], vec![0, 1]))
            .unwrap();
        assert_eq!(h.out_degree(2), 1);
        assert_eq!(h.in_degree(2), 1);
        // The flattened 3-stage ring has diameter 3 at the node level.
        assert_eq!(diameter(&h.flatten()), Some(3));
    }

    #[test]
    fn non_square_coupler_degree() {
        let a = HyperArc::new(vec![0, 1, 2], vec![3, 4]);
        assert_eq!(a.ops_degree(), None);
    }

    #[test]
    fn same_hyperarcs_is_order_insensitive() {
        let mut h1 = Hypergraph::new(4);
        h1.add_hyperarc(HyperArc::new(vec![0, 1], vec![2, 3]))
            .unwrap();
        h1.add_hyperarc(HyperArc::new(vec![2], vec![0])).unwrap();
        let mut h2 = Hypergraph::new(4);
        h2.add_hyperarc(HyperArc::new(vec![2], vec![0])).unwrap();
        h2.add_hyperarc(HyperArc::new(vec![1, 0], vec![3, 2]))
            .unwrap();
        assert!(h1.same_hyperarcs(&h2));
        let mut h3 = Hypergraph::new(4);
        h3.add_hyperarc(HyperArc::new(vec![0, 1], vec![2, 3]))
            .unwrap();
        h3.add_hyperarc(HyperArc::new(vec![3], vec![0])).unwrap();
        assert!(!h1.same_hyperarcs(&h3));
    }
}
