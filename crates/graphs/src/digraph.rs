//! Compressed-sparse-row directed graphs.
//!
//! The [`Digraph`] type is the workhorse of the whole reproduction: every
//! point-to-point topology (Kautz, Imase–Itoh, de Bruijn, complete digraph)
//! is materialised as a `Digraph`, and the stack-graph model of multi-OPS
//! networks is built on top of it.
//!
//! The representation is a classic CSR (compressed sparse row) layout:
//! out-neighbours of node `u` are stored contiguously in `heads[out_offsets[u]
//! .. out_offsets[u + 1]]`.  A reverse CSR of arc tails is built with it
//! so that in-neighbour queries are O(in-degree).  Arcs keep their
//! insertion order inside each source bucket, which matters for the OTIS
//! designs where the α-th arc out of a node is meaningful.

use crate::error::GraphError;

/// Identifier of a node inside a [`Digraph`]; always in `0..n`.
pub type NodeId = usize;

/// A directed arc `(source, target)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Arc {
    /// Source node of the arc.
    pub source: NodeId,
    /// Target node of the arc.
    pub target: NodeId,
}

impl Arc {
    /// Creates a new arc from `source` to `target`.
    pub fn new(source: NodeId, target: NodeId) -> Self {
        Arc { source, target }
    }

    /// Returns `true` if this arc is a loop (source equals target).
    pub fn is_loop(&self) -> bool {
        self.source == self.target
    }
}

/// Incremental builder for [`Digraph`].
///
/// Arcs may be added in any order; duplicates (multi-arcs) are preserved
/// because several topologies in the paper (for example `II(d, n)` with small
/// `n`) are genuinely multi-digraphs.
#[derive(Debug, Clone, Default)]
pub struct DigraphBuilder {
    n: usize,
    arcs: Vec<Arc>,
}

impl DigraphBuilder {
    /// Creates a builder for a digraph with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        DigraphBuilder {
            n,
            arcs: Vec::new(),
        }
    }

    /// Creates a builder with `n` nodes and room for `m` arcs.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        DigraphBuilder {
            n,
            arcs: Vec::with_capacity(m),
        }
    }

    /// Number of nodes this builder was created with.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of arcs added so far.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Adds an arc from `source` to `target`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range; topology generators are
    /// expected to be internally consistent, so an out-of-range endpoint is a
    /// programming error rather than a recoverable condition.
    pub fn add_arc(&mut self, source: NodeId, target: NodeId) -> &mut Self {
        assert!(
            source < self.n,
            "arc source {source} out of range for {} nodes",
            self.n
        );
        assert!(
            target < self.n,
            "arc target {target} out of range for {} nodes",
            self.n
        );
        self.arcs.push(Arc::new(source, target));
        self
    }

    /// Consumes the builder and produces the CSR digraph.
    ///
    /// Arc order is preserved *within* each source node (stable counting
    /// sort), which lets topology generators rely on "the α-th out-arc of
    /// node u" being well defined.
    pub fn build(self) -> Digraph {
        Digraph::from_arcs(self.n, &self.arcs)
    }
}

/// An immutable directed multigraph in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digraph {
    n: usize,
    /// `out_offsets[u]..out_offsets[u+1]` indexes `out_heads` / `out_arc_ids`.
    out_offsets: Vec<usize>,
    out_heads: Vec<NodeId>,
    /// Original arc identifiers in the order they were given to the builder.
    out_arc_ids: Vec<usize>,
    in_offsets: Vec<usize>,
    in_tails: Vec<NodeId>,
    arcs: Vec<Arc>,
}

impl Digraph {
    /// Builds a digraph with `n` nodes from a list of arcs.
    pub fn from_arcs(n: usize, arcs: &[Arc]) -> Self {
        for a in arcs {
            assert!(
                a.source < n && a.target < n,
                "arc {a:?} out of range (n = {n})"
            );
        }
        let m = arcs.len();

        // Forward CSR via stable counting sort on source.
        let mut out_offsets = vec![0usize; n + 1];
        for a in arcs {
            out_offsets[a.source + 1] += 1;
        }
        for u in 0..n {
            out_offsets[u + 1] += out_offsets[u];
        }
        let mut cursor = out_offsets.clone();
        let mut out_heads = vec![0usize; m];
        let mut out_arc_ids = vec![0usize; m];
        for (id, a) in arcs.iter().enumerate() {
            let pos = cursor[a.source];
            out_heads[pos] = a.target;
            out_arc_ids[pos] = id;
            cursor[a.source] += 1;
        }

        // Reverse CSR via stable counting sort on target.
        let mut in_offsets = vec![0usize; n + 1];
        for a in arcs {
            in_offsets[a.target + 1] += 1;
        }
        for u in 0..n {
            in_offsets[u + 1] += in_offsets[u];
        }
        let mut cursor = in_offsets.clone();
        let mut in_tails = vec![0usize; m];
        for a in arcs {
            let pos = cursor[a.target];
            in_tails[pos] = a.source;
            cursor[a.target] += 1;
        }

        Digraph {
            n,
            out_offsets,
            out_heads,
            out_arc_ids,
            in_offsets,
            in_tails,
            arcs: arcs.to_vec(),
        }
    }

    /// Builds a digraph from `(source, target)` pairs.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let arcs: Vec<Arc> = edges.iter().map(|&(u, v)| Arc::new(u, v)).collect();
        Self::from_arcs(n, &arcs)
    }

    /// An empty digraph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Self::from_arcs(n, &[])
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of arcs (counting multiplicities and loops).
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Iterator over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// All arcs in original insertion order.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// The arc with a given identifier (insertion order).
    pub fn arc(&self, id: usize) -> Result<Arc, GraphError> {
        self.arcs.get(id).copied().ok_or(GraphError::ArcOutOfRange {
            arc: id,
            m: self.arcs.len(),
        })
    }

    /// Out-neighbours of `u`, in the order their arcs were inserted.
    ///
    /// # Panics
    /// Panics if `u >= n`.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_heads[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// In-neighbours of `u`, in the order their arcs were inserted.
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.in_tails[self.in_offsets[u]..self.in_offsets[u + 1]]
    }

    /// Identifiers of the arcs leaving `u`, in insertion order.
    #[inline]
    pub fn out_arc_ids(&self, u: NodeId) -> &[usize] {
        &self.out_arc_ids[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// Out-degree of `u` (loops count once).
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_offsets[u + 1] - self.out_offsets[u]
    }

    /// In-degree of `u` (loops count once).
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_offsets[u + 1] - self.in_offsets[u]
    }

    /// Maximum out-degree over all nodes (0 for the empty graph).
    pub fn max_out_degree(&self) -> usize {
        (0..self.n).map(|u| self.out_degree(u)).max().unwrap_or(0)
    }

    /// Returns `true` if every node has out-degree and in-degree exactly `d`.
    pub fn is_d_regular(&self, d: usize) -> bool {
        (0..self.n).all(|u| self.out_degree(u) == d && self.in_degree(u) == d)
    }

    /// Number of loop arcs.
    pub fn loop_count(&self) -> usize {
        self.arcs.iter().filter(|a| a.is_loop()).count()
    }

    /// Returns `true` if there is at least one arc from `u` to `v`.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).contains(&v)
    }

    /// Number of parallel arcs from `u` to `v`.
    pub fn arc_multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        self.out_neighbors(u).iter().filter(|&&w| w == v).count()
    }

    /// Returns the digraph with every arc reversed.
    pub fn reverse(&self) -> Digraph {
        let arcs: Vec<Arc> = self
            .arcs
            .iter()
            .map(|a| Arc::new(a.target, a.source))
            .collect();
        Digraph::from_arcs(self.n, &arcs)
    }

    /// Returns a copy with a loop added at every node (the `G⁺` operation used
    /// by the paper to define `K⁺_g` and `KG⁺(d, k)`).
    ///
    /// Nodes that already carry a loop do not receive a second one.
    pub fn with_loops(&self) -> Digraph {
        let mut arcs = self.arcs.clone();
        for u in 0..self.n {
            if !self.has_arc(u, u) {
                arcs.push(Arc::new(u, u));
            }
        }
        Digraph::from_arcs(self.n, &arcs)
    }

    /// Returns the induced subgraph on `keep` (given as a boolean mask), with
    /// nodes renumbered in increasing order of their original identifiers.
    /// The second return value maps old node ids to new ones.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Digraph, Vec<Option<NodeId>>) {
        assert_eq!(keep.len(), self.n, "mask length must equal node count");
        let mut map: Vec<Option<NodeId>> = vec![None; self.n];
        let mut next = 0usize;
        for u in 0..self.n {
            if keep[u] {
                map[u] = Some(next);
                next += 1;
            }
        }
        let mut arcs = Vec::new();
        for a in &self.arcs {
            if let (Some(s), Some(t)) = (map[a.source], map[a.target]) {
                arcs.push(Arc::new(s, t));
            }
        }
        (Digraph::from_arcs(next, &arcs), map)
    }

    /// Sorted multiset of `(source, target)` pairs — a canonical form used to
    /// compare two digraphs on the *same* labelled node set.
    pub fn sorted_arc_list(&self) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<(NodeId, NodeId)> = self.arcs.iter().map(|a| (a.source, a.target)).collect();
        v.sort_unstable();
        v
    }

    /// Returns `true` if the two digraphs have the same node count and exactly
    /// the same multiset of arcs (labelled equality, not isomorphism).
    pub fn same_arcs(&self, other: &Digraph) -> bool {
        self.n == other.n && self.sorted_arc_list() == other.sorted_arc_list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Digraph {
        let mut b = DigraphBuilder::new(n);
        for u in 0..n {
            b.add_arc(u, (u + 1) % n);
        }
        b.build()
    }

    #[test]
    fn builder_counts() {
        let mut b = DigraphBuilder::with_capacity(3, 2);
        b.add_arc(0, 1).add_arc(1, 2);
        assert_eq!(b.node_count(), 3);
        assert_eq!(b.arc_count(), 2);
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_arc_panics_out_of_range() {
        let mut b = DigraphBuilder::new(2);
        b.add_arc(0, 2);
    }

    #[test]
    fn cycle_neighborhoods() {
        let g = cycle(5);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.in_neighbors(0), &[4]);
        assert_eq!(g.out_degree(2), 1);
        assert_eq!(g.in_degree(2), 1);
        assert!(g.is_d_regular(1));
        assert!(!g.is_d_regular(2));
    }

    #[test]
    fn arc_order_is_preserved_per_source() {
        let mut b = DigraphBuilder::new(4);
        b.add_arc(1, 3).add_arc(0, 2).add_arc(1, 0).add_arc(1, 2);
        let g = b.build();
        assert_eq!(g.out_neighbors(1), &[3, 0, 2]);
        assert_eq!(g.out_arc_ids(1), &[0, 2, 3]);
        assert_eq!(g.out_neighbors(0), &[2]);
    }

    #[test]
    fn multigraph_multiplicity() {
        let g = Digraph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.arc_multiplicity(0, 1), 2);
        assert_eq!(g.arc_multiplicity(1, 0), 1);
        assert_eq!(g.arc_multiplicity(1, 1), 0);
        assert!(g.has_arc(0, 1));
        assert!(!g.has_arc(1, 1));
    }

    #[test]
    fn loops_add_and_remove() {
        let g = cycle(3);
        assert_eq!(g.loop_count(), 0);
        let gp = g.with_loops();
        assert_eq!(gp.loop_count(), 3);
        assert_eq!(gp.arc_count(), 6);
        // Adding loops twice does not duplicate them.
        assert_eq!(gp.with_loops().arc_count(), 6);
    }

    #[test]
    fn reverse_involution() {
        let g = Digraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let rr = g.reverse().reverse();
        assert!(g.same_arcs(&rr));
        assert_eq!(g.reverse().out_neighbors(2), &[1, 0]);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Digraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (h, map) = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(h.node_count(), 3);
        // Arcs 2->3 and 3->0 survive, renumbered to 1->2 and 2->0.
        assert_eq!(h.sorted_arc_list(), vec![(1, 2), (2, 0)]);
        assert_eq!(map[0], Some(0));
        assert_eq!(map[1], None);
        assert_eq!(map[2], Some(1));
        assert_eq!(map[3], Some(2));
    }

    #[test]
    fn arc_lookup_and_errors() {
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.arc(1).unwrap(), Arc::new(1, 2));
        assert!(matches!(
            g.arc(5),
            Err(GraphError::ArcOutOfRange { arc: 5, m: 2 })
        ));
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::empty(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.arc_count(), 0);
        assert_eq!(g.max_out_degree(), 0);
    }

    #[test]
    fn same_arcs_detects_difference() {
        let g1 = Digraph::from_edges(3, &[(0, 1), (1, 2)]);
        let g2 = Digraph::from_edges(3, &[(1, 2), (0, 1)]);
        let g3 = Digraph::from_edges(3, &[(0, 1), (2, 1)]);
        assert!(g1.same_arcs(&g2));
        assert!(!g1.same_arcs(&g3));
    }
}
