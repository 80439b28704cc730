//! Eulerian digraphs.
//!
//! The paper notes (§2.5) that the Kautz graph is both Eulerian and
//! Hamiltonian; these checks let the reproduction verify that claim on
//! concrete instances rather than citing it.

use crate::algorithms::connectivity::is_strongly_connected;
use crate::digraph::Digraph;

/// Returns `true` if the digraph has an Eulerian circuit: it is connected (in
/// the strong sense, once isolated nodes are ignored) and every node has
/// equal in- and out-degree.
///
/// Loops are allowed; they contribute one to both degrees of their node.
pub fn is_eulerian(g: &Digraph) -> bool {
    if g.arc_count() == 0 {
        // Degenerate but conventional: a graph with no arcs has a trivial
        // (empty) Eulerian circuit.
        return true;
    }
    for u in 0..g.node_count() {
        if g.in_degree(u) != g.out_degree(u) {
            return false;
        }
    }
    // Strong connectivity restricted to non-isolated nodes.
    let keep: Vec<bool> = (0..g.node_count())
        .map(|u| g.in_degree(u) + g.out_degree(u) > 0)
        .collect();
    let (sub, _) = g.induced_subgraph(&keep);
    is_strongly_connected(&sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DigraphBuilder;

    fn cycle(n: usize) -> Digraph {
        let mut b = DigraphBuilder::new(n);
        for u in 0..n {
            b.add_arc(u, (u + 1) % n);
        }
        b.build()
    }

    fn complete(n: usize) -> Digraph {
        let mut b = DigraphBuilder::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    b.add_arc(u, v);
                }
            }
        }
        b.build()
    }

    #[test]
    fn cycle_is_eulerian() {
        assert!(is_eulerian(&cycle(5)));
    }

    #[test]
    fn complete_digraph_is_eulerian() {
        let g = complete(4);
        assert!(is_eulerian(&g));
    }

    #[test]
    fn unbalanced_is_not_eulerian() {
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!is_eulerian(&g));
    }

    #[test]
    fn disconnected_balanced_is_not_eulerian() {
        // Two disjoint 2-cycles: balanced but not connected.
        let g = Digraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert!(!is_eulerian(&g));
    }

    #[test]
    fn isolated_nodes_are_ignored() {
        // A 3-cycle plus two isolated nodes is still Eulerian.
        let g = Digraph::from_edges(5, &[(0, 1), (1, 2), (2, 0)]);
        assert!(is_eulerian(&g));
    }

    #[test]
    fn loops_are_traversed() {
        let g = Digraph::from_edges(2, &[(0, 1), (1, 0), (0, 0)]);
        assert!(is_eulerian(&g));
    }

    #[test]
    fn empty_graph_convention() {
        assert!(is_eulerian(&Digraph::empty(3)));
    }
}
