//! The line-digraph operator `L(G)` and its iterates.
//!
//! Fiol, Yebra and Alegre (1984) showed that the Kautz graph can be defined
//! by line-digraph iteration: `KG(d, 1) = K_{d+1}` (the complete digraph
//! without loops) and `KG(d, k) = L^{k-1}(K_{d+1})`.  The paper uses that
//! characterisation (Fig. 6) alongside the word-label definition; the
//! reproduction constructs Kautz graphs both ways and checks they agree.
//!
//! In `L(G)` there is one node per arc of `G`, and an arc from (the node
//! representing) arc `a = (u, v)` to arc `b = (v, w)` whenever `a`'s head is
//! `b`'s tail.

use crate::digraph::{Arc, Digraph};

/// Computes the line digraph `L(G)`.
///
/// The node of `L(G)` with identifier `i` corresponds to the arc of `G` with
/// identifier `i` (insertion order), so callers can recover the
/// correspondence through [`Digraph::arc`].
pub fn line_digraph(g: &Digraph) -> Digraph {
    let m = g.arc_count();
    // Number of arcs of L(G) = sum over nodes v of in_deg(v) * out_deg(v).
    let mut arc_estimate = 0usize;
    for v in 0..g.node_count() {
        arc_estimate += g.in_degree(v) * g.out_degree(v);
    }
    let mut arcs = Vec::with_capacity(arc_estimate);
    for (a_id, a) in g.arcs().iter().enumerate() {
        // Arcs leaving the head of `a`.
        for &b_id in g.out_arc_ids(a.target) {
            arcs.push(Arc::new(a_id, b_id));
        }
    }
    Digraph::from_arcs(m, &arcs)
}

/// Applies the line-digraph operator `times` times; `times == 0` returns a
/// copy of `g`.
pub fn line_digraph_iterated(g: &Digraph, times: usize) -> Digraph {
    let mut current = g.clone();
    for _ in 0..times {
        current = line_digraph(&current);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{diameter, is_strongly_connected};
    use crate::digraph::DigraphBuilder;

    fn complete_without_loops(n: usize) -> Digraph {
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
    fn line_of_cycle_is_cycle() {
        let mut b = DigraphBuilder::new(4);
        for u in 0..4 {
            b.add_arc(u, (u + 1) % 4);
        }
        let g = b.build();
        let l = line_digraph(&g);
        assert_eq!(l.node_count(), 4);
        assert_eq!(l.arc_count(), 4);
        assert!(is_strongly_connected(&l));
        assert!(l.is_d_regular(1));
    }

    #[test]
    fn size_formulas_match() {
        let g = complete_without_loops(4);
        let l = line_digraph(&g);
        // L(G) has one node per arc of G and Σ_v indeg(v)·outdeg(v) arcs.
        assert_eq!(l.node_count(), g.arc_count());
        let size: usize = (0..g.node_count())
            .map(|v| g.in_degree(v) * g.out_degree(v))
            .sum();
        assert_eq!(l.arc_count(), size);
        // K_4 without loops: 12 arcs, each node has in=out=3 so L has 12 nodes
        // and 4 * 3 * 3 = 36 arcs.
        assert_eq!(l.node_count(), 12);
        assert_eq!(l.arc_count(), 36);
    }

    #[test]
    fn line_digraph_preserves_d_regularity() {
        let g = complete_without_loops(3); // 2-regular
        let l = line_digraph(&g);
        assert!(l.is_d_regular(2));
        let ll = line_digraph(&l);
        assert!(ll.is_d_regular(2));
    }

    #[test]
    fn kautz_by_iteration_has_expected_order_and_diameter() {
        // KG(2, k) = L^{k-1}(K_3): N = 2^{k-1} * 3, diameter k.
        let k3 = complete_without_loops(3);
        for k in 1..=5usize {
            let g = line_digraph_iterated(&k3, k - 1);
            assert_eq!(g.node_count(), 3 * (1 << (k - 1)));
            assert_eq!(diameter(&g), Some(k as u32));
        }
    }

    #[test]
    fn iterated_zero_is_identity() {
        let g = complete_without_loops(4);
        let same = line_digraph_iterated(&g, 0);
        assert!(g.same_arcs(&same));
    }

    #[test]
    fn line_digraph_of_empty() {
        let g = Digraph::empty(3);
        let l = line_digraph(&g);
        assert_eq!(l.node_count(), 0);
        assert_eq!(l.arc_count(), 0);
    }

    #[test]
    fn loop_becomes_loop() {
        // A single node with a loop: L(G) has one node (the loop arc) and one
        // arc (loop follows itself).
        let g = Digraph::from_edges(1, &[(0, 0)]);
        let l = line_digraph(&g);
        assert_eq!(l.node_count(), 1);
        assert_eq!(l.arc_count(), 1);
        assert!(l.has_arc(0, 0));
    }
}
