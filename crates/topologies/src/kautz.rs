//! Kautz graphs `KG(d, k)` and `KG⁺(d, k)`.
//!
//! Two equivalent constructions are provided (both appear in the paper,
//! Definition 2 and Fig. 6):
//!
//! * **word construction** ([`kautz`]): vertices are Kautz words of length
//!   `k` over `{0, …, d}` with distinct consecutive letters, and
//!   `(x₁,…,x_k) → (x₂,…,x_k,z)` for every `z ≠ x_k`;
//! * **line-digraph construction** ([`kautz_by_line_digraph`]):
//!   `KG(d, 1) = K_{d+1}` and `KG(d, k) = L^{k-1}(K_{d+1})`.
//!
//! The word construction yields the canonical node numbering of
//! [`crate::labels::KautzWord::index`]; the line-digraph construction yields a
//! graph isomorphic to it (tests check this).
//!
//! `KG(d, k)` has `N = d^(k-1)(d+1)` nodes, constant in/out degree `d`,
//! diameter `k ≈ log_d N`, and is Eulerian and Hamiltonian; for `d > 2` it is
//! optimal (largest known N) with respect to the directed (d, k) problem.

use crate::complete::complete_digraph;
use crate::labels::KautzWord;
use otis_graphs::line_digraph::line_digraph_iterated;
use otis_graphs::{Digraph, DigraphBuilder};

/// Number of nodes of `KG(d, k)`: `d^(k-1) · (d + 1)`.
///
/// # Panics
/// Panics if `d == 0` or `k == 0`.
pub fn kautz_node_count(d: usize, k: usize) -> usize {
    assert!(
        d >= 1 && k >= 1,
        "Kautz parameters must satisfy d >= 1, k >= 1"
    );
    d.pow((k - 1) as u32) * (d + 1)
}

/// Builds `KG(d, k)` with the word-label construction.
///
/// Node `i` corresponds to the Kautz word `KautzWord::from_index(d, k, i)`,
/// and the out-arcs of a node are inserted in increasing order of the shifted
/// in letter (so the α-th out-arc is well defined, which the routing and OTIS
/// design layers rely on).
pub fn kautz(d: usize, k: usize) -> Digraph {
    let n = kautz_node_count(d, k);
    let mut b = DigraphBuilder::with_capacity(n, n * d);
    for idx in 0..n {
        let w = KautzWord::from_index(d, k, idx).expect("index in range");
        for succ in w.successors() {
            b.add_arc(idx, succ.index());
        }
    }
    b.build()
}

/// Builds `KG⁺(d, k)`: the Kautz graph with one loop added at every node,
/// hence constant degree `d + 1`.  This is the quotient of the stack-Kautz
/// network (Definition 4 of the paper).
pub fn kautz_with_loops(d: usize, k: usize) -> Digraph {
    kautz(d, k).with_loops()
}

/// Builds `KG(d, k)` as the iterated line digraph `L^(k-1)(K_{d+1})`.
///
/// The node numbering differs from [`kautz`] (it follows arc-creation order
/// of the intermediate line digraphs) but the result is isomorphic.
pub fn kautz_by_line_digraph(d: usize, k: usize) -> Digraph {
    assert!(
        d >= 1 && k >= 1,
        "Kautz parameters must satisfy d >= 1, k >= 1"
    );
    line_digraph_iterated(&complete_digraph(d + 1), k - 1)
}

/// A convenience handle bundling the parameters and the constructed digraph,
/// with the word label of each node.
#[derive(Debug, Clone)]
pub struct Kautz {
    d: usize,
    k: usize,
    graph: Digraph,
}

impl Kautz {
    /// Constructs `KG(d, k)` (word construction).
    pub fn new(d: usize, k: usize) -> Self {
        Kautz {
            d,
            k,
            graph: kautz(d, k),
        }
    }

    /// Degree `d`.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The underlying digraph.
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// The word label of node `index`.
    pub fn label(&self, index: usize) -> KautzWord {
        KautzWord::from_index(self.d, self.k, index).expect("index in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{diameter, is_eulerian, is_hamiltonian, is_strongly_connected};
    use otis_graphs::are_isomorphic;

    #[test]
    fn node_counts() {
        assert_eq!(kautz_node_count(2, 1), 3);
        assert_eq!(kautz_node_count(2, 2), 6);
        assert_eq!(kautz_node_count(2, 3), 12);
        assert_eq!(kautz_node_count(3, 2), 12);
        // The paper's §2.5 example claims KG(5,4) has 3750 nodes, but the
        // formula N = d^(k-1)(d+1) it states two sentences earlier gives
        // 5³·6 = 750; 3750 = 5⁴·6 is KG(5,5). We follow the formula (the
        // standard Kautz count) and record the discrepancy in EXPERIMENTS.md.
        assert_eq!(kautz_node_count(5, 4), 750);
        assert_eq!(kautz_node_count(5, 5), 3750);
    }

    #[test]
    fn kautz_is_d_regular_with_right_size() {
        for (d, k) in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)] {
            let g = kautz(d, k);
            assert_eq!(g.node_count(), kautz_node_count(d, k));
            assert_eq!(g.arc_count(), g.node_count() * d);
            assert!(g.is_d_regular(d), "KG({d},{k}) must be {d}-regular");
            assert_eq!(g.loop_count(), 0);
        }
    }

    #[test]
    fn kautz_diameter_is_k() {
        for (d, k) in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)] {
            let g = kautz(d, k);
            assert_eq!(diameter(&g), Some(k as u32), "diameter of KG({d},{k})");
        }
    }

    #[test]
    fn kautz_1_is_complete() {
        let g = kautz(3, 1);
        assert!(g.same_arcs(&complete_digraph(4)));
    }

    #[test]
    fn word_and_line_digraph_constructions_are_isomorphic() {
        for (d, k) in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)] {
            let a = kautz(d, k);
            let b = kautz_by_line_digraph(d, k);
            assert_eq!(a.node_count(), b.node_count());
            assert_eq!(a.arc_count(), b.arc_count());
            assert!(are_isomorphic(&a, &b), "KG({d},{k}) constructions disagree");
        }
    }

    #[test]
    fn kautz_is_eulerian_and_hamiltonian() {
        let g = kautz(2, 3);
        assert!(is_eulerian(&g));
        assert!(is_hamiltonian(&g));
        let g2 = kautz(3, 2);
        assert!(is_eulerian(&g2));
        assert!(is_hamiltonian(&g2));
    }

    #[test]
    fn kautz_with_loops_degree() {
        let g = kautz_with_loops(3, 2);
        assert!(g.is_d_regular(4));
        assert_eq!(g.loop_count(), 12);
    }

    #[test]
    fn kautz_strongly_connected() {
        assert!(is_strongly_connected(&kautz(2, 4)));
        assert!(is_strongly_connected(&kautz(4, 2)));
    }

    #[test]
    fn arcs_follow_word_shifts() {
        let kz = Kautz::new(2, 3);
        for idx in 0..kz.node_count() {
            let w = kz.label(idx);
            let succ_indices: Vec<usize> = w.successors().iter().map(|s| s.index()).collect();
            assert_eq!(kz.graph().out_neighbors(idx), succ_indices.as_slice());
        }
    }

    #[test]
    fn handle_roundtrip() {
        let kz = Kautz::new(3, 2);
        assert_eq!(kz.degree(), 3);
        assert_eq!(kz.node_count(), kautz_node_count(3, 2));
        for idx in 0..kz.node_count() {
            assert_eq!(kz.label(idx).index(), idx);
        }
    }

    #[test]
    #[should_panic(expected = "d >= 1")]
    fn zero_degree_panics() {
        kautz_node_count(0, 2);
    }

    #[test]
    fn larger_instance_properties() {
        // KG(4,3): 80 nodes, degree 4, diameter 3.
        let g = kautz(4, 3);
        assert_eq!(g.node_count(), 80);
        assert!(g.is_d_regular(4));
        assert_eq!(diameter(&g), Some(3));
    }
}
