//! de Bruijn digraphs `B(d, k)`.
//!
//! The de Bruijn graph is the classic single-OPS / WDM lightwave-network
//! topology (Sivarajan & Ramaswami, ref \[22\] of the paper) and is the natural
//! baseline against which the Kautz-based designs are compared: for the same
//! degree `d` and diameter `k`, `B(d, k)` has `d^k` nodes, slightly fewer
//! than the `d^k + d^(k-1)` of `KG(d, k)`.
//!
//! Nodes are the words of length `k` over `{0, …, d−1}` (equivalently the
//! integers `0 .. d^k`), with an arc from `u` to every `v ≡ (d·u + α) mod
//! d^k`, `0 ≤ α < d` — the shift-register construction.

use otis_graphs::{Digraph, DigraphBuilder};

/// Number of nodes of `B(d, k)`: `d^k`.
pub fn de_bruijn_node_count(d: usize, k: usize) -> usize {
    assert!(
        d >= 1 && k >= 1,
        "de Bruijn parameters must satisfy d >= 1, k >= 1"
    );
    d.pow(k as u32)
}

/// Builds the de Bruijn digraph `B(d, k)`.
///
/// Loops are present (at the all-same-letter words), matching the standard
/// definition.
pub fn de_bruijn(d: usize, k: usize) -> Digraph {
    let n = de_bruijn_node_count(d, k);
    let mut b = DigraphBuilder::with_capacity(n, n * d);
    for u in 0..n {
        for alpha in 0..d {
            b.add_arc(u, (d * u + alpha) % n);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kautz::kautz_node_count;
    use otis_graphs::algorithms::{diameter, is_strongly_connected};
    use otis_graphs::are_isomorphic;
    use otis_graphs::line_digraph::line_digraph;

    #[test]
    fn counts_and_regularity() {
        for (d, k) in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)] {
            let g = de_bruijn(d, k);
            assert_eq!(g.node_count(), de_bruijn_node_count(d, k));
            assert_eq!(g.arc_count(), g.node_count() * d);
            assert!(g.is_d_regular(d));
        }
    }

    #[test]
    fn diameter_is_k() {
        for (d, k) in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)] {
            assert_eq!(diameter(&de_bruijn(d, k)), Some(k as u32));
        }
    }

    #[test]
    fn has_exactly_d_loops() {
        // The words 00…0, 11…1, …, (d-1)(d-1)…(d-1) carry loops.
        for (d, k) in [(2, 3), (3, 2), (4, 2)] {
            assert_eq!(de_bruijn(d, k).loop_count(), d);
        }
    }

    #[test]
    fn strongly_connected() {
        assert!(is_strongly_connected(&de_bruijn(2, 5)));
        assert!(is_strongly_connected(&de_bruijn(3, 3)));
    }

    #[test]
    fn line_digraph_of_de_bruijn_is_de_bruijn() {
        // B(d, k+1) = L(B(d, k)), up to DB(2, 10).
        for (d, k) in (1..10).map(|k| (2, k)).chain([(3, 2)]) {
            let l = line_digraph(&de_bruijn(d, k));
            assert!(are_isomorphic(&l, &de_bruijn(d, k + 1)));
        }
    }

    #[test]
    fn kautz_beats_de_bruijn_in_node_count() {
        // Same degree and diameter: KG has d^(k-1) more nodes.
        for (d, k) in [(2, 3), (3, 2), (4, 3), (5, 4)] {
            assert_eq!(
                kautz_node_count(d, k),
                de_bruijn_node_count(d, k) + d.pow((k - 1) as u32)
            );
        }
    }
}
