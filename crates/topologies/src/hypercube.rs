//! Binary hypercubes `Q_n`.
//!
//! Zane, Marchand, Paturi and Esener (ref \[24\] of the paper) showed that the
//! OTIS architecture can realize the interconnections of hypercubes, 4-D
//! meshes, mesh-of-trees and butterflies by replacing bundles of electrical
//! wires with transmitter/receiver pairs.  The reproduction includes these
//! families both as comparison topologies and as additional OTIS-design
//! targets.
//!
//! `Q_n` has `2^n` nodes; node `u` is adjacent (symmetrically, modelled as two
//! opposite arcs) to `u ⊕ 2^i` for every bit position `i`.

use otis_graphs::{Digraph, DigraphBuilder};

/// Number of nodes of the `n`-dimensional hypercube: `2^n`.
pub fn hypercube_node_count(n: usize) -> usize {
    1usize << n
}

/// Builds the `n`-dimensional binary hypercube as a symmetric digraph
/// (each undirected edge becomes two opposite arcs).
pub fn hypercube(n: usize) -> Digraph {
    assert!(
        n <= 30,
        "hypercube dimension too large for an in-memory digraph"
    );
    let count = hypercube_node_count(n);
    let mut b = DigraphBuilder::with_capacity(count, count * n);
    for u in 0..count {
        for i in 0..n {
            b.add_arc(u, u ^ (1 << i));
        }
    }
    b.build()
}

/// Hamming distance between two node labels — the hypercube graph distance.
pub fn hamming_distance(u: usize, v: usize) -> u32 {
    ((u ^ v) as u64).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{bfs_distances, diameter, is_strongly_connected};

    #[test]
    fn counts_and_regularity() {
        for n in 1..=6 {
            let g = hypercube(n);
            assert_eq!(g.node_count(), 1 << n);
            assert_eq!(g.arc_count(), (1 << n) * n);
            assert!(g.is_d_regular(n));
            assert_eq!(g.loop_count(), 0);
        }
    }

    #[test]
    fn diameter_is_dimension() {
        for n in 1..=6 {
            assert_eq!(diameter(&hypercube(n)), Some(n as u32));
        }
    }

    #[test]
    fn distances_are_hamming() {
        let g = hypercube(5);
        let dist = bfs_distances(&g, 0);
        for (v, &bfs) in dist.iter().enumerate() {
            assert_eq!(bfs, hamming_distance(0, v));
        }
    }

    #[test]
    fn strongly_connected_and_symmetric() {
        let g = hypercube(4);
        assert!(is_strongly_connected(&g));
        for a in g.arcs() {
            assert!(g.has_arc(a.target, a.source));
        }
    }

    #[test]
    fn zero_dimensional_cube() {
        let g = hypercube(0);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.arc_count(), 0);
    }
}
