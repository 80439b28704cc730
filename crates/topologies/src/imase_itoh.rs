//! Imase–Itoh graphs `II(d, n)`.
//!
//! Definition 3 of the paper: nodes are the integers modulo `n`, and there is
//! an arc from `u` to every `v ≡ (−d·u − α) mod n` for `1 ≤ α ≤ d`.
//! `II(d, n)` has constant out-degree (and in-degree) `d`, diameter
//! `⌈log_d n⌉`, and — crucially for the paper — `II(d, d^(k-1)(d+1))` *is*
//! the Kautz graph `KG(d, k)`, which is how the OTIS realization of
//! Imase–Itoh graphs (Proposition 1) transfers to Kautz graphs
//! (Corollary 1).
//!
//! Unlike the Kautz family, `II(d, n)` is defined for **every** `n`, which is
//! why Imase and Itoh introduced it: it gives near-optimal (d, k) digraphs of
//! arbitrary size.  For some small `n` the construction produces loops or
//! parallel arcs; they are kept (the graph is then a multidigraph), matching
//! the congruence definition.

use otis_graphs::{Digraph, DigraphBuilder};

/// Out-neighbours of node `u` in `II(d, n)`, in the order `α = 1, 2, …, d`:
/// `v_α ≡ (−d·u − α) mod n`.
///
/// This α-order is exactly the order in which the OTIS design of
/// Proposition 1 wires the `d` transmitters of node `u`, so the α-th
/// out-neighbour here corresponds to the α-th OTIS input associated with `u`.
pub fn imase_itoh_neighbors(d: usize, n: usize, u: usize) -> Vec<usize> {
    assert!(d >= 1, "degree d must be >= 1");
    assert!(n >= 1, "node count n must be >= 1");
    assert!(u < n, "node {u} out of range for n = {n}");
    (1..=d)
        .map(|alpha| {
            // Compute (-(d*u) - alpha) mod n without underflow using i128
            // (d·u + α can exceed u64 for the largest sweeps we allow).
            let s = (d as i128) * (u as i128) + (alpha as i128);
            let m = n as i128;
            let r = ((-s) % m + m) % m;
            r as usize
        })
        .collect()
}

/// Builds the Imase–Itoh graph `II(d, n)`.
pub fn imase_itoh(d: usize, n: usize) -> Digraph {
    assert!(d >= 1, "degree d must be >= 1");
    assert!(n >= 1, "node count n must be >= 1");
    let mut b = DigraphBuilder::with_capacity(n, n * d);
    for u in 0..n {
        for v in imase_itoh_neighbors(d, n, u) {
            b.add_arc(u, v);
        }
    }
    b.build()
}

/// The diameter guaranteed by Imase and Itoh: `⌈log_d n⌉`.
pub fn imase_itoh_diameter_bound(d: usize, n: usize) -> u32 {
    assert!(d >= 2, "the log_d bound needs d >= 2");
    assert!(n >= 1);
    // Smallest k with d^k >= n.
    let mut k = 0u32;
    let mut power = 1usize;
    while power < n {
        power = power.saturating_mul(d);
        k += 1;
    }
    k
}

/// Convenience handle bundling the parameters and the constructed digraph.
#[derive(Debug, Clone)]
pub struct ImaseItoh {
    d: usize,
    n: usize,
    graph: Digraph,
}

impl ImaseItoh {
    /// Constructs `II(d, n)`.
    pub fn new(d: usize, n: usize) -> Self {
        ImaseItoh {
            d,
            n,
            graph: imase_itoh(d, n),
        }
    }

    /// Degree `d`.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The underlying digraph.
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kautz::{kautz, kautz_node_count};
    use otis_graphs::algorithms::{diameter, is_strongly_connected};
    use otis_graphs::are_isomorphic;
    use otis_graphs::isomorphism::{find_isomorphism, is_isomorphism};

    #[test]
    fn neighbor_formula_small() {
        // II(3, 12), node 0: v = (-0 - alpha) mod 12 = 12 - alpha.
        assert_eq!(imase_itoh_neighbors(3, 12, 0), vec![11, 10, 9]);
        // Node 1: v = (-3 - alpha) mod 12.
        assert_eq!(imase_itoh_neighbors(3, 12, 1), vec![8, 7, 6]);
        // Node 11: -33 - alpha mod 12 = (-33-1)=-34 mod 12 = 2, then 1, 0.
        assert_eq!(imase_itoh_neighbors(3, 12, 11), vec![2, 1, 0]);
    }

    #[test]
    fn regular_degree_and_size() {
        for (d, n) in [(2, 7), (3, 12), (3, 17), (4, 30), (2, 25)] {
            let g = imase_itoh(d, n);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.arc_count(), n * d);
            // Out-degree is d by construction; in-degree is d too because the
            // map α ↦ (−d·u − α) partitions Z_n evenly.
            for u in 0..n {
                assert_eq!(g.out_degree(u), d);
                assert_eq!(g.in_degree(u), d);
            }
        }
    }

    #[test]
    fn diameter_within_bound() {
        for (d, n) in [(2, 7), (2, 12), (3, 12), (3, 20), (4, 50), (5, 100)] {
            let g = imase_itoh(d, n);
            assert!(
                is_strongly_connected(&g),
                "II({d},{n}) must be strongly connected"
            );
            let dia = diameter(&g).unwrap();
            let bound = imase_itoh_diameter_bound(d, n);
            assert!(
                dia <= bound,
                "II({d},{n}) diameter {dia} exceeds ceil(log_d n) = {bound}"
            );
        }
    }

    #[test]
    fn ii_at_kautz_size_is_kautz() {
        // §2.6: II(d, d^(k-1)(d+1)) is the Kautz graph KG(d, k), at every
        // size `reproduce cor1` lists.
        for (d, k) in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)] {
            let n = kautz_node_count(d, k);
            let ii = imase_itoh(d, n);
            let kg = kautz(d, k);
            assert!(
                are_isomorphic(&ii, &kg),
                "II({d},{n}) should be KG({d},{k})"
            );
        }
    }

    #[test]
    fn corollary_1_holds_at_scale_with_checked_witnesses() {
        // Thousand-node instances of II(d, d^(k-1)(d+1)) = KG(d, k); each
        // witness is re-checked arc by arc.
        for (d, k) in [(2, 10), (3, 6), (4, 5)] {
            let n = kautz_node_count(d, k);
            let ii = imase_itoh(d, n);
            let kg = kautz(d, k);
            let witness = find_isomorphism(&ii, &kg)
                .unwrap_or_else(|| panic!("II({d},{n}) should be KG({d},{k})"));
            assert!(is_isomorphism(&ii, &kg, &witness));
        }
    }

    #[test]
    fn ii_3_12_is_kautz_3_2_with_same_diameter() {
        let g = imase_itoh(3, 12);
        assert_eq!(diameter(&g), Some(2));
        assert_eq!(g.loop_count(), 0);
    }

    #[test]
    fn small_n_allows_loops_and_multiarcs() {
        // II(2, 3): u=1 has neighbours (-2-1)=0, (-2-2)=2... let's just check
        // the defining congruence holds for every arc.
        for (d, n) in [(2, 3), (3, 4), (2, 2), (3, 5)] {
            let g = imase_itoh(d, n);
            for u in 0..n {
                let nbrs = imase_itoh_neighbors(d, n, u);
                assert_eq!(g.out_neighbors(u), nbrs.as_slice());
                for (i, &v) in nbrs.iter().enumerate() {
                    let alpha = i + 1;
                    assert_eq!(
                        (v + d * u + alpha) % n,
                        0,
                        "arc ({u},{v}) violates v ≡ -du-α (mod {n})"
                    );
                }
            }
        }
    }

    #[test]
    fn handle_accessors() {
        let ii = ImaseItoh::new(3, 12);
        assert_eq!(ii.degree(), 3);
        assert_eq!(ii.node_count(), 12);
        assert_eq!(ii.graph().out_neighbors(0), &[11, 10, 9]);
        assert_eq!(ii.graph().arc_count(), 36);
    }

    #[test]
    fn diameter_bound_values() {
        assert_eq!(imase_itoh_diameter_bound(2, 1), 0);
        assert_eq!(imase_itoh_diameter_bound(2, 2), 1);
        assert_eq!(imase_itoh_diameter_bound(2, 8), 3);
        assert_eq!(imase_itoh_diameter_bound(2, 9), 4);
        assert_eq!(imase_itoh_diameter_bound(3, 12), 3);
        assert_eq!(imase_itoh_diameter_bound(10, 1000), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbor_out_of_range_panics() {
        imase_itoh_neighbors(2, 5, 5);
    }
}
