//! Butterfly networks.
//!
//! The last of the four families Zane et al. (ref \[24\]) realize with OTIS.
//! The `k`-dimensional (unwrapped) butterfly has `(k+1)·2^k` nodes arranged in
//! `k+1` levels of `2^k` rows; node `(level, row)` with `level < k` is joined
//! to `(level+1, row)` (straight edge) and `(level+1, row ⊕ 2^level)` (cross
//! edge).  The wrapped butterfly identifies level `k` with level `0`.
//!
//! Arcs are directed from level `ℓ` to level `ℓ+1` and back (symmetric
//! modelling) for the unwrapped variant, matching how the network is used as
//! a multistage interconnect.

use otis_graphs::{Digraph, DigraphBuilder};

/// Number of nodes of the unwrapped `k`-dimensional butterfly: `(k+1)·2^k`.
pub fn butterfly_node_count(k: usize) -> usize {
    (k + 1) * (1usize << k)
}

/// Node identifier of `(level, row)` in the unwrapped butterfly.
pub fn butterfly_index(k: usize, level: usize, row: usize) -> usize {
    assert!(level <= k, "level out of range");
    assert!(row < (1 << k), "row out of range");
    level * (1usize << k) + row
}

/// Builds the unwrapped `k`-dimensional butterfly as a symmetric digraph.
pub fn butterfly(k: usize) -> Digraph {
    assert!(
        (1..=24).contains(&k),
        "butterfly dimension must be in 1..=24"
    );
    let rows = 1usize << k;
    let mut b = DigraphBuilder::new(butterfly_node_count(k));
    for level in 0..k {
        for row in 0..rows {
            let here = butterfly_index(k, level, row);
            let straight = butterfly_index(k, level + 1, row);
            let cross = butterfly_index(k, level + 1, row ^ (1 << level));
            for &t in &[straight, cross] {
                b.add_arc(here, t);
                b.add_arc(t, here);
            }
        }
    }
    b.build()
}

/// Builds the wrapped `k`-dimensional butterfly (levels `0..k`, level `k`
/// identified with level `0`), a `2d`-regular digraph on `k·2^k` nodes.
pub fn wrapped_butterfly(k: usize) -> Digraph {
    assert!(
        (2..=24).contains(&k),
        "wrapped butterfly dimension must be in 2..=24"
    );
    let rows = 1usize << k;
    let n = k * rows;
    let idx = |level: usize, row: usize| (level % k) * rows + row;
    let mut b = DigraphBuilder::new(n);
    for level in 0..k {
        for row in 0..rows {
            let here = idx(level, row);
            let straight = idx(level + 1, row);
            let cross = idx(level + 1, row ^ (1 << level));
            for &t in &[straight, cross] {
                b.add_arc(here, t);
                b.add_arc(t, here);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{diameter, is_strongly_connected};

    #[test]
    fn node_counts() {
        assert_eq!(butterfly_node_count(1), 4);
        assert_eq!(butterfly_node_count(2), 12);
        assert_eq!(butterfly_node_count(3), 32);
        for k in 1..=4 {
            assert_eq!(butterfly(k).node_count(), butterfly_node_count(k));
        }
    }

    #[test]
    fn arc_counts() {
        // k levels of 2^k rows, each node has straight + cross forward edges,
        // each modelled as 2 arcs.
        for k in 1..=4 {
            let g = butterfly(k);
            assert_eq!(g.arc_count(), k * (1 << k) * 2 * 2);
        }
    }

    #[test]
    fn degrees() {
        let k = 3;
        let g = butterfly(k);
        // End levels have degree 2, middle levels degree 4.
        for row in 0..(1 << k) {
            assert_eq!(g.out_degree(butterfly_index(k, 0, row)), 2);
            assert_eq!(g.out_degree(butterfly_index(k, k, row)), 2);
            for level in 1..k {
                assert_eq!(g.out_degree(butterfly_index(k, level, row)), 4);
            }
        }
    }

    #[test]
    fn connected_with_expected_diameter() {
        // Unwrapped butterfly diameter is 2k.
        for k in 1..=4 {
            let g = butterfly(k);
            assert!(is_strongly_connected(&g));
            assert_eq!(diameter(&g), Some(2 * k as u32));
        }
    }

    #[test]
    fn wrapped_butterfly_is_regular() {
        let g = wrapped_butterfly(3);
        assert_eq!(g.node_count(), 3 * 8);
        assert!(g.is_d_regular(4));
        assert!(is_strongly_connected(&g));
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn index_checks_level() {
        butterfly_index(2, 3, 0);
    }
}
