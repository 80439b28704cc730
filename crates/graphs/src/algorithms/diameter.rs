//! Diameter and average distance.
//!
//! The paper states closed-form diameters for its topology families (Kautz
//! `KG(d,k)` has diameter `k`, Imase–Itoh `II(d,n)` has diameter `⌈log_d n⌉`,
//! the stack-Kautz inherits the diameter of its quotient).  These functions
//! compute the quantities from scratch so that the reproduction can *check*
//! the closed forms instead of assuming them.

use crate::algorithms::bfs::{bfs_distances_into, UNREACHABLE};
use crate::digraph::Digraph;

/// Diameter of the digraph: the maximum BFS distance over all ordered pairs.
///
/// Returns `None` when the digraph is not strongly connected (some ordered
/// pair has no directed path) or has no nodes.
pub fn diameter(g: &Digraph) -> Option<u32> {
    if g.node_count() == 0 {
        return None;
    }
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut best = 0u32;
    for u in 0..g.node_count() {
        bfs_distances_into(g, u, &mut dist);
        for &d in &dist {
            if d == UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// Average directed distance over all ordered pairs `(u, v)` with `u != v`.
///
/// Returns `None` for graphs with fewer than two nodes or when some ordered
/// pair is disconnected.
pub fn average_distance(g: &Digraph) -> Option<f64> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let mut dist = vec![UNREACHABLE; n];
    let mut total: u64 = 0;
    for u in 0..n {
        bfs_distances_into(g, u, &mut dist);
        for (v, &d) in dist.iter().enumerate() {
            if v == u {
                continue;
            }
            if d == UNREACHABLE {
                return None;
            }
            total += u64::from(d);
        }
    }
    Some(total as f64 / (n as f64 * (n as f64 - 1.0)))
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
    fn cycle_diameter() {
        assert_eq!(diameter(&cycle(6)), Some(5));
    }

    #[test]
    fn complete_diameter() {
        assert_eq!(diameter(&complete(5)), Some(1));
        assert_eq!(average_distance(&complete(5)), Some(1.0));
    }

    #[test]
    fn disconnected_returns_none() {
        let g = Digraph::from_edges(3, &[(0, 1)]);
        assert_eq!(diameter(&g), None);
        assert_eq!(average_distance(&g), None);
    }

    #[test]
    fn average_distance_cycle() {
        // In a directed 4-cycle the distances from any node are 1, 2, 3.
        let g = cycle(4);
        assert_eq!(average_distance(&g), Some(2.0));
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(diameter(&Digraph::empty(0)), None);
        assert_eq!(average_distance(&Digraph::empty(1)), None);
        assert_eq!(diameter(&Digraph::empty(1)), Some(0));
    }
}
