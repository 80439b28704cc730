//! Breadth-first search primitives.

use crate::digraph::{Digraph, NodeId};
use std::collections::VecDeque;

/// Sentinel distance meaning "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// Returns the vector of BFS distances (in arcs) from `source` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`]. Loops never shorten a distance, and
/// multi-arcs behave like single arcs, so the result is the usual unweighted
/// shortest-path distance.
pub fn bfs_distances(g: &Digraph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    bfs_distances_into(g, source, &mut dist);
    dist
}

/// In-place variant of [`bfs_distances`]: fills `dist` (which must have length
/// `g.node_count()`) and avoids reallocation across repeated calls.
///
/// This is the inner loop of diameter computation over all sources, so it is
/// written to touch each arc at most once.
pub fn bfs_distances_into(g: &Digraph, source: NodeId, dist: &mut [u32]) {
    assert_eq!(
        dist.len(),
        g.node_count(),
        "distance buffer has wrong length"
    );
    assert!(source < g.node_count(), "source out of range");
    for d in dist.iter_mut() {
        *d = UNREACHABLE;
    }
    let mut queue = VecDeque::with_capacity(64);
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for &v in g.out_neighbors(u) {
            if dist[v] == UNREACHABLE {
                dist[v] = du + 1;
                queue.push_back(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DigraphBuilder;

    fn path(n: usize) -> Digraph {
        let mut b = DigraphBuilder::new(n);
        for u in 0..n - 1 {
            b.add_arc(u, u + 1);
        }
        b.build()
    }

    #[test]
    fn distances_on_a_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, 2);
        assert_eq!(d2[0], UNREACHABLE);
        assert_eq!(d2[4], 2);
    }

    #[test]
    fn loops_do_not_affect_distances() {
        let g = path(3).with_loops();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2]);
    }

    #[test]
    fn reachability_count() {
        let g = path(4);
        let reached = |src| {
            bfs_distances(&g, src)
                .iter()
                .filter(|&&d| d != UNREACHABLE)
                .count()
        };
        assert_eq!(reached(0), 4);
        assert_eq!(reached(3), 1);
    }

    #[test]
    fn into_variant_reuses_buffer() {
        let g = path(4);
        let mut buf = vec![0u32; 4];
        bfs_distances_into(&g, 1, &mut buf);
        assert_eq!(buf, vec![UNREACHABLE, 0, 1, 2]);
        bfs_distances_into(&g, 0, &mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn into_variant_checks_length() {
        let g = path(4);
        let mut buf = vec![0u32; 3];
        bfs_distances_into(&g, 0, &mut buf);
    }
}
