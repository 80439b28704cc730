//! Explicit shortest paths, including fault-avoiding variants.
//!
//! Routing on Kautz-like topologies is normally done from node labels
//! (see the `otis-routing` crate); the functions here are the *reference*
//! implementations the label-based routers are checked against, plus the
//! fault-avoiding search used to validate the fault-tolerance claims of the
//! paper (§2.5: a routing of length at most `k + 2` surviving `d − 1` faults).

use crate::digraph::{Digraph, NodeId};
use std::collections::VecDeque;

/// Returns one shortest directed path from `source` to `target` as a vector
/// of nodes (starting with `source`, ending with `target`), or `None` if
/// `target` is unreachable.
///
/// A path from a node to itself is the single-node path `[source]`.
pub fn shortest_path(g: &Digraph, source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    shortest_path_avoiding(g, source, target, |_, _| false)
}

/// Shortest path that never uses an arc `(u, v)` for which `blocked(u, v)`
/// returns `true`. Used for fault-tolerant routing validation: faults are
/// expressed as a blocked-arc predicate (a failed node is modelled by
/// blocking all of its incident arcs).
pub fn shortest_path_avoiding<F>(
    g: &Digraph,
    source: NodeId,
    target: NodeId,
    blocked: F,
) -> Option<Vec<NodeId>>
where
    F: Fn(NodeId, NodeId) -> bool,
{
    assert!(
        source < g.node_count() && target < g.node_count(),
        "endpoint out of range"
    );
    if source == target {
        return Some(vec![source]);
    }
    let n = g.node_count();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[source] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.out_neighbors(u) {
            if seen[v] || blocked(u, v) {
                continue;
            }
            seen[v] = true;
            parent[v] = Some(u);
            if v == target {
                // Reconstruct.
                let mut path = vec![v];
                let mut cur = v;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(v);
        }
    }
    None
}

/// Checks that `path` is a valid directed path in `g` from `path[0]` to
/// `path[last]` (every consecutive pair is an arc).  The empty path is not
/// valid; a single node path is valid if the node exists.
pub fn is_valid_path(g: &Digraph, path: &[NodeId]) -> bool {
    if path.is_empty() {
        return false;
    }
    if path.iter().any(|&u| u >= g.node_count()) {
        return false;
    }
    path.windows(2).all(|w| g.has_arc(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DigraphBuilder;

    fn grid_like() -> Digraph {
        // 0 -> 1 -> 2
        //  \        ^
        //   -> 3 ---+
        Digraph::from_edges(4, &[(0, 1), (1, 2), (0, 3), (3, 2)])
    }

    #[test]
    fn finds_a_shortest_path() {
        let g = grid_like();
        let p = shortest_path(&g, 0, 2).unwrap();
        assert_eq!(p.len(), 3);
        assert!(is_valid_path(&g, &p));
        assert_eq!(p[0], 0);
        assert_eq!(p[2], 2);
    }

    #[test]
    fn self_path_is_trivial() {
        let g = grid_like();
        assert_eq!(shortest_path(&g, 1, 1), Some(vec![1]));
    }

    #[test]
    fn unreachable_gives_none() {
        let g = grid_like();
        assert_eq!(shortest_path(&g, 2, 0), None);
    }

    #[test]
    fn avoiding_blocked_arc_takes_detour() {
        let g = grid_like();
        let p = shortest_path_avoiding(&g, 0, 2, |u, v| (u, v) == (1, 2)).unwrap();
        assert_eq!(p, vec![0, 3, 2]);
        let none = shortest_path_avoiding(&g, 0, 2, |_, v| v == 2);
        assert_eq!(none, None);
    }

    #[test]
    fn length_histogram() {
        let g = grid_like();
        let mut hist = vec![0usize; 3];
        for d in crate::algorithms::bfs::bfs_distances(&g, 0) {
            hist[d as usize] += 1;
        }
        // distance 0: {0}; distance 1: {1,3}; distance 2: {2}
        assert_eq!(hist, vec![1, 2, 1]);
    }

    #[test]
    fn path_validation() {
        let g = grid_like();
        assert!(is_valid_path(&g, &[0, 1, 2]));
        assert!(is_valid_path(&g, &[3]));
        assert!(!is_valid_path(&g, &[]));
        assert!(!is_valid_path(&g, &[0, 2]));
        assert!(!is_valid_path(&g, &[0, 9]));
    }

    #[test]
    fn bfs_shortest_path_is_minimal() {
        let mut b = DigraphBuilder::new(6);
        // Two routes 0->5: length 2 via 4, length 4 via 1,2,3.
        b.add_arc(0, 1).add_arc(1, 2).add_arc(2, 3).add_arc(3, 5);
        b.add_arc(0, 4).add_arc(4, 5);
        let g = b.build();
        assert_eq!(shortest_path(&g, 0, 5).unwrap().len(), 3);
    }
}
