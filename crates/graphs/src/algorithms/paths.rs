//! Explicit shortest paths, including fault-avoiding variants.
//!
//! Routing on Kautz-like topologies is normally done from node labels
//! (see the `otis-routing` crate); the functions here are the *reference*
//! implementations the label-based routers are checked against, plus the
//! fault-avoiding search used to validate the fault-tolerance claims of the
//! paper (§2.5: a routing of length at most `k + 2` surviving `d − 1` faults).

use crate::digraph::{Digraph, NodeId};

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
///
/// The search is breadth-first, expands each node's out-arcs in adjacency
/// order and stops at the first arc that reaches `target`: the same search
/// every spur of [`crate::algorithms::KShortestPaths`] runs.
pub fn shortest_path_avoiding<F>(
    g: &Digraph,
    source: NodeId,
    target: NodeId,
    blocked: F,
) -> Option<Vec<NodeId>>
where
    F: Fn(NodeId, NodeId) -> bool,
{
    let mut searcher = PathSearcher::default();
    searcher.search(g, source, target, blocked).then(|| {
        let mut path = Vec::new();
        searcher.push_path(source, target, &mut path);
        path
    })
}

/// A breadth-first path search whose buffers outlive one search: visited
/// marks are stamped with a per-search counter instead of cleared, parents
/// are `u32` and the frontier is one flat queue, so a caller running many
/// searches (Yen's spur searches) allocates nothing once the buffers have
/// grown to the largest graph searched.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathSearcher {
    /// `seen[v] == stamp`: the current search has reached `v`.
    seen: Vec<u32>,
    stamp: u32,
    /// `parent[v]`: the node the current search reached `v` from.
    parent: Vec<u32>,
    /// The frontier in visiting order; a search expands it front to back.
    queue: Vec<u32>,
}

impl PathSearcher {
    /// Searches from `source` for `target` over the arcs not `blocked`,
    /// breadth-first, expanding each node's out-arcs in adjacency order and
    /// stopping at the first arc that reaches `target`.  Returns whether it
    /// was reached; [`PathSearcher::push_path`] then writes the path.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a node of `g`, or if `g` has more
    /// nodes than a `u32` numbers.
    pub(crate) fn search<F>(
        &mut self,
        g: &Digraph,
        source: NodeId,
        target: NodeId,
        blocked: F,
    ) -> bool
    where
        F: Fn(NodeId, NodeId) -> bool,
    {
        let n = g.node_count();
        assert!(source < n && target < n, "endpoint out of range");
        if source == target {
            return true;
        }
        assert!(
            u32::try_from(n).is_ok(),
            "path searches number nodes with u32"
        );
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.parent.resize(n, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.seen[source] = stamp;
        self.queue.clear();
        self.queue.push(source as u32);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            for &v in g.out_neighbors(u) {
                if self.seen[v] == stamp || blocked(u, v) {
                    continue;
                }
                self.seen[v] = stamp;
                self.parent[v] = u as u32;
                if v == target {
                    return true;
                }
                self.queue.push(v as u32);
            }
        }
        false
    }

    /// Appends the path the last successful [`PathSearcher::search`] found
    /// to `out`, `source` first and `target` last.
    pub(crate) fn push_path(&self, source: NodeId, target: NodeId, out: &mut Vec<NodeId>) {
        let start = out.len();
        let mut v = target;
        out.push(v);
        while v != source {
            v = self.parent[v] as usize;
            out.push(v);
        }
        out[start..].reverse();
    }
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
    fn searcher_survives_stamp_wraparound() {
        // Marks left by the search before the wrap must not read as seen by
        // the searches after it.
        let g = grid_like();
        let mut searcher = PathSearcher::default();
        assert!(searcher.search(&g, 0, 2, |_, _| false));
        searcher.stamp = u32::MAX - 1;
        for _ in 0..3 {
            assert!(searcher.search(&g, 0, 2, |u, v| (u, v) == (1, 2)));
            let mut path = Vec::new();
            searcher.push_path(0, 2, &mut path);
            assert_eq!(path, vec![0, 3, 2]);
        }
        assert_eq!(searcher.stamp, 2);
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
