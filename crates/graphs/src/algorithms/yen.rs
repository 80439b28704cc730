//! Yen's k-shortest loopless paths on unit-weight digraphs.
//!
//! Alternate routing needs more than one candidate path per node pair: when
//! every wavelength of the primary route's first channel is busy, the
//! simulator tries the second-shortest route, then the third, before
//! declaring a packet blocked.  This module provides the classical Yen
//! construction specialised to unit arc weights (every BFS sub-search is a
//! [`shortest_path_avoiding`] call) and to loopless (simple) paths, which is
//! what a deflection-free alternate route must be.
//!
//! Determinism: the candidate pool is ranked by `(length, lexicographic
//! node sequence)` and no hash ordering is involved anywhere, so the
//! returned list depends only on the digraph — prepared simulation kernels
//! built from it are reproducible across runs and threads.

use crate::algorithms::paths::shortest_path_avoiding;
use crate::digraph::{Digraph, NodeId};

/// Up to `k` shortest loopless paths from `source` to `target` that use
/// only arcs for which `blocked(u, v)` is `false`, shortest first; length
/// ties among competing candidates are broken toward the lexicographically
/// smaller node sequence.  Returns fewer than `k` paths when the graph does
/// not contain that many distinct simple paths (and an empty vector when
/// `target` is unreachable or `k == 0`).  Pass `|_, _| false` for the
/// unfiltered search.  A failure pattern blocks every arc incident to a
/// failed node, exactly as in [`shortest_path_avoiding`].
///
/// The self-pair `source == target` has exactly one loopless path, the
/// trivial `[source]`.
pub fn k_shortest_paths_avoiding<F>(
    g: &Digraph,
    source: NodeId,
    target: NodeId,
    k: usize,
    blocked: F,
) -> Vec<Vec<NodeId>>
where
    F: Fn(NodeId, NodeId) -> bool,
{
    if k == 0 {
        return Vec::new();
    }
    let Some(first) = shortest_path_avoiding(g, source, target, &blocked) else {
        return Vec::new();
    };
    let mut accepted: Vec<Vec<NodeId>> = vec![first];
    // Candidate pool of not-yet-accepted deviations, kept sorted on demand.
    let mut candidates: Vec<Vec<NodeId>> = Vec::new();

    while accepted.len() < k {
        let prev = accepted.last().expect("accepted is never empty").clone();
        // Deviate from every prefix of the most recently accepted path.
        for i in 0..prev.len().saturating_sub(1) {
            let spur = prev[i];
            let root = &prev[..=i];
            // Arcs leaving the spur node that would recreate a known path
            // sharing this root must be excluded from the spur search.
            let spur_search = shortest_path_avoiding(g, spur, target, |u, v| {
                if blocked(u, v) {
                    return true;
                }
                // Keep the total path loopless: the spur path may not
                // revisit any root node before the spur itself.
                if root[..i].contains(&v) {
                    return true;
                }
                u == spur
                    && (accepted.iter().chain(candidates.iter()))
                        .any(|p| p.len() > i + 1 && p[..=i] == *root && p[i + 1] == v)
            });
            if let Some(spur_path) = spur_search {
                let mut total = root[..i].to_vec();
                total.extend(spur_path);
                if !accepted.contains(&total) && !candidates.contains(&total) {
                    candidates.push(total);
                }
            }
        }
        // Promote the best remaining candidate: shortest, then smallest in
        // node-sequence order.
        let Some(best) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.len().cmp(&b.len()).then_with(|| a.cmp(b)))
            .map(|(idx, _)| idx)
        else {
            break;
        };
        accepted.push(candidates.swap_remove(best));
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::paths::is_valid_path;
    use crate::digraph::Digraph;
    use crate::line_digraph::line_digraph_iterated;

    /// B(d, n): nodes are the `d^n` strings over a `d`-ary alphabet, arcs
    /// shift one symbol in.  Includes the `d` self-loops.
    fn de_bruijn(d: usize, n: usize) -> Digraph {
        let size = d.pow(n as u32);
        let mut edges = Vec::new();
        for u in 0..size {
            for a in 0..d {
                edges.push((u, (u * d + a) % size));
            }
        }
        Digraph::from_edges(size, &edges)
    }

    /// K(d, k) built as the iterated line digraph `L^{k-1}(K_{d+1})`.
    fn kautz(d: usize, k: usize) -> Digraph {
        let n = d + 1;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        line_digraph_iterated(&Digraph::from_edges(n, &edges), k - 1)
    }

    /// Every simple path from `source` to `target`, by exhaustive DFS —
    /// the ground truth Yen's construction is checked against.
    fn all_simple_paths(
        g: &Digraph,
        source: NodeId,
        target: NodeId,
        blocked: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> Vec<Vec<NodeId>> {
        fn dfs(
            g: &Digraph,
            target: NodeId,
            blocked: &dyn Fn(NodeId, NodeId) -> bool,
            path: &mut Vec<NodeId>,
            on_path: &mut Vec<bool>,
            out: &mut Vec<Vec<NodeId>>,
        ) {
            let u = *path.last().unwrap();
            if u == target {
                out.push(path.clone());
                return;
            }
            for &v in g.out_neighbors(u) {
                if on_path[v] || blocked(u, v) {
                    continue;
                }
                on_path[v] = true;
                path.push(v);
                dfs(g, target, blocked, path, on_path, out);
                path.pop();
                on_path[v] = false;
            }
        }
        let mut out = Vec::new();
        let mut on_path = vec![false; g.node_count()];
        on_path[source] = true;
        dfs(
            g,
            target,
            blocked,
            &mut vec![source],
            &mut on_path,
            &mut out,
        );
        out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        out
    }

    fn is_loopless(path: &[NodeId]) -> bool {
        let mut sorted = path.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    }

    fn check_against_enumeration(
        g: &Digraph,
        source: NodeId,
        target: NodeId,
        k: usize,
        blocked: &dyn Fn(NodeId, NodeId) -> bool,
    ) {
        let yen = k_shortest_paths_avoiding(g, source, target, k, blocked);
        let truth = all_simple_paths(g, source, target, blocked);
        assert_eq!(
            yen.len(),
            truth.len().min(k),
            "yen must find exactly min(k, #simple paths) paths for {source}->{target}"
        );
        for (i, p) in yen.iter().enumerate() {
            assert!(is_valid_path(g, p), "invalid path {p:?}");
            assert!(is_loopless(p), "path with a loop {p:?}");
            assert_eq!(*p.first().unwrap(), source);
            assert_eq!(*p.last().unwrap(), target);
            assert!(
                !p.windows(2).any(|w| blocked(w[0], w[1])),
                "path {p:?} crosses a blocked arc"
            );
            // Sorted-by-length, and each rank matches the true k-smallest
            // lengths (the paths themselves may differ only within a
            // same-length tie class, which the lexicographic rule pins too).
            if i > 0 {
                assert!(yen[i - 1].len() <= p.len(), "paths out of length order");
            }
            assert_eq!(
                p.len(),
                truth[i].len(),
                "rank {i} has wrong length: yen {:?} vs truth {:?}",
                yen[i],
                truth[i]
            );
        }
        // Distinctness.
        for i in 0..yen.len() {
            for j in i + 1..yen.len() {
                assert_ne!(yen[i], yen[j], "duplicate path at ranks {i}/{j}");
            }
        }
    }

    #[test]
    fn matches_enumeration_on_de_bruijn() {
        let g = de_bruijn(2, 2);
        let unblocked: &dyn Fn(NodeId, NodeId) -> bool = &|_, _| false;
        for source in 0..g.node_count() {
            for target in 0..g.node_count() {
                if source == target {
                    continue;
                }
                for k in [1, 2, 3, 8, 64] {
                    check_against_enumeration(&g, source, target, k, unblocked);
                }
            }
        }
    }

    #[test]
    fn matches_enumeration_on_kautz() {
        let g = kautz(2, 2);
        let unblocked: &dyn Fn(NodeId, NodeId) -> bool = &|_, _| false;
        for source in 0..g.node_count() {
            for target in 0..g.node_count() {
                if source == target {
                    continue;
                }
                for k in [1, 3, 16] {
                    check_against_enumeration(&g, source, target, k, unblocked);
                }
            }
        }
    }

    #[test]
    fn fault_filtered_paths_avoid_the_failed_node() {
        let g = kautz(2, 3);
        // Model node 0 failing: block every arc touching it.
        let blocked: &dyn Fn(NodeId, NodeId) -> bool = &|u, v| u == 0 || v == 0;
        for source in 1..g.node_count().min(6) {
            for target in 1..g.node_count().min(6) {
                if source == target {
                    continue;
                }
                check_against_enumeration(&g, source, target, 4, blocked);
            }
        }
    }

    #[test]
    fn self_pair_yields_the_trivial_path() {
        let g = de_bruijn(2, 2);
        assert_eq!(
            k_shortest_paths_avoiding(&g, 1, 1, 3, |_, _| false),
            vec![vec![1]]
        );
    }

    #[test]
    fn k_zero_and_unreachable_targets_yield_nothing() {
        let g = Digraph::from_edges(3, &[(0, 1)]);
        let none = |_: NodeId, _: NodeId| false;
        assert!(k_shortest_paths_avoiding(&g, 0, 1, 0, none).is_empty());
        assert!(k_shortest_paths_avoiding(&g, 0, 2, 4, none).is_empty());
        assert!(k_shortest_paths_avoiding(&g, 1, 0, 4, none).is_empty());
    }

    #[test]
    fn ranking_is_deterministic_and_lexicographic_within_ties() {
        // Two disjoint length-2 routes 0->3: via 1 and via 2.
        let g = Digraph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let paths = k_shortest_paths_avoiding(&g, 0, 3, 4, |_, _| false);
        assert_eq!(paths, vec![vec![0, 1, 3], vec![0, 2, 3]]);
    }
}
