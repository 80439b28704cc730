//! Yen's k-shortest loopless paths on unit-weight digraphs.
//!
//! Alternate routing needs more than one candidate path per node pair: when
//! every wavelength of the primary route's first channel is busy, the
//! simulator tries the second-shortest route, then the third, before
//! declaring a packet blocked.  This module provides the classical Yen
//! construction specialised to unit arc weights and to loopless (simple)
//! paths, which is what a deflection-free alternate route must be.
//!
//! Every sub-search — the first path and each spur — is the breadth-first
//! search of [`shortest_path_avoiding`], run by one reusable searcher.
//! [`KShortestPaths`] keeps that searcher and every other buffer of a query
//! (the paths found, stored end to end in one vector, the candidate pool,
//! the root mask and the spur's excluded next hops) across queries, so a
//! caller asking for the alternates of many node pairs allocates nothing
//! once the buffers have grown.  Each spur search excludes, among the
//! spur's out-arcs only, the next hops that a known path sharing the
//! spur's root already takes; the list of those paths narrows as the spur
//! walks along the previous path, so each spur's list costs one pass over
//! it.
//!
//! Determinism: the candidate pool is ranked by `(length, lexicographic
//! node sequence)` and no hash ordering is involved anywhere, so the
//! returned list depends only on the digraph — prepared simulation kernels
//! built from it are reproducible across runs and threads.
//!
//! [`shortest_path_avoiding`]: crate::algorithms::shortest_path_avoiding

use crate::algorithms::paths::PathSearcher;
use crate::digraph::{Digraph, NodeId};

/// Up to `k` shortest loopless paths from `source` to `target` that use
/// only arcs for which `blocked(u, v)` is `false`, shortest first; length
/// ties among competing candidates are broken toward the lexicographically
/// smaller node sequence.  Returns fewer than `k` paths when the graph does
/// not contain that many distinct simple paths (and an empty vector when
/// `target` is unreachable or `k == 0`).  Pass `|_, _| false` for the
/// unfiltered search.  A failure pattern blocks every arc incident to a
/// failed node, exactly as in
/// [`shortest_path_avoiding`](crate::algorithms::shortest_path_avoiding).
///
/// The self-pair `source == target` has exactly one loopless path, the
/// trivial `[source]`.  A caller with many queries should keep one
/// [`KShortestPaths`] instead: this function builds one per call.
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
    KShortestPaths::new()
        .search(g, source, target, k, blocked)
        .map(<[NodeId]>::to_vec)
        .collect()
}

/// A reusable Yen searcher: [`KShortestPaths::search`] returns the same
/// paths, in the same order, as [`k_shortest_paths_avoiding`], and keeps
/// its buffers for the next query, on the same digraph or another.
#[derive(Debug, Clone, Default)]
pub struct KShortestPaths {
    /// The breadth-first search every sub-search runs on.
    bfs: PathSearcher,
    /// Every path the current query found, accepted or candidate, end to
    /// end.
    nodes: Vec<NodeId>,
    /// `spans[p]`: path `p` is `nodes[start .. start + len]`.
    spans: Vec<(usize, usize)>,
    /// The accepted paths, best first.
    accepted: Vec<usize>,
    /// The candidate pool: found, not yet accepted.
    candidates: Vec<usize>,
    /// The paths known before the current round that share the current
    /// spur's root with the previous accepted path.
    sharing: Vec<usize>,
    /// The current spur's excluded next hops: where `sharing` goes next.
    excluded: Vec<NodeId>,
    /// `in_root[v]`: `v` precedes the current spur on the previous accepted
    /// path, so the spur path may not visit it.
    in_root: Vec<bool>,
}

impl KShortestPaths {
    /// A searcher with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Up to `k` shortest loopless paths from `source` to `target` avoiding
    /// the `blocked` arcs, best first, exactly as
    /// [`k_shortest_paths_avoiding`] returns them.  The paths borrow the
    /// searcher until its next query.
    ///
    /// # Panics
    ///
    /// Panics if `k > 0` and an endpoint is not a node of `g`.
    pub fn search<F>(
        &mut self,
        g: &Digraph,
        source: NodeId,
        target: NodeId,
        k: usize,
        blocked: F,
    ) -> impl Iterator<Item = &[NodeId]> + '_
    where
        F: Fn(NodeId, NodeId) -> bool,
    {
        self.nodes.clear();
        self.spans.clear();
        self.accepted.clear();
        self.candidates.clear();
        if k > 0 && self.bfs.search(g, source, target, &blocked) {
            self.bfs.push_path(source, target, &mut self.nodes);
            self.spans.push((0, self.nodes.len()));
            self.accepted.push(0);
            if self.in_root.len() < g.node_count() {
                self.in_root.resize(g.node_count(), false);
            }
            while self.accepted.len() < k {
                self.deviate(g, target, &blocked);
                // Promote the best remaining candidate: shortest, then
                // smallest in node-sequence order.
                let Some(best) = (0..self.candidates.len()).min_by(|&a, &b| {
                    let (a, b) = (self.path(self.candidates[a]), self.path(self.candidates[b]));
                    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
                }) else {
                    break;
                };
                let best = self.candidates.swap_remove(best);
                self.accepted.push(best);
            }
        }
        let this = &*self;
        this.accepted.iter().map(move |&p| this.path(p))
    }

    /// Path `p` of the current query.
    fn path(&self, p: usize) -> &[NodeId] {
        let (start, len) = self.spans[p];
        &self.nodes[start..start + len]
    }

    /// Adds to the candidate pool one deviation per spur of the last
    /// accepted path: the root up to the spur, then the shortest spur path
    /// to `target` that avoids the root and leaves the spur by a next hop
    /// no known path sharing that root takes.
    fn deviate<F>(&mut self, g: &Digraph, target: NodeId, blocked: F)
    where
        F: Fn(NodeId, NodeId) -> bool,
    {
        let (start, len) = self.spans[*self.accepted.last().expect("a path is accepted")];
        // A deviation found this round leaves the previous path at its
        // spur, so it never shares a later spur's root: only the paths
        // known before the round can exclude a next hop.
        self.sharing.clear();
        self.sharing
            .extend(self.accepted.iter().chain(&self.candidates).copied());
        for i in 0..len - 1 {
            let spur = self.nodes[start + i];
            if i > 0 {
                self.in_root[self.nodes[start + i - 1]] = true;
            }
            let (nodes, spans) = (&self.nodes, &self.spans);
            self.sharing
                .retain(|&p| spans[p].1 > i && nodes[spans[p].0 + i] == spur);
            self.excluded.clear();
            self.excluded.extend(
                self.sharing
                    .iter()
                    .filter(|&&p| spans[p].1 > i + 1)
                    .map(|&p| nodes[spans[p].0 + i + 1]),
            );
            let (in_root, excluded) = (&self.in_root, &self.excluded);
            let found = self.bfs.search(g, spur, target, |u, v| {
                blocked(u, v) || in_root[v] || (u == spur && excluded.contains(&v))
            });
            if found {
                let at = self.nodes.len();
                self.nodes.extend_from_within(start..start + i);
                self.bfs.push_path(spur, target, &mut self.nodes);
                self.candidates.push(self.spans.len());
                self.spans.push((at, self.nodes.len() - at));
            }
        }
        for &v in &self.nodes[start..start + len - 1] {
            self.in_root[v] = false;
        }
    }
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

/// The `Vec`-per-search Yen construction [`KShortestPaths`] replaced, kept
/// as the oracle it must agree with path for path: each spur search
/// allocates its own breadth-first buffers and re-scans every accepted and
/// candidate path on each arc out of the spur.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::line_digraph::line_digraph_iterated;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// The breadth-first search `shortest_path_avoiding` ran before it
    /// shared [`PathSearcher`].
    fn oracle_shortest_path<F>(
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

    /// Yen's construction as `k_shortest_paths_avoiding` ran it before
    /// [`KShortestPaths`].
    pub(super) fn oracle<F>(
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
        let Some(first) = oracle_shortest_path(g, source, target, &blocked) else {
            return Vec::new();
        };
        let mut accepted: Vec<Vec<NodeId>> = vec![first];
        let mut candidates: Vec<Vec<NodeId>> = Vec::new();
        while accepted.len() < k {
            let prev = accepted.last().expect("accepted is never empty").clone();
            for i in 0..prev.len().saturating_sub(1) {
                let spur = prev[i];
                let root = &prev[..=i];
                let spur_search = oracle_shortest_path(g, spur, target, |u, v| {
                    if blocked(u, v) {
                        return true;
                    }
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

    /// `searcher`'s paths for `source → target`, which must equal the
    /// oracle's, and the oracle's shortest path, which must equal
    /// `shortest_path_avoiding`'s.
    fn assert_agrees(
        searcher: &mut KShortestPaths,
        g: &Digraph,
        source: NodeId,
        target: NodeId,
        k: usize,
        blocked: &dyn Fn(NodeId, NodeId) -> bool,
        what: &str,
    ) -> usize {
        let expected = oracle(g, source, target, k, blocked);
        let got: Vec<Vec<NodeId>> = searcher
            .search(g, source, target, k, blocked)
            .map(<[NodeId]>::to_vec)
            .collect();
        assert_eq!(got, expected, "{what}: {source}->{target}, k = {k}");
        assert_eq!(
            crate::algorithms::shortest_path_avoiding(g, source, target, blocked),
            oracle_shortest_path(g, source, target, blocked),
            "{what}: shortest path {source}->{target}"
        );
        got.len()
    }

    /// A seeded digraph on `n` nodes with about `n · density` arcs drawn
    /// uniformly, so loops and parallel arcs occur.
    fn random_digraph(rng: &mut StdRng, n: usize, density: usize) -> Digraph {
        let arcs = rng.gen_range(0..n * density + 1);
        let edges: Vec<(NodeId, NodeId)> = (0..arcs)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        Digraph::from_edges(n, &edges)
    }

    #[test]
    fn reference_agrees_on_random_digraphs() {
        let mut rng = StdRng::seed_from_u64(0x7e4_5eed);
        let mut searcher = KShortestPaths::new();
        let (mut full, mut loops, mut parallel) = (0, 0, 0);
        for trial in 0..160 {
            let n = 1 + trial % 70;
            let g = random_digraph(&mut rng, n, 1 + trial % 6);
            loops += g.arcs().iter().filter(|a| a.source == a.target).count();
            parallel += (0..n)
                .map(|u| {
                    let mut heads = g.out_neighbors(u).to_vec();
                    heads.sort_unstable();
                    heads.windows(2).filter(|w| w[0] == w[1]).count()
                })
                .sum::<usize>();
            // Random blocked arcs and failed nodes, drawn once per graph.
            let failed: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.1)).collect();
            let cut: Vec<bool> = (0..n * n).map(|_| rng.gen_bool(0.15)).collect();
            let blocked = |u: NodeId, v: NodeId| failed[u] || failed[v] || cut[u * n + v];
            for _ in 0..12 {
                let (source, target) = (rng.gen_range(0..n), rng.gen_range(0..n));
                for k in [1, 2, 3, 4, 8] {
                    let paths =
                        assert_agrees(&mut searcher, &g, source, target, k, &blocked, "random");
                    full += usize::from(k > 1 && paths == k);
                }
            }
        }
        assert!(full > 500, "only {full} queries with k > 1 found k paths");
        assert!(
            loops > 0 && parallel > 0,
            "{loops} loops, {parallel} parallel arcs"
        );
    }

    /// KG⁺(d, k), the stack-Kautz quotient, numbered as `otis-topologies`
    /// numbers it: a word's index is its first letter, then each later
    /// letter's rank among the `d` letters that differ from its
    /// predecessor; each node's arcs go to its shifted successors in letter
    /// order, and a loop at every node comes last.
    fn kautz_quotient(d: usize, k: usize) -> Digraph {
        let n = (d + 1) * d.pow(k as u32 - 1);
        let word = |mut index: usize| {
            let mut ranks: Vec<usize> = (1..k)
                .map(|_| {
                    let rank = index % d;
                    index /= d;
                    rank
                })
                .collect();
            ranks.reverse();
            let mut letters = vec![index];
            for rank in ranks {
                let previous = *letters.last().unwrap();
                letters.push(if rank < previous { rank } else { rank + 1 });
            }
            letters
        };
        let index = |letters: &[usize]| {
            letters.windows(2).fold(letters[0], |index, w| {
                index * d + if w[1] < w[0] { w[1] } else { w[1] - 1 }
            })
        };
        let mut edges = Vec::new();
        for u in 0..n {
            let letters = word(u);
            for z in (0..=d).filter(|&z| z != letters[k - 1]) {
                let mut next = letters[1..].to_vec();
                next.push(z);
                edges.push((u, index(&next)));
            }
        }
        Digraph::from_edges(n, &edges).with_loops()
    }

    #[test]
    fn reference_agrees_on_kautz_quotients() {
        let mut searcher = KShortestPaths::new();
        for (d, k) in [(2, 2), (3, 2), (3, 3)] {
            let g = kautz_quotient(d, k);
            let n = g.node_count();
            assert_eq!(g.arc_count(), n * (d + 1), "KG+({d},{k})");
            let mut full = 0;
            for failed in std::iter::once(None).chain((0..n).map(Some)) {
                let blocked = |u: NodeId, v: NodeId| Some(u) == failed || Some(v) == failed;
                let what = format!("KG+({d},{k}) failed {failed:?}");
                for source in 0..n {
                    for target in 0..n {
                        let paths =
                            assert_agrees(&mut searcher, &g, source, target, 3, &blocked, &what);
                        full += usize::from(paths == 3);
                    }
                }
            }
            assert!(full > n, "KG+({d},{k}): {full} pairs have 3 paths");
        }
    }

    #[test]
    fn reference_agrees_with_one_searcher_across_graph_sizes() {
        // One searcher over graphs that grow, shrink and grow again: its
        // stamped marks and root mask must not leak from a larger graph
        // into a smaller one.
        let mut searcher = KShortestPaths::new();
        let none = |_: NodeId, _: NodeId| false;
        for round in 0..3 {
            for (d, k) in [(3, 3), (2, 2), (3, 2), (2, 3)] {
                let g = line_digraph_iterated(&kautz_quotient(d, 1), k - 1);
                for source in 0..g.node_count() {
                    let target = (source * 7 + round) % g.node_count();
                    assert_agrees(&mut searcher, &g, source, target, 4, &none, "sizes");
                }
            }
        }
    }
}
