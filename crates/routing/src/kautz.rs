//! Word-label routing on the Kautz graph.
//!
//! Routing on `KG(d, k)` is induced by the node labels (§2.5 of the paper):
//! to go from `x = (x₁, …, x_k)` to `y = (y₁, …, y_k)`, find the longest
//! suffix of `x` that is a prefix of `y` (say of length `ℓ`) and shift in the
//! remaining letters `y_{ℓ+1}, …, y_k` one per hop.  The resulting path has
//! length `k − ℓ ≤ k` and every hop is a legal Kautz arc.
//!
//! The route is a shortest path.  A walk of `m < k` hops from `x` ends on a
//! word whose first `k − m` letters are the last `k − m` letters of `x`, so
//! reaching `y` in `m` hops needs an overlap of at least `k − m`, that is
//! `m ≥ k − ℓ`.  The paper's "at most `k` hops" follows, and the tests check
//! the route length against the BFS distance on every pair.

use otis_topologies::{kautz_node_count, KautzWord};

/// Routes from `src` to `dst` in `KG(d, k)` using word labels, returning the
/// sequence of node indices visited (starting with `src`, ending with `dst`).
/// The path length (number of arcs) is at most `k`.
pub fn kautz_route(d: usize, k: usize, src: usize, dst: usize) -> Vec<usize> {
    let n = kautz_node_count(d, k);
    assert!(src < n && dst < n, "node out of range for KG({d},{k})");
    let src_w = KautzWord::from_index(d, k, src).expect("index in range");
    let dst_w = KautzWord::from_index(d, k, dst).expect("index in range");
    kautz_route_words(&src_w, &dst_w)
        .into_iter()
        .map(|w| w.index())
        .collect()
}

/// Word-level variant of [`kautz_route`].
pub fn kautz_route_words(src: &KautzWord, dst: &KautzWord) -> Vec<KautzWord> {
    assert_eq!(src.degree(), dst.degree(), "degree mismatch");
    assert_eq!(src.len(), dst.len(), "length mismatch");
    let k = src.len();
    let x = src.letters();
    let y = dst.letters();

    // Longest l such that the last l letters of x equal the first l of y.
    let mut overlap = 0usize;
    for l in (0..=k).rev() {
        if x[k - l..] == y[..l] {
            overlap = l;
            break;
        }
    }

    let mut path = vec![src.clone()];
    let mut current = src.clone();
    for &letter in &y[overlap..] {
        current = current
            .shift(letter)
            .expect("shifting destination letters always yields valid Kautz words");
        path.push(current.clone());
    }
    debug_assert_eq!(path.last().unwrap().letters(), y);
    path
}

/// The number of hops the label router uses from `src` to `dst`
/// (`k −` longest overlap).
pub fn kautz_route_length(d: usize, k: usize, src: usize, dst: usize) -> usize {
    kautz_route(d, k, src, dst).len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{bfs_distances, is_valid_path};
    use otis_topologies::kautz;

    #[test]
    fn routes_are_valid_paths_of_length_at_most_k() {
        for (d, k) in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)] {
            let g = kautz(d, k);
            for src in 0..g.node_count() {
                for dst in 0..g.node_count() {
                    let path = kautz_route(d, k, src, dst);
                    assert!(is_valid_path(&g, &path), "KG({d},{k}) route {src}->{dst}");
                    assert!(
                        path.len() - 1 <= k,
                        "KG({d},{k}) route {src}->{dst} too long"
                    );
                    assert_eq!(path[0], src);
                    assert_eq!(*path.last().unwrap(), dst);
                }
            }
        }
    }

    #[test]
    fn routes_are_never_shorter_than_graph_distance() {
        let (d, k) = (2, 3);
        let g = kautz(d, k);
        for src in 0..g.node_count() {
            let dist = bfs_distances(&g, src);
            for (dst, &bfs) in dist.iter().enumerate() {
                let len = kautz_route_length(d, k, src, dst) as u32;
                assert!(len >= bfs);
            }
        }
    }

    #[test]
    fn label_routing_is_shortest_on_every_pair() {
        // The overlap route length equals the BFS distance on every pair.
        for (d, k) in [(2, 3), (3, 3), (2, 5), (4, 3)] {
            let g = kautz(d, k);
            for src in 0..g.node_count() {
                let dist = bfs_distances(&g, src);
                for (dst, &bfs) in dist.iter().enumerate() {
                    assert_eq!(
                        kautz_route_length(d, k, src, dst) as u32,
                        bfs,
                        "KG({d},{k}) {src}->{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_to_self_is_empty() {
        for node in 0..kautz_node_count(2, 3) {
            let path = kautz_route(2, 3, node, node);
            assert_eq!(path, vec![node]);
        }
    }

    #[test]
    fn single_hop_routes_follow_arcs() {
        let g = kautz(3, 2);
        for src in 0..g.node_count() {
            for &dst in g.out_neighbors(src) {
                let path = kautz_route(3, 2, src, dst);
                assert_eq!(path.len(), 2, "neighbour route must be one hop");
            }
        }
    }

    #[test]
    fn word_level_route_matches_index_level() {
        let src = KautzWord::new(2, vec![0, 1, 2]).unwrap();
        let dst = KautzWord::new(2, vec![2, 0, 1]).unwrap();
        let words = kautz_route_words(&src, &dst);
        let indices = kautz_route(2, 3, src.index(), dst.index());
        assert_eq!(words.iter().map(|w| w.index()).collect::<Vec<_>>(), indices);
        // The suffix "2" of src overlaps the prefix "2" of dst: 2 hops.
        assert_eq!(words.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        kautz_route(2, 2, 0, 99);
    }
}
