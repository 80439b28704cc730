//! Digraph isomorphism.
//!
//! The reproduction needs isomorphism in two forms:
//!
//! 1. **Labelled relabelling**: applying a known node bijection and
//!    comparing arc multisets — [`relabel`], [`Digraph::same_arcs`] and
//!    [`is_isomorphism`].
//! 2. **Unlabelled isomorphism**: [`find_isomorphism`] decides whether a
//!    bijection exists and returns one; [`are_isomorphic`] keeps only the
//!    answer.  Corollary 1 of the paper rests on
//!    `KG(d, k) ≅ II(d, d^(k-1)(d+1))`, and both graphs are iterated line
//!    digraphs of `K_{d+1}`, as is `L(DB(d, k)) = DB(d, k+1)`.  The
//!    decision uses that structure in four steps:
//!
//!    * **Reduce.** A digraph `G` with no parallel arcs, in- and out-degree
//!      at least 1 everywhere, and out-sets that are pairwise identical or
//!      disjoint is a line digraph `L(H)`.  `H` has one node per out-set
//!      class, and node `x` of `G` is the arc `tail(x) → head(x)` of `H`:
//!      `head(x)` is the class of `x`, `tail(x)` the class of its
//!      in-neighbours.  That `H` has no source or sink, so it is unique up to
//!      isomorphism, and two such digraphs are isomorphic exactly when their
//!      roots are.  Both inputs are reduced level by level, in O(m) per
//!      level, while the node count shrinks; two sides that stop at
//!      different levels, or reduce to roots of different orders, are not
//!      isomorphic.
//!    * **Search.** A backtracking search with degree-signature pruning
//!      matches the two irreducible bases.  For Kautz graphs, and for
//!      Imase–Itoh graphs of Kautz order, the base is `K_{d+1}`.  Cycles and
//!      digraphs with parallel arcs do not reduce, so for them the search is
//!      the whole decision; it is exponential in the worst case.
//!    * **Lift.** Back up one level, the node that is arc `(t, h)` of one
//!      root goes to an arc `(φ(t), φ(h))` of the other, and twin nodes from
//!      parallel root arcs are paired in order.
//!    * **Check.** The lifted map is confirmed with [`is_isomorphism`]
//!      before it is returned.

use crate::digraph::{Arc, Digraph, NodeId};
use std::collections::HashMap;

/// Applies a node bijection to `g`: node `u` of the input becomes node
/// `mapping[u]` of the output. `mapping` must be a permutation of `0..n`.
///
/// # Panics
/// Panics when `mapping` is not a permutation of the node set.
pub fn relabel(g: &Digraph, mapping: &[NodeId]) -> Digraph {
    let n = g.node_count();
    assert_eq!(mapping.len(), n, "mapping length must equal node count");
    let mut seen = vec![false; n];
    for &image in mapping {
        assert!(image < n, "mapping image {image} out of range");
        assert!(
            !seen[image],
            "mapping is not injective (image {image} repeated)"
        );
        seen[image] = true;
    }
    let arcs: Vec<Arc> = g
        .arcs()
        .iter()
        .map(|a| Arc::new(mapping[a.source], mapping[a.target]))
        .collect();
    Digraph::from_arcs(n, &arcs)
}

/// Checks whether `mapping` is an isomorphism from `a` to `b` (arc
/// multiplicities included).
pub fn is_isomorphism(a: &Digraph, b: &Digraph, mapping: &[NodeId]) -> bool {
    if a.node_count() != b.node_count()
        || a.arc_count() != b.arc_count()
        || mapping.len() != a.node_count()
    {
        return false;
    }
    let mut seen = vec![false; b.node_count()];
    for &image in mapping {
        if image >= b.node_count() || seen[image] {
            return false;
        }
        seen[image] = true;
    }
    relabel(a, mapping).same_arcs(b)
}

/// Degree-signature of a node used to prune the isomorphism search:
/// (out-degree, in-degree, number of loops, sorted multiset of neighbour
/// out-degrees).  Invariant under isomorphism.
fn signature(g: &Digraph, u: NodeId) -> (usize, usize, usize, Vec<usize>) {
    let loops = g.out_neighbors(u).iter().filter(|&&v| v == u).count();
    let mut nbr_degrees: Vec<usize> = g
        .out_neighbors(u)
        .iter()
        .map(|&v| g.out_degree(v))
        .collect();
    nbr_degrees.sort_unstable();
    (g.out_degree(u), g.in_degree(u), loops, nbr_degrees)
}

/// Backtracking search for an isomorphism from `a` to `b`, pruned by degree
/// signatures.  Exponential in the worst case; [`find_isomorphism`] calls it
/// only on the irreducible bases of its line-digraph reduction.
fn search(a: &Digraph, b: &Digraph) -> Option<Vec<NodeId>> {
    let n = a.node_count();
    if n != b.node_count() || a.arc_count() != b.arc_count() {
        return None;
    }
    if n == 0 {
        return Some(Vec::new());
    }

    let sig_a: Vec<_> = (0..n).map(|u| signature(a, u)).collect();
    let sig_b: Vec<_> = (0..n).map(|u| signature(b, u)).collect();
    {
        let mut sa = sig_a.clone();
        let mut sb = sig_b.clone();
        sa.sort();
        sb.sort();
        if sa != sb {
            return None;
        }
    }

    // Candidate images of each node of `a`: nodes of `b` with the same signature.
    let mut candidates: Vec<Vec<NodeId>> = (0..n)
        .map(|u| (0..n).filter(|&v| sig_a[u] == sig_b[v]).collect())
        .collect();

    // Order the nodes of `a` from fewest candidates to most (most constrained first).
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by_key(|&u| candidates[u].len());
    // Pre-index position in the order for partial consistency checks.
    for c in candidates.iter_mut() {
        c.sort_unstable();
    }

    let mut mapping: Vec<Option<NodeId>> = vec![None; n];
    let mut used = vec![false; n];

    fn consistent(
        a: &Digraph,
        b: &Digraph,
        mapping: &[Option<NodeId>],
        u: NodeId,
        img: NodeId,
    ) -> bool {
        // All already-mapped neighbours must have their adjacency preserved in
        // both directions with correct multiplicities.
        for (x, &mx) in mapping.iter().enumerate() {
            let Some(mx) = mx else { continue };
            if a.arc_multiplicity(u, x) != b.arc_multiplicity(img, mx) {
                return false;
            }
            if a.arc_multiplicity(x, u) != b.arc_multiplicity(mx, img) {
                return false;
            }
        }
        a.arc_multiplicity(u, u) == b.arc_multiplicity(img, img)
    }

    fn backtrack(
        a: &Digraph,
        b: &Digraph,
        order: &[NodeId],
        candidates: &[Vec<NodeId>],
        mapping: &mut Vec<Option<NodeId>>,
        used: &mut Vec<bool>,
        depth: usize,
    ) -> bool {
        if depth == order.len() {
            return true;
        }
        let u = order[depth];
        for &img in &candidates[u] {
            if used[img] || !consistent(a, b, mapping, u, img) {
                continue;
            }
            mapping[u] = Some(img);
            used[img] = true;
            if backtrack(a, b, order, candidates, mapping, used, depth + 1) {
                return true;
            }
            mapping[u] = None;
            used[img] = false;
        }
        false
    }

    if backtrack(a, b, &order, &candidates, &mut mapping, &mut used, 0) {
        Some(mapping.into_iter().map(|m| m.unwrap()).collect())
    } else {
        None
    }
}

/// The root `H` of `g = L(H)`, when `g` is a line digraph whose root has
/// no source or sink and fewer nodes than `g`.  Arc `x` of the root is node
/// `x` of `g`.
fn root(g: &Digraph) -> Option<Digraph> {
    let n = g.node_count();
    // Out-set classes, keyed by their smallest member: `class[u]` is the
    // class of `u`'s out-set and `rep[c]` the first node of class `c`.
    let mut class_of_min = vec![usize::MAX; n];
    let mut rep = Vec::new();
    let class = (0..n)
        .map(|u| {
            let &min = g.out_neighbors(u).iter().min()?;
            if g.in_degree(u) == 0 {
                return None;
            }
            if class_of_min[min] == usize::MAX {
                class_of_min[min] = rep.len();
                rep.push(u);
            }
            Some(class_of_min[min])
        })
        .collect::<Option<Vec<_>>>()?;
    if rep.len() == n {
        return None;
    }
    // Every node's out-set is its representative's, with no parallel arcs.
    let mut stamp = vec![usize::MAX; n];
    for u in 0..n {
        let r = rep[class[u]];
        for &v in g.out_neighbors(r) {
            stamp[v] = 2 * u;
        }
        if g.out_degree(u) != g.out_degree(r) {
            return None;
        }
        for &v in g.out_neighbors(u) {
            if stamp[v] != 2 * u {
                return None;
            }
            stamp[v] = 2 * u + 1;
        }
    }
    // Distinct classes have disjoint out-sets: all in-neighbours of a node
    // share one class, the node's tail in the root.
    let mut arcs = Vec::with_capacity(n);
    for x in 0..n {
        let ins = g.in_neighbors(x);
        let tail = class[ins[0]];
        if ins.iter().any(|&w| class[w] != tail) {
            return None;
        }
        arcs.push(Arc::new(tail, class[x]));
    }
    Some(Digraph::from_arcs(rep.len(), &arcs))
}

/// Lifts an isomorphism `lower` from root `ra` to root `rb` to their line
/// digraphs: node `x` above is arc `x` of `ra`, and goes to an arc of `rb`
/// joining the images of its ends.  Parallel arcs are paired in order.
fn lift(ra: &Digraph, rb: &Digraph, lower: &[NodeId]) -> Vec<NodeId> {
    let mut by_ends: HashMap<(NodeId, NodeId), Vec<NodeId>> = HashMap::new();
    for (y, arc) in rb.arcs().iter().enumerate().rev() {
        by_ends.entry((arc.source, arc.target)).or_default().push(y);
    }
    ra.arcs()
        .iter()
        .map(|arc| {
            by_ends
                .get_mut(&(lower[arc.source], lower[arc.target]))
                .and_then(Vec::pop)
                .expect("an isomorphism of the roots preserves arc multiplicities")
        })
        .collect()
}

/// Decides whether two digraphs are isomorphic (arc multiplicities
/// included), returning a witness mapping — node `u` of `a` to node
/// `mapping[u]` of `b` — when they are.
///
/// Both digraphs are reduced through their line-digraph roots, the
/// irreducible bases are matched by backtracking, and the base map is lifted
/// back up and checked (see the [module docs](self)).  Iterated line
/// digraphs such as `KG(2, 10)` (1 536 nodes) are decided in milliseconds.
pub fn find_isomorphism(a: &Digraph, b: &Digraph) -> Option<Vec<NodeId>> {
    if a.node_count() != b.node_count() || a.arc_count() != b.arc_count() {
        return None;
    }
    // `levels[i]` holds the roots of both sides after `i + 1` reductions.
    let mut levels: Vec<(Digraph, Digraph)> = Vec::new();
    loop {
        let (top_a, top_b) = levels.last().map_or((a, b), |(x, y)| (x, y));
        match (root(top_a), root(top_b)) {
            (Some(ra), Some(rb)) if ra.node_count() == rb.node_count() => {
                levels.push((ra, rb));
            }
            (None, None) => break,
            _ => return None,
        }
    }
    let (base_a, base_b) = levels.last().map_or((a, b), |(x, y)| (x, y));
    let mut mapping = search(base_a, base_b)?;
    for (ra, rb) in levels.iter().rev() {
        mapping = lift(ra, rb, &mapping);
    }
    assert!(
        is_isomorphism(a, b, &mapping),
        "the lifted line-digraph map is not an isomorphism"
    );
    Some(mapping)
}

/// Returns `true` when [`find_isomorphism`] succeeds.
pub fn are_isomorphic(a: &Digraph, b: &Digraph) -> bool {
    find_isomorphism(a, b).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DigraphBuilder;
    use crate::line_digraph::{line_digraph, line_digraph_iterated};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cycle(n: usize) -> Digraph {
        let mut b = DigraphBuilder::new(n);
        for u in 0..n {
            b.add_arc(u, (u + 1) % n);
        }
        b.build()
    }

    #[test]
    fn relabel_roundtrip() {
        let g = cycle(5);
        let perm = vec![2, 3, 4, 0, 1];
        let h = relabel(&g, &perm);
        // Applying the inverse brings us back.
        let mut inv = vec![0; 5];
        for (u, &img) in perm.iter().enumerate() {
            inv[img] = u;
        }
        assert!(relabel(&h, &inv).same_arcs(&g));
        assert!(is_isomorphism(&g, &h, &perm));
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn relabel_rejects_non_permutation() {
        relabel(&cycle(3), &[0, 0, 1]);
    }

    #[test]
    fn rotated_cycles_are_isomorphic() {
        let g = cycle(6);
        let h = relabel(&g, &[3, 4, 5, 0, 1, 2]);
        assert!(are_isomorphic(&g, &h));
    }

    #[test]
    fn cycle_vs_two_cycles_not_isomorphic() {
        let g = cycle(6);
        let h = Digraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert_eq!(g.arc_count(), h.arc_count());
        assert!(!are_isomorphic(&g, &h));
    }

    #[test]
    fn different_sizes_not_isomorphic() {
        assert!(!are_isomorphic(&cycle(4), &cycle(5)));
    }

    #[test]
    fn loops_matter() {
        let g = Digraph::from_edges(2, &[(0, 1), (1, 0), (0, 0)]);
        let h = Digraph::from_edges(2, &[(0, 1), (1, 0), (1, 1)]);
        // These are isomorphic (swap the two nodes).
        assert!(are_isomorphic(&g, &h));
        let k = Digraph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert!(!are_isomorphic(&g, &k));
    }

    #[test]
    fn multiplicity_is_respected() {
        let g = Digraph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        let h = Digraph::from_edges(2, &[(0, 1), (1, 0), (1, 0)]);
        assert!(are_isomorphic(&g, &h));
        let k = Digraph::from_edges(2, &[(0, 1), (1, 0), (0, 0)]);
        assert!(!are_isomorphic(&g, &k));
    }

    #[test]
    fn witness_is_a_real_isomorphism() {
        let g = cycle(7);
        let h = relabel(&g, &[6, 5, 4, 3, 2, 1, 0]);
        let w = find_isomorphism(&g, &h).unwrap();
        assert!(is_isomorphism(&g, &h, &w));
    }

    #[test]
    fn identical_graphs() {
        let g = cycle(4);
        assert!(g.same_arcs(&g.clone()));
        assert!(!g.same_arcs(&cycle(5)));
    }

    #[test]
    fn empty_graphs_are_isomorphic() {
        assert!(are_isomorphic(&Digraph::empty(0), &Digraph::empty(0)));
        assert!(are_isomorphic(&Digraph::empty(3), &Digraph::empty(3)));
    }

    /// `K_n` without loops.
    fn complete(n: usize) -> Digraph {
        let arcs: Vec<_> = (0..n)
            .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        Digraph::from_edges(n, &arcs)
    }

    /// The circulant digraph `u → u + s (mod n)` for each step `s`.
    fn circulant(n: usize, steps: &[usize]) -> Digraph {
        let arcs: Vec<_> = (0..n)
            .flat_map(|u| steps.iter().map(move |&s| (u, (u + s) % n)))
            .collect();
        Digraph::from_edges(n, &arcs)
    }

    /// A uniformly random relabelling of `g` (Fisher–Yates).
    fn shuffled(g: &Digraph, rng: &mut StdRng) -> Digraph {
        let mut perm: Vec<NodeId> = (0..g.node_count()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..i + 1));
        }
        relabel(g, &perm)
    }

    /// `g` with one random arc's head moved to a random node.
    fn perturbed(g: &Digraph, rng: &mut StdRng) -> Digraph {
        let mut arcs = g.arcs().to_vec();
        if !arcs.is_empty() {
            let i = rng.gen_range(0..arcs.len());
            arcs[i].target = rng.gen_range(0..g.node_count());
        }
        Digraph::from_arcs(g.node_count(), &arcs)
    }

    /// `m` uniformly random arcs on `n` nodes, loops and parallel arcs
    /// included.
    fn random_digraph(n: usize, m: usize, rng: &mut StdRng) -> Digraph {
        let arcs: Vec<_> = (0..m)
            .map(|_| Arc::new(rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        Digraph::from_arcs(n, &arcs)
    }

    /// A random root with every in- and out-degree at least 1: a cycle
    /// through all nodes plus a few random arcs (loops and parallels
    /// included), so its line digraphs reduce back to it.
    fn random_root(rng: &mut StdRng) -> Digraph {
        let n = rng.gen_range(1..5);
        let extra = random_digraph(n, rng.gen_range(0..5), rng);
        let arcs: Vec<_> = (0..n)
            .map(|u| Arc::new(u, (u + 1) % n))
            .chain(extra.arcs().iter().copied())
            .collect();
        shuffled(&Digraph::from_arcs(n, &arcs), rng)
    }

    #[test]
    fn root_inverts_the_line_digraph() {
        let k4 = complete(4);
        let kg32 = line_digraph(&k4);
        let root_of = root(&kg32).expect("L(K_4) reduces");
        assert!(search(&root_of, &k4).is_some());
        // Arc x of the root is node x of the line digraph.
        assert!(line_digraph(&root_of).same_arcs(&kg32));
        // K_4, cycles and digraphs with parallel arcs do not reduce.
        assert!(root(&k4).is_none());
        assert!(root(&cycle(5)).is_none());
        assert!(root(&Digraph::from_edges(2, &[(0, 1), (0, 1), (1, 0), (1, 0)])).is_none());
        // A node without in-arcs has no tail in any root.
        assert!(root(&Digraph::from_edges(3, &[(0, 1), (1, 2), (2, 1)])).is_none());
        // L(one node with three loops) is K_3 with loops; it reduces to a
        // root with parallel loops, and twins lift in order.
        let bouquet = Digraph::from_edges(1, &[(0, 0), (0, 0), (0, 0)]);
        let l = line_digraph(&bouquet);
        assert_eq!(root(&l).map(|r| r.arc_count()), Some(3));
        let w = find_isomorphism(&l, &relabel(&l, &[2, 0, 1])).unwrap();
        assert!(is_isomorphism(&l, &relabel(&l, &[2, 0, 1]), &w));
    }

    #[test]
    fn kautz_iterates_reduce_to_the_complete_base() {
        let mut rng = StdRng::seed_from_u64(7);
        for (d, levels) in [(2usize, 6usize), (3, 3), (4, 2)] {
            let kg = line_digraph_iterated(&complete(d + 1), levels);
            let other = shuffled(&kg, &mut rng);
            let w = find_isomorphism(&kg, &other).expect("relabelled Kautz graph");
            assert!(is_isomorphism(&kg, &other, &w));
        }
    }

    /// `are_isomorphic` must agree with the plain search on the whole graph,
    /// and every witness must be an isomorphism.  The pairs mix random
    /// multi-digraphs, line digraphs of random roots (one and two levels
    /// up), random relabellings and one-arc perturbations of the graph or of
    /// its root.
    #[test]
    fn reduction_agrees_with_plain_search_on_random_digraphs() {
        let mut rng = StdRng::seed_from_u64(2024);
        let (mut iso, mut non_iso, mut reduced) = (0, 0, 0);
        for case in 0..3000 {
            let (a, b) = match case % 4 {
                0 => {
                    let (n, m) = (rng.gen_range(1..8), rng.gen_range(0..15));
                    let a = random_digraph(n, m, &mut rng);
                    let b = match rng.gen_range(0..3) {
                        0 => shuffled(&a, &mut rng),
                        1 => perturbed(&a, &mut rng),
                        _ => random_digraph(n, m, &mut rng),
                    };
                    (a, b)
                }
                kind => {
                    // Line digraphs of a root, one or two levels up, against
                    // a relabelling, a perturbation, or the same lift of a
                    // perturbed root (same order and size on both sides).
                    let levels = if kind == 3 { 2 } else { 1 };
                    let r = if kind == 2 {
                        random_digraph(rng.gen_range(1..5), rng.gen_range(1..8), &mut rng)
                    } else {
                        random_root(&mut rng)
                    };
                    let a = line_digraph_iterated(&r, levels);
                    if a.node_count() > 24 {
                        continue;
                    }
                    let b = match rng.gen_range(0..3) {
                        0 => shuffled(&a, &mut rng),
                        1 => shuffled(&perturbed(&a, &mut rng), &mut rng),
                        _ => {
                            let lifted = line_digraph_iterated(&perturbed(&r, &mut rng), levels);
                            shuffled(&lifted, &mut rng)
                        }
                    };
                    (a, b)
                }
            };
            reduced += usize::from(root(&a).is_some());
            let expected = search(&a, &b).is_some();
            let found = find_isomorphism(&a, &b);
            assert_eq!(found.is_some(), expected, "case {case}: {a:?} vs {b:?}");
            if let Some(w) = found {
                assert!(is_isomorphism(&a, &b, &w), "case {case}: bad witness");
                iso += 1;
            } else {
                non_iso += 1;
            }
        }
        assert!(iso > 500 && non_iso > 500, "{iso} iso / {non_iso} non-iso");
        assert!(
            reduced > 500,
            "only {reduced} pairs exercised the reduction"
        );
    }

    #[test]
    fn deep_reductions_to_non_isomorphic_bases() {
        // Each pair has the same order, size and degree sequence at every
        // level; both sides reduce twice and stop at irreducible bases that
        // differ.  C6(1,3) has 2-cycles, C6(1,2) does not; the looped
        // circulant is 3-regular on 4 nodes like K_4.
        let pairs = [
            (circulant(6, &[1, 2]), circulant(6, &[1, 3])),
            (complete(4), circulant(4, &[0, 1, 2])),
        ];
        for (x, y) in pairs {
            assert!(root(&x).is_none() && root(&y).is_none());
            assert!(search(&x, &y).is_none());
            let (a, b) = (line_digraph_iterated(&x, 2), line_digraph_iterated(&y, 2));
            assert_eq!(
                (a.node_count(), a.arc_count()),
                (b.node_count(), b.arc_count())
            );
            assert!(!are_isomorphic(&a, &b));
            assert!(are_isomorphic(&a, &line_digraph_iterated(&x, 2)));
        }
        // Both sides reduce twice, then only one reduces further:
        // L(K_3) = KG(2,2) reduces to K_3, C6(1,2) does not.
        let a = line_digraph_iterated(&complete(3), 3);
        let b = line_digraph_iterated(&circulant(6, &[1, 2]), 2);
        assert_eq!(
            (a.node_count(), a.arc_count()),
            (b.node_count(), b.arc_count())
        );
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn line_digraph_against_non_line_digraph_of_same_degrees() {
        // KG(3,2) = L(K_4) and the circulant C12(1,2,3) are both 3-regular
        // and loopless on 12 nodes; only the first is a line digraph.
        let kg = line_digraph(&complete(4));
        let c = circulant(12, &[1, 2, 3]);
        let degrees = |g: &Digraph| -> Vec<_> {
            g.nodes()
                .map(|u| (g.out_degree(u), g.in_degree(u), g.arc_multiplicity(u, u)))
                .collect()
        };
        assert_eq!(degrees(&kg), degrees(&c));
        assert!(root(&kg).is_some() && root(&c).is_none());
        assert!(search(&kg, &c).is_none());
        assert!(!are_isomorphic(&kg, &c));
        assert!(!are_isomorphic(&c, &kg));
    }
}
