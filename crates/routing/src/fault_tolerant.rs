//! Fault-tolerant routing.
//!
//! §2.5 of the paper cites Imase, Soneoka and Okada: the label routing of the
//! Kautz graph "can be extended to generate a path of length at most `k + 2`
//! which survives `d − 1` link or node faults".  This module provides
//!
//! * a [`FaultSet`] describing failed nodes and arcs,
//! * [`fault_tolerant_route`], which finds a shortest fault-avoiding path,
//! * [`validate_kautz_fault_bound`], which checks the `≤ k + 2` claim on a
//!   concrete Kautz instance under every (or a sampled set of) fault pattern
//!   of size `d − 1` — the empirical validation used by experiment T4.

use otis_graphs::algorithms::shortest_path_avoiding;
use otis_graphs::{Digraph, DigraphBuilder, NodeId};
use std::collections::HashSet;

/// A set of failed nodes and failed arcs.
///
/// For point-to-point networks the nodes are processors and the arcs are
/// links; for multi-OPS (stack-graph) networks the fault domain is the
/// *quotient*: a failed node is a whole group and a failed arc is the
/// coupler(s) between two groups — the granularity at which §2.5 states the
/// `d − 1` survivability bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    failed_nodes: HashSet<NodeId>,
    failed_arcs: HashSet<(NodeId, NodeId)>,
}

impl FaultSet {
    /// An empty fault set.
    pub fn new() -> Self {
        FaultSet::default()
    }

    /// A fault set with exactly the given failed nodes.
    pub fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut faults = FaultSet::new();
        for node in nodes {
            faults.fail_node(node);
        }
        faults
    }

    /// Marks a node as failed (all its incident arcs become unusable).
    pub fn fail_node(&mut self, node: NodeId) -> &mut Self {
        self.failed_nodes.insert(node);
        self
    }

    /// Marks a single arc as failed.
    pub fn fail_arc(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        self.failed_arcs.insert((from, to));
        self
    }

    /// Marks a failed node as recovered; returns whether it was failed.
    pub fn recover_node(&mut self, node: NodeId) -> bool {
        self.failed_nodes.remove(&node)
    }

    /// Marks a failed arc as recovered; returns whether it was failed.
    pub fn recover_arc(&mut self, from: NodeId, to: NodeId) -> bool {
        self.failed_arcs.remove(&(from, to))
    }

    /// Whether the arc `(from, to)` itself is in the set (endpoint-node
    /// faults do **not** count, unlike [`FaultSet::blocks`]).
    pub fn arc_failed(&self, from: NodeId, to: NodeId) -> bool {
        self.failed_arcs.contains(&(from, to))
    }

    /// Whether every fault of `self` also appears in `other` — the test that
    /// decides whether a mid-run kernel swap moves *toward* faults (a
    /// repair) or away from them (a recovery).
    pub fn is_subset_of(&self, other: &FaultSet) -> bool {
        self.failed_nodes.is_subset(&other.failed_nodes)
            && self.failed_arcs.is_subset(&other.failed_arcs)
    }

    /// The union of two fault sets — e.g. a static fault pattern overlaid
    /// with the scheduled faults active at some slot.
    pub fn union(&self, other: &FaultSet) -> FaultSet {
        FaultSet {
            failed_nodes: self
                .failed_nodes
                .union(&other.failed_nodes)
                .copied()
                .collect(),
            failed_arcs: self
                .failed_arcs
                .union(&other.failed_arcs)
                .copied()
                .collect(),
        }
    }

    /// Total number of faults (failed nodes plus failed arcs).
    pub fn len(&self) -> usize {
        self.failed_nodes.len() + self.failed_arcs.len()
    }

    /// Whether the fault set is empty.
    pub fn is_empty(&self) -> bool {
        self.failed_nodes.is_empty() && self.failed_arcs.is_empty()
    }

    /// Whether a node has failed.
    pub fn node_failed(&self, node: NodeId) -> bool {
        self.failed_nodes.contains(&node)
    }

    /// Whether traversing the arc `(from, to)` is forbidden (the arc itself
    /// failed, or one of its endpoints failed).
    pub fn blocks(&self, from: NodeId, to: NodeId) -> bool {
        self.failed_arcs.contains(&(from, to))
            || self.failed_nodes.contains(&from)
            || self.failed_nodes.contains(&to)
    }

    /// The failed nodes in ascending order (stable across runs despite the
    /// hash-set storage — used for reporting and deterministic output).
    pub fn sorted_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.failed_nodes.iter().copied().collect();
        nodes.sort_unstable();
        nodes
    }

    /// The failed arcs in ascending `(from, to)` order.
    pub fn sorted_arcs(&self) -> Vec<(NodeId, NodeId)> {
        let mut arcs: Vec<(NodeId, NodeId)> = self.failed_arcs.iter().copied().collect();
        arcs.sort_unstable();
        arcs
    }
}

/// The subgraph of `g` that survives the faults: same node set, minus every
/// arc that [`FaultSet::blocks`] — i.e. failed arcs and all arcs incident to
/// failed nodes.  Node identifiers are preserved, so routing tables built on
/// the surviving subgraph are directly comparable with the intact graph.
pub fn surviving_subgraph(g: &Digraph, faults: &FaultSet) -> Digraph {
    let mut builder = DigraphBuilder::with_capacity(g.node_count(), g.arc_count());
    for arc in g.arcs() {
        if !faults.blocks(arc.source, arc.target) {
            builder.add_arc(arc.source, arc.target);
        }
    }
    builder.build()
}

/// Every fault set of at most `max_size` failed nodes drawn from `0..n`
/// (including the empty baseline), sizes ascending, each size in
/// lexicographic order of the node combination: the exhaustive sweep from 0
/// to `d − 1` faults of experiment T4.  There are `Σ C(n, k)` sets for
/// `k ≤ max_size`, so keep `max_size` small on large `n`.
pub fn node_fault_patterns_up_to(n: usize, max_size: usize) -> Vec<FaultSet> {
    let mut patterns = Vec::new();
    for size in 0..=max_size.min(n) {
        let mut combo: Vec<usize> = (0..size).collect();
        loop {
            patterns.push(FaultSet::from_nodes(combo.iter().copied()));
            // Advance to the next combination: bump the rightmost index that
            // can still move and reset everything to its right.
            let Some(i) = (0..size).rev().find(|&i| combo[i] < n - size + i) else {
                break;
            };
            combo[i] += 1;
            for j in i + 1..size {
                combo[j] = combo[j - 1] + 1;
            }
        }
    }
    patterns
}

/// Finds a shortest path from `src` to `dst` avoiding every fault in
/// `faults`.  Returns `None` when the faults disconnect the pair (or when an
/// endpoint itself has failed).
pub fn fault_tolerant_route(
    g: &Digraph,
    src: NodeId,
    dst: NodeId,
    faults: &FaultSet,
) -> Option<Vec<NodeId>> {
    if faults.node_failed(src) || faults.node_failed(dst) {
        return None;
    }
    shortest_path_avoiding(g, src, dst, |u, v| faults.blocks(u, v))
}

/// Outcome of validating the Kautz fault-tolerance bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultBoundReport {
    /// Number of (source, destination, fault-pattern) cases examined.
    pub cases: usize,
    /// Longest fault-avoiding route observed.
    pub worst_length: usize,
    /// The bound that was checked (`k + 2`).
    pub bound: usize,
    /// Number of cases where no route existed (should be 0 for fewer than
    /// `d` node faults on a Kautz graph, whose connectivity is `d`).
    pub disconnected: usize,
}

impl FaultBoundReport {
    /// Whether every examined case satisfied the bound and stayed connected.
    pub fn holds(&self) -> bool {
        self.disconnected == 0 && self.worst_length <= self.bound
    }
}

/// Validates, on the digraph `g` assumed to be `KG(d, k)`, that for every
/// source/destination pair (with both alive) and every provided fault
/// pattern of at most `d − 1` failed nodes, a route of length at most
/// `k + 2` exists.
///
/// `fault_patterns` lets the caller choose exhaustive enumeration (small
/// instances) or random sampling (larger ones).
pub fn validate_kautz_fault_bound(
    g: &Digraph,
    d: usize,
    k: usize,
    fault_patterns: &[Vec<NodeId>],
) -> FaultBoundReport {
    let bound = k + 2;
    let mut cases = 0usize;
    let mut worst = 0usize;
    let mut disconnected = 0usize;
    for pattern in fault_patterns {
        assert!(
            pattern.len() < d,
            "fault pattern has {} faults, the claim only covers up to d-1 = {}",
            pattern.len(),
            d - 1
        );
        let mut faults = FaultSet::new();
        for &node in pattern {
            faults.fail_node(node);
        }
        for src in 0..g.node_count() {
            if faults.node_failed(src) {
                continue;
            }
            for dst in 0..g.node_count() {
                if src == dst || faults.node_failed(dst) {
                    continue;
                }
                cases += 1;
                match fault_tolerant_route(g, src, dst, &faults) {
                    Some(path) => worst = worst.max(path.len() - 1),
                    None => disconnected += 1,
                }
            }
        }
    }
    FaultBoundReport {
        cases,
        worst_length: worst,
        bound,
        disconnected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::is_valid_path;
    use otis_topologies::kautz;

    #[test]
    fn fault_set_blocking_rules() {
        let mut f = FaultSet::new();
        assert!(f.is_empty());
        f.fail_node(3);
        f.fail_arc(0, 1);
        assert_eq!(f.len(), 2);
        assert!(f.blocks(0, 1));
        assert!(f.blocks(3, 2));
        assert!(f.blocks(2, 3));
        assert!(!f.blocks(1, 0));
        assert!(f.node_failed(3));
        assert!(!f.node_failed(0));
    }

    #[test]
    fn recovery_subset_and_union_operations() {
        let mut f = FaultSet::from_nodes([1, 2]);
        f.fail_arc(0, 3);
        assert!(f.arc_failed(0, 3));
        assert!(!f.arc_failed(3, 0));
        assert!(FaultSet::from_nodes([1]).is_subset_of(&f));
        assert!(!f.is_subset_of(&FaultSet::from_nodes([1, 2])));
        assert!(f.recover_node(1));
        assert!(!f.recover_node(1), "already recovered");
        assert!(f.recover_arc(0, 3));
        assert!(!f.arc_failed(0, 3));
        assert_eq!(f.sorted_nodes(), vec![2]);
        let u = FaultSet::from_nodes([0]).union(&f);
        assert_eq!(u.sorted_nodes(), vec![0, 2]);
        assert!(f.is_subset_of(&u));
        assert!(FaultSet::new().is_subset_of(&f));
        assert!(f.is_subset_of(&f));
    }

    #[test]
    fn route_avoids_failed_arc() {
        let g = kautz(2, 2);
        // Pick any arc on some shortest path and fail it; a route must still
        // exist and avoid it.
        let mut faults = FaultSet::new();
        let arc = g.arcs()[0];
        faults.fail_arc(arc.source, arc.target);
        let path = fault_tolerant_route(&g, arc.source, arc.target, &faults)
            .expect("KG(2,2) is 2-connected, one arc fault cannot disconnect it");
        assert!(is_valid_path(&g, &path));
        assert!(!path
            .windows(2)
            .any(|w| (w[0], w[1]) == (arc.source, arc.target)));
    }

    #[test]
    fn failed_endpoint_has_no_route() {
        let g = kautz(2, 2);
        let mut faults = FaultSet::new();
        faults.fail_node(0);
        assert_eq!(fault_tolerant_route(&g, 0, 3, &faults), None);
        assert_eq!(fault_tolerant_route(&g, 3, 0, &faults), None);
    }

    #[test]
    fn kautz_bound_holds_exhaustively_for_small_instances() {
        // KG(2, 2): d - 1 = 1 fault; enumerate every single-node fault.
        let (d, k) = (2, 2);
        let g = kautz(d, k);
        let patterns: Vec<Vec<usize>> = (0..g.node_count()).map(|u| vec![u]).collect();
        let report = validate_kautz_fault_bound(&g, d, k, &patterns);
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.disconnected, 0);
        assert!(report.worst_length <= k + 2);
        assert!(report.cases > 0);
    }

    #[test]
    fn kautz_bound_holds_for_kg_3_2_with_two_faults() {
        let (d, k) = (3, 2);
        let g = kautz(d, k);
        // All unordered pairs of failed nodes (d - 1 = 2 faults).
        let mut patterns = Vec::new();
        for a in 0..g.node_count() {
            for b in (a + 1)..g.node_count() {
                patterns.push(vec![a, b]);
            }
        }
        let report = validate_kautz_fault_bound(&g, d, k, &patterns);
        assert!(report.holds(), "{report:?}");
    }

    #[test]
    #[should_panic(expected = "only covers up to")]
    fn too_many_faults_rejected() {
        let g = kautz(2, 2);
        validate_kautz_fault_bound(&g, 2, 2, &[vec![0, 1]]);
    }

    #[test]
    fn fault_pattern_enumeration_is_exhaustive_and_ordered() {
        assert_eq!(node_fault_patterns_up_to(4, 0), vec![FaultSet::new()]);
        // Sizes above n contribute nothing: 1 + 3 + 3 + 1 sets.
        assert_eq!(node_fault_patterns_up_to(3, 4).len(), 8);
        let singles = &node_fault_patterns_up_to(3, 1)[1..];
        assert_eq!(singles.len(), 3);
        assert_eq!(singles[0].sorted_nodes(), vec![0]);
        assert_eq!(singles[2].sorted_nodes(), vec![2]);
        // Up-to includes the empty baseline plus all smaller sizes; the
        // C(5, 2) = 10 pairs come last, lexicographic.
        let sweep = node_fault_patterns_up_to(5, 2);
        assert_eq!(sweep.len(), 1 + 5 + 10);
        assert!(sweep[0].is_empty());
        let pairs = &sweep[6..];
        assert_eq!(pairs[0].sorted_nodes(), vec![0, 1]);
        assert_eq!(pairs[9].sorted_nodes(), vec![3, 4]);
        // Exhaustive and ordered for every small case: Σ C(n, k) distinct
        // sets, sizes ascending, each size lexicographic.
        let binomial = |n: usize, k: usize| (0..k).fold(1, |c, i| c * (n - i) / (i + 1));
        for n in 0..6 {
            for max_size in 0..=n + 1 {
                let sweep = node_fault_patterns_up_to(n, max_size);
                let expected: usize = (0..=max_size.min(n)).map(|k| binomial(n, k)).sum();
                assert_eq!(sweep.len(), expected, "n={n} max={max_size}");
                let keys: Vec<(usize, Vec<usize>)> = sweep
                    .iter()
                    .map(|faults| (faults.len(), faults.sorted_nodes()))
                    .collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "n={n} max={max_size}");
                assert!(keys.iter().all(|(_, nodes)| nodes.iter().all(|&v| v < n)));
            }
        }
    }

    #[test]
    fn surviving_subgraph_drops_exactly_the_blocked_arcs() {
        let g = kautz(2, 2);
        let mut faults = FaultSet::new();
        faults.fail_node(0);
        let arc = g
            .arcs()
            .iter()
            .find(|a| a.source != 0 && a.target != 0)
            .copied()
            .unwrap();
        faults.fail_arc(arc.source, arc.target);
        let survivor = surviving_subgraph(&g, &faults);
        assert_eq!(survivor.node_count(), g.node_count());
        assert_eq!(survivor.out_degree(0), 0);
        assert_eq!(survivor.in_degree(0), 0);
        assert!(!survivor.has_arc(arc.source, arc.target));
        let expected = g
            .arcs()
            .iter()
            .filter(|a| !faults.blocks(a.source, a.target))
            .count();
        assert_eq!(survivor.arc_count(), expected);
        // No faults: the graph is unchanged.
        assert!(surviving_subgraph(&g, &FaultSet::new()).same_arcs(&g));
    }

    #[test]
    fn no_faults_reduces_to_shortest_path() {
        let g = kautz(2, 3);
        let faults = FaultSet::new();
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                let path = fault_tolerant_route(&g, src, dst, &faults).unwrap();
                assert!(path.len() - 1 <= 3);
            }
        }
    }
}
