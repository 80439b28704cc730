//! Generic next-hop routing tables and all-pairs distance tables.
//!
//! A [`RoutingTable`] holds, for every (current node, destination) pair, the
//! next node to forward to along one shortest path.  It is computed by a
//! reverse BFS from every destination, works for any strongly connected
//! digraph, and serves two purposes in the reproduction: it is the reference
//! against which the specialised label/arithmetic routers are validated, and
//! it is the routing oracle of the multi-OPS stack routes and of the
//! facade's point-to-point route queries.
//!
//! A [`DistanceTable`] holds only the distances, as `u16`, and is built by a
//! word-parallel BFS that advances 64 destinations per `u64` mask.  It is
//! what the hot-potato router ranks ports with.  A table above 1 MiB
//! (`n > 724`) no longer fits in L2 next to the slot loop's own state, so
//! [`DistanceTable::prefetch_pays`] tells the slot loop to issue
//! [`DistanceTable::prefetch`] hints for the entries it is about to read.

use otis_graphs::algorithms::bfs::UNREACHABLE;
use otis_graphs::{Digraph, NodeId};
use std::collections::VecDeque;

/// Tables larger than this many bytes are worth prefetching from; see
/// [`DistanceTable::prefetch_pays`].
const PREFETCH_MIN_BYTES: usize = 1 << 20;

/// All-pairs hop distances of a digraph, without next hops.
///
/// Destination-major: `dist[dst * n + u]` is the distance from `u` to `dst`,
/// so one destination's column is a contiguous slice.  `u16::MAX` marks an
/// unreachable pair.  A finite distance is at most `n − 1`, so `u16` is exact
/// for every `n ≤ 65 535` (a larger table would already need 8 GiB).  Above
/// 1 MiB a reader that knows its lookups ahead of time can start them early
/// with [`DistanceTable::prefetch`]; see [`DistanceTable::prefetch_pays`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceTable {
    n: usize,
    dist: Vec<u16>,
}

impl DistanceTable {
    /// The most nodes a table covers: finite distances must stay below the
    /// `u16::MAX` unreachable marker.
    pub const MAX_NODES: usize = u16::MAX as usize;

    /// Builds the table for a digraph, 64 destinations per pass.
    ///
    /// Per pass, bit `j` of `visited[u]` says `u` already reaches destination
    /// `batch + j`, and `frontier[u]` holds the bits `u` gained at the
    /// previous level.  One level computes, for every node,
    /// `OR(frontier[w] for w in out(u)) & !visited[u]`: the destinations `u`
    /// reaches in exactly one more hop.  Levels are staged in a node-major
    /// `n × 64` buffer and transposed into the 64 destination columns once
    /// the pass ends; writing the columns directly with stride `n` aliases
    /// cache sets when `n` is a power of two.  Time `O(n/64 · D · (n + m))`
    /// for a digraph of diameter `D`, memory `2n²` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the digraph has more than [`DistanceTable::MAX_NODES`]
    /// (65 535) nodes.
    pub fn new(g: &Digraph) -> Self {
        let n = g.node_count();
        assert!(
            n <= Self::MAX_NODES,
            "a u16 distance table covers at most 65 535 nodes, got {n}"
        );
        let mut dist = vec![u16::MAX; n * n];
        let mut stage = vec![u16::MAX; n * 64];
        let mut visited = vec![0u64; n];
        let mut frontier = vec![0u64; n];
        let mut next = vec![0u64; n];
        for batch in (0..n).step_by(64) {
            let width = (n - batch).min(64);
            let full = u64::MAX >> (64 - width);
            stage.fill(u16::MAX);
            visited.fill(0);
            frontier.fill(0);
            for j in 0..width {
                let dst = batch + j;
                visited[dst] = 1 << j;
                frontier[dst] = 1 << j;
                stage[dst * 64 + j] = 0;
            }
            let mut level = 0u16;
            loop {
                level += 1;
                let mut grown = 0u64;
                for (u, slot) in next.iter_mut().enumerate() {
                    let seen = visited[u];
                    if seen == full {
                        *slot = 0;
                        continue;
                    }
                    let reach = g
                        .out_neighbors(u)
                        .iter()
                        .fold(0u64, |acc, &w| acc | frontier[w]);
                    let fresh = reach & !seen;
                    *slot = fresh;
                    grown |= fresh;
                    visited[u] = seen | fresh;
                    if fresh != 0 {
                        // A fresh bit's entry still holds `u16::MAX`, so
                        // AND-ing `level` in sets it; every other entry is
                        // AND-ed with all ones.  Branch-free, unlike a walk
                        // over the set bits.
                        let row = &mut stage[u * 64..u * 64 + 64];
                        for (j, d) in row.iter_mut().enumerate() {
                            *d &= level | ((fresh >> j & 1) as u16).wrapping_sub(1);
                        }
                    }
                }
                if grown == 0 {
                    break;
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            // Transpose in 64-node tiles: an 8 KiB tile of `stage` stays in
            // L1 while each column receives whole cache lines.
            for tile in (0..n).step_by(64) {
                let end = (tile + 64).min(n);
                for j in 0..width {
                    let column = (batch + j) * n;
                    for (u, d) in dist[column + tile..column + end].iter_mut().enumerate() {
                        *d = stage[(tile + u) * 64 + j];
                    }
                }
            }
        }
        DistanceTable { n, dist }
    }

    /// Number of nodes the table covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Distance from `src` to `dst`; `None` when unreachable.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        assert!(src < self.n && dst < self.n, "node out of range");
        match self.dist[dst * self.n + src] {
            u16::MAX => None,
            d => Some(u32::from(d)),
        }
    }

    /// Destination `dst`'s column: entry `u` is the distance from `u` to
    /// `dst`, `u16::MAX` when unreachable.  Unreachable sorts after every
    /// finite distance, so the port chooser can compare entries directly.
    #[inline]
    pub fn column(&self, dst: NodeId) -> &[u16] {
        &self.dist[dst * self.n..(dst + 1) * self.n]
    }

    /// Whether prefetching this table's entries pays: the table's `2n²`
    /// bytes exceed 1 MiB (`n > 724`), so a random entry is most likely an
    /// L3 or memory access.  Smaller tables stay cache-resident, and there
    /// a hint would only add instructions.
    pub fn prefetch_pays(&self) -> bool {
        2 * self.dist.len() > PREFETCH_MIN_BYTES
    }

    /// Hints the CPU to fetch the cache line holding the `(src, dst)` entry,
    /// so a read issued a little later finds it in cache.  The hint has no
    /// effect on any result, and it compiles to nothing off `x86_64`.
    ///
    /// # Panics
    ///
    /// Panics if `dst * n + src` is outside the table.
    #[inline]
    pub fn prefetch(&self, src: NodeId, dst: NodeId) {
        let entry: *const u16 = &self.dist[dst * self.n + src];
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` is only a hint: it never faults, writes
        // nothing and has no architectural effect.  `entry` points into
        // `self.dist` anyway, since the index above is bounds-checked.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(entry.cast());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = entry;
    }
}

/// Precomputed next-hop table and distance matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    n: usize,
    /// `next[dst * n + u]`: next hop from `u` towards `dst` (`usize::MAX`
    /// when unreachable or `u == dst`).
    next: Vec<usize>,
    /// `dist[dst * n + u]`: distance from `u` to `dst` in arcs.
    dist: Vec<u32>,
}

impl RoutingTable {
    /// Builds the table for a digraph.  Time `O(n·(n + m))`, memory `O(n²)`.
    pub fn new(g: &Digraph) -> Self {
        let n = g.node_count();
        let reverse = g.reverse();
        let mut next = vec![usize::MAX; n * n];
        let mut dist = vec![UNREACHABLE; n * n];
        let mut queue = VecDeque::new();
        for dst in 0..n {
            let base = dst * n;
            dist[base + dst] = 0;
            queue.clear();
            queue.push_back(dst);
            // BFS on the reverse graph: when we reach u from w (i.e. the
            // original graph has arc u -> w), then forwarding from u towards
            // dst can go through w.
            while let Some(w) = queue.pop_front() {
                let dw = dist[base + w];
                for &u in reverse.out_neighbors(w) {
                    if dist[base + u] == UNREACHABLE {
                        dist[base + u] = dw + 1;
                        next[base + u] = w;
                        queue.push_back(u);
                    }
                }
            }
        }
        RoutingTable { n, next, dist }
    }

    /// Number of nodes the table covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Next hop from `current` towards `dst`; `None` when `current == dst` or
    /// `dst` is unreachable.
    pub fn next_hop(&self, current: NodeId, dst: NodeId) -> Option<NodeId> {
        assert!(current < self.n && dst < self.n, "node out of range");
        if current == dst {
            return None;
        }
        let hop = self.next[dst * self.n + current];
        if hop == usize::MAX {
            None
        } else {
            Some(hop)
        }
    }

    /// Distance from `src` to `dst`; `None` when unreachable.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        assert!(src < self.n && dst < self.n, "node out of range");
        let d = self.dist[dst * self.n + src];
        if d == UNREACHABLE {
            None
        } else {
            Some(d)
        }
    }

    /// The complete route from `src` to `dst` following the table, or `None`
    /// if unreachable.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.distance(src, dst)?;
        let mut path = vec![src];
        let mut current = src;
        while current != dst {
            current = self.next_hop(current, dst)?;
            path.push(current);
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{diameter, is_valid_path};
    use otis_topologies::{de_bruijn, kautz};

    #[test]
    fn table_routes_are_shortest_on_kautz() {
        let g = kautz(2, 3);
        let table = RoutingTable::new(&g);
        let mut max = 0;
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                let route = table.route(src, dst).unwrap();
                assert!(is_valid_path(&g, &route));
                let distance = table.distance(src, dst).unwrap();
                assert_eq!((route.len() - 1) as u32, distance);
                max = max.max(distance);
            }
        }
        assert_eq!(Some(max), diameter(&g));
    }

    #[test]
    fn table_on_de_bruijn() {
        let g = de_bruijn(2, 3);
        let table = RoutingTable::new(&g);
        assert_eq!(table.node_count(), 8);
        let max = (0..8)
            .flat_map(|src| (0..8).map(move |dst| (src, dst)))
            .map(|(src, dst)| table.distance(src, dst).unwrap())
            .max();
        assert_eq!(max, Some(3));
    }

    #[test]
    fn next_hop_of_destination_is_none() {
        let g = kautz(2, 2);
        let table = RoutingTable::new(&g);
        assert_eq!(table.next_hop(3, 3), None);
        assert_eq!(table.distance(3, 3), Some(0));
        assert_eq!(table.route(3, 3), Some(vec![3]));
    }

    #[test]
    fn unreachable_pairs() {
        let g = Digraph::from_edges(3, &[(0, 1)]);
        let table = RoutingTable::new(&g);
        assert_eq!(table.distance(1, 0), None);
        assert_eq!(table.route(1, 0), None);
        assert_eq!(table.next_hop(1, 0), None);
        assert_eq!(table.distance(0, 1), Some(1));
    }

    /// Asserts `DistanceTable::new(g)` equals `RoutingTable::distance` on
    /// every ordered pair.
    fn assert_distances_match(g: &Digraph, what: &str) {
        let table = DistanceTable::new(g);
        let reference = RoutingTable::new(g);
        assert_eq!(table.node_count(), g.node_count(), "{what}");
        for dst in 0..g.node_count() {
            for u in 0..g.node_count() {
                assert_eq!(
                    table.distance(u, dst),
                    reference.distance(u, dst),
                    "{what}: {u} -> {dst}"
                );
            }
        }
    }

    #[test]
    fn distance_tables_match_routing_tables_under_random_faults() {
        use crate::fault_tolerant::{surviving_subgraph, FaultSet};
        use otis_topologies::{complete_digraph, imase_itoh};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Node counts straddle the 64-destination batch boundary: 1, 2, 63,
        // 64, 65 and 130, plus label-structured DB and KG sizes.
        let graphs = [
            ("K(1)", complete_digraph(1)),
            ("K(2)", complete_digraph(2)),
            ("K(5)", complete_digraph(5)),
            ("II(2,63)", imase_itoh(2, 63)),
            ("II(2,64)", imase_itoh(2, 64)),
            ("II(3,65)", imase_itoh(3, 65)),
            ("II(2,130)", imase_itoh(2, 130)),
            ("DB(2,6)", de_bruijn(2, 6)),
            ("DB(3,4)", de_bruijn(3, 4)),
            ("KG(2,5)", kautz(2, 5)),
            ("KG(3,3)", kautz(3, 3)),
        ];
        let mut rng = StdRng::seed_from_u64(0x0715);
        for (name, g) in &graphs {
            assert_distances_match(g, name);
            let n = g.node_count();
            for _ in 0..4 {
                let mut faults = FaultSet::new();
                for _ in 0..rng.gen_range(0..4) {
                    faults.fail_node(rng.gen_range(0..n));
                }
                let arc_faults = if g.arc_count() == 0 {
                    0
                } else {
                    rng.gen_range(0..4)
                };
                for _ in 0..arc_faults {
                    let arc = g.arcs()[rng.gen_range(0..g.arc_count())];
                    faults.fail_arc(arc.source, arc.target);
                }
                let survivor = surviving_subgraph(g, &faults);
                assert_distances_match(
                    &survivor,
                    &format!(
                        "{name} minus nodes {:?}, arcs {:?}",
                        faults.sorted_nodes(),
                        faults.sorted_arcs()
                    ),
                );
            }
        }
    }

    #[test]
    fn distance_tables_handle_disconnection_loops_and_parallel_arcs() {
        // Two directed rings (nodes 0..40 and 40..70) and isolated nodes
        // 70..100: most pairs are unreachable, across two batches.
        let mut edges: Vec<(usize, usize)> = (0..40).map(|u| (u, (u + 1) % 40)).collect();
        edges.extend((40..70).map(|u| (u, 40 + (u - 39) % 30)));
        let disconnected = Digraph::from_edges(100, &edges);
        assert_distances_match(&disconnected, "two rings and isolated nodes");
        let table = DistanceTable::new(&disconnected);
        assert_eq!(table.distance(0, 40), None);
        assert_eq!(table.distance(70, 71), None);
        assert_eq!(table.distance(70, 70), Some(0));
        assert_eq!(table.distance(41, 40), Some(29));

        // Self-loops on every node and tripled arcs never shorten a path.
        let mut edges: Vec<(usize, usize)> = (0..70).map(|u| (u, u)).collect();
        for u in 0..70 {
            for _ in 0..3 {
                edges.push((u, (u * 7 + 1) % 70));
            }
        }
        let multi = Digraph::from_edges(70, &edges);
        assert_distances_match(&multi, "self-loops and parallel arcs");
        // DB(2,k) has a self-loop at both constant words.
        assert_distances_match(&de_bruijn(2, 5), "DB(2,5)");
    }

    #[test]
    fn distance_tables_hold_distances_beyond_255() {
        // A 300-node directed ring: u reaches dst in (dst − u) mod 300 hops,
        // up to 299, which no u8 entry could hold.
        let n = 300;
        let edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        let ring = Digraph::from_edges(n, &edges);
        assert_distances_match(&ring, "ring(300)");
        let table = DistanceTable::new(&ring);
        for dst in 0..n {
            for u in 0..n {
                assert_eq!(
                    table.distance(u, dst),
                    Some(((dst + n - u) % n) as u32),
                    "{u} -> {dst}"
                );
            }
        }
        assert_eq!(table.distance(1, 0), Some(299));
        assert_eq!(table.column(0)[1], 299);
    }

    #[test]
    fn prefetch_pays_only_above_one_mebibyte() {
        // 2·724² bytes is just under 1 MiB, 2·725² just over.
        for (n, pays) in [(724, false), (725, true)] {
            let table = DistanceTable::new(&Digraph::from_edges(n, &[]));
            assert_eq!(table.prefetch_pays(), pays, "n = {n}");
            // The first and last entries are in bounds.
            table.prefetch(0, 0);
            table.prefetch(n - 1, n - 1);
        }
        assert!(!DistanceTable::new(&de_bruijn(2, 8)).prefetch_pays());
    }

    #[test]
    fn next_hop_is_an_out_neighbor() {
        let g = kautz(3, 2);
        let table = RoutingTable::new(&g);
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                if let Some(hop) = table.next_hop(src, dst) {
                    assert!(g.out_neighbors(src).contains(&hop));
                }
            }
        }
    }
}
