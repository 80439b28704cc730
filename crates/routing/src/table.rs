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
//! A [`DistanceTable`] holds only the distances and is built by a
//! word-parallel BFS that advances 64 destinations per `u64` mask.  It is
//! what the hot-potato router ranks ports with.  Its entries are one byte
//! each, or two bytes for a graph with a finite distance of 255 or more
//! (the de Bruijn and Kautz baselines route in at most `k` hops, so they
//! never need two).  A table above 1 MiB (`n > 1024` for byte entries)
//! no longer fits in L2 next to the slot loop's own state, so
//! [`DistanceTable::prefetch_pays`] tells the slot loop to issue
//! [`DistanceTable::prefetch`] hints for the entries it is about to read.

use otis_graphs::algorithms::bfs::UNREACHABLE;
use otis_graphs::{Digraph, NodeId};
use std::collections::VecDeque;

/// Tables larger than this many bytes are worth prefetching from; see
/// [`DistanceTable::prefetch_pays`].
const PREFETCH_MIN_BYTES: usize = 1 << 20;

/// A distance-table entry: `u8` or `u16`, whose all-ones value marks an
/// unreachable pair and sorts after every finite distance.
pub(crate) trait Entry: Copy + Ord + Into<u32> {
    /// The unreachable marker, all ones.
    const UNREACHABLE: Self;
    /// BFS level `level` as an entry; `None` once it reaches the marker.
    fn level(level: u32) -> Option<Self>;
    /// `self & level` where bit 0 of `bit` is set, `self` otherwise,
    /// without a branch.
    fn set_if(self, level: Self, bit: u64) -> Self;
    /// An entry, or a ranking's `u32` copy of one, as the router reports
    /// distances: finite ones unchanged, the marker as `u16::MAX`.
    fn widen(d: u32) -> u16;
}

macro_rules! entry {
    ($t:ty) => {
        impl Entry for $t {
            const UNREACHABLE: Self = <$t>::MAX;
            #[inline]
            fn level(level: u32) -> Option<Self> {
                <$t>::try_from(level).ok().filter(|&l| l != <$t>::MAX)
            }
            #[inline(always)]
            fn set_if(self, level: Self, bit: u64) -> Self {
                self & (level | ((bit & 1) as $t).wrapping_sub(1))
            }
            #[inline(always)]
            fn widen(d: u32) -> u16 {
                d as u16 | (u16::from(d == u32::from(<$t>::MAX))).wrapping_neg()
            }
        }
    };
}
entry!(u8);
entry!(u16);

/// A table's entries at the width it was built with.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Entries {
    Byte(Vec<u8>),
    Wide(Vec<u16>),
}

/// A borrowed table of one entry width, destination-major like
/// [`DistanceTable`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table<'a, E> {
    n: usize,
    dist: &'a [E],
}

impl<'a, E: Entry> Table<'a, E> {
    /// Destination `dst`'s column: entry `u` is the distance from `u` to
    /// `dst`.  The unreachable marker sorts after every finite distance,
    /// so the port chooser can compare entries directly.
    #[inline(always)]
    pub(crate) fn column(self, dst: NodeId) -> &'a [E] {
        &self.dist[dst * self.n..(dst + 1) * self.n]
    }

    /// The `(src, dst)` entry.
    #[inline(always)]
    pub(crate) fn entry(self, src: NodeId, dst: NodeId) -> E {
        self.dist[dst * self.n + src]
    }

    /// Distance from `src` to `dst`; `None` when unreachable.
    #[inline]
    fn distance(self, src: NodeId, dst: NodeId) -> Option<u32> {
        assert!(src < self.n && dst < self.n, "node out of range");
        let d = self.entry(src, dst);
        (d != E::UNREACHABLE).then(|| d.into())
    }

    /// See [`DistanceTable::prefetch`].
    #[inline(always)]
    fn prefetch(self, src: NodeId, dst: NodeId) {
        let entry: *const E = &self.dist[dst * self.n + src];
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

/// A [`DistanceTable`] at its entry width, for code that runs one generic
/// body over either.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Width<'a> {
    /// One byte per entry, `u8::MAX` unreachable.
    Byte(Table<'a, u8>),
    /// Two bytes per entry, `u16::MAX` unreachable.
    Wide(Table<'a, u16>),
}

/// Runs `$body` with `$t` bound to `$table`'s [`Table`] at its entry
/// width: one generic body, compiled once per width.
macro_rules! with_width {
    ($table:expr, |$t:ident| $body:expr) => {
        match $table.width() {
            $crate::table::Width::Byte($t) => $body,
            $crate::table::Width::Wide($t) => $body,
        }
    };
}
pub(crate) use with_width;

/// All-pairs hop distances of a digraph, without next hops.
///
/// Destination-major: entry `dst * n + u` is the distance from `u` to
/// `dst`, so one destination's column is a contiguous slice.  Entries are
/// `u8`, with `u8::MAX` marking an unreachable pair, unless some finite
/// distance is 255 or more: then they are `u16`, with `u16::MAX`
/// unreachable.  A finite distance is at most `n − 1`, so a graph of at
/// most 255 nodes always gets bytes, and `u16` is exact for every
/// `n ≤ 65 535` (a larger table would already need 8 GiB).  Above 1 MiB a
/// reader that knows its lookups ahead of time can start them early with
/// [`DistanceTable::prefetch`]; see [`DistanceTable::prefetch_pays`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceTable {
    n: usize,
    entries: Entries,
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
    /// cache sets when `n` is a power of two.  The fill first runs with
    /// byte entries and gives up at the first pair 255 hops apart; only
    /// then does it run again with two-byte entries.  Time
    /// `O(n/64 · D · (n + m))` for a digraph of diameter `D`, memory `n²`
    /// bytes (`2n²` when `D ≥ 255`).
    ///
    /// # Panics
    ///
    /// Panics if the digraph has more than [`DistanceTable::MAX_NODES`]
    /// (65 535) nodes.
    pub fn new(g: &Digraph) -> Self {
        let n = g.node_count();
        assert!(
            n <= Self::MAX_NODES,
            "a distance table covers at most 65 535 nodes, got {n}"
        );
        let entries = match fill::<u8>(g) {
            Some(dist) => Entries::Byte(dist),
            None => Entries::Wide(
                fill::<u16>(g).expect("a finite distance is at most n − 1 < u16::MAX"),
            ),
        };
        DistanceTable { n, entries }
    }

    /// Number of nodes the table covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The table at its entry width.
    #[inline(always)]
    pub(crate) fn width(&self) -> Width<'_> {
        match &self.entries {
            Entries::Byte(dist) => Width::Byte(Table { n: self.n, dist }),
            Entries::Wide(dist) => Width::Wide(Table { n: self.n, dist }),
        }
    }

    /// Distance from `src` to `dst`; `None` when unreachable.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        with_width!(self, |t| t.distance(src, dst))
    }

    /// Whether prefetching this table's entries pays: the table's `n²`
    /// entries take more than 1 MiB (`n > 1024` for byte entries,
    /// `n > 724` for two-byte ones), so a random entry is most likely an
    /// L3 or memory access.  Smaller tables stay cache-resident, and there
    /// a hint would only add instructions.
    pub fn prefetch_pays(&self) -> bool {
        let bytes = match &self.entries {
            Entries::Byte(dist) => dist.len(),
            Entries::Wide(dist) => 2 * dist.len(),
        };
        bytes > PREFETCH_MIN_BYTES
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
        with_width!(self, |t| t.prefetch(src, dst))
    }
}

/// The fill of [`DistanceTable::new`] with entries of type `E`: `None` as
/// soon as a BFS level reaches `E::UNREACHABLE`, so that `E` cannot hold
/// some finite distance.
fn fill<E: Entry>(g: &Digraph) -> Option<Vec<E>> {
    let n = g.node_count();
    let mut dist = vec![E::UNREACHABLE; n * n];
    let mut stage = vec![E::UNREACHABLE; n * 64];
    let mut visited = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let zero = E::level(0).expect("every width holds level 0");
    for batch in (0..n).step_by(64) {
        let width = (n - batch).min(64);
        let full = u64::MAX >> (64 - width);
        stage.fill(E::UNREACHABLE);
        visited.fill(0);
        frontier.fill(0);
        for j in 0..width {
            let dst = batch + j;
            visited[dst] = 1 << j;
            frontier[dst] = 1 << j;
            stage[dst * 64 + j] = zero;
        }
        let mut level = 0u32;
        loop {
            level += 1;
            // `None` once the level reaches the marker: the first node that
            // gains a destination there ends the fill.
            let mark = E::level(level);
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
                    let mark = mark?;
                    // A fresh bit's entry still holds the marker, all
                    // ones, so AND-ing `mark` in sets it; every other
                    // entry is AND-ed with all ones.  Branch-free, unlike
                    // a walk over the set bits.
                    let row = &mut stage[u * 64..u * 64 + 64];
                    for (j, d) in row.iter_mut().enumerate() {
                        *d = d.set_if(mark, fresh >> j);
                    }
                }
            }
            if grown == 0 {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        // Transpose in 64-node tiles: a tile of `stage` (at most 8 KiB)
        // stays in L1 while each column receives whole cache lines.
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
    Some(dist)
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
        assert!(matches!(table.width(), Width::Wide(t) if t.column(0)[1] == 299));
    }

    /// A directed ring `0 → 1 → … → n − 1 → 0`: its longest distance is
    /// `n − 1`.
    fn ring(n: usize) -> Digraph {
        let edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        Digraph::from_edges(n, &edges)
    }

    fn is_byte(table: &DistanceTable) -> bool {
        matches!(table.width(), Width::Byte(_))
    }

    #[test]
    fn prefetch_pays_only_above_one_mebibyte() {
        // Byte entries: 1024² bytes is exactly 1 MiB, 1025² just over.
        for (n, pays) in [(1024, false), (1025, true)] {
            let table = DistanceTable::new(&Digraph::from_edges(n, &[]));
            assert!(is_byte(&table), "n = {n}");
            assert_eq!(table.prefetch_pays(), pays, "n = {n}");
            // The first and last entries are in bounds.
            table.prefetch(0, 0);
            table.prefetch(n - 1, n - 1);
        }
        // Two-byte entries: 2·724² bytes is just under 1 MiB, 2·725² just
        // over.
        for (n, pays) in [(724, false), (725, true)] {
            let table = DistanceTable::new(&ring(n));
            assert!(!is_byte(&table), "ring({n})");
            assert_eq!(table.prefetch_pays(), pays, "ring({n})");
            table.prefetch(0, 0);
            table.prefetch(n - 1, n - 1);
        }
        assert!(!DistanceTable::new(&de_bruijn(2, 8)).prefetch_pays());
    }

    #[test]
    fn only_a_distance_of_255_or_more_widens_the_entries() {
        // ring(255)'s longest distance is 254, ring(256)'s is 255.
        for (n, byte) in [(255, true), (256, false)] {
            let g = ring(n);
            let table = DistanceTable::new(&g);
            assert_eq!(is_byte(&table), byte, "ring({n})");
            assert_distances_match(&g, &format!("ring({n})"));
            assert_eq!(table.distance(1, 0), Some(n as u32 - 1));
        }
        // The baselines route in at most k hops.
        for (name, g) in [
            ("DB(2,11)", de_bruijn(2, 11)),
            ("KG(2,10)", kautz(2, 10)),
            ("DB(2,8)", de_bruijn(2, 8)),
        ] {
            let table = DistanceTable::new(&g);
            assert!(is_byte(&table), "{name}");
            assert!(table.prefetch_pays() == (g.node_count() > 1024), "{name}");
        }
        // A hub on a 300-node ring keeps every distance at 2 or less; the
        // ring alone needs two bytes.
        use crate::fault_tolerant::{surviving_subgraph, FaultSet};
        let hub = ring_and_hub(300);
        assert!(is_byte(&DistanceTable::new(&hub)));
        assert_distances_match(&hub, "ring+hub(300)");
        let mut faults = FaultSet::new();
        faults.fail_node(300);
        let ring_only = surviving_subgraph(&hub, &faults);
        let table = DistanceTable::new(&ring_only);
        assert!(!is_byte(&table));
        assert_eq!(table.distance(1, 0), Some(299));
        assert_eq!(table.distance(1, 300), None);
    }

    /// A directed ring of `n` nodes plus a hub `n` with an arc to and from
    /// every ring node.
    fn ring_and_hub(n: usize) -> Digraph {
        let mut edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        edges.extend((0..n).flat_map(|u| [(u, n), (n, u)]));
        Digraph::from_edges(n + 1, &edges)
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
