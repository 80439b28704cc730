//! Hot-potato (deflection) routing.
//!
//! The single-OPS / point-to-point baseline the multi-OPS designs are
//! compared against (Zhang & Acampora, ref \[25\] of the paper) uses hot-potato
//! routing: a node never buffers a transit message — in every slot each
//! incoming message must leave on *some* output link, preferably one on a
//! shortest path to its destination, otherwise it is *deflected* onto any
//! free link.  This module provides the per-node decision procedure; the
//! slotted simulator drives it.
//!
//! Ranking ports needs only the distance from each out-neighbour to the
//! destination, so the router keeps a [`DistanceTable`] (`n²` entries of
//! one byte, or two for a graph with a finite distance of 255 or more,
//! built 64 destinations per word-parallel BFS pass) and no next hops.
//! Every method that reads the table runs one generic body over either
//! entry width and reports distances as `u16`.  A router for a faulted
//! network is built the same way on the surviving subgraph: there is no
//! incremental repair path.
//!
//! The chooser, [`HotPotatoRouter::choose_port_randomized_masked`], reads
//! the free ports as `u64` words and keeps its tie set the same way: one
//! bitmask per 64-port word, filled by a fixed-trip, branch-free pass, and
//! one uniform draw over the tie count that takes the `r`-th set bit.  It
//! needs no buffer, and its decisions and draws are those of a
//! port-by-port scan.  It also returns the chosen port's distance, so a
//! caller that counts deflections asks
//! [`HotPotatoRouter::makes_progress`] without reading that entry again.
//!
//! Above 1 MiB (`n > 1024` for byte entries) the table outgrows L2, and
//! each ranking waits on a cache miss.  [`HotPotatoRouter::prefetch_pays`]
//! reports that case, and [`HotPotatoRouter::prefetch`] then lets a caller
//! that knows its coming decisions ahead of time start the table reads
//! early.  The hint never changes a decision.

use crate::table::{with_width, DistanceTable, Entry};
use otis_graphs::{Digraph, NodeId};
use rand::Rng;
use std::sync::Arc;

/// A hot-potato routing oracle for one digraph.
///
/// The digraph is held behind an [`Arc`], so long-lived prepared simulation
/// kernels can share one graph instance instead of deep-cloning it per
/// router — see [`HotPotatoRouter::from_shared`].
#[derive(Debug, Clone)]
pub struct HotPotatoRouter {
    graph: Arc<Digraph>,
    table: DistanceTable,
}

impl HotPotatoRouter {
    /// Builds the oracle (precomputes the all-pairs [`DistanceTable`]).
    pub fn new(graph: Digraph) -> Self {
        Self::from_shared(Arc::new(graph))
    }

    /// Borrow-based construction: builds the oracle over an already-shared
    /// digraph without copying any arc data — only the distance table is
    /// computed.  This is the constructor prepared simulation kernels use.
    pub fn from_shared(graph: Arc<Digraph>) -> Self {
        let table = DistanceTable::new(&graph);
        HotPotatoRouter { graph, table }
    }

    /// The underlying digraph.
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// Whether [`HotPotatoRouter::prefetch`] hints pay for this router's
    /// table; see [`DistanceTable::prefetch_pays`].
    pub fn prefetch_pays(&self) -> bool {
        self.table.prefetch_pays()
    }

    /// Prefetch hint for a coming decision at `node` towards `dst`.  It
    /// fetches the table line that holds the first out-neighbour's distance,
    /// which the port chooser reads.  On de Bruijn and Kautz digraphs a
    /// node's out-neighbours are consecutive, so that line usually holds
    /// all of them.  With `here` set, it also fetches the `(node, dst)`
    /// entry that [`HotPotatoRouter::distance`] and
    /// [`HotPotatoRouter::makes_progress`] read.
    #[inline]
    pub fn prefetch(&self, node: NodeId, dst: NodeId, here: bool) {
        if let Some(&next) = self.graph.out_neighbors(node).first() {
            self.table.prefetch(next, dst);
        }
        if here {
            self.table.prefetch(node, dst);
        }
    }

    /// Distance oracle (hops) from `src` to `dst`.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        self.table.distance(src, dst)
    }

    /// Chooses an output port for a message at `node` heading to `dst`:
    /// among the free ports, those whose out-neighbour is closest to `dst`
    /// tie, and one of them is picked uniformly at random (the classical
    /// randomised deflection rule).  Deflection is being handed a port that
    /// is not on a shortest path because those are taken.  Returns the port
    /// and its out-neighbour's table distance to `dst` (`u16::MAX` when
    /// unreachable), or `None` when every port is busy.
    ///
    /// Port `p` is free when bit `p & 63` of `free_words[p >> 6]` is set,
    /// so the per-slot simulation loop keeps its port occupancy as a few
    /// `u64` words.  One RNG draw, `gen_range(0..ties)`, is consumed per
    /// decision that finds a free port.
    ///
    /// The tie set is a `u64` bitmask per 64-port word, built by a
    /// fixed-trip, branch-free pass over the word's ports: a busy port
    /// ranks past every table entry, the running minimum and its tie mask
    /// update with masks instead of jumps, and the free mask is applied
    /// once at the end.  The draw then takes the `r`-th set bit in
    /// ascending port order, so the tie set, the draw and the decision are
    /// exactly those of a port-by-port scan that lists the tied ports.  A
    /// one-word mask returns at once when no port is free, and a lone free
    /// port skips the ranking but still takes its draw (over one tie).  A
    /// node with more than 64 ports ranks its words once to find the best
    /// distance and the tie count, and after the draw ranks them again to
    /// find the word that holds the `r`-th tie; no buffer is needed.
    #[inline(always)]
    pub fn choose_port_randomized_masked<R: Rng>(
        &self,
        node: NodeId,
        dst: NodeId,
        free_words: &[u64],
        rng: &mut R,
    ) -> Option<(usize, u16)> {
        let neighbors = self.graph.out_neighbors(node);
        assert!(
            free_words.len() * 64 >= neighbors.len(),
            "port mask too short for out-degree {}",
            neighbors.len()
        );
        with_width!(self.table, |t| {
            choose(t.column(dst), neighbors, free_words, rng)
        })
    }

    /// Whether a hop from `node` to an out-neighbour at table distance
    /// `next` from `dst` (as returned by
    /// [`HotPotatoRouter::choose_port_randomized_masked`]) makes progress:
    /// strictly decreases the distance, with both ends reachable.
    #[inline]
    pub fn makes_progress(&self, node: NodeId, dst: NodeId, next: u16) -> bool {
        with_width!(self.table, |t| progress(t.entry(node, dst), next))
    }
}

/// The body of [`HotPotatoRouter::makes_progress`]: `here` is the table
/// entry of the hop's start.
#[inline(always)]
fn progress<E: Entry>(here: E, next: u16) -> bool {
    here != E::UNREACHABLE && u32::from(next) < here.into()
}

/// The body of [`HotPotatoRouter::choose_port_randomized_masked`] over
/// the destination's column at either entry width.
#[inline(always)]
fn choose<E: Entry, R: Rng>(
    column: &[E],
    neighbors: &[NodeId],
    free_words: &[u64],
    rng: &mut R,
) -> Option<(usize, u16)> {
    if let [word] = *free_words {
        // One word: rank it, draw among its ties.  Bits past the
        // out-degree name no port.
        let width = neighbors.len();
        let free = if width == 64 {
            word
        } else {
            word & ((1u64 << width) - 1)
        };
        if free == 0 {
            return None;
        }
        if free & (free - 1) == 0 {
            // One free port is the whole tie set; its draw is still
            // taken, so the RNG stream does not depend on the mask.
            let port = free.trailing_zeros() as usize;
            rng.gen_range(0..1);
            return Some((port, E::widen(column[neighbors[port]].into())));
        }
        let (best, ties) = rank_word(column, neighbors, free);
        let r = rng.gen_range(0..ties.count_ones() as usize) as u32;
        return Some((nth_set_bit(ties, r), E::widen(best)));
    }
    choose_wide(column, neighbors, free_words, rng)
}

/// Ranks one 64-port word: the least table distance to the column's
/// destination among the word's free ports (`u32::MAX` when none is free)
/// and the mask of the free ports at that distance.  `heads[p]` is port
/// `p`'s out-neighbour and bit `p` of `free` says port `p` is free.  Every
/// port is read, and a busy one ranks at `u32::MAX`, past every entry of
/// either width: it can only join the tie mask while no free port has
/// been seen, and the final `& free` removes it.
#[inline(always)]
fn rank_word<E: Entry>(column: &[E], heads: &[usize], free: u64) -> (u32, u64) {
    let mut best = u32::MAX;
    let mut ties = 0u64;
    for (p, &head) in heads.iter().enumerate() {
        let busy = (!free >> p & 1) as u32;
        let d = column[head].into() | busy.wrapping_neg();
        let less = (d < best) as u64;
        let tied = (d <= best) as u64;
        ties = (ties & !less.wrapping_neg()) | ((1u64 << p) & tied.wrapping_neg());
        best = best.min(d);
    }
    (best, ties & free)
}

/// The chooser for a node of more than 64 ports (or a mask of more than
/// one word): ranks the words once for the best distance and the tie
/// count, draws, and ranks them again to find the word holding the drawn
/// tie.
#[inline(never)]
fn choose_wide<E: Entry, R: Rng>(
    column: &[E],
    neighbors: &[NodeId],
    free_words: &[u64],
    rng: &mut R,
) -> Option<(usize, u16)> {
    let mut best = u32::MAX;
    let mut count = 0u32;
    for (heads, &free) in neighbors.chunks(64).zip(free_words) {
        let (word_best, ties) = rank_word(column, heads, free);
        if word_best < best {
            best = word_best;
            count = 0;
        }
        if word_best == best {
            count += ties.count_ones();
        }
    }
    if count == 0 {
        return None;
    }
    let mut r = rng.gen_range(0..count as usize) as u32;
    // `best` is a table entry once a port is free.
    let distance = E::widen(best);
    for (w, (heads, &free)) in neighbors.chunks(64).zip(free_words).enumerate() {
        let (word_best, ties) = rank_word(column, heads, free);
        if word_best == best {
            let here = ties.count_ones();
            if r < here {
                return Some(((w << 6) + nth_set_bit(ties, r), distance));
            }
            r -= here;
        }
    }
    unreachable!("the drawn tie lies in some word")
}

/// The position of the `r`-th (from zero) set bit of `mask`, which must
/// have more than `r` bits set.
#[inline(always)]
fn nth_set_bit(mut mask: u64, r: u32) -> usize {
    for _ in 0..r {
        mask &= mask - 1;
    }
    mask.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_topologies::{complete_digraph, de_bruijn};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The masked chooser's port with a one-word mask.
    fn choose(router: &HotPotatoRouter, node: NodeId, dst: NodeId, mask: u64) -> Option<usize> {
        let mut rng = StdRng::seed_from_u64(node as u64 ^ (dst as u64) << 32);
        router
            .choose_port_randomized_masked(node, dst, &[mask], &mut rng)
            .map(|(port, _)| port)
    }

    /// Every port of `node` free.
    fn all_free(router: &HotPotatoRouter, node: NodeId) -> u64 {
        (1u64 << router.graph().out_degree(node)) - 1
    }

    /// Reference chooser over a `bool` slice, port by port: the oracle the
    /// masked chooser must match decision for decision and draw for draw.
    fn slice_chooser<R: Rng>(
        router: &HotPotatoRouter,
        node: NodeId,
        dst: NodeId,
        port_free: &[bool],
        rng: &mut R,
    ) -> Option<usize> {
        let mut ties = Vec::new();
        let mut best = u32::MAX;
        for (port, &next) in router.graph().out_neighbors(node).iter().enumerate() {
            if !port_free[port] {
                continue;
            }
            let d = router.distance(next, dst).unwrap_or(u32::MAX);
            if ties.is_empty() || d < best {
                best = d;
                ties.clear();
                ties.push(port);
            } else if d == best {
                ties.push(port);
            }
        }
        (!ties.is_empty()).then(|| ties[rng.gen_range(0..ties.len())])
    }

    #[test]
    fn preferred_port_is_on_a_shortest_path() {
        let router = HotPotatoRouter::new(de_bruijn(2, 3));
        let g = router.graph().clone();
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                if src == dst {
                    continue;
                }
                let port = choose(&router, src, dst, all_free(&router, src)).unwrap();
                let next = g.out_neighbors(src)[port];
                assert_eq!(
                    router.distance(next, dst).unwrap() + 1,
                    router.distance(src, dst).unwrap().max(1),
                    "{src}->{dst} via {next}"
                );
            }
        }
    }

    #[test]
    fn deflection_when_preferred_port_is_busy() {
        let router = HotPotatoRouter::new(de_bruijn(2, 2));
        let (src, dst) = (1, 2);
        let preferred = choose(&router, src, dst, all_free(&router, src)).unwrap();
        // Block the preferred port: the router must pick another one.
        let mask = all_free(&router, src) & !(1 << preferred);
        let chosen = choose(&router, src, dst, mask).unwrap();
        assert_ne!(chosen, preferred);
    }

    #[test]
    fn no_free_port_returns_none() {
        let router = HotPotatoRouter::new(de_bruijn(2, 2));
        assert_eq!(choose(&router, 0, 3, 0), None);
    }

    #[test]
    fn randomized_choice_is_among_best_free_ports() {
        let router = HotPotatoRouter::new(de_bruijn(2, 3));
        let g = router.graph().clone();
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                if src == dst {
                    continue;
                }
                let best = g
                    .out_neighbors(src)
                    .iter()
                    .map(|&next| router.distance(next, dst))
                    .min()
                    .unwrap();
                let port = choose(&router, src, dst, all_free(&router, src)).unwrap();
                assert_eq!(
                    router.distance(g.out_neighbors(src)[port], dst),
                    best,
                    "{src}->{dst}: the randomized pick must be a closest port"
                );
            }
        }
    }

    #[test]
    fn progress_port_detection() {
        let router = HotPotatoRouter::new(de_bruijn(2, 3));
        let g = router.graph().clone();
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                let mut rng = StdRng::seed_from_u64(5);
                let (port, next) = router
                    .choose_port_randomized_masked(src, dst, &[all_free(&router, src)], &mut rng)
                    .unwrap();
                let there = router.distance(g.out_neighbors(src)[port], dst).unwrap();
                assert_eq!(u32::from(next), there, "the chooser reports its distance");
                // The preferred port makes progress in a de Bruijn graph
                // unless the message is already home.
                assert_eq!(router.makes_progress(src, dst, next), src != dst);
                for d in 0..=8 {
                    let here = router.distance(src, dst).unwrap();
                    assert_eq!(router.makes_progress(src, dst, d), u32::from(d) < here);
                }
                assert!(!router.makes_progress(src, dst, u16::MAX));
            }
        }
    }

    /// Checks the masked chooser against the slice oracle on `masks`
    /// random free masks per (node, destination) pair of `router`'s graph:
    /// the same decision and distance, and the same draws.
    fn check_against_slice_chooser(router: &HotPotatoRouter, masks: usize, seed: u64) {
        let g = router.graph().clone();
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut rng_masks = StdRng::seed_from_u64(!seed);
        for src in 0..g.node_count() {
            let degree = g.out_degree(src);
            for dst in 0..g.node_count() {
                for _ in 0..masks {
                    // Dense, sparse and empty masks alike, with junk past
                    // the out-degree.
                    let density = rng_masks.gen_range(0..4);
                    let words: Vec<u64> = (0..degree.div_ceil(64))
                        .map(|_| match density {
                            0 => 0,
                            1 => rng_masks.next_u64() & rng_masks.next_u64(),
                            2 => rng_masks.next_u64(),
                            _ => !0,
                        })
                        .collect();
                    let free: Vec<bool> = (0..degree)
                        .map(|p| words[p >> 6] >> (p & 63) & 1 == 1)
                        .collect();
                    let a = slice_chooser(router, src, dst, &free, &mut rng_a);
                    let b = router.choose_port_randomized_masked(src, dst, &words, &mut rng_b);
                    assert_eq!(
                        a,
                        b.map(|(port, _)| port),
                        "src={src} dst={dst} words={words:x?}"
                    );
                    if let Some((port, next)) = b {
                        let head = g.out_neighbors(src)[port];
                        assert_eq!(
                            router.distance(head, dst),
                            (next != u16::MAX).then_some(u32::from(next))
                        );
                    }
                }
            }
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "same draws");
    }

    #[test]
    fn masked_chooser_matches_slice_chooser_and_rng_stream() {
        // Every mask of every node of a small de Bruijn graph.
        let router = HotPotatoRouter::new(de_bruijn(2, 3));
        let g = router.graph().clone();
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                for mask in 0..(1u64 << g.out_degree(src)) {
                    let free: Vec<bool> =
                        (0..g.out_degree(src)).map(|p| mask >> p & 1 == 1).collect();
                    let a = slice_chooser(&router, src, dst, &free, &mut rng_a);
                    let b = router.choose_port_randomized_masked(src, dst, &[mask], &mut rng_b);
                    assert_eq!(
                        a,
                        b.map(|(port, _)| port),
                        "src={src} dst={dst} mask={mask:b}"
                    );
                }
            }
        }
        // Random masks on nodes of 69 ports (two words) and on a
        // 130-out-arc node whose neighbours sit at mixed distances (three
        // words, with ties split across them).
        check_against_slice_chooser(&HotPotatoRouter::new(complete_digraph(70)), 3, 21);
        let mut builder = otis_graphs::DigraphBuilder::with_capacity(140, 270);
        for v in 1..=130 {
            builder.add_arc(0, v);
        }
        for v in 1..=130 {
            // Nodes 1..=130 reach the sinks 131..=139 at one or two hops.
            builder.add_arc(v, 131 + v % 9);
            builder.add_arc(v, 0);
        }
        for sink in 131..140 {
            builder.add_arc(sink, 1 + (sink * 7) % 130);
        }
        check_against_slice_chooser(&HotPotatoRouter::new(builder.build()), 40, 33);
        // Two-byte entries: a 300-node directed ring, whose distances reach
        // 299, plus a node 300 with an arc to every ring node (five words)
        // and one arc back from node 0.
        let n = 300;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        edges.extend((0..n).map(|u| (n, u)));
        edges.push((0, n));
        let router = HotPotatoRouter::new(Digraph::from_edges(n + 1, &edges));
        assert!(matches!(router.table.width(), crate::table::Width::Wide(_)));
        check_against_slice_chooser(&router, 2, 45);
    }

    #[test]
    fn every_out_arc_is_choosable() {
        let router = HotPotatoRouter::new(de_bruijn(3, 2));
        for node in 0..router.graph().node_count() {
            for port in 0..router.graph().out_degree(node) {
                assert_eq!(choose(&router, node, 0, 1 << port), Some(port));
            }
        }
    }
}
