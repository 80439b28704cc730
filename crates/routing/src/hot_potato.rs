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
//! destination, so the router keeps a [`DistanceTable`] (`n²` `u16`
//! entries, built 64 destinations per word-parallel BFS pass) and no next
//! hops.  A router for a faulted network is built the same way on the
//! surviving subgraph: there is no incremental repair path.
//!
//! Above 1 MiB (`n > 724`) the table outgrows L2, and each ranking waits on
//! a cache miss.  [`HotPotatoRouter::prefetch_pays`] reports that case, and
//! [`HotPotatoRouter::prefetch`] then lets a caller that knows its coming
//! decisions ahead of time start the table reads early.  The hint never
//! changes a decision.

use crate::table::DistanceTable;
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
    /// [`HotPotatoRouter::is_progress_port`] read.
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
    /// is not on a shortest path because those are taken.  Returns `None`
    /// when every port is busy.
    ///
    /// Port `p` is free when bit `p & 63` of `free_words[p >> 6]` is set,
    /// so the per-slot simulation loop keeps its port occupancy as a few
    /// `u64` words; `ties` is the caller's scratch buffer for the tied
    /// ports.  One RNG draw is consumed per decision that finds a free port.
    ///
    /// The scan is chunked word at a time: busy ports are skipped by bit
    /// tricks (`trailing_zeros` over each 64-port word) instead of a
    /// per-port load-and-test, and only free ports pay the distance lookup.
    /// Free ports are visited in ascending order, so the tie set, and with
    /// it the decision, is the one a per-port scan would make.
    pub fn choose_port_randomized_masked<R: Rng>(
        &self,
        node: NodeId,
        dst: NodeId,
        free_words: &[u64],
        rng: &mut R,
        ties: &mut Vec<usize>,
    ) -> Option<usize> {
        let neighbors = self.graph.out_neighbors(node);
        assert!(
            free_words.len() * 64 >= neighbors.len(),
            "port mask too short for out-degree {}",
            neighbors.len()
        );
        let column = self.table.column(dst);
        ties.clear();
        let mut best: Option<u16> = None;
        for (w, &word) in free_words.iter().enumerate() {
            let base = w << 6;
            if base >= neighbors.len() {
                break;
            }
            // Mask off bits past the declared out-degree: `PortBits::reset`
            // leaves them set, but they name no port.
            let width = neighbors.len() - base;
            let mut bits = if width < 64 {
                word & ((1u64 << width) - 1)
            } else {
                word
            };
            while bits != 0 {
                let port = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let d = column[neighbors[port]];
                match best {
                    None => {
                        best = Some(d);
                        ties.push(port);
                    }
                    Some(bd) if d < bd => {
                        best = Some(d);
                        ties.clear();
                        ties.push(port);
                    }
                    Some(bd) if d == bd => ties.push(port),
                    Some(_) => {}
                }
            }
        }
        if ties.is_empty() {
            None
        } else {
            Some(ties[rng.gen_range(0..ties.len())])
        }
    }

    /// Whether sending through `port` at `node` makes progress (strictly
    /// decreases the distance) towards `dst`.
    pub fn is_progress_port(&self, node: NodeId, dst: NodeId, port: usize) -> bool {
        let next = self.graph.out_neighbors(node)[port];
        match (
            self.table.distance(node, dst),
            self.table.distance(next, dst),
        ) {
            (Some(here), Some(there)) => there < here,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_topologies::de_bruijn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The masked chooser with a one-word mask and a fresh tie buffer.
    fn choose(router: &HotPotatoRouter, node: NodeId, dst: NodeId, mask: u64) -> Option<usize> {
        let mut rng = StdRng::seed_from_u64(node as u64 ^ (dst as u64) << 32);
        router.choose_port_randomized_masked(node, dst, &[mask], &mut rng, &mut Vec::new())
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
                if src == dst {
                    continue;
                }
                let port = choose(&router, src, dst, all_free(&router, src)).unwrap();
                // The preferred port always makes progress in a de Bruijn
                // graph (there is always a shortest-path port).
                assert!(
                    router.is_progress_port(src, dst, port)
                        || !g.has_arc(src, dst) && router.distance(src, dst) == Some(0)
                );
            }
        }
    }

    #[test]
    fn masked_chooser_matches_slice_chooser_and_rng_stream() {
        let router = HotPotatoRouter::new(de_bruijn(2, 3));
        let g = router.graph().clone();
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let mut ties = Vec::new();
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                for mask in 0..(1u64 << g.out_degree(src)) {
                    let free: Vec<bool> =
                        (0..g.out_degree(src)).map(|p| mask >> p & 1 == 1).collect();
                    let a = slice_chooser(&router, src, dst, &free, &mut rng_a);
                    let b = router.choose_port_randomized_masked(
                        src,
                        dst,
                        &[mask],
                        &mut rng_b,
                        &mut ties,
                    );
                    assert_eq!(a, b, "src={src} dst={dst} mask={mask:b}");
                }
            }
        }
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
