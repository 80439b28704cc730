//! Hot-potato (deflection) routing.
//!
//! The single-OPS / point-to-point baseline the multi-OPS designs are
//! compared against (Zhang & Acampora, ref \[25\] of the paper) uses hot-potato
//! routing: a node never buffers a transit message — in every slot each
//! incoming message must leave on *some* output link, preferably one on a
//! shortest path to its destination, otherwise it is *deflected* onto any
//! free link.  This module provides the per-node decision procedure; the
//! slotted simulator drives it.

use crate::fault_tolerant::{surviving_subgraph, FaultSet};
use crate::table::RoutingTable;
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
    table: RoutingTable,
}

impl HotPotatoRouter {
    /// Builds the oracle (precomputes shortest-path distances).
    pub fn new(graph: Digraph) -> Self {
        Self::from_shared(Arc::new(graph))
    }

    /// Borrow-based construction: builds the oracle over an already-shared
    /// digraph without copying any arc data — only the distance table is
    /// computed.  This is the constructor prepared simulation kernels use.
    pub fn from_shared(graph: Arc<Digraph>) -> Self {
        let table = RoutingTable::new(&graph);
        HotPotatoRouter { graph, table }
    }

    /// Delta-repair construction: derives the router for the surviving
    /// subgraph of `base` under `faults` by patching only the distance-table
    /// columns the faults actually touch, instead of recomputing all pairs.
    ///
    /// `base` is the fault-free router (its graph is the intact network);
    /// the result is identical to
    /// `HotPotatoRouter::new(surviving_subgraph(base.graph(), faults))` —
    /// see [`RoutingTable::repaired`] for why the shortcut is exact.
    pub fn from_repair(base: &HotPotatoRouter, faults: &FaultSet) -> Self {
        let survivor = Arc::new(surviving_subgraph(&base.graph, faults));
        let table = base.table.repaired(&survivor, faults).table;
        HotPotatoRouter {
            graph: survivor,
            table,
        }
    }

    /// The underlying digraph.
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// The precomputed distance table underneath — the bit-identity oracle
    /// of the delta-repair acceptance tests.  Hidden from docs: routing
    /// decisions go through [`HotPotatoRouter::distance`] and the port
    /// rankers, not the raw table.
    #[doc(hidden)]
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Distance oracle (hops) from `src` to `dst`.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        self.table.distance(src, dst)
    }

    /// Ranks the output ports of `node` for a message heading to `dst`:
    /// returns the out-neighbour indices (positions within
    /// `graph.out_neighbors(node)`) sorted from most preferred (closest to
    /// the destination) to least preferred.  Deflection = being assigned a
    /// port far down this list.
    pub fn ranked_ports(&self, node: NodeId, dst: NodeId) -> Vec<usize> {
        let neighbors = self.graph.out_neighbors(node);
        let mut ranked: Vec<(u32, usize)> = neighbors
            .iter()
            .enumerate()
            .map(|(port, &next)| {
                let d = self.table.distance(next, dst).unwrap_or(u32::MAX);
                (d, port)
            })
            .collect();
        ranked.sort();
        ranked.into_iter().map(|(_, port)| port).collect()
    }

    /// Chooses an output port for a message at `node` heading to `dst`, given
    /// which ports are still free this slot.  Returns the most preferred free
    /// port, or `None` when every port is taken (the caller must then drop or
    /// buffer, depending on its model).
    pub fn choose_port(&self, node: NodeId, dst: NodeId, port_free: &[bool]) -> Option<usize> {
        assert_eq!(
            port_free.len(),
            self.graph.out_degree(node),
            "port mask length mismatch"
        );
        self.ranked_ports(node, dst)
            .into_iter()
            .find(|&p| port_free[p])
    }

    /// Like [`HotPotatoRouter::choose_port`] but breaks ties among equally
    /// good free ports uniformly at random (the classical randomised
    /// deflection rule); still prefers strictly closer ports first.
    pub fn choose_port_randomized<R: Rng>(
        &self,
        node: NodeId,
        dst: NodeId,
        port_free: &[bool],
        rng: &mut R,
    ) -> Option<usize> {
        let mut ties = Vec::new();
        self.choose_port_randomized_into(node, dst, port_free, rng, &mut ties)
    }

    /// Allocation-free form of [`HotPotatoRouter::choose_port_randomized`]:
    /// the caller provides the scratch buffer that collects the equally-good
    /// candidate ports, so per-slot simulation loops can reuse one buffer
    /// across every decision.  Consumes the RNG identically to the
    /// allocating form (one draw per decision that finds a free port), so
    /// the two variants produce byte-identical simulations.
    pub fn choose_port_randomized_into<R: Rng>(
        &self,
        node: NodeId,
        dst: NodeId,
        port_free: &[bool],
        rng: &mut R,
        ties: &mut Vec<usize>,
    ) -> Option<usize> {
        assert_eq!(
            port_free.len(),
            self.graph.out_degree(node),
            "port mask length mismatch"
        );
        let neighbors = self.graph.out_neighbors(node);
        ties.clear();
        let mut best: Option<u32> = None;
        for (port, &next) in neighbors.iter().enumerate() {
            if !port_free[port] {
                continue;
            }
            let d = self.table.distance(next, dst).unwrap_or(u32::MAX);
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
        if ties.is_empty() {
            None
        } else {
            Some(ties[rng.gen_range(0..ties.len())])
        }
    }

    /// Bitset form of [`HotPotatoRouter::choose_port_randomized_into`]: port
    /// `p` is free when bit `p & 63` of `free_words[p >> 6]` is set, so the
    /// per-slot simulation loop can keep its port occupancy as a few `u64`
    /// words instead of a `Vec<bool>`.  Consumes the RNG identically to the
    /// slice form (one draw per decision that finds a free port), so either
    /// mask representation produces byte-identical simulations.
    ///
    /// The scan is chunked word at a time: busy ports are skipped by bit
    /// tricks (`trailing_zeros` over each 64-port word) instead of a
    /// per-port load-and-test, and only free ports pay the distance lookup.
    /// Free ports are still visited in ascending order and the tie set
    /// depends only on that ordered set, so the chunked walk is
    /// byte-identical to the per-port one.
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
        ties.clear();
        let mut best: Option<u32> = None;
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
                let d = self
                    .table
                    .distance(neighbors[port], dst)
                    .unwrap_or(u32::MAX);
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

    #[test]
    fn preferred_port_is_on_a_shortest_path() {
        let router = HotPotatoRouter::new(de_bruijn(2, 3));
        let g = router.graph().clone();
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                if src == dst {
                    continue;
                }
                let all_free = vec![true; g.out_degree(src)];
                let port = router.choose_port(src, dst, &all_free).unwrap();
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
        let g = router.graph().clone();
        let src = 1;
        let dst = 2;
        let ranked = router.ranked_ports(src, dst);
        // Block the preferred port: the router must pick another one.
        let mut free = vec![true; g.out_degree(src)];
        free[ranked[0]] = false;
        let chosen = router.choose_port(src, dst, &free).unwrap();
        assert_ne!(chosen, ranked[0]);
    }

    #[test]
    fn no_free_port_returns_none() {
        let router = HotPotatoRouter::new(de_bruijn(2, 2));
        assert_eq!(router.choose_port(0, 3, &[false, false]), None);
    }

    #[test]
    fn randomized_choice_is_among_best_free_ports() {
        let router = HotPotatoRouter::new(de_bruijn(2, 3));
        let mut rng = StdRng::seed_from_u64(7);
        let g = router.graph().clone();
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                if src == dst {
                    continue;
                }
                let free = vec![true; g.out_degree(src)];
                let det = router.choose_port(src, dst, &free).unwrap();
                let rand_port = router
                    .choose_port_randomized(src, dst, &free, &mut rng)
                    .unwrap();
                let next_det = g.out_neighbors(src)[det];
                let next_rand = g.out_neighbors(src)[rand_port];
                assert_eq!(
                    router.distance(next_det, dst),
                    router.distance(next_rand, dst),
                    "randomized pick must be as good as the deterministic one"
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
                let ranked = router.ranked_ports(src, dst);
                // The top-ranked port always makes progress in a de Bruijn
                // graph (there is always a shortest-path port).
                assert!(
                    router.is_progress_port(src, dst, ranked[0])
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
        let mut ties_a = Vec::new();
        let mut ties_b = Vec::new();
        for src in 0..g.node_count() {
            for dst in 0..g.node_count() {
                for mask in 0..(1u64 << g.out_degree(src)) {
                    let free: Vec<bool> =
                        (0..g.out_degree(src)).map(|p| mask >> p & 1 == 1).collect();
                    let a = router.choose_port_randomized_into(
                        src,
                        dst,
                        &free,
                        &mut rng_a,
                        &mut ties_a,
                    );
                    let b = router.choose_port_randomized_masked(
                        src,
                        dst,
                        &[mask],
                        &mut rng_b,
                        &mut ties_b,
                    );
                    assert_eq!(a, b, "src={src} dst={dst} mask={mask:b}");
                }
            }
        }
    }

    #[test]
    fn from_repair_matches_from_scratch_on_survivor() {
        use crate::fault_tolerant::node_fault_patterns_up_to;
        let g = de_bruijn(2, 3);
        let base = HotPotatoRouter::new(g.clone());
        for faults in node_fault_patterns_up_to(g.node_count(), 1) {
            let repaired = HotPotatoRouter::from_repair(&base, &faults);
            let scratch = HotPotatoRouter::new(surviving_subgraph(&g, &faults));
            assert!(repaired.graph().same_arcs(scratch.graph()));
            assert_eq!(
                repaired.table,
                scratch.table,
                "faults {:?}",
                faults.sorted_nodes()
            );
        }
    }

    #[test]
    fn ranked_ports_cover_all_out_arcs() {
        let router = HotPotatoRouter::new(de_bruijn(3, 2));
        for node in 0..router.graph().node_count() {
            let ranked = router.ranked_ports(node, 0);
            assert_eq!(ranked.len(), router.graph().out_degree(node));
            let set: std::collections::HashSet<_> = ranked.iter().collect();
            assert_eq!(set.len(), ranked.len());
        }
    }
}
