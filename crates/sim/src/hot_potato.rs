//! Slotted simulation of point-to-point networks with hot-potato routing.
//!
//! This is the single-OPS baseline (Zhang & Acampora, ref \[25\]): the network
//! is an ordinary digraph (de Bruijn or Kautz in the comparisons), every arc
//! carries one message per slot, and nodes never buffer transit traffic — in
//! each slot all arriving messages must be forwarded immediately, deflected
//! onto non-preferred ports when they lose the contention for a shortest-path
//! port.  New messages can only be injected when a free output port remains
//! after all transit traffic has been assigned.
//!
//! The simulator is split into *prepare* and *execute* phases:
//!
//! * [`PreparedHotPotato`] is the immutable kernel — the fault-filtered
//!   digraph (already a flat CSR port layout) plus the deflection router's
//!   all-pairs `u16` distance table, built once per `(graph, fault-pattern)`
//!   pair by a word-parallel BFS (64 destinations per pass; see
//!   [`otis_routing::DistanceTable`]).  A faulted kernel, static or a
//!   timeline epoch ([`PreparedHotPotato::timeline`]), is a fresh build on
//!   the surviving subgraph;
//! * [`PreparedHotPotato::run`] is the one way to run a kernel: a fault
//!   timeline (empty for a static run), a [`DemandSource`], the run's
//!   [`SimOptions`] and a caller-owned [`SlotScratch`] pool.  It owns only
//!   per-run mutable state and drives the shared struct-of-arrays slot
//!   engine of [`crate::kernel`]: messages live in a
//!   [`crate::kernel::MessageArena`] and the per-node buffers hold `u32`
//!   handles, port occupancy is a [`crate::kernel::PortBits`]
//!   bitset fed straight into the router's masked port chooser, and per-arc
//!   wavelength occupancy is a reused [`SpectrumMap`] bitmask.  No per-slot
//!   allocations, so a scenario sweep pays the expensive table construction
//!   once and every cell only pays for its slot loop.
//!
//! One loop serves both capacities.  With the default capacity 1 each
//! granted port closes immediately and the wavelength layer stays off
//! (`metrics.wavelengths == 0`).  With `wavelengths.count > 1` every arc
//! becomes a WDM link carrying up to `W` messages per slot and a port only
//! closes once its arc's spectrum is full.  Hot-potato deflection *is*
//! alternate routing — a deflected message already takes the next-best
//! port — so the per-hop alternate-path count of the multi-OPS kernel has no
//! analogue here and an `alt_paths` knob is a no-op; the `alt_routed` metric
//! counts deflections off a shortest-path port instead.  A transit message
//! that finds every port exhausted (all `W` wavelengths of every out-arc
//! busy) is counted *blocked* and dropped.

use crate::demand::DemandSource;
use crate::kernel::{assign_wavelength, HotScratch, PortBits, RunCore, SlotScratch};
use crate::metrics::SimMetrics;
use crate::schedule::{FaultSchedule, FaultScheduleError, RestoreTracker};
use crate::sim_options::SimOptions;
use crate::wavelength::WavelengthAssignment;
use otis_graphs::{Digraph, SpectrumMap};
use otis_routing::fault_tolerant::surviving_subgraph;
use otis_routing::{FaultSet, HotPotatoRouter};
use std::sync::Arc;

/// The immutable, shareable kernel of the hot-potato simulator: the
/// fault-filtered digraph (a flat CSR port layout — out-neighbours of a node
/// are one contiguous slice, indexed by port) together with the deflection
/// router's all-pairs distance table.  Building one is the expensive part of
/// a simulation: `n²` `u16` distances, found 64 destinations per BFS pass
/// over the arcs.  [`PreparedHotPotato::run`] is the cheap part and can be
/// called any number of times with different seeds, traffic patterns and
/// slot counts.
///
/// The kernel is `Send + Sync`, so a scenario engine can build it once per
/// distinct `(graph, fault-pattern)` pair and share it across worker
/// threads.
#[derive(Debug, Clone)]
pub struct PreparedHotPotato {
    /// The shared digraph the kernel was prepared over, before faults.
    graph: Arc<Digraph>,
    router: HotPotatoRouter,
    faults: FaultSet,
}

impl PreparedHotPotato {
    /// Prepares a kernel over a shared digraph, routing around the given
    /// faults: blocked arcs and all arcs incident to failed nodes are
    /// removed from the network, distances are computed on the surviving
    /// subgraph, and injections from, to or between disconnected processors
    /// are refused at run time (they do not count as injected).
    ///
    /// With no faults the shared graph is used as-is (no copy); with faults
    /// the surviving subgraph is materialised once, here.
    pub fn new(graph: Arc<Digraph>, faults: FaultSet) -> Self {
        let router = if faults.is_empty() {
            HotPotatoRouter::from_shared(Arc::clone(&graph))
        } else {
            HotPotatoRouter::new(surviving_subgraph(&graph, &faults))
        };
        PreparedHotPotato {
            graph,
            router,
            faults,
        }
    }

    /// Number of nodes simulated.
    pub fn node_count(&self) -> usize {
        self.router.graph().node_count()
    }

    /// The shared digraph the kernel was prepared over, before its faults
    /// were filtered out.
    pub fn shared_graph(&self) -> &Arc<Digraph> {
        &self.graph
    }

    /// The faults fixed at prepare time.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Builds the epoch timeline a [`FaultSchedule`] prescribes for runs of
    /// this kernel: one `(slot, kernel)` pair per distinct event slot, each
    /// kernel prepared by [`PreparedHotPotato::new`] over this kernel's
    /// shared digraph for that epoch's fault set (this kernel's static
    /// faults overlaid with every scheduled fault in force).  An epoch back
    /// at this kernel's own faults (a full recovery) is a copy of this
    /// kernel, which costs a table copy instead of a rebuild.  The result
    /// feeds [`PreparedHotPotato::run`].
    ///
    /// Fails with a typed [`FaultScheduleError`] when an event targets a
    /// node outside the network or a scheduled failure duplicates one of
    /// this kernel's static faults.
    pub fn timeline(
        &self,
        schedule: &FaultSchedule,
    ) -> Result<Vec<(u64, PreparedHotPotato)>, FaultScheduleError> {
        let epochs = schedule.bind(self.graph.node_count(), &self.faults)?;
        Ok(epochs
            .into_iter()
            .map(|(slot, faults)| {
                let kernel = if faults == self.faults {
                    self.clone()
                } else {
                    PreparedHotPotato::new(Arc::clone(&self.graph), faults)
                };
                (slot, kernel)
            })
            .collect())
    }

    /// Executes one run.  Of `options` it reads `slots`, `seed`, `max_hops`
    /// (the livelock guard) and `wavelengths`; `policy` and `queue_limit`
    /// are multi-OPS knobs, and `faults` and `alt_paths` were fixed when the
    /// kernel (and each timeline kernel) was prepared, so all four are
    /// ignored here.  `demand` drives the injections.  The source is mutable
    /// because demand processes carry mid-run state (burst phases, the trace
    /// lookahead): build a fresh one per run with
    /// [`crate::DemandSpec::source`], or wrap a stationary pattern as
    /// [`DemandSource::Pattern`].
    ///
    /// `timeline` is a chronological list of `(slot, kernel)` epochs (see
    /// [`PreparedHotPotato::timeline`]), empty for a static run.  At
    /// the start of each epoch's slot, before injections, the active kernel
    /// is swapped.  In-flight messages are re-resolved against the new
    /// kernel — a message sitting on a failed node, destined to one, or left
    /// unreachable is dropped and counted in `dropped_by_failure` (as well
    /// as `dropped`); survivors keep deflecting under the new routing table.
    /// The restoration metrics (`fault_events`, `in_flight_at_failure`,
    /// `restore_slots`, `post_failure_latency_peak`) are anchored to the
    /// first swap that introduces new failures.
    ///
    /// `scratch` is a caller-owned pool: consecutive runs reuse its arena,
    /// buckets and port masks instead of reallocating, and a reset pool is
    /// indistinguishable from a fresh one.
    ///
    /// One slot loop serves every capacity: with capacity 1 a granted port
    /// closes immediately and the wavelength layer stays off; with `W > 1` a
    /// port only closes once all `W` wavelengths of its arc are occupied, a
    /// transit message with no usable port counts as blocked, and
    /// deflections off a shortest-path port are recorded as alternate-route
    /// events.
    ///
    /// The slot body is organised as batched phases, each one pass over the
    /// arena's parallel arrays (see the *hot path anatomy* section of the
    /// crate docs): the **deliver/classify** phase drains every node's
    /// bucket — delivering, dropping livelocked messages, collecting the
    /// survivors into one slot-global transit list with per-node spans,
    /// age-sorted per node — touching only the `dst`/`injected_at`/`hops`
    /// columns; the **arbitrate/inject** phase then walks the nodes in
    /// index order, deflection-routing each span and admitting at most one
    /// injection per node, exactly preserving the per-node RNG draw order
    /// of the classic fused loop (classification draws nothing, so hoisting
    /// it is invisible to the RNG stream).  When the kernel's distance table
    /// exceeds 1 MiB (`n > 724`), classification also prefetches every
    /// table line the arbitrate phase will read (see
    /// [`otis_routing::HotPotatoRouter::prefetch`]), so the lookups find
    /// them in cache instead of waiting on a miss each.
    pub fn run(
        &self,
        timeline: &[(u64, PreparedHotPotato)],
        demand: &mut DemandSource,
        options: &SimOptions,
        scratch: &mut SlotScratch,
    ) -> SimMetrics {
        let n = self.router.graph().node_count();
        let multiplexed = options.wavelengths.is_multiplexed();
        scratch.begin_run(options.seed, n, self.router.graph().arc_count());
        scratch.hot.begin_run(n);
        let SlotScratch {
            core,
            arena,
            injections,
            hot,
            ..
        } = scratch;
        let HotScratch {
            at_node,
            arriving,
            transit,
            spans,
            ports,
            ties,
        } = hot;
        let mut spectrum = if multiplexed {
            core.metrics.wavelengths = options.wavelengths.count;
            Some(SpectrumMap::new(
                self.router.graph().arc_count(),
                options.wavelengths.count,
            ))
        } else {
            None
        };
        let mut active = self;
        let mut next_epoch = 0usize;
        let mut tracker = RestoreTracker::default();
        // Every epoch kernel covers the same nodes, so one size test decides
        // the prefetch hints for the whole run.
        let hint = self.router.prefetch_pays();

        for slot in 0..options.slots {
            core.begin_slot(slot);
            // Kernel swaps scheduled for this slot apply before injections:
            // strand the messages the new fault set cuts off, re-point the
            // routing state, and (in multiplexed mode) rebuild the spectrum
            // over the new surviving subgraph's arc numbering.
            while timeline.get(next_epoch).is_some_and(|(s, _)| *s <= slot) {
                let kernel = &timeline[next_epoch].1;
                next_epoch += 1;
                let live: u64 = at_node.iter().map(|v| v.len() as u64).sum();
                let introduces = !kernel.faults.is_subset_of(&active.faults);
                tracker.on_swap(introduces, slot, live, &mut core.metrics);
                for (node, bucket) in at_node.iter_mut().enumerate() {
                    bucket.retain(|&handle| {
                        let dst = arena.dst(handle);
                        let stranded = kernel.faults.node_failed(node)
                            || kernel.faults.node_failed(dst)
                            || kernel.router.distance(node, dst).is_none();
                        if stranded {
                            core.metrics.dropped_by_failure += 1;
                            core.drop_message();
                            arena.release(handle);
                        }
                        !stranded
                    });
                }
                active = kernel;
                if multiplexed {
                    spectrum = Some(SpectrumMap::new(
                        active.router.graph().arc_count(),
                        options.wavelengths.count,
                    ));
                }
            }
            let g = active.router.graph();
            if let Some(spectrum) = spectrum.as_mut() {
                spectrum.clear();
            }
            demand.injections_into(n, &mut core.rng, injections);

            // Deliver/classify phase: one pass over every node's bucket and
            // the arena's `dst`/`injected_at`/`hops` columns.  Messages
            // destined here are delivered, livelocked ones dropped, and the
            // survivors collected into one slot-global transit list —
            // node `v`'s span sorted oldest first so older traffic gets the
            // better ports.  No RNG draws happen in this phase, so hoisting
            // it out of the per-node loop leaves the draw order untouched.
            // On a large table it also prefetches every table line the
            // arbitrate phase will read, for each transit message and for
            // the node's injection, so those reads find the lines in cache.
            transit.clear();
            spans.clear();
            for (node, bucket) in at_node.iter_mut().enumerate() {
                let start = transit.len() as u32;
                for handle in bucket.drain(..) {
                    let dst = arena.dst(handle);
                    if dst == node {
                        let latency = slot.saturating_sub(arena.injected_at(handle));
                        core.deliver(latency, arena.hops(handle));
                        tracker.observe_delivery(latency, &mut core.metrics);
                        arena.release(handle);
                    } else if RunCore::livelock_exceeded(options.max_hops, arena.hops(handle)) {
                        core.drop_message();
                        arena.release(handle);
                    } else {
                        if hint {
                            active.router.prefetch(node, dst, multiplexed);
                        }
                        transit.push(handle);
                    }
                }
                if hint {
                    if let Some(dst) = injections[node] {
                        let here = multiplexed || !active.faults.is_empty();
                        active.router.prefetch(node, dst, here);
                    }
                }
                transit[start as usize..].sort_by_key(|&h| arena.injected_at(h));
                spans.push((start, transit.len() as u32));
            }

            // Arbitrate/inject phase: nodes in index order, each one's
            // transit span first (one deflection decision per message, one
            // RNG draw per successful decision), then at most one injection
            // — the exact draw order of the classic fused loop.
            for node in 0..n {
                let arcs = g.out_arc_ids(node);
                // Each arc is this node's exclusive output and the spectrum
                // was cleared at the top of the slot, so every port opens
                // free.
                ports.reset(arcs.len());
                let (start, end) = spans[node];
                for &handle in &transit[start as usize..end as usize] {
                    let dst = arena.dst(handle);
                    match active.router.choose_port_randomized_masked(
                        node,
                        dst,
                        ports.words(),
                        &mut core.rng,
                        ties,
                    ) {
                        Some(port) => {
                            let lambda = claim_port(
                                &active.router,
                                node,
                                dst,
                                port,
                                arcs,
                                options.wavelengths.assignment,
                                &mut spectrum,
                                ports,
                                core,
                            );
                            if let Some(lambda) = lambda {
                                arena.set_wavelength(handle, lambda);
                            }
                            arena.add_hop(handle);
                            let next = g.out_neighbors(node)[port];
                            arriving[next].push(handle);
                            core.grant();
                        }
                        None => {
                            // No free port.  Capacity 1: with in-degree ==
                            // out-degree this cannot happen for pure transit
                            // traffic, but a loop arc or irregular graph can
                            // trigger it.  Multiplexed: every wavelength of
                            // every out-arc is busy and the bufferless node
                            // must discard the message, counted as blocked.
                            if multiplexed {
                                core.metrics.blocked += 1;
                            }
                            core.drop_message();
                            arena.release(handle);
                        }
                    }
                }

                // Injection only if a port is still free (hot-potato
                // admission control).  Traffic from, to or cut off from a
                // failed region is refused at the source.
                if let Some(dst) = injections[node] {
                    if !active.faults.is_empty()
                        && (active.faults.node_failed(node)
                            || active.faults.node_failed(dst)
                            || active.router.distance(node, dst).is_none())
                    {
                        // Unservable under the faults: not counted as injected.
                    } else if let Some(port) = active.router.choose_port_randomized_masked(
                        node,
                        dst,
                        ports.words(),
                        &mut core.rng,
                        ties,
                    ) {
                        let lambda = claim_port(
                            &active.router,
                            node,
                            dst,
                            port,
                            arcs,
                            options.wavelengths.assignment,
                            &mut spectrum,
                            ports,
                            core,
                        );
                        core.inject();
                        let handle = arena.insert(dst, slot);
                        arena.set_hops(handle, 1);
                        if let Some(lambda) = lambda {
                            arena.set_wavelength(handle, lambda);
                        }
                        let next = g.out_neighbors(node)[port];
                        arriving[next].push(handle);
                        core.grant();
                    }
                    // else: injection refused, not counted as injected.
                }
            }

            // Every node's bucket in `at_node` was drained above, so after
            // the swap `arriving` is a set of empty buckets (capacity kept)
            // ready for the next slot.
            std::mem::swap(at_node, arriving);
            tracker.end_slot(slot, &mut core.metrics);
        }

        // Messages that reached their destination during the final slot are
        // delivered, not in flight: `at_node` is normally drained at the
        // start of the *next* slot, which never comes for the last one.
        // Their delivery slot is `slots`, consistent with the in-loop
        // convention (a single-hop message costs exactly 1 slot).
        for (node, handles) in at_node.iter_mut().enumerate() {
            let metrics = &mut core.metrics;
            let arena = &*arena;
            handles.retain(|&handle| {
                if arena.dst(handle) == node {
                    let latency = options.slots.saturating_sub(arena.injected_at(handle));
                    metrics.record_delivery(latency, arena.hops(handle));
                    tracker.observe_delivery(latency, metrics);
                    false
                } else {
                    true
                }
            });
        }

        let in_flight = at_node.iter().map(|v| v.len() as u64).sum();
        core.finish(in_flight)
    }
}

/// Books the granted `port` at `node`: in multiplexed mode records a
/// deflection if the port makes no progress toward `dst`, occupies one
/// wavelength on the port's arc (returned) and closes the port only once
/// the arc's spectrum is full; with the wavelength layer off the port
/// closes unconditionally and no wavelength is assigned.
#[allow(clippy::too_many_arguments)]
fn claim_port(
    router: &HotPotatoRouter,
    node: usize,
    dst: usize,
    port: usize,
    arcs: &[usize],
    assignment: WavelengthAssignment,
    spectrum: &mut Option<SpectrumMap>,
    ports: &mut PortBits,
    core: &mut RunCore,
) -> Option<usize> {
    match spectrum.as_mut() {
        Some(spectrum) => {
            if !router.is_progress_port(node, dst, port) {
                core.metrics.alt_routed += 1;
            }
            let lambda = assign_wavelength(spectrum, arcs[port], assignment, &mut core.rng);
            if spectrum.is_full(arcs[port]) {
                ports.close(port);
            }
            Some(lambda)
        }
        None => {
            ports.close(port);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use crate::wavelength::WavelengthConfig;
    use otis_topologies::{de_bruijn, kautz};

    /// Runs `kernel` through `timeline` under `traffic` on a fresh pool.
    fn run_timed(
        kernel: &PreparedHotPotato,
        timeline: &[(u64, PreparedHotPotato)],
        traffic: &TrafficPattern,
        config: &SimOptions,
    ) -> SimMetrics {
        let mut demand = DemandSource::Pattern(traffic.clone());
        kernel.run(timeline, &mut demand, config, &mut SlotScratch::new())
    }

    /// One static run of a freshly prepared kernel over `graph`.
    fn simulate(
        graph: Digraph,
        faults: FaultSet,
        config: SimOptions,
        traffic: &TrafficPattern,
    ) -> SimMetrics {
        run_timed(
            &PreparedHotPotato::new(Arc::new(graph), faults),
            &[],
            traffic,
            &config,
        )
    }

    fn run_de_bruijn(load: f64, slots: u64) -> SimMetrics {
        let config = SimOptions {
            slots,
            ..Default::default()
        };
        simulate(
            de_bruijn(2, 3),
            FaultSet::new(),
            config,
            &TrafficPattern::Uniform { load },
        )
    }

    #[test]
    fn conservation_of_messages() {
        let m = run_de_bruijn(0.4, 500);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.injected > 0);
        assert!(m.delivered > 0);
    }

    #[test]
    fn light_load_latency_close_to_average_distance() {
        // With almost no contention, messages follow shortest paths; the
        // average latency is near the average distance of B(2,3) (~2.1).
        let m = run_de_bruijn(0.02, 5000);
        assert!(m.delivered > 50);
        assert!(m.average_latency() < 3.5, "latency {}", m.average_latency());
        assert!(m.average_hops() >= 1.0);
    }

    #[test]
    fn heavy_load_causes_deflections() {
        let light = run_de_bruijn(0.05, 2000);
        let heavy = run_de_bruijn(1.0, 2000);
        // Deflections lengthen paths.
        assert!(heavy.average_hops() > light.average_hops());
        assert!(heavy.average_latency() > light.average_latency());
    }

    #[test]
    fn kautz_hot_potato_works_too() {
        let m = simulate(
            kautz(2, 3),
            FaultSet::new(),
            SimOptions {
                slots: 1000,
                ..Default::default()
            },
            &TrafficPattern::Uniform { load: 0.3 },
        );
        assert!(m.delivered > 0);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
    }

    #[test]
    fn injection_is_throttled_at_saturation() {
        // At load 1.0 every node wants to inject every slot but ports are
        // mostly occupied by transit traffic: accepted injections per node
        // per slot stay below 1.
        let m = run_de_bruijn(1.0, 1000);
        let offered = m.slots * m.processors as u64;
        assert!(m.injected < offered);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_de_bruijn(0.3, 300);
        let b = run_de_bruijn(0.3, 300);
        assert_eq!(a, b);
    }

    #[test]
    fn final_slot_arrivals_count_as_delivered() {
        // On the complete digraph every message arrives in one hop, so after
        // the post-run drain nothing can be left in flight: a message
        // injected in the last slot has arrived at its destination by the
        // time the run ends.
        let m = simulate(
            otis_topologies::complete_digraph(5),
            FaultSet::new(),
            SimOptions {
                slots: 1,
                ..Default::default()
            },
            &TrafficPattern::Permutation {
                load: 1.0,
                offset: 1,
            },
        );
        assert_eq!(m.injected, 5);
        assert_eq!(m.delivered, 5, "final-slot arrivals must be delivered");
        assert_eq!(m.in_flight, 0);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        // One hop, one slot each.
        assert!((m.average_latency() - 1.0).abs() < 1e-12);
        assert_eq!(m.max_hops, 1);
    }

    #[test]
    fn faults_are_routed_around_and_conservation_holds() {
        let g = kautz(2, 3);
        let mut faults = FaultSet::new();
        faults.fail_node(0);
        let config = SimOptions {
            slots: 800,
            ..Default::default()
        };
        let traffic = TrafficPattern::Uniform { load: 0.3 };
        let m = simulate(g.clone(), faults, config.clone(), &traffic);
        assert!(m.delivered > 0);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        // The faulty run accepts strictly less traffic than the intact one
        // under the same seed (injections touching node 0 are refused).
        let intact = simulate(g, FaultSet::new(), config, &traffic);
        assert!(m.injected < intact.injected);
    }

    #[test]
    fn prepared_kernel_reuse_matches_fresh_construction() {
        // The prepare/execute contract: one kernel driven with many
        // (seed, traffic, slots) combinations produces metrics identical to
        // rebuilding the simulator from scratch for every run, with and
        // without faults.
        let g = kautz(2, 3);
        for faults in [FaultSet::new(), FaultSet::from_nodes([0, 5])] {
            let kernel = PreparedHotPotato::new(Arc::new(g.clone()), faults.clone());
            for (seed, load, slots) in [(1u64, 0.3, 400u64), (9, 0.8, 250), (42, 0.05, 600)] {
                let config = SimOptions {
                    slots,
                    seed,
                    max_hops: 64,
                    ..Default::default()
                };
                let traffic = TrafficPattern::Uniform { load };
                let reused = run_timed(&kernel, &[], &traffic, &config);
                let fresh = simulate(g.clone(), faults.clone(), config, &traffic);
                assert_eq!(reused, fresh, "seed {seed} load {load}");
            }
        }
    }

    #[test]
    fn wavelength_mode_conserves_and_reports_the_layer() {
        let m = simulate(
            de_bruijn(2, 3),
            FaultSet::new(),
            SimOptions {
                slots: 800,
                wavelengths: WavelengthConfig::with_count(4),
                ..Default::default()
            },
            &TrafficPattern::Uniform { load: 0.8 },
        );
        assert_eq!(m.wavelengths, 4);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.delivered > 0);
        assert!(m.blocked <= m.dropped);
        assert!(!m.blocking_ratio().is_nan());
        assert!(!m.wavelength_utilization().is_nan());
        // Deflections under load register as alternate-route events.
        assert!(
            m.alt_routed > 0,
            "saturated deflection routing must deflect"
        );
    }

    #[test]
    fn more_wavelengths_admit_more_traffic() {
        // Each extra wavelength relaxes the injection admission control
        // (ports close only when all W wavelengths are busy), so accepted
        // injections grow with W under saturation.
        let run = |w: usize| {
            simulate(
                de_bruijn(2, 3),
                FaultSet::new(),
                SimOptions {
                    slots: 600,
                    wavelengths: WavelengthConfig::with_count(w),
                    ..Default::default()
                },
                &TrafficPattern::Uniform { load: 1.0 },
            )
        };
        let narrow = run(2);
        let wide = run(8);
        assert!(wide.injected > narrow.injected);
        assert!(wide.delivered > narrow.delivered);
    }

    #[test]
    fn random_assignment_only_changes_wavelength_choice() {
        // Wavelength identity never affects hot-potato dynamics (ports close
        // on full arcs regardless of which wavelengths filled them), but the
        // Random discipline draws from the RNG stream, so the runs may
        // diverge; both must stay conserved and deliver.
        for assignment in [WavelengthAssignment::FirstFit, WavelengthAssignment::Random] {
            let m = simulate(
                kautz(2, 3),
                FaultSet::new(),
                SimOptions {
                    slots: 400,
                    wavelengths: WavelengthConfig {
                        count: 3,
                        assignment,
                    },
                    ..Default::default()
                },
                &TrafficPattern::Uniform { load: 0.9 },
            );
            assert!(m.delivered > 0, "{assignment:?}");
            assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        }
    }

    #[test]
    fn capacity_one_config_keeps_the_wavelength_layer_off() {
        // wavelengths = 1 must not engage the wavelength layer: metrics
        // carry the layer-off sentinel and match the default config bit for
        // bit.
        let run = |wavelengths| {
            simulate(
                de_bruijn(2, 3),
                FaultSet::new(),
                SimOptions {
                    slots: 400,
                    wavelengths,
                    ..Default::default()
                },
                &TrafficPattern::Uniform { load: 0.7 },
            )
        };
        let legacy = run(WavelengthConfig::default());
        assert_eq!(legacy.wavelengths, 0, "layer off ⇒ sentinel 0");
        assert!(legacy.blocking_ratio().is_nan());
        assert_eq!(legacy, run(WavelengthConfig::with_count(1)));
    }

    #[test]
    fn empty_timeline_is_the_legacy_run() {
        // The schedule machinery must be inert until a swap fires: a run
        // whose only epoch starts after the last slot matches the run with
        // no timeline (identical metrics, hence identical RNG draw order)
        // in both wavelength modes.
        let g = kautz(2, 3);
        let kernel = PreparedHotPotato::new(Arc::new(g.clone()), FaultSet::new());
        let unfired = [(
            400,
            PreparedHotPotato::new(Arc::new(g), FaultSet::from_nodes([3])),
        )];
        let traffic = TrafficPattern::Uniform { load: 0.5 };
        for config in [
            SimOptions {
                slots: 400,
                ..Default::default()
            },
            SimOptions {
                slots: 400,
                wavelengths: WavelengthConfig::with_count(3),
                ..Default::default()
            },
        ] {
            let timed = run_timed(&kernel, &unfired, &traffic, &config);
            let legacy = run_timed(&kernel, &[], &traffic, &config);
            assert_eq!(timed, legacy);
            assert_eq!(timed.fault_events, 0);
        }
    }

    #[test]
    fn timeline_of_a_faulted_kernel_keeps_its_static_faults() {
        // A timeline built from a statically faulted kernel overlays the
        // schedule on the static faults: failing node 3 and recovering it
        // gives the epochs {0, 3} then {0}, each prepared over the same
        // shared digraph, and the run conserves messages across both swaps.
        let g = Arc::new(kautz(2, 3));
        let kernel = PreparedHotPotato::new(Arc::clone(&g), FaultSet::from_nodes([0]));
        let schedule: FaultSchedule = "fail(node 3)@40; recover@160".parse().unwrap();
        let timeline = kernel.timeline(&schedule).unwrap();
        let epochs: Vec<(u64, &FaultSet)> = timeline
            .iter()
            .map(|(slot, epoch)| (*slot, epoch.faults()))
            .collect();
        assert_eq!(
            epochs,
            [
                (40, &FaultSet::from_nodes([0, 3])),
                (160, &FaultSet::from_nodes([0]))
            ]
        );
        for (_, epoch) in &timeline {
            assert!(Arc::ptr_eq(epoch.shared_graph(), &g));
        }
        let traffic = TrafficPattern::Uniform { load: 0.6 };
        let config = SimOptions {
            slots: 320,
            ..Default::default()
        };
        let m = run_timed(&kernel, &timeline, &traffic, &config);
        assert_eq!(m.fault_events, 2);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.dropped_by_failure <= m.dropped);
    }

    #[test]
    fn failure_at_slot_zero_matches_the_static_faulted_run() {
        // A swap before any traffic exists runs the whole simulation under
        // the faulted kernel: everything but the restoration bookkeeping
        // matches a statically faulted run bit for bit.
        let g = kautz(2, 3);
        let base = PreparedHotPotato::new(Arc::new(g.clone()), FaultSet::new());
        let schedule: FaultSchedule = "fail(node 0)@0".parse().unwrap();
        let timeline = base.timeline(&schedule).unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.4 };
        let config = SimOptions {
            slots: 300,
            ..Default::default()
        };
        let mut timed = run_timed(&base, &timeline, &traffic, &config);
        let faulted = PreparedHotPotato::new(Arc::new(g), FaultSet::from_nodes([0]));
        let static_run = run_timed(&faulted, &[], &traffic, &config);
        assert_eq!(timed.fault_events, 1);
        assert_eq!(timed.in_flight_at_failure, 0);
        assert_eq!(timed.dropped_by_failure, 0);
        assert_eq!(
            timed.restore_slots,
            u64::MAX,
            "slot-0 failure has no baseline"
        );
        timed.fault_events = 0;
        timed.restore_slots = 0;
        timed.post_failure_latency_peak = 0;
        // The timeline run reports the channel count of the kernel it
        // started from (the intact network); the static run reports the
        // surviving subgraph's.
        timed.channels = static_run.channels;
        assert_eq!(timed, static_run);
    }

    #[test]
    fn mid_run_failure_strands_in_flight_messages_and_recovery_restores() {
        // A node failure mid-run strands the messages sitting on or destined
        // to the dead node (counted separately from congestion drops), and
        // after the scheduled recovery the deflection network restores its
        // pre-failure delivery rate.
        let g = kautz(2, 3);
        let base = PreparedHotPotato::new(Arc::new(g), FaultSet::new());
        let schedule: FaultSchedule = "fail(node 2)@200; recover@400".parse().unwrap();
        let timeline = base.timeline(&schedule).unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.8 };
        let config = SimOptions {
            slots: 800,
            ..Default::default()
        };
        let m = run_timed(&base, &timeline, &traffic, &config);
        assert_eq!(m.fault_events, 2);
        assert!(m.in_flight_at_failure > 0, "saturated run has live traffic");
        assert!(m.dropped_by_failure > 0, "the dead node strands messages");
        assert!(m.dropped_by_failure <= m.dropped);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert_ne!(m.restore_slots, u64::MAX, "deflection routing must recover");
        assert!(m.post_failure_latency_peak > 0);
    }

    #[test]
    fn ttl_guard_drops_runaway_messages() {
        let m = simulate(
            de_bruijn(2, 2),
            FaultSet::new(),
            SimOptions {
                slots: 2000,
                max_hops: 2,
                seed: 3,
                ..Default::default()
            },
            &TrafficPattern::Uniform { load: 1.0 },
        );
        // With such a tight TTL under saturation some messages must be dropped.
        assert!(m.dropped > 0);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
    }

    #[test]
    fn run_reads_only_its_sim_options_fields() {
        // A seeded DB(2,4) run: changing a field the hot-potato kernel
        // ignores leaves the metrics identical; changing one it reads
        // changes them.
        use crate::arbitration::ArbitrationPolicy;
        let kernel = PreparedHotPotato::new(Arc::new(de_bruijn(2, 4)), FaultSet::new());
        let traffic = TrafficPattern::Uniform { load: 0.6 };
        let base = SimOptions::new(300, 11);
        let run = |options: &SimOptions| run_timed(&kernel, &[], &traffic, options);
        let reference = run(&base);
        assert!(reference.delivered > 0);
        let ignored = [
            SimOptions {
                policy: ArbitrationPolicy::Random,
                ..base.clone()
            },
            SimOptions {
                queue_limit: 1,
                ..base.clone()
            },
            // Faults and alternates are fixed when the kernel is prepared.
            base.clone().with_faults(FaultSet::from_nodes([1])),
            SimOptions {
                alt_paths: 3,
                ..base.clone()
            },
        ];
        for options in &ignored {
            assert_eq!(run(options), reference, "{options:?}");
        }
        let read = SimOptions {
            max_hops: 1,
            ..base.clone()
        };
        let guarded = run(&read);
        assert_ne!(guarded, reference);
        assert!(guarded.dropped > reference.dropped);
    }
}
