//! A naive, message-at-a-time reference for the hot-potato simulator.
//!
//! [`reference_run`] re-implements the documented rules of
//! `PreparedHotPotato::run` with none of its machinery: messages are plain
//! structs in per-node `Vec`s, distances come from one BFS per destination
//! over the surviving arcs, port occupancy is a count per port and the
//! spectrum a `Vec<bool>` per port.  Only the demand side is shared: both
//! simulators draw their injections from the same `DemandSource` variant,
//! so the comparison is about the network.  The rules, slot by slot:
//!
//! 1. the slot clock advances, then every fault-timeline epoch due by this
//!    slot swaps in: messages sitting on a failed node, bound for one, or
//!    left without a route are stranded (`dropped_by_failure`);
//! 2. the demand source draws this slot's injections;
//! 3. nodes are served in index order.  Each delivers the messages bound
//!    for it, drops the ones that spent their hop budget, and sends the
//!    rest oldest first (stable by injection slot) to a closest free port,
//!    ties broken by one uniform draw; a message with no free port is
//!    dropped (and counted blocked with wavelengths on).  Then the node
//!    admits its injection only if its destination is reachable and a port
//!    is still free;
//! 4. a port closes after one message, or with `W > 1` wavelengths once
//!    all `W` of its arc are taken (first-fit, or one uniform draw over
//!    the free ones); a grant that does not shorten the distance counts as
//!    `alt_routed`;
//! 5. after the last slot, messages that arrived at their destination are
//!    delivered and the rest are in flight.
//!
//! Every cell of a seeded grid (five topologies, one of them not strongly
//! connected and one whose fault timeline moves its kernel between one-
//! and two-byte distance tables; one and three wavelengths, both assignments, static faults,
//! a fail/recover timeline and four demand kinds) must give `SimMetrics`
//! equal to the kernel's.

use otis_lightwave::graphs::Digraph;
use otis_lightwave::routing::FaultSet;
use otis_lightwave::sim::{
    DemandSource, DemandSpec, FaultSchedule, PreparedHotPotato, SimMetrics, SimOptions,
    SlotScratch, TraceReplay, WavelengthAssignment, WavelengthConfig,
};
use otis_lightwave::topologies::{complete_digraph, de_bruijn, imase_itoh, kautz};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::Cursor;
use std::sync::Arc;

/// One message in flight.
#[derive(Debug, Clone)]
struct Message {
    dst: usize,
    injected_at: u64,
    hops: u32,
}

/// The routing view of one fault set: each node's surviving out-arcs in
/// port order and the hop distances over them.
struct Topology {
    faults: FaultSet,
    /// `ports[u]` lists the heads of `u`'s surviving out-arcs.
    ports: Vec<Vec<usize>>,
    /// `to[dst][u]` is the distance from `u` to `dst`, `None` when `dst`
    /// cannot be reached from `u`.
    to: Vec<Vec<Option<u32>>>,
}

impl Topology {
    fn new(graph: &Digraph, faults: &FaultSet) -> Self {
        let n = graph.node_count();
        let ports: Vec<Vec<usize>> = (0..n)
            .map(|u| {
                graph
                    .out_neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| !faults.blocks(u, v))
                    .collect()
            })
            .collect();
        // One BFS backwards from each destination: `u` is one hop further
        // than `v` whenever `u` has a surviving arc into `v`.
        let mut into: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, heads) in ports.iter().enumerate() {
            for &v in heads {
                into[v].push(u);
            }
        }
        let mut to = vec![vec![None; n]; n];
        for (dst, column) in to.iter_mut().enumerate() {
            column[dst] = Some(0);
            let mut queue = VecDeque::from([dst]);
            while let Some(v) = queue.pop_front() {
                let d = column[v].map(|d: u32| d + 1);
                for &u in &into[v] {
                    if column[u].is_none() {
                        column[u] = d;
                        queue.push_back(u);
                    }
                }
            }
        }
        Topology {
            faults: faults.clone(),
            ports,
            to,
        }
    }

    fn dist(&self, u: usize, dst: usize) -> Option<u32> {
        self.to[dst][u]
    }

    fn arc_count(&self) -> usize {
        self.ports.iter().map(Vec::len).sum()
    }

    /// Whether a message at `node` bound for `dst` has no future here.
    fn strands(&self, node: usize, dst: usize) -> bool {
        self.faults.node_failed(node)
            || self.faults.node_failed(dst)
            || self.dist(node, dst).is_none()
    }
}

/// The restoration metrics' anchor: the first swap that adds failures.
struct Failure {
    slot: u64,
    delivered: u64,
    baseline: f64,
}

/// Records one delivery, feeding the post-failure latency peak.
fn deliver(metrics: &mut SimMetrics, failure: &Option<Failure>, latency: u64, hops: u32) {
    metrics.record_delivery(latency, hops);
    if failure.is_some() {
        metrics.post_failure_latency_peak = metrics.post_failure_latency_peak.max(latency);
    }
}

/// One node's output ports for one slot: wavelengths taken per port.
struct Ports {
    taken: Vec<Vec<bool>>,
    /// Wavelengths per port: 1 with the wavelength layer off.
    capacity: usize,
}

impl Ports {
    fn free(&self, port: usize) -> bool {
        self.taken[port].iter().filter(|&&t| t).count() < self.capacity
    }
}

/// Picks a closest free port for a message at `node` bound for `dst`, or
/// `None` when every port is closed.  One draw per successful decision.
fn choose(
    topo: &Topology,
    node: usize,
    dst: usize,
    ports: &Ports,
    rng: &mut StdRng,
) -> Option<usize> {
    let mut best = u32::MAX;
    let mut ties = Vec::new();
    for (port, &head) in topo.ports[node].iter().enumerate() {
        if !ports.free(port) {
            continue;
        }
        let d = topo.dist(head, dst).unwrap_or(u32::MAX);
        if ties.is_empty() || d < best {
            best = d;
            ties.clear();
        }
        if d == best {
            ties.push(port);
        }
    }
    (!ties.is_empty()).then(|| ties[rng.gen_range(0..ties.len())])
}

/// Books a grant of `port` at `node`: the deflection count, the wavelength
/// (first-fit, or a uniform draw over the free ones) and the grant count.
#[allow(clippy::too_many_arguments)]
fn claim(
    topo: &Topology,
    node: usize,
    dst: usize,
    port: usize,
    ports: &mut Ports,
    options: &SimOptions,
    rng: &mut StdRng,
    metrics: &mut SimMetrics,
) {
    if options.wavelengths.is_multiplexed() {
        let next = topo.ports[node][port];
        let progress = match (topo.dist(node, dst), topo.dist(next, dst)) {
            (Some(here), Some(there)) => there < here,
            _ => false,
        };
        if !progress {
            metrics.alt_routed += 1;
        }
    }
    let free: Vec<usize> = (0..ports.capacity)
        .filter(|&lambda| !ports.taken[port][lambda])
        .collect();
    let lambda = match options.wavelengths.assignment {
        WavelengthAssignment::Random if options.wavelengths.is_multiplexed() => {
            free[rng.gen_range(0..free.len())]
        }
        _ => free[0],
    };
    ports.taken[port][lambda] = true;
    metrics.grants += 1;
}

/// The reference run of `graph` under static `faults`, the fault-timeline
/// `epochs` (`(slot, fault set)`, chronological) and `demand`.
fn reference_run(
    graph: &Digraph,
    faults: &FaultSet,
    epochs: &[(u64, FaultSet)],
    demand: &mut DemandSource,
    options: &SimOptions,
) -> SimMetrics {
    let n = graph.node_count();
    let multiplexed = options.wavelengths.is_multiplexed();
    let capacity = if multiplexed {
        options.wavelengths.count
    } else {
        1
    };
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut topo = Topology::new(graph, faults);
    let mut metrics = SimMetrics::new(n, topo.arc_count());
    if multiplexed {
        metrics.wavelengths = capacity;
    }
    let mut failure: Option<Failure> = None;
    let mut pending = epochs.iter().peekable();
    let mut at: Vec<Vec<Message>> = vec![Vec::new(); n];
    let mut injections = Vec::new();

    for slot in 0..options.slots {
        metrics.slots = slot + 1;
        while let Some((_, epoch)) = pending.next_if(|(at_slot, _)| *at_slot <= slot) {
            metrics.fault_events += 1;
            if !epoch.is_subset_of(&topo.faults) && failure.is_none() {
                failure = Some(Failure {
                    slot,
                    delivered: metrics.delivered,
                    baseline: if slot > 0 {
                        metrics.delivered as f64 / slot as f64
                    } else {
                        0.0
                    },
                });
                metrics.in_flight_at_failure = at.iter().map(|m| m.len() as u64).sum();
                metrics.restore_slots = u64::MAX;
            }
            topo = Topology::new(graph, epoch);
            for (node, messages) in at.iter_mut().enumerate() {
                let before = messages.len();
                messages.retain(|m| !topo.strands(node, m.dst));
                let stranded = (before - messages.len()) as u64;
                metrics.dropped_by_failure += stranded;
                metrics.dropped += stranded;
            }
        }
        demand.injections_into(n, &mut rng, &mut injections);

        let mut next: Vec<Vec<Message>> = vec![Vec::new(); n];
        for node in 0..n {
            let mut transit = Vec::new();
            for message in std::mem::take(&mut at[node]) {
                if message.dst == node {
                    let latency = slot - message.injected_at;
                    deliver(&mut metrics, &failure, latency, message.hops);
                } else if options.max_hops > 0 && message.hops >= options.max_hops {
                    metrics.dropped += 1;
                } else {
                    transit.push(message);
                }
            }
            transit.sort_by_key(|m| m.injected_at);
            let mut ports = Ports {
                taken: vec![vec![false; capacity]; topo.ports[node].len()],
                capacity,
            };
            for mut message in transit {
                match choose(&topo, node, message.dst, &ports, &mut rng) {
                    Some(port) => {
                        claim(
                            &topo,
                            node,
                            message.dst,
                            port,
                            &mut ports,
                            options,
                            &mut rng,
                            &mut metrics,
                        );
                        message.hops += 1;
                        next[topo.ports[node][port]].push(message);
                    }
                    None => {
                        if multiplexed {
                            metrics.blocked += 1;
                        }
                        metrics.dropped += 1;
                    }
                }
            }
            if let Some(dst) = injections[node] {
                // Traffic from, to or cut off from a failed region, or
                // with no walk to its destination in an intact network, is
                // refused at the source and never counted as injected.
                if topo.strands(node, dst) {
                    continue;
                }
                if let Some(port) = choose(&topo, node, dst, &ports, &mut rng) {
                    claim(
                        &topo,
                        node,
                        dst,
                        port,
                        &mut ports,
                        options,
                        &mut rng,
                        &mut metrics,
                    );
                    metrics.injected += 1;
                    next[topo.ports[node][port]].push(Message {
                        dst,
                        injected_at: slot,
                        hops: 1,
                    });
                }
            }
        }
        at = next;

        if let Some(failure) = &failure {
            if metrics.restore_slots == u64::MAX && failure.baseline > 0.0 {
                let elapsed = slot - failure.slot + 1;
                let rate = (metrics.delivered - failure.delivered) as f64 / elapsed as f64;
                if rate >= 0.95 * failure.baseline {
                    metrics.restore_slots = elapsed;
                }
            }
        }
    }

    for (node, messages) in at.iter_mut().enumerate() {
        for message in messages.iter().filter(|m| m.dst == node) {
            let latency = options.slots - message.injected_at;
            deliver(&mut metrics, &failure, latency, message.hops);
        }
        messages.retain(|m| m.dst != node);
    }
    metrics.in_flight = at.iter().map(|m| m.len() as u64).sum();
    metrics
}

/// A seeded random trace over `n` nodes: slots non-decreasing, at most one
/// injection per source per slot, `src != dst`.
fn synthetic_trace(n: usize, slots: u64, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::from("# synthetic reference trace\n");
    for slot in 0..slots {
        for src in 0..n {
            if rng.gen_range(0..4) == 0 {
                let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
                text.push_str(&format!("{slot} {src} {dst}\n"));
            }
        }
    }
    text
}

/// A workload of the grid, turned into a fresh source per run.
enum Workload {
    Spec(&'static str),
    Trace,
}

impl Workload {
    fn source(&self, n: usize, slots: u64) -> DemandSource {
        match self {
            Workload::Spec(spec) => spec
                .parse::<DemandSpec>()
                .unwrap()
                .bind(n)
                .unwrap()
                .source()
                .unwrap(),
            Workload::Trace => {
                DemandSource::Trace(TraceReplay::new(Cursor::new(synthetic_trace(n, slots, 5))))
            }
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Workload::Spec(spec) => spec,
            Workload::Trace => "trace",
        }
    }
}

const WORKLOADS: [Workload; 4] = [
    Workload::Spec("uniform(0.6)"),
    Workload::Spec("hotspot(0.5,1,0.3)"),
    Workload::Spec("onoff(0.9,6,10)"),
    Workload::Trace,
];

/// Runs one grid cell through both simulators and compares the metrics.
fn check_cell(
    name: &str,
    graph: &Arc<Digraph>,
    kernel: &PreparedHotPotato,
    schedule: &FaultSchedule,
    workload: &Workload,
    options: &SimOptions,
    scratch: &mut SlotScratch,
) {
    let timeline = kernel.timeline(schedule).unwrap();
    let epochs: Vec<(u64, FaultSet)> = timeline
        .iter()
        .map(|(slot, epoch)| (*slot, epoch.faults().clone()))
        .collect();
    let n = graph.node_count();
    let mut demand = workload.source(n, options.slots);
    let fast = kernel.run(&timeline, &mut demand, options, scratch);
    let mut demand = workload.source(n, options.slots);
    let naive = reference_run(graph, kernel.faults(), &epochs, &mut demand, options);
    assert!(fast.injected > 0, "{name}: an idle cell checks nothing");
    assert_eq!(
        fast,
        naive,
        "{name} faults={:?} schedule={schedule} workload={} W={} {:?} seed={} max_hops={}",
        kernel.faults().sorted_nodes(),
        workload.name(),
        options.wavelengths.count,
        options.wavelengths.assignment,
        options.seed,
        options.max_hops,
    );
}

/// The seeded grid for one topology.
fn check_topology(name: &str, graph: Digraph, static_fault: usize, failing: usize) {
    check_every_nth_cell(name, graph, static_fault, failing, 1);
}

/// Every `stride`-th cell of [`check_topology`]'s grid, counting from the
/// first, in loop order.
fn check_every_nth_cell(
    name: &str,
    graph: Digraph,
    static_fault: usize,
    failing: usize,
    stride: usize,
) {
    let graph = Arc::new(graph);
    let mut cell = 0;
    let schedules: [FaultSchedule; 2] = [
        "none".parse().unwrap(),
        format!("fail(node {failing})@25; recover@70")
            .parse()
            .unwrap(),
    ];
    let mut scratch = SlotScratch::new();
    for faults in [FaultSet::new(), FaultSet::from_nodes([static_fault])] {
        let kernel = PreparedHotPotato::new(Arc::clone(&graph), faults);
        for schedule in &schedules {
            for workload in &WORKLOADS {
                for (count, assignment) in [
                    (1, WavelengthAssignment::FirstFit),
                    (3, WavelengthAssignment::FirstFit),
                    (3, WavelengthAssignment::Random),
                ] {
                    for (seed, max_hops) in [(3, 64), (17, 5)] {
                        cell += 1;
                        if (cell - 1) % stride != 0 {
                            continue;
                        }
                        let options = SimOptions {
                            wavelengths: WavelengthConfig { count, assignment },
                            max_hops,
                            ..SimOptions::new(120, seed)
                        };
                        check_cell(
                            name,
                            &graph,
                            &kernel,
                            schedule,
                            workload,
                            &options,
                            &mut scratch,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn de_bruijn_matches_the_reference() {
    check_topology("DB(2,4)", de_bruijn(2, 4), 3, 6);
}

#[test]
fn kautz_matches_the_reference() {
    check_topology("KG(2,3)", kautz(2, 3), 0, 5);
}

#[test]
fn complete_digraph_matches_the_reference() {
    check_topology("K(5)", complete_digraph(5), 4, 2);
}

#[test]
fn imase_itoh_without_strong_connectivity_matches_the_reference() {
    // II(1, 7) is u -> 6 - u: the 2-cycles {0,6}, {1,5}, {2,4} and a loop
    // at 3, so most pairs have no walk at all, faults or not.  Node 3
    // fails statically and node 2 for a while; {0,6} and {1,5} still carry
    // traffic.
    check_topology("II(1,7)", imase_itoh(1, 7), 3, 2);
}

#[test]
fn a_ring_with_a_hub_matches_the_reference_across_table_widths() {
    // A directed ring 0 -> 1 -> ... -> 299 -> 0 plus a hub, node 300, with
    // an arc to and from every ring node.  The intact and static-fault
    // kernels have diameter 2 and one-byte distance tables; failing the
    // hub at slot 25 leaves the ring alone, with distances up to 299 and a
    // two-byte table, and the recovery at slot 70 brings bytes back.  The
    // hub's 300 ports also take the multi-word chooser.
    let n = 300;
    let mut edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    edges.extend((0..n).flat_map(|u| [(u, n), (n, u)]));
    let graph = Digraph::from_edges(n + 1, &edges);
    // The hub routes about 300 messages a slot over its 300 ports, which
    // costs each simulator about a second per cell unoptimised: a debug
    // build checks 9 of the 96 cells, spread over every axis of the grid,
    // and a release build all of them.
    let stride = if cfg!(debug_assertions) { 11 } else { 1 };
    check_every_nth_cell("ring+hub(300)", graph, 7, 300, stride);
}

#[test]
fn random_assignment_at_one_wavelength_draws_nothing_extra() {
    // With the wavelength layer off the assignment discipline is inert:
    // a Random cell at W = 1 is the FirstFit cell.
    let graph = Arc::new(de_bruijn(2, 4));
    let kernel = PreparedHotPotato::new(Arc::clone(&graph), FaultSet::new());
    let run = |assignment| {
        let options = SimOptions {
            wavelengths: WavelengthConfig {
                count: 1,
                assignment,
            },
            ..SimOptions::new(120, 9)
        };
        let mut demand = WORKLOADS[0].source(16, 120);
        kernel.run(&[], &mut demand, &options, &mut SlotScratch::new())
    };
    assert_eq!(
        run(WavelengthAssignment::Random),
        run(WavelengthAssignment::FirstFit)
    );
}
