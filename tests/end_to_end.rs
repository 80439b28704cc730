//! Integration tests spanning the whole workspace: topology → optical design
//! → verification → routing → simulation.

use otis_lightwave::designs::stack_kautz_design::expected_inventory;
use otis_lightwave::designs::verify::verify_multi_ops;
use otis_lightwave::designs::{ImaseItohDesign, StackImaseItohDesign};
use otis_lightwave::graphs::algorithms::diameter;
use otis_lightwave::graphs::{are_isomorphic, StackGraph};
use otis_lightwave::net::{Network, Route};
use otis_lightwave::routing::FaultSet;
use otis_lightwave::routing::StackRouter;
use otis_lightwave::sim::{
    DemandSource, PreparedMultiOps, SimMetrics, SimOptions, SlotScratch, TrafficPattern,
};
use otis_lightwave::topologies::{kautz, kautz_node_count, Pops, StackKautz};
use std::sync::Arc;

/// One uniform-traffic run of a fault-free multi-OPS kernel over `stack`.
fn simulate_uniform(stack: &StackGraph, load: f64, config: &SimOptions) -> SimMetrics {
    let kernel = PreparedMultiOps::new(Arc::new(stack.clone()), FaultSet::new(), 1);
    let mut demand = DemandSource::Pattern(TrafficPattern::Uniform { load });
    kernel.run(&[], &mut demand, config, &mut SlotScratch::new())
}

/// The paper's headline pipeline: build SK(6,3,2) as a graph, build its
/// optical design, verify the design against the graph, route on it, and
/// simulate traffic over it — all layers must agree.
#[test]
fn stack_kautz_full_pipeline() {
    // Topology layer.
    let sk = StackKautz::new(6, 3, 2);
    assert_eq!(sk.node_count(), 72);
    assert_eq!(sk.diameter(), Some(2));

    // Optical design layer (Fig. 12) — verified by signal tracing.  SK(6,3,2)
    // is built as SII(6,3,n) at the Kautz size n = 12.
    let design = StackImaseItohDesign::new(6, 3, kautz_node_count(3, 2));
    let report = design.verify().expect("design must realize SK(6,3,2)");
    assert_eq!(report.processors, sk.node_count());
    assert_eq!(report.links, sk.coupler_count());
    assert_eq!(design.inventory(), expected_inventory(6, 3, 2));

    // The traced one-hop adjacency has the same diameter as the topology.
    let induced = design.design().induced_digraph();
    assert_eq!(diameter(&induced), Some(2));

    // Routing layer: every pair routes within the diameter.
    let router = StackRouter::new(sk.stack_graph().clone());
    let mut worst = 0usize;
    for src in (0..sk.node_count()).step_by(5) {
        for dst in (0..sk.node_count()).step_by(3) {
            worst = worst.max(router.route(src, dst).unwrap().len());
        }
    }
    assert!(worst <= 2);

    // Simulation layer: traffic flows and is conserved.
    let config = SimOptions {
        slots: 500,
        ..Default::default()
    };
    let metrics = simulate_uniform(sk.stack_graph(), 0.2, &config);
    assert!(metrics.delivered > 0);
    assert_eq!(
        metrics.injected,
        metrics.delivered + metrics.in_flight + metrics.dropped
    );
    assert!(metrics.average_hops() <= 2.0 + 1e-9);
}

/// POPS pipeline: topology, design and coupler-level routing.
#[test]
fn pops_full_pipeline() {
    let pops = Pops::new(4, 2);
    let design = StackImaseItohDesign::new(4, 2, 2);
    let report = verify_multi_ops(design.design(), pops.stack_graph())
        .expect("design must realize POPS(4,2)");
    assert_eq!(report.processors, pops.node_count());

    // Paper-consistent hardware: g OTIS(t,g), g OTIS(g,t), one OTIS(g,g).
    let inv = design.inventory();
    assert_eq!(inv.otis_units_of(4, 2), 2);
    assert_eq!(inv.otis_units_of(2, 4), 2);
    assert_eq!(inv.otis_units_of(2, 2), 1);

    // Single-hop routing, on the multi-OPS route the facade and the
    // simulator use: every pair of distinct processors crosses exactly one
    // coupler, the one labelled (src group, dst group): coupler i·g + j.
    let network = Network::from_spec("POPS(4,2)").unwrap();
    for src in 0..pops.node_count() {
        for dst in (0..pops.node_count()).filter(|&dst| dst != src) {
            let Some(Route::MultiOps(route)) = network.route(src, dst) else {
                panic!("POPS(4,2) has no multi-OPS route {src} -> {dst}");
            };
            assert_eq!(route.hops.len(), 1, "{src} -> {dst}");
            let coupler = route.hops[0].coupler;
            let g = pops.group_count();
            assert_eq!(
                (coupler / g, coupler % g),
                (pops.processor_label(src).0, pops.processor_label(dst).0),
                "{src} -> {dst}"
            );
        }
    }
}

/// Corollary 1 glue: the single-OTIS Imase–Itoh design at the Kautz size,
/// the word-label Kautz graph and the Imase–Itoh arithmetic must all
/// describe the same network.
#[test]
fn kautz_design_matches_both_constructions() {
    for (d, k) in [(2usize, 2usize), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)] {
        let design = ImaseItohDesign::new(d, kautz_node_count(d, k));
        design.verify().expect("Corollary 1");
        assert!(are_isomorphic(&design.target(), &kautz(d, k)));
        assert_eq!(design.target().node_count(), kautz(d, k).node_count());
    }
}

/// Proposition 1 at a non-Kautz size, and the loss budget of the realization.
#[test]
fn imase_itoh_design_at_arbitrary_size() {
    let design = ImaseItohDesign::new(4, 23);
    design.verify().expect("Proposition 1 holds for II(4,23)");
    // Point-to-point through a single OTIS: exactly one lens-pair of loss.
    assert!(design.design().worst_case_loss_db() < 2.0);
    let inv = design.inventory();
    assert_eq!(inv.otis_units(), 1);
    assert_eq!(inv.transmitter_count(), 4 * 23);
}

/// The simulator respects the single-wavelength constraint: per-slot grants
/// never exceed the number of couplers.
#[test]
fn simulator_never_exceeds_coupler_capacity() {
    let pops = Pops::new(6, 3);
    let slots = 400u64;
    let config = SimOptions {
        slots,
        ..Default::default()
    };
    let metrics = simulate_uniform(pops.stack_graph(), 1.0, &config);
    assert!(metrics.grants <= slots * pops.coupler_count() as u64);
    assert!(metrics.channel_utilization() <= 1.0 + 1e-9);
}

/// Stack-Imase-Itoh designs work for processor counts that are not Kautz
/// sizes — the practical reason the paper mentions the extension.
#[test]
fn stack_imase_itoh_covers_arbitrary_group_counts() {
    for n in [5usize, 9, 14] {
        let design = StackImaseItohDesign::new(3, 2, n);
        design
            .verify()
            .unwrap_or_else(|e| panic!("SII(3,2,{n}) failed: {e}"));
        assert_eq!(design.design().processor_count(), 3 * n);
    }
}
