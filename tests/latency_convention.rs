//! Cross-simulator latency convention: a single-hop message costs exactly
//! one slot in both the multi-OPS simulator and the hot-potato baseline, so
//! the comparison tables of experiment T5 measure the same clock.
//!
//! Both scenarios are contention-free by construction, so *every* delivered
//! message is single-hop and the averages must be exactly 1 — including
//! messages injected in the final slot, which the hot-potato simulator used
//! to misreport as in flight.

use otis_lightwave::routing::FaultSet;
use otis_lightwave::sim::{
    DemandSource, PreparedHotPotato, PreparedMultiOps, SimOptions, SlotScratch, TrafficPattern,
};
use otis_lightwave::topologies::{complete_digraph, Pops};
use std::sync::Arc;

/// Shifted-by-one permutation traffic at full load: deterministic, never
/// self-addressed, and contention-free on both test networks.
fn shift_traffic() -> DemandSource {
    DemandSource::Pattern(TrafficPattern::Permutation {
        load: 1.0,
        offset: 1,
    })
}

#[test]
fn hot_potato_single_hop_costs_one_slot() {
    // K(5): every destination is one hop away and each node forwards at most
    // its own injection, so no deflection can occur.
    let kernel = PreparedHotPotato::new(Arc::new(complete_digraph(5)), FaultSet::new());
    let config = SimOptions {
        slots: 50,
        ..Default::default()
    };
    let m = kernel.run(&[], &mut shift_traffic(), &config, &mut SlotScratch::new());
    assert_eq!(m.injected, 5 * 50);
    assert_eq!(m.delivered, m.injected, "all single-hop traffic delivered");
    assert_eq!(m.in_flight, 0);
    assert_eq!(m.dropped, 0);
    assert!((m.average_latency() - 1.0).abs() < 1e-12);
    assert!((m.average_hops() - 1.0).abs() < 1e-12);
    assert_eq!(m.max_latency, 1);
    assert_eq!(m.max_hops, 1);
}

#[test]
fn multi_ops_single_hop_costs_one_slot() {
    // POPS(1,4): four groups of one processor, so processor i's messages to
    // i+1 are alone on coupler (i, i+1) — no arbitration losses ever.
    let pops = Pops::new(1, 4);
    let kernel = PreparedMultiOps::new(Arc::new(pops.stack_graph().clone()), FaultSet::new(), 1);
    let config = SimOptions {
        slots: 50,
        ..Default::default()
    };
    let m = kernel.run(&[], &mut shift_traffic(), &config, &mut SlotScratch::new());
    assert_eq!(m.injected, 4 * 50);
    assert_eq!(m.delivered, m.injected, "all single-hop traffic delivered");
    assert_eq!(m.in_flight, 0);
    assert!((m.average_latency() - 1.0).abs() < 1e-12);
    assert!((m.average_hops() - 1.0).abs() < 1e-12);
    assert_eq!(m.max_latency, 1);
    assert_eq!(m.max_hops, 1);
}

#[test]
fn conventions_agree_under_faults_too() {
    // The same contention-free scenarios with an irrelevant fault installed:
    // routing around a fault must not change the clock convention.
    let mut faults = FaultSet::new();
    faults.fail_arc(2, 0); // unused by the shifted permutation
    let kernel = PreparedHotPotato::new(Arc::new(complete_digraph(5)), faults);
    let config = SimOptions {
        slots: 30,
        ..Default::default()
    };
    let m = kernel.run(&[], &mut shift_traffic(), &config, &mut SlotScratch::new());
    assert_eq!(m.delivered, m.injected);
    assert!((m.average_latency() - 1.0).abs() < 1e-12);
}
