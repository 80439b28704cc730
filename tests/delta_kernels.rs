//! Acceptance tests of the delta-repair constructors, driven through the
//! umbrella crate the way downstream users see it.
//!
//! The contract under test, end to end: deriving fault-pattern state from
//! the fault-free base by delta repair — routing tables, stack routers,
//! whole prepared kernels — is **bit-identical** to building that state
//! from scratch, for every fault set within the paper's `d − 1` tolerance
//! bound (degree-2 networks here, so every single fault plus the empty
//! set).

use otis_lightwave::net::{FaultSet, Network, SimOptions};
use otis_lightwave::routing::{
    node_fault_patterns_up_to, surviving_subgraph, RoutingTable, StackRouter,
};
use otis_lightwave::sim::{SlotScratch, TrafficPattern};
use otis_lightwave::topologies::{de_bruijn, StackKautz};

#[test]
fn repaired_tables_match_from_scratch_on_db_2_8() {
    // DB(2,8): 256 processors, degree 2, so the tolerance bound admits
    // every single-node fault.  Each repaired table must equal the table
    // computed from scratch on the surviving subgraph — same next hops,
    // same distances, every pair.
    let graph = de_bruijn(2, 8);
    let base = RoutingTable::new(&graph);
    for faults in node_fault_patterns_up_to(graph.node_count(), 1) {
        let survivor = surviving_subgraph(&graph, &faults);
        let repair = base.repaired(&survivor, &faults);
        assert_eq!(
            repair.table,
            RoutingTable::new(&survivor),
            "faults {:?}",
            faults.sorted_nodes()
        );
        // The repair must also be a genuine delta: a single fault never
        // forces every column to be recomputed.
        if !faults.is_empty() {
            assert!(
                repair.recomputed < graph.node_count(),
                "faults {:?} recomputed every column",
                faults.sorted_nodes()
            );
        }
    }
}

#[test]
fn repaired_stack_routers_match_from_scratch_on_sk_2_2_2() {
    // SK(2,2,2): the quotient is the degree-2 Kautz graph, so the bound
    // admits every single-group fault.  The repaired router must produce
    // exactly the routes of a from-scratch fault-aware construction for
    // every processor pair.
    let stack = StackKautz::new(2, 2, 2).stack_graph().clone();
    let processors = stack.node_count();
    let groups = stack.quotient().node_count();
    let base = StackRouter::new(stack.clone());
    for faults in node_fault_patterns_up_to(groups, 1) {
        let repair = StackRouter::from_repair(&base, &faults);
        let scratch = StackRouter::with_faults(stack.clone(), faults.clone());
        for src in 0..processors {
            for dst in 0..processors {
                assert_eq!(
                    repair.router.route(src, dst),
                    scratch.route(src, dst),
                    "route {src} -> {dst} under faults {:?}",
                    faults.sorted_nodes()
                );
            }
        }
    }
}

#[test]
fn repaired_alternates_match_from_scratch_yen_for_every_tolerated_fault_set() {
    // The repair-aware alternate-route contract: `repair` no longer reruns
    // group-level Yen in full — only group pairs the faults can have
    // disturbed are re-enumerated, and only pairs whose Yen list or primary
    // route changed are re-materialised.  The routing state (distance
    // tables, flat routes, Yen alternates) must nevertheless be
    // bit-identical to a from-scratch prepare for every fault set within
    // the paper's d − 1 tolerance bound, on both simulator families.
    for (spec, fault_ids, alt_paths) in [
        ("SK(2,2,2)", 6usize, 2usize),
        ("SK(2,2,2)", 6, 3),
        ("DB(2,8)", 256, 3),
    ] {
        let network = Network::from_spec(spec).unwrap();
        let base = network.prepare_with_alternates(&FaultSet::new(), alt_paths);
        for faults in node_fault_patterns_up_to(fault_ids, 1) {
            let fresh = network.prepare_with_alternates(&faults, alt_paths);
            let repaired = base.repair(&faults, alt_paths);
            assert!(
                repaired.routing_state_eq(&fresh),
                "{spec} (alt_paths {alt_paths}) routing state diverged under faults {:?}",
                faults.sorted_nodes()
            );
        }
    }
}

#[test]
fn repaired_kernels_run_byte_identical_to_fresh_kernels() {
    // The engine-level contract: a kernel delta-repaired from the
    // fault-free base produces metrics byte-identical to a kernel prepared
    // from scratch for the fault pattern — both simulator families, with
    // and without alternate routes.
    for (spec, fault_ids, alt_paths) in [
        ("SK(2,2,2)", 6usize, 1usize),
        ("SK(2,2,2)", 6, 3),
        ("DB(2,8)", 256, 1),
    ] {
        let network = Network::from_spec(spec).unwrap();
        let base = network.prepare_with_alternates(&FaultSet::new(), alt_paths);
        let traffic = TrafficPattern::Uniform { load: 0.5 };
        for faults in node_fault_patterns_up_to(fault_ids, 1) {
            let fresh = network.prepare_with_alternates(&faults, alt_paths);
            let repaired = base.repair(&faults, alt_paths);
            assert_eq!(repaired.faults(), fresh.faults(), "{spec}");
            let options = SimOptions::new(120, 7).with_faults(faults.clone());
            let mut scratch = SlotScratch::new();
            assert_eq!(
                repaired.run_with_timeline_scratch(None, &traffic, &options, &mut scratch),
                fresh.run_with_timeline_scratch(None, &traffic, &options, &mut scratch),
                "{spec} (alt_paths {alt_paths}) diverged under faults {:?}",
                faults.sorted_nodes()
            );
        }
    }
}
