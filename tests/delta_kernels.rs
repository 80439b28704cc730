//! Acceptance tests of derived fault kernels, driven through the umbrella
//! crate the way downstream users see it.
//!
//! The contract under test, end to end: deriving a fault pattern's kernel
//! from the fault-free base with `repair` is **bit-identical** to preparing
//! that pattern from scratch, for every fault set within the paper's
//! `d − 1` tolerance bound (degree-2 networks here, so every single fault
//! plus the empty set).

use otis_lightwave::net::{FaultSet, Network, SimOptions};
use otis_lightwave::routing::node_fault_patterns_up_to;
use otis_lightwave::sim::{SlotScratch, TrafficPattern};

#[test]
fn repaired_alternates_match_from_scratch_yen_for_every_tolerated_fault_set() {
    // The routing state of a derived kernel — distance tables, or the
    // group-pair routes with their Yen alternates — must be bit-identical
    // to a from-scratch prepare for every fault set within the paper's
    // d − 1 tolerance bound, on both simulator families.
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
    // The engine-level contract: a kernel derived from the fault-free base
    // produces metrics byte-identical to a kernel prepared from scratch for
    // the fault pattern — both simulator families, with and without
    // alternate routes.
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
