//! Acceptance tests of the fault-timeline subsystem, driven through the
//! umbrella crate the way downstream users see it.
//!
//! Three bars are pinned here:
//!
//! 1. **Swap-path equivalence.**  A `fail(...)@t` schedule bound by
//!    `PreparedSim::timeline_of` produces metrics *identical* to swapping in
//!    a kernel prepared by hand for the faulted network at slot `t` — both
//!    simulator families, with and without alternate routes.
//! 2. **Legacy byte-identity.**  A grid that declares the schedule axis but
//!    only holds the empty schedule stays on the legacy output path:
//!    byte-identical to the seed goldens at 1, 2, 8 and 64 threads.
//! 3. **Restoration.**  After a scheduled recovery the delivery rate comes
//!    back: `restore_slots` is finite when the network recovers (and the
//!    restoration columns flow end to end through the streaming sinks,
//!    independent of thread count).

use otis_lightwave::net::{
    run_grid, run_grid_streaming, FaultSchedule, FaultSet, JsonLinesSink, Network, NetworkSpec,
    PreparedSim, PreparedTimeline, ScenarioGrid, SimOptions, TableSink,
};
use otis_lightwave::sim::{SlotScratch, TrafficPattern};

/// Extract the inner hot-potato kernel of a prepared simulator.
fn hot_potato_kernel(prepared: PreparedSim) -> otis_lightwave::sim::PreparedHotPotato {
    match prepared {
        PreparedSim::HotPotato(kernel) => kernel,
        PreparedSim::MultiOps(_) => panic!("expected a hot-potato kernel"),
    }
}

/// Extract the inner multi-OPS kernel of a prepared simulator.
fn multi_ops_kernel(prepared: PreparedSim) -> otis_lightwave::sim::PreparedMultiOps {
    match prepared {
        PreparedSim::MultiOps(kernel) => kernel,
        PreparedSim::HotPotato(_) => panic!("expected a multi-OPS kernel"),
    }
}

#[test]
fn scheduled_swap_matches_from_scratch_kernel_on_db_2_8() {
    // DB(2,8): the bound schedule swaps in one epoch kernel.  Swapping in
    // a kernel prepared by hand for the same fault set at the same slot
    // must give identical metrics.
    let network = Network::from_spec("DB(2,8)").unwrap();
    let base = network.prepare_with_alternates(&FaultSet::new(), 1);
    let schedule: FaultSchedule = "fail(node 3)@32".parse().unwrap();
    let timeline = base.timeline_of(&schedule).unwrap();
    assert_eq!(timeline.len(), 1);

    let mut faults = FaultSet::new();
    faults.fail_node(3);
    let by_hand_timeline = PreparedTimeline::HotPotato(vec![(
        32,
        hot_potato_kernel(network.prepare_with_alternates(&faults, 1)),
    )]);

    let traffic = TrafficPattern::Uniform { load: 0.4 };
    let options = SimOptions::new(200, 7);
    let run = |timeline| {
        base.run_with_timeline_scratch(Some(timeline), &traffic, &options, &mut SlotScratch::new())
    };
    let bound = run(&timeline);
    let by_hand = run(&by_hand_timeline);
    assert_eq!(
        bound, by_hand,
        "bound swap diverged from the hand-prepared kernel"
    );
    assert_eq!(bound.fault_events, 1);
    assert!(bound.in_flight_at_failure > 0 || bound.dropped_by_failure > 0);
}

#[test]
fn scheduled_swap_matches_from_scratch_kernel_on_sk_with_alternates() {
    // The multi-OPS family, with alternate routes prepared: the mid-run
    // swap must agree with a hand-prepared fault-aware kernel carrying the
    // same alternates.
    let network = Network::from_spec("SK(2,2,2)").unwrap();
    let base = network.prepare_with_alternates(&FaultSet::new(), 3);
    let schedule: FaultSchedule = "fail(node 1)@20; recover@120".parse().unwrap();
    let timeline = base.timeline_of(&schedule).unwrap();
    assert_eq!(timeline.len(), 2);

    let mut faults = FaultSet::new();
    faults.fail_node(1);
    let by_hand_timeline = PreparedTimeline::MultiOps(vec![
        (
            20,
            multi_ops_kernel(network.prepare_with_alternates(&faults, 3)),
        ),
        (
            120,
            multi_ops_kernel(network.prepare_with_alternates(&FaultSet::new(), 3)),
        ),
    ]);

    let traffic = TrafficPattern::Uniform { load: 0.5 };
    let options = SimOptions::new(300, 11);
    let run = |timeline| {
        base.run_with_timeline_scratch(Some(timeline), &traffic, &options, &mut SlotScratch::new())
    };
    let bound = run(&timeline);
    let by_hand = run(&by_hand_timeline);
    assert_eq!(
        bound, by_hand,
        "bound swap diverged from the hand-prepared kernels"
    );
    assert_eq!(bound.fault_events, 2);
}

/// The exact grid the golden files were generated from (see
/// `tests/wavelength_layer.rs`), with the schedule axis *explicitly* set to
/// its single static entry.
fn golden_grid_with_static_schedule() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "POPS(3,4)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    ScenarioGrid::new(specs)
        .loads(&[0.2, 0.6])
        .seeds(&[7, 11])
        .slots(120)
        .fault_schedules(vec!["none".parse().unwrap()])
}

#[test]
fn static_schedule_grids_stream_bytes_identical_to_the_seed_goldens() {
    // Declaring the axis with only the empty schedule must not flip the
    // sinks onto the restoration tier: the bytes are the seed's bytes, at
    // every thread count.
    let grid = golden_grid_with_static_schedule();
    assert!(
        !grid.fault_schedule_enabled(),
        "a lone empty schedule must stay on the legacy output path"
    );
    for threads in [1, 2, 8, 64] {
        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut table).unwrap();
        assert_eq!(
            String::from_utf8(table.into_inner()).unwrap(),
            include_str!("golden/grid_small.table"),
            "table output drifted from the seed golden at {threads} threads"
        );
    }
}

#[test]
fn recovery_restores_delivery_and_streams_restoration_columns() {
    // A coupler failure mid-run with alternates prepared: the network keeps
    // delivering, and once the failed group recovers the per-slot delivery
    // rate climbs back over the restoration threshold, so `restore_slots`
    // is finite.  The whole story flows through the streaming engine — the
    // restoration columns appear in the JSONL rows, identically at every
    // thread count.
    let specs: Vec<NetworkSpec> = vec!["SK(2,2,2)".parse().unwrap()];
    let schedules: Vec<FaultSchedule> = ["none", "fail(node 1)@100; recover@220"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let grid = ScenarioGrid::new(specs)
        .loads(&[0.9])
        .seeds(&[7])
        .slots(600)
        .alt_paths(3)
        .fault_schedules(schedules);
    assert!(grid.fault_schedule_enabled());

    let rows = run_grid(&grid, 2).unwrap();
    assert_eq!(rows.len(), 2);
    let static_row = &rows[0];
    let scheduled = &rows[1];
    assert_eq!(static_row.metrics.fault_events, 0);
    assert_eq!(scheduled.metrics.fault_events, 2);
    assert!(
        scheduled.metrics.restore_slots < u64::MAX,
        "the recovered network never climbed back to the pre-failure rate"
    );
    assert!(scheduled.metrics.in_flight_at_failure > 0);
    assert!(scheduled.metrics.delivered > 0);

    let mut reference: Option<String> = None;
    for threads in [1, 2, 8, 64] {
        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut jsonl).unwrap();
        let output = String::from_utf8(jsonl.into_inner()).unwrap();
        let mut lines = output.lines();
        let static_line = lines.next().unwrap();
        let scheduled_line = lines.next().unwrap();
        assert!(static_line.contains("\"fault_schedule\":\"none\""));
        assert!(static_line.contains("\"restore_slots\":null"));
        assert!(scheduled_line.contains("\"fault_schedule\":\"fail(node 1)@100; recover@220\""));
        assert!(scheduled_line.contains("\"fault_events\":2"));
        assert!(!scheduled_line.contains("\"restore_slots\":null"));
        match &reference {
            None => reference = Some(output),
            Some(expected) => assert_eq!(
                &output, expected,
                "restoration output drifted at {threads} threads"
            ),
        }
    }
}
