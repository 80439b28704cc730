//! Regression tests for the prepare/execute simulation split.
//!
//! The contract under test: reusing one prepared kernel per
//! `(spec, fault-pattern)` pair — which is what the scenario engine's cache
//! does — produces `SimMetrics` byte-identical to constructing the
//! simulator fresh for every cell, for both simulator families, at any
//! thread count, with and without faults.

use otis_lightwave::net::{
    run_grid, run_grid_streaming, CollectSink, DemandSpec, FaultSet, Network, NetworkSpec,
    ScenarioGrid, SimOptions,
};
use otis_lightwave::routing::node_fault_patterns_up_to;
use otis_lightwave::sim::{
    PreparedHotPotato, PreparedMultiOps, SimMetrics, SlotScratch, TrafficPattern,
};
use otis_lightwave::topologies::{de_bruijn, StackKautz};
use std::sync::Arc;

/// The old per-cell behaviour, reproduced by hand: build the simulator —
/// graph copy, routing tables, everything — from scratch for one cell.
fn fresh_cell_metrics(
    spec: &NetworkSpec,
    workload: &DemandSpec,
    options: &SimOptions,
) -> SimMetrics {
    let network = Network::new(*spec).unwrap();
    let mut demand = workload
        .bind(network.node_count())
        .unwrap()
        .source()
        .unwrap();
    let mut scratch = SlotScratch::new();
    match *spec {
        NetworkSpec::DeBruijn { d, k } => PreparedHotPotato::new(
            Arc::new(de_bruijn(d, k)),
            options.faults.clone(),
        )
        .run(&[], &mut demand, options, &mut scratch),
        NetworkSpec::StackKautz { s, d, k } => PreparedMultiOps::new(
            Arc::new(StackKautz::new(s, d, k).stack_graph().clone()),
            options.faults.clone(),
            1,
        )
        .run(&[], &mut demand, options, &mut scratch),
        _ => network.simulate(workload, options).unwrap(),
    }
}

/// One grid covering both simulator families with a fault sweep: SK(2,2,2)
/// exercises the multi-OPS kernel (fault ids are quotient groups, 0..6),
/// DB(2,3) the hot-potato kernel (fault ids are processors, 0..8).
fn mixed_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "DB(2,3)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let workloads: Vec<DemandSpec> = ["uniform(0.4)", "perm(0.6,5)"]
        .iter()
        .map(|w| w.parse().unwrap())
        .collect();
    ScenarioGrid::new(specs)
        .workloads(workloads)
        .seeds(&[3, 17])
        .fault_sets(node_fault_patterns_up_to(6, 1))
        .slots(150)
}

#[test]
fn cached_kernels_match_fresh_per_cell_construction_at_any_thread_count() {
    let grid = mixed_grid();
    assert_eq!(grid.cell_count(), 2 * 2 * 2 * 7);

    // The old behaviour: every cell builds its own simulator, serially, in
    // grid order (workloads, then specs, then seeds, then fault sets).
    let mut fresh = Vec::new();
    for workload in &grid.workloads {
        for spec in &grid.specs {
            for &seed in &grid.seeds {
                for faults in &grid.fault_sets {
                    let options = SimOptions {
                        seed,
                        faults: faults.clone(),
                        ..grid.options.clone()
                    };
                    fresh.push(fresh_cell_metrics(spec, workload, &options));
                }
            }
        }
    }

    // The engine path: kernels cached per (spec, fault-pattern), cells
    // sharing them across seeds, workloads and worker threads.
    for threads in [1usize, 2, 64] {
        let mut sink = CollectSink::new();
        let summary = run_grid_streaming(&grid, threads, &mut sink).unwrap();
        let rows = sink.into_rows();
        assert_eq!(rows.len(), fresh.len());
        // Each distinct (spec, fault-pattern) pair was prepared exactly
        // once: one intact and six faulted kernels per spec, 2 × 7 pairs
        // in total.
        assert_eq!(summary.kernels_built, 2, "{threads} threads");
        assert_eq!(summary.kernels_repaired, 12, "{threads} threads");
        for (row, expected) in rows.iter().zip(&fresh) {
            assert_eq!(
                &row.metrics,
                expected,
                "{} / {} / seed {} / faults {:?} diverged at {threads} threads",
                row.spec,
                row.traffic,
                row.seed,
                row.faults.sorted_nodes()
            );
        }
    }
}

#[test]
fn facade_simulate_is_prepare_then_run() {
    // Network::simulate must stay byte-identical to an explicit
    // prepare-then-run, for every family and with faults installed.
    for spec in [
        "KG(2,3)",
        "II(3,12)",
        "DB(2,4)",
        "K(5)",
        "POPS(3,4)",
        "SK(2,2,2)",
        "SII(2,2,5)",
    ] {
        let network = Network::from_spec(spec).unwrap();
        for faults in [FaultSet::new(), FaultSet::from_nodes([0])] {
            let options = SimOptions::new(200, 9).with_faults(faults.clone());
            let kernel = network.prepare_with_alternates(&faults, 1);
            let uniform = TrafficPattern::Uniform { load: 0.3 };
            let direct = network
                .simulate(&DemandSpec::Pattern(uniform.clone()), &options)
                .unwrap();
            let via_kernel =
                kernel.run_with_timeline_scratch(None, &uniform, &options, &mut SlotScratch::new());
            assert_eq!(direct, via_kernel, "{spec} with faults {faults:?}");
        }
    }
}

#[test]
fn kernel_reuse_across_seed_sweep_matches_run_grid() {
    // Sweeping seeds over one prepared kernel by hand gives exactly the
    // rows run_grid produces for a one-spec, one-workload, one-fault grid.
    let spec: NetworkSpec = "SK(2,2,2)".parse().unwrap();
    let faults = FaultSet::from_nodes([2]);
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let grid = ScenarioGrid::new(vec![spec])
        .loads(&[0.5])
        .seeds(&seeds)
        .fault_sets(vec![faults.clone()])
        .slots(120);
    let rows = run_grid(&grid, 4).unwrap();

    let network = Network::new(spec).unwrap();
    let kernel = network.prepare_with_alternates(&faults, 1);
    let pattern = TrafficPattern::Uniform { load: 0.5 };
    let mut scratch = SlotScratch::new();
    for (row, &seed) in rows.iter().zip(&seeds) {
        let options = SimOptions {
            seed,
            faults: faults.clone(),
            ..grid.options.clone()
        };
        let metrics = kernel.run_with_timeline_scratch(None, &pattern, &options, &mut scratch);
        assert_eq!(row.metrics, metrics, "seed {seed}");
    }
}
