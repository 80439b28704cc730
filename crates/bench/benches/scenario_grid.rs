//! Scenario-engine throughput: cells/second on a representative grid.
//!
//! The grid mirrors the comparison studies of §4 — one network, several
//! workloads, several seeds, the full `d − 1` fault sweep of §2.5 — which
//! is exactly the shape where the engine's prepared-kernel cache pays off:
//! 168 cells share 7 distinct `(spec, fault-pattern)` kernels, so the
//! routing state is materialised 7 times instead of 168 and every cell only
//! pays for its slot loop.  The `fresh_kernel_per_cell` baseline simulates
//! the pre-cache behaviour (prepare + run per cell, serially) for
//! comparison, and `wavelength_sweep` prices the wavelength layer: the same
//! study with the wavelength-count axis swept over `{1, 4, 16}`.
//!
//! The `large_n` group scales the node count three orders of magnitude past
//! the study networks — DB(2,11), 2 048 processors — with a bounded slot
//! count, and reports the size-independent throughput unit of the engine:
//! **node-slots/second** (divide the printed node-slots per iteration by a
//! bench's mean time).  Its three kernel-construction benches price the
//! engine's derivation path against a full rebuild: `base_prepare` and
//! `fresh_faulted_prepare` both pay the from-scratch O(n²) distance-table
//! construction, and `repair_from_base` derives the same faulted kernel
//! from a prebuilt base.  Hot-potato kernels build that table afresh on the
//! surviving subgraph, so the three should cost about the same.  The
//! `*_alternates_sk632` pair does the same for a multi-OPS kernel with Yen
//! alternates: `repair_from_base` builds the faulted group-pair routes
//! afresh over the base's shared stack-graph, so it should cost about what
//! `fresh_alternates_prepare` does.

use criterion::{criterion_group, criterion_main, Criterion};
use otis_net::{
    run_grid, run_grid_streaming, CollectSink, FaultSet, NetworkSpec, ScenarioGrid, SimOptions,
    TrafficSpec,
};
use otis_routing::node_fault_patterns_up_to;
use otis_sim::SlotScratch;
use std::time::Duration;

/// SK(2,2,2) × 3 workloads × 8 seeds × (intact + 6 single-group faults)
/// = 168 cells at 200 slots each.
fn representative_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = vec!["SK(2,2,2)".parse().unwrap()];
    let workloads: Vec<TrafficSpec> = ["uniform(0.3)", "perm(0.5,7)", "hotspot(0.4,0,0.2)"]
        .iter()
        .map(|w| w.parse().unwrap())
        .collect();
    ScenarioGrid::new(specs)
        .workloads(workloads)
        .seeds(&[1, 2, 3, 4, 5, 6, 7, 8])
        .fault_sets(node_fault_patterns_up_to(6, 1))
        .slots(200)
}

fn bench_scenario_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_grid");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));

    let grid = representative_grid();
    let cells = grid.cell_count();
    assert_eq!(cells, 168);

    // The engine path: cached kernels, one worker.  Dividing the reported
    // time by 168 gives seconds/cell; its inverse is cells/second.
    group.bench_function(format!("engine_cached_{cells}cells_1thread"), |b| {
        b.iter(|| run_grid(&grid, 1).unwrap())
    });

    // The same grid across 4 workers (on multi-core hardware this divides
    // wall-clock; results stay byte-identical either way).
    group.bench_function(format!("engine_cached_{cells}cells_4threads"), |b| {
        b.iter(|| run_grid(&grid, 4).unwrap())
    });

    // The wavelength layer's overhead: the same study shape with the
    // wavelength-count axis swept over {1, 4, 16}.  Capacity-1 cells take
    // the legacy slot loop; the others pay for per-coupler spectrum masks
    // and first-fit slot searches.  Comparing per-cell time against the
    // capacity-1 engine benches above bounds the cost of the accounting.
    let blocking_grid = representative_grid().wavelengths(&[1, 4, 16]);
    let blocking_cells = blocking_grid.cell_count();
    assert_eq!(blocking_cells, 504);
    group.bench_function(
        format!("wavelength_sweep_{blocking_cells}cells_4threads"),
        |b| b.iter(|| run_grid(&blocking_grid, 4).unwrap()),
    );

    // Pre-cache baseline: rebuild the routing state for every cell, the way
    // the engine worked before the prepare/execute split.
    group.bench_function(format!("fresh_kernel_per_cell_{cells}cells"), |b| {
        let networks: Vec<otis_net::Network> = grid
            .specs
            .iter()
            .map(|&spec| otis_net::Network::new(spec).unwrap())
            .collect();
        b.iter(|| {
            let mut delivered = 0u64;
            for workload in &grid.workloads {
                for (network, _) in networks.iter().zip(&grid.specs) {
                    let demand = workload.bind(network.node_count()).unwrap();
                    for &seed in &grid.seeds {
                        for faults in &grid.fault_sets {
                            let options = SimOptions {
                                seed,
                                faults: faults.clone(),
                                ..grid.options.clone()
                            };
                            // prepare + run per cell: no reuse.
                            let kernel = network.prepare(&options.faults);
                            let mut source = demand.source().unwrap();
                            let mut scratch = SlotScratch::new();
                            delivered += kernel
                                .run_demand_with_timeline_scratch(
                                    None,
                                    &mut source,
                                    &options,
                                    &mut scratch,
                                )
                                .delivered;
                        }
                    }
                }
            }
            delivered
        })
    });

    group.finish();
}

/// DB(2,11) — 2 048 processors, degree 2 — at a bounded 64 slots:
/// 1 workload × 2 seeds × (intact + 2 single faults) = 6 cells.
fn large_n_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = vec!["DB(2,11)".parse().unwrap()];
    ScenarioGrid::new(specs)
        .loads(&[0.3])
        .seeds(&[1, 2])
        .fault_sets(node_fault_patterns_up_to(2, 1))
        .slots(64)
}

fn bench_large_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("large_n");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    let grid = large_n_grid();
    let cells = grid.cell_count();
    assert_eq!(cells, 6);
    let network = otis_net::Network::new(grid.specs[0]).unwrap();
    let nodes = network.node_count();
    assert_eq!(nodes, 2048);

    // One streaming run up front surfaces the work unit: dividing these
    // node-slots by a bench's mean time gives node-slots/second.
    let mut sink = CollectSink::new();
    let summary = run_grid_streaming(&grid, 4, &mut sink).unwrap();
    eprintln!(
        "# large_n engine benches: {} node-slots per iteration \
         ({cells} cells x {nodes} nodes x {} slots; kernels: {} built + {} repaired)",
        summary.node_slots, grid.options.slots, summary.kernels_built, summary.kernels_repaired,
    );

    // The engine path at scale: one base build, two faulted kernels derived
    // from it, six slot loops over 2 048 nodes each.
    group.bench_function(
        format!("engine_cached_{cells}cells_{nodes}nodes_4threads"),
        |b| b.iter(|| run_grid(&grid, 4).unwrap()),
    );

    // Kernel construction in isolation — the derived-vs-rebuild comparison.
    let single_fault = FaultSet::from_nodes([0]);
    group.bench_function(format!("base_prepare_{nodes}nodes"), |b| {
        b.iter(|| network.prepare(&FaultSet::new()))
    });
    group.bench_function(format!("fresh_faulted_prepare_{nodes}nodes"), |b| {
        b.iter(|| network.prepare(&single_fault))
    });
    group.bench_function(format!("repair_from_base_{nodes}nodes"), |b| {
        let base = network.prepare(&FaultSet::new());
        b.iter(|| base.repair(&single_fault, 1))
    });

    // Yen alternates: a faulted multi-OPS kernel prepared with alternates
    // pays one Yen k-shortest pass per group pair, whether it is prepared
    // from scratch or derived from the fault-free base (proven
    // bit-identical in tests/delta_kernels.rs).
    let sk = otis_net::Network::from_spec("SK(6,3,2)").unwrap();
    let sk_fault = FaultSet::from_nodes([1]);
    group.bench_function("fresh_alternates_prepare_sk632", |b| {
        b.iter(|| sk.prepare_with_alternates(&sk_fault, 3))
    });
    group.bench_function("repair_from_base_alternates_sk632", |b| {
        let base = sk.prepare_with_alternates(&FaultSet::new(), 3);
        b.iter(|| base.repair(&sk_fault, 3))
    });

    group.finish();
}

criterion_group!(benches, bench_scenario_grid, bench_large_n);
criterion_main!(benches);
