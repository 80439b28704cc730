//! Golden pins of the two non-legacy output tiers.
//!
//! `tests/golden/grid_small.*` pins the legacy schema.  A grid that turns
//! the wavelength layer on streams the extended schema (blocking,
//! wavelength utilisation, alternate-route rate, cost per delivered bit),
//! and a grid with a non-empty fault schedule streams the restoration
//! schema.  Each tier is pinned here in all three formats, over both
//! simulator families, byte for byte at 1, 2, 8 and 64 threads.
//!
//! `tests/golden/grid_large.csv` pins hot-potato kernels whose distance
//! tables are large enough for the slot loop to prefetch table lines.

use otis_lightwave::net::{
    run_grid_streaming, CsvSink, FaultSet, JsonLinesSink, NetworkSpec, RowSink, ScenarioGrid,
    TableSink,
};

fn small_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "POPS(3,4)", "DB(2,4)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    ScenarioGrid::new(specs).loads(&[0.2, 0.6]).slots(120)
}

fn wavelength_grid() -> ScenarioGrid {
    small_grid().wavelengths(&[1, 2]).alt_paths(2)
}

fn restoration_grid() -> ScenarioGrid {
    small_grid().fault_schedules(vec![
        "none".parse().unwrap(),
        "fail(node 1)@40; recover@90".parse().unwrap(),
    ])
}

fn render<S: RowSink>(grid: &ScenarioGrid, threads: usize, mut sink: S) -> S {
    run_grid_streaming(grid, threads, &mut sink).unwrap();
    sink
}

/// Streams `grid` through every sink at every thread count and compares
/// each output with `tests/golden/<name>.{table,csv,jsonl}`.
fn assert_matches_goldens(grid: &ScenarioGrid, name: &str, goldens: [&str; 3]) {
    let [table, csv, jsonl] = goldens;
    for threads in [1, 2, 8, 64] {
        let out = render(grid, threads, TableSink::new(Vec::new())).into_inner();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            table,
            "{name}.table drifted at {threads} threads"
        );
        let out = render(grid, threads, CsvSink::new(Vec::new())).into_inner();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            csv,
            "{name}.csv drifted at {threads} threads"
        );
        let out = render(grid, threads, JsonLinesSink::new(Vec::new())).into_inner();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            jsonl,
            "{name}.jsonl drifted at {threads} threads"
        );
    }
}

#[test]
fn wavelength_tier_matches_the_goldens_at_1_2_8_and_64_threads() {
    let grid = wavelength_grid();
    assert!(grid.wavelength_layer_enabled() && !grid.fault_schedule_enabled());
    assert_matches_goldens(
        &grid,
        "grid_wavelength",
        [
            include_str!("golden/grid_wavelength.table"),
            include_str!("golden/grid_wavelength.csv"),
            include_str!("golden/grid_wavelength.jsonl"),
        ],
    );
}

#[test]
fn restoration_tier_matches_the_goldens_at_1_2_8_and_64_threads() {
    let grid = restoration_grid();
    assert!(grid.fault_schedule_enabled() && !grid.wavelength_layer_enabled());
    assert_matches_goldens(
        &grid,
        "grid_restoration",
        [
            include_str!("golden/grid_restoration.table"),
            include_str!("golden/grid_restoration.csv"),
            include_str!("golden/grid_restoration.jsonl"),
        ],
    );
}

/// DB(2,11) and KG(2,10) × faults `{}`, `{0}`, `{0,1}` × W 1 and 2, at 64
/// slots: static, faulted and multiplexed cells on tables above the
/// prefetch size rule.
fn large_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = ["DB(2,11)", "KG(2,10)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    ScenarioGrid::new(specs)
        .loads(&[0.3])
        .seeds(&[42])
        .fault_sets(vec![
            FaultSet::new(),
            FaultSet::from_nodes([0]),
            FaultSet::from_nodes([0, 1]),
        ])
        .wavelengths(&[1, 2])
        .slots(64)
}

/// One DB(2,11) cell that swaps kernels mid-run.
fn large_timeline_grid() -> ScenarioGrid {
    let spec: NetworkSpec = "DB(2,11)".parse().unwrap();
    ScenarioGrid::new(vec![spec])
        .loads(&[0.3])
        .seeds(&[42])
        .fault_schedules(vec!["fail(node 7)@20; recover@40".parse().unwrap()])
        .slots(64)
}

#[test]
fn large_table_hot_potato_matches_the_golden_at_1_2_and_8_threads() {
    let golden = include_str!("golden/grid_large.csv");
    for threads in [1, 2, 8] {
        let mut out = render(&large_grid(), threads, CsvSink::new(Vec::new())).into_inner();
        out.extend(render(&large_timeline_grid(), threads, CsvSink::new(Vec::new())).into_inner());
        assert_eq!(
            String::from_utf8(out).unwrap(),
            golden,
            "grid_large.csv drifted at {threads} threads"
        );
    }
}
