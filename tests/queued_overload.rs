//! Golden pin of the queued multi-OPS discipline under overload.
//!
//! `tests/golden/grid_small.*` only covers light load (0.2/0.6 over 120
//! slots), where coupler queues stay short.  This grid pushes SK and POPS
//! past their coupler capacity so the queues grow for the whole run, and a
//! mid-run group failure and recovery exercises the kernel-swap drain of
//! every queued message.  The rows must be byte-identical to
//! `tests/golden/queued_overload.csv` at 1, 2 and 8 threads.

use otis_lightwave::net::{run_grid_streaming, CsvSink, DemandSpec, NetworkSpec, ScenarioGrid};

/// Three overloaded multi-OPS networks × three workloads × a static and a
/// fail/recover schedule, 600 slots.
fn overload_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = ["SK(6,3,2)", "SK(4,2,2)", "POPS(4,6)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let workloads: Vec<DemandSpec> = ["uniform(0.9)", "perm(0.5,7)", "hotspot(0.4,0,0.2)"]
        .iter()
        .map(|w| w.parse().unwrap())
        .collect();
    let mut grid = ScenarioGrid::new(specs)
        .workloads(workloads)
        .fault_schedules(vec![
            "none".parse().unwrap(),
            "fail(node 1)@200; recover@400".parse().unwrap(),
        ]);
    grid.options.slots = 600;
    grid
}

/// The grid's CSV at `threads` workers.
fn render(threads: usize) -> String {
    let mut csv = CsvSink::new(Vec::new());
    run_grid_streaming(&overload_grid(), threads, &mut csv).unwrap();
    String::from_utf8(csv.into_inner()).unwrap()
}

#[test]
fn overloaded_queued_grids_match_the_golden_at_1_2_and_8_threads() {
    let golden = include_str!("golden/queued_overload.csv");
    // 18 cells, plus the header.
    assert_eq!(golden.lines().count(), 1 + 18);
    for threads in [1, 2, 8] {
        assert_eq!(
            render(threads),
            golden,
            "queued overload rows drifted from the golden at {threads} threads"
        );
    }
}
