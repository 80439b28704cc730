//! Head-to-head simulation of the three network styles the paper discusses:
//! the single-hop multi-OPS POPS, the multi-hop multi-OPS stack-Kautz, and a
//! single-OPS point-to-point de Bruijn network with hot-potato routing.
//!
//! With the `Network` facade the scenario is *data*: edit the spec list or
//! the load list below and the whole comparison follows.  Execution runs on
//! the parallel scenario engine (`otis_net::engine`), which also powers the
//! load/latency frontier scan and the fault-injection sweep shown after the
//! main table — results are identical at any worker-thread count.
//!
//! ```text
//! cargo run --release --example network_comparison
//! ```

use otis_lightwave::net::{
    compare_spec_strs, default_thread_count, frontier_scan, run_grid, run_grid_streaming,
    saturation_point, ComparisonRow, DemandSpec, FaultSet, JsonLinesSink, NetworkSpec,
    ScenarioGrid, ScenarioRow,
};

fn main() {
    // Size-matched trio: 24 processors each (DB(2,5) has 32, the closest
    // power of two), equal degree between SK and DB.
    let specs = ["SK(4,2,2)", "POPS(4,6)", "DB(2,5)"];
    let loads = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
    println!("Uniform traffic, 2000 slots per point, OldestFirst arbitration.");
    println!("{}", ComparisonRow::table_header());
    let rows = compare_spec_strs(&specs, &loads, 2000, 2024).expect("specs are valid");
    for row in rows {
        println!("{}", row.as_table_row());
    }
    println!();
    println!("Reading the table:");
    println!("  - POPS keeps ~1 hop / ~1 slot latency at light load but its accepted throughput");
    println!("    flattens once its g² couplers saturate;");
    println!("  - the stack-Kautz pays up to k hops but keeps accepting traffic longer because");
    println!("    each processor contends on fewer, less-shared couplers;");
    println!("  - the hot-potato single-OPS baseline inflates hop counts (deflections) as load");
    println!("    grows, which is exactly the behaviour the multi-OPS designs avoid.");

    // The same engine traces each network's load/latency frontier and finds
    // where it saturates (first point within 95% of peak throughput).
    let parsed: Vec<NetworkSpec> = specs.iter().map(|s| s.parse().unwrap()).collect();
    let points = frontier_scan(&parsed, &loads, 2000, 2024).expect("specs are valid");
    println!();
    println!("Load/latency frontier (saturation = first point within 95% of peak throughput,");
    println!("confirmed by at least one probe beyond it):");
    for (i, spec) in parsed.iter().enumerate() {
        let frontier = &points[i * loads.len()..(i + 1) * loads.len()];
        match saturation_point(frontier) {
            Some(sat) => println!(
                "  {spec}: saturates near load {:.2} at throughput {:.4} ({:.2} slots latency)",
                sat.offered_load, sat.throughput, sat.average_latency
            ),
            // POPS(4,6) lands here: its throughput is still climbing at the
            // last probed load, so the scan has no plateau evidence — the
            // honest answer, rather than blaming the end of the probe range.
            None => println!(
                "  {spec}: still climbing at load {:.2} — no saturation within the probed range",
                loads.last().copied().unwrap_or(f64::NAN)
            ),
        }
    }

    // Fault-injection sweep (§2.5 at system level): fail one quotient group
    // of the stack-Kautz — within its d − 1 survivability bound — and watch
    // the network route around it while delivered paths stay <= k + 2 hops.
    let grid = ScenarioGrid::new(vec!["SK(4,2,2)".parse().unwrap()])
        .loads(&[0.2])
        .seeds(&[2024])
        .fault_sets(vec![FaultSet::new(), FaultSet::from_nodes([0])])
        .slots(2000);
    let rows = run_grid(&grid, default_thread_count()).expect("specs are valid");
    println!();
    println!("Fault sweep on SK(4,2,2) (group 0 failed vs intact, bound k+2 = 4):");
    println!("{}", ScenarioRow::table_header());
    for row in &rows {
        println!("{}", row.as_table_row());
    }

    // The workload axis is first-class: adversarial demand matrices sweep
    // exactly like loads.  DB(2,5) has 32 = 2^5 processors, so bit-reversal
    // — the classic worst case for shuffle-like networks — binds to it.
    let workloads: Vec<DemandSpec> = ["uniform(0.5)", "perm(0.5,7)", "bitrev(0.5)"]
        .iter()
        .map(|w| w.parse().expect("workload specs are valid"))
        .collect();
    let grid = ScenarioGrid::new(vec!["DB(2,5)".parse().unwrap()])
        .workloads(workloads)
        .seeds(&[2024])
        .slots(2000);
    let rows = run_grid(&grid, default_thread_count()).expect("workloads bind to DB(2,5)");
    println!();
    println!("Workload axis on DB(2,5): equal load, very different traffic:");
    println!("{}", ScenarioRow::table_header());
    for row in &rows {
        println!("{}", row.as_table_row());
    }
    // Results also *stream*: run_grid_streaming hands rows to a RowSink in
    // grid order while later cells are still running, so machine-readable
    // exports (CSV, JSON Lines) never materialise the grid in memory.
    // Undefined averages become null in JSONL (and empty fields in CSV),
    // never the string "NaN" or "-".
    println!();
    println!("The same rows as JSON Lines (streamed; see also `scenarios --format jsonl`):");
    let mut jsonl = JsonLinesSink::new(std::io::stdout().lock());
    let summary =
        run_grid_streaming(&grid, default_thread_count(), &mut jsonl).expect("grid streams");
    println!(
        "({} rows streamed; peak reorder buffer {} rows)",
        summary.rows, summary.peak_buffered
    );

    println!();
    println!("The same grid is declarable as a config file — see examples/sweep.scn and");
    println!("`scenarios --file examples/sweep.scn` in otis-bench (its `format` and");
    println!("`output` keys pick the result format and destination file).");
}
