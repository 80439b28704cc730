//! Restoration study of the fault-timeline subsystem: what does a single
//! coupler failure mid-run cost the paper's multi-hop stack-Kautz design
//! `SK(6,3,2)` and the single-OPS de Bruijn baseline `DB(2,8)`, and how
//! much of that cost do prepared alternate routes buy back?
//!
//! The scenario engine sweeps fault schedules as a first-class grid axis:
//! the same traffic (same seed, same pattern) runs once on the intact
//! network and once against the timeline `fail(node 3)@300; recover@500`,
//! which re-derives the routing kernel at slot 300, strands the
//! in-flight messages the dead coupler held, and swaps the fault-free
//! kernel back in at slot 500.  The restoration columns then tell the
//! story: how many flights the failure caught, how many it killed, how
//! long the network took to climb back to 95% of its pre-failure delivery
//! rate, and the worst latency the outage produced.
//!
//! ```text
//! cargo run --release --example restoration_study
//! ```

use otis_lightwave::net::{
    default_thread_count, run_grid, FaultSchedule, NetworkSpec, ScenarioGrid, ScenarioRow,
};

const SPECS: [&str; 2] = ["SK(6,3,2)", "DB(2,8)"];
const SCHEDULE: &str = "fail(node 3)@300; recover@500";

/// Formats a slot count that may be the "never restored" sentinel.
fn restore_cell(slots: u64) -> String {
    if slots == u64::MAX {
        format!("{:>8}", "never")
    } else {
        format!("{slots:>8}")
    }
}

/// Runs the two-spec grid at the given alternate-route budget and returns
/// `(static, scheduled)` rows per spec, in spec order.
fn study(alt_paths: usize) -> Vec<(ScenarioRow, ScenarioRow)> {
    let specs: Vec<NetworkSpec> = SPECS.iter().map(|s| s.parse().unwrap()).collect();
    let schedules: Vec<FaultSchedule> = ["none", SCHEDULE]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let grid = ScenarioGrid::new(specs)
        .loads(&[0.7])
        .seeds(&[2026])
        .slots(900)
        .alt_paths(alt_paths)
        .fault_schedules(schedules);
    let mut rows = run_grid(&grid, default_thread_count())
        .expect("the grid is valid")
        .into_iter();
    // Grid order: schedule is outer, spec is inner — the first two rows are
    // the static runs, the next two the scheduled ones.
    let static_rows: Vec<ScenarioRow> = rows.by_ref().take(SPECS.len()).collect();
    let scheduled: Vec<ScenarioRow> = rows.collect();
    static_rows.into_iter().zip(scheduled).collect()
}

fn main() {
    println!("Single coupler failure mid-run: {SCHEDULE}, uniform(0.7), 900 slots.");
    println!("Fault id 3 names a quotient group (an OPS coupler) on SK(6,3,2) and a");
    println!("processor on DB(2,8); the kernel is re-derived at each event slot.");

    for alt_paths in [1usize, 3] {
        println!();
        if alt_paths == 1 {
            println!("Primary routes only (alt_paths = 1):");
        } else {
            println!("With prepared alternates (alt_paths = {alt_paths}, multi-OPS only):");
        }
        println!(
            "  {:>9}  {:>9}  {:>8}  {:>8}  {:>8}  {:>8}  {:>9}",
            "spec", "delivered", "inflight", "faildrop", "restore", "peak_lat", "vs intact"
        );
        for (intact, faulted) in study(alt_paths) {
            let m = &faulted.metrics;
            println!(
                "  {:>9}  {:>9}  {:>8}  {:>8}  {}  {:>8}  {:>8.2}%",
                faulted.spec.to_string(),
                m.delivered,
                m.in_flight_at_failure,
                m.dropped_by_failure,
                restore_cell(m.restore_slots),
                m.post_failure_latency_peak,
                100.0 * m.delivered as f64 / intact.metrics.delivered as f64,
            );
        }
    }

    println!();
    println!("Reading the table:");
    println!("  - the failure catches every message the dead coupler held or was about");
    println!("    to serve (`inflight`); the ones no surviving route can rescue are");
    println!("    stranded (`faildrop`), counted apart from congestion drops;");
    println!("  - `restore` is how many slots after the recovery event the per-slot");
    println!("    delivery rate climbed back to 95% of its pre-failure baseline;");
    println!("  - DB(2,8) routes around the dead processor by deflection alone, so its");
    println!("    alternate-route column is identical in both tables — the knob only");
    println!("    changes the multi-OPS stack-Kautz network, where prepared alternates");
    println!("    keep traffic moving through the outage and speed up restoration.");
}
