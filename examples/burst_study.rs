//! Burstiness study of the demand subsystem: what does traffic *shape* cost
//! when the mean rate is held fixed?
//!
//! The paper's throughput/latency comparisons (§2.4–2.5) drive the networks
//! with stationary patterns — every slot looks like every other.  Real
//! demand is bursty: sources alternate between silent stretches and dense
//! trains of back-to-back injections.  This study runs the paper's
//! multi-hop stack-Kautz design `SK(6,3,2)` and the single-OPS de Bruijn
//! baseline `DB(2,8)` under two demand processes with the *same* expected
//! injections per processor per slot:
//!
//! * `poisson(r)` — memoryless arrivals, the smoothest possible demand;
//! * `onoff(r', 16, 48)` — each source cycles through a 16-slot burst and a
//!   48-slot silence, with `r'` chosen so the per-slot mean matches the
//!   Poisson run exactly (the burst-phase rate is ~4x hotter).
//!
//! Matched means isolate burstiness itself: any throughput or latency gap
//! between the two columns is the price of demand concentration, not of
//! extra load.
//!
//! ```text
//! cargo run --release --example burst_study
//! ```

use otis_lightwave::net::{
    default_thread_count, run_grid, DemandSpec, NetworkSpec, ScenarioGrid, ScenarioRow,
};
use otis_lightwave::sim::matched_burst_rate;

const SPECS: [&str; 2] = ["SK(6,3,2)", "DB(2,8)"];
const MEAN_RATE: f64 = 0.25;
const BURST_LEN: u64 = 16;
const IDLE_LEN: u64 = 48;

fn main() {
    let poisson = DemandSpec::Poisson {
        rate: MEAN_RATE,
        dst: None,
    };
    // The library's calibration helper computes the burst-phase rate whose
    // long-run mean matches `poisson(MEAN_RATE)` exactly; rounding keeps
    // the spec string readable, and the means then still match to ~1e-5 —
    // far below what 1600 slots can resolve.
    let on_rate = (matched_burst_rate(MEAN_RATE, BURST_LEN, IDLE_LEN) * 1e4).round() / 1e4;
    let onoff = DemandSpec::OnOff {
        rate: on_rate,
        burst_len: BURST_LEN,
        idle_len: IDLE_LEN,
    };
    assert!(
        (poisson.offered_load() - onoff.offered_load()).abs() < 1e-4,
        "the two processes must offer the same mean load"
    );

    let specs: Vec<NetworkSpec> = SPECS.iter().map(|s| s.parse().unwrap()).collect();
    let grid = ScenarioGrid::new(specs)
        .workloads(vec![poisson.clone(), onoff.clone()])
        .seeds(&[2026])
        .slots(1600);
    let rows = run_grid(&grid, default_thread_count()).expect("the grid is valid");

    println!(
        "Burstiness at matched mean rate: {poisson} vs {onoff}\n\
         (both offer {:.4} messages/processor/slot; the on/off source is\n\
         ~{:.1}x hotter during its {BURST_LEN}-slot bursts, silent for {IDLE_LEN})\n",
        poisson.offered_load(),
        (BURST_LEN + IDLE_LEN) as f64 / BURST_LEN as f64,
    );
    println!(
        "  {:>9}  {:<20}  {:>9}  {:>9}  {:>8}  {:>8}",
        "spec", "demand", "delivered", "thruput", "latency", "maxhops"
    );
    // Grid order: workload is outer, spec is inner.
    for row in &rows {
        print_row(row);
    }

    let price = |spec: usize| {
        let smooth = rows[spec].metrics.throughput();
        let bursty = rows[SPECS.len() + spec].metrics.throughput();
        100.0 * (smooth - bursty) / smooth
    };
    println!();
    for (i, spec) in SPECS.iter().enumerate() {
        println!(
            "  {spec}: bursts cost {:.2}% of smooth-demand throughput",
            price(i)
        );
    }
}

fn print_row(row: &ScenarioRow) {
    let m = &row.metrics;
    println!(
        "  {:>9}  {:<20}  {:>9}  {:>9.4}  {:>8.2}  {:>8}",
        row.spec.to_string(),
        row.traffic.to_string(),
        m.delivered,
        m.throughput(),
        m.average_latency(),
        m.max_hops,
    );
}
