//! Golden pin of the queued multi-OPS discipline under overload.
//!
//! `tests/golden/grid_small.*` only covers light load (0.2/0.6 over 120
//! slots), where coupler queues stay short.  This grid pushes SK and POPS
//! past their coupler capacity so the queues grow for the whole run, and a
//! mid-run group failure and recovery exercises the kernel-swap drain of
//! every queued message.  Every arbitration policy and both a limited and
//! an unlimited `queue_limit` are covered; the rows must be byte-identical
//! to `tests/golden/queued_overload.csv` at 1, 2 and 8 threads.

use otis_lightwave::net::{run_grid_streaming, CsvSink, DemandSpec, NetworkSpec, ScenarioGrid};
use otis_lightwave::sim::ArbitrationPolicy;

const POLICIES: [ArbitrationPolicy; 3] = [
    ArbitrationPolicy::OldestFirst,
    ArbitrationPolicy::RoundRobin,
    ArbitrationPolicy::Random,
];

const QUEUE_LIMITS: [usize; 2] = [0, 4];

/// Three overloaded multi-OPS networks × three workloads × a static and a
/// fail/recover schedule, 600 slots, under one policy and queue limit.
fn overload_grid(policy: ArbitrationPolicy, queue_limit: usize) -> ScenarioGrid {
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
    grid.options.policy = policy;
    grid.options.queue_limit = queue_limit;
    grid
}

/// The whole golden: one CSV whose rows carry the policy and queue limit
/// as two leading columns, in `POLICIES` × `QUEUE_LIMITS` order.
fn render(threads: usize) -> String {
    let mut out = String::new();
    for policy in POLICIES {
        for queue_limit in QUEUE_LIMITS {
            let mut csv = CsvSink::new(Vec::new());
            run_grid_streaming(&overload_grid(policy, queue_limit), threads, &mut csv).unwrap();
            let text = String::from_utf8(csv.into_inner()).unwrap();
            let mut lines = text.lines();
            let header = lines.next().expect("CSV sinks write a header");
            if out.is_empty() {
                out.push_str(&format!("policy,queue_limit,{header}\n"));
            }
            for row in lines {
                out.push_str(&format!("{policy:?},{queue_limit},{row}\n"));
            }
        }
    }
    out
}

#[test]
fn overloaded_queued_grids_match_the_golden_at_1_2_and_8_threads() {
    let golden = include_str!("golden/queued_overload.csv");
    // 3 policies × 2 queue limits × 18 cells, plus the header.
    assert_eq!(golden.lines().count(), 1 + 3 * 2 * 18);
    for threads in [1, 2, 8] {
        assert_eq!(
            render(threads),
            golden,
            "queued overload rows drifted from the golden at {threads} threads"
        );
    }
}
