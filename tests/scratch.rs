//! Acceptance tests of the per-worker scratch pool ([`SlotScratch`]),
//! driven through the umbrella crate the way downstream users see it.
//!
//! Three bars are pinned here:
//!
//! 1. **Reuse-vs-fresh byte-identity.**  One pool carried across a
//!    heterogeneous cell sequence — both simulator families, static
//!    faults, a mid-run fault schedule, a wavelength axis — produces
//!    metrics *identical* to giving every run a fresh pool.  Reuse is an
//!    allocation optimization, never a semantic.
//! 2. **The engine actually reuses.**  Each grid worker owns one pool for
//!    its lifetime; [`StreamSummary::scratch_reuses`] is pinned exactly at
//!    one thread (`rows − 1`) and bounded at higher thread counts, on a
//!    mixed grid whose rows are thread-count independent.
//! 3. **High-water-mark non-regression.**  A reused arena hands out
//!    exactly the slots a fresh one would (`arena_capacity()` matches the
//!    fresh run, cell for cell) — reuse never inflates the handle
//!    sequence, and a light run after a heavy one does not regrow the
//!    heavy peak.
//!
//! [`SlotScratch`]: otis_lightwave::sim::SlotScratch
//! [`StreamSummary::scratch_reuses`]: otis_lightwave::net::StreamSummary

use otis_lightwave::net::{
    run_grid, run_grid_streaming, CollectSink, FaultSchedule, FaultSet, Network, NetworkSpec,
    PreparedSim, PreparedTimeline, ScenarioGrid, SimOptions, WavelengthConfig,
};
use otis_lightwave::sim::{SimMetrics, SlotScratch, TrafficPattern};

/// One kernel-level cell: a prepared kernel, an optional fault timeline,
/// and the run-scoped inputs.
struct Cell {
    kernel: PreparedSim,
    timeline: Option<PreparedTimeline>,
    traffic: TrafficPattern,
    options: SimOptions,
}

impl Cell {
    fn run(&self, scratch: &mut SlotScratch) -> SimMetrics {
        self.kernel.run_with_timeline_scratch(
            self.timeline.as_ref(),
            &self.traffic,
            &self.options,
            scratch,
        )
    }
}

/// A heterogeneous cell sequence covering every code path the pool must
/// survive between: hot-potato and multi-OPS kernels, an intact and a
/// faulted network, a mid-run kernel swap, and a wavelength-mode run.
fn mixed_cells() -> Vec<Cell> {
    let db = Network::from_spec("DB(2,5)").unwrap();
    let sk = Network::from_spec("SK(2,2,2)").unwrap();
    let mut faults = FaultSet::new();
    faults.fail_node(1);

    let db_base = db.prepare_with_alternates(&FaultSet::new(), 1);
    let sk_base = sk.prepare_with_alternates(&FaultSet::new(), 2);
    let schedule: FaultSchedule = "fail(node 2)@10; recover@60".parse().unwrap();

    let wavelengths2 = WavelengthConfig {
        count: 2,
        ..Default::default()
    };
    vec![
        // Hot-potato, intact, heavy load: the arena high-water mark.
        Cell {
            kernel: db_base.clone(),
            timeline: None,
            traffic: TrafficPattern::Uniform { load: 0.6 },
            options: SimOptions::new(150, 7),
        },
        // Multi-OPS with alternates, statically faulted.
        Cell {
            kernel: sk.prepare_with_alternates(&faults, 2),
            timeline: None,
            traffic: TrafficPattern::Uniform { load: 0.5 },
            options: SimOptions::new(120, 11).with_faults(faults.clone()),
        },
        // Hot-potato under a mid-run fail/recover timeline.
        Cell {
            kernel: db_base.clone(),
            timeline: Some(db_base.timeline_of(&schedule).unwrap()),
            traffic: TrafficPattern::Uniform { load: 0.3 },
            options: SimOptions::new(120, 13),
        },
        // Multi-OPS under the same schedule, in wavelength mode.
        Cell {
            kernel: sk_base.clone(),
            timeline: Some(sk_base.timeline_of(&schedule).unwrap()),
            traffic: TrafficPattern::Uniform { load: 0.4 },
            options: SimOptions {
                wavelengths: wavelengths2,
                alt_paths: 2,
                ..SimOptions::new(120, 17)
            },
        },
        // Hot-potato again, light load: must not disturb (or be disturbed
        // by) the state the heavy runs left behind.
        Cell {
            kernel: db_base,
            timeline: None,
            traffic: TrafficPattern::Uniform { load: 0.1 },
            options: SimOptions::new(60, 19),
        },
    ]
}

#[test]
fn reused_scratch_is_byte_identical_to_fresh_across_mixed_cells() {
    let cells = mixed_cells();

    // Reference: every cell on its own fresh pool.
    let fresh: Vec<(SimMetrics, usize)> = cells
        .iter()
        .map(|cell| {
            let mut scratch = SlotScratch::new();
            let metrics = cell.run(&mut scratch);
            (metrics, scratch.arena_capacity())
        })
        .collect();

    // One pool across the whole sequence, twice over — the second pass
    // starts from the dirtiest possible state.
    let mut scratch = SlotScratch::new();
    for pass in 0..2 {
        for (i, cell) in cells.iter().enumerate() {
            let metrics = cell.run(&mut scratch);
            assert_eq!(
                metrics, fresh[i].0,
                "reused scratch diverged from fresh on cell {i} (pass {pass})"
            );
            // The reused arena handed out exactly the slots a fresh one
            // would: reuse keeps allocations, never the handle sequence.
            assert_eq!(
                scratch.arena_capacity(),
                fresh[i].1,
                "arena high-water mark drifted on cell {i} (pass {pass})"
            );
        }
    }

    // The heavy opening cell dominates the light closing cell — the
    // capacity match above really exercises shrink-back, not a constant.
    assert!(
        fresh[0].1 > fresh[4].1,
        "the heavy cell must out-populate the light one ({} vs {})",
        fresh[0].1,
        fresh[4].1
    );
}

/// A grid crossing both families with faults, a schedule and a wavelength
/// axis: 2 specs × 2 loads × 2 seeds × 2 fault sets × 2 schedules × 2
/// wavelength counts = 64 cells.
fn mixed_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "DB(2,5)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let mut faults = FaultSet::new();
    faults.fail_node(1);
    ScenarioGrid::new(specs)
        .loads(&[0.2, 0.5])
        .seeds(&[7, 11])
        .slots(80)
        .fault_sets(vec![FaultSet::new(), faults])
        .fault_schedules(vec![
            FaultSchedule::empty(),
            "fail(node 2)@10; recover@50".parse().unwrap(),
        ])
        .wavelengths(&[1, 2])
        .alt_paths(2)
}

#[test]
fn engine_reuses_worker_scratch_and_rows_stay_thread_count_independent() {
    let grid = mixed_grid();
    let rows = grid.cell_count();
    assert_eq!(rows, 64);

    let reference = run_grid(&grid, 1).unwrap();
    for threads in [1usize, 2, 64] {
        let mut sink = CollectSink::new();
        let summary = run_grid_streaming(&grid, threads, &mut sink).unwrap();
        assert_eq!(
            sink.into_rows(),
            reference,
            "rows diverged at {threads} threads"
        );
        assert_eq!(summary.rows, rows);
        if threads == 1 {
            // One worker runs every cell on one pool: all but the first
            // cell are reuses, exactly.
            assert_eq!(summary.scratch_reuses, rows - 1);
        } else {
            // Each worker that ran at least one cell contributes its cell
            // count minus one.
            assert!(
                summary.scratch_reuses >= rows.saturating_sub(threads),
                "{} reuses at {threads} threads",
                summary.scratch_reuses
            );
            assert!(summary.scratch_reuses < rows);
        }
    }
}
