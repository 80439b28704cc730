//! Acceptance tests of the wavelength/resource layer, driven through the
//! umbrella crate the way downstream users see it.
//!
//! Two bars are pinned here:
//!
//! 1. **Golden byte-identity.**  With the layer off (`wavelengths = [1]`,
//!    `alt_paths = 1`) the engine streams output *byte-identical* to the
//!    pre-wavelength engine, at 1, 2, 8 and 64 threads, in all three
//!    formats.  The reference files under `tests/golden/` were generated by
//!    the seed binary and are never regenerated — they are the contract.
//! 2. **Blocking-ratio monotonicity.**  More wavelengths never block more:
//!    on a fixed multi-OPS grid the aggregate blocking ratio is
//!    non-increasing in the wavelength count.

use otis_lightwave::net::{
    run_grid, run_grid_streaming, CsvSink, DemandSpec, JsonLinesSink, NetworkSpec, ScenarioGrid,
    ScenarioRow, TableSink, WavelengthAssignment,
};

/// The exact grid the golden files were generated from:
/// `scenarios --specs "SK(2,2,2),POPS(3,4)" --loads "0.2,0.6" --seeds "7,11"
/// --slots 120` on the seed binary.
fn golden_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "POPS(3,4)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    ScenarioGrid::new(specs)
        .loads(&[0.2, 0.6])
        .seeds(&[7, 11])
        .slots(120)
}

#[test]
fn capacity_one_grids_stream_bytes_identical_to_the_seed_goldens() {
    let grid = golden_grid();
    assert!(
        !grid.wavelength_layer_enabled(),
        "the default grid must stay on the legacy capacity-1 path"
    );
    for threads in [1, 2, 8, 64] {
        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut table).unwrap();
        assert_eq!(
            String::from_utf8(table.into_inner()).unwrap(),
            include_str!("golden/grid_small.table"),
            "table output drifted from the seed golden at {threads} threads"
        );

        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut csv).unwrap();
        assert_eq!(
            String::from_utf8(csv.into_inner()).unwrap(),
            include_str!("golden/grid_small.csv"),
            "CSV output drifted from the seed golden at {threads} threads"
        );

        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut jsonl).unwrap();
        assert_eq!(
            String::from_utf8(jsonl.into_inner()).unwrap(),
            include_str!("golden/grid_small.jsonl"),
            "JSONL output drifted from the seed golden at {threads} threads"
        );
    }
}

/// Aggregate blocking ratio of the rows whose cells ran at `wavelengths`.
fn blocking_ratio_at(rows: &[ScenarioRow], wavelengths: usize) -> f64 {
    let (blocked, injected) = rows
        .iter()
        .filter(|row| row.metrics.wavelengths == wavelengths)
        .fold((0u64, 0u64), |(b, i), row| {
            (b + row.metrics.blocked, i + row.metrics.injected)
        });
    assert!(injected > 0, "no cells ran at {wavelengths} wavelengths");
    blocked as f64 / injected as f64
}

#[test]
fn blocking_ratio_is_monotonically_non_increasing_in_wavelength_count() {
    let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "POPS(3,4)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let workloads: Vec<DemandSpec> = ["uniform(0.6)", "uniform(0.9)"]
        .iter()
        .map(|w| w.parse().unwrap())
        .collect();
    let counts = [2usize, 4, 8];
    let grid = ScenarioGrid::new(specs)
        .workloads(workloads)
        .seeds(&[7, 11])
        .slots(400)
        .wavelengths(&counts);
    assert!(grid.wavelength_layer_enabled());

    let rows = run_grid(&grid, 4).unwrap();
    let ratios: Vec<f64> = counts
        .iter()
        .map(|&w| blocking_ratio_at(&rows, w))
        .collect();
    assert!(
        ratios[0] > 0.0,
        "the study is vacuous unless the tightest capacity actually blocks"
    );
    for pair in ratios.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "blocking ratio increased with more wavelengths: {ratios:?}"
        );
    }
}

/// A saturated multi-OPS grid running the random wavelength-assignment
/// discipline: two wavelength counts, two seeds.
fn random_assignment_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = vec!["SK(2,2,2)".parse().unwrap()];
    let mut grid = ScenarioGrid::new(specs)
        .loads(&[0.9])
        .seeds(&[7, 11])
        .slots(300)
        .wavelengths(&[2, 4]);
    grid.options.wavelengths.assignment = WavelengthAssignment::Random;
    grid
}

#[test]
fn random_wavelength_assignment_is_deterministic_per_seed_and_cell() {
    // `Random` draws from the run's seeded RNG stream, so each (seed, cell)
    // pair is a pure function: re-running the grid reproduces every row bit
    // for bit, different seeds genuinely diverge, and the discipline is not
    // first-fit in disguise.
    let grid = random_assignment_grid();
    let first = run_grid(&grid, 2).unwrap();
    let second = run_grid(&grid, 2).unwrap();
    assert_eq!(first.len(), 4);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.metrics, b.metrics,
            "random assignment was not reproducible for seed {} at {} wavelengths",
            a.seed, a.metrics.wavelengths
        );
    }
    assert_ne!(
        first[0].metrics, first[1].metrics,
        "different seeds must drive different RNG streams"
    );

    let mut first_fit = random_assignment_grid();
    first_fit.options.wavelengths.assignment = WavelengthAssignment::FirstFit;
    let baseline = run_grid(&first_fit, 2).unwrap();
    assert!(
        first
            .iter()
            .zip(&baseline)
            .any(|(random, fit)| random.metrics != fit.metrics),
        "random assignment never diverged from first-fit on a saturated grid"
    );
}

#[test]
fn random_wavelength_assignment_is_thread_count_independent() {
    // The RNG stream belongs to the cell, not to the worker that happens to
    // run it: every thread count streams the same bytes.
    let grid = random_assignment_grid();
    let mut reference: Option<String> = None;
    for threads in [1, 2, 8, 64] {
        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut csv).unwrap();
        let output = String::from_utf8(csv.into_inner()).unwrap();
        match &reference {
            None => reference = Some(output),
            Some(expected) => assert_eq!(
                &output, expected,
                "random assignment output drifted at {threads} threads"
            ),
        }
    }
}

#[test]
fn alternate_routing_reroutes_traffic_that_capacity_one_would_block() {
    let specs: Vec<NetworkSpec> = vec!["SK(2,2,2)".parse().unwrap()];
    let base = ScenarioGrid::new(specs.clone())
        .loads(&[0.9])
        .seeds(&[7])
        .slots(400)
        .wavelengths(&[2]);
    let with_alternates = ScenarioGrid::new(specs)
        .loads(&[0.9])
        .seeds(&[7])
        .slots(400)
        .wavelengths(&[2])
        .alt_paths(3);

    let primary_only = run_grid(&base, 1).unwrap();
    let rerouted = run_grid(&with_alternates, 1).unwrap();
    assert_eq!(primary_only.len(), 1);
    assert_eq!(rerouted.len(), 1);
    assert!(
        rerouted[0].metrics.alt_routed > 0,
        "alternate paths were configured but never taken"
    );
    assert!(
        rerouted[0].metrics.blocked <= primary_only[0].metrics.blocked,
        "alternate routing must not block more than primary-only routing \
         ({} > {})",
        rerouted[0].metrics.blocked,
        primary_only[0].metrics.blocked
    );
}
