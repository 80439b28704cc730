//! End-to-end tests of the streaming result surface: `run_grid_streaming`
//! plus the built-in sinks, driven through the umbrella crate the way
//! downstream users see them.
//!
//! Pins the PR-4 acceptance bar: `run_grid` is a thin wrapper over
//! `run_grid_streaming` + `CollectSink`, streamed byte output is identical
//! at 1/2/64 threads, peak row buffering is bounded by the reorder window,
//! and zero-delivery sentinels are format-aware (`-` in the table, empty in
//! CSV, `null` in JSONL — never `NaN`).

use otis_lightwave::net::{
    reorder_window, run_grid, run_grid_streaming, CollectSink, CsvSink, DemandSpec, JsonLinesSink,
    NetworkSpec, ScenarioGrid, TableSink,
};

/// A mixed-workload grid: 3 specs x 3 workloads x 2 seeds = 18 cells.
fn mixed_grid() -> ScenarioGrid {
    let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "POPS(3,4)", "DB(2,4)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let workloads: Vec<DemandSpec> = ["uniform(0.3)", "perm(0.5,7)", "hotspot(0.4,0,0.2)"]
        .iter()
        .map(|w| w.parse().unwrap())
        .collect();
    ScenarioGrid::new(specs)
        .workloads(workloads)
        .seeds(&[3, 11])
        .slots(120)
}

#[test]
fn run_grid_equals_streaming_into_a_collect_sink() {
    let grid = mixed_grid();
    let wrapped = run_grid(&grid, 4).unwrap();
    let mut sink = CollectSink::new();
    let summary = run_grid_streaming(&grid, 4, &mut sink).unwrap();
    assert_eq!(summary.rows, grid.cell_count());
    assert!(
        summary.peak_buffered <= reorder_window(4),
        "peak {} exceeds window {}",
        summary.peak_buffered,
        reorder_window(4)
    );
    let streamed = sink.into_rows();
    assert_eq!(wrapped, streamed);
    // Byte-for-byte: the rendered tables agree too.
    let wrapped_text: Vec<String> = wrapped.iter().map(|r| r.as_table_row()).collect();
    let streamed_text: Vec<String> = streamed.iter().map(|r| r.as_table_row()).collect();
    assert_eq!(wrapped_text, streamed_text);
}

#[test]
fn streamed_bytes_are_identical_at_1_2_and_64_threads() {
    let grid = mixed_grid();
    let render = |threads: usize| {
        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut jsonl).unwrap();
        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut csv).unwrap();
        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, threads, &mut table).unwrap();
        (jsonl.into_inner(), csv.into_inner(), table.into_inner())
    };
    let baseline = render(1);
    assert_eq!(baseline, render(2));
    assert_eq!(baseline, render(64));
}

#[test]
fn jsonl_and_csv_line_counts_match_the_cell_count() {
    let grid = mixed_grid();
    let mut jsonl = JsonLinesSink::new(Vec::new());
    run_grid_streaming(&grid, 8, &mut jsonl).unwrap();
    let text = String::from_utf8(jsonl.into_inner()).unwrap();
    assert_eq!(text.lines().count(), grid.cell_count());
    for line in text.lines() {
        assert!(line.starts_with("{\"spec\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    let mut csv = CsvSink::new(Vec::new());
    run_grid_streaming(&grid, 8, &mut csv).unwrap();
    let text = String::from_utf8(csv.into_inner()).unwrap();
    // One header record plus one record per cell.
    assert_eq!(text.lines().count(), 1 + grid.cell_count());
}

#[test]
fn zero_delivery_sentinels_are_format_aware_end_to_end() {
    // Load 0.0 injects nothing: the latency/hops averages are undefined.
    let grid = ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
        .loads(&[0.0])
        .slots(50);

    let mut table = TableSink::new(Vec::new());
    run_grid_streaming(&grid, 1, &mut table).unwrap();
    let table = String::from_utf8(table.into_inner()).unwrap();
    assert!(table.contains('-'), "{table}");
    assert!(!table.contains("NaN"), "{table}");

    let mut csv = CsvSink::new(Vec::new());
    run_grid_streaming(&grid, 1, &mut csv).unwrap();
    let csv = String::from_utf8(csv.into_inner()).unwrap();
    let record = csv.lines().nth(1).unwrap();
    assert!(
        record.contains(",,"),
        "undefined fields are empty: {record}"
    );
    assert!(!record.contains("NaN"), "{record}");
    // The '-' sentinel belongs to the table; CSV fields are empty instead.
    assert!(!record.split(',').any(|f| f == "-"), "{record}");

    let mut jsonl = JsonLinesSink::new(Vec::new());
    run_grid_streaming(&grid, 1, &mut jsonl).unwrap();
    let jsonl = String::from_utf8(jsonl.into_inner()).unwrap();
    assert!(jsonl.contains("\"avg_latency\":null"), "{jsonl}");
    assert!(jsonl.contains("\"avg_hops\":null"), "{jsonl}");
    assert!(jsonl.contains("\"delivery_ratio\":null"), "{jsonl}");
    assert!(!jsonl.contains("NaN"), "{jsonl}");
    assert!(!jsonl.contains("\"-\""), "{jsonl}");
}

#[test]
fn csv_quotes_comma_bearing_specs_and_keeps_a_stable_header() {
    let grid = ScenarioGrid::new(vec!["SK(2,2,2)".parse().unwrap()])
        .loads(&[0.2])
        .slots(60);
    let mut csv = CsvSink::new(Vec::new());
    run_grid_streaming(&grid, 1, &mut csv).unwrap();
    let text = String::from_utf8(csv.into_inner()).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert!(
        header.starts_with("spec,traffic,load,seed,fault_count,faults,processors,"),
        "{header}"
    );
    let record = lines.next().unwrap();
    assert!(record.starts_with("\"SK(2,2,2)\","), "{record}");
    // Quoting keeps the column count aligned with the header: splitting on
    // commas outside quotes yields exactly one field per header column.
    let mut fields = 0usize;
    let mut in_quotes = false;
    for c in record.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields += 1,
            _ => {}
        }
    }
    assert_eq!(fields + 1, header.split(',').count());
}
