//! Seeded hostile input for the three grammars the spec and workload loops
//! (`tests/spec_roundtrip.rs`, `tests/traffic_roundtrip.rs`) do not cover:
//! fault schedules, `.scn` scenario files and `.trc` traces.  Every input
//! either parses (and, for schedules, round-trips through `Display`) or
//! fails with the grammar's typed error; nothing may panic.  Inputs are
//! only parsed or validated: no parsed grid is run, and a hostile
//! `alt_paths` is refused by every entry point before a kernel is built.

use otis_lightwave::net::{
    parse_scenario_config, run_grid_streaming, validate_trace, AltPathsError, CollectSink,
    ConfigError, DemandSpec, FaultSchedule, FaultScheduleError, Network, NetworkError,
    ScenarioGrid, SimOptions, TraceError, MAX_ALT_PATHS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;

/// Picks one entry of `pieces`.
fn pick<'a>(rng: &mut StdRng, pieces: &[&'a str]) -> &'a str {
    pieces[rng.gen_range(0..pieces.len())]
}

/// Numbers at and past the `usize`/`u64` boundaries, negatives, and
/// non-numbers, shared by the three generators.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "5",
    "7",
    "-1",
    "+1",
    "1.5",
    "18446744073709551615",
    "18446744073709551616",
    "é",
];

/// Separators and stray grammar tokens of all three formats.
const JUNK: &[&str] = &[
    "@", ";", "(", ")", "->", ",", " ", "\t", "#", "é", "∞", "流", "none", "",
];

#[test]
fn hostile_fault_schedules_round_trip_or_fail_typed() {
    const ACTIONS: &[&str] = &["fail", "recover", "FAIL", "Recover", "fial", ""];
    const TARGETS: &[&str] = &["node", "arc", "NODE", "group", ""];
    let mut rng = StdRng::seed_from_u64(0x5eed_fa17);
    let mut accepted = 0;
    for _ in 0..4000 {
        let mut input = String::new();
        let mut slot = 0;
        for event in 0..rng.gen_range(0..4) {
            if event > 0 {
                input.push(';');
            }
            input.push_str(pick(&mut rng, ACTIONS));
            if rng.gen_bool(0.8) {
                input.push('(');
                input.push_str(pick(&mut rng, TARGETS));
                input.push(' ');
                input.push_str(pick(&mut rng, NUMBERS));
                if rng.gen_bool(0.3) {
                    input.push_str("->");
                    input.push_str(pick(&mut rng, NUMBERS));
                }
                if rng.gen_bool(0.9) {
                    input.push(')');
                }
            }
            if rng.gen_bool(0.9) {
                input.push('@');
            }
            // Mostly chronological slots, so the accepting path is reached.
            if rng.gen_bool(0.7) {
                slot += rng.gen_range(0..3);
                input.push_str(&slot.to_string());
            } else {
                input.push_str(pick(&mut rng, NUMBERS));
            }
            if rng.gen_bool(0.1) {
                input.push_str(pick(&mut rng, JUNK));
            }
        }
        match input.parse::<FaultSchedule>() {
            Ok(schedule) => {
                accepted += 1;
                let rendered = schedule.to_string();
                let reparsed: FaultSchedule = rendered
                    .parse()
                    .unwrap_or_else(|e| panic!("{input:?} rendered as {rendered:?}: {e}"));
                assert_eq!(reparsed, schedule, "{input:?} rendered as {rendered:?}");
            }
            Err(err) => {
                let err: FaultScheduleError = err;
                assert!(!err.to_string().is_empty(), "{input:?}");
            }
        }
    }
    assert!(accepted >= 100, "only {accepted} of 4000 inputs parsed");
}

#[test]
fn hostile_scenario_files_parse_or_fail_typed() {
    // Well-formed lines, some at the `u64` boundary and `threads` at its
    // cap (`MAX_THREADS`, 1024), so whole files parse often enough; every
    // valid spec here has at most 24 fault-domain nodes, since a `faults N`
    // that fits a domain expands to N + 1 patterns holding O(N²) node ids.
    const LINES: &[&str] = &[
        "spec K(8)",
        "specs SK(2,2,2), POPS(4,6)",
        "spec DB(2,4)",
        "load 0.2",
        "workloads uniform(0.2), perm(0.5,7)",
        "workload trace(examples/demand.trc)",
        "seeds 1, 2",
        "slots 10",
        "faults 3",
        "faults 24",
        "faults 18446744073709551615",
        "slots 18446744073709551615",
        "threads 1024",
        "fault_schedule fail(node 1)@3; recover@5",
        "wavelengths 1, 2",
        "alt_paths 2",
        "threads 2",
        "format csv",
        "output out.csv",
        "# a comment",
        "",
    ];
    const KEYS: &[&str] = &[
        "spec",
        "workload",
        "loads",
        "seed",
        "slots",
        "faults",
        "FAULTS",
        "fault_schedules",
        "wavelengths",
        "alt_paths",
        "threads",
        "format",
        "colour",
        "",
    ];
    const VALUES: &[&str] = &[
        "K(8)",
        "KG(9,12)",
        "II(0,5)",
        "SK(2,2,2)",
        "uniform(0.2)",
        "hotspot(0.4,0,0.2)",
        "trace(no_such.trc)",
        "1.5",
        "fail(node 1)@3; recover@5",
        "fail(arc 0->1)@2",
        "jsonl",
        "25",
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed_05c7);
    let mut accepted = 0;
    for _ in 0..3000 {
        let mut input = String::new();
        let lines = rng.gen_range(1..7);
        for _ in 0..lines {
            if rng.gen_bool(0.8) {
                input.push_str(pick(&mut rng, LINES));
            } else {
                input.push_str(pick(&mut rng, KEYS));
                input.push(' ');
                for _ in 0..rng.gen_range(1..3) {
                    let value = match rng.gen_range(0..10) {
                        0..=4 => pick(&mut rng, VALUES),
                        5..=7 => pick(&mut rng, NUMBERS),
                        _ => pick(&mut rng, JUNK),
                    };
                    input.push_str(value);
                }
            }
            input.push('\n');
        }
        match parse_scenario_config(&input) {
            Ok(config) => {
                accepted += 1;
                assert!(!config.grid.specs.is_empty(), "{input:?}");
                assert!(!config.grid.workloads.is_empty(), "{input:?}");
            }
            Err(err) => {
                let line = match err {
                    ConfigError::MissingValue { line, .. }
                    | ConfigError::UnknownKey { line, .. }
                    | ConfigError::DuplicateKey { line, .. }
                    | ConfigError::Value { line, .. } => line,
                    ConfigError::EmptyAxis { .. } => 1,
                };
                assert!((1..=lines).contains(&line), "{input:?}: {err}");
            }
        }
    }
    assert!(accepted >= 100, "only {accepted} of 3000 inputs parsed");
}

#[test]
fn hostile_traces_validate_or_fail_typed() {
    let mut rng = StdRng::seed_from_u64(0x5eed_07c0);
    let mut accepted = 0;
    for _ in 0..3000 {
        let mut input = String::new();
        let mut slot = 0;
        let lines = rng.gen_range(0..6);
        for _ in 0..lines {
            for field in 0..rng.gen_range(2..5) {
                if field > 0 {
                    input.push(' ');
                }
                // Mostly chronological in-range events, so the accepting
                // path is reached.
                if rng.gen_bool(0.75) {
                    let value = if field == 0 {
                        slot += rng.gen_range(0..2);
                        slot
                    } else {
                        rng.gen_range(0..9)
                    };
                    input.push_str(&value.to_string());
                } else if rng.gen_bool(0.7) {
                    input.push_str(pick(&mut rng, NUMBERS));
                } else {
                    input.push_str(pick(&mut rng, JUNK));
                }
            }
            input.push('\n');
        }
        match validate_trace(Cursor::new(input.as_bytes()), 8) {
            Ok(stats) => {
                accepted += 1;
                assert!(stats.events <= lines as u64, "{input:?}");
                let load = stats.offered_load(8);
                assert!((0.0..=1.0).contains(&load), "{input:?}: load {load}");
            }
            Err(err) => {
                let err: TraceError = err;
                assert!(err.to_string().contains("line"), "{input:?}: {err}");
            }
        }
    }
    assert!(accepted >= 100, "only {accepted} of 3000 inputs validated");
}

#[test]
fn hostile_alt_paths_fail_typed_at_every_entry_point() {
    // A `.scn` line or `--alt-paths` flag past the cap is a `Value` error
    // naming its line, which `scenarios` reports with exit status 2; an
    // uncapped count once took seconds to minutes of Yen searches.
    let counts = ["0", "65", "400", "3000", "18446744073709551615"];
    for count in counts.iter().chain(NUMBERS) {
        let input = format!("spec SK(8,3,3)\nload 0.3\nalt_paths {count}\n");
        match parse_scenario_config(&input) {
            Ok(config) => assert!(
                (1..=MAX_ALT_PATHS).contains(&config.grid.options.alt_paths),
                "{input:?}"
            ),
            Err(err) => assert!(
                matches!(err, ConfigError::Value { line: 3, .. }),
                "{input:?}: {err}"
            ),
        }
    }
    // A grid or a one-shot simulation built in code meets the same check.
    let uniform: DemandSpec = "uniform(0.3)".parse().unwrap();
    let network = Network::from_spec("SK(8,3,3)").unwrap();
    for alt_paths in [0, MAX_ALT_PATHS + 1, 3000, usize::MAX] {
        let refused = NetworkError::AltPaths(AltPathsError { alt_paths });
        let grid = ScenarioGrid::new(vec![*network.spec()])
            .workloads(vec![uniform.clone()])
            .slots(10)
            .alt_paths(alt_paths);
        let mut sink = CollectSink::new();
        assert_eq!(
            run_grid_streaming(&grid, 1, &mut sink).unwrap_err(),
            refused
        );
        assert!(sink.into_rows().is_empty());
        let mut options = SimOptions::new(10, 1);
        options.alt_paths = alt_paths;
        assert_eq!(network.simulate(&uniform, &options).unwrap_err(), refused);
    }
}
