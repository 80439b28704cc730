//! Workload-axis acceptance tests, mirroring `tests/spec_roundtrip.rs` for
//! the traffic side of the redesign: every supported workload spec parses,
//! round-trips through `Display`, validates its value ranges at parse time,
//! enforces its topology preconditions at bind time, and drives the scenario
//! grid deterministically at any thread count.

use otis_lightwave::net::{
    parse_scenario_config, run_grid, DemandSpec, Network, NetworkError, ScenarioGrid, SimOptions,
    TrafficError,
};
use otis_lightwave::sim::TrafficPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Display ↔ FromStr sweep across every pattern and a spread of loads,
/// offsets, nodes and fractions.
#[test]
fn traffic_spec_roundtrip_sweep() {
    let loads = [0.0, 0.05, 0.2, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut specs: Vec<DemandSpec> = Vec::new();
    for &load in &loads {
        specs.push(DemandSpec::Pattern(TrafficPattern::Uniform { load }));
        specs.push(DemandSpec::Pattern(TrafficPattern::Transpose { load }));
        specs.push(DemandSpec::Pattern(TrafficPattern::BitReversal { load }));
        for offset in [0, 1, 7, 100] {
            specs.push(DemandSpec::Pattern(TrafficPattern::Permutation {
                load,
                offset,
            }));
        }
        for hot_node in [0, 5] {
            for hot_fraction in [0.0, 0.2, 1.0] {
                specs.push(DemandSpec::Pattern(TrafficPattern::Hotspot {
                    load,
                    hot_node,
                    hot_fraction,
                }));
            }
        }
    }
    for spec in specs {
        let rendered = spec.to_string();
        let parsed: DemandSpec = rendered
            .parse()
            .unwrap_or_else(|e| panic!("{rendered}: {e}"));
        assert_eq!(parsed, spec, "{rendered} must round-trip");
        assert_eq!(parsed.to_string(), rendered, "{rendered} canonical form");
        assert!(spec.validate().is_ok(), "{rendered} is a valid spec");
    }
}

/// The same property sweep over the demand-process variants (PR 9):
/// Poisson, on/off, elephants-and-mice mix and trace replay all round-trip
/// through Display with their canonical spelling.
#[test]
fn demand_spec_roundtrip_sweep() {
    let rates = [0.0, 0.05, 0.25, 0.5, 1.0, 2.5];
    let mut specs: Vec<DemandSpec> = Vec::new();
    for &rate in &rates {
        specs.push(DemandSpec::Poisson { rate, dst: None });
        for dst in [0, 3, 71] {
            specs.push(DemandSpec::Poisson {
                rate,
                dst: Some(dst),
            });
        }
        for (burst_len, idle_len) in [(1, 0), (8, 24), (16, 48), (100, 1)] {
            specs.push(DemandSpec::OnOff {
                rate,
                burst_len,
                idle_len,
            });
        }
        for fraction in [0.0, 0.1, 0.5, 1.0] {
            specs.push(DemandSpec::Mix {
                fraction,
                elephant_rate: rate,
                mice_rate: rate / 10.0,
            });
        }
    }
    for path in ["demand.trc", "examples/demand.trc", "a b/c.trc"] {
        specs.push(DemandSpec::Trace {
            path: path.to_string(),
            offered_load: None,
        });
    }
    for spec in specs {
        let rendered = spec.to_string();
        let parsed: DemandSpec = rendered
            .parse()
            .unwrap_or_else(|e| panic!("{rendered}: {e}"));
        assert_eq!(parsed, spec, "{rendered} must round-trip");
        assert_eq!(parsed.to_string(), rendered, "{rendered} canonical form");
        assert!(spec.validate().is_ok(), "{rendered} is a valid spec");
        // Every stochastic variant has a finite expected load; only the
        // trace defers its rate to replay time.
        assert_eq!(
            spec.offered_load().is_nan(),
            spec.is_trace(),
            "{rendered} offered load"
        );
    }
}

/// Picks one entry of `pieces`.
fn pick<'a>(rng: &mut StdRng, pieces: &[&'a str]) -> &'a str {
    pieces[rng.gen_range(0..pieces.len())]
}

/// Seeded hostile input for the workload grammar: strings assembled from
/// pattern names, numbers, `NaN`, `inf`, signs, dots, parentheses, commas,
/// whitespace and non-ASCII text either parse to a value that validates
/// and whose rendering parses back to the same value, or fail with a typed
/// [`TrafficError`].  Nothing may panic.
#[test]
fn hostile_workload_strings_round_trip_or_fail_typed() {
    const NAMES: &[&str] = &[
        "uniform",
        "perm",
        "hotspot",
        "transpose",
        "bitrev",
        "poisson",
        "onoff",
        "mix",
        "trace",
        "UNIFORM",
        "Trace",
        "gravity",
        "",
        "é",
    ];
    const NUMBERS: &[&str] = &[
        "0",
        "1",
        "7",
        "0.5",
        "-0",
        "-1",
        "1e3",
        "1e-400",
        "18446744073709551616",
        "NaN",
        "inf",
        "-inf",
    ];
    const JUNK: &[&str] = &[
        "-", ".", "(", ")", ",", " ", "\t", "é", "∞", "流", "a.trc", "/",
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed_7aff);
    let mut accepted = 0;
    for _ in 0..4000 {
        let mut input = String::new();
        if rng.gen_bool(0.2) {
            input.push_str(pick(&mut rng, JUNK));
        }
        input.push_str(pick(&mut rng, NAMES));
        if rng.gen_bool(0.9) {
            input.push('(');
        }
        for arg in 0..rng.gen_range(0..4) {
            if arg > 0 {
                input.push(',');
            }
            for _ in 0..1 + usize::from(rng.gen_bool(0.15)) {
                let pieces = if rng.gen_bool(0.85) { NUMBERS } else { JUNK };
                input.push_str(pick(&mut rng, pieces));
            }
        }
        if rng.gen_bool(0.9) {
            input.push(')');
        }
        if rng.gen_bool(0.2) {
            input.push_str(pick(&mut rng, JUNK));
        }
        match input.parse::<DemandSpec>() {
            Ok(spec) => {
                accepted += 1;
                assert_eq!(spec.validate(), Ok(()), "{input:?} parsed to {spec:?}");
                let rendered = spec.to_string();
                let reparsed: DemandSpec = rendered
                    .parse()
                    .unwrap_or_else(|e| panic!("{input:?} rendered as {rendered:?}: {e}"));
                assert_eq!(reparsed, spec, "{input:?} rendered as {rendered:?}");
            }
            Err(err) => {
                let err: TrafficError = err;
                assert!(!err.to_string().is_empty(), "{input:?}");
            }
        }
    }
    // The generator must reach the accepting paths, not only the errors.
    assert!(accepted >= 100, "only {accepted} of 4000 inputs parsed");
}

/// The canonical spellings of the issue parse to the expected variants.
#[test]
fn canonical_spellings_parse() {
    for (text, expected) in [
        (
            "uniform(0.3)",
            DemandSpec::Pattern(TrafficPattern::Uniform { load: 0.3 }),
        ),
        (
            "perm(0.5,7)",
            DemandSpec::Pattern(TrafficPattern::Permutation {
                load: 0.5,
                offset: 7,
            }),
        ),
        (
            "hotspot(0.4,0,0.2)",
            DemandSpec::Pattern(TrafficPattern::Hotspot {
                load: 0.4,
                hot_node: 0,
                hot_fraction: 0.2,
            }),
        ),
        (
            "transpose(0.5)",
            DemandSpec::Pattern(TrafficPattern::Transpose { load: 0.5 }),
        ),
        (
            "bitrev(0.5)",
            DemandSpec::Pattern(TrafficPattern::BitReversal { load: 0.5 }),
        ),
    ] {
        assert_eq!(text.parse::<DemandSpec>().unwrap(), expected, "{text}");
        assert_eq!(expected.to_string(), text, "{text}");
    }
}

/// Value errors are caught at parse time, topology errors at bind time.
#[test]
fn invalid_workloads_are_typed_errors() {
    for bad in [
        "uniform(NaN)",
        "uniform(-0.2)",
        "uniform(1.01)",
        "hotspot(0.3,0,1.5)",
        "hotspot(0.3,0,NaN)",
        "gravity(0.5)",
        "perm(0.5)",
        "uniform",
    ] {
        assert!(bad.parse::<DemandSpec>().is_err(), "{bad} must not parse");
    }
    // Topology-aware refusals through the facade: SK(6,3,2) has 72
    // processors — neither a square nor a power of two.
    let sk = Network::from_spec("SK(6,3,2)").unwrap();
    let options = SimOptions::new(50, 1);
    for unbindable in ["transpose(0.5)", "bitrev(0.5)", "hotspot(0.4,72,0.2)"] {
        let spec: DemandSpec = unbindable.parse().unwrap();
        let err = sk.simulate(&spec, &options).unwrap_err();
        assert!(
            matches!(err, NetworkError::Traffic(_)),
            "{unbindable} on SK(6,3,2): {err}"
        );
    }
    // The same workloads run where the preconditions hold.
    let k9 = Network::from_spec("K(9)").unwrap();
    let transpose: DemandSpec = "transpose(0.5)".parse().unwrap();
    assert!(k9.simulate(&transpose, &options).unwrap().delivered > 0);
    let db = Network::from_spec("DB(2,4)").unwrap(); // 16 = 2^4 processors
    let bitrev: DemandSpec = "bitrev(0.5)".parse().unwrap();
    assert!(db.simulate(&bitrev, &options).unwrap().delivered > 0);
}

/// A grid mixing every workload family produces identical rows at 1, 2 and
/// 64 threads — the determinism guarantee of the engine, now holding for
/// non-uniform traffic too.
#[test]
fn mixed_workload_grid_is_thread_count_independent() {
    // K(16) and DB(2,4) both have 16 processors: square AND a power of two,
    // so every pattern binds; POPS(4,4) too.
    let specs = ["K(16)", "DB(2,4)", "POPS(4,4)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let workloads: Vec<DemandSpec> = [
        "uniform(0.3)",
        "perm(0.5,7)",
        "hotspot(0.4,0,0.2)",
        "transpose(0.5)",
        "bitrev(0.5)",
    ]
    .iter()
    .map(|w| w.parse().unwrap())
    .collect();
    let grid = ScenarioGrid::new(specs)
        .workloads(workloads)
        .seeds(&[7, 11])
        .slots(120);
    assert_eq!(grid.cell_count(), 3 * 5 * 2);
    let serial = run_grid(&grid, 1).unwrap();
    assert_eq!(serial.len(), grid.cell_count());
    assert_eq!(serial, run_grid(&grid, 2).unwrap());
    assert_eq!(serial, run_grid(&grid, 64).unwrap());
    // Every row carries its workload and the load derived from it, and the
    // rendered table is thread-count independent along with the rows.
    for row in &serial {
        assert_eq!(row.offered_load, row.traffic.offered_load());
        assert!(!row.as_table_row().contains("NaN"));
    }
}

/// The config-file format declares the same study the builder API does.
#[test]
fn config_file_matches_builder_grid() {
    let text = "\
specs     K(16), DB(2,4)
workloads uniform(0.3), bitrev(0.5)
seeds     7
slots     120
";
    let config = parse_scenario_config(text).unwrap();
    let built = ScenarioGrid::new(vec!["K(16)".parse().unwrap(), "DB(2,4)".parse().unwrap()])
        .workloads(vec![
            "uniform(0.3)".parse().unwrap(),
            "bitrev(0.5)".parse().unwrap(),
        ])
        .seeds(&[7])
        .slots(120);
    assert_eq!(config.grid, built);
    assert_eq!(
        run_grid(&config.grid, 2).unwrap(),
        run_grid(&built, 4).unwrap()
    );
}
