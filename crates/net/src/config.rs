//! The scenario config-file format: one declarative file describes an
//! entire `(spec × workload × seed × fault)` study.
//!
//! The format is deliberately small and line-oriented (the workspace is
//! offline — no serde): one `key value` pair per line, `#` starts a comment,
//! blank lines are ignored.  List values are comma-separated, split on the
//! commas *between* entries (commas inside parentheses belong to the spec):
//!
//! ```text
//! # examples/sweep.scn — hotspot and permutation study with a fault sweep
//! specs     SK(4,2,2), POPS(4,6), DB(2,5)
//! workloads uniform(0.2), perm(0.5,7), hotspot(0.4,0,0.2)
//! seeds     42
//! slots     300
//! faults    1
//! threads   4
//! ```
//!
//! | key                   | value                                             |
//! |-----------------------|---------------------------------------------------|
//! | `spec` / `specs`      | network specs, appended across lines              |
//! | `workload`/`workloads`| workload specs, appended across lines — stationary patterns (`uniform(0.2)`, `perm(0.5,7)`, `hotspot(0.4,0,0.2)`, `transpose(0.5)`, `bitrev(0.5)`) or demand processes (`poisson(0.3)`, `poisson(0.3,0)`, `onoff(0.6,16,48)`, `mix(0.1,0.9,0.05)`, `trace(file.trc)`) |
//! | `load` / `loads`      | offered loads — sugar for uniform workloads       |
//! | `seed` / `seeds`      | random seeds, appended across lines               |
//! | `slots`               | slots simulated per cell (scalar, once)           |
//! | `faults`              | sweep the nested fault patterns `{}`, `{0}`, …, `{0..N−1}`, `N` at most the largest fault domain among the specs (scalar, once) |
//! | `fault_schedule` / `fault_schedules` | fault timelines to sweep, e.g. `fail(node 3)@32; recover@96` — `none` is the static entry (list, appended across lines; default `none`) |
//! | `wavelengths`         | wavelength counts to sweep (list, each ≥ 1; default `1`) |
//! | `alt_paths`           | routes tried per hop in wavelength mode: primary + Yen alternates (scalar, once; default `1`) |
//! | `threads`             | worker threads (scalar, once; results are thread-count independent) |
//! | `format`              | result format: `table`, `csv` or `jsonl` (scalar, once) |
//! | `output`              | file the results stream to (scalar, once; default stdout) |
//!
//! [`parse_scenario_config`] returns a ready-to-run [`ScenarioGrid`] plus
//! the optional thread count, output format and output path; every
//! malformed line is a typed [`ConfigError`] carrying its line number.
//! Results stream row by row (`otis_net::engine::run_grid_streaming`), so a
//! study's memory use does not grow with its cell count.

use crate::engine::ScenarioGrid;
use crate::sink::OutputFormat;
use crate::spec::NetworkSpec;
use otis_sim::{DemandSpec, FaultSchedule, TrafficPattern};
use std::fmt;

/// A parsed scenario config file: the grid it declares, plus the execution
/// preferences that are not part of the grid itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// The declared `(spec × workload × seed × fault)` grid.
    pub grid: ScenarioGrid,
    /// Worker threads, when the file pins them (`None` = caller's choice).
    pub threads: Option<usize>,
    /// Result format, when the file pins it (`None` = caller's choice,
    /// normally the table).
    pub format: Option<OutputFormat>,
    /// File the results stream to, when the file pins one (`None` = the
    /// caller's writer, normally stdout).
    pub output: Option<String>,
}

/// Why a scenario config file could not be parsed.  Every variant carries
/// the 1-based line number of the offending line.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A line has a key but no value.
    MissingValue {
        /// 1-based line number.
        line: usize,
        /// The key without a value.
        key: String,
    },
    /// A line's key is not one of the supported ones.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unrecognised key.
        key: String,
    },
    /// A scalar key (`slots`, `faults`, `threads`) appeared twice.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A value did not parse; `detail` is the underlying parser's message.
    Value {
        /// 1-based line number.
        line: usize,
        /// The key whose value failed.
        key: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// The file declares no specs or no workloads — a zero-cell study is
    /// almost certainly a mistake, so it is refused.
    EmptyAxis {
        /// Which axis is empty (`"specs"` or `"workloads"`).
        axis: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MissingValue { line, key } => {
                write!(f, "line {line}: key '{key}' has no value")
            }
            ConfigError::UnknownKey { line, key } => write!(
                f,
                "line {line}: unknown key '{key}' (supported: spec(s), \
                 workload(s), load(s), seed(s), slots, faults, \
                 fault_schedule(s), wavelengths, alt_paths, threads, format, \
                 output)"
            ),
            ConfigError::DuplicateKey { line, key } => {
                write!(f, "line {line}: key '{key}' was already set")
            }
            ConfigError::Value { line, key, detail } => {
                write!(f, "line {line}: bad {key} value: {detail}")
            }
            ConfigError::EmptyAxis { axis } => {
                write!(
                    f,
                    "the file declares no {axis}: the grid would have zero cells"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Installs a once-only value, refusing a repeated key with the line-number
/// carrying [`ConfigError::DuplicateKey`].
fn set_once<T>(slot: &mut Option<T>, value: T, line: usize, key: &str) -> Result<(), ConfigError> {
    if slot.is_some() {
        return Err(ConfigError::DuplicateKey {
            line,
            key: key.to_string(),
        });
    }
    *slot = Some(value);
    Ok(())
}

/// Splits a comma-separated list on the commas *between* entries, not the
/// ones inside parentheses: `"SK(4,2,2), POPS(4,6)"` →
/// `["SK(4,2,2)", "POPS(4,6)"]`.  Entries come back trimmed.
pub fn split_top_level(value: &str) -> Vec<&str> {
    let mut entries = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in value.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                entries.push(value[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    entries.push(value[start..].trim());
    entries
}

/// Parses the scenario config-file format (see the module docs for the
/// grammar) into a ready-to-run grid.
pub fn parse_scenario_config(text: &str) -> Result<ScenarioConfig, ConfigError> {
    let mut specs: Vec<NetworkSpec> = Vec::new();
    let mut workloads: Vec<DemandSpec> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    let mut fault_schedules: Vec<FaultSchedule> = Vec::new();
    let mut wavelengths: Vec<usize> = Vec::new();
    let mut slots: Option<u64> = None;
    let mut faults: Option<u64> = None;
    let mut faults_line = 0;
    let mut alt_paths: Option<u64> = None;
    let mut threads: Option<u64> = None;
    let mut format: Option<OutputFormat> = None;
    let mut output: Option<String> = None;

    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let (key, value) = match content.split_once(char::is_whitespace) {
            Some((key, value)) if !value.trim().is_empty() => (key, value.trim()),
            _ => {
                return Err(ConfigError::MissingValue {
                    line,
                    key: content.to_string(),
                })
            }
        };
        let value_error = |detail: String| ConfigError::Value {
            line,
            key: key.to_string(),
            detail,
        };
        // Parses and installs a once-only numeric key (`slots`, `faults`,
        // `threads`), refusing repeats.
        let scalar = |slot: &mut Option<u64>, raw: &str| -> Result<(), ConfigError> {
            let parsed = raw.parse::<u64>().map_err(|_| ConfigError::Value {
                line,
                key: key.to_string(),
                detail: format!("cannot parse '{raw}' as a count"),
            })?;
            set_once(slot, parsed, line, key)
        };
        match key.to_ascii_lowercase().as_str() {
            "spec" | "specs" => {
                for entry in split_top_level(value) {
                    specs.push(
                        entry
                            .parse::<NetworkSpec>()
                            .map_err(|e| value_error(e.to_string()))?,
                    );
                }
            }
            "workload" | "workloads" => {
                for entry in split_top_level(value) {
                    let workload = entry
                        .parse::<DemandSpec>()
                        .map_err(|e| value_error(e.to_string()))?;
                    // A trace workload names a file the study will replay;
                    // checking it exists *here* turns a typo into a
                    // line-numbered error instead of a bind-time failure
                    // after the whole file parsed.  (Content validation —
                    // node ids against N, monotonic slots — still happens
                    // at bind time, where the network size is known.)
                    if let DemandSpec::Trace { ref path, .. } = workload {
                        if !std::path::Path::new(path).is_file() {
                            return Err(value_error(format!("trace file '{path}' does not exist")));
                        }
                    }
                    workloads.push(workload);
                }
            }
            "load" | "loads" => {
                for entry in split_top_level(value) {
                    let load = entry
                        .parse::<f64>()
                        .map_err(|_| value_error(format!("cannot parse '{entry}' as a load")))?;
                    let spec = DemandSpec::Pattern(TrafficPattern::Uniform { load });
                    spec.validate().map_err(|e| value_error(e.to_string()))?;
                    workloads.push(spec);
                }
            }
            "seed" | "seeds" => {
                for entry in split_top_level(value) {
                    seeds.push(
                        entry.parse::<u64>().map_err(|_| {
                            value_error(format!("cannot parse '{entry}' as a seed"))
                        })?,
                    );
                }
            }
            "fault_schedule" | "fault_schedules" => {
                for entry in split_top_level(value) {
                    fault_schedules.push(
                        entry
                            .parse::<FaultSchedule>()
                            .map_err(|e| value_error(e.to_string()))?,
                    );
                }
            }
            "wavelength" | "wavelengths" => {
                for entry in split_top_level(value) {
                    let count = entry.parse::<usize>().map_err(|_| {
                        value_error(format!("cannot parse '{entry}' as a wavelength count"))
                    })?;
                    if count == 0 {
                        return Err(value_error(
                            "wavelength counts must be at least 1".to_string(),
                        ));
                    }
                    wavelengths.push(count);
                }
            }
            "slots" => scalar(&mut slots, value)?,
            "faults" => {
                scalar(&mut faults, value)?;
                faults_line = line;
            }
            "alt_paths" => {
                scalar(&mut alt_paths, value)?;
                if alt_paths == Some(0) {
                    return Err(value_error("alt_paths must be at least 1".to_string()));
                }
            }
            "threads" => scalar(&mut threads, value)?,
            "format" => {
                let parsed = value
                    .parse::<OutputFormat>()
                    .map_err(|e| value_error(e.to_string()))?;
                set_once(&mut format, parsed, line, key)?;
            }
            "output" => set_once(&mut output, value.to_string(), line, key)?,
            other => {
                return Err(ConfigError::UnknownKey {
                    line,
                    key: other.to_string(),
                })
            }
        }
    }

    if specs.is_empty() {
        return Err(ConfigError::EmptyAxis { axis: "specs" });
    }
    if workloads.is_empty() {
        return Err(ConfigError::EmptyAxis { axis: "workloads" });
    }

    let mut grid = ScenarioGrid::new(specs).workloads(workloads);
    if !seeds.is_empty() {
        grid.seeds = seeds;
    }
    if let Some(slots) = slots {
        grid.options.slots = slots;
    }
    if let Some(faults) = faults {
        grid = grid.nested_faults(faults).map_err(|e| ConfigError::Value {
            line: faults_line,
            key: "faults".to_string(),
            detail: e.to_string(),
        })?;
    }
    if !fault_schedules.is_empty() {
        grid.fault_schedules = fault_schedules;
    }
    if !wavelengths.is_empty() {
        grid.wavelengths = wavelengths;
    }
    if let Some(alt_paths) = alt_paths {
        grid.options.alt_paths = alt_paths as usize;
    }
    Ok(ScenarioConfig {
        grid,
        threads: threads.map(|t| t as usize),
        format,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_routing::FaultSet;

    const SWEEP: &str = "\
# a full study in one file
specs     SK(4,2,2), POPS(4,6)   # trailing comments are fine
spec      DB(2,5)
workloads uniform(0.2), perm(0.5,7)
workload  hotspot(0.4,0,0.2)
seeds     42, 43
slots     300
faults    1
threads   4
";

    #[test]
    fn parses_a_full_study() {
        let config = parse_scenario_config(SWEEP).unwrap();
        assert_eq!(config.threads, Some(4));
        // The file pins neither format nor output: the caller chooses.
        assert_eq!(config.format, None);
        assert_eq!(config.output, None);
        let grid = &config.grid;
        assert_eq!(grid.specs.len(), 3);
        assert_eq!(grid.specs[2], "DB(2,5)".parse().unwrap());
        assert_eq!(grid.workloads.len(), 3);
        assert_eq!(grid.workloads[2], "hotspot(0.4,0,0.2)".parse().unwrap());
        assert_eq!(grid.seeds, vec![42, 43]);
        assert_eq!(grid.options.slots, 300);
        // faults 1 sweeps the intact network plus the single fault {0}.
        assert_eq!(grid.fault_sets.len(), 2);
        assert!(grid.fault_sets[0].is_empty());
        assert_eq!(grid.fault_sets[1].sorted_nodes(), vec![0]);
        assert_eq!(grid.cell_count(), 3 * 3 * 2 * 2);
        // The declared grid actually runs.
        let rows = grid.run(2).unwrap();
        assert_eq!(rows.len(), grid.cell_count());
    }

    #[test]
    fn loads_key_is_uniform_sugar() {
        let config = parse_scenario_config("spec K(8)\nloads 0.1, 0.5\n").unwrap();
        assert_eq!(
            config.grid.workloads,
            vec![
                DemandSpec::Pattern(TrafficPattern::Uniform { load: 0.1 }),
                DemandSpec::Pattern(TrafficPattern::Uniform { load: 0.5 })
            ]
        );
        assert_eq!(config.threads, None);
        // Defaults survive when the file does not set them.
        assert_eq!(config.grid.seeds.len(), 1);
        assert_eq!(config.grid.fault_sets.len(), 1);
    }

    #[test]
    fn fault_count_is_bounded_by_the_largest_fault_domain() {
        // A count past every spec's fault domain is a line-numbered error,
        // not an O(N²) expansion.
        let err = parse_scenario_config("spec K(8)\nload 0.2\nfaults 18446744073709551615\n")
            .unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 3, .. }), "{err}");
        // The bound is checked once every spec is known, wherever the key
        // sits in the file; SK(2,2,2) has 6 quotient groups, K(4) 4 nodes.
        let err = parse_scenario_config("faults 7\nspecs K(4), SK(2,2,2)\nload 0.2\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 1, .. }), "{err}");
        let config = parse_scenario_config("faults 6\nspecs K(4), SK(2,2,2)\nload 0.2\n").unwrap();
        assert_eq!(config.grid.fault_sets.len(), 7);
        assert_eq!(
            config.grid.fault_sets.last(),
            Some(&FaultSet::from_nodes(0..6))
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_scenario_config("spec K(8)\nworkload gravity(1)\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");

        let err = parse_scenario_config("spec\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::MissingValue { line: 1, .. }),
            "{err}"
        );

        let err = parse_scenario_config("spec K(8)\nload 0.2\ncolour blue\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::UnknownKey { line: 3, .. }),
            "{err}"
        );

        let err = parse_scenario_config("spec K(8)\nload 0.2\nslots 10\nslots 20\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::DuplicateKey { line: 4, .. }),
            "{err}"
        );

        // Out-of-range loads are refused with the traffic spec's message.
        let err = parse_scenario_config("spec K(8)\nload 1.5\n").unwrap_err();
        assert!(err.to_string().contains("[0, 1]"), "{err}");
    }

    #[test]
    fn demand_workloads_parse_and_bad_ones_carry_line_numbers() {
        // The demand grammar rides the workload key: stochastic processes
        // parse like any other spec.
        let config = parse_scenario_config(
            "spec DB(2,4)\nworkloads poisson(0.3), onoff(0.9,8,24)\nworkload mix(0.25,0.9,0.05)\n",
        )
        .unwrap();
        assert_eq!(config.grid.workloads.len(), 3);
        assert_eq!(
            config.grid.workloads[0],
            DemandSpec::Poisson {
                rate: 0.3,
                dst: None
            }
        );
        // The declared grid actually runs.
        let rows = {
            let mut grid = config.grid;
            grid.options.slots = 40;
            grid.run(2).unwrap()
        };
        assert_eq!(rows.len(), 3);

        // Bad rates are refused where they are written, not at bind time.
        let err =
            parse_scenario_config("spec DB(2,4)\nload 0.2\nworkload poisson(-1)\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = parse_scenario_config("spec DB(2,4)\nworkload onoff(NaN,8,24)\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 2, .. }), "{err}");
        let err = parse_scenario_config("spec DB(2,4)\nworkload onoff(0.5,0,24)\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("burst"), "{err}");
        let err = parse_scenario_config("spec DB(2,4)\nworkload mix(1.5,0.9,0.05)\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 2, .. }), "{err}");

        // A trace workload must name an existing file — a typo is a
        // line-numbered error before the study starts.
        let err =
            parse_scenario_config("spec DB(2,5)\nworkload trace(no_such_file.trc)\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("no_such_file.trc"), "{err}");
        assert!(err.to_string().contains("does not exist"), "{err}");

        // An existing trace parses; node ids against N stay a bind-time
        // check (the config file alone does not fix the network size).
        let path = std::env::temp_dir().join("otis_config_demand.trc");
        std::fs::write(&path, "0 1 2\n5 3 0\n").unwrap();
        let config = parse_scenario_config(&format!(
            "spec DB(2,4)\nworkload trace({})\n",
            path.display()
        ))
        .unwrap();
        assert!(config.grid.workloads[0].is_trace());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn format_and_output_keys_stream_the_study() {
        let config = parse_scenario_config(
            "spec K(8)\nload 0.2\nformat jsonl\noutput rows.jsonl  # a file\n",
        )
        .unwrap();
        assert_eq!(config.format, Some(OutputFormat::JsonLines));
        assert_eq!(config.output, Some("rows.jsonl".to_string()));

        let config = parse_scenario_config("spec K(8)\nload 0.2\nformat csv\n").unwrap();
        assert_eq!(config.format, Some(OutputFormat::Csv));
        assert_eq!(config.output, None);

        // Unknown formats carry the line number and the supported list.
        let err = parse_scenario_config("spec K(8)\nload 0.2\nformat yaml\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("jsonl"), "{err}");

        // Scalars stay once-only.
        let err =
            parse_scenario_config("spec K(8)\nload 0.2\nformat csv\nformat table\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::DuplicateKey { line: 4, .. }),
            "{err}"
        );
        let err =
            parse_scenario_config("spec K(8)\nload 0.2\noutput a.csv\noutput b.csv\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::DuplicateKey { line: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn wavelength_keys_configure_the_layer() {
        let config =
            parse_scenario_config("spec SK(2,2,2)\nload 0.4\nwavelengths 1, 4, 16\nalt_paths 3\n")
                .unwrap();
        assert_eq!(config.grid.wavelengths, vec![1, 4, 16]);
        assert_eq!(config.grid.options.alt_paths, 3);
        assert!(config.grid.wavelength_layer_enabled());

        // Defaults keep the legacy capacity-1 layer off.
        let config = parse_scenario_config("spec K(8)\nload 0.2\n").unwrap();
        assert_eq!(config.grid.wavelengths, vec![1]);
        assert_eq!(config.grid.options.alt_paths, 1);
        assert!(!config.grid.wavelength_layer_enabled());

        // Zero counts are refused with line numbers, as is alt_paths 0.
        let err = parse_scenario_config("spec K(8)\nload 0.2\nwavelengths 2, 0\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = parse_scenario_config("spec K(8)\nload 0.2\nalt_paths 0\n").unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        // alt_paths stays once-only.
        let err =
            parse_scenario_config("spec K(8)\nload 0.2\nalt_paths 2\nalt_paths 3\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::DuplicateKey { line: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn fault_schedule_key_sets_the_timeline_axis() {
        let config = parse_scenario_config(
            "spec DB(2,4)\nload 0.3\nfault_schedules none, fail(node 3)@32; recover@96\n",
        )
        .unwrap();
        assert_eq!(config.grid.fault_schedules.len(), 2);
        assert!(config.grid.fault_schedules[0].is_empty());
        assert_eq!(
            config.grid.fault_schedules[1].to_string(),
            "fail(node 3)@32; recover@96"
        );
        assert!(config.grid.fault_schedule_enabled());

        // Appending across lines works like the other list keys.
        let config = parse_scenario_config(
            "spec DB(2,4)\nload 0.3\nfault_schedule fail(node 1)@10\nfault_schedule fail(node 2)@20\n",
        )
        .unwrap();
        assert_eq!(config.grid.fault_schedules.len(), 2);

        // The default keeps the axis static and the restoration tier off.
        let config = parse_scenario_config("spec DB(2,4)\nload 0.3\n").unwrap();
        assert_eq!(config.grid.fault_schedules.len(), 1);
        assert!(!config.grid.fault_schedule_enabled());

        // Malformed schedules are refused with line numbers.
        let err = parse_scenario_config("spec DB(2,4)\nload 0.3\nfault_schedule fail(node)@\n")
            .unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 3, .. }), "{err}");
    }

    #[test]
    fn empty_axes_are_refused() {
        let err = parse_scenario_config("load 0.2\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::EmptyAxis { axis: "specs" }),
            "{err}"
        );
        let err = parse_scenario_config("spec K(8)\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::EmptyAxis { axis: "workloads" }),
            "{err}"
        );
        // A fully-commented file has no axes either.
        assert!(parse_scenario_config("# nothing\n\n").is_err());
    }

    #[test]
    fn split_top_level_respects_parentheses() {
        assert_eq!(
            split_top_level("SK(4,2,2), POPS(4,6),DB(2,5)"),
            vec!["SK(4,2,2)", "POPS(4,6)", "DB(2,5)"]
        );
        assert_eq!(split_top_level("uniform(0.2)"), vec!["uniform(0.2)"]);
        assert_eq!(split_top_level("a, b"), vec!["a", "b"]);
    }
}
