//! The study grammar: one declarative text describes an entire
//! `(spec × workload × seed × fault × schedule × wavelength)` study.
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
//! [`STUDY_KEYS`] is the one table of keys: their spellings, values and
//! defaults (`scenarios --help` prints it).  Key lookups ignore case and
//! read `-` as `_`.  List keys append across lines; scalar keys may appear
//! once.  The workload grammar itself lives in [`otis_sim::workload`].
//!
//! The `scenarios` binary speaks the same grammar: each flag `--KEY VALUE`
//! is the line `KEY VALUE`, so a study given as flags and the same study
//! given as a `.scn` file run identically.
//!
//! [`parse_scenario_config`] returns a ready-to-run [`ScenarioGrid`] plus
//! the optional thread count, output format and output path; every
//! malformed line is a typed [`ConfigError`] carrying its line number.
//! Results stream row by row (`otis_net::engine::run_grid_streaming`), so a
//! study's memory use does not grow with its cell count.

use crate::engine::{ScenarioGrid, MAX_THREADS};
use crate::sink::OutputFormat;
use crate::spec::NetworkSpec;
use otis_sim::{
    check_alt_paths, check_wavelength_count, DemandSpec, FaultSchedule, TrafficPattern,
};
use std::fmt;

/// What a key sets.  `Loads` and `Workloads` share the workload axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Specs,
    Workloads,
    Loads,
    Seeds,
    Slots,
    Faults,
    FaultSchedules,
    Wavelengths,
    AltPaths,
    Threads,
    Format,
    Output,
}

/// One key of the study grammar: the `.scn` line `KEY VALUE`, or the
/// `scenarios` flag `--KEY VALUE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyKey {
    kind: Kind,
    /// Every accepted spelling, the canonical one first.
    pub spellings: &'static [&'static str],
    /// Placeholder for the value in usage text.
    pub value: &'static str,
    /// What the key declares, and its default.
    pub help: &'static str,
}

impl StudyKey {
    /// The canonical spelling.
    pub fn name(&self) -> &'static str {
        self.spellings[0]
    }

    /// Whether the two keys set the same axis of the study: true for a key
    /// and itself, and for `loads` and `workloads`.
    pub fn same_axis(&self, other: &StudyKey) -> bool {
        let axis = |kind| match kind {
            Kind::Loads => Kind::Workloads,
            kind => kind,
        };
        axis(self.kind) == axis(other.kind)
    }
}

/// Every key of the study grammar.
pub const STUDY_KEYS: [StudyKey; 12] = [
    StudyKey {
        kind: Kind::Specs,
        spellings: &["specs", "spec"],
        value: "S1,S2,...",
        help: "network specs, e.g. SK(4,2,2), POPS(4,6), DB(2,5)",
    },
    StudyKey {
        kind: Kind::Workloads,
        spellings: &["workloads", "workload", "traffic"],
        value: "W1,W2,...",
        help: "workload specs: stationary patterns uniform(0.3), perm(0.5,7),\n\
               hotspot(0.4,0,0.2), transpose(0.5), bitrev(0.5), or demand\n\
               processes poisson(0.3), poisson(0.3,0), onoff(0.6,16,48),\n\
               mix(0.1,0.9,0.05), trace(file.trc)",
    },
    StudyKey {
        kind: Kind::Loads,
        spellings: &["loads", "load"],
        value: "L1,L2,...",
        help: "offered loads, sugar for uniform(L) workloads (same axis as\n\
               workloads)",
    },
    StudyKey {
        kind: Kind::Seeds,
        spellings: &["seeds", "seed"],
        value: "N1,N2,...",
        help: "random seeds",
    },
    StudyKey {
        kind: Kind::Slots,
        spellings: &["slots"],
        value: "N",
        help: "slots simulated per cell",
    },
    StudyKey {
        kind: Kind::Faults,
        spellings: &["faults"],
        value: "N",
        help: "sweep the nested fault patterns {}, {0}, ..., {0..N-1} (default\n\
               0); ids are quotient groups for multi-OPS networks, processors\n\
               for point-to-point; N is at most the largest such count among\n\
               the specs, and at most 2895 (the patterns hold N(N+1)/2 ids)",
    },
    StudyKey {
        kind: Kind::FaultSchedules,
        spellings: &["fault_schedules", "fault_schedule"],
        value: "SCH1,SCH2,...",
        help: "fault timelines, each a ';'-joined event list like\n\
               fail(node 3)@32;recover@96 ('none' is the static entry and the\n\
               default); a non-empty schedule swaps kernels mid-run and adds\n\
               the restoration columns",
    },
    StudyKey {
        kind: Kind::Wavelengths,
        spellings: &["wavelengths", "wavelength"],
        value: "W1,W2,...",
        help: "wavelength counts per channel, each in 1..=4096 (default 1, the\n\
               capacity-1 simulators); a count above 1 adds the blocking-ratio,\n\
               utilization and cost columns",
    },
    StudyKey {
        kind: Kind::AltPaths,
        spellings: &["alt_paths"],
        value: "N",
        help: "routes tried per hop in wavelength mode, in 1..=64: the primary\n\
               plus N-1 Yen alternates (default 1; multi-OPS networks only)",
    },
    StudyKey {
        kind: Kind::Threads,
        spellings: &["threads"],
        value: "N",
        help: "worker threads, at most 1024 (default: available parallelism;\n\
               results do not depend on it)",
    },
    StudyKey {
        kind: Kind::Format,
        spellings: &["format"],
        value: "table|csv|jsonl",
        help: "result format (default table); undefined averages render '-',\n\
               an empty field or null, never NaN",
    },
    StudyKey {
        kind: Kind::Output,
        spellings: &["output"],
        value: "FILE",
        help: "file the rows stream to as cells finish (default stdout)",
    },
];

/// The key a spelling names, ignoring case and reading `-` as `_`:
/// `"fault-schedule"`, `"Traffic"` and `"specs"` all name a key.
pub fn study_key(spelling: &str) -> Option<&'static StudyKey> {
    let spelling = spelling.to_ascii_lowercase().replace('-', "_");
    STUDY_KEYS
        .iter()
        .find(|key| key.spellings.contains(&spelling.as_str()))
}

/// The key token and the trimmed value of one line, or `None` for a blank
/// or comment-only line.  The value is empty when the line has none.
fn split_line(raw: &str) -> Option<(&str, &str)> {
    let content = raw.split('#').next().unwrap_or("").trim();
    if content.is_empty() {
        return None;
    }
    Some(match content.split_once(char::is_whitespace) {
        Some((key, value)) => (key, value.trim()),
        None => (content, ""),
    })
}

/// The key one line of study text sets, or `None` for a blank or comment
/// line and for an unknown key (which [`parse_scenario_config`] reports).
pub fn line_key(raw: &str) -> Option<&'static StudyKey> {
    split_line(raw).and_then(|(key, _)| study_key(key))
}

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

/// Why a scenario config file could not be parsed.  Every variant but
/// [`ConfigError::EmptyAxis`] carries the 1-based line number of the
/// offending line.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A line has a key but no value.
    MissingValue {
        /// 1-based line number.
        line: usize,
        /// The key without a value.
        key: String,
    },
    /// A line's key is not in [`STUDY_KEYS`].
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unrecognised key.
        key: String,
    },
    /// A scalar key (`slots`, `faults`, `threads`, ...) appeared twice.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A value did not parse or is out of range; `detail` is the
    /// underlying message.
    Value {
        /// 1-based line number.
        line: usize,
        /// The key whose value failed.
        key: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// The study declares no specs or no workloads — a zero-cell study is
    /// almost certainly a mistake, so it is refused.
    EmptyAxis {
        /// Which axis is empty (`"specs"` or `"workloads"`).
        axis: &'static str,
    },
}

impl ConfigError {
    /// The 1-based line the error is about; `None` for an empty axis,
    /// which is about the whole study.
    pub fn line(&self) -> Option<usize> {
        match self {
            ConfigError::MissingValue { line, .. }
            | ConfigError::UnknownKey { line, .. }
            | ConfigError::DuplicateKey { line, .. }
            | ConfigError::Value { line, .. } => Some(*line),
            ConfigError::EmptyAxis { .. } => None,
        }
    }

    /// The error without its line number, for callers that name the line
    /// their own way (the `scenarios` CLI names the flag it came from).
    pub fn message(&self) -> String {
        match self {
            ConfigError::MissingValue { key, .. } => format!("key '{key}' has no value"),
            ConfigError::UnknownKey { key, .. } => {
                let supported: Vec<String> =
                    STUDY_KEYS.iter().map(|k| k.spellings.join("/")).collect();
                format!("unknown key '{key}' (supported: {})", supported.join(", "))
            }
            ConfigError::DuplicateKey { key, .. } => format!("key '{key}' was already set"),
            ConfigError::Value { key, detail, .. } => format!("bad {key} value: {detail}"),
            ConfigError::EmptyAxis { axis } => {
                format!("the study declares no {axis}: the grid would have zero cells")
            }
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line() {
            Some(line) => write!(f, "line {line}: {}", self.message()),
            None => f.write_str(&self.message()),
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
fn split_top_level(value: &str) -> Vec<&str> {
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

/// Parses the study grammar (see the module docs) into a ready-to-run grid.
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
        let Some((key, value)) = split_line(raw) else {
            continue;
        };
        let Some(study_key) = study_key(key) else {
            return Err(ConfigError::UnknownKey {
                line,
                key: key.to_string(),
            });
        };
        if value.is_empty() {
            return Err(ConfigError::MissingValue {
                line,
                key: key.to_string(),
            });
        }
        let value_error = |detail: String| ConfigError::Value {
            line,
            key: key.to_string(),
            detail,
        };
        // Parses and installs a once-only numeric key (`slots`, `faults`,
        // `alt_paths`, `threads`), refusing repeats.
        let scalar = |slot: &mut Option<u64>, raw: &str| -> Result<(), ConfigError> {
            let parsed = raw
                .parse::<u64>()
                .map_err(|_| value_error(format!("cannot parse '{raw}' as a count")))?;
            set_once(slot, parsed, line, key)
        };
        match study_key.kind {
            Kind::Specs => {
                for entry in split_top_level(value) {
                    specs.push(
                        entry
                            .parse::<NetworkSpec>()
                            .map_err(|e| value_error(e.to_string()))?,
                    );
                }
            }
            Kind::Workloads => {
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
            Kind::Loads => {
                for entry in split_top_level(value) {
                    let load = entry
                        .parse::<f64>()
                        .map_err(|_| value_error(format!("cannot parse '{entry}' as a load")))?;
                    let spec = DemandSpec::Pattern(TrafficPattern::Uniform { load });
                    spec.validate().map_err(|e| value_error(e.to_string()))?;
                    workloads.push(spec);
                }
            }
            Kind::Seeds => {
                for entry in split_top_level(value) {
                    seeds.push(
                        entry.parse::<u64>().map_err(|_| {
                            value_error(format!("cannot parse '{entry}' as a seed"))
                        })?,
                    );
                }
            }
            Kind::FaultSchedules => {
                for entry in split_top_level(value) {
                    fault_schedules.push(
                        entry
                            .parse::<FaultSchedule>()
                            .map_err(|e| value_error(e.to_string()))?,
                    );
                }
            }
            Kind::Wavelengths => {
                for entry in split_top_level(value) {
                    let count = entry.parse::<usize>().map_err(|_| {
                        value_error(format!("cannot parse '{entry}' as a wavelength count"))
                    })?;
                    wavelengths.push(
                        check_wavelength_count(count).map_err(|e| value_error(e.to_string()))?,
                    );
                }
            }
            Kind::Slots => scalar(&mut slots, value)?,
            Kind::Faults => {
                scalar(&mut faults, value)?;
                faults_line = line;
            }
            Kind::AltPaths => {
                scalar(&mut alt_paths, value)?;
                if let Some(count) = alt_paths {
                    check_alt_paths(usize::try_from(count).unwrap_or(usize::MAX))
                        .map_err(|e| value_error(e.to_string()))?;
                }
            }
            Kind::Threads => {
                scalar(&mut threads, value)?;
                if threads.is_some_and(|t| t > MAX_THREADS as u64) {
                    return Err(value_error(format!(
                        "threads must be at most {MAX_THREADS}"
                    )));
                }
            }
            Kind::Format => {
                let parsed = value
                    .parse::<OutputFormat>()
                    .map_err(|e| value_error(e.to_string()))?;
                set_once(&mut format, parsed, line, key)?;
            }
            Kind::Output => set_once(&mut output, value.to_string(), line, key)?,
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
        let rows = crate::engine::run_grid(grid, 2).unwrap();
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
    fn thread_counts_above_the_bound_are_refused() {
        let study = |threads: &str| format!("spec K(8)\nload 0.2\nthreads {threads}\n");
        let config = parse_scenario_config(&study(&MAX_THREADS.to_string())).unwrap();
        assert_eq!(config.threads, Some(MAX_THREADS));
        for threads in [(MAX_THREADS + 1).to_string(), u64::MAX.to_string()] {
            let err = parse_scenario_config(&study(&threads)).unwrap_err();
            assert!(matches!(err, ConfigError::Value { line: 3, .. }), "{err}");
            assert!(
                err.to_string().contains(&format!("at most {MAX_THREADS}")),
                "{err}"
            );
        }
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
            crate::engine::run_grid(&grid, 2).unwrap()
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
        // So is alt_paths past MAX_ALT_PATHS, up to the u64 boundary.
        for count in ["65", "3000", "18446744073709551615"] {
            let err = parse_scenario_config(&format!("spec K(8)\nload 0.2\nalt_paths {count}\n"))
                .unwrap_err();
            assert!(matches!(err, ConfigError::Value { line: 3, .. }), "{err}");
            assert!(err.to_string().contains("at most 64"), "{err}");
        }
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
    fn one_table_names_every_key() {
        // Every spelling names exactly one key, whatever its case or dashes.
        let mut spellings: Vec<&str> = STUDY_KEYS
            .iter()
            .flat_map(|k| k.spellings)
            .copied()
            .collect();
        let count = spellings.len();
        spellings.sort_unstable();
        spellings.dedup();
        assert_eq!(spellings.len(), count, "a spelling names two keys");
        for key in &STUDY_KEYS {
            for spelling in key.spellings {
                assert_eq!(study_key(spelling), Some(key));
                assert_eq!(
                    study_key(&spelling.replace('_', "-").to_uppercase()),
                    Some(key)
                );
            }
        }
        assert_eq!(study_key("traffic"), study_key("workloads"));
        assert!(study_key("loads")
            .unwrap()
            .same_axis(study_key("workload").unwrap()));
        assert!(!study_key("seeds")
            .unwrap()
            .same_axis(study_key("specs").unwrap()));
        assert_eq!(study_key("colour"), None);
        assert_eq!(
            line_key("  fault-schedule none  # static"),
            study_key("fault_schedules")
        );
        assert_eq!(line_key("# specs K(8)"), None);

        // The unknown-key message lists every spelling of the table.
        let err = parse_scenario_config("colour blue\n").unwrap_err();
        for spelling in &spellings {
            assert!(err.to_string().contains(spelling), "{err}");
        }
        // The wavelength, alternate-route and thread helps quote the real
        // bounds.
        let help = study_key("wavelengths").unwrap().help;
        assert!(
            help.contains(&format!("1..={}", otis_sim::MAX_WAVELENGTHS)),
            "{help}"
        );
        let help = study_key("alt_paths").unwrap().help;
        assert!(
            help.contains(&format!("1..={}", otis_sim::MAX_ALT_PATHS)),
            "{help}"
        );
        let help = study_key("threads").unwrap().help;
        assert!(help.contains(&format!("at most {MAX_THREADS}")), "{help}");
    }

    #[test]
    fn every_flag_spelling_is_a_file_spelling() {
        let config = parse_scenario_config(
            "Spec K(8)\ntraffic uniform(0.2)\nfault-schedule fail(node 1)@5\nalt-paths 2\n",
        )
        .unwrap();
        assert_eq!(config.grid.workloads.len(), 1);
        assert_eq!(config.grid.fault_schedules.len(), 1);
        assert_eq!(config.grid.options.alt_paths, 2);
        // Errors name the key as the line wrote it.
        let err = parse_scenario_config("spec K(8)\nload 0.2\nwavelength 4097\n").unwrap_err();
        assert!(matches!(err, ConfigError::Value { line: 3, .. }), "{err}");
        assert_eq!(err.line(), Some(3));
        assert!(err.message().starts_with("bad wavelength value: "), "{err}");
        assert!(err.to_string().contains("at most 4096"), "{err}");
        assert_eq!(ConfigError::EmptyAxis { axis: "specs" }.line(), None);
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
