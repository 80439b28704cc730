//! Command-line front end of the parallel scenario engine.
//!
//! Runs a `(spec × workload × seed × fault pattern × fault schedule ×
//! wavelength count)` grid across worker threads and **streams** one row per
//! cell, in deterministic grid order, to stdout or a file, as a table, CSV
//! or JSON Lines:
//!
//! ```text
//! cargo run -p otis-bench --bin scenarios -- \
//!     --specs "SK(4,2,2),POPS(4,6),DB(2,5)" \
//!     --traffic "uniform(0.2),hotspot(0.4,0,0.2),perm(0.5,7)" \
//!     --slots 2000 --seeds 42 --faults 1 --threads 8 \
//!     --format jsonl --output rows.jsonl
//! ```
//!
//! A whole study can also live in one config file (see
//! `otis_net::config` for the grammar and `examples/sweep.scn` for a
//! checked-in example):
//!
//! ```text
//! cargo run -p otis-bench --bin scenarios -- --file examples/sweep.scn
//! ```
//!
//! Flags given *after* `--file` override what the file declares.
//! `--faults N` sweeps nested fault patterns `{}`, `{0}`, `{0,1}`, …,
//! `{0..N-1}`: fault ids name quotient groups for multi-OPS networks and
//! processors for point-to-point networks, and `N` may not exceed the
//! largest such domain among the specs.  `--fault-schedule` makes faults
//! dynamic — `"fail(node 3)@32;recover@96"` swaps the active kernel
//! mid-run and adds the restoration columns to every format.  Results are
//! independent of `--threads`; the flag only changes wall-clock time.
//!
//! Rows are delivered by `otis_net::engine::run_grid_streaming` while later
//! cells are still running — peak memory is bounded by the reorder window,
//! not the cell count, so grids of any size stream to disk.  Run metadata
//! (cell counts, timing) goes to stderr, keeping stdout machine-clean for
//! `--format csv` and `--format jsonl`.

use otis_net::{
    parse_scenario_config, run_grid_streaming, split_top_level, DemandSpec, FaultSchedule,
    NetworkSpec, OutputFormat, ScenarioGrid,
};
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: scenarios [--file STUDY.scn] [--specs S1,S2,...] [--traffic W1,W2,...]
                 [--loads L1,L2,...] [--seeds N1,N2,...] [--slots N]
                 [--faults N] [--fault-schedule SCH1,SCH2,...]
                 [--wavelengths W1,W2,...] [--alt-paths N]
                 [--threads N] [--format table|csv|jsonl] [--output FILE]

  --file     scenario config file declaring the whole study (specs,
             workloads, seeds, slots, faults, fault_schedules, wavelengths,
             alt_paths, threads, format, output); flags given after --file
             override it
  --specs    comma-separated network specs        (default SK(4,2,2),POPS(4,6),DB(2,5))
             (--spec is an alias)
  --traffic  comma-separated workload specs: stationary patterns
             uniform(0.3), perm(0.5,7), hotspot(0.4,0,0.2), transpose(0.5),
             bitrev(0.5), or demand processes poisson(0.3), poisson(0.3,0),
             onoff(0.6,16,48), mix(0.1,0.9,0.05), trace(file.trc)
             (--workload is an alias)
  --loads    comma-separated offered loads — sugar for uniform workloads
             (default 0.05,0.2,0.5,0.9; --traffic and --loads both set the
             workload axis, last one wins)
  --seeds    comma-separated random seeds         (default 42)
  --slots    slots simulated per cell             (default 2000)
  --faults   sweep 0..=N nested node faults       (default 0; ids are quotient
             groups for multi-OPS networks, processors for point-to-point;
             N is at most the largest such count among the specs)
  --fault-schedule
             comma-separated fault timelines to sweep, each a ';'-joined
             event list like \"fail(node 3)@32;recover@96\" (default none =
             static runs; any non-empty schedule swaps kernels mid-run and
             adds the restoration columns; 'none' names the static entry)
  --wavelengths
             comma-separated wavelength counts to sweep, each >= 1
             (default 1 = the legacy capacity-1 simulators; any count > 1
             adds the blocking-ratio / utilization / cost columns)
  --alt-paths
             routes tried per hop in wavelength mode: the primary plus
             N-1 Yen alternates (default 1; multi-OPS networks only —
             hot-potato deflection is already alternate routing)
  --threads  worker threads                       (default: available parallelism)
  --format   result format: table, csv or jsonl   (default table; undefined
             averages render '-' / empty / null respectively, never NaN)
  --output   stream results to FILE               (default stdout; rows stream
             as cells finish — memory stays bounded at any grid size)";

struct Args {
    grid: ScenarioGrid,
    threads: usize,
    format: OutputFormat,
    output: Option<String>,
}

/// A writer that creates (and truncates) its file only on the first write.
/// The engine's first sink write happens *after* the grid has validated and
/// bound, so a run that fails up front — a bad spec, an unbindable workload —
/// leaves an existing `--output` file from a previous run untouched.
struct LazyFile {
    path: String,
    file: Option<BufWriter<std::fs::File>>,
}

impl LazyFile {
    fn new(path: String) -> Self {
        LazyFile { path, file: None }
    }

    fn open(&mut self) -> io::Result<&mut BufWriter<std::fs::File>> {
        if self.file.is_none() {
            let file = std::fs::File::create(&self.path).map_err(|e| {
                io::Error::new(e.kind(), format!("cannot create '{}': {e}", self.path))
            })?;
            self.file = Some(BufWriter::new(file));
        }
        Ok(self.file.as_mut().expect("just opened"))
    }
}

impl Write for LazyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.open()?.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        match &mut self.file {
            Some(file) => file.flush(),
            None => Ok(()),
        }
    }
}

fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|item| {
            item.trim()
                .parse::<T>()
                .map_err(|_| format!("{flag}: cannot parse '{}'", item.trim()))
        })
        .collect()
}

/// Parses a spec list, splitting only on the commas between specs.
fn parse_specs(value: &str) -> Result<Vec<NetworkSpec>, String> {
    split_top_level(value)
        .into_iter()
        .map(|s| s.parse::<NetworkSpec>().map_err(|e| e.to_string()))
        .collect()
}

/// Parses a workload list, splitting only on the commas between workloads:
/// `"uniform(0.2),hotspot(0.4,0,0.2)"` is two workloads, not five.
fn parse_workloads(value: &str) -> Result<Vec<DemandSpec>, String> {
    split_top_level(value)
        .into_iter()
        .map(|w| w.parse::<DemandSpec>().map_err(|e| e.to_string()))
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut grid =
        ScenarioGrid::new(parse_specs("SK(4,2,2),POPS(4,6),DB(2,5)").expect("default specs parse"))
            .loads(&[0.05, 0.2, 0.5, 0.9])
            .seeds(&[42])
            .slots(2000);
    let mut threads = otis_net::default_thread_count();
    let mut format = OutputFormat::Table;
    let mut output: Option<String> = None;
    // Expanded once every flag is read: its bound depends on the specs.
    let mut faults: Option<u64> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--file" => {
                let text = std::fs::read_to_string(value)
                    .map_err(|e| format!("--file: cannot read '{value}': {e}"))?;
                let config = parse_scenario_config(&text).map_err(|e| format!("{value}: {e}"))?;
                // The file replaces the *whole* study — every flag given
                // before it is discarded, uniformly, so that a flag's fate
                // never depends on whether the file happens to pin that key.
                grid = config.grid;
                threads = config
                    .threads
                    .unwrap_or_else(otis_net::default_thread_count);
                format = config.format.unwrap_or_default();
                output = config.output;
                faults = None;
            }
            "--spec" | "--specs" => grid.specs = parse_specs(value)?,
            "--traffic" | "--workload" | "--workloads" => grid.workloads = parse_workloads(value)?,
            "--loads" => grid = grid.loads(&parse_list::<f64>(flag, value)?),
            "--seeds" => grid.seeds = parse_list(flag, value)?,
            "--slots" => {
                grid.options.slots = value
                    .parse()
                    .map_err(|_| format!("--slots: cannot parse '{value}'"))?
            }
            "--faults" => {
                faults = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--faults: cannot parse '{value}'"))?,
                )
            }
            "--fault-schedule" | "--fault-schedules" => {
                grid.fault_schedules = split_top_level(value)
                    .into_iter()
                    .map(|s| {
                        s.parse::<FaultSchedule>()
                            .map_err(|e| format!("{flag}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--wavelengths" => {
                let counts = parse_list::<usize>(flag, value)?;
                if counts.contains(&0) {
                    return Err("--wavelengths: counts must be at least 1".to_string());
                }
                grid.wavelengths = counts;
            }
            "--alt-paths" => {
                let alt_paths: usize = value
                    .parse()
                    .map_err(|_| format!("--alt-paths: cannot parse '{value}'"))?;
                if alt_paths == 0 {
                    return Err("--alt-paths: must be at least 1".to_string());
                }
                grid.options.alt_paths = alt_paths;
            }
            "--threads" => {
                threads = value
                    .parse()
                    .map_err(|_| format!("--threads: cannot parse '{value}'"))?
            }
            "--format" => {
                format = value
                    .parse::<OutputFormat>()
                    .map_err(|e| format!("--format: {e}"))?
            }
            "--output" => output = Some(value.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if let Some(faults) = faults {
        grid = grid
            .nested_faults(faults)
            .map_err(|e| format!("--faults: {e}"))?;
    }
    Ok(Some(Args {
        grid,
        threads,
        format,
        output,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("scenarios: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let grid = args.grid;
    // Metadata goes to stderr: stdout carries only the rows, so csv/jsonl
    // output stays machine-readable when piped.
    eprintln!(
        "# {} cells ({} specs x {} workloads x {} seeds x {} fault patterns x {} fault schedules x {} wavelength counts), {} slots each, {} threads, {} format{}{}",
        grid.cell_count(),
        grid.specs.len(),
        grid.workloads.len(),
        grid.seeds.len(),
        grid.fault_sets.len(),
        grid.fault_schedules.len(),
        grid.wavelengths.len(),
        grid.options.slots,
        args.threads,
        args.format,
        if grid.wavelength_layer_enabled() {
            format!(
                ", wavelength layer on (counts {:?}, {} route(s) per hop)",
                grid.wavelengths, grid.options.alt_paths
            )
        } else {
            String::new()
        },
        if grid.fault_schedule_enabled() {
            ", restoration columns on"
        } else {
            ""
        }
    );
    for warning in grid.warnings() {
        eprintln!("# warning: {warning}");
    }
    let writer: Box<dyn Write> = match &args.output {
        Some(path) => Box::new(LazyFile::new(path.clone())),
        None => Box::new(BufWriter::new(io::stdout())),
    };
    let mut sink = args.format.sink(writer);
    let started = Instant::now();
    match run_grid_streaming(&grid, args.threads, sink.as_mut()) {
        Ok(summary) => {
            let elapsed = started.elapsed().as_secs_f64();
            eprintln!(
                "# {} rows in {:.2}s wall-clock (peak reorder buffer: {} rows, \
                 kernels: {} built + {} repaired, {} mid-run swaps, {:.0} node-slots/s){}",
                summary.rows,
                elapsed,
                summary.peak_buffered,
                summary.kernels_built,
                summary.kernels_repaired,
                summary.kernel_swaps,
                summary.node_slots as f64 / elapsed.max(f64::EPSILON),
                args.output
                    .as_deref()
                    .map(|path| format!(", written to {path}"))
                    .unwrap_or_default()
            );
            // One machine-readable `key=value` perf line for harnesses (CI
            // greps it): same numbers as the prose postamble above.
            eprintln!(
                "# perf node_slots_per_sec={:.0} node_slots={} rows={} scratch_reuses={} \
                 kernels_built={} kernels_repaired={} kernel_swaps={} elapsed_s={:.3}",
                summary.node_slots as f64 / elapsed.max(f64::EPSILON),
                summary.node_slots,
                summary.rows,
                summary.scratch_reuses,
                summary.kernels_built,
                summary.kernels_repaired,
                summary.kernel_swaps,
                elapsed,
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("scenarios: {error}");
            ExitCode::FAILURE
        }
    }
}
