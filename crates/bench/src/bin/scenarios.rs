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
//! An invocation is a study in the grammar of `otis_net::config`: each flag
//! `--KEY VALUE` is the `.scn` line `KEY VALUE` (with `-` read as `_`), and
//! `--help` lists the keys.  The study starts from a built-in document
//! (`DEFAULT_STUDY`); `--file STUDY.scn` replaces the whole document, and
//! each later flag replaces the document's lines for its key's axis
//! (`--loads` and `--traffic` share the workload axis).  The assembled text
//! is parsed once by `otis_net::parse_scenario_config`, and an error names
//! the flag or file line it came from.  A whole study can live in one file
//! (`examples/sweep.scn` is a checked-in example):
//!
//! ```text
//! cargo run -p otis-bench --bin scenarios -- --file examples/sweep.scn
//! ```
//!
//! Results are independent of `--threads`; the flag only changes wall-clock
//! time.  Rows are delivered by `otis_net::engine::run_grid_streaming` while
//! later cells are still running — peak memory is bounded by the reorder
//! window, not the cell count, so grids of any size stream to disk.  Run
//! metadata (cell counts, timing) goes to stderr, keeping stdout
//! machine-clean for `--format csv` and `--format jsonl`.

use otis_net::{
    default_thread_count, line_key, parse_scenario_config, run_grid_streaming, study_key,
    worker_count, OutputFormat, ScenarioGrid, STUDY_KEYS,
};
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

/// The study run without `--file`; flags replace its lines key by key.
const DEFAULT_STUDY: &str = "\
specs SK(4,2,2), POPS(4,6), DB(2,5)
loads 0.05, 0.2, 0.5, 0.9
seeds 42
slots 2000";

/// The usage text, rendered from the study grammar's key table.
fn usage() -> String {
    let mut text = String::from(
        "usage: scenarios [--file STUDY.scn] [--KEY VALUE]...

Each flag --KEY VALUE is the .scn line `KEY VALUE` ('-' reads as '_'); list
values are comma-separated.  Later flags replace earlier values of their key.

  --file STUDY.scn
        start from this study file instead of the built-in study below
",
    );
    for key in &STUDY_KEYS {
        let flags: Vec<String> = key
            .spellings
            .iter()
            .map(|spelling| format!("--{}", spelling.replace('_', "-")))
            .collect();
        text += &format!("  {} {}\n", flags.join(" | "), key.value);
        for line in key.help.lines() {
            text += &format!("        {line}\n");
        }
    }
    text += "\nWithout --file the study starts as:\n";
    for line in DEFAULT_STUDY.lines() {
        text += &format!("    {line}\n");
    }
    text
}

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

/// The lines of `text`, each labelled with where it came from.
fn labelled(source: &str, text: &str) -> Vec<(String, String)> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (format!("{source}: line {}", i + 1), line.to_string()))
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    // The study text, line by line, each with its origin for error
    // messages: a line of the built-in study or of the file, or a flag.
    let mut source = "built-in study".to_string();
    let mut lines = labelled(&source, DEFAULT_STUDY);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        if flag == "--file" {
            let text = std::fs::read_to_string(value)
                .map_err(|e| format!("--file: cannot read '{value}': {e}"))?;
            // The file replaces the *whole* study, so a flag given before it
            // never survives by accident of the file not naming its key.
            source = value.clone();
            lines = labelled(&source, &text);
            continue;
        }
        let key = flag
            .strip_prefix("--")
            .and_then(study_key)
            .ok_or_else(|| format!("unknown flag '{flag}'"))?;
        if value.contains(['\n', '#']) {
            return Err(format!(
                "{flag}: a value cannot hold '#' or a line break (a .scn line could not)"
            ));
        }
        lines.retain(|(_, line)| !line_key(line).is_some_and(|k| k.same_axis(key)));
        lines.push((flag.clone(), format!("{} {value}", key.name())));
    }
    let text: Vec<&str> = lines.iter().map(|(_, line)| line.as_str()).collect();
    let config = parse_scenario_config(&text.join("\n")).map_err(|e| {
        let origin = e.line().and_then(|line| lines.get(line - 1));
        let label = origin.map_or(&source, |(label, _)| label);
        format!("{label}: {}", e.message())
    })?;
    Ok(Some(Args {
        grid: config.grid,
        threads: config.threads.unwrap_or_else(default_thread_count),
        format: config.format.unwrap_or_default(),
        output: config.output,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("scenarios: {message}");
            eprint!("{}", usage());
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
        worker_count(args.threads, grid.cell_count()),
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
                 kernels: {} built + {} repaired, at most {} live, {} mid-run swaps, \
                 {:.0} node-slots/s){}",
                summary.rows,
                elapsed,
                summary.peak_buffered,
                summary.kernels_built,
                summary.kernels_repaired,
                summary.peak_live_kernels,
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
                 kernels_built={} kernels_repaired={} kernel_swaps={} elapsed_s={:.3} \
                 peak_live_kernels={}",
                summary.node_slots as f64 / elapsed.max(f64::EPSILON),
                summary.node_slots,
                summary.rows,
                summary.scratch_reuses,
                summary.kernels_built,
                summary.kernels_repaired,
                summary.kernel_swaps,
                elapsed,
                summary.peak_live_kernels,
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("scenarios: {error}");
            ExitCode::FAILURE
        }
    }
}
