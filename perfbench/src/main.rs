//! Runs one benchmark workload and prints its result as the last line of
//! standard output.
//!
//! ```text
//! perfbench --workload sweep --seed 42 --seconds 10 --trace 0
//! perfbench --record
//! ```
//!
//! `--trace 0` times the workload with tracing off and prints the
//! end-to-end metrics; `--trace 1` runs the traced path and prints the
//! per-layer metrics.  `--record` rewrites the expected outputs under
//! `perfbench/expected` at the default seed.  Run it from the repository
//! root: the sweep trace and the span dumps go to `perfbench/work`.

use otis_net::{OutputFormat, ScenarioGrid};
use perfbench::check::{expected_dir, render, run_engine, Output, Tally};
use perfbench::cpu;
use perfbench::metrics::{self, medians, result_line, Fastest, TIMED_EXPERIMENTS};
use perfbench::paper;
use perfbench::spans::Tracer;
use perfbench::traced::{self, fresh_prepares, layer_metrics, run_traced, time_sink};
use perfbench::workload::{
    setup_block, write_trace, Workload, DEFAULT_SEED, SWEEP_SLOTS, SWEEP_TRACE,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every timed loop runs at least this many times, however long it takes.
const MIN_REPS: usize = 3;
/// Time spent repeating the set-up block after each timed repetition.
const SETUP_SLICE: Duration = Duration::from_millis(100);
/// Where span dumps go, relative to the repository root.
const WORK_DIR: &str = "perfbench/work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sweep|large_n|resilience|paper> --seed <n> --seconds <n> \
     --trace <0|1>\n       perfbench --record";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record"] {
        return match record() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::Paper => Ok(run_paper(&args)),
        workload => run_grid_workload(workload, &args),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The file the expected rows of a grid workload are recorded in.
fn expected_file(workload: Workload, format: OutputFormat) -> std::path::PathBuf {
    let ext = match format {
        OutputFormat::Table => "txt",
        OutputFormat::Csv => "csv",
        OutputFormat::JsonLines => "jsonl",
    };
    expected_dir().join(format!("{}.{ext}", workload.name()))
}

/// The workload's grid; `sweep` first writes its seeded trace.
fn grid_inputs(workload: Workload, seed: u64) -> std::io::Result<(ScenarioGrid, OutputFormat)> {
    if workload == Workload::Sweep {
        write_trace(Path::new(SWEEP_TRACE), seed, SWEEP_SLOTS)?;
    }
    Ok(workload
        .grid(seed, SWEEP_TRACE)
        .expect("grid workloads have a grid"))
}

/// Rewrites every expected output at the default seed.
fn record() -> std::io::Result<()> {
    fs::create_dir_all(expected_dir())?;
    for workload in Workload::ALL {
        if workload == Workload::Paper {
            let dir = expected_dir().join("paper");
            fs::create_dir_all(&dir)?;
            for id in paper::experiment_ids() {
                fs::write(
                    dir.join(format!("{id}.txt")),
                    otis_bench::run_experiment(id),
                )?;
            }
            continue;
        }
        let (grid, format) = grid_inputs(workload, DEFAULT_SEED)?;
        let text = render(&grid, format).map_err(std::io::Error::other)?;
        fs::write(expected_file(workload, format), text)?;
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`), in MB.  Read after the first
/// repetition: later repetitions only add allocator fragmentation, which
/// varies with how many fit in the run.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the set-up block `f` at least once and until [`SETUP_SLICE`] has
/// passed, recording the step times it returns in `best`; a block that
/// failed returns `None`.  Called before every timed repetition but the
/// first, right after the CPU turn, so set-up is sampled across the whole
/// run like the workload itself, and the timed pass does not start on a
/// CPU whose caches hold nothing of it.
fn setup_slice(best: &mut Fastest, mut f: impl FnMut() -> Option<Vec<f64>>) {
    let start = Instant::now();
    loop {
        if let Some(steps) = f() {
            best.record(&steps);
        }
        if start.elapsed() >= SETUP_SLICE {
            break;
        }
    }
}

/// Pins the calling thread to the CPU whose turn repetition `rep` is.
fn pin_turn(cpus: &[usize], rep: usize) {
    if !cpus.is_empty() {
        cpu::pin(cpus[rep % cpus.len()]);
    }
}

/// The end-to-end metrics from the fastest segments of the timed passes
/// and of the set-up blocks.
fn end_to_end_values(passes: &Fastest, setups: &Fastest, rss: f64) -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("wall_s".to_string(), passes.total()),
        ("first_row_s".to_string(), passes.first()),
        ("setup_s".to_string(), setups.total()),
        ("peak_rss_mb".to_string(), rss),
    ])
}

fn run_grid_workload(workload: Workload, args: &Args) -> std::io::Result<String> {
    let (grid, format) = grid_inputs(workload, args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut tally = Tally::new(grid.cell_count());
    let mut outputs: Vec<Output> = Vec::new();
    let mut reference: Option<Output> = None;
    let cpus = cpu::allowed();
    let mut reps = 0;
    let mut passes = Fastest::default();
    let mut samples: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut last_tracer = None;
    let mut rss = 0.0;
    let mut setups = Fastest::default();

    while reps < MIN_REPS || start.elapsed() < budget {
        pin_turn(&cpus, reps);
        if reps > 0 && !args.trace {
            setup_slice(&mut setups, || {
                let steps = setup_block(&grid).ok();
                if steps.is_none() {
                    tally.fail_all();
                }
                steps
            });
        }
        let run = match run_engine(&grid, format) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", workload.name());
                tally.fail_all();
                break;
            }
        };
        if reps == 0 {
            rss = peak_rss_mb();
        }
        reps += 1;
        passes.record(&run.segments);
        outputs.push(run.output);
        if args.trace {
            let mut tracer = Tracer::default();
            let traced = run_traced(&grid, format, &mut tracer).map_err(std::io::Error::other)?;
            for other in [
                OutputFormat::Csv,
                OutputFormat::JsonLines,
                OutputFormat::Table,
            ] {
                if other != format {
                    time_sink(&grid, &traced.rows, other, &mut tracer)?;
                }
            }
            let fresh = fresh_prepares(&grid).map_err(std::io::Error::other)?;
            let mut values = layer_metrics(&tracer, &traced, &fresh);
            let layers = values[traced::ROOT] - values["trace.unattributed_s"];
            values.insert(
                "net.engine.overhead_s".into(),
                run.wall.as_secs_f64() - layers,
            );
            values.insert("net.sink.bytes".into(), traced.output.bytes as f64);
            for (name, value) in [
                ("kernels_built", run.summary.kernels_built),
                ("kernels_repaired", run.summary.kernels_repaired),
                ("scratch_reuses", run.summary.scratch_reuses),
                ("peak_buffered", run.summary.peak_buffered),
            ] {
                values.insert(format!("net.engine.{name}"), value as f64);
            }
            samples.push(values);
            if let Some(previous) = &reference {
                tally.compare(&traced.output, previous);
            }
            reference = Some(traced.output);
            last_tracer = Some(tracer);
        }
    }

    // The reference every timed run must match: the traced path's rows,
    // which in turn must match the recorded rows at the default seed.
    let reference = match reference {
        Some(reference) => reference,
        None => {
            run_traced(&grid, format, &mut Tracer::default())
                .map_err(std::io::Error::other)?
                .output
        }
    };
    for output in &outputs {
        tally.compare(output, &reference);
    }
    if args.seed == DEFAULT_SEED {
        let text = fs::read_to_string(expected_file(workload, format))?;
        let expected = Output::from_text(&text, reference.header.len());
        tally.compare(&reference, &expected);
    }
    for cell in tally.failed_cells() {
        eprintln!(
            "perfbench: {} cell {cell} failed its checks",
            workload.name()
        );
    }

    if let Some(tracer) = last_tracer {
        write_spans(&tracer, workload, args.seed);
        let line = result_line(
            tally.correct(),
            tally.attempted(),
            tally.failed(),
            &metrics::per_layer(),
            &medians(&samples),
        );
        return Ok(line);
    }
    Ok(result_line(
        tally.correct(),
        tally.attempted(),
        tally.failed(),
        &metrics::end_to_end(),
        &end_to_end_values(&passes, &setups, rss),
    ))
}

/// Writes the spans of the last traced pass to the work directory.  A
/// failure to write them is reported but does not fail the run.
fn write_spans(tracer: &Tracer, workload: Workload, seed: u64) {
    let path = Path::new(WORK_DIR).join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let written = fs::create_dir_all(WORK_DIR)
        .and_then(|()| fs::File::create(&path))
        .and_then(|file| tracer.write_jsonl(std::io::BufWriter::new(file)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn run_paper(args: &Args) -> String {
    let ids = paper::experiment_ids();
    let expected: Vec<Option<String>> =
        ids.iter().map(|id| paper::expected_text(id).ok()).collect();
    let mut failed = vec![false; ids.len()];
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let cpus = cpu::allowed();
    let mut reps = 0;
    let mut passes = Fastest::default();
    let mut samples = Vec::new();
    let mut last_tracer = None;
    let mut rss = 0.0;
    let grids = paper::setup_grids();
    let mut setups = Fastest::default();
    let mut setup_failed = false;

    while reps < MIN_REPS || start.elapsed() < budget {
        pin_turn(&cpus, reps);
        if reps > 0 && !args.trace {
            setup_slice(&mut setups, || {
                let steps: Result<Vec<Vec<f64>>, _> = grids.iter().map(setup_block).collect();
                setup_failed |= steps.is_err();
                steps.ok().map(|steps| steps.concat())
            });
        }
        let mut tracer = Tracer::default();
        let root = tracer.enter(traced::ROOT);
        let mut segments = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            let experiment = Instant::now();
            let metric = TIMED_EXPERIMENTS
                .iter()
                .find(|(e, _)| e == id)
                .map_or("bench.reproduce.other_s", |(_, m)| m);
            let text = if args.trace {
                tracer.span(metric, || otis_bench::run_experiment(id))
            } else {
                otis_bench::run_experiment(id)
            };
            segments.push(experiment.elapsed().as_secs_f64());
            failed[i] |= expected[i].as_deref() != Some(text.as_str());
        }
        tracer.exit(root);
        if reps == 0 {
            rss = peak_rss_mb();
        }
        reps += 1;
        passes.record(&segments);
        if args.trace {
            let pairs = paper::cor1_pairs();
            tracer.span("graphs.isomorphism_s", || {
                for (a, b) in &pairs {
                    let (a, b) = (a.topology(), b.topology());
                    std::hint::black_box(otis_graphs::are_isomorphic(
                        a.digraph().expect("II is point-to-point"),
                        b.digraph().expect("KG is point-to-point"),
                    ));
                }
            });
            let networks = paper::cor1_networks();
            tracer.span("core.verify_s", || {
                for network in &networks {
                    std::hint::black_box(network.verify().is_ok());
                }
            });
            samples.push(traced::span_metrics(&tracer));
            last_tracer = Some(tracer);
        }
    }
    for (id, _) in ids.iter().zip(&failed).filter(|(_, &f)| f) {
        eprintln!("perfbench: experiment {id} differs from its recorded report");
    }
    let failed_count = failed.iter().filter(|&&f| f).count();

    if let Some(tracer) = last_tracer {
        write_spans(&tracer, Workload::Paper, args.seed);
        return result_line(
            failed_count == 0,
            ids.len(),
            failed_count,
            &metrics::per_layer(),
            &medians(&samples),
        );
    }
    result_line(
        failed_count == 0 && !setup_failed,
        ids.len(),
        failed_count,
        &metrics::end_to_end(),
        &end_to_end_values(&passes, &setups, rss),
    )
}
