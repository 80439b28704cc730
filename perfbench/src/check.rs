//! Output checking: per-line hashes of a sink's output, the sink wrapper
//! that times the first row and checks message conservation, and the
//! per-cell failure tally.

use otis_net::{
    run_grid_streaming, CsvSink, JsonLinesSink, NetworkError, OutputFormat, RowSink, ScenarioGrid,
    ScenarioRow, StreamSummary, TableSink,
};
use otis_sim::SimMetrics;
use std::cell::RefCell;
use std::io::{self, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Where the expected outputs live: `perfbench/expected`.
pub fn expected_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of one line, without its newline.
fn line_hash(line: &[u8]) -> u64 {
    line.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The per-line hashes of a text, as [`HashingWriter`] would record them.
fn text_hashes(text: &str) -> Vec<u64> {
    let text = text.strip_suffix('\n').unwrap_or(text);
    if text.is_empty() {
        return Vec::new();
    }
    text.split('\n').map(|l| line_hash(l.as_bytes())).collect()
}

#[derive(Debug, Default)]
struct Lines {
    hashes: Vec<u64>,
    current: u64,
    open: bool,
    bytes: u64,
}

/// An in-memory writer that keeps one hash per completed line and a byte
/// count, never the text.  Clones share one buffer, so a sink can own one
/// handle while the caller reads the other.
#[derive(Debug, Clone, Default)]
struct HashingWriter(Rc<RefCell<Lines>>);

impl HashingWriter {
    /// Hashes of the lines completed so far.
    fn hashes(&self) -> Vec<u64> {
        self.0.borrow().hashes.clone()
    }

    /// Number of lines completed so far.
    fn line_count(&self) -> usize {
        self.0.borrow().hashes.len()
    }

    /// Bytes written so far.
    fn bytes(&self) -> u64 {
        self.0.borrow().bytes
    }
}

impl Write for HashingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut lines = self.0.borrow_mut();
        lines.bytes += buf.len() as u64;
        for &b in buf {
            let h = if lines.open {
                lines.current
            } else {
                FNV_OFFSET
            };
            if b == b'\n' {
                lines.hashes.push(h);
                lines.open = false;
            } else {
                lines.current = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                lines.open = true;
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Message conservation: every injected message was delivered, dropped or
/// is still in flight.
pub fn conserves(metrics: &SimMetrics) -> bool {
    metrics.injected == metrics.delivered + metrics.dropped + metrics.in_flight
}

/// Wraps one of the engine's built-in sinks: records when each row
/// arrived and which rows break conservation, then forwards every call.
pub struct CheckedSink {
    inner: Box<dyn RowSink>,
    out: HashingWriter,
    start: Instant,
    row_times: Vec<Duration>,
    header_lines: usize,
    broken: Vec<usize>,
}

impl CheckedSink {
    /// A checked sink rendering `format` into an in-memory hashing writer;
    /// row times count from now.
    pub fn new(format: OutputFormat) -> Self {
        let out = HashingWriter::default();
        CheckedSink {
            inner: format.sink(out.clone()),
            out,
            start: Instant::now(),
            row_times: Vec::new(),
            header_lines: 0,
            broken: Vec::new(),
        }
    }

    /// The checked output so far.
    pub fn output(&self) -> Output {
        let hashes = self.out.hashes();
        let header = self.header_lines.min(hashes.len());
        Output {
            header: hashes[..header].to_vec(),
            rows: hashes[header..].to_vec(),
            broken: self.broken.clone(),
            bytes: self.out.bytes(),
        }
    }
}

impl RowSink for CheckedSink {
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        self.inner.on_start(grid)?;
        self.header_lines = self.out.line_count();
        Ok(())
    }

    fn on_row(&mut self, index: usize, row: ScenarioRow) -> io::Result<()> {
        self.row_times.push(self.start.elapsed());
        if !conserves(&row.metrics) {
            self.broken.push(index);
        }
        self.inner.on_row(index, row)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// What a run wrote: the hashes of its header and row lines, the rows that
/// broke conservation and the byte count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Hashes of the lines the sink wrote before the first row.
    pub header: Vec<u64>,
    /// Hashes of the row lines, one per cell in grid order.
    pub rows: Vec<u64>,
    /// Indices of rows that broke message conservation.
    pub broken: Vec<usize>,
    /// Bytes the sink wrote.
    pub bytes: u64,
}

impl Output {
    /// Splits a recorded sink text into header and row hashes.
    pub fn from_text(text: &str, header_lines: usize) -> Output {
        let mut rows = text_hashes(text);
        let header = rows.drain(..header_lines.min(rows.len())).collect();
        Output {
            header,
            rows,
            broken: Vec::new(),
            bytes: text.len() as u64,
        }
    }
}

/// One untraced engine run.
pub struct EngineRun {
    /// The checked output.
    pub output: Output,
    /// What the engine reported.
    pub summary: StreamSummary,
    /// From the engine call until it returned.
    pub wall: Duration,
    /// The wall time split at each row's arrival, in seconds: from the
    /// call to the first row, between consecutive rows, and from the last
    /// row until the call returned.  The segments sum to `wall`.
    pub segments: Vec<f64>,
}

/// Runs `grid` through the engine at one thread into `format`'s built-in
/// sink over an in-memory hashing writer.
pub fn run_engine(grid: &ScenarioGrid, format: OutputFormat) -> Result<EngineRun, NetworkError> {
    let mut sink = CheckedSink::new(format);
    let start = Instant::now();
    sink.start = start;
    let summary = run_grid_streaming(grid, 1, &mut sink)?;
    let wall = start.elapsed();
    let mut segments = Vec::with_capacity(sink.row_times.len() + 1);
    let mut last = Duration::ZERO;
    for &t in sink.row_times.iter().chain([&wall]) {
        segments.push((t - last).as_secs_f64());
        last = t;
    }
    Ok(EngineRun {
        output: sink.output(),
        summary,
        wall,
        segments,
    })
}

/// Runs `grid` through the engine at one thread and returns the text
/// `format`'s built-in sink writes.
pub fn render(grid: &ScenarioGrid, format: OutputFormat) -> Result<String, NetworkError> {
    let bytes = match format {
        OutputFormat::Table => {
            let mut sink = TableSink::new(Vec::new());
            run_grid_streaming(grid, 1, &mut sink)?;
            sink.into_inner()
        }
        OutputFormat::Csv => {
            let mut sink = CsvSink::new(Vec::new());
            run_grid_streaming(grid, 1, &mut sink)?;
            sink.into_inner()
        }
        OutputFormat::JsonLines => {
            let mut sink = JsonLinesSink::new(Vec::new());
            run_grid_streaming(grid, 1, &mut sink)?;
            sink.into_inner()
        }
    };
    Ok(String::from_utf8(bytes).expect("sinks write UTF-8"))
}

/// Per-cell failure marks.  A cell fails if any run of it errored, broke
/// conservation or wrote a row that differs from the reference.
#[derive(Debug, Clone)]
pub struct Tally {
    failed: Vec<bool>,
    headers_match: bool,
}

impl Tally {
    /// A tally over `cells` cells, none failed yet.
    pub fn new(cells: usize) -> Tally {
        Tally {
            failed: vec![false; cells],
            headers_match: true,
        }
    }

    /// Marks every cell failed (the run errored).
    pub fn fail_all(&mut self) {
        self.failed.iter_mut().for_each(|f| *f = true);
    }

    /// Marks the cells of `got` that broke conservation or differ from
    /// `want`, including cells missing from either.
    pub fn compare(&mut self, got: &Output, want: &Output) {
        self.headers_match &= got.header == want.header;
        for &i in &got.broken {
            self.failed[i] = true;
        }
        for (i, failed) in self.failed.iter_mut().enumerate() {
            if got.rows.get(i).is_none() || got.rows.get(i) != want.rows.get(i) {
                *failed = true;
            }
        }
    }

    /// Cells attempted.
    pub fn attempted(&self) -> usize {
        self.failed.len()
    }

    /// Cells failed.
    pub fn failed(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// Indices of the failed cells.
    pub fn failed_cells(&self) -> Vec<usize> {
        (0..self.failed.len()).filter(|&i| self.failed[i]).collect()
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.headers_match && self.failed() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::large_n_grid;

    #[test]
    fn hashing_writer_matches_text_hashes_across_split_writes() {
        let text = "head\nrow one\n\nrow three\n";
        let mut w = HashingWriter::default();
        for chunk in text.as_bytes().chunks(3) {
            w.write_all(chunk).unwrap();
        }
        assert_eq!(w.hashes(), text_hashes(text));
        assert_eq!(w.bytes(), text.len() as u64);
    }

    #[test]
    fn segments_split_the_wall_time_at_each_row() {
        let grid = large_n_grid(&["DB(2,4)", "SK(2,2,2)"], 40, 3);
        let run = run_engine(&grid, OutputFormat::Table).unwrap();
        assert_eq!(run.segments.len(), grid.cell_count() + 1);
        assert!(run.segments.iter().all(|&t| t >= 0.0));
        let total: f64 = run.segments.iter().sum();
        assert!((total - run.wall.as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn one_corrupted_expected_row_is_exactly_one_failed_operation() {
        let grid = large_n_grid(&["DB(2,4)", "SK(2,2,2)"], 40, 3);
        let run = run_engine(&grid, OutputFormat::Table).unwrap();
        let text = render(&grid, OutputFormat::Table).unwrap();
        let header = run.output.header.len();
        assert_eq!(Output::from_text(&text, header), run.output);

        let mut clean = Tally::new(grid.cell_count());
        clean.compare(&run.output, &Output::from_text(&text, header));
        assert_eq!((clean.attempted(), clean.failed()), (8, 0));
        assert!(clean.correct());

        let mut lines: Vec<&str> = text.lines().collect();
        let corrupted = lines[header + 5].replacen(' ', "  ", 1);
        lines[header + 5] = &corrupted;
        let mut tally = Tally::new(grid.cell_count());
        tally.compare(&run.output, &Output::from_text(&lines.join("\n"), header));
        assert_eq!(tally.failed(), 1);
        assert_eq!(tally.failed_cells(), vec![5]);
        assert!(!tally.correct());
    }
}
