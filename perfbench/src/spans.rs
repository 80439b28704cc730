//! In-memory span recorder for the traced run.
//!
//! Each span has a name, a start, an end and the span that was open when it
//! began.  Spans stay in memory until the run ends; a layer's self time is
//! its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded span.  Times are offsets from the tracer's creation.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer metric this span is attributed to.
    pub name: String,
    /// When the span began.
    pub start: Duration,
    /// When the span ended.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records properly nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        value
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// durations of its direct children, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_nanos() as i128)
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= (span.end - span.start).as_nanos() as i128;
            }
        }
        let mut times = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *times.entry(span.name.clone()).or_insert(0.0) += ns as f64 * 1e-9;
        }
        times
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::default();
        let root = tracer.enter("root");
        tracer.span("child", || std::thread::sleep(Duration::from_millis(20)));
        tracer.exit(root);
        let times = tracer.self_times();
        assert!(times["child"] >= 0.02);
        assert!(times["root"] < times["child"]);
        let total = tracer.total("root");
        assert!((times["root"] + times["child"] - total).abs() < 1e-6);
    }
}
