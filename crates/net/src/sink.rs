//! Streaming result sinks: the observer side of the scenario engine.
//!
//! [`crate::engine::run_grid_streaming`] hands each completed grid cell to a
//! [`RowSink`] **in deterministic grid order** while later cells are still
//! running, so a grid's memory footprint is bounded by the engine's reorder
//! window instead of its cell count.  This module defines the sink trait and
//! the built-in sinks:
//!
//! * [`CollectSink`] — collects rows into a `Vec` (what
//!   [`crate::engine::run_grid`] is built on);
//! * [`TableSink`] — the human-readable fixed-width table of the `scenarios`
//!   CLI (undefined averages render as `-`);
//! * [`CsvSink`] — RFC-4180-style CSV with a header row; undefined averages
//!   become **empty fields**, spec strings containing commas are quoted;
//! * [`JsonLinesSink`] — one JSON object per row, hand-rolled (the workspace
//!   is offline — no serde); undefined averages become `null`.
//!
//! The machine formats share one stable field-level schema, which extends
//! [`SimMetrics::FIELD_NAMES`] with the cell's grid coordinates.  The schema
//! is append-only so downstream tooling can rely on existing columns.
//!
//! ## The schema tiers
//!
//! Grids that exercise the wavelength layer
//! ([`ScenarioGrid::wavelength_layer_enabled`]) stream the *extended*
//! schema — the legacy columns plus the wavelength metrics (`wavelengths`,
//! `blocked`, `alt_routed`, `blocking_ratio`, `wavelength_utilization`,
//! `alt_route_rate`) and the `cost_per_bit` composite.  Capacity-1 grids
//! stream the legacy schema, **byte-identical** to the pre-wavelength
//! engine.  Each sink decides its tier once, in [`RowSink::on_start`], from
//! the grid about to run, and one private tier type renders the column
//! names, the field values, the table header and the table row of every
//! tier.  In the extended tier, statistics a capacity-1 cell leaves
//! undefined render as the format's native undefined sentinel — `-` in the
//! table, an empty field in CSV, `null` in JSON Lines — never the string
//! `"NaN"`.
//!
//! Grids with a non-empty fault schedule on any axis entry
//! ([`ScenarioGrid::fault_schedule_enabled`]) stream the *restoration*
//! schema: the extended columns, then the `fault_schedule` coordinate (the
//! schedule's round-trippable display form, `none` on static cells), then
//! the restoration metrics (`fault_events`, `in_flight_at_failure`,
//! `dropped_by_failure`, `restore_slots`, `post_failure_latency_peak`).
//! On cells where no kernel swap happened the restoration statistics are
//! undefined and render as the same native sentinels; which of them are
//! undefined is decided by [`SimMetrics::field_values`] alone, for every
//! format.  Schedule-free grids never see any of these columns.

use crate::engine::{ScenarioGrid, ScenarioRow};
use crate::scenarios::fmt_stat;
use otis_routing::FaultSet;
use otis_sim::{MetricValue, SimMetrics};
use std::fmt::{self, Write as _};
use std::io::{self, Write};

/// A streaming observer of scenario rows.
///
/// [`crate::engine::run_grid_streaming`] calls [`RowSink::on_start`] once
/// before any cell runs, [`RowSink::on_row`] once per cell **in grid order**
/// (`index` counts 0, 1, 2, … with no gaps), and [`RowSink::finish`] once
/// after the last row.  An error from any method aborts the run and surfaces
/// as [`crate::NetworkError::Sink`]; `finish` is *not* called after an
/// aborted run.
pub trait RowSink {
    /// Called once before execution starts, with the grid about to run.
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        let _ = grid;
        Ok(())
    }

    /// Called once per cell, in grid order; `index` is the row's position.
    fn on_row(&mut self, index: usize, row: ScenarioRow) -> io::Result<()>;

    /// Called once after the last row; flush buffered output here.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One serializable field of a [`ScenarioRow`]: grid coordinates are text or
/// integers, metrics come from [`SimMetrics::field_values`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string-valued field (spec, traffic, fault pattern).
    Text(String),
    /// An exact counter.
    Int(u64),
    /// A float statistic; `NaN` marks an undefined value and renders as an
    /// empty CSV field or a JSON `null`, never the string `"NaN"`.
    Float(f64),
}

impl From<MetricValue> for FieldValue {
    fn from(value: MetricValue) -> Self {
        match value {
            MetricValue::Int(v) => FieldValue::Int(v),
            MetricValue::Float(v) => FieldValue::Float(v),
        }
    }
}

impl FieldValue {
    /// Renders the field for a CSV record: undefined floats are empty,
    /// text is quoted when it contains a comma, quote or newline.
    pub fn to_csv_field(&self) -> String {
        match self {
            FieldValue::Text(s) => csv_escape(s),
            FieldValue::Int(v) => v.to_string(),
            FieldValue::Float(v) if v.is_finite() => v.to_string(),
            FieldValue::Float(_) => String::new(),
        }
    }

    /// Renders the field as a JSON value: undefined floats are `null`,
    /// text is a JSON string with full escaping.
    pub fn to_json_value(&self) -> String {
        match self {
            FieldValue::Text(s) => json_escape(s),
            FieldValue::Int(v) => v.to_string(),
            FieldValue::Float(v) if v.is_finite() => v.to_string(),
            FieldValue::Float(_) => "null".to_string(),
        }
    }
}

/// Quotes a CSV field when needed (comma, double quote, CR or LF inside),
/// doubling any inner quotes, per RFC 4180.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders a JSON string literal with the mandatory escapes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a fault pattern for the machine formats: sorted failed nodes,
/// then failed arcs as `u->v`, space-separated; empty for an intact cell.
fn render_faults(faults: &FaultSet) -> String {
    let mut parts: Vec<String> = faults
        .sorted_nodes()
        .into_iter()
        .map(|n| n.to_string())
        .collect();
    parts.extend(
        faults
            .sorted_arcs()
            .into_iter()
            .map(|(u, v)| format!("{u}->{v}")),
    );
    parts.join(" ")
}

/// The grid-coordinate columns every schema tier leads with.
const COORDINATE_NAMES: [&str; 6] = ["spec", "traffic", "load", "seed", "fault_count", "faults"];

/// The column schema a sink streams, decided once per run from the grid in
/// [`RowSink::on_start`].  Each tier appends column groups to the one below
/// it, so every tier's columns are an exact prefix of the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// The grid coordinates and the core [`SimMetrics::FIELD_NAMES`]
    /// prefix, byte-identical to the pre-wavelength engine.
    Legacy,
    /// Plus the wavelength metrics and the `cost_per_bit` composite.
    Extended,
    /// Plus the `fault_schedule` coordinate and the restoration metrics.
    Restoration,
}

impl Tier {
    /// The tier `grid` streams: restoration when any cell runs under a fault
    /// schedule, extended when the wavelength layer is on, else legacy.
    fn of(grid: &ScenarioGrid) -> Tier {
        if grid.fault_schedule_enabled() {
            Tier::Restoration
        } else if grid.wavelength_layer_enabled() {
            Tier::Extended
        } else {
            Tier::Legacy
        }
    }

    /// Column names of the machine formats, in emission order.
    fn field_names(self) -> Vec<&'static str> {
        let metrics = &SimMetrics::FIELD_NAMES;
        let mut names = COORDINATE_NAMES.to_vec();
        if self == Tier::Legacy {
            names.extend(&metrics[..SimMetrics::CORE_FIELD_COUNT]);
            return names;
        }
        names.extend(&metrics[..SimMetrics::EXTENDED_FIELD_COUNT]);
        names.push("cost_per_bit");
        if self == Tier::Restoration {
            names.push("fault_schedule");
            names.extend(&metrics[SimMetrics::EXTENDED_FIELD_COUNT..]);
        }
        names
    }

    /// The field values matching [`Tier::field_names`] position by
    /// position.
    fn field_values(self, row: &ScenarioRow) -> Vec<FieldValue> {
        let metrics = row.metrics.field_values().map(FieldValue::from);
        let mut values = vec![
            FieldValue::Text(row.spec.to_string()),
            FieldValue::Text(row.traffic.to_string()),
            FieldValue::Float(row.offered_load),
            FieldValue::Int(row.seed),
            FieldValue::Int(row.fault_count as u64),
            FieldValue::Text(render_faults(&row.faults)),
        ];
        if self == Tier::Legacy {
            values.extend_from_slice(&metrics[..SimMetrics::CORE_FIELD_COUNT]);
            return values;
        }
        values.extend_from_slice(&metrics[..SimMetrics::EXTENDED_FIELD_COUNT]);
        values.push(FieldValue::Float(row.cost_per_delivered_bit()));
        if self == Tier::Restoration {
            values.push(FieldValue::Text(row.fault_schedule.to_string()));
            values.extend_from_slice(&metrics[SimMetrics::EXTENDED_FIELD_COUNT..]);
        }
        values
    }

    /// The fixed-width table header: [`ScenarioRow::table_header`] plus the
    /// tier's column groups.
    fn table_header(self) -> String {
        let mut header = ScenarioRow::table_header();
        if self >= Tier::Extended {
            header.push_str(&format!(
                " {:>6} {:>8} {:>9} {:>8} {:>8} {:>9}",
                "wavel", "blocked", "blkratio", "wl_util", "alt_rate", "cost_bit",
            ));
        }
        if self == Tier::Restoration {
            header.push_str(&format!(
                " {:>7} {:>8} {:>8} {:>8} {:>8} {}",
                "fevents", "inflight", "faildrop", "restore", "peak_lat", "schedule",
            ));
        }
        header
    }

    /// The fixed-width table row matching [`Tier::table_header`]; undefined
    /// statistics render as `-`.  The restoration cells come from
    /// [`SimMetrics::field_values`], so the metrics decide which are
    /// undefined.
    fn table_row(self, row: &ScenarioRow) -> String {
        let mut line = row.as_table_row();
        let metrics = &row.metrics;
        if self >= Tier::Extended {
            line.push_str(&format!(
                " {:>6} {:>8} {} {} {} {}",
                metrics.wavelengths,
                metrics.blocked,
                fmt_stat(metrics.blocking_ratio(), 9, 4),
                fmt_stat(metrics.wavelength_utilization(), 8, 4),
                fmt_stat(metrics.alt_route_rate(), 8, 4),
                fmt_stat(row.cost_per_delivered_bit(), 9, 4),
            ));
        }
        if self == Tier::Restoration {
            let restoration = &metrics.field_values()[SimMetrics::EXTENDED_FIELD_COUNT..];
            for (value, width) in restoration.iter().zip([7, 8, 8, 8, 8]) {
                let cell = match *value {
                    MetricValue::Int(v) => format!("{v:>width$}"),
                    MetricValue::Float(v) => fmt_stat(v, width, 0),
                };
                line.push(' ');
                line.push_str(&cell);
            }
            line.push_str(&format!(" {}", row.fault_schedule));
        }
        line
    }
}

/// Collects streamed rows into a `Vec`, preserving grid order.
/// [`crate::engine::run_grid`] is this sink plus
/// [`crate::engine::run_grid_streaming`].
#[derive(Debug, Default)]
pub struct CollectSink {
    rows: Vec<ScenarioRow>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The rows collected so far, in grid order.
    pub fn rows(&self) -> &[ScenarioRow] {
        &self.rows
    }

    /// Consumes the sink, returning the collected rows.
    pub fn into_rows(self) -> Vec<ScenarioRow> {
        self.rows
    }
}

impl RowSink for CollectSink {
    fn on_row(&mut self, _index: usize, row: ScenarioRow) -> io::Result<()> {
        self.rows.push(row);
        Ok(())
    }
}

/// Streams rows as the human-readable fixed-width table (header first,
/// undefined averages as `-`) — the `scenarios` CLI's default format.
/// Wavelength-layer grids get the extended columns; see the module docs.
#[derive(Debug)]
pub struct TableSink<W: Write> {
    writer: W,
    tier: Tier,
}

impl<W: Write> TableSink<W> {
    /// A table sink over any writer.
    pub fn new(writer: W) -> Self {
        TableSink {
            writer,
            tier: Tier::Legacy,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RowSink for TableSink<W> {
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        self.tier = Tier::of(grid);
        writeln!(self.writer, "{}", self.tier.table_header())
    }

    fn on_row(&mut self, _index: usize, row: ScenarioRow) -> io::Result<()> {
        writeln!(self.writer, "{}", self.tier.table_row(&row))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams rows as CSV with a header record.  Undefined averages (zero
/// deliveries) are **empty fields**, never `NaN` or `-`; spec and traffic
/// strings are quoted because they contain commas.  Wavelength-layer grids
/// get the extended columns; see the module docs.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
    tier: Tier,
}

impl<W: Write> CsvSink<W> {
    /// A CSV sink over any writer.
    pub fn new(writer: W) -> Self {
        CsvSink {
            writer,
            tier: Tier::Legacy,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RowSink for CsvSink<W> {
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        self.tier = Tier::of(grid);
        writeln!(self.writer, "{}", self.tier.field_names().join(","))
    }

    fn on_row(&mut self, _index: usize, row: ScenarioRow) -> io::Result<()> {
        let values = self.tier.field_values(&row);
        let record: Vec<String> = values.iter().map(FieldValue::to_csv_field).collect();
        writeln!(self.writer, "{}", record.join(","))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams rows as JSON Lines: one hand-rolled JSON object per row (the
/// workspace is offline — no serde).  Undefined averages are `null`, never
/// the string `"NaN"` or `"-"`.  Wavelength-layer grids get the extended
/// keys; see the module docs.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
    tier: Tier,
    /// The tier's field names, fixed in [`RowSink::on_start`] (legacy
    /// schema until then): every row of a run shares the same schema.
    names: Vec<&'static str>,
}

impl<W: Write> JsonLinesSink<W> {
    /// A JSON Lines sink over any writer.
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer,
            tier: Tier::Legacy,
            names: Tier::Legacy.field_names(),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RowSink for JsonLinesSink<W> {
    fn on_start(&mut self, grid: &ScenarioGrid) -> io::Result<()> {
        self.tier = Tier::of(grid);
        self.names = self.tier.field_names();
        Ok(())
    }

    fn on_row(&mut self, _index: usize, row: ScenarioRow) -> io::Result<()> {
        let values = self.tier.field_values(&row);
        let mut line = String::from("{");
        for (i, (name, value)) in self.names.iter().zip(values.iter()).enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            line.push_str(name);
            line.push_str("\":");
            line.push_str(&value.to_json_value());
        }
        line.push('}');
        writeln!(self.writer, "{line}")
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// The machine-readable output formats of the result surface, as named by
/// the `scenarios` CLI's `--format` flag and the `.scn` `format` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable fixed-width table ([`TableSink`]); the default.
    #[default]
    Table,
    /// Comma-separated values with a header record ([`CsvSink`]).
    Csv,
    /// One JSON object per line ([`JsonLinesSink`]).
    JsonLines,
}

impl OutputFormat {
    /// Builds the matching sink over the given writer.
    pub fn sink<W: Write + 'static>(self, writer: W) -> Box<dyn RowSink> {
        match self {
            OutputFormat::Table => Box::new(TableSink::new(writer)),
            OutputFormat::Csv => Box::new(CsvSink::new(writer)),
            OutputFormat::JsonLines => Box::new(JsonLinesSink::new(writer)),
        }
    }
}

impl fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutputFormat::Table => "table",
            OutputFormat::Csv => "csv",
            OutputFormat::JsonLines => "jsonl",
        })
    }
}

/// The format name was not one of `table`, `csv`, `jsonl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFormat {
    /// The unrecognised name.
    pub input: String,
}

impl fmt::Display for UnknownFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown output format '{}' (supported: table, csv, jsonl)",
            self.input
        )
    }
}

impl std::error::Error for UnknownFormat {}

impl std::str::FromStr for OutputFormat {
    type Err = UnknownFormat;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "table" => Ok(OutputFormat::Table),
            "csv" => Ok(OutputFormat::Csv),
            "jsonl" => Ok(OutputFormat::JsonLines),
            _ => Err(UnknownFormat {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_grid_streaming;

    fn one_row(load: f64) -> ScenarioRow {
        let grid = crate::engine::ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[load])
            .slots(50);
        let mut sink = CollectSink::new();
        run_grid_streaming(&grid, 1, &mut sink).unwrap();
        sink.into_rows().remove(0)
    }

    #[test]
    fn field_names_and_values_line_up() {
        let row = one_row(0.3);
        let names = Tier::Legacy.field_names();
        let values = Tier::Legacy.field_values(&row);
        assert_eq!(names.len(), values.len());
        assert_eq!(names[0], "spec");
        assert_eq!(values[0], FieldValue::Text("POPS(2,2)".to_string()));
        // The legacy schema ends at the core metric prefix, byte-identical
        // to the pre-wavelength engine.
        assert_eq!(names.len(), 6 + SimMetrics::CORE_FIELD_COUNT);
        assert_eq!(
            names[6 + SimMetrics::CORE_FIELD_COUNT - 1],
            "delivery_ratio"
        );
        assert!(!names.contains(&"blocking_ratio"));
    }

    #[test]
    fn extended_schema_appends_the_wavelength_columns() {
        let row = one_row(0.3);
        let names = Tier::Extended.field_names();
        let values = Tier::Extended.field_values(&row);
        assert_eq!(names.len(), values.len());
        assert_eq!(names.len(), 6 + SimMetrics::EXTENDED_FIELD_COUNT + 1);
        // The restoration columns belong to the next tier up, so
        // schedule-free wavelength runs stay byte-identical.
        assert!(!names.contains(&"fault_events"));
        // Append-only: the legacy schema is an exact prefix.
        let legacy = Tier::Legacy.field_names();
        assert_eq!(&names[..legacy.len()], legacy.as_slice());
        for column in [
            "wavelengths",
            "blocked",
            "alt_routed",
            "blocking_ratio",
            "wavelength_utilization",
            "alt_route_rate",
            "cost_per_bit",
        ] {
            assert!(names.contains(&column), "{column} missing");
        }
        assert_eq!(*names.last().unwrap(), "cost_per_bit");
    }

    #[test]
    fn wavelength_off_cells_render_undefined_sentinels_in_every_format() {
        // A grid with alternate routing enabled streams the extended schema,
        // but a capacity-1 hot-potato cell never enters wavelength mode: its
        // wavelength statistics are undefined and must surface as the
        // format's native sentinel — '-', empty, null — never "NaN".
        let grid = crate::engine::ScenarioGrid::new(vec!["DB(2,3)".parse().unwrap()])
            .loads(&[0.3])
            .slots(60)
            .alt_paths(3);
        assert!(grid.wavelength_layer_enabled());

        let mut collect = CollectSink::new();
        run_grid_streaming(&grid, 1, &mut collect).unwrap();
        let row = collect.into_rows().remove(0);
        assert_eq!(row.metrics.wavelengths, 0, "layer-off sentinel");
        assert!(row.metrics.blocking_ratio().is_nan());

        let table = Tier::Extended.table_row(&row);
        assert!(!table.contains("NaN"), "{table}");
        assert_eq!(
            table.split_whitespace().count(),
            Tier::Extended.table_header().split_whitespace().count()
        );

        let names = Tier::Extended.field_names();
        let values = Tier::Extended.field_values(&row);
        for stat in ["blocking_ratio", "wavelength_utilization", "alt_route_rate"] {
            let i = names.iter().position(|&n| n == stat).unwrap();
            assert_eq!(values[i].to_csv_field(), "", "{stat}");
            assert_eq!(values[i].to_json_value(), "null", "{stat}");
        }

        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(text.lines().next().unwrap().ends_with(",cost_per_bit"));
        assert!(!text.contains("NaN"), "{text}");

        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut jsonl).unwrap();
        let line = String::from_utf8(jsonl.into_inner()).unwrap();
        assert!(line.contains("\"blocking_ratio\":null"), "{line}");
        assert!(line.contains("\"wavelength_utilization\":null"), "{line}");
        assert!(!line.contains("NaN"), "{line}");
    }

    #[test]
    fn capacity_one_grids_stay_on_the_legacy_schema() {
        // The byte-identity contract at the sink level: a wavelengths=1,
        // alt_paths=1 grid streams exactly the legacy columns — no
        // wavelength headers, no cost column, in any format.
        let grid = crate::engine::ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[0.2])
            .slots(50);
        assert!(!grid.wavelength_layer_enabled());
        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(text.lines().next().unwrap().ends_with(",delivery_ratio"));
        assert!(!text.contains("blocking_ratio"), "{text}");
        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut jsonl).unwrap();
        let line = String::from_utf8(jsonl.into_inner()).unwrap();
        assert!(!line.contains("cost_per_bit"), "{line}");
        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut table).unwrap();
        let text = String::from_utf8(table.into_inner()).unwrap();
        assert!(!text.contains("wavel"), "{text}");
    }

    #[test]
    fn restoration_schema_appends_schedule_and_restoration_columns() {
        // A grid with a non-empty schedule on the axis streams the
        // restoration tier in every format: the extended columns are an
        // exact prefix, then fault_schedule, then the restoration metrics.
        // Static cells inside the same grid render undefined sentinels.
        let schedule: otis_sim::FaultSchedule = "fail(node 1)@10; recover@40".parse().unwrap();
        let grid = crate::engine::ScenarioGrid::new(vec!["DB(2,3)".parse().unwrap()])
            .loads(&[0.3])
            .slots(80)
            .fault_schedules(vec![otis_sim::FaultSchedule::empty(), schedule.clone()]);
        assert!(grid.fault_schedule_enabled());

        let names = Tier::Restoration.field_names();
        let extended = Tier::Extended.field_names();
        assert_eq!(&names[..extended.len()], extended.as_slice());
        assert_eq!(
            &names[extended.len()..],
            &[
                "fault_schedule",
                "fault_events",
                "in_flight_at_failure",
                "dropped_by_failure",
                "restore_slots",
                "post_failure_latency_peak"
            ]
        );

        let mut collect = CollectSink::new();
        run_grid_streaming(&grid, 1, &mut collect).unwrap();
        let rows = collect.into_rows();
        for row in &rows {
            assert_eq!(names.len(), Tier::Restoration.field_values(row).len());
        }

        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(
            text.lines()
                .next()
                .unwrap()
                .ends_with(",fault_schedule,fault_events,in_flight_at_failure,dropped_by_failure,restore_slots,post_failure_latency_peak"),
            "{text}"
        );

        let mut jsonl = JsonLinesSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut jsonl).unwrap();
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The static cell: schedule "none", undefined restoration stats.
        assert!(
            lines[0].contains("\"fault_schedule\":\"none\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"fault_events\":0"), "{}", lines[0]);
        assert!(
            lines[0].contains("\"in_flight_at_failure\":null"),
            "{}",
            lines[0]
        );
        // The scheduled cell: both events fired, exact counters.
        assert!(
            lines[1].contains(&format!("\"fault_schedule\":\"{schedule}\"")),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"fault_events\":2"), "{}", lines[1]);
        assert!(
            !lines[1].contains("\"in_flight_at_failure\":null"),
            "{}",
            lines[1]
        );

        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut table).unwrap();
        let text = String::from_utf8(table.into_inner()).unwrap();
        assert!(text.lines().next().unwrap().ends_with("schedule"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
        assert!(text.contains(&schedule.to_string()), "{text}");
    }

    #[test]
    fn schedule_free_grids_never_see_restoration_columns() {
        // The byte-identity guard one tier down: a wavelength-layer grid
        // without schedules must not leak any restoration column.
        let grid = crate::engine::ScenarioGrid::new(vec!["DB(2,3)".parse().unwrap()])
            .loads(&[0.3])
            .slots(60)
            .alt_paths(3);
        assert!(grid.wavelength_layer_enabled());
        assert!(!grid.fault_schedule_enabled());
        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 1, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(text.lines().next().unwrap().ends_with(",cost_per_bit"));
        assert!(!text.contains("fault_schedule"), "{text}");
        assert!(!text.contains("fault_events"), "{text}");
    }

    #[test]
    fn csv_quotes_fields_with_commas_and_doubles_inner_quotes() {
        assert_eq!(csv_escape("SK(4,2,2)"), "\"SK(4,2,2)\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a\"b"), "\"a\"\"b\"");
        let row = one_row(0.3);
        let csv = Tier::Legacy.field_values(&row)[0].to_csv_field();
        assert_eq!(csv, "\"POPS(2,2)\"");
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_escape("a\nb\u{1}"), "\"a\\nb\\u0001\"");
    }

    #[test]
    fn zero_delivery_sentinels_are_format_aware() {
        // The '-' placeholder belongs to the text table only: CSV gets empty
        // fields and JSONL gets null — never the string "-" or "NaN".
        let row = one_row(0.0);
        assert_eq!(row.metrics.delivered, 0);

        let table = row.as_table_row();
        assert!(table.contains('-'), "{table}");
        assert!(!table.contains("NaN"), "{table}");

        let latency = &Tier::Legacy.field_values(&row)[Tier::Legacy
            .field_names()
            .iter()
            .position(|&n| n == "avg_latency")
            .unwrap()];
        assert_eq!(latency.to_csv_field(), "");
        assert_eq!(latency.to_json_value(), "null");

        let record: Vec<String> = Tier::Legacy
            .field_values(&row)
            .iter()
            .map(FieldValue::to_csv_field)
            .collect();
        let csv = record.join(",");
        assert!(csv.contains(",,"), "{csv}");
        assert!(!csv.contains("NaN"), "{csv}");

        let mut jsonl = JsonLinesSink::new(Vec::new());
        jsonl.on_row(0, row).unwrap();
        let line = String::from_utf8(jsonl.into_inner()).unwrap();
        assert!(line.contains("\"avg_latency\":null"), "{line}");
        assert!(line.contains("\"avg_hops\":null"), "{line}");
        assert!(!line.contains("NaN"), "{line}");
        assert!(!line.contains("\"-\""), "{line}");
    }

    #[test]
    fn table_sink_matches_manual_rendering() {
        let grid = crate::engine::ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[0.2, 0.4])
            .slots(60);
        let mut table = TableSink::new(Vec::new());
        run_grid_streaming(&grid, 2, &mut table).unwrap();
        let text = String::from_utf8(table.into_inner()).unwrap();
        let rows = crate::engine::run_grid(&grid, 1).unwrap();
        let mut expected = ScenarioRow::table_header();
        expected.push('\n');
        for row in &rows {
            expected.push_str(&row.as_table_row());
            expected.push('\n');
        }
        assert_eq!(text, expected);
    }

    #[test]
    fn csv_sink_emits_header_plus_one_record_per_cell() {
        let grid = crate::engine::ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[0.2, 0.4])
            .slots(60);
        let mut csv = CsvSink::new(Vec::new());
        run_grid_streaming(&grid, 2, &mut csv).unwrap();
        let text = String::from_utf8(csv.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + grid.cell_count());
        assert!(lines[0].starts_with("spec,traffic,load,seed,"));
        // The spec contains commas, so it is quoted; the workload does not.
        assert!(
            lines[1].starts_with("\"POPS(2,2)\",uniform(0.2),"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn output_format_round_trips_and_rejects_unknown_names() {
        for format in [
            OutputFormat::Table,
            OutputFormat::Csv,
            OutputFormat::JsonLines,
        ] {
            assert_eq!(format.to_string().parse::<OutputFormat>(), Ok(format));
        }
        assert_eq!("CSV".parse::<OutputFormat>(), Ok(OutputFormat::Csv));
        let err = "yaml".parse::<OutputFormat>().unwrap_err();
        assert!(err.to_string().contains("yaml"), "{err}");
        assert!(err.to_string().contains("jsonl"), "{err}");
        assert_eq!(OutputFormat::default(), OutputFormat::Table);
    }

    #[test]
    fn fault_patterns_render_as_sorted_nodes() {
        assert_eq!(render_faults(&FaultSet::new()), "");
        assert_eq!(render_faults(&FaultSet::from_nodes([3, 1])), "1 3");
        let mut faults = FaultSet::from_nodes([2]);
        faults.fail_arc(0, 1);
        assert_eq!(render_faults(&faults), "2 0->1");
    }
}
