//! The declared metrics and the result line.
//!
//! `BENCHMARK.json` lists the same names; a self-test keeps the two in
//! step.  Every run prints every metric of its mode: a per-layer metric of a
//! layer the workload does not exercise reads 0.

use std::collections::BTreeMap;

/// Families whose kernels the grid workloads prepare, by
/// `NetworkSpec::family_name`.
pub const FAMILIES: [&str; 4] = ["DB", "KG", "POPS", "SK"];

/// The two slot-loop kernels.
pub const SIMULATORS: [&str; 2] = ["hot_potato", "multi_ops"];

/// The slot-loop entry points a cell can take: a stationary pattern, a
/// demand process, the wavelength-mode loop, or a fault timeline.
pub const RUN_MODES: [&str; 4] = ["pattern", "demand", "wavelength", "timeline"];

/// Reproduce experiments timed on their own; the rest count as `other`.
pub const TIMED_EXPERIMENTS: [(&str, &str); 4] = [
    ("cor1", "bench.reproduce.cor1_s"),
    ("table-sim", "bench.reproduce.table_sim_s"),
    ("table-routing", "bench.reproduce.table_routing_s"),
    ("table-cost", "bench.reproduce.table_cost_s"),
];

/// A metric name and its unit.
pub type Decl = (String, &'static str);

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end() -> Vec<Decl> {
    vec![
        ("wall_s".into(), "s"),
        ("setup_s".into(), "s"),
        ("first_row_s".into(), "s"),
        ("peak_rss_mb".into(), "MB"),
    ]
}

/// The per-layer metrics, measured by the traced run.
pub fn per_layer() -> Vec<Decl> {
    let mut names: Vec<Decl> = vec![
        ("net.network.build_s".into(), "s"),
        ("net.network.hardware_cost_s".into(), "s"),
        ("net.traffic_spec.bind_s".into(), "s"),
    ];
    for family in FAMILIES {
        names.push((format!("net.prepared.prepare_s.{family}"), "s"));
        names.push((format!("net.prepared.repair_s.{family}"), "s"));
        names.push((format!("net.prepared.repairs.{family}"), "count"));
        names.push((format!("net.prepared.fresh_s.{family}"), "s"));
        names.push((format!("net.prepared.repair_over_fresh.{family}"), "ratio"));
    }
    names.push(("net.prepared.clone_s".into(), "s"));
    names.push(("net.prepared.drop_s".into(), "s"));
    names.push(("net.prepared.timeline_s".into(), "s"));
    names.push(("net.prepared.timeline_epochs".into(), "count"));
    for sim in SIMULATORS {
        for mode in RUN_MODES {
            names.push((format!("sim.{sim}.{mode}.run_s"), "s"));
            names.push((format!("sim.{sim}.{mode}.node_slots"), "count"));
            names.push((format!("sim.{sim}.{mode}.ns_per_node_slot"), "ns"));
        }
    }
    for sim in SIMULATORS {
        names.push((format!("sim.{sim}.ns_per_hop"), "ns"));
    }
    for counter in [
        "injected",
        "delivered",
        "hops",
        "blocked",
        "alt_routed",
        "dropped_by_failure",
    ] {
        names.push((format!("sim.{counter}"), "count"));
    }
    names.push(("net.engine.row_s".into(), "s"));
    for format in ["csv", "jsonl", "table"] {
        names.push((format!("net.sink.{format}_s"), "s"));
    }
    names.push(("net.sink.bytes".into(), "bytes"));
    names.push(("net.engine.overhead_s".into(), "s"));
    for counter in [
        "kernels_built",
        "kernels_repaired",
        "scratch_reuses",
        "peak_buffered",
    ] {
        names.push((format!("net.engine.{counter}"), "count"));
    }
    for (_, metric) in TIMED_EXPERIMENTS {
        names.push((metric.into(), "s"));
    }
    names.push(("bench.reproduce.other_s".into(), "s"));
    names.push(("graphs.isomorphism_s".into(), "s"));
    names.push(("core.verify_s".into(), "s"));
    names.push(("trace.total_s".into(), "s"));
    names.push(("trace.unattributed_s".into(), "s"));
    names
}

/// Median of `values`; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The fastest time seen for each segment of a repeated pass.
///
/// A pass (an engine call, a `reproduce` pass or a set-up block) is split
/// into the same segments every time it runs: one per row, experiment or
/// set-up step.  The end-to-end timings report the sum of the segments'
/// fastest times.  Every repetition does the same work and the machine's
/// noise only ever adds time, so each segment's fastest time tracks the
/// machine's fast phases, and short segments catch those phases far more
/// often than whole passes do.
#[derive(Debug, Clone, Default)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// Records one pass's segment times, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the pass has another number of segments than earlier ones.
    pub fn record(&mut self, segments: &[f64]) {
        if self.0.is_empty() {
            self.0 = segments.to_vec();
            return;
        }
        assert_eq!(self.0.len(), segments.len(), "passes differ in segments");
        for (best, &t) in self.0.iter_mut().zip(segments) {
            *best = best.min(t);
        }
    }

    /// The fastest time of the first segment; 0 before any pass.
    pub fn first(&self) -> f64 {
        self.0.first().copied().unwrap_or(0.0)
    }

    /// The sum of every segment's fastest time; 0 before any pass.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Per-name medians over several samples of the same metrics; a name
/// missing from a sample counts as 0 there.
pub fn medians(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let names: std::collections::BTreeSet<&String> =
        samples.iter().flat_map(|s| s.keys()).collect();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = samples
                .iter()
                .map(|s| s.get(name).copied().unwrap_or(0.0))
                .collect();
            (name.clone(), median(&values))
        })
        .collect()
}

/// The benchmark's last output line.  Every declared metric is printed in
/// declaration order; a value for an undeclared name is a bug.
///
/// # Panics
///
/// Panics if `values` names a metric `decls` does not declare.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    decls: &[Decl],
    values: &BTreeMap<String, f64>,
) -> String {
    for name in values.keys() {
        assert!(
            decls.iter().any(|(d, _)| d == name),
            "metric {name} is not declared"
        );
    }
    let metrics: Vec<String> = decls
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of the objects in one array of `BENCHMARK.json`.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').unwrap() + 1..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |decls: Vec<Decl>| decls.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(names(end_to_end()), declared(json, "end_to_end"));
        assert_eq!(names(per_layer()), declared(json, "per_layer"));
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
            assert!(
                json.contains(&format!(r#""name": "{name}", "unit": "{unit}""#)),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_prints_every_declared_metric() {
        let decls = end_to_end();
        let values = BTreeMap::from([("wall_s".to_string(), 1.5)]);
        let line = result_line(true, 3, 0, &decls, &values);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0"#));
        assert!(line.contains(r#""wall_s": {"value": 1.5, "unit": "s"}"#));
        assert!(line.contains(r#""peak_rss_mb": {"value": 0, "unit": "MB"}"#));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        let values = BTreeMap::from([("nope".to_string(), 1.0)]);
        result_line(true, 1, 0, &end_to_end(), &values);
    }

    #[test]
    fn fastest_keeps_each_segment_minimum() {
        let mut best = Fastest::default();
        assert_eq!((best.first(), best.total()), (0.0, 0.0));
        best.record(&[1.0, 4.0, 2.0]);
        best.record(&[2.0, 3.0, 2.5]);
        assert_eq!(best.first(), 1.0);
        assert_eq!(best.total(), 6.0);
    }

    #[test]
    #[should_panic(expected = "differ in segments")]
    fn fastest_refuses_passes_of_another_shape() {
        let mut best = Fastest::default();
        best.record(&[1.0, 2.0]);
        best.record(&[1.0]);
    }

    #[test]
    fn medians_fill_missing_names_with_zero() {
        let a = BTreeMap::from([("x".to_string(), 1.0), ("y".to_string(), 5.0)]);
        let b = BTreeMap::from([("x".to_string(), 3.0)]);
        let c = BTreeMap::from([("x".to_string(), 2.0)]);
        let m = medians(&[a, b, c]);
        assert_eq!(m["x"], 2.0);
        assert_eq!(m["y"], 0.0);
    }
}
