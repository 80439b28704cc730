//! Packaged head-to-head comparison scenarios (experiment T5).
//!
//! The motivation of the paper — multi-OPS networks are "more viable and
//! cost-effective under current optical technology" — rests on comparisons
//! like the one packaged here: several networks are driven with the same
//! traffic and their accepted throughput and latency are tabulated across
//! offered loads.  With the [`crate::Network`] facade, a comparison scenario
//! is *data*: a list of spec strings plus a list of loads.  Execution goes
//! through the parallel [`crate::engine`] — a comparison is a one-seed,
//! no-fault [`ScenarioGrid`], and richer scenarios (fault sweeps, frontier
//! scans, multi-seed grids) are the same grid with more axes filled in.

use crate::engine::{default_thread_count, run_grid, ScenarioGrid};
use crate::error::{NetworkError, SpecError};
use crate::sim_options::SimOptions;
use crate::spec::NetworkSpec;
use otis_sim::SimMetrics;

/// The one-seed, no-fault grid behind every loads-only scenario
/// (`compare_specs`, `frontier_scan`): uniform workloads via the
/// [`ScenarioGrid::loads`] sugar.
fn uniform_grid(specs: &[NetworkSpec], loads: &[f64], slots: u64, seed: u64) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new(specs.to_vec())
        .loads(loads)
        .seeds(&[seed]);
    grid.options = SimOptions::new(slots, seed);
    grid
}

/// Formats a statistic for a fixed-width table column, rendering undefined
/// values (`NaN`, e.g. an average over zero deliveries) as `-`.
pub(crate) fn fmt_stat(value: f64, width: usize, precision: usize) -> String {
    if value.is_nan() {
        format!("{:>width$}", "-")
    } else {
        format!("{value:>width$.precision$}")
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Network name, e.g. `"POPS(9,8)"` (point-to-point baselines are
    /// suffixed with `" hot-potato"`).
    pub network: String,
    /// Number of processors.
    pub processors: usize,
    /// Number of couplers (multi-OPS) or links (point-to-point).
    pub channels: usize,
    /// Offered load (messages per processor per slot).
    pub offered_load: f64,
    /// Accepted throughput (delivered messages per processor per slot).
    pub throughput: f64,
    /// Average delivered latency in slots (`NaN` when nothing was
    /// delivered; rendered as `-` by [`ComparisonRow::as_table_row`]).
    pub average_latency: f64,
    /// Average optical hops per delivered message (`NaN` when nothing was
    /// delivered).
    pub average_hops: f64,
}

impl ComparisonRow {
    fn from_metrics(network: impl Into<String>, load: f64, m: &SimMetrics) -> Self {
        ComparisonRow {
            network: network.into(),
            processors: m.processors,
            channels: m.channels,
            offered_load: load,
            throughput: m.throughput(),
            average_latency: m.average_latency(),
            average_hops: m.average_hops(),
        }
    }

    /// Formats the row for the reproduction harness.  Undefined averages
    /// (zero deliveries, e.g. at load 0.0) render as `-`, never `NaN`.
    pub fn as_table_row(&self) -> String {
        format!(
            "{:<16} {:>6} {:>8} {:>8.3} {:>10.4} {} {}",
            self.network,
            self.processors,
            self.channels,
            self.offered_load,
            self.throughput,
            fmt_stat(self.average_latency, 10, 2),
            fmt_stat(self.average_hops, 8, 2)
        )
    }

    /// Header matching [`ComparisonRow::as_table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<16} {:>6} {:>8} {:>8} {:>10} {:>10} {:>8}",
            "network", "procs", "channels", "load", "thruput", "latency", "hops"
        )
    }
}

/// Drives every listed network with uniform traffic at every listed load for
/// `slots` slots each and returns one row per (load, network) pair, loads
/// outermost — the table shape of experiment T5.
///
/// Execution is delegated to the parallel [`crate::engine`]; results are
/// identical to a serial loop because every cell is independently seeded.
pub fn compare_specs(
    specs: &[NetworkSpec],
    loads: &[f64],
    slots: u64,
    seed: u64,
) -> Result<Vec<ComparisonRow>, NetworkError> {
    let grid = uniform_grid(specs, loads, slots, seed);
    let rows = run_grid(&grid, default_thread_count())?;
    Ok(rows
        .into_iter()
        .map(|row| {
            let name = if row.spec.is_multi_ops() {
                row.spec.to_string()
            } else {
                format!("{} hot-potato", row.spec)
            };
            ComparisonRow::from_metrics(name, row.offered_load, &row.metrics)
        })
        .collect())
}

/// [`compare_specs`] over spec *strings* — the form a CLI or a config file
/// produces directly.
pub fn compare_spec_strs(
    specs: &[&str],
    loads: &[f64],
    slots: u64,
    seed: u64,
) -> Result<Vec<ComparisonRow>, NetworkError> {
    let parsed: Vec<NetworkSpec> = specs
        .iter()
        .map(|s| s.parse::<NetworkSpec>())
        .collect::<Result<_, _>>()
        .map_err(NetworkError::from)?;
    compare_specs(&parsed, loads, slots, seed)
}

/// One point of a load/latency frontier: what a network delivers at one
/// offered load.  Scanning loads for a fixed network traces its frontier —
/// throughput climbs until the network saturates, latency diverges after.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The network scanned.
    pub spec: NetworkSpec,
    /// Offered load (messages per processor per slot).
    pub offered_load: f64,
    /// Accepted throughput (delivered messages per processor per slot).
    pub throughput: f64,
    /// Average delivered latency in slots (`NaN` when nothing delivered).
    pub average_latency: f64,
    /// Fraction of injected messages delivered (`NaN` when nothing
    /// injected).
    pub delivery_ratio: f64,
}

/// Scans every network across the given loads and returns its frontier
/// points grouped per network (specs outermost, loads ascending in the
/// given order) — the load/latency frontier scan of the ROADMAP.
pub fn frontier_scan(
    specs: &[NetworkSpec],
    loads: &[f64],
    slots: u64,
    seed: u64,
) -> Result<Vec<FrontierPoint>, NetworkError> {
    let grid = uniform_grid(specs, loads, slots, seed);
    let rows = run_grid(&grid, default_thread_count())?;
    // Regroup per spec so each network's frontier is contiguous; rows carry
    // their own coordinates, so this is independent of the engine's cell
    // ordering.  Engine order preserves the load sequence within a spec.
    let mut points = Vec::with_capacity(rows.len());
    for &spec in specs {
        for row in rows.iter().filter(|row| row.spec == spec) {
            points.push(FrontierPoint {
                spec: row.spec,
                offered_load: row.offered_load,
                throughput: row.metrics.throughput(),
                average_latency: row.metrics.average_latency(),
                delivery_ratio: row.metrics.delivery_ratio(),
            });
        }
    }
    Ok(points)
}

/// The saturation point of one network's frontier: the first point reaching
/// at least 95% of the maximum observed throughput, provided at least one
/// *later* probe confirms the plateau.
///
/// The scan is a linear probe over the loads the caller supplied, so its
/// resolution is the caller's load spacing: the true saturation load lies
/// somewhere between the returned point and the probe before it, and a
/// coarse load axis yields a correspondingly coarse answer.
///
/// `None` when the scan is empty, nothing was delivered anywhere, or the
/// first qualifying point is the **last probed load** — a frontier still
/// climbing at its final probe has shown no plateau, and returning that last
/// point would mislabel an unsaturated network as saturated (the old
/// behaviour).  Callers seeing `None` on a loaded scan should extend the
/// load axis upward.
pub fn saturation_point(frontier: &[FrontierPoint]) -> Option<&FrontierPoint> {
    let max = frontier.iter().map(|p| p.throughput).fold(0.0f64, f64::max);
    if max <= 0.0 {
        return None;
    }
    let first = frontier
        .iter()
        .position(|p| p.throughput >= 0.95 * max)
        .expect("a positive maximum is attained by some point");
    if first + 1 == frontier.len() {
        return None;
    }
    Some(&frontier[first])
}

/// The paper's three-way comparison as data: `SK(s, d, k)`, a POPS with the
/// same processor count and group size, and a hot-potato de Bruijn of
/// comparable size and equal degree.
///
/// # Panics
/// Panics when the parameters violate the families' bounds or size caps —
/// matching the panicking constructors this helper predates.  Use
/// [`three_way_specs`] for the fallible form.
pub fn compare_networks(
    s: usize,
    d: usize,
    k: usize,
    loads: &[f64],
    slots: u64,
    seed: u64,
) -> Vec<ComparisonRow> {
    let specs = three_way_specs(s, d, k).expect("parameters within the families' bounds");
    compare_specs(&specs, loads, slots, seed).expect("specs derived from validated parameters")
}

/// The spec triple behind [`compare_networks`]: the comparison scenario is
/// nothing but this data.  All arithmetic is checked — parameters that
/// violate a family's bounds or would overflow the de Bruijn sizing loop
/// return the spec-validation error instead of panicking or wrapping.
pub fn three_way_specs(s: usize, d: usize, k: usize) -> Result<[NetworkSpec; 3], SpecError> {
    let sk = NetworkSpec::StackKautz { s, d, k };
    sk.validate()?;
    let n = sk
        .node_count()
        .expect("validated specs have a finite node count");
    // The point-to-point baseline: a de Bruijn graph with at least as many
    // nodes and the same degree d.  At d = 1 a de Bruijn graph of any k has
    // a single node, so the complete digraph stands in as the baseline.
    let baseline = if d >= 2 {
        let mut db_k = 1usize;
        loop {
            match u32::try_from(db_k).ok().and_then(|e| d.checked_pow(e)) {
                Some(size) if size >= n => break,
                Some(_) => db_k += 1,
                None => {
                    return Err(SpecError::TooLarge {
                        spec: NetworkSpec::DeBruijn { d, k: db_k }.to_string(),
                        max_nodes: crate::spec::MAX_NODES,
                    })
                }
            }
        }
        let db = NetworkSpec::DeBruijn { d, k: db_k };
        db.validate()?;
        db
    } else {
        NetworkSpec::Complete { n }
    };
    let groups = n / s;
    Ok([sk, NetworkSpec::Pops { t: s, g: groups }, baseline])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_three_rows_per_load() {
        let rows = compare_networks(2, 2, 2, &[0.1, 0.5], 300, 7);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.processors > 0);
            assert!(row.throughput >= 0.0);
            assert!(!row.as_table_row().is_empty());
        }
        assert!(ComparisonRow::table_header().contains("thruput"));
    }

    #[test]
    fn engine_backed_rows_match_a_serial_simulation_loop() {
        // The acceptance bar of the engine rewrite: byte-identical rows to
        // the plain serial loop compare_specs used to be.
        use crate::network::Network;
        use otis_sim::{DemandSpec, TrafficPattern};
        let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "POPS(3,4)", "DB(2,4)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let loads = [0.1, 0.6];
        let (slots, seed) = (150, 13);
        let engine_rows = compare_specs(&specs, &loads, slots, seed).unwrap();
        let mut serial_rows = Vec::new();
        let options = SimOptions::new(slots, seed);
        for &load in &loads {
            for &spec in &specs {
                let network = Network::new(spec).unwrap();
                let uniform = DemandSpec::Pattern(TrafficPattern::Uniform { load });
                let metrics = network.simulate(&uniform, &options).unwrap();
                let name = if network.is_multi_ops() {
                    network.name()
                } else {
                    format!("{} hot-potato", network.name())
                };
                serial_rows.push(ComparisonRow::from_metrics(name, load, &metrics));
            }
        }
        assert_eq!(engine_rows, serial_rows);
        let engine_table: Vec<String> = engine_rows.iter().map(|r| r.as_table_row()).collect();
        let serial_table: Vec<String> = serial_rows.iter().map(|r| r.as_table_row()).collect();
        assert_eq!(engine_table, serial_table);
    }

    #[test]
    fn zero_delivery_rows_render_a_placeholder_not_nan() {
        // Load 0.0 injects nothing, so the latency/hops averages are
        // undefined; the table must show '-' instead of NaN.
        let rows = compare_spec_strs(&["POPS(2,2)", "DB(2,3)"], &[0.0], 40, 3).unwrap();
        for row in &rows {
            assert!(row.average_latency.is_nan());
            let rendered = row.as_table_row();
            assert!(!rendered.contains("NaN"), "{rendered}");
            assert!(rendered.contains('-'), "{rendered}");
            // Column count matches the header (the " hot-potato" suffix of
            // point-to-point baselines adds one whitespace-separated token).
            let name_tokens = row.network.split_whitespace().count();
            assert_eq!(
                rendered.split_whitespace().count() - (name_tokens - 1),
                ComparisonRow::table_header().split_whitespace().count()
            );
        }
    }

    #[test]
    fn pops_has_lower_hops_than_stack_kautz() {
        // Single-hop vs multi-hop: POPS average hops ≈ 1, SK > 1 at any load.
        let rows = compare_networks(2, 2, 2, &[0.2], 2000, 3);
        let sk = rows.iter().find(|r| r.network.starts_with("SK")).unwrap();
        let pops = rows.iter().find(|r| r.network.starts_with("POPS")).unwrap();
        assert!((pops.average_hops - 1.0).abs() < 1e-6);
        assert!(sk.average_hops >= pops.average_hops);
    }

    #[test]
    fn pops_needs_more_couplers_than_stack_kautz() {
        // The hardware-scalability argument: for the same N and group size,
        // POPS needs g² couplers while SK needs g·(d+1).
        let rows = compare_networks(2, 2, 2, &[0.1], 100, 1);
        let sk = rows.iter().find(|r| r.network.starts_with("SK")).unwrap();
        let pops = rows.iter().find(|r| r.network.starts_with("POPS")).unwrap();
        assert!(pops.channels > sk.channels);
    }

    #[test]
    fn throughput_grows_with_load_until_saturation() {
        let rows = compare_networks(2, 2, 2, &[0.05, 0.8], 1500, 11);
        let sk_light = &rows[0];
        let sk_heavy = &rows[3];
        assert!(sk_heavy.throughput >= sk_light.throughput * 0.9);
    }

    #[test]
    fn arbitrary_spec_lists_are_data() {
        let rows = compare_spec_strs(&["POPS(4,2)", "SII(2,2,5)", "K(8)"], &[0.2], 200, 5).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].network.starts_with("POPS"));
        assert!(rows[1].network.starts_with("SII"));
        assert!(rows[2].network.contains("hot-potato"));
        assert!(compare_spec_strs(&["nope"], &[0.2], 10, 1).is_err());
    }

    #[test]
    fn three_way_specs_are_size_matched() {
        let [sk, pops, db] = three_way_specs(4, 2, 2).unwrap();
        assert_eq!(sk.node_count(), pops.node_count());
        assert!(db.node_count().unwrap() >= sk.node_count().unwrap());
    }

    #[test]
    fn three_way_specs_reject_out_of_range_parameters() {
        // Previously d.pow(db_k) could panic in debug / wrap in release for
        // oversized parameters; now it is the typed spec-validation error.
        assert!(three_way_specs(0, 2, 2).is_err());
        assert!(three_way_specs(2, 0, 2).is_err());
        // Far beyond the node cap: the stack-Kautz spec itself is too large.
        assert!(three_way_specs(1 << 20, 9, 12).is_err());
        let err = three_way_specs(2, 9, 12).unwrap_err();
        assert!(err.to_string().contains("large"), "{err}");
    }

    #[test]
    fn degree_one_gets_a_complete_baseline() {
        // d = 1 would loop forever searching for a de Bruijn size (1^k never
        // grows); the complete digraph stands in as the baseline instead.
        let [sk, pops, baseline] = three_way_specs(2, 1, 2).unwrap();
        assert_eq!(sk.node_count(), pops.node_count());
        assert_eq!(
            baseline,
            NetworkSpec::Complete {
                n: sk.node_count().unwrap()
            }
        );
        let rows = compare_networks(2, 1, 2, &[0.2], 100, 1);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn frontier_scan_groups_points_per_network() {
        let specs: Vec<NetworkSpec> = ["POPS(3,3)", "SK(2,2,2)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        // The repeated 1.0 probe runs the identical deterministic cell again
        // and confirms the plateau at the injection cap — without it both
        // frontiers would still be climbing at their last load and have no
        // saturation point.
        let loads = [0.05, 0.3, 0.7, 1.0, 1.0];
        let points = frontier_scan(&specs, &loads, 400, 9).unwrap();
        assert_eq!(points.len(), specs.len() * loads.len());
        // Specs outermost, loads in scan order within each network.
        for (i, spec) in specs.iter().enumerate() {
            let slice = &points[i * loads.len()..(i + 1) * loads.len()];
            assert!(slice.iter().all(|p| p.spec == *spec));
            let scanned: Vec<f64> = slice.iter().map(|p| p.offered_load).collect();
            assert_eq!(scanned, loads);
            // Throughput is monotone up to saturation noise and the
            // saturation point exists for a loaded, plateau-confirmed scan.
            let sat = saturation_point(slice).expect("traffic was delivered");
            assert!(sat.throughput > 0.0);
            assert_eq!(sat.offered_load, 1.0);
        }
        assert!(saturation_point(&[]).is_none());
    }

    #[test]
    fn frontier_scan_handles_an_empty_load_axis() {
        // No loads means a zero-cell grid: the scan is an empty frontier,
        // not an error, and its saturation point is None.
        let specs: Vec<NetworkSpec> = vec!["POPS(3,3)".parse().unwrap()];
        let points = frontier_scan(&specs, &[], 100, 5).unwrap();
        assert!(points.is_empty());
        assert!(saturation_point(&points).is_none());
    }

    #[test]
    fn saturation_point_is_none_when_nothing_ever_saturates() {
        // Load 0.0 injects nothing anywhere: every throughput is 0, so no
        // point reaches 95% of a positive peak and the scan has no
        // saturation point (rather than returning the first zero row).
        let specs: Vec<NetworkSpec> =
            vec!["POPS(2,2)".parse().unwrap(), "DB(2,3)".parse().unwrap()];
        let points = frontier_scan(&specs, &[0.0, 0.0], 60, 3).unwrap();
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.throughput == 0.0));
        assert!(saturation_point(&points).is_none());
    }

    #[test]
    fn single_load_frontiers_have_no_saturation_evidence() {
        // One probe cannot show a plateau: the sole point is also the last
        // probed load, so the scan reports no saturation instead of
        // mislabelling a possibly-still-climbing network as saturated.
        let specs: Vec<NetworkSpec> = vec!["SK(2,2,2)".parse().unwrap()];
        let points = frontier_scan(&specs, &[0.3], 200, 7).unwrap();
        assert_eq!(points.len(), 1);
        assert!(points[0].throughput > 0.0);
        assert!(saturation_point(&points).is_none());
    }

    #[test]
    fn saturation_needs_a_confirming_probe_beyond_the_plateau_edge() {
        // Hand-built frontier: throughput climbs to its plateau at the
        // second point.  With a later probe confirming the plateau the
        // second point is the saturation point; truncating the scan right at
        // the plateau edge removes the evidence and yields None.
        let point = |load: f64, throughput: f64| FrontierPoint {
            spec: "K(4)".parse().unwrap(),
            offered_load: load,
            throughput,
            average_latency: 1.0,
            delivery_ratio: 1.0,
        };
        let frontier = [point(0.2, 0.2), point(0.5, 0.41), point(0.8, 0.42)];
        let sat = saturation_point(&frontier).expect("plateau confirmed by the last probe");
        assert_eq!(sat.offered_load, 0.5);
        assert!(saturation_point(&frontier[..2]).is_none());
    }
}
