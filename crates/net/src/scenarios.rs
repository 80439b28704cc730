//! Load/latency frontiers of head-to-head comparisons (experiment T5).
//!
//! The motivation of the paper — multi-OPS networks are "more viable and
//! cost-effective under current optical technology" — rests on comparisons
//! in which several networks are driven with the same traffic and their
//! accepted throughput and latency are tabulated across offered loads.
//! Such a comparison is a one-seed, no-fault [`crate::ScenarioGrid`] of
//! specs and uniform loads, run by [`crate::run_grid`]; one spec's rows,
//! in load order, are its load/latency frontier, and [`saturation_point`]
//! reads where that frontier stops climbing.

use crate::engine::ScenarioRow;

/// The saturation point of one network's frontier — that network's rows in
/// ascending load order: the first row reaching at least 95% of the maximum
/// observed throughput, provided at least one *later* probe confirms the
/// plateau.
///
/// The scan is a linear probe over the loads the caller supplied, so its
/// resolution is the caller's load spacing: the true saturation load lies
/// somewhere between the returned row and the probe before it, and a
/// coarse load axis yields a correspondingly coarse answer.
///
/// `None` when the scan is empty, nothing was delivered anywhere, or the
/// first qualifying row is the **last probed load** — a frontier still
/// climbing at its final probe has shown no plateau, and returning that last
/// row would mislabel an unsaturated network as saturated.  Callers seeing
/// `None` on a loaded scan should extend the load axis upward.
pub fn saturation_point(frontier: &[ScenarioRow]) -> Option<&ScenarioRow> {
    let throughput = |row: &ScenarioRow| row.metrics.throughput();
    let max = frontier.iter().map(throughput).fold(0.0f64, f64::max);
    if max <= 0.0 {
        return None;
    }
    let first = frontier
        .iter()
        .position(|row| throughput(row) >= 0.95 * max)
        .expect("a positive maximum is attained by some row");
    if first + 1 == frontier.len() {
        return None;
    }
    Some(&frontier[first])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{default_thread_count, run_grid, ScenarioGrid};
    use crate::network::Network;
    use crate::spec::NetworkSpec;
    use otis_routing::FaultSet;
    use otis_sim::{DemandSpec, FaultSchedule, SimMetrics, SimOptions, TrafficPattern};

    /// The paper's three-way comparison at `(s, d, k) = (2, 2, 2)`:
    /// stack-Kautz, a POPS with the same 12 processors and group size, and
    /// a hot-potato de Bruijn of equal degree and at least as many nodes.
    fn trio() -> Vec<NetworkSpec> {
        parse_specs(&["SK(2,2,2)", "POPS(2,6)", "DB(2,4)"])
    }

    fn parse_specs(specs: &[&str]) -> Vec<NetworkSpec> {
        specs.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// A comparison grid, built and run as T5 builds and runs it: one row
    /// per (load, spec) pair, loads outermost.
    fn compare(specs: &[NetworkSpec], loads: &[f64], slots: u64, seed: u64) -> Vec<ScenarioRow> {
        let grid = ScenarioGrid::new(specs.to_vec())
            .loads(loads)
            .seeds(&[seed])
            .slots(slots);
        run_grid(&grid, default_thread_count()).unwrap()
    }

    #[test]
    fn comparison_produces_three_rows_per_load() {
        let rows = compare(&trio(), &[0.1, 0.5], 300, 7);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.metrics.processors > 0);
            assert!(row.metrics.throughput() >= 0.0);
            assert!(!row.as_table_row().is_empty());
        }
        assert!(ScenarioRow::table_header().contains("thruput"));
    }

    #[test]
    fn engine_backed_rows_match_a_serial_simulation_loop() {
        // The engine's rows are byte-identical to the plain serial loop a
        // comparison used to be.
        let specs = parse_specs(&["SK(2,2,2)", "POPS(3,4)", "DB(2,4)"]);
        let loads = [0.1, 0.6];
        let (slots, seed) = (150, 13);
        let rows = compare(&specs, &loads, slots, seed);
        let options = SimOptions::new(slots, seed);
        let mut index = 0;
        for &load in &loads {
            for &spec in &specs {
                let uniform = DemandSpec::Pattern(TrafficPattern::Uniform { load });
                let metrics = Network::new(spec)
                    .unwrap()
                    .simulate(&uniform, &options)
                    .unwrap();
                let row = &rows[index];
                assert_eq!((row.spec, row.offered_load, row.seed), (spec, load, seed));
                assert_eq!(row.metrics, metrics, "{spec} at load {load}");
                index += 1;
            }
        }
        assert_eq!(index, rows.len());
    }

    #[test]
    fn zero_delivery_rows_render_a_placeholder_not_nan() {
        // Load 0.0 injects nothing, so the latency/hops averages are
        // undefined; the table must show '-' instead of NaN.
        let rows = compare(&parse_specs(&["POPS(2,2)", "DB(2,3)"]), &[0.0], 40, 3);
        for row in &rows {
            assert!(row.metrics.average_latency().is_nan());
            let rendered = row.as_table_row();
            assert!(!rendered.contains("NaN"), "{rendered}");
            assert!(rendered.contains('-'), "{rendered}");
            assert_eq!(
                rendered.split_whitespace().count(),
                ScenarioRow::table_header().split_whitespace().count()
            );
        }
    }

    #[test]
    fn pops_has_lower_hops_than_stack_kautz() {
        // Single-hop vs multi-hop: POPS average hops ≈ 1, SK > 1 at any load.
        let trio = trio();
        let rows = compare(&trio, &[0.2], 2000, 3);
        let (sk, pops) = (&rows[0], &rows[1]);
        assert_eq!((sk.spec, pops.spec), (trio[0], trio[1]));
        assert!((pops.metrics.average_hops() - 1.0).abs() < 1e-6);
        assert!(sk.metrics.average_hops() >= pops.metrics.average_hops());
    }

    #[test]
    fn pops_needs_more_couplers_than_stack_kautz() {
        // The hardware-scalability argument: for the same N and group size,
        // POPS needs g² couplers while SK needs g·(d+1).
        let rows = compare(&trio(), &[0.1], 100, 1);
        let (sk, pops) = (&rows[0], &rows[1]);
        assert!(pops.metrics.channels > sk.metrics.channels);
    }

    #[test]
    fn throughput_grows_with_load_until_saturation() {
        let rows = compare(&trio(), &[0.05, 0.8], 1500, 11);
        let sk_light = &rows[0];
        let sk_heavy = &rows[3];
        assert_eq!(sk_light.spec, sk_heavy.spec);
        assert!(sk_heavy.metrics.throughput() >= sk_light.metrics.throughput() * 0.9);
    }

    #[test]
    fn arbitrary_spec_lists_are_data() {
        let specs = parse_specs(&["POPS(4,2)", "SII(2,2,5)", "K(8)"]);
        let rows = compare(&specs, &[0.2], 200, 5);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].spec.to_string().starts_with("POPS"));
        assert!(rows[1].spec.to_string().starts_with("SII"));
        assert!(
            !rows[2].spec.is_multi_ops(),
            "K(8) is a hot-potato baseline"
        );
    }

    #[test]
    fn paper_trio_is_size_matched() {
        let trio = trio();
        let nodes: Vec<usize> = trio.iter().map(|s| s.node_count().unwrap()).collect();
        assert_eq!(nodes[0], nodes[1]);
        assert!(nodes[2] >= nodes[0]);
        // Equal degree: SK(2,2,2) and DB(2,4) both have d = 2.
        assert!(matches!(trio[0], NetworkSpec::StackKautz { d: 2, .. }));
        assert!(matches!(trio[2], NetworkSpec::DeBruijn { d: 2, .. }));
    }

    #[test]
    fn per_spec_rows_saturate_at_the_injection_cap() {
        let specs = parse_specs(&["POPS(3,3)", "SK(2,2,2)"]);
        // The repeated 1.0 probe runs the identical deterministic cell again
        // and confirms the plateau at the injection cap — without it both
        // frontiers would still be climbing at their last load and have no
        // saturation point.
        let loads = [0.05, 0.3, 0.7, 1.0, 1.0];
        let rows = compare(&specs, &loads, 400, 9);
        assert_eq!(rows.len(), specs.len() * loads.len());
        for &spec in &specs {
            // Each spec's rows come in load order: they are its frontier.
            let frontier: Vec<ScenarioRow> = rows
                .iter()
                .filter(|row| row.spec == spec)
                .cloned()
                .collect();
            let scanned: Vec<f64> = frontier.iter().map(|row| row.offered_load).collect();
            assert_eq!(scanned, loads);
            // The saturation point exists for a loaded, plateau-confirmed
            // scan.
            let sat = saturation_point(&frontier).expect("traffic was delivered");
            assert!(sat.metrics.throughput() > 0.0);
            assert_eq!(sat.offered_load, 1.0);
        }
        assert!(saturation_point(&[]).is_none());
    }

    #[test]
    fn empty_load_axis_has_no_saturation_point() {
        // No loads means a zero-cell grid: no rows, not an error, and no
        // saturation point.
        let rows = compare(&parse_specs(&["POPS(3,3)"]), &[], 100, 5);
        assert!(rows.is_empty());
        assert!(saturation_point(&rows).is_none());
    }

    #[test]
    fn saturation_point_is_none_when_nothing_ever_saturates() {
        // Load 0.0 injects nothing anywhere: every throughput is 0, so no
        // row reaches 95% of a positive peak and the scan has no saturation
        // point (rather than returning the first zero row).
        let rows = compare(&parse_specs(&["POPS(2,2)", "DB(2,3)"]), &[0.0, 0.0], 60, 3);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|row| row.metrics.throughput() == 0.0));
        assert!(saturation_point(&rows).is_none());
    }

    #[test]
    fn single_load_frontiers_have_no_saturation_evidence() {
        // One probe cannot show a plateau: the sole row is also the last
        // probed load, so the scan reports no saturation instead of
        // mislabelling a possibly-still-climbing network as saturated.
        let rows = compare(&parse_specs(&["SK(2,2,2)"]), &[0.3], 200, 7);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].metrics.throughput() > 0.0);
        assert!(saturation_point(&rows).is_none());
    }

    #[test]
    fn saturation_needs_a_confirming_probe_beyond_the_plateau_edge() {
        // Hand-built frontier: throughput climbs to its plateau at the
        // second row.  With a later probe confirming the plateau the second
        // row is the saturation point; truncating the scan right at the
        // plateau edge removes the evidence and yields None.
        let row = |load: f64, delivered: u64| {
            let mut metrics = SimMetrics::new(1, 1);
            metrics.slots = 100;
            metrics.delivered = delivered;
            ScenarioRow {
                spec: "K(4)".parse().unwrap(),
                traffic: DemandSpec::Pattern(TrafficPattern::Uniform { load }),
                offered_load: load,
                seed: 1,
                fault_count: 0,
                faults: FaultSet::new(),
                fault_schedule: FaultSchedule::empty(),
                hardware_cost: None,
                metrics,
            }
        };
        let frontier = [row(0.2, 20), row(0.5, 41), row(0.8, 42)];
        let sat = saturation_point(&frontier).expect("plateau confirmed by the last probe");
        assert_eq!(sat.offered_load, 0.5);
        assert!(saturation_point(&frontier[..2]).is_none());
    }
}
