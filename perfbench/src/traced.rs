//! The traced run: the engine's per-cell sequence performed by the harness
//! through the public API, at one thread with one reused [`SlotScratch`],
//! with a span around every call into a layer.
//!
//! The order follows the engine: build every network, bind every schedule
//! and workload, then walk the grid in its order (wavelengths outermost,
//! then schedules, workloads, specs, seeds and fault sets), preparing each
//! spec's fault-free kernel on first use, cloning it for empty fault sets,
//! delta-repairing it otherwise, building a timeline per non-empty schedule,
//! running the slot loop, building the row and handing it to the sink, and
//! finally freeing the kernels.  The rows must equal the engine's.

use crate::check::{CheckedSink, Output};
use crate::spans::Tracer;
use otis_net::{
    DemandSpec, FaultSet, Network, NetworkError, OutputFormat, PreparedSim, PreparedTimeline,
    RowSink, ScenarioGrid, ScenarioRow, SimOptions, WavelengthConfig,
};
use otis_sim::SlotScratch;
use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

/// The name of the root span; its self time is the unattributed rest.
pub const ROOT: &str = "trace.total_s";

/// The span name of a sink format.
pub fn sink_metric(format: OutputFormat) -> &'static str {
    match format {
        OutputFormat::Table => "net.sink.table_s",
        OutputFormat::Csv => "net.sink.csv_s",
        OutputFormat::JsonLines => "net.sink.jsonl_s",
    }
}

/// One cell's coordinates, decomposed from its flat index in grid order:
/// wavelength counts outermost, then fault schedules, workloads, specs,
/// seeds and fault sets.
struct Cell {
    spec: usize,
    workload: usize,
    seed: u64,
    fault_set: usize,
    schedule: usize,
    wavelengths: usize,
}

impl Cell {
    fn at(grid: &ScenarioGrid, index: usize) -> Cell {
        let faults = grid.fault_sets.len();
        let seeds = grid.seeds.len();
        let specs = grid.specs.len();
        let workloads = grid.workloads.len();
        let schedules = grid.fault_schedules.len();
        Cell {
            fault_set: index % faults,
            seed: grid.seeds[(index / faults) % seeds],
            spec: (index / (faults * seeds)) % specs,
            workload: (index / (faults * seeds * specs)) % workloads,
            schedule: (index / (faults * seeds * specs * workloads)) % schedules,
            wavelengths: grid.wavelengths[index / (faults * seeds * specs * workloads * schedules)],
        }
    }
}

/// What the traced run produced besides its spans.
pub struct Traced {
    /// The checked output of the workload's own sink.
    pub output: Output,
    /// The rows, in grid order.
    pub rows: Vec<ScenarioRow>,
    /// Counts gathered at the layer boundaries, by metric name.
    pub counts: BTreeMap<String, f64>,
    /// Hops per slot-loop kernel, the base of `ns_per_hop`.
    pub hops: BTreeMap<&'static str, f64>,
}

fn add(counts: &mut BTreeMap<String, f64>, name: String, value: f64) {
    *counts.entry(name).or_insert(0.0) += value;
}

/// Runs `grid` the way the engine does, recording a span around each layer
/// call into `tracer`.
pub fn run_traced(
    grid: &ScenarioGrid,
    format: OutputFormat,
    tracer: &mut Tracer,
) -> Result<Traced, NetworkError> {
    let root = tracer.enter(ROOT);
    let sink_name = sink_metric(format);
    let alt_paths = grid.options.alt_paths;
    let mut counts = BTreeMap::new();
    let mut hops = BTreeMap::new();

    let networks: Vec<Network> = grid
        .specs
        .iter()
        .map(|&spec| tracer.span("net.network.build_s", || Network::new(spec)))
        .collect::<Result<_, _>>()?;
    for spec in &grid.specs {
        let domain = spec
            .fault_domain_size()
            .expect("Network::new validated the spec");
        for schedule in grid.fault_schedules.iter().filter(|s| !s.is_empty()) {
            for faults in &grid.fault_sets {
                schedule.bind(domain, faults)?;
            }
        }
    }
    let hardware_costs: Option<Vec<usize>> = grid.wavelength_layer_enabled().then(|| {
        networks
            .iter()
            .map(|n| tracer.span("net.network.hardware_cost_s", || n.hardware_cost()))
            .collect()
    });
    let mut demands: Vec<Vec<DemandSpec>> = Vec::new();
    for workload in &grid.workloads {
        let mut bound = Vec::new();
        for network in &networks {
            let demand = tracer.span("net.traffic_spec.bind_s", || {
                workload.bind(network.node_count())
            });
            bound.push(demand?);
        }
        demands.push(bound);
    }

    let mut sink = CheckedSink::new(format);
    tracer
        .span(sink_name, || sink.on_start(grid))
        .expect("in-memory sinks cannot fail");
    let (specs, fault_sets, schedules) = (
        grid.specs.len(),
        grid.fault_sets.len(),
        grid.fault_schedules.len(),
    );
    let mut bases: Vec<Option<PreparedSim>> = vec![None; specs];
    let mut kernels: Vec<Option<PreparedSim>> = vec![None; specs * fault_sets];
    let mut timelines: Vec<Option<PreparedTimeline>> = vec![None; specs * fault_sets * schedules];
    let mut scratch = SlotScratch::new();
    let mut rows = Vec::new();

    for index in 0..grid.cell_count() {
        let cell = Cell::at(grid, index);
        let (s, f) = (cell.spec, cell.fault_set);
        let network = &networks[s];
        let faults = &grid.fault_sets[f];
        let schedule = &grid.fault_schedules[cell.schedule];
        let family = network.spec().family_name();
        let k = s * fault_sets + f;
        if kernels[k].is_none() {
            if bases[s].is_none() {
                bases[s] = Some(
                    tracer.span(&format!("net.prepared.prepare_s.{family}"), || {
                        network.prepare_with_alternates(&FaultSet::new(), alt_paths)
                    }),
                );
            }
            let base = bases[s].as_ref().expect("filled above");
            kernels[k] = Some(if faults.is_empty() {
                tracer.span("net.prepared.clone_s", || base.clone())
            } else {
                add(&mut counts, format!("net.prepared.repairs.{family}"), 1.0);
                tracer.span(&format!("net.prepared.repair_s.{family}"), || {
                    base.repair(faults, alt_paths)
                })
            });
        }
        let kernel = kernels[k].as_ref().expect("filled above");
        let t = k * schedules + cell.schedule;
        if !schedule.is_empty() && timelines[t].is_none() {
            let base = bases[s].as_ref().expect("filled with the kernel");
            let timeline = tracer
                .span("net.prepared.timeline_s", || {
                    PreparedSim::timeline(base, kernel, schedule, alt_paths)
                })
                .expect("schedules were bound above");
            add(
                &mut counts,
                "net.prepared.timeline_epochs".into(),
                timeline.len() as f64,
            );
            timelines[t] = Some(timeline);
        }
        let timeline = timelines[t].as_ref();

        let options = SimOptions {
            seed: cell.seed,
            faults: faults.clone(),
            wavelengths: WavelengthConfig {
                count: cell.wavelengths,
                assignment: grid.options.wavelengths.assignment,
            },
            ..grid.options.clone()
        };
        let demand = &demands[cell.workload][s];
        let sim = if network.is_multi_ops() {
            "multi_ops"
        } else {
            "hot_potato"
        };
        let mode = if !schedule.is_empty() {
            "timeline"
        } else if cell.wavelengths > 1 || alt_paths > 1 {
            "wavelength"
        } else if matches!(demand, DemandSpec::Pattern(_)) {
            "pattern"
        } else {
            "demand"
        };
        let metrics = tracer.span(&format!("sim.{sim}.{mode}.run_s"), || match demand {
            DemandSpec::Pattern(pattern) => {
                kernel.run_with_timeline_scratch(timeline, pattern, &options, &mut scratch)
            }
            demand => {
                let mut source = demand.source().expect("trace file vanished after binding");
                kernel.run_demand_with_timeline_scratch(
                    timeline,
                    &mut source,
                    &options,
                    &mut scratch,
                )
            }
        });
        let node_slots = metrics.slots as f64 * metrics.processors as f64;
        add(
            &mut counts,
            format!("sim.{sim}.{mode}.node_slots"),
            node_slots,
        );
        *hops.entry(sim).or_insert(0.0) += metrics.total_hops as f64;
        for (name, value) in [
            ("injected", metrics.injected),
            ("delivered", metrics.delivered),
            ("hops", metrics.total_hops),
            ("blocked", metrics.blocked),
            ("alt_routed", metrics.alt_routed),
            ("dropped_by_failure", metrics.dropped_by_failure),
        ] {
            add(&mut counts, format!("sim.{name}"), value as f64);
        }

        let row = tracer.span("net.engine.row_s", || ScenarioRow {
            spec: *network.spec(),
            offered_load: demand.offered_load(),
            traffic: grid.workloads[cell.workload].clone(),
            seed: cell.seed,
            fault_count: options.faults.len(),
            faults: options.faults,
            fault_schedule: schedule.clone(),
            hardware_cost: hardware_costs.as_ref().map(|c| c[s]),
            metrics,
        });
        rows.push(row.clone());
        tracer
            .span(sink_name, || sink.on_row(index, row))
            .expect("in-memory sinks cannot fail");
    }
    tracer
        .span(sink_name, || sink.finish())
        .expect("in-memory sinks cannot fail");
    // The engine frees its kernel cache before it returns.
    tracer.span("net.prepared.drop_s", || drop((bases, kernels, timelines)));
    tracer.exit(root);
    Ok(Traced {
        output: sink.output(),
        rows,
        counts,
        hops,
    })
}

/// Renders `rows` through `format`'s built-in sink inside a span named
/// after the format.
pub fn time_sink(
    grid: &ScenarioGrid,
    rows: &[ScenarioRow],
    format: OutputFormat,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let rows = rows.to_vec();
    let mut sink = CheckedSink::new(format);
    tracer.span(sink_metric(format), || {
        sink.on_start(grid)?;
        for (index, row) in rows.into_iter().enumerate() {
            sink.on_row(index, row)?;
        }
        sink.finish()
    })
}

/// Times a from-scratch preparation of every faulted kernel the grid
/// repairs, by family: the baseline of `repair_over_fresh`.
pub fn fresh_prepares(grid: &ScenarioGrid) -> Result<BTreeMap<String, f64>, NetworkError> {
    let mut fresh = BTreeMap::new();
    for &spec in &grid.specs {
        let network = Network::new(spec)?;
        for faults in grid.fault_sets.iter().filter(|f| !f.is_empty()) {
            let start = Instant::now();
            let kernel = network.prepare_with_alternates(faults, grid.options.alt_paths);
            let elapsed = start.elapsed().as_secs_f64();
            drop(kernel);
            add(
                &mut fresh,
                format!("net.prepared.fresh_s.{}", spec.family_name()),
                elapsed,
            );
        }
    }
    Ok(fresh)
}

/// Self time per span name, with the root span reported as its total
/// (`trace.total_s`) and its self time as `trace.unattributed_s`.
pub fn span_metrics(tracer: &Tracer) -> BTreeMap<String, f64> {
    let mut values = tracer.self_times();
    let unattributed = values.remove(ROOT).unwrap_or(0.0);
    values.insert("trace.unattributed_s".into(), unattributed);
    values.insert(ROOT.into(), tracer.total(ROOT));
    values
}

/// The per-layer metrics of one traced pass: the spans' self times, the
/// boundary counts and the ratios derived from them where they are
/// measured.  `fresh` comes from [`fresh_prepares`].
pub fn layer_metrics(
    tracer: &Tracer,
    traced: &Traced,
    fresh: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let mut values = span_metrics(tracer);
    values.extend(traced.counts.iter().map(|(k, &v)| (k.clone(), v)));
    values.extend(fresh.iter().map(|(k, &v)| (k.clone(), v)));
    let get = |values: &BTreeMap<String, f64>, name: &str| values.get(name).copied().unwrap_or(0.0);
    for family in crate::metrics::FAMILIES {
        let repair = get(&values, &format!("net.prepared.repair_s.{family}"));
        let fresh = get(&values, &format!("net.prepared.fresh_s.{family}"));
        if fresh > 0.0 {
            values.insert(
                format!("net.prepared.repair_over_fresh.{family}"),
                repair / fresh,
            );
        }
    }
    for sim in crate::metrics::SIMULATORS {
        let mut run_s = 0.0;
        for mode in crate::metrics::RUN_MODES {
            let run = get(&values, &format!("sim.{sim}.{mode}.run_s"));
            let slots = get(&values, &format!("sim.{sim}.{mode}.node_slots"));
            run_s += run;
            if slots > 0.0 {
                values.insert(
                    format!("sim.{sim}.{mode}.ns_per_node_slot"),
                    run * 1e9 / slots,
                );
            }
        }
        let sim_hops = traced.hops.get(sim).copied().unwrap_or(0.0);
        if sim_hops > 0.0 {
            values.insert(format!("sim.{sim}.ns_per_hop"), run_s * 1e9 / sim_hops);
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run_engine;
    use crate::workload::{large_n_grid, resilience_grid, sweep_grid, write_trace};

    #[test]
    fn traced_rows_equal_engine_rows_on_tiny_grids_of_each_shape() {
        let dir = std::env::temp_dir().join(format!("perfbench-traced-{}", std::process::id()));
        let trace = dir.join("tiny.trc");
        write_trace(&trace, 5, 200).unwrap();
        let trace = trace.to_str().unwrap();
        let grids = [
            (
                sweep_grid(&["DB(2,5)", "SK(4,2,2)", "POPS(4,6)"], 200, 5, trace),
                OutputFormat::Csv,
            ),
            (
                large_n_grid(&["DB(2,5)", "KG(2,3)", "SK(2,2,2)"], 50, 5),
                OutputFormat::Table,
            ),
            (
                resilience_grid(&["DB(2,4)", "SK(4,3,2)"], 400, 5),
                OutputFormat::JsonLines,
            ),
        ];
        for (grid, format) in grids {
            let rows = otis_net::run_grid(&grid, 1).unwrap();
            let mut tracer = Tracer::default();
            let traced = run_traced(&grid, format, &mut tracer).unwrap();
            assert_eq!(traced.rows, rows);
            let engine = run_engine(&grid, format).unwrap();
            assert_eq!(traced.output, engine.output);
            assert!(engine.output.broken.is_empty());
            assert_eq!(engine.output.rows.len(), grid.cell_count());

            let declared: Vec<String> = crate::metrics::per_layer()
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            let values = layer_metrics(&tracer, &traced, &fresh_prepares(&grid).unwrap());
            for name in tracer.spans().iter().map(|s| &s.name).chain(values.keys()) {
                assert!(declared.contains(name), "{name} is not declared");
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
