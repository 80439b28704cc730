//! The benchmark's workloads and the inputs they are built from.
//!
//! Each grid workload is one `run_grid_streaming` call at one thread,
//! rendered through one of the engine's built-in sinks.  The grid builders
//! take their specs and slot count as arguments so the self-tests can run a
//! tiny grid of the same shape.

use otis_net::{
    FaultSchedule, FaultSet, Network, NetworkError, NetworkSpec, OutputFormat, PreparedSim,
    ScenarioGrid, TrafficSpec,
};
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The seed at which the expected outputs under `perfbench/expected` were
/// recorded.  At any other seed the rows are checked against the traced run
/// only.
pub const DEFAULT_SEED: u64 = 42;

/// Where `sweep` writes its seeded trace, relative to the repository root.
/// The path is part of every trace row, so it must not depend on the build
/// directory.
pub const SWEEP_TRACE: &str = "perfbench/work/sweep.trc";

/// Processors the sweep trace addresses: the smallest network of the sweep
/// (SK(4,2,2) and POPS(4,6)) has 24.
pub const TRACE_NODES: usize = 24;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Slot-loop bound: five small kernels shared by 40 cells.
    Sweep,
    /// Preparation bound: 2 048-node kernels, one per cell.
    LargeN,
    /// Wavelength mode, Yen alternates, fault timelines.
    Resilience,
    /// `reproduce all`.
    Paper,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::LargeN,
        Workload::Resilience,
        Workload::Paper,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::LargeN => "large_n",
            Workload::Resilience => "resilience",
            Workload::Paper => "paper",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The grid and output format of a grid workload at `seed`; `None` for
    /// `paper`.  `sweep` additionally needs its trace written to
    /// `trace_path` first ([`write_trace`]).
    pub fn grid(self, seed: u64, trace_path: &str) -> Option<(ScenarioGrid, OutputFormat)> {
        match self {
            Workload::Sweep => Some((
                sweep_grid(
                    &["DB(2,8)", "SK(6,3,2)", "SK(4,2,2)", "POPS(4,6)", "DB(2,5)"],
                    SWEEP_SLOTS,
                    seed,
                    trace_path,
                ),
                OutputFormat::Csv,
            )),
            Workload::LargeN => Some((
                large_n_grid(&["DB(2,11)", "KG(2,10)", "SK(8,3,3)"], 64, seed),
                OutputFormat::Table,
            )),
            Workload::Resilience => Some((
                resilience_grid(&["DB(2,8)", "SK(8,3,3)"], 500, seed),
                OutputFormat::JsonLines,
            )),
            Workload::Paper => None,
        }
    }
}

/// Slots per `sweep` cell; the sweep trace covers the same slots.
pub const SWEEP_SLOTS: u64 = 2000;

fn specs(list: &[&str]) -> Vec<NetworkSpec> {
    list.iter()
        .map(|s| s.parse().expect("benchmark specs are valid"))
        .collect()
}

fn workloads(list: &[&str]) -> Vec<TrafficSpec> {
    list.iter()
        .map(|w| w.parse().expect("benchmark workloads are valid"))
        .collect()
}

/// `sweep`: eight workloads, the last a replayed trace, over the given
/// specs, one seed, no faults.
pub fn sweep_grid(spec_list: &[&str], slots: u64, seed: u64, trace_path: &str) -> ScenarioGrid {
    let trace = format!("trace({trace_path})");
    ScenarioGrid::new(specs(spec_list))
        .workloads(workloads(&[
            "uniform(0.2)",
            "uniform(0.9)",
            "hotspot(0.4,0,0.2)",
            "perm(0.5,7)",
            "poisson(0.3)",
            "onoff(0.6,16,48)",
            "mix(0.1,0.9,0.05)",
            &trace,
        ]))
        .seeds(&[seed])
        .slots(slots)
}

/// `large_n`: uniform traffic under nested faults `{}`, `{0}`, `{0,1}`,
/// `{0,1,2}`.
pub fn large_n_grid(spec_list: &[&str], slots: u64, seed: u64) -> ScenarioGrid {
    ScenarioGrid::new(specs(spec_list))
        .workloads(workloads(&["uniform(0.3)"]))
        .seeds(&[seed])
        .fault_sets((0..4).map(|n| FaultSet::from_nodes(0..n)).collect())
        .slots(slots)
}

/// `resilience`: two loads, a static fault, a fail-and-recover timeline and
/// two wavelength counts, with three alternate routes.
pub fn resilience_grid(spec_list: &[&str], slots: u64, seed: u64) -> ScenarioGrid {
    let schedules = ["none", "fail(node 7)@125; recover@375"]
        .iter()
        .map(|s| {
            s.parse::<FaultSchedule>()
                .expect("benchmark schedules are valid")
        })
        .collect();
    ScenarioGrid::new(specs(spec_list))
        .workloads(workloads(&["uniform(0.3)", "uniform(0.7)"]))
        .seeds(&[seed])
        .fault_sets(vec![FaultSet::new(), FaultSet::from_nodes([0])])
        .fault_schedules(schedules)
        .wavelengths(&[2, 8])
        .alt_paths(3)
        .slots(slots)
}

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend on
/// nothing but the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Writes the seeded `.trc` file `sweep` replays: over `slots` slots, each
/// of the [`TRACE_NODES`] processors sends with probability 3/10 to another
/// processor.  Slots never decrease, each (slot, source) pair appears at
/// most once, and no event is addressed to its own source, which trace
/// validation rejects.
pub fn write_trace(path: &Path, seed: u64, slots: u64) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut rng = SplitMix64::new(seed);
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "# sweep trace, seed {seed}")?;
    let nodes = TRACE_NODES as u64;
    for slot in 0..slots {
        for src in 0..nodes {
            if rng.next_u64() % 10 < 3 {
                let dst = (src + 1 + rng.next_u64() % (nodes - 1)) % nodes;
                writeln!(out, "{slot} {src} {dst}")?;
            }
        }
    }
    out.flush()
}

/// Builds, outside the engine, everything the engine's kernel cache builds
/// for `grid`: every network, every workload bound to every network, each
/// spec's fault-free kernel, a delta repair per non-empty fault set and a
/// timeline per non-empty schedule.  Returns the time of each step in
/// seconds, in a fixed order: per spec, the network with its bindings, the
/// fault-free kernel, then each repair and timeline.  What a step builds is
/// dropped outside its time.
pub fn setup_block(grid: &ScenarioGrid) -> Result<Vec<f64>, NetworkError> {
    let alt_paths = grid.options.alt_paths;
    let mut steps = Vec::new();
    let mut timed = |start: Instant| steps.push(start.elapsed().as_secs_f64());
    for &spec in &grid.specs {
        let start = Instant::now();
        let network = Network::new(spec)?;
        for workload in &grid.workloads {
            black_box(workload.bind(network.node_count())?);
        }
        timed(start);
        let start = Instant::now();
        let base = network.prepare_with_alternates(&FaultSet::new(), alt_paths);
        timed(start);
        for faults in &grid.fault_sets {
            let start = Instant::now();
            let repaired = (!faults.is_empty()).then(|| base.repair(faults, alt_paths));
            if repaired.is_some() {
                timed(start);
            }
            let kernel = repaired.as_ref().unwrap_or(&base);
            for schedule in grid.fault_schedules.iter().filter(|s| !s.is_empty()) {
                let start = Instant::now();
                let timeline = PreparedSim::timeline(&base, kernel, schedule, alt_paths)?;
                timed(start);
                black_box(timeline);
            }
            black_box(repaired);
        }
        black_box(base);
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_workload_has_its_stated_cell_count() {
        let cells = |w: Workload| {
            w.grid(DEFAULT_SEED, SWEEP_TRACE)
                .map(|(g, _)| g.cell_count())
        };
        assert_eq!(cells(Workload::Sweep), Some(40));
        assert_eq!(cells(Workload::LargeN), Some(12));
        assert_eq!(cells(Workload::Resilience), Some(32));
        assert_eq!(cells(Workload::Paper), None);
    }

    #[test]
    fn each_grid_starts_with_its_stated_first_spec() {
        for (workload, first) in [
            (Workload::Sweep, "DB(2,8)"),
            (Workload::LargeN, "DB(2,11)"),
            (Workload::Resilience, "DB(2,8)"),
        ] {
            let (grid, _) = workload.grid(DEFAULT_SEED, SWEEP_TRACE).unwrap();
            assert_eq!(grid.specs[0].to_string(), first);
        }
    }

    #[test]
    fn the_trace_is_seeded_and_valid_for_the_smallest_network() {
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let (a, b, c) = (dir.join("a.trc"), dir.join("b.trc"), dir.join("c.trc"));
        write_trace(&a, 7, 300).unwrap();
        write_trace(&b, 7, 300).unwrap();
        write_trace(&c, 8, 300).unwrap();
        let read = |p: &Path| fs::read_to_string(p).unwrap();
        assert_eq!(read(&a), read(&b));
        assert_ne!(read(&a), read(&c));
        let spec: TrafficSpec = format!("trace({})", a.display()).parse().unwrap();
        let demand = spec.bind(TRACE_NODES).expect("trace validates");
        assert!(demand.offered_load() > 0.25 && demand.offered_load() < 0.35);
        fs::remove_dir_all(dir).unwrap();
    }
}
