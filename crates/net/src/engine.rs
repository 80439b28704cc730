//! The parallel scenario engine: declarative `(spec × workload × seed ×
//! fault pattern)` grids executed across scoped worker threads.
//!
//! Every workload scenario of the reproduction — the T5 comparison tables,
//! load/latency frontier scans, the `d − 1` fault-injection sweeps of §2.5 —
//! is a cartesian grid of independent simulation cells.  A [`ScenarioGrid`]
//! names that grid as data; [`run_grid`] executes its cells across
//! `std::thread::scope` workers (the [`crate::Network`] facade is
//! `Send + Sync`) and returns one [`ScenarioRow`] per cell **in grid order**,
//! byte-identical regardless of the worker count: each cell seeds its own
//! RNG, so parallel execution cannot perturb results.
//!
//! The workload axis is a list of [`DemandSpec`]s, so non-uniform traffic —
//! permutations, hotspots, transpose, bit-reversal — sweeps exactly like an
//! offered-load scalar used to; [`ScenarioGrid::loads`] remains as sugar
//! that builds uniform workloads.  Every workload is *bound* to every
//! network up front ([`DemandSpec::bind`]), so topology preconditions
//! (transpose needs a square processor count, bit-reversal a power of two)
//! surface as typed errors before any cell runs.
//!
//! Grid order is wavelength counts outermost, then fault schedules, then
//! workloads, then specs, then seeds, then fault sets — matching the table
//! shape of experiment T5 (the default single-entry wavelength and schedule
//! axes leave the historical order untouched), so the T5 comparison is a
//! one-seed, no-fault grid of specs and loads, and one spec's rows of it
//! are that spec's load/latency frontier
//! ([`crate::scenarios::saturation_point`]).
//!
//! Results *stream*: [`run_grid_streaming`] hands each completed cell to a
//! [`RowSink`] in grid order while later cells are still running, through a
//! small reorder buffer bounded by [`reorder_window`] — memory is
//! O(threads + window), not O(cells), so a million-cell grid can run to a
//! CSV or JSON-Lines file without ever materialising its rows.  [`run_grid`]
//! is the collect-everything convenience: [`run_grid_streaming`] plus a
//! [`CollectSink`].
//!
//! ## The prepared-kernel cache
//!
//! Simulation is split into prepare/execute (see [`crate::prepared`]): the
//! expensive routing state — fault-filtered graph, distance tables,
//! group-pair route tables — lives in an immutable [`PreparedSim`] kernel, and a
//! cell's run only pays for its slot loop.  The engine keys a cache of
//! these kernels on the `(spec, fault-pattern)` pair: one `OnceLock` slot
//! per pair, shared by every worker, so a grid materialises each distinct
//! kernel **exactly once** no matter how many cells (seeds × workloads)
//! share it or how many threads race to need it first.
//!
//! Every slot is filled the same way, by
//! [`Network::prepare_with_alternates`] for the pair's faults: paths are
//! recomputed on the surviving network, never patched.  Multi-OPS kernels
//! build their group-pair routes on the fault-filtered quotient (`groups²`
//! entries, Yen alternates included), hot-potato kernels their `u16`
//! distance table on the surviving subgraph with a word-parallel BFS (64
//! destinations per pass).  Intact kernels count in
//! [`StreamSummary::kernels_built`] and faulted ones in
//! [`StreamSummary::kernels_repaired`], so on a schedule-free run
//! `built + repaired` is the number of distinct exercised pairs — what the
//! cache tests pin.
//!
//! Cached kernels live for the whole run (exactly-once materialisation
//! rules out eviction), so the cache's memory is O(specs × fault_sets)
//! kernels on top of the engine's O(threads + window) row buffering — the
//! trade-off is deliberate: fault axes are combinatorial in *patterns*, but
//! each kernel is only a routing table, and rebuilding one mid-run would
//! cost far more than holding it.  A multi-OPS kernel stores each route
//! once per group pair, so it stays small even with alternates (about
//! 0.1 MB for SK(8,3,3) at `alt_paths` 3, whose 288 processors would need
//! 82 944 per-pair routes); a hot-potato kernel's distance table is
//! `2n²` bytes.
//!
//! ## Fault schedules and mid-run kernel swaps
//!
//! The sixth grid axis, [`ScenarioGrid::fault_schedules`], makes faults
//! *dynamic*: a [`FaultSchedule`] is an ordered list of
//! `fail(node n)@slot` / `recover@slot` events, and a cell running under a
//! non-empty schedule swaps its active kernel at each event slot instead of
//! simulating one static fault pattern.  The swap kernels are prepared once
//! per `(spec, fault-pattern, schedule)` triple — a [`PreparedTimeline`],
//! cached in its own `OnceLock` lattice exactly like the static kernels —
//! by [`PreparedSim::timeline_of`] on the cell's static kernel: every epoch
//! kernel, failure or recovery, is prepared afresh for the static faults
//! plus the scheduled ones in force, or copied from the static kernel when
//! the epoch is back at its faults.  Each
//! epoch counts in [`StreamSummary::kernels_repaired`], and the number of
//! swaps the delivered rows actually performed is threaded out through
//! [`StreamSummary::kernel_swaps`].
//!
//! Schedules are bound up front — every `(spec, fault-pattern, schedule)`
//! combination is validated before any cell runs, so an event naming a node
//! outside the fault domain (processors for point-to-point networks,
//! quotient groups for multi-OPS) or duplicating a static fault is a typed
//! [`NetworkError::Schedule`] for the whole grid.  At the slot loop, a swap
//! re-resolves every in-flight message against the new routing tables:
//! messages stranded on a failed node (or whose destination became
//! unreachable) are dropped and counted in `dropped_by_failure`, separately
//! from congestion drops, and the restoration metrics (`fault_events`,
//! `in_flight_at_failure`, `restore_slots`, `post_failure_latency_peak`)
//! track how quickly delivery recovers.  The default single-entry axis is
//! the empty schedule, whose cells run static — they stream rows
//! byte-identical to a grid without the axis, at any thread count.

use crate::error::NetworkError;
use crate::network::Network;
use crate::prepared::{PreparedSim, PreparedTimeline};
use crate::sink::{fmt_stat, CollectSink, RowSink};
use crate::spec::NetworkSpec;
use otis_routing::FaultSet;
use otis_sim::{
    check_wavelength_count, DemandSpec, FaultSchedule, SimMetrics, SimOptions, SlotScratch,
    TrafficPattern, WavelengthConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};

/// A declarative grid of simulation scenarios: every combination of spec,
/// workload, seed and fault pattern becomes one independent cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// The networks under test.
    pub specs: Vec<NetworkSpec>,
    /// The workloads driven through every network, outermost grid axis.
    /// [`ScenarioGrid::loads`] fills this with uniform traffic from plain
    /// offered-load scalars.
    pub workloads: Vec<DemandSpec>,
    /// Random seeds; each cell's simulation is seeded independently.
    pub seeds: Vec<u64>,
    /// Fault patterns to inject; `[FaultSet::new()]` for intact runs.  For
    /// multi-OPS networks fault node ids name quotient groups, for
    /// point-to-point networks they name processors (see
    /// [`SimOptions::faults`]).
    pub fault_sets: Vec<FaultSet>,
    /// Fault timelines to sweep; `[FaultSchedule::empty()]` for static
    /// runs.  A non-empty schedule swaps the cell's active kernel at each
    /// event slot (see the module docs); event node ids live in the same
    /// fault domain as [`ScenarioGrid::fault_sets`].  Every combination is
    /// bound before execution starts, so out-of-range targets and overlaps
    /// with static faults surface as typed errors for the whole grid.
    pub fault_schedules: Vec<FaultSchedule>,
    /// Wavelength counts to sweep, outermost grid axis — the workhorse of
    /// the blocking-ratio studies.  Every count must lie in
    /// `1..=otis_sim::MAX_WAVELENGTHS` (the engine checks before any cell
    /// runs); the default `[1]` keeps the simulators on their legacy
    /// capacity-1 loops and the sinks on the legacy column schema.  This axis is
    /// authoritative: it overrides `options.wavelengths.count` per cell
    /// (the assignment policy still comes from the options).
    pub wavelengths: Vec<usize>,
    /// Shared simulation options (slots, arbitration, queue limit, TTL,
    /// wavelength assignment policy, alternate-route count).  The `seed`,
    /// `faults` and `wavelengths.count` fields are overwritten per cell.
    pub options: SimOptions,
}

impl ScenarioGrid {
    /// A grid over the given specs with one default seed, no faults, no
    /// workloads yet (zero cells until [`ScenarioGrid::workloads`] or
    /// [`ScenarioGrid::loads`] is set).
    pub fn new(specs: Vec<NetworkSpec>) -> Self {
        let options = SimOptions::default();
        ScenarioGrid {
            specs,
            workloads: Vec::new(),
            seeds: vec![options.seed],
            fault_sets: vec![FaultSet::new()],
            fault_schedules: vec![FaultSchedule::empty()],
            wavelengths: vec![options.wavelengths.count],
            options,
        }
    }

    /// Sets uniform-traffic workloads at the given offered loads — sugar for
    /// [`ScenarioGrid::workloads`] with [`TrafficPattern::Uniform`] entries.
    pub fn loads(mut self, loads: &[f64]) -> Self {
        self.workloads = loads
            .iter()
            .map(|&load| DemandSpec::Pattern(TrafficPattern::Uniform { load }))
            .collect();
        self
    }

    /// Sets the workload axis.
    pub fn workloads(mut self, workloads: Vec<DemandSpec>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Sets the seeds.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the fault patterns to sweep.
    pub fn fault_sets(mut self, fault_sets: Vec<FaultSet>) -> Self {
        self.fault_sets = fault_sets;
        self
    }

    /// Sets the nested fault patterns `{}`, `{0}`, …, `{0..count−1}`: the
    /// `faults` sweep of the `.scn` format and of `scenarios --faults`.
    /// Call it once the specs are set.  A `count` above the largest fault
    /// domain among them ([`NetworkSpec::fault_domain_size`]) is refused
    /// with [`NetworkError::TooManyFaults`]: past that size every further
    /// pattern fails the whole network, and the patterns would hold
    /// O(count²) node ids.
    pub fn nested_faults(mut self, count: u64) -> Result<Self, NetworkError> {
        let largest_domain = self
            .specs
            .iter()
            .filter_map(NetworkSpec::fault_domain_size)
            .max()
            .unwrap_or(0);
        let count = usize::try_from(count)
            .ok()
            .filter(|&count| count <= largest_domain)
            .ok_or(NetworkError::TooManyFaults {
                faults: count,
                largest_domain,
            })?;
        self.fault_sets = (0..=count)
            .map(|failed| FaultSet::from_nodes(0..failed))
            .collect();
        Ok(self)
    }

    /// Sets the fault timelines to sweep; see
    /// [`ScenarioGrid::fault_schedules`].
    pub fn fault_schedules(mut self, fault_schedules: Vec<FaultSchedule>) -> Self {
        self.fault_schedules = fault_schedules;
        self
    }

    /// Sets the wavelength counts to sweep (each in
    /// `1..=otis_sim::MAX_WAVELENGTHS`).
    pub fn wavelengths(mut self, counts: &[usize]) -> Self {
        self.wavelengths = counts.to_vec();
        self
    }

    /// Sets the alternate-route count shared by every cell; see
    /// [`SimOptions::alt_paths`].
    pub fn alt_paths(mut self, alt_paths: usize) -> Self {
        self.options.alt_paths = alt_paths;
        self
    }

    /// Whether this grid exercises the wavelength layer at all: some cell
    /// multiplexes more than one wavelength, or alternate routes are
    /// prepared.  Sinks switch to the extended column schema (wavelength
    /// metrics plus the cost-per-delivered-bit composite) exactly when this
    /// is true, so capacity-1 grids stay byte-identical to the legacy
    /// output.
    pub fn wavelength_layer_enabled(&self) -> bool {
        self.wavelengths.iter().any(|&w| w > 1) || self.options.alt_paths > 1
    }

    /// Whether any cell of this grid runs under a non-empty fault schedule.
    /// Sinks append the restoration column group (fault-event counts,
    /// stranded-message drops, restore time, post-failure latency peak)
    /// exactly when this is true, so static grids keep the legacy schema.
    pub fn fault_schedule_enabled(&self) -> bool {
        self.fault_schedules.iter().any(|s| !s.is_empty())
    }

    /// Non-fatal configuration smells: combinations the engine will run but
    /// that almost certainly do not mean what the caller intended.  The
    /// `scenarios` CLI prints these on stderr before the run starts.
    pub fn warnings(&self) -> Vec<GridWarning> {
        let mut warnings = Vec::new();
        if self.options.alt_paths > 1
            && !self.specs.is_empty()
            && !self.specs.iter().any(NetworkSpec::is_multi_ops)
        {
            warnings.push(GridWarning::AltPathsIgnoredByHotPotato {
                alt_paths: self.options.alt_paths,
            });
        }
        if self.seeds.len() > 1 {
            for workload in self.workloads.iter().filter(|w| w.is_trace()) {
                warnings.push(GridWarning::TraceWorkloadWithMultipleSeeds {
                    workload: workload.to_string(),
                    seeds: self.seeds.len(),
                });
            }
        }
        warnings
    }

    /// Sets the slot count.
    pub fn slots(mut self, slots: u64) -> Self {
        self.options.slots = slots;
        self
    }

    /// Number of cells the grid expands to, saturating at `usize::MAX` when
    /// the axis product overflows (it used to be an unchecked product — a
    /// debug-mode panic).  The engine refuses to run an overflowing grid
    /// with the typed [`NetworkError::GridTooLarge`]; see
    /// [`ScenarioGrid::checked_cell_count`].
    pub fn cell_count(&self) -> usize {
        self.checked_cell_count().unwrap_or(usize::MAX)
    }

    /// Checked axis product: `None` when `specs × workloads × seeds ×
    /// fault_sets × fault_schedules × wavelengths` overflows `usize`.
    pub fn checked_cell_count(&self) -> Option<usize> {
        checked_product([
            self.specs.len(),
            self.workloads.len(),
            self.seeds.len(),
            self.fault_sets.len(),
            self.fault_schedules.len(),
            self.wavelengths.len(),
        ])
    }

    /// The cell at flat `index` in grid order (wavelength counts outermost,
    /// then fault schedules, then workloads, then specs, then seeds, then
    /// fault sets).  Only called for `index < cell_count()`, so every axis
    /// is non-empty.
    fn cell_at(&self, index: usize) -> Cell {
        let faults = self.fault_sets.len();
        let seeds = self.seeds.len();
        let specs = self.specs.len();
        let workloads = self.workloads.len();
        let schedules = self.fault_schedules.len();
        Cell {
            fault_set: index % faults,
            seed: self.seeds[(index / faults) % seeds],
            spec: (index / (faults * seeds)) % specs,
            workload: (index / (faults * seeds * specs)) % workloads,
            schedule: (index / (faults * seeds * specs * workloads)) % schedules,
            wavelengths: self.wavelengths[index / (faults * seeds * specs * workloads * schedules)],
        }
    }
}

/// Checked product of the grid's axis lengths.
fn checked_product(axes: [usize; 6]) -> Option<usize> {
    axes.iter().try_fold(1usize, |acc, &n| acc.checked_mul(n))
}

/// The simulation work one row represents, in node-slots.  Saturating: a
/// pathological `slots × processors` product must clamp at `u64::MAX`, not
/// wrap the engine's throughput accounting around zero.
fn row_node_slots(slots: u64, processors: usize) -> u64 {
    slots.saturating_mul(processors as u64)
}

/// A non-fatal configuration smell reported by [`ScenarioGrid::warnings`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridWarning {
    /// `alt_paths > 1` on a grid whose spec list is hot-potato only:
    /// alternate routes are a multi-OPS routing mechanism (deflection
    /// routing adapts per slot on its own), so the option changes nothing
    /// on this grid.
    AltPathsIgnoredByHotPotato {
        /// The configured alternate-route count.
        alt_paths: usize,
    },
    /// A `trace(file)` workload crossed with more than one seed: trace
    /// replay is fully deterministic (the seed never reaches the injection
    /// side), so every seed re-runs the identical cell and the extra rows
    /// measure nothing new.
    TraceWorkloadWithMultipleSeeds {
        /// The trace workload in question, rendered as its spec string.
        workload: String,
        /// How many seeds the grid sweeps.
        seeds: usize,
    },
}

impl std::fmt::Display for GridWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridWarning::AltPathsIgnoredByHotPotato { alt_paths } => write!(
                f,
                "alt_paths = {alt_paths} has no effect: no spec in this grid is a multi-OPS \
                 network, and hot-potato routing ignores prepared alternate routes"
            ),
            GridWarning::TraceWorkloadWithMultipleSeeds { workload, seeds } => write!(
                f,
                "workload {workload} replays a recorded trace, which ignores the seed: all \
                 {seeds} seeds of the grid will produce identical rows for it"
            ),
        }
    }
}

/// The result of one grid cell: the cell's coordinates plus the full
/// simulation metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// The network simulated.
    pub spec: NetworkSpec,
    /// The workload driven through it.
    pub traffic: DemandSpec,
    /// Nominal offered load (messages per processor per slot) — derived
    /// from the workload spec, except for traces, where it is the mean
    /// measured by the bind-time validation pass over the file.
    pub offered_load: f64,
    /// The seed this cell ran under.
    pub seed: u64,
    /// Number of injected faults (nodes plus arcs).
    pub fault_count: usize,
    /// The exact fault pattern of this cell.
    pub faults: FaultSet,
    /// The fault timeline this cell ran under; empty on static cells.
    pub fault_schedule: FaultSchedule,
    /// The network's hardware cost in optical parts
    /// ([`Network::hardware_cost`]), carried only when the grid exercises
    /// the wavelength layer ([`ScenarioGrid::wavelength_layer_enabled`]) —
    /// `None` on legacy capacity-1 grids, keeping their rows unchanged.
    pub hardware_cost: Option<usize>,
    /// The simulation metrics.
    pub metrics: SimMetrics,
}

impl ScenarioRow {
    /// Formats the row's legacy-tier table columns, as the `scenarios` CLI
    /// and the reproduction harness print them; [`crate::TableSink`] appends
    /// the wavelength and restoration columns on grids that stream them.
    /// Undefined averages (zero deliveries) render as `-`.
    pub fn as_table_row(&self) -> String {
        format!(
            "{:<16} {:<20} {:>6} {} {:>6} {:>6} {:>10.4} {} {} {:>8} {:>8}",
            self.spec.to_string(),
            self.traffic.to_string(),
            self.metrics.processors,
            fmt_stat(self.offered_load, 8, 3),
            self.seed,
            self.fault_count,
            self.metrics.throughput(),
            fmt_stat(self.metrics.average_latency(), 10, 2),
            fmt_stat(self.metrics.average_hops(), 8, 2),
            self.metrics.max_hops,
            self.metrics.delivered,
        )
    }

    /// Header matching [`ScenarioRow::as_table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<16} {:<20} {:>6} {:>8} {:>6} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8}",
            "network",
            "traffic",
            "procs",
            "load",
            "seed",
            "faults",
            "thruput",
            "latency",
            "hops",
            "maxhops",
            "delivrd"
        )
    }

    /// The hardware cost divided by the delivered message count — the
    /// cost-per-delivered-bit composite of the blocking-ratio studies (one
    /// message stands in for one bit; scaling by a payload size multiplies
    /// every row by the same constant).  `NaN` when the row carries no
    /// hardware cost (legacy capacity-1 grids) or nothing was delivered.
    pub fn cost_per_delivered_bit(&self) -> f64 {
        match self.hardware_cost {
            Some(cost) if self.metrics.delivered > 0 => cost as f64 / self.metrics.delivered as f64,
            _ => f64::NAN,
        }
    }
}

/// One cell's coordinates into the grid's axes.  `wavelengths` is the
/// wavelength *count* (not an axis index): the only thing a cell needs.
#[derive(Debug, Clone, Copy)]
struct Cell {
    spec: usize,
    workload: usize,
    seed: u64,
    fault_set: usize,
    schedule: usize,
    wavelengths: usize,
}

/// The number of worker threads a caller that does not choose one runs a
/// grid with: the machine's available parallelism.
pub fn default_thread_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The most worker threads a grid runs on.  The study grammar refuses a
/// larger `threads` value, and [`run_grid_streaming`] clamps a library
/// caller's request to it; results do not depend on the count.
pub const MAX_THREADS: usize = 1024;

/// The scoped workers [`run_grid_streaming`] spawns for `cells` cells and
/// `threads` requested threads: at least one, at most [`MAX_THREADS`], and
/// never more than there are cells.
pub fn worker_count(threads: usize, cells: usize) -> usize {
    threads.clamp(1, MAX_THREADS).min(cells)
}

/// The reorder-window bound of [`run_grid_streaming`] for a run with
/// `threads` requested workers: at most this many completed rows are ever
/// buffered waiting for an earlier cell to finish.  Twice the worker count
/// keeps every worker busy (a worker whose cell is far ahead of the delivery
/// watermark parks until the window catches up) while bounding memory.
pub fn reorder_window(threads: usize) -> usize {
    2 * threads.max(1)
}

/// What a streaming run did: how many rows reached the sink, the largest
/// number of completed rows the reorder buffer ever held (always at most
/// [`reorder_window`] of the requested thread count), how many prepared
/// kernels were built, and how much simulation work the rows represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Rows delivered to the sink, equal to the grid's cell count on a
    /// completed run.
    pub rows: usize,
    /// Peak size of the reorder buffer — the memory high-water mark of the
    /// run, bounded by the reorder window, not the cell count.  Above one
    /// worker it depends on how the threads happen to be scheduled, so it
    /// varies between identical runs; compare it across runs only at one
    /// thread.
    pub peak_buffered: usize,
    /// Kernels prepared for the intact pattern (an empty fault set): one
    /// per distinct `(spec, fault-pattern)` pair whose pattern is empty,
    /// shared across every seed/workload cell of the pair, so a grid
    /// without an intact pattern builds none.  The name is kept because
    /// `perfbench/` reads it.
    pub kernels_built: usize,
    /// Kernels prepared for faults: one per distinct `(spec, fault-pattern)`
    /// pair with a non-empty fault set, plus every epoch kernel of every
    /// prepared timeline.  Each is a fresh build — group-pair routes on the
    /// fault-filtered quotient for multi-OPS kernels, a distance table on
    /// the surviving subgraph for hot-potato kernels — and the name is kept
    /// because `perfbench/` reads it.  On a completed schedule-free run
    /// `kernels_built + kernels_repaired` equals the number of distinct
    /// exercised pairs.
    pub kernels_repaired: usize,
    /// Mid-run kernel swaps the delivered rows performed — the sum of
    /// `fault_events` across every row.  Zero on a schedule-free grid;
    /// on a scheduled grid this equals scheduled cells × events per
    /// schedule that fired within the slot budget.
    pub kernel_swaps: u64,
    /// Total simulation work delivered, in node-slots: the sum over every
    /// delivered row of `slots × processors` (saturating — an adversarial
    /// product clamps at `u64::MAX` instead of wrapping).  Dividing by
    /// wall-clock time gives the engine's throughput in node-slots/second —
    /// the size-independent rate large-N benchmarks report.
    pub node_slots: u64,
    /// Cells that ran on a worker's already-used [`SlotScratch`] pool — the
    /// arena, queues and port masks were reset, not reallocated.  Each
    /// worker owns one pool for its lifetime, so on a completed run this is
    /// `rows − workers'`, where `workers'` is the number of workers that ran
    /// at least one cell: exactly `rows − 1` single-threaded, and at least
    /// `rows − threads` otherwise.  How many workers get a cell depends on
    /// thread scheduling, so above one thread the count varies between
    /// identical runs; compare it across runs only at one thread.
    pub scratch_reuses: usize,
}

/// Executes every cell of the grid across `threads` scoped workers (clamped
/// to at least 1, at most [`MAX_THREADS`] and at most the cell count),
/// delivering each completed row to `sink` **in grid order** — workloads
/// outermost, then specs, then seeds, then fault sets — while later cells
/// are still running.
///
/// Every workload is bound to every network before execution starts, so an
/// unbindable combination (transpose traffic on a non-square network, a
/// hotspot aimed at a node that does not exist) is a typed error for the
/// whole grid, not a silently-degraded cell.  A grid whose axis product
/// overflows `usize` is refused with [`NetworkError::GridTooLarge`], a
/// wavelength count outside `1..=MAX_WAVELENGTHS` with
/// [`NetworkError::Wavelengths`], one whose spectrum map would be too large
/// for a network with [`NetworkError::SpectrumTooLarge`], and a
/// point-to-point network too large for the hot-potato distance table with
/// [`NetworkError::HotPotatoTooLarge`].
///
/// The delivered row sequence is independent of the thread count: cells are
/// self-contained (own RNG seed, own simulator instance) and workers hand
/// completed rows to a reorder buffer keyed by cell index.  Workers pull
/// cell indices from a shared atomic counter, so uneven cell costs balance
/// automatically, but a worker may not start a cell more than
/// [`reorder_window`] cells ahead of the delivery watermark — that bounds
/// the engine's buffering at O(threads + window) rows regardless of the
/// cell count.  A sink error aborts the run and surfaces as
/// [`NetworkError::Sink`] (without calling `finish`).
pub fn run_grid_streaming<S: RowSink + ?Sized>(
    grid: &ScenarioGrid,
    threads: usize,
    sink: &mut S,
) -> Result<StreamSummary, NetworkError> {
    let cell_count = grid
        .checked_cell_count()
        .ok_or(NetworkError::GridTooLarge {
            specs: grid.specs.len(),
            workloads: grid.workloads.len(),
            seeds: grid.seeds.len(),
            fault_sets: grid.fault_sets.len(),
            schedules: grid.fault_schedules.len(),
            wavelengths: grid.wavelengths.len(),
        })?;
    for &count in &grid.wavelengths {
        check_wavelength_count(count)?;
    }
    let networks: Vec<Network> = grid
        .specs
        .iter()
        .map(|&spec| Network::new(spec))
        .collect::<Result<_, _>>()?;
    for network in &networks {
        network.check_simulable()?;
        for &count in &grid.wavelengths {
            network.check_spectrum(count)?;
        }
    }

    // Bind every non-empty schedule against every (spec, fault-pattern)
    // pair up front: an out-of-range event target or an overlap with a
    // static fault is a typed error for the whole grid, before any cell
    // runs.  Binding is cheap (no kernels are prepared here); the timeline
    // kernels themselves are materialised lazily in the cache below.
    for spec in &grid.specs {
        let domain = spec
            .fault_domain_size()
            .expect("Network::new validated the spec");
        for schedule in &grid.fault_schedules {
            if schedule.is_empty() {
                continue;
            }
            for faults in &grid.fault_sets {
                schedule.bind(domain, faults)?;
            }
        }
    }

    // Hardware costs feed the cost-per-delivered-bit composite; they are
    // only carried (and only computed — the design construction is not free)
    // when the grid exercises the wavelength layer, so legacy rows stay
    // unchanged.
    let hardware_costs: Option<Vec<usize>> = grid
        .wavelength_layer_enabled()
        .then(|| networks.iter().map(Network::hardware_cost).collect());

    // Bind every workload to every network up front: demands[w][s] is
    // workload w ready to drive network s.  Binding validates topology
    // preconditions — including a full streaming pass over every trace
    // file — so a bad workload is a typed error before any cell runs.
    let demands: Vec<Vec<DemandSpec>> = grid
        .workloads
        .iter()
        .map(|workload| {
            networks
                .iter()
                .map(|network| workload.bind(network.node_count()))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(NetworkError::from)?;

    sink.on_start(grid).map_err(sink_error)?;
    let mut summary = StreamSummary {
        rows: 0,
        peak_buffered: 0,
        kernels_built: 0,
        kernels_repaired: 0,
        kernel_swaps: 0,
        node_slots: 0,
        scratch_reuses: 0,
    };
    if cell_count == 0 {
        sink.finish().map_err(sink_error)?;
        return Ok(summary);
    }

    // The prepared-kernel cache: one lazily-filled slot per
    // (spec, fault-pattern) pair, shared across workers.  `OnceLock`
    // guarantees each slot is materialised exactly once even when several
    // workers hit it at the same time (late arrivals block until the winner
    // finishes, then share the kernel).  Intact kernels count in
    // `kernels_built`, faulted ones in `kernels_repaired`.
    let kernels: Vec<OnceLock<PreparedSim>> = (0..grid.specs.len() * grid.fault_sets.len())
        .map(|_| OnceLock::new())
        .collect();
    // The timeline cache mirrors the kernel cache one axis deeper: one slot
    // per (spec, fault-pattern, schedule) triple, only ever materialised
    // for non-empty schedules.  Each epoch kernel counts in
    // `kernels_repaired`.
    let timelines: Vec<OnceLock<PreparedTimeline>> =
        (0..grid.specs.len() * grid.fault_sets.len() * grid.fault_schedules.len())
            .map(|_| OnceLock::new())
            .collect();
    let kernels_built = AtomicUsize::new(0);
    let kernels_repaired = AtomicUsize::new(0);
    let scratch_reuses = AtomicUsize::new(0);

    let workers = worker_count(threads, cell_count);
    let window = reorder_window(workers);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // The delivery watermark: rows 0..watermark have reached the sink.  A
    // worker may only *start* cell `i` once `i < watermark + window`, so at
    // most `window` completed rows can ever be waiting in the reorder
    // buffer.
    let watermark = Mutex::new(0usize);
    let advanced = Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, ScenarioRow)>();
    let mut sink_failure: Option<std::io::Error> = None;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, stop, watermark, advanced) = (&next, &stop, &watermark, &advanced);
            let (networks, demands) = (&networks, &demands);
            let (kernels, timelines) = (&kernels, &timelines);
            let (kernels_built, kernels_repaired) = (&kernels_built, &kernels_repaired);
            let scratch_reuses = &scratch_reuses;
            let hardware_costs = &hardware_costs;
            scope.spawn(move || {
                // A panicking cell must not strand the other workers parked
                // on the condvar (the watermark would never reach them).
                let _guard = UnwindGuard {
                    stop,
                    watermark,
                    advanced,
                };
                // One scratch pool per worker, alive for the worker's whole
                // lifetime: every cell after the first runs on reset (not
                // reallocated) hot state.
                let mut scratch = SlotScratch::new();
                let mut cells_run = 0usize;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= cell_count {
                        break;
                    }
                    {
                        let mut delivered = watermark.lock().expect("no panics hold the watermark");
                        while index >= *delivered + window && !stop.load(Ordering::Relaxed) {
                            delivered = advanced
                                .wait(delivered)
                                .expect("no panics hold the watermark");
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let cell = grid.cell_at(index);
                    // Look the cell's prepared kernel up in the shared
                    // cache, preparing it for the cell's faults on first
                    // use.
                    let faults = &grid.fault_sets[cell.fault_set];
                    let kernel = kernels[cell.spec * grid.fault_sets.len() + cell.fault_set]
                        .get_or_init(|| {
                            let counter = if faults.is_empty() {
                                kernels_built
                            } else {
                                kernels_repaired
                            };
                            counter.fetch_add(1, Ordering::Relaxed);
                            networks[cell.spec]
                                .prepare_with_alternates(faults, grid.options.alt_paths)
                        });
                    // A non-empty schedule additionally needs its timeline
                    // of swap kernels — one cached preparation per
                    // (spec, fault-pattern, schedule) triple.  Empty
                    // schedules skip the lookup entirely: their cells run
                    // static.
                    let schedule = &grid.fault_schedules[cell.schedule];
                    let timeline = (!schedule.is_empty()).then(|| {
                        let slot = (cell.spec * grid.fault_sets.len() + cell.fault_set)
                            * grid.fault_schedules.len()
                            + cell.schedule;
                        timelines[slot].get_or_init(|| {
                            let timeline = kernel
                                .timeline_of(schedule)
                                .expect("schedules were bound before execution started");
                            kernels_repaired.fetch_add(timeline.len(), Ordering::Relaxed);
                            timeline
                        })
                    });
                    let row = run_cell(
                        kernel,
                        timeline,
                        &networks[cell.spec],
                        &demands[cell.workload][cell.spec],
                        grid,
                        &cell,
                        hardware_costs.as_ref().map(|costs| costs[cell.spec]),
                        &mut scratch,
                    );
                    cells_run += 1;
                    if tx.send((index, row)).is_err() {
                        break;
                    }
                }
                scratch_reuses.fetch_add(cells_run.saturating_sub(1), Ordering::Relaxed);
            });
        }
        drop(tx);

        // Deliver rows in grid order on the caller's thread: out-of-order
        // completions park in the reorder buffer until the gap fills.  The
        // guard wakes parked workers if a sink panics mid-delivery; without
        // it the scope would block joining them forever.
        let _guard = UnwindGuard {
            stop: &stop,
            watermark: &watermark,
            advanced: &advanced,
        };
        let mut pending: BTreeMap<usize, ScenarioRow> = BTreeMap::new();
        let mut next_to_deliver = 0usize;
        'receive: while let Ok((index, row)) = rx.recv() {
            pending.insert(index, row);
            summary.peak_buffered = summary.peak_buffered.max(pending.len());
            while let Some(row) = pending.remove(&next_to_deliver) {
                let row_work = row_node_slots(row.metrics.slots, row.metrics.processors);
                let row_swaps = row.metrics.fault_events;
                if let Err(e) = sink.on_row(next_to_deliver, row) {
                    sink_failure = Some(e);
                    // Set the stop flag *under the watermark lock*: a worker
                    // checks the flag with that lock held before parking, so
                    // holding it here means no worker can be between its
                    // check and its wait when the notification fires — the
                    // classic lost-wakeup race that would park it forever.
                    {
                        let _guard = watermark.lock().expect("no panics hold the watermark");
                        stop.store(true, Ordering::Relaxed);
                    }
                    advanced.notify_all();
                    break 'receive;
                }
                next_to_deliver += 1;
                summary.rows += 1;
                summary.kernel_swaps += row_swaps;
                summary.node_slots = summary.node_slots.saturating_add(row_work);
                *watermark.lock().expect("no panics hold the watermark") = next_to_deliver;
                advanced.notify_all();
            }
            if next_to_deliver == cell_count {
                break;
            }
        }
        // Dropping `rx` here makes any remaining `tx.send` fail, so workers
        // that were mid-cell during an abort exit promptly.
        drop(rx);
    });

    summary.kernels_built = kernels_built.load(Ordering::Relaxed);
    summary.kernels_repaired = kernels_repaired.load(Ordering::Relaxed);
    summary.scratch_reuses = scratch_reuses.load(Ordering::Relaxed);
    match sink_failure {
        Some(e) => Err(sink_error(e)),
        None => {
            sink.finish().map_err(sink_error)?;
            Ok(summary)
        }
    }
}

/// Wraps a sink's I/O error into the facade's typed error.
fn sink_error(e: std::io::Error) -> NetworkError {
    NetworkError::Sink {
        detail: e.to_string(),
    }
}

/// Wakes parked workers when its thread unwinds.  Without this, a panic in
/// the delivery loop (a panicking sink) or in a worker cell would leave the
/// other workers parked on the condvar forever, and `std::thread::scope`
/// would block joining them instead of propagating the panic.
struct UnwindGuard<'a> {
    stop: &'a AtomicBool,
    watermark: &'a Mutex<usize>,
    advanced: &'a Condvar,
}

impl Drop for UnwindGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        // Hold the watermark lock while storing the flag so no worker can be
        // between its stop-check and its wait when the notification fires
        // (the lost-wakeup race).  A poisoned lock still locks the mutex —
        // the guard inside the error is what matters.
        let guard = self.watermark.lock();
        self.stop.store(true, Ordering::Relaxed);
        drop(guard);
        self.advanced.notify_all();
    }
}

/// Executes every cell of the grid and returns the rows in grid order — a
/// thin wrapper over [`run_grid_streaming`] with a [`CollectSink`], kept for
/// callers that want the whole result set in memory (the T5 comparison and
/// its saturation points, tests).  Rows are byte-identical at any thread
/// count.
pub fn run_grid(grid: &ScenarioGrid, threads: usize) -> Result<Vec<ScenarioRow>, NetworkError> {
    let mut sink = CollectSink::new();
    run_grid_streaming(grid, threads, &mut sink)?;
    Ok(sink.into_rows())
}

/// Executes one cell on its cached prepared kernel: only the slot loop runs
/// here — the routing state was built when the kernel first entered the
/// cache.  The cell's fault set is cloned once, into the options, and the
/// row is built from that same copy.  The wavelength axis overrides the
/// per-run wavelength count; the assignment policy is shared grid-wide.  A
/// cell under a non-empty schedule runs the timeline path (mid-run kernel
/// swaps); `None` runs the static cell.  The worker's scratch pool is
/// threaded through so the slot loop reuses hot state across cells.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    kernel: &PreparedSim,
    timeline: Option<&PreparedTimeline>,
    network: &Network,
    demand: &DemandSpec,
    grid: &ScenarioGrid,
    cell: &Cell,
    hardware_cost: Option<usize>,
    scratch: &mut SlotScratch,
) -> ScenarioRow {
    let options = SimOptions {
        seed: cell.seed,
        faults: grid.fault_sets[cell.fault_set].clone(),
        wavelengths: WavelengthConfig {
            count: cell.wavelengths,
            assignment: grid.options.wavelengths.assignment,
        },
        ..grid.options.clone()
    };
    // Every cell gets a fresh source; trace files were already streamed
    // once at bind time.
    let mut source = demand
        .source()
        .expect("trace file vanished after bind-time validation");
    let metrics = kernel.run_demand_with_timeline_scratch(timeline, &mut source, &options, scratch);
    ScenarioRow {
        spec: *network.spec(),
        // The *bound* demand, not the raw workload spec: for traces the
        // bind-time pass measured the file's mean load, which the raw spec
        // cannot know (every other variant reports the same value either
        // way).
        offered_load: demand.offered_load(),
        traffic: grid.workloads[cell.workload].clone(),
        seed: cell.seed,
        fault_count: options.faults.len(),
        faults: options.faults,
        fault_schedule: grid.fault_schedules[cell.schedule].clone(),
        hardware_cost,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_routing::node_fault_patterns_up_to;
    use std::io;

    /// Records every callback for order/lifecycle assertions, optionally
    /// failing after a fixed number of rows.
    #[derive(Default)]
    struct RecordingSink {
        started: usize,
        finished: usize,
        indices: Vec<usize>,
        rows: Vec<ScenarioRow>,
        fail_after: Option<usize>,
    }

    impl RowSink for RecordingSink {
        fn on_start(&mut self, _grid: &ScenarioGrid) -> io::Result<()> {
            self.started += 1;
            Ok(())
        }

        fn on_row(&mut self, index: usize, row: ScenarioRow) -> io::Result<()> {
            if self.fail_after == Some(self.indices.len()) {
                return Err(io::Error::other("sink refused the row"));
            }
            self.indices.push(index);
            self.rows.push(row);
            Ok(())
        }

        fn finish(&mut self) -> io::Result<()> {
            self.finished += 1;
            Ok(())
        }
    }

    fn small_grid() -> ScenarioGrid {
        let specs = ["SK(2,2,2)", "POPS(3,4)", "DB(2,4)"]
            .iter()
            .map(|s| s.parse::<NetworkSpec>().unwrap())
            .collect();
        ScenarioGrid::new(specs)
            .loads(&[0.1, 0.5])
            .seeds(&[7, 11])
            .slots(120)
    }

    #[test]
    fn worker_count_is_bounded_by_the_cap_and_the_cells() {
        // Pure arithmetic: no grid runs here, so no threads start.
        assert_eq!(worker_count(usize::MAX, usize::MAX), MAX_THREADS);
        assert_eq!(worker_count(usize::MAX, 3), 3);
        assert_eq!(worker_count(MAX_THREADS + 1, 100_000), MAX_THREADS);
        assert_eq!(worker_count(0, 10), 1);
        assert_eq!(worker_count(8, 10), 8);
        assert_eq!(worker_count(8, 0), 0);
    }

    #[test]
    fn rows_are_identical_for_one_and_many_threads() {
        let grid = small_grid();
        let serial = run_grid(&grid, 1).unwrap();
        let parallel = run_grid(&grid, 8).unwrap();
        assert_eq!(serial.len(), grid.cell_count());
        assert_eq!(serial, parallel);
        // Oversubscription is also harmless.
        assert_eq!(serial, run_grid(&grid, 1000).unwrap());
        assert_eq!(serial, run_grid(&grid, 0).unwrap());
    }

    #[test]
    fn rows_come_back_in_grid_order() {
        let grid = small_grid();
        let rows = run_grid(&grid, 4).unwrap();
        let mut expected = Vec::new();
        for workload in &grid.workloads {
            for &spec in &grid.specs {
                for &seed in &grid.seeds {
                    expected.push((workload.clone(), spec, seed));
                }
            }
        }
        let got: Vec<_> = rows
            .iter()
            .map(|r| (r.traffic.clone(), r.spec, r.seed))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn loads_sugar_builds_uniform_workloads() {
        let grid = small_grid();
        assert_eq!(
            grid.workloads,
            vec![
                DemandSpec::Pattern(TrafficPattern::Uniform { load: 0.1 }),
                DemandSpec::Pattern(TrafficPattern::Uniform { load: 0.5 })
            ]
        );
        for row in run_grid(&grid, 2).unwrap() {
            assert_eq!(row.offered_load, row.traffic.offered_load());
        }
    }

    #[test]
    fn mixed_workload_rows_are_thread_count_independent() {
        // All three specs have 24+ processors; the permutation and hotspot
        // workloads bind to any size, so this grid mixes patterns freely.
        let specs = ["SK(2,2,2)", "POPS(3,4)", "DB(2,4)"]
            .iter()
            .map(|s| s.parse::<NetworkSpec>().unwrap())
            .collect();
        let workloads: Vec<DemandSpec> = ["uniform(0.3)", "perm(0.5,7)", "hotspot(0.4,0,0.2)"]
            .iter()
            .map(|w| w.parse().unwrap())
            .collect();
        let grid = ScenarioGrid::new(specs)
            .workloads(workloads)
            .seeds(&[3])
            .slots(150);
        assert_eq!(grid.cell_count(), 9);
        let serial = run_grid(&grid, 1).unwrap();
        assert_eq!(serial, run_grid(&grid, 2).unwrap());
        assert_eq!(serial, run_grid(&grid, 64).unwrap());
        for row in &serial {
            assert!(row.metrics.delivered > 0, "{row:?}");
        }
    }

    #[test]
    fn empty_axes_yield_empty_results() {
        let grid = ScenarioGrid::new(vec!["K(4)".parse().unwrap()]);
        assert_eq!(grid.cell_count(), 0);
        assert!(run_grid(&grid, 4).unwrap().is_empty());
    }

    #[test]
    fn invalid_specs_surface_as_typed_errors() {
        let grid =
            ScenarioGrid::new(vec![NetworkSpec::StackKautz { s: 0, d: 2, k: 2 }]).loads(&[0.1]);
        assert!(run_grid(&grid, 2).is_err());
    }

    #[test]
    fn unbindable_workloads_surface_as_typed_errors_before_any_cell_runs() {
        // SK(2,2,2) has 12 processors: not a square, not a power of two, and
        // node 12 does not exist.  Each unbindable workload fails the whole
        // grid with the typed traffic error.
        let specs = vec!["SK(2,2,2)".parse::<NetworkSpec>().unwrap()];
        for bad in ["transpose(0.5)", "bitrev(0.5)", "hotspot(0.4,12,0.2)"] {
            let grid = ScenarioGrid::new(specs.clone())
                .workloads(vec![bad.parse().unwrap()])
                .slots(50);
            let err = run_grid(&grid, 2).unwrap_err();
            assert!(
                matches!(err, NetworkError::Traffic(_)),
                "{bad} should fail to bind: {err}"
            );
        }
        // The same patterns bind fine on networks meeting the precondition:
        // K(16) is both square and a power of two, and has a node 12.
        let ok = ScenarioGrid::new(vec!["K(16)".parse().unwrap()])
            .workloads(vec![
                "transpose(0.5)".parse().unwrap(),
                "bitrev(0.5)".parse().unwrap(),
                "hotspot(0.4,12,0.2)".parse().unwrap(),
            ])
            .slots(50);
        let rows = run_grid(&ok, 2).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.metrics.delivered > 0, "{row:?}");
        }
    }

    #[test]
    fn fault_sweep_confirms_the_k_plus_2_bound_on_a_small_kautz_instance() {
        // SK(2,2,2): quotient KG(2,2) with 6 groups, degree d = 2, diameter
        // k = 2.  Sweep every fault pattern of size 0..=d−1 (all 6 single-
        // group faults plus the intact baseline) through the engine and
        // check the §2.5 claim empirically: every delivered message used at
        // most k + 2 optical hops, and traffic still flows.
        let (d, k) = (2usize, 2usize);
        let groups = 6;
        let grid = ScenarioGrid::new(vec!["SK(2,2,2)".parse().unwrap()])
            .loads(&[0.3])
            .seeds(&[5])
            .fault_sets(node_fault_patterns_up_to(groups, d - 1))
            .slots(400);
        assert_eq!(grid.cell_count(), 1 + groups);
        let rows = run_grid(&grid, 4).unwrap();
        for row in &rows {
            assert!(row.metrics.delivered > 0, "{row:?}");
            assert!(
                row.metrics.max_hops as usize <= k + 2,
                "fault pattern {:?} produced a {}-hop route (bound k+2 = {})",
                row.faults.sorted_nodes(),
                row.metrics.max_hops,
                k + 2
            );
            assert_eq!(
                row.metrics.injected,
                row.metrics.delivered + row.metrics.in_flight + row.metrics.dropped
            );
        }
        // Faulty cells accept less traffic than the intact baseline.
        let intact = &rows[0];
        assert!(intact.faults.is_empty());
        for row in &rows[1..] {
            assert!(row.metrics.injected < intact.metrics.injected);
        }
    }

    #[test]
    fn run_grid_is_streaming_plus_collect_sink() {
        // The wrapper contract: run_grid == run_grid_streaming + CollectSink,
        // byte for byte, at any thread count.
        let grid = small_grid();
        let wrapped = run_grid(&grid, 4).unwrap();
        for threads in [1, 2, 64] {
            let mut sink = crate::sink::CollectSink::new();
            let summary = run_grid_streaming(&grid, threads, &mut sink).unwrap();
            assert_eq!(summary.rows, grid.cell_count());
            let streamed = sink.into_rows();
            assert_eq!(wrapped, streamed);
            let wrapped_table: Vec<String> = wrapped.iter().map(|r| r.as_table_row()).collect();
            let streamed_table: Vec<String> = streamed.iter().map(|r| r.as_table_row()).collect();
            assert_eq!(wrapped_table, streamed_table);
        }
    }

    #[test]
    fn streaming_delivers_in_grid_order_with_bounded_buffering() {
        let grid = small_grid();
        for threads in [1usize, 3, 8] {
            let mut sink = RecordingSink::default();
            let summary = run_grid_streaming(&grid, threads, &mut sink).unwrap();
            assert_eq!(sink.started, 1);
            assert_eq!(sink.finished, 1);
            // Rows arrive as index 0, 1, 2, ... with no gaps or reordering.
            assert_eq!(sink.indices, (0..grid.cell_count()).collect::<Vec<_>>());
            // Peak buffering is bounded by the reorder window, not the cell
            // count — the constant-memory claim of the streaming engine.
            assert!(
                summary.peak_buffered <= reorder_window(threads),
                "peak {} exceeds window {} at {threads} threads",
                summary.peak_buffered,
                reorder_window(threads)
            );
            assert_eq!(summary.rows, grid.cell_count());
        }
    }

    #[test]
    fn streamed_row_sequence_is_thread_count_independent() {
        // Mixed workloads; 1, 2 and 64 threads must stream identical rows.
        let specs = ["SK(2,2,2)", "POPS(3,4)", "DB(2,4)"]
            .iter()
            .map(|s| s.parse::<NetworkSpec>().unwrap())
            .collect();
        let workloads: Vec<DemandSpec> = ["uniform(0.3)", "perm(0.5,7)", "hotspot(0.4,0,0.2)"]
            .iter()
            .map(|w| w.parse().unwrap())
            .collect();
        let grid = ScenarioGrid::new(specs)
            .workloads(workloads)
            .seeds(&[3, 9])
            .slots(120);
        let mut baseline = RecordingSink::default();
        run_grid_streaming(&grid, 1, &mut baseline).unwrap();
        for threads in [2usize, 64] {
            let mut sink = RecordingSink::default();
            run_grid_streaming(&grid, threads, &mut sink).unwrap();
            assert_eq!(baseline.rows, sink.rows, "{threads} threads diverged");
            assert_eq!(baseline.indices, sink.indices);
        }
    }

    #[test]
    fn sink_errors_abort_the_run_as_typed_errors() {
        let grid = small_grid();
        let mut sink = RecordingSink {
            fail_after: Some(2),
            ..RecordingSink::default()
        };
        let err = run_grid_streaming(&grid, 4, &mut sink).unwrap_err();
        assert!(matches!(err, NetworkError::Sink { .. }), "{err}");
        assert!(err.to_string().contains("refused"), "{err}");
        // The two rows before the failure were delivered; finish was not
        // called on the aborted run.
        assert_eq!(sink.indices, vec![0, 1]);
        assert_eq!(sink.finished, 0);
    }

    #[test]
    fn a_panicking_sink_propagates_instead_of_hanging_the_scope() {
        // Regression: a panic unwinding out of the delivery loop used to
        // leave workers parked on the reorder-window condvar with no one
        // left to advance the watermark — thread::scope then blocked
        // joining them forever.  The unwind guard wakes them, so the panic
        // propagates out of run_grid_streaming promptly.
        struct PanickingSink;
        impl RowSink for PanickingSink {
            fn on_row(&mut self, _index: usize, _row: ScenarioRow) -> io::Result<()> {
                panic!("sink exploded");
            }
        }
        // 18 cells at 4 threads (window 8): late cells park while cell 0
        // streams, so the hang would be real without the guard.
        let grid = small_grid().seeds(&[1, 2, 3, 5, 7, 11]).loads(&[0.2]);
        assert_eq!(grid.cell_count(), 18);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_grid_streaming(&grid, 4, &mut PanickingSink)
        }));
        let panic = result.expect_err("the sink panic must propagate");
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "sink exploded");
    }

    #[test]
    fn zero_cell_grids_still_open_and_close_the_sink() {
        let grid = ScenarioGrid::new(vec!["K(4)".parse().unwrap()]);
        let mut sink = RecordingSink::default();
        let summary = run_grid_streaming(&grid, 4, &mut sink).unwrap();
        assert_eq!(summary.rows, 0);
        assert_eq!(summary.peak_buffered, 0);
        assert_eq!(sink.started, 1);
        assert_eq!(sink.finished, 1);
        assert!(sink.indices.is_empty());
    }

    #[test]
    fn hundred_cell_grid_builds_each_kernel_exactly_once() {
        // The prepared-kernel cache contract: a grid of 140 cells spanning
        // 2 specs × 7 fault patterns materialises each distinct
        // (spec, fault-pattern) pair exactly once at any thread count —
        // 1 intact plus 6 faulted kernels per spec — while seeds and
        // workloads reuse the cached routing state.  Both counters are
        // threaded out through the stream summary.
        let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "DB(2,3)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        // 7 patterns: the intact baseline plus one single fault per id 0..6
        // (valid both as SK quotient groups, 6 of them, and DB processors).
        let grid = ScenarioGrid::new(specs)
            .loads(&[0.2, 0.6])
            .seeds(&[1, 2, 3, 4, 5])
            .fault_sets(node_fault_patterns_up_to(6, 1))
            .slots(40);
        assert_eq!(grid.cell_count(), 140);
        let mut baseline_rows = None;
        for threads in [1usize, 2, 8] {
            let mut sink = crate::sink::CollectSink::new();
            let summary = run_grid_streaming(&grid, threads, &mut sink).unwrap();
            assert_eq!(summary.rows, 140);
            assert_eq!(
                summary.kernels_built, 2,
                "exactly one intact kernel per spec ({threads} threads)"
            );
            assert_eq!(
                summary.kernels_repaired, 12,
                "every non-empty fault pattern must be prepared exactly once per spec \
                 ({threads} threads)"
            );
            assert_eq!(
                summary.kernels_built + summary.kernels_repaired,
                14,
                "built + repaired must cover each distinct (spec, fault-pattern) pair once \
                 ({threads} threads)"
            );
            let rows = sink.into_rows();
            match &baseline_rows {
                None => baseline_rows = Some(rows),
                Some(baseline) => assert_eq!(baseline, &rows, "{threads} threads diverged"),
            }
        }
    }

    #[test]
    fn grids_without_an_intact_pattern_build_no_intact_kernel() {
        // Only faulted patterns, one static and one scheduled run each: no
        // intact kernel is prepared, each static kernel and each timeline
        // epoch is prepared once, and every row equals a serial run of its
        // cell, at any thread count.
        let specs: Vec<NetworkSpec> = ["SK(2,2,2)", "DB(2,4)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let fault_sets = vec![FaultSet::from_nodes([0]), FaultSet::from_nodes([1])];
        let schedule: FaultSchedule = "fail(node 2)@40; recover@120".parse().unwrap();
        let (slots, seed, load) = (200, 5, 0.4);
        let grid = ScenarioGrid::new(specs)
            .loads(&[load])
            .seeds(&[seed])
            .fault_sets(fault_sets)
            .fault_schedules(vec![FaultSchedule::empty(), schedule])
            .slots(slots);
        assert_eq!(grid.cell_count(), 8);
        let uniform = DemandSpec::Pattern(TrafficPattern::Uniform { load });
        for threads in [1usize, 2, 8] {
            let mut sink = crate::sink::CollectSink::new();
            let summary = run_grid_streaming(&grid, threads, &mut sink).unwrap();
            assert_eq!(summary.kernels_built, 0, "{threads} threads");
            // 2 specs × (2 static kernels + 2 timelines of 2 epochs).
            assert_eq!(summary.kernels_repaired, 12, "{threads} threads");
            for row in sink.into_rows() {
                let network = Network::new(row.spec).unwrap();
                let options = SimOptions::new(slots, seed).with_faults(row.faults.clone());
                let expected = if row.fault_schedule.is_empty() {
                    network.simulate(&uniform, &options).unwrap()
                } else {
                    let kernel = network.prepare_with_alternates(&row.faults, 1);
                    let timeline = kernel.timeline_of(&row.fault_schedule).unwrap();
                    kernel.run_with_timeline_scratch(
                        Some(&timeline),
                        &TrafficPattern::Uniform { load },
                        &options,
                        &mut SlotScratch::new(),
                    )
                };
                assert_eq!(
                    row.metrics,
                    expected,
                    "{} faults {:?} schedule {} ({threads} threads)",
                    row.spec,
                    row.faults.sorted_nodes(),
                    row.fault_schedule
                );
            }
        }
    }

    #[test]
    fn cell_counts_use_checked_multiplication() {
        assert_eq!(checked_product([3, 2, 2, 1, 1, 1]), Some(12));
        assert_eq!(checked_product([0, 5, 5, 5, 5, 5]), Some(0));
        assert_eq!(checked_product([usize::MAX, 2, 1, 1, 1, 1]), None);
        assert_eq!(checked_product([1 << 32, 1 << 32, 1, 2, 1, 1]), None);
        let grid = small_grid();
        assert_eq!(grid.checked_cell_count(), Some(grid.cell_count()));
    }

    #[test]
    fn hot_potato_networks_above_the_table_cap_are_refused_before_any_cell() {
        // DB(2,16) has 65 536 processors, one more than a u16 distance
        // table covers; the spec itself is valid.
        let specs = vec!["DB(2,16)".parse().unwrap()];
        let grid = ScenarioGrid::new(specs).loads(&[0.3]).slots(1);
        let mut sink = CollectSink::new();
        let err = run_grid_streaming(&grid, 1, &mut sink).unwrap_err();
        assert_eq!(
            err,
            NetworkError::HotPotatoTooLarge {
                network: "DB(2,16)".into(),
                nodes: 65_536,
            }
        );
        assert!(sink.rows().is_empty());
        let network = Network::from_spec("DB(2,16)").unwrap();
        let workload = DemandSpec::Pattern(TrafficPattern::Uniform { load: 0.3 });
        assert_eq!(
            network.simulate(&workload, &SimOptions::new(1, 1)),
            Err(err)
        );
    }

    #[test]
    fn node_slot_accounting_saturates_instead_of_wrapping() {
        // Satellite contract: the throughput accounting must clamp, not
        // wrap, on adversarial slots × processors products.
        assert_eq!(row_node_slots(120, 24), 2880);
        assert_eq!(row_node_slots(u64::MAX, 2), u64::MAX);
        assert_eq!(row_node_slots(u64::MAX, 1), u64::MAX);
        assert_eq!(row_node_slots(0, usize::MAX), 0);
        assert_eq!(
            u64::MAX.saturating_add(row_node_slots(1 << 32, 1 << 31)),
            u64::MAX
        );
    }

    #[test]
    fn wavelength_axis_multiplies_cells_and_flags_the_layer() {
        let base = small_grid();
        assert_eq!(base.wavelengths, vec![1]);
        assert!(!base.wavelength_layer_enabled());
        assert!(base.clone().alt_paths(2).wavelength_layer_enabled());
        let swept = base.clone().wavelengths(&[1, 4]);
        assert!(swept.wavelength_layer_enabled());
        assert_eq!(swept.cell_count(), 2 * base.cell_count());
        // Wavelengths are the outermost axis: the first half of the rows is
        // the whole capacity-1 grid, the second half the same grid at 4.
        let rows = run_grid(&swept, 4).unwrap();
        let half = base.cell_count();
        for (i, row) in rows.iter().enumerate() {
            // Capacity-1 cells stay on the legacy loop (sentinel 0); the
            // multiplexed half reports its count through the metrics.
            let expected = if i < half { 0 } else { 4 };
            assert_eq!(row.metrics.wavelengths, expected, "row {i}");
            assert!(row.hardware_cost.is_some(), "row {i}");
        }
        // The capacity-1 half matches the plain grid cell for cell, except
        // for the hardware-cost column the enabled layer switches on.
        let plain = run_grid(&base, 2).unwrap();
        for (swept_row, plain_row) in rows[..half].iter().zip(&plain) {
            assert!(plain_row.hardware_cost.is_none());
            assert_eq!(swept_row.metrics, plain_row.metrics);
            assert_eq!(swept_row.spec, plain_row.spec);
        }
    }

    #[test]
    fn out_of_range_wavelength_counts_are_refused_before_any_cell_runs() {
        use otis_sim::{WavelengthCountError, MAX_WAVELENGTHS};
        for count in [0, MAX_WAVELENGTHS + 1, usize::MAX] {
            // The bad count sits behind a valid one: nothing may stream.
            let grid = small_grid().wavelengths(&[2, count]);
            let mut sink = CollectSink::new();
            let err = run_grid_streaming(&grid, 2, &mut sink).unwrap_err();
            assert_eq!(
                err,
                NetworkError::Wavelengths(WavelengthCountError { count })
            );
            assert!(sink.into_rows().is_empty(), "count {count}");
        }
        // Network::simulate runs the same check.
        let network = Network::from_spec("POPS(2,2)").unwrap();
        let mut options = SimOptions::new(1, 1);
        options.wavelengths = WavelengthConfig::with_count(usize::MAX);
        let err = network
            .simulate(
                &DemandSpec::Pattern(TrafficPattern::Uniform { load: 0.2 }),
                &options,
            )
            .unwrap_err();
        assert!(matches!(err, NetworkError::Wavelengths(_)), "{err}");
        options.wavelengths = WavelengthConfig::with_count(MAX_WAVELENGTHS);
        assert!(network
            .simulate(
                &DemandSpec::Pattern(TrafficPattern::Uniform { load: 0.2 }),
                &options
            )
            .is_ok());
    }

    #[test]
    fn fault_schedule_axis_multiplies_cells_and_counts_swaps() {
        // One spec, two schedules: the empty one (legacy static run) and a
        // fail/recover pair.  The axis doubles the cell count; the static
        // cell reports no fault events, the scheduled cell exactly two, and
        // the summary threads both the epoch preparations (as repairs) and
        // the performed swaps out.  Byte-identical rows at any thread count.
        let schedule: FaultSchedule = "fail(node 1)@20; recover@80".parse().unwrap();
        let grid = ScenarioGrid::new(vec!["DB(2,4)".parse().unwrap()])
            .loads(&[0.3])
            .seeds(&[7])
            .fault_schedules(vec![FaultSchedule::empty(), schedule.clone()])
            .slots(200);
        assert_eq!(grid.cell_count(), 2);
        assert!(grid.fault_schedule_enabled());
        assert!(!small_grid().fault_schedule_enabled());
        let mut baseline = None;
        for threads in [1usize, 2, 8] {
            let mut sink = crate::sink::CollectSink::new();
            let summary = run_grid_streaming(&grid, threads, &mut sink).unwrap();
            assert_eq!(summary.rows, 2);
            assert_eq!(summary.kernels_built, 1, "{threads} threads");
            assert_eq!(
                summary.kernels_repaired, 2,
                "both timeline epochs must be prepared once ({threads} threads)"
            );
            assert_eq!(summary.kernel_swaps, 2, "{threads} threads");
            let rows = sink.into_rows();
            assert!(rows[0].fault_schedule.is_empty());
            assert_eq!(rows[0].metrics.fault_events, 0);
            assert_eq!(rows[1].fault_schedule, schedule);
            assert_eq!(rows[1].metrics.fault_events, 2);
            assert!(rows[1].metrics.restore_slots < u64::MAX, "{:?}", rows[1]);
            match &baseline {
                None => baseline = Some(rows),
                Some(expected) => assert_eq!(expected, &rows, "{threads} threads diverged"),
            }
        }
    }

    #[test]
    fn schedule_validation_rejects_bad_targets_before_any_cell_runs() {
        // An event outside the fault domain fails the whole grid with the
        // typed error, before the sink is even opened.
        let grid = ScenarioGrid::new(vec!["DB(2,3)".parse().unwrap()])
            .loads(&[0.3])
            .fault_schedules(vec!["fail(node 99)@5".parse().unwrap()])
            .slots(50);
        let mut sink = RecordingSink::default();
        let err = run_grid_streaming(&grid, 2, &mut sink).unwrap_err();
        assert!(matches!(err, NetworkError::Schedule(_)), "{err}");
        assert_eq!(sink.started, 0);
        // So does a scheduled failure duplicating a static fault.
        let grid = ScenarioGrid::new(vec!["DB(2,3)".parse().unwrap()])
            .loads(&[0.3])
            .fault_sets(vec![FaultSet::from_nodes([1])])
            .fault_schedules(vec!["fail(node 1)@5".parse().unwrap()])
            .slots(50);
        let err = run_grid(&grid, 2).unwrap_err();
        assert!(matches!(err, NetworkError::Schedule(_)), "{err}");
    }

    #[test]
    fn warnings_flag_alt_paths_on_hot_potato_only_grids() {
        // Satellite contract: alt_paths on a grid with no multi-OPS spec
        // was a silent no-op — now it is a typed warning.
        let hot_potato_only =
            ScenarioGrid::new(vec!["DB(2,4)".parse().unwrap(), "K(4)".parse().unwrap()]);
        assert!(hot_potato_only.warnings().is_empty());
        let warned = hot_potato_only.alt_paths(3);
        let warnings = warned.warnings();
        assert_eq!(
            warnings,
            vec![GridWarning::AltPathsIgnoredByHotPotato { alt_paths: 3 }]
        );
        assert!(warnings[0].to_string().contains("alt_paths = 3"));
        // A multi-OPS spec anywhere in the list consumes the option.
        let mixed = ScenarioGrid::new(vec![
            "DB(2,4)".parse().unwrap(),
            "SK(2,2,2)".parse().unwrap(),
        ])
        .alt_paths(3);
        assert!(mixed.warnings().is_empty());
    }

    #[test]
    fn table_rendering_handles_zero_deliveries() {
        let grid = ScenarioGrid::new(vec!["POPS(2,2)".parse().unwrap()])
            .loads(&[0.0])
            .slots(50);
        let rows = run_grid(&grid, 1).unwrap();
        assert_eq!(rows[0].metrics.delivered, 0);
        let rendered = rows[0].as_table_row();
        assert!(!rendered.contains("NaN"), "{rendered}");
        assert!(rendered.contains('-'), "{rendered}");
        assert_eq!(
            ScenarioRow::table_header().split_whitespace().count(),
            rendered.split_whitespace().count()
        );
    }
}
