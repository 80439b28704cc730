//! # otis-sim
//!
//! A slotted discrete-event simulator for multi-OPS lightwave networks.
//!
//! The paper itself reports no measurements — its evaluation is the optical
//! constructions — but its motivation rests on companion work comparing
//! graph (single-OPS, point-to-point) and hypergraph (multi-OPS) topologies
//! under load (refs \[7\], \[11\], \[25\]).  This crate provides the simulation
//! substrate needed to regenerate that comparison *shape*:
//!
//! * time is slotted; an OPS coupler carries one message per slot *per
//!   wavelength* — one for the paper's single-wavelength model (the
//!   behavioural fact inherited from `otis-optics`), or `W` under a
//!   [`wavelength::WavelengthConfig`] with `count = W`, which switches both
//!   kernels into blocking-ratio mode (see below);
//! * [`multi_ops`] simulates any stack-graph network (POPS, stack-Kautz,
//!   stack-Imase–Itoh): messages follow the group-level routes of
//!   `otis-routing`, and per-coupler [`arbitration`] decides which waiting
//!   sender wins each slot;
//! * [`hot_potato`] simulates the single-OPS point-to-point baseline
//!   (de Bruijn / Kautz with deflection routing, ref \[25\]);
//! * [`traffic`] generates uniform, permutation, hot-spot, transpose and
//!   bit-reversal workloads; [`metrics`] aggregates latency, throughput and
//!   utilisation;
//! * [`demand`] generalizes the injection side beyond stationary patterns:
//!   a [`DemandSpec`] describes Poisson arrivals, on/off bursts, an
//!   elephants-and-mice mix, or lazy bounded-memory replay of a recorded
//!   `.trc` trace, and the per-run [`DemandSource`] it builds drives the
//!   kernels through one allocation-free `injections_into` shape
//!   (stationary patterns wrap as [`DemandSpec::Pattern`] and draw from the
//!   RNG exactly as the pattern itself does);
//! * [`workload`] is the grammar of [`DemandSpec`], the one workload value
//!   of the workspace: `"hotspot(0.4,0,0.2)"`, `"poisson(0.3)"`,
//!   `"trace(demand.trc)"` and friends parse and render back, value ranges
//!   are typed [`TrafficError`]s, and [`DemandSpec::bind`] checks topology
//!   preconditions against one network size before a run.
//!
//! ## Prepare/execute split and faulted kernels
//!
//! Every simulator is split into an immutable **prepared kernel** and a
//! cheap **run**:
//!
//! * [`PreparedHotPotato`] / [`PreparedMultiOps`] hold the expensive,
//!   run-independent state — the fault-filtered graph, the routing/distance
//!   tables and (for multi-OPS) one flat CSR table of coupler sequences per
//!   group pair, primary route first, then its Yen alternates — built once
//!   per `(network, fault-pattern)` pair and shareable across threads
//!   (`Send + Sync`);
//! * [`PreparedHotPotato::run`] / [`PreparedMultiOps::run`] — the one
//!   entry point per kernel — take a fault timeline (empty for a static
//!   run), a [`DemandSource`], the run's [`SimOptions`] and a caller-owned
//!   [`SlotScratch`] pool.  [`SimOptions`] is the one options type of the
//!   workspace (`otis_net` re-exports it): each kernel reads only its own
//!   fields and names them in its `run` docs, and the fault set and
//!   alternate-route count are fixed at prepare time.  A run owns only
//!   per-run mutable state and performs **no per-slot allocations**.
//!
//! A kernel is always prepared for the faults it runs under: both
//! constructors take the fault set, and `otis_net::engine` prepares every
//! cached kernel, intact or faulted, the same way.  Paths are recomputed on
//! the surviving network rather than patched:
//!
//! * [`PreparedMultiOps::new`] builds the quotient routing table and the
//!   group-pair routes on the fault-filtered quotient.  The quotient has
//!   only `groups` nodes — 36 for SK(8,3,3), whose 288 processors would
//!   need 82 944 per-pair routes — so this costs less than patching the
//!   fault-free tables;
//! * [`PreparedHotPotato::new`] builds the `u16` distance table on the
//!   surviving subgraph, with the word-parallel BFS of
//!   [`otis_routing::DistanceTable`] (64 destinations per pass).  A de
//!   Bruijn or Kautz node lies on nearly every destination's shortest-path
//!   tree, so patching the table would recompute almost every column
//!   anyway.
//!
//! ## Fault timelines and mid-run kernel swaps
//!
//! The prepare/execute split also powers *dynamic* fault injection: a
//! [`schedule::FaultSchedule`] (`"fail(node 3)@32; recover@96"`) binds to a
//! run as a **timeline** — a chronological list of `(slot, kernel)` epochs
//! built by [`PreparedHotPotato::timeline`] / [`PreparedMultiOps::timeline`]
//! from the kernel the run starts on.  Each epoch kernel is prepared afresh
//! over the same shared graph for that epoch's faults (the starting
//! kernel's static faults plus every scheduled fault in force), whether the
//! swap grows the fault set or shrinks it; an epoch back at the starting
//! kernel's faults is a copy of it.  A run given a non-empty timeline swaps
//! the active kernel at the start of each epoch slot, before injections:
//! in-flight messages are re-resolved against the new routing tables
//! (multi-OPS flights restart their route from the holding processor;
//! hot-potato messages keep deflecting), and messages stranded on a failed
//! node/arc or left unreachable are dropped as `dropped_by_failure` —
//! counted separately from congestion drops.  [`SimMetrics`] gains the
//! restoration columns (`fault_events`, `in_flight_at_failure`,
//! `dropped_by_failure`, `restore_slots`, `post_failure_latency_peak`), all
//! undefined when no swap happened.  The swap machinery draws nothing from
//! the RNG, so a run under an empty timeline is the static run.
//!
//! ## The struct-of-arrays slot engine
//!
//! Both `run` implementations drive the shared slot engine of [`kernel`]:
//!
//! * [`kernel::RunCore`] — seeded RNG, metrics, injection accounting;
//! * [`kernel::MessageArena`] — messages in flight as parallel
//!   `dst`/`injected_at`/`hops`/`wavelength` arrays indexed by compact
//!   `u32` handles (with a free list, so memory tracks the peak live
//!   population).  Per-node and per-coupler buffers hold handles, not
//!   message structs, so the hot paths are word-wide passes over dense
//!   arrays;
//! * [`kernel::PortBits`] and [`otis_graphs::SpectrumMap`] — `u64`-word
//!   bitsets for port occupancy and per-channel spectrum occupancy.
//!
//! One loop per simulator covers every capacity.
//!
//! ## Hot path anatomy
//!
//! Each kernel's slot body is organised as **batched phases** — one pass
//! over the arena's parallel arrays per phase, instead of interleaving all
//! work per message:
//!
//! * **Hot-potato** runs two phases per slot.  *Deliver/classify* drains
//!   every node bucket in index order, delivering arrivals, dropping
//!   livelocked messages, and appending survivors to one slot-global
//!   transit list with per-node spans (each span stable-sorted by
//!   injection slot); this phase draws nothing from the RNG.
//!   *Arbitrate/inject* then walks nodes in index order, resets the port
//!   bitset once per node, routes each span through the randomized port
//!   chooser, and admits at most one injection — so every RNG draw happens
//!   exactly where the message-at-a-time loop drew it, and the metrics are
//!   byte-identical.  When the distance table exceeds 1 MiB (`2n²` bytes,
//!   so `n > 724`; DB(2,11) is 8 MiB), every ranking would wait on an L3
//!   miss.  Deliver/classify then also prefetches each table line the
//!   arbitrate phase will read, because it already knows every transit
//!   message's node and destination and the node's injection: the first
//!   out-neighbour's entry for each ranking, plus the `(node, dst)` entry
//!   for a faulted kernel's injection reachability test and for the
//!   multiplexed progress test.  The size test runs once per run; smaller
//!   tables stay in cache and skip the hints.  A hint never changes a
//!   result.
//! * **Multi-OPS** was already phase-shaped: inject, then per-coupler
//!   arbitrate/advance/deliver, then the bufferless overflow/alternate
//!   pass, then the pending-list swap.  The two disciplines keep different
//!   queues.  The queued discipline's coupler queues grow without bound
//!   under overload, so each is a binary min-heap of packed 8-byte
//!   `(seq, handle)` entries ordered by `(injected_at, holder, seq)`:
//!   an oldest-first grant, an injection and a forward each cost
//!   O(log q); round-robin and random grants scan the queue in O(q), then
//!   remove in O(log q).  The bufferless discipline's per-coupler lists
//!   hold only one slot's contenders and are rebuilt every slot, so they
//!   stay plain `Vec`s granted by [`ArbitrationPolicy::pick`] in O(q).
//! * Port masks ([`kernel::PortBits`]) are scanned **word at a time**:
//!   the chooser iterates `u64` words, masks the tail past the declared
//!   port count, and pops set bits with `trailing_zeros`, visiting free
//!   ports in ascending order — the same tie sets, hence the same draws,
//!   as the bit-by-bit probe it replaced.
//!
//! Per-run mutable state lives in a reusable [`kernel::SlotScratch`] pool:
//! the [`kernel::RunCore`], the [`kernel::MessageArena`], the injection
//! buffer, and each kernel's private buckets/queues/bitsets.  Every run
//! begins by resetting the pool — cleared lengths, kept allocations — so a
//! reused pool is indistinguishable from a fresh one (the arena hands out
//! the exact handle sequence a fresh one would) while touching the
//! allocator only when a run out-peaks everything before it.
//! `otis_net::engine` hands each worker thread one pool for its whole
//! lifetime and threads every grid cell through it, reporting the saved
//! setups as `StreamSummary::scratch_reuses`.
//!
//! ## Wavelength layer
//!
//! [`wavelength`] configures multi-wavelength channels: at `count > 1` the
//! multi-OPS kernel runs its bufferless transmit-or-block discipline
//! (losers try Yen-precomputed alternate routes, then count as *blocked*)
//! and the hot-potato kernel gives every link `W` parallel wavelengths (a
//! node with all ports exhausted drops the message as blocked).
//! [`SimMetrics`] gains `blocking_ratio`, `wavelength_utilization` and
//! `alt_route_rate`, all `NaN` (undefined) for capacity-1 runs where the
//! layer is off — capacity-1 outputs are unchanged.
//!
//! The head-to-head comparison scenarios (experiment T5) run on the
//! `otis-net` facade crate's scenario engine (`otis_net::engine`), where any
//! network is addressable by a spec string and a comparison is a grid of
//! specs and loads.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod arbitration;
mod coupler_queue;
pub mod demand;
pub mod hot_potato;
pub mod kernel;
pub mod metrics;
pub mod multi_ops;
pub mod schedule;
pub mod sim_options;
pub mod traffic;
pub mod wavelength;
pub mod workload;

pub use arbitration::ArbitrationPolicy;
pub use demand::{
    matched_burst_rate, validate_trace, DemandSource, DemandSpec, TraceError, TraceReplay,
    TraceStats,
};
pub use hot_potato::PreparedHotPotato;
pub use kernel::{MessageArena, PortBits, RunCore, SlotScratch};
pub use metrics::{MetricValue, SimMetrics};
pub use multi_ops::PreparedMultiOps;
pub use schedule::{FaultAction, FaultEvent, FaultSchedule, FaultScheduleError, FaultTarget};
pub use sim_options::SimOptions;
pub use traffic::TrafficPattern;
pub use wavelength::{
    check_wavelength_count, WavelengthAssignment, WavelengthConfig, WavelengthCountError,
    MAX_WAVELENGTHS,
};
pub use workload::TrafficError;
