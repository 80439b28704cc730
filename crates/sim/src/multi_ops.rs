//! Slotted simulation of multi-OPS (stack-graph) networks.
//!
//! The model follows the behavioural facts established by the optics layer:
//!
//! * time is divided into slots;
//! * each OPS coupler carries one message per slot *per wavelength*
//!   (capacity 1 in the paper's single-wavelength model, `W` under a
//!   [`WavelengthConfig`] with `count = W`); among the messages its tail
//!   processors hold for it, a coupler grants the oldest (least
//!   `injected_at`), then the one with the lowest holder, then the first
//!   queued — one rule for both disciplines, drawing nothing from the RNG;
//! * a processor has one transmitter per coupler it feeds and one receiver
//!   per coupler it hears (as in the OTIS designs), so it can take part in
//!   several couplers in the same slot;
//! * messages follow the group-level routes of
//!   [`otis_routing::StackRouter`]; an intermediate processor forwards the
//!   message to its next-hop coupler at once.  Couplers are served in index
//!   order within a slot, so a forward to a higher-index coupler can be
//!   granted again in the same slot, and only a forward to a lower-index
//!   coupler waits for the following slot (see [`PreparedMultiOps::run`]).
//!   A message can therefore take several hops in one slot, and its latency
//!   depends on how the couplers are numbered: a known defect, item 1 of
//!   the repository's ROADMAP, whose fix changes the outputs.
//!
//! The simulator is split into *prepare* and *execute* phases:
//!
//! * [`PreparedMultiOps`] is the immutable kernel — the fault-filtered
//!   [`StackRouter`] quotient plus one flat CSR table of coupler sequences
//!   keyed by *group pair*: each pair's primary route, then its Yen
//!   alternates.  A route's couplers depend only on the source and
//!   destination groups, and each receiver is the coupler's target group
//!   at the destination's in-group index, so the table holds each route
//!   once instead of once per processor pair (`groups²` entries instead of
//!   `n²`).  A kernel is built once per `(stack-graph, fault-pattern)`
//!   pair, and every faulted or timeline kernel
//!   ([`PreparedMultiOps::timeline`]) is built afresh on the
//!   fault-filtered quotient: that costs less than patching the fault-free
//!   tables;
//! * [`PreparedMultiOps::run`] is the one way to run a kernel: a fault
//!   timeline (empty for a static run), a [`DemandSource`], the run's
//!   [`SimOptions`] and a caller-owned [`SlotScratch`] pool.  It owns only
//!   per-run mutable state and drives the shared struct-of-arrays slot
//!   engine of [`crate::kernel`]: messages live in a
//!   [`crate::kernel::MessageArena`], coupler queues hold `u32`
//!   handles, and per-flight routing state (current route, hop position,
//!   holder, destination index) sits in parallel arrays indexed by handle.
//!   No per-slot allocations: routes are precomputed coupler slices, and
//!   every queue and buffer is reused across couplers and slots.
//!
//! One loop serves both transmission disciplines; the discipline is fixed
//! per run, and it alone picks the queue structure.
//!
//! * **Queued** (the default capacity 1, no alternates): per-coupler
//!   unbounded queues, one grant per coupler per slot, wavelength layer
//!   off.  Losers wait, so past the couplers' capacity the queues grow for
//!   the whole run.  Each coupler therefore holds a binary min-heap of
//!   packed `(seq, handle)` entries ordered by the grant key
//!   `(injected_at, holder, seq)`, where `seq` is the insertion order (see
//!   `coupler_queue`).  A grant is an O(log q) pop for a queue of length
//!   q, and injections and forwards are O(log q) pushes.
//! * **Bufferless transmit-or-block** (`wavelengths.count > 1`, or
//!   alternate routes prepared via [`PreparedMultiOps::new`]):
//!   every message must transmit in the slot it reaches a coupler.  Up to
//!   `W` messages win each coupler per slot (occupancy tracked by a reused
//!   [`SpectrumMap`] bitmask); a loser tries the precomputed alternate
//!   routes from its current holder, taking the first whose leading coupler
//!   still has a free wavelength, and is otherwise counted *blocked* and
//!   dropped.  Each coupler's contenders are a plain insertion-ordered
//!   `Vec` of handles, and each grant is an O(q) scan for the first least
//!   `(injected_at, holder)` plus a `Vec::remove`.  The lists are rebuilt
//!   every slot and hold only that slot's arrivals, so they stay short; a
//!   heap costs more there than it saves.
//!
//! Either way a grant goes to the message that scan would choose over the
//! coupler's queue in insertion order; the `coupler_queue` tests hold the
//! heap to that, and the queued-overload golden holds whole runs to it.
//!
//! [`WavelengthConfig`]: crate::WavelengthConfig

use crate::coupler_queue::{oldest, CouplerQueues};
use crate::demand::DemandSource;
use crate::kernel::{assign_wavelength, MessageArena, RunCore, SlotScratch};
use crate::metrics::SimMetrics;
use crate::schedule::{FaultSchedule, FaultScheduleError, RestoreTracker};
use crate::sim_options::SimOptions;
use crate::wavelength::MAX_ALT_PATHS;
use otis_graphs::algorithms::KShortestPaths;
use otis_graphs::{SpectrumMap, StackGraph};
use otis_routing::{FaultSet, StackRouter};
use std::ops::Range;
use std::sync::Arc;

/// Per-flight routing state of the slot loop, parallel arrays indexed by
/// [`MessageArena`] handle (the arena itself holds the message columns —
/// destination, injection slot, hops).  A flight's route is *not* carried
/// along: it lives in the kernel's group-pair route table, identified by a
/// route id — the primary route of its group pair at injection or after a
/// kernel swap, an alternate after an alternate-routing event.
/// `next_hop` is the position reached within that route, `holder` the
/// processor currently holding the message and `dst_index` the
/// destination's in-group index, which names every hop's receiver.
#[derive(Debug, Default)]
pub(crate) struct FlightState {
    route: Vec<u32>,
    next_hop: Vec<u32>,
    holder: Vec<u32>,
    dst_index: Vec<u32>,
}

impl FlightState {
    /// Initialises the state of a freshly injected flight at `handle`,
    /// growing the arrays if the arena handed out a new slot.
    fn init(&mut self, handle: u32, src: usize, route: u32, dst_index: u32) {
        let i = handle as usize;
        if i >= self.route.len() {
            let len = i + 1;
            self.route.resize(len, 0);
            self.next_hop.resize(len, 0);
            self.holder.resize(len, 0);
            self.dst_index.resize(len, 0);
        }
        self.route[i] = route;
        self.next_hop[i] = 0;
        self.holder[i] = src as u32;
        self.dst_index[i] = dst_index;
    }

    #[inline]
    fn route(&self, handle: u32) -> u32 {
        self.route[handle as usize]
    }

    #[inline]
    fn next_hop(&self, handle: u32) -> usize {
        self.next_hop[handle as usize] as usize
    }

    #[inline]
    fn holder(&self, handle: u32) -> usize {
        self.holder[handle as usize] as usize
    }

    #[inline]
    fn dst_index(&self, handle: u32) -> u32 {
        self.dst_index[handle as usize]
    }

    /// Re-roots the flight onto route `route`.
    #[inline]
    fn set_route(&mut self, handle: u32, route: u32) {
        self.route[handle as usize] = route;
    }

    /// Advances the flight one hop: new position within its route and new
    /// holding processor.
    #[inline]
    fn advance(&mut self, handle: u32, next_hop: usize, holder: u32) {
        self.next_hop[handle as usize] = next_hop as u32;
        self.holder[handle as usize] = holder;
    }

    /// Empties the arrays for a new run, keeping their allocations; they
    /// regrow as the arena hands out handles, exactly as a fresh state
    /// would.
    fn clear(&mut self) {
        self.route.clear();
        self.next_hop.clear();
        self.holder.clear();
        self.dst_index.clear();
    }
}

/// The multi-OPS half of a [`crate::kernel::SlotScratch`]: flight-state
/// arrays, the queued discipline's coupler queues, the bufferless
/// discipline's per-coupler lists of this and the next slot and the
/// overflow buffer.
#[derive(Debug, Default)]
pub(crate) struct OpsScratch {
    /// Route position and holder of every in-flight message.
    pub(crate) flights: FlightState,
    /// Queued discipline: the messages waiting at each coupler.
    pub(crate) queues: CouplerQueues,
    /// Bufferless discipline: handles contending this slot, per coupler.
    pub(crate) pending: Vec<Vec<u32>>,
    /// Bufferless discipline: handles forwarded to a lower-index coupler
    /// for the next slot.
    pub(crate) next_pending: Vec<Vec<u32>>,
    /// Drain buffer for kernel swaps and bufferless overflow.
    pub(crate) overflow: Vec<u32>,
}

impl OpsScratch {
    /// Resets the queues to `couplers` empty couplers and clears the
    /// per-run buffers.
    pub(crate) fn begin_run(&mut self, couplers: usize) {
        self.flights.clear();
        self.queues.begin_run(couplers);
        crate::kernel::reset_buckets(&mut self.pending, couplers);
        crate::kernel::reset_buckets(&mut self.next_pending, couplers);
        self.overflow.clear();
    }
}

/// Every prepared route of one kernel, stored once per group pair in one
/// flat CSR: the routes of group pair `p = sg · groups + dg` are the ids
/// `pair_start[p] .. pair_start[p + 1]`, primary first, then up to
/// `alt_paths − 1` Yen alternates, best first; route `r`'s couplers are
/// `couplers[hop_start[r] .. hop_start[r + 1]]`.  A pair with no stored
/// route is unreachable (a failed endpoint group or a disconnected
/// quotient).  Every stored route has at least one hop, and a same-group
/// pair's routes serve distinct processors of the group.
#[derive(Debug, Clone)]
struct GroupRoutes {
    groups: usize,
    pair_start: Vec<u32>,
    hop_start: Vec<u32>,
    couplers: Vec<u32>,
}

impl GroupRoutes {
    /// Stores the primary route of every group pair the router connects,
    /// followed by its alternates ([`GroupRoutes::push_alternates`]), with
    /// one [`KShortestPaths`] searcher kept across all `groups²` pairs.
    fn new(router: &StackRouter, alt_paths: usize) -> Self {
        let groups = router.stack_graph().group_count();
        let faults = router.faults();
        // `blocked[u · groups + v]`: whether the faults block the quotient
        // arc u → v, looked up once here instead of hashed per Yen probe.
        let blocked: Vec<bool> = (0..groups * groups)
            .map(|uv| faults.blocks(uv / groups, uv % groups))
            .collect();
        let mut routes = GroupRoutes {
            groups,
            pair_start: Vec::with_capacity(groups * groups + 1),
            hop_start: vec![0],
            couplers: Vec::new(),
        };
        routes.pair_start.push(0);
        let mut yen = KShortestPaths::new();
        for sg in 0..groups {
            for dg in 0..groups {
                if let Some(primary) = router.group_couplers(sg, dg) {
                    routes.push(&primary);
                    let pair = (sg, dg);
                    routes.push_alternates(router, &mut yen, &blocked, pair, &primary, alt_paths);
                }
                routes.pair_start.push(routes.route_count());
            }
        }
        routes
    }

    /// Appends the alternates of group pair `(sg, dg)`, best first: Yen's
    /// `alt_paths` shortest loopless paths on the quotient minus the
    /// `blocked` arcs, keeping paths of at least two groups that are
    /// quotient walks and whose couplers differ from `primary`, at most
    /// `alt_paths − 1` of them.
    ///
    /// A same-group pair (`sg == dg`) gets no alternate: Yen's only
    /// loopless path from a group to itself is `[sg]`, which the
    /// two-group filter drops.  So in wavelength mode a message whose
    /// one-hop loop coupler has no free wavelength is blocked even when an
    /// out-and-back route has one.
    fn push_alternates(
        &mut self,
        router: &StackRouter,
        yen: &mut KShortestPaths,
        blocked: &[bool],
        (sg, dg): (usize, usize),
        primary: &[usize],
        alt_paths: usize,
    ) {
        if alt_paths <= 1 {
            return;
        }
        let quotient = router.stack_graph().quotient();
        let groups = self.groups;
        let alternates = yen
            .search(quotient, sg, dg, alt_paths, |u, v| blocked[u * groups + v])
            .filter(|path| path.len() >= 2)
            .filter_map(|path| router.couplers_via_groups(path))
            .filter(|couplers| couplers != primary)
            .take(alt_paths - 1);
        for alternate in alternates {
            self.push(&alternate);
        }
    }

    /// Appends one route.
    fn push(&mut self, couplers: &[usize]) {
        self.couplers.extend(couplers.iter().map(|&c| index_u32(c)));
        self.hop_start.push(index_u32(self.couplers.len()));
    }

    fn route_count(&self) -> u32 {
        index_u32(self.hop_start.len() - 1)
    }

    /// The route ids of group pair `(sg, dg)`, primary first.
    #[inline]
    fn pair(&self, sg: usize, dg: usize) -> Range<u32> {
        let p = sg * self.groups + dg;
        self.pair_start[p]..self.pair_start[p + 1]
    }

    /// The couplers of route `route`, in order.
    #[inline]
    fn hops(&self, route: u32) -> &[u32] {
        let r = route as usize;
        &self.couplers[self.hop_start[r] as usize..self.hop_start[r + 1] as usize]
    }

    /// Whether any group pair has an alternate.
    fn has_alternates(&self) -> bool {
        self.pair_start.windows(2).any(|w| w[1] - w[0] > 1)
    }
}

/// `x` as a `u32` index of the route tables or the flight state.
///
/// # Panics
///
/// Panics if `x` does not fit: the network is too large for `u32` indices.
fn index_u32(x: usize) -> u32 {
    u32::try_from(x).expect("multi-OPS route tables and flights index with u32")
}

/// The immutable, shareable kernel of the multi-OPS simulator: the
/// fault-filtered [`StackRouter`] (quotient routing table) plus the
/// group-pair route table — every primary route and, when prepared with
/// [`PreparedMultiOps::new`], its Yen alternates — and the two
/// lookups that turn a group-level route into processor hops (each
/// processor's group, each coupler's target group).  Building one is the
/// expensive part of a simulation; [`PreparedMultiOps::run`] is the cheap
/// part and can be called any number of times with different seeds,
/// traffic patterns and slot counts.
///
/// The kernel is `Send + Sync`, so a scenario engine can build it once per
/// distinct `(stack-graph, fault-pattern)` pair and share it across worker
/// threads.
#[derive(Debug, Clone)]
pub struct PreparedMultiOps {
    router: StackRouter,
    routes: GroupRoutes,
    /// The `alt_paths` the route table was built with.
    alt_paths: usize,
    /// `group_of[p]`: the group of processor `p`.
    group_of: Vec<u32>,
    /// `target_first[c]`: the first processor of coupler `c`'s target
    /// group.  A hop over `c` is received by `target_first[c]` plus the
    /// destination's in-group index.
    target_first: Vec<u32>,
}

impl PreparedMultiOps {
    /// Prepares a kernel over a shared stack-graph, routing around the given
    /// faults.  The fault set is interpreted over the quotient (see
    /// [`StackRouter::with_faults`]): failed groups neither send nor
    /// receive, blocked couplers carry nothing, and injections the surviving
    /// quotient cannot route are refused at run time (not counted as
    /// injected).  Up to `alt_paths - 1` alternate routes per group pair
    /// (Yen's k-shortest loopless paths on the fault-filtered quotient) are
    /// precomputed for the bufferless slot loop; `alt_paths <= 1` prepares
    /// none.
    ///
    /// # Panics
    ///
    /// Panics if `alt_paths` exceeds [`MAX_ALT_PATHS`]: Yen's cost grows
    /// about quadratically with the count, and far past the cap one build
    /// takes seconds to minutes.  The scenario engine and
    /// `Network::simulate` refuse such a count with a typed error instead
    /// ([`crate::check_alt_paths`]).
    pub fn new(stack: Arc<StackGraph>, faults: FaultSet, alt_paths: usize) -> Self {
        assert!(
            alt_paths <= MAX_ALT_PATHS,
            "alt_paths {alt_paths} exceeds MAX_ALT_PATHS ({MAX_ALT_PATHS})"
        );
        let n = index_u32(stack.node_count());
        let s = index_u32(stack.stacking_factor());
        let group_of = (0..n).map(|p| p / s).collect();
        let target_first = stack
            .quotient()
            .arcs()
            .iter()
            .map(|arc| index_u32(arc.target) * s)
            .collect();
        let router = StackRouter::from_shared(stack, faults);
        let routes = GroupRoutes::new(&router, alt_paths);
        PreparedMultiOps {
            router,
            routes,
            alt_paths,
            group_of,
            target_first,
        }
    }

    /// Builds the epoch timeline a [`FaultSchedule`] prescribes for runs of
    /// this kernel: one `(slot, kernel)` pair per distinct event slot (fault
    /// targets are quotient groups and couplers, the multi-OPS fault
    /// domain), each kernel prepared by [`PreparedMultiOps::new`] over this
    /// kernel's shared stack-graph with its `alt_paths`, for that epoch's
    /// fault set (this kernel's static faults overlaid with every scheduled
    /// fault in force).  An epoch back at this kernel's own faults (a full
    /// recovery) is a copy of this kernel, which costs a table copy instead
    /// of a rebuild (Yen alternates included).  The result feeds
    /// [`PreparedMultiOps::run`].
    ///
    /// Fails with a typed [`FaultScheduleError`] when an event targets a
    /// group outside the quotient or a scheduled failure duplicates one of
    /// this kernel's static faults.
    pub fn timeline(
        &self,
        schedule: &FaultSchedule,
    ) -> Result<Vec<(u64, PreparedMultiOps)>, FaultScheduleError> {
        let groups = self.router.stack_graph().quotient().node_count();
        let epochs = schedule.bind(groups, self.faults())?;
        Ok(epochs
            .into_iter()
            .map(|(slot, faults)| {
                let kernel = if faults == *self.faults() {
                    self.clone()
                } else {
                    let stack = Arc::clone(self.shared_stack_graph());
                    PreparedMultiOps::new(stack, faults, self.alt_paths)
                };
                (slot, kernel)
            })
            .collect())
    }

    /// Number of processors simulated.
    pub fn processor_count(&self) -> usize {
        self.router.stack_graph().node_count()
    }

    /// Number of couplers simulated.
    pub fn coupler_count(&self) -> usize {
        self.router.stack_graph().hyperarc_count()
    }

    /// The faults fixed at prepare time.
    pub fn faults(&self) -> &FaultSet {
        self.router.faults()
    }

    /// The shared stack-graph the kernel was prepared over, before faults.
    pub fn shared_stack_graph(&self) -> &Arc<StackGraph> {
        self.router.shared_stack_graph()
    }

    /// The `alt_paths` the kernel was prepared with (see
    /// [`PreparedMultiOps::new`]).
    pub fn alt_paths(&self) -> usize {
        self.alt_paths
    }

    /// Whether alternate routes were prepared (via
    /// [`PreparedMultiOps::new`] with `alt_paths > 1` and at
    /// least one group pair having a second loopless quotient path).  When
    /// true, [`PreparedMultiOps::run`] always uses the wavelength-mode loop,
    /// even at capacity 1.
    pub fn has_alternates(&self) -> bool {
        self.routes.has_alternates()
    }

    /// The route ids from processor `src` to processor `dst`, primary
    /// first; empty when the pair is unreachable or `src == dst` (the empty
    /// route, which never enters the network).
    #[inline]
    fn routes_between(&self, src: usize, dst: usize) -> Range<u32> {
        if src == dst {
            return 0..0;
        }
        self.routes
            .pair(self.group_of[src] as usize, self.group_of[dst] as usize)
    }

    /// The first coupler of route `route`.
    #[inline]
    fn first_coupler(&self, route: u32) -> usize {
        self.routes.hops(route)[0] as usize
    }

    /// Executes one run.  Of `options` it reads `slots`, `seed` and
    /// `wavelengths`; `max_hops` is a hot-potato knob, and `faults` and
    /// `alt_paths` were fixed when the kernel (and each timeline kernel)
    /// was prepared, so all three are ignored here.
    /// `demand` drives the injections.  The source is mutable because
    /// demand processes carry mid-run state (burst phases, the trace
    /// lookahead): build a fresh one per run with
    /// [`crate::DemandSpec::source`], or wrap a stationary pattern with
    /// [`DemandSource::Pattern`].
    ///
    /// `timeline` is a chronological list of `(slot, kernel)` epochs (see
    /// [`PreparedMultiOps::timeline`]), empty for a static run.  At
    /// the start of each epoch's slot, before injections, the active kernel
    /// is swapped.  Every in-flight message is re-resolved against the new
    /// routing tables — its route restarts from the processor currently
    /// holding it; a message held by or destined to a failed group, or left
    /// unreachable, is dropped and counted in `dropped_by_failure` (as well
    /// as `dropped`).  The restoration metrics (`fault_events`,
    /// `in_flight_at_failure`, `restore_slots`, `post_failure_latency_peak`)
    /// are anchored to the first swap that introduces new failures.
    ///
    /// `scratch` is a caller-owned pool: consecutive runs reuse its arena,
    /// flight-state arrays and coupler queues instead of reallocating, and
    /// a reset pool is indistinguishable from a fresh one.
    ///
    /// One slot loop serves both transmission disciplines, fixed for the
    /// whole run.
    ///
    /// Every grant goes to the oldest message waiting at the coupler (least
    /// `injected_at`), ties to the lowest holding processor, then to the
    /// message queued first; the rule draws nothing from the RNG.
    ///
    /// *Queued* (capacity 1, no alternates in any kernel of the run):
    /// unbounded per-coupler queues, one grant per coupler per slot,
    /// wavelength layer off.
    ///
    /// *Bufferless transmit-or-block* (`W > 1`, or alternates prepared in
    /// the initial or any scheduled kernel): couplers are processed in
    /// index order and grant up to `W` transmissions each (winners chosen
    /// one at a time by that rule, wavelengths by the assignment
    /// discipline — occupancy lives in a reused [`SpectrumMap`],
    /// cleared per slot, never reallocated).  A message that finds its
    /// coupler exhausted falls back to the prepared alternate routes out of
    /// its current holder, taking the first whose leading coupler still has
    /// a free wavelength — an alternate grant bypasses that coupler's
    /// contention round, consuming spare capacity directly.  If no
    /// alternate can carry it, the message is counted blocked and dropped.
    /// A forward whose next coupler has a higher index transmits again
    /// within the same slot; otherwise it waits for the next slot (in queued
    /// mode a lower-index forward simply sits in its queue until the next
    /// slot comes around).
    ///
    /// The slot body is phase-batched (see the *hot path anatomy* section
    /// of the crate docs): the **inject** phase admits this slot's arrivals
    /// in processor order — one pass over the demand decisions and the
    /// route table's first hops; the **arbitrate/advance/deliver** phase
    /// then walks the couplers in index order — a heap grant per coupler in
    /// the queued discipline, oldest-first scans of the slot's contenders in
    /// the bufferless one — advancing winners a hop and delivering or
    /// forwarding them; the bufferless **overflow** sub-phase re-roots
    /// losers onto alternates or drops them blocked.
    ///
    /// Debug builds check, at the end of every run, that the arena holds
    /// exactly the messages in flight and that `injected == delivered +
    /// dropped + in_flight`.
    pub fn run(
        &self,
        timeline: &[(u64, PreparedMultiOps)],
        demand: &mut DemandSource,
        options: &SimOptions,
        scratch: &mut SlotScratch,
    ) -> SimMetrics {
        let n = self.processor_count();
        let couplers = self.coupler_count();
        let stacking = self.router.stack_graph().stacking_factor() as u32;
        let bufferless = options.wavelengths.is_multiplexed()
            || self.has_alternates()
            || timeline.iter().any(|(_, k)| k.has_alternates());
        scratch.begin_run(options.seed, n, couplers);
        scratch.ops.begin_run(couplers);
        let SlotScratch {
            core,
            arena,
            injections,
            ops,
            ..
        } = scratch;
        let OpsScratch {
            flights,
            queues,
            pending,
            next_pending,
            overflow,
        } = ops;
        let mut spectrum = if bufferless {
            let w = options.wavelengths.count.max(1);
            core.metrics.wavelengths = w;
            Some(SpectrumMap::new(couplers, w))
        } else {
            None
        };
        let mut active = self;
        let mut next_epoch = 0usize;
        let mut tracker = RestoreTracker::default();

        for slot in 0..options.slots {
            core.begin_slot(slot);
            // Kernel swaps scheduled for this slot apply before injections:
            // drain every queue (coupler-ascending, each in insertion order)
            // and re-resolve each flight against the new routing tables from
            // the processor currently holding it; flights the new fault set
            // cuts off are stranded.
            while timeline.get(next_epoch).is_some_and(|(s, _)| *s <= slot) {
                let kernel = &timeline[next_epoch].1;
                next_epoch += 1;
                let live = if bufferless {
                    pending.iter().map(|q| q.len() as u64).sum()
                } else {
                    queues.total_len()
                };
                let introduces = !kernel.router.faults().is_subset_of(active.router.faults());
                tracker.on_swap(introduces, slot, live, &mut core.metrics);
                if bufferless {
                    for queue in pending.iter_mut() {
                        overflow.append(queue);
                    }
                } else {
                    queues.drain_into(overflow);
                }
                for handle in overflow.drain(..) {
                    let holder = flights.holder(handle);
                    let routes = kernel.routes_between(holder, arena.dst(handle));
                    if routes.is_empty() {
                        core.metrics.dropped_by_failure += 1;
                        core.drop_message();
                        arena.release(handle);
                        continue;
                    }
                    flights.set_route(handle, routes.start);
                    flights.advance(handle, 0, holder as u32);
                    let coupler = kernel.first_coupler(routes.start);
                    if bufferless {
                        pending[coupler].push(handle);
                    } else {
                        queues.push(coupler, handle, age_key(arena, flights));
                    }
                }
                active = kernel;
            }
            if let Some(spectrum) = spectrum.as_mut() {
                spectrum.clear();
            }

            // 1. Injection.
            demand.injections_into(n, &mut core.rng, injections);
            for (src, dst) in injections.iter().enumerate() {
                let Some(dst) = *dst else { continue };
                let routes = active.routes_between(src, dst);
                if routes.is_empty() {
                    continue;
                }
                let first_coupler = active.first_coupler(routes.start);
                core.inject();
                let handle = arena.insert(dst, slot);
                let dst_index = dst as u32 - active.group_of[dst] * stacking;
                flights.init(handle, src, routes.start, dst_index);
                if bufferless {
                    pending[first_coupler].push(handle);
                } else {
                    queues.push(first_coupler, handle, age_key(arena, flights));
                }
            }

            // 2. Per-coupler grants and transmission.
            let Some(spectrum) = spectrum.as_mut() else {
                // Queued discipline: one grant per coupler; losers stay
                // queued for the next slot.
                for coupler in 0..couplers {
                    let Some(handle) = queues.grant(coupler, age_key(arena, flights)) else {
                        continue;
                    };
                    core.grant();
                    if let Some(next) = cross_hop(
                        active,
                        flights.route(handle),
                        flights.next_hop(handle),
                        handle,
                        slot,
                        core,
                        arena,
                        flights,
                        &mut tracker,
                    ) {
                        queues.push(next, handle, age_key(arena, flights));
                    }
                }
                tracker.end_slot(slot, &mut core.metrics);
                continue;
            };
            // Bufferless discipline: up to `W` grants per coupler.
            for coupler in 0..couplers {
                while !spectrum.is_full(coupler) {
                    let Some(winner) = oldest(&pending[coupler], age_key(arena, flights)) else {
                        break;
                    };
                    let handle = pending[coupler].remove(winner);
                    let lambda = assign_wavelength(
                        spectrum,
                        coupler,
                        options.wavelengths.assignment,
                        &mut core.rng,
                    );
                    arena.set_wavelength(handle, lambda);
                    core.grant();
                    match cross_hop(
                        active,
                        flights.route(handle),
                        flights.next_hop(handle),
                        handle,
                        slot,
                        core,
                        arena,
                        flights,
                        &mut tracker,
                    ) {
                        None => {}
                        Some(next) if next > coupler => pending[next].push(handle),
                        Some(next) => next_pending[next].push(handle),
                    }
                }

                // 3. Overflow: the coupler is exhausted; the stranded
                // messages must re-route or block — bufferless networks
                // cannot hold them.
                if pending[coupler].is_empty() {
                    continue;
                }
                overflow.append(&mut pending[coupler]);
                for handle in overflow.drain(..) {
                    let holder = flights.holder(handle);
                    let routes = active.routes_between(holder, arena.dst(handle));
                    // The pair's alternates follow its primary route.
                    let Some(alt) = (routes.start + 1..routes.end)
                        .find(|&alt| !spectrum.is_full(active.first_coupler(alt)))
                    else {
                        core.metrics.blocked += 1;
                        core.drop_message();
                        arena.release(handle);
                        continue;
                    };
                    // Re-root the flight onto the alternate and transmit its
                    // first hop immediately.
                    let first = active.first_coupler(alt);
                    core.metrics.alt_routed += 1;
                    flights.set_route(handle, alt);
                    let lambda = assign_wavelength(
                        spectrum,
                        first,
                        options.wavelengths.assignment,
                        &mut core.rng,
                    );
                    arena.set_wavelength(handle, lambda);
                    core.grant();
                    match cross_hop(
                        active,
                        alt,
                        0,
                        handle,
                        slot,
                        core,
                        arena,
                        flights,
                        &mut tracker,
                    ) {
                        None => {}
                        Some(next) if next > coupler => pending[next].push(handle),
                        Some(next) => next_pending[next].push(handle),
                    }
                }
            }
            debug_assert!(pending.iter().all(|p| p.is_empty()));
            std::mem::swap(pending, next_pending);
            tracker.end_slot(slot, &mut core.metrics);
        }

        // Everything still queued (queued discipline), and messages granted
        // in the final slot but still short of their destination
        // (bufferless), is in flight.
        let in_flight = queues.total_len()
            + pending.iter().map(|q| q.len() as u64).sum::<u64>()
            + next_pending.iter().map(|q| q.len() as u64).sum::<u64>();
        debug_assert_eq!(
            arena.live() as u64,
            in_flight,
            "the arena holds the flights"
        );
        let metrics = core.finish(in_flight);
        debug_assert_eq!(
            metrics.injected,
            metrics.delivered + metrics.dropped + metrics.in_flight,
            "every injected message is delivered, dropped or in flight"
        );
        metrics
    }
}

/// The grant key of a waiting flight: `(injected_at, holder)`.  Neither
/// changes while the flight waits at a coupler.
#[inline]
fn age_key<'a>(
    arena: &'a MessageArena,
    flights: &'a FlightState,
) -> impl Fn(u32) -> (u64, usize) + 'a {
    |h| (arena.injected_at(h), flights.holder(h))
}

/// Moves a granted flight across hop `hop_idx` of route `route` of
/// `kernel`: counts the hop and hands the message to the hop's receiver,
/// the processor of the coupler's target group at the destination's
/// in-group index.  On the last hop the message is delivered at the end of
/// `slot` and released; otherwise the coupler of its next hop is returned.
#[inline]
#[allow(clippy::too_many_arguments)]
fn cross_hop(
    kernel: &PreparedMultiOps,
    route: u32,
    hop_idx: usize,
    handle: u32,
    slot: u64,
    core: &mut RunCore,
    arena: &mut MessageArena,
    flights: &mut FlightState,
    tracker: &mut RestoreTracker,
) -> Option<usize> {
    let hops = kernel.routes.hops(route);
    arena.add_hop(handle);
    let receiver = kernel.target_first[hops[hop_idx] as usize] + flights.dst_index(handle);
    flights.advance(handle, hop_idx + 1, receiver);
    if let Some(&next) = hops.get(hop_idx + 1) {
        return Some(next as usize);
    }
    let latency = slot + 1 - arena.injected_at(handle);
    core.deliver(latency, arena.hops(handle));
    tracker.observe_delivery(latency, &mut core.metrics);
    arena.release(handle);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use crate::wavelength::{WavelengthAssignment, WavelengthConfig};
    use otis_graphs::algorithms::k_shortest_paths_avoiding;
    use otis_routing::StackHop;
    use otis_topologies::{Pops, StackKautz};

    /// Runs `kernel` through `timeline` under `traffic` on a fresh pool.
    fn run_timed(
        kernel: &PreparedMultiOps,
        timeline: &[(u64, PreparedMultiOps)],
        traffic: &TrafficPattern,
        config: &SimOptions,
    ) -> SimMetrics {
        let mut demand = DemandSource::Pattern(traffic.clone());
        kernel.run(timeline, &mut demand, config, &mut SlotScratch::new())
    }

    /// One static run of a freshly prepared kernel over `stack`.
    fn simulate(
        stack: &StackGraph,
        faults: FaultSet,
        config: SimOptions,
        traffic: &TrafficPattern,
    ) -> SimMetrics {
        let kernel = PreparedMultiOps::new(Arc::new(stack.clone()), faults, 1);
        run_timed(&kernel, &[], traffic, &config)
    }

    fn pops_sim(load: f64, slots: u64) -> SimMetrics {
        let config = SimOptions {
            slots,
            ..Default::default()
        };
        let traffic = TrafficPattern::Uniform { load };
        simulate(
            Pops::new(4, 2).stack_graph(),
            FaultSet::new(),
            config,
            &traffic,
        )
    }

    #[test]
    fn conservation_of_messages() {
        let m = pops_sim(0.5, 500);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.injected > 0);
    }

    #[test]
    fn pops_light_load_latency_is_one_slot() {
        // At very light load there is no contention; every message is
        // delivered in the slot it was injected (single-hop network).
        let m = pops_sim(0.01, 4000);
        assert!(m.delivered > 0);
        assert!(
            (m.average_latency() - 1.0).abs() < 0.2,
            "latency {}",
            m.average_latency()
        );
        assert!((m.average_hops() - 1.0).abs() < 1e-9);
    }

    /// The exact mean and variance of the hop count under uniform traffic,
    /// from the kernel's own route table: every processor pair routes over
    /// its group pair's primary route, `s(s−1)` ordered pairs within a
    /// group and `s²` across two, so the mean is the pair-weighted primary
    /// route length over all `N(N−1)` pairs.
    fn uniform_hop_moments(kernel: &PreparedMultiOps) -> (f64, f64) {
        let s = kernel.router.stack_graph().stacking_factor() as f64;
        let groups = kernel.routes.groups;
        let (mut pairs, mut sum, mut sum_sq) = (0.0, 0.0, 0.0);
        for sg in 0..groups {
            for dg in 0..groups {
                let routes = kernel.routes.pair(sg, dg);
                assert!(!routes.is_empty(), "group pair ({sg}, {dg}) has no route");
                let hops = kernel.routes.hops(routes.start).len() as f64;
                let weight = if sg == dg { s * (s - 1.0) } else { s * s };
                pairs += weight;
                sum += weight * hops;
                sum_sq += weight * hops * hops;
            }
        }
        let n = kernel.processor_count() as f64;
        assert_eq!(pairs, n * (n - 1.0));
        let mean = sum / pairs;
        (mean, sum_sq / pairs - mean * mean)
    }

    #[test]
    fn low_load_mean_hops_match_the_route_tables_exact_mean() {
        // h̄ for SK(4,2,2) / SK(6,3,2) / SK(8,3,3), to 4 decimals, as
        // computed from Kautz label routes.
        for ((s, d, k), expected) in [
            ((4, 2, 2), 1.5217),
            ((6, 3, 2), 1.6761),
            ((8, 3, 3), 2.5424),
        ] {
            let sk = StackKautz::new(s, d, k);
            let kernel =
                PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new(), 1);
            let (mean, variance) = uniform_hop_moments(&kernel);
            assert!(
                (mean - expected).abs() < 5e-5,
                "SK({s},{d},{k}): exact mean hops {mean:.6}, expected {expected}"
            );
            // A queued run at load 0.01 hardly queues, so its delivered
            // messages sample the uniform pair distribution: the measured
            // mean must lie within five standard errors of the exact one.
            let config = SimOptions {
                slots: 20_000,
                seed: 42,
                ..Default::default()
            };
            let m = run_timed(
                &kernel,
                &[],
                &TrafficPattern::Uniform { load: 0.01 },
                &config,
            );
            let tolerance = 5.0 * (variance / m.delivered as f64).sqrt();
            assert!(
                (m.average_hops() - mean).abs() <= tolerance,
                "SK({s},{d},{k}): measured {:.4} over {} messages, exact {mean:.4} ± {tolerance:.4}",
                m.average_hops(),
                m.delivered
            );
        }
    }

    #[test]
    fn stack_kautz_hops_within_diameter() {
        let sk = StackKautz::new(3, 2, 2);
        let m = simulate(
            sk.stack_graph(),
            FaultSet::new(),
            SimOptions {
                slots: 2000,
                ..Default::default()
            },
            &TrafficPattern::Uniform { load: 0.05 },
        );
        assert!(m.delivered > 0);
        assert!(m.average_hops() <= 2.0 + 1e-9);
        assert!(m.average_hops() >= 1.0);
    }

    #[test]
    fn throughput_saturates_at_coupler_capacity() {
        // POPS(4,2): 4 couplers, 8 processors; at most 4 messages can be
        // delivered per slot, i.e. 0.5 per processor per slot.
        let m = pops_sim(1.0, 1000);
        assert!(m.throughput() <= 0.5 + 1e-9);
        assert!(
            m.throughput() > 0.3,
            "saturated throughput {}",
            m.throughput()
        );
        assert!(m.channel_utilization() > 0.8);
    }

    #[test]
    fn higher_load_increases_latency() {
        let light = pops_sim(0.05, 2000);
        let heavy = pops_sim(0.9, 2000);
        assert!(heavy.average_latency() > light.average_latency());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = pops_sim(0.3, 300);
        let b = pops_sim(0.3, 300);
        assert_eq!(a, b);
    }

    #[test]
    fn faulty_group_traffic_is_refused_and_bound_holds() {
        // SK(2,2,2): quotient KG(2,2), d = 2 — one failed group is within
        // the §2.5 survivability claim; delivered routes stay <= k + 2 = 4.
        let sk = StackKautz::new(2, 2, 2);
        let config = SimOptions {
            slots: 600,
            ..Default::default()
        };
        let traffic = TrafficPattern::Uniform { load: 0.4 };
        let intact = simulate(sk.stack_graph(), FaultSet::new(), config.clone(), &traffic);
        let faulty = simulate(
            sk.stack_graph(),
            FaultSet::from_nodes([2]),
            config,
            &traffic,
        );
        assert!(faulty.delivered > 0);
        assert_eq!(
            faulty.injected,
            faulty.delivered + faulty.in_flight + faulty.dropped
        );
        assert!(faulty.injected < intact.injected);
        assert!(faulty.max_hops <= 4, "max hops {}", faulty.max_hops);
    }

    #[test]
    fn prepared_kernel_reuse_matches_fresh_construction() {
        // The prepare/execute contract, multi-OPS side: one kernel driven
        // with many (seed, traffic, slots) combinations matches rebuilding
        // the simulator (router + quotient table + group-pair routes) per run.
        let sk = StackKautz::new(2, 2, 2);
        for faults in [FaultSet::new(), FaultSet::from_nodes([2])] {
            let kernel =
                PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), faults.clone(), 1);
            for (seed, load, slots) in [(1u64, 0.4, 400u64), (7, 0.9, 250), (31, 0.1, 600)] {
                let config = SimOptions {
                    slots,
                    seed,
                    ..Default::default()
                };
                let traffic = TrafficPattern::Uniform { load };
                let reused = run_timed(&kernel, &[], &traffic, &config);
                let fresh = simulate(sk.stack_graph(), faults.clone(), config, &traffic);
                assert_eq!(reused, fresh, "seed {seed} load {load}");
            }
        }
    }

    #[test]
    fn wavelength_mode_conserves_and_reports_the_layer() {
        let sk = StackKautz::new(2, 2, 2);
        let kernel = PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new(), 3);
        assert!(
            kernel.has_alternates(),
            "SK(2,2,2) has alternate quotient paths"
        );
        let m = run_timed(
            &kernel,
            &[],
            &TrafficPattern::Uniform { load: 0.9 },
            &SimOptions {
                slots: 500,
                wavelengths: WavelengthConfig::with_count(2),
                ..Default::default()
            },
        );
        assert_eq!(m.wavelengths, 2);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.delivered > 0);
        assert!(
            m.blocked <= m.dropped,
            "blocked messages are dropped messages"
        );
        assert!(!m.blocking_ratio().is_nan());
        assert!(
            m.alt_routed > 0,
            "contention must push traffic onto alternates"
        );
    }

    #[test]
    fn more_wavelengths_reduce_blocking() {
        let pops = Pops::new(3, 4);
        let run = |w: usize| {
            simulate(
                pops.stack_graph(),
                FaultSet::new(),
                SimOptions {
                    slots: 600,
                    wavelengths: WavelengthConfig::with_count(w),
                    ..Default::default()
                },
                &TrafficPattern::Uniform { load: 1.0 },
            )
        };
        let narrow = run(2);
        let wide = run(8);
        assert!(narrow.blocked > 0, "saturated POPS at W=2 must block");
        assert!(
            wide.blocking_ratio() <= narrow.blocking_ratio(),
            "W=8 blocking {} vs W=2 blocking {}",
            wide.blocking_ratio(),
            narrow.blocking_ratio()
        );
    }

    #[test]
    fn alternates_only_mode_runs_bufferless_at_capacity_one() {
        // alt_paths > 1 with W = 1: the wavelength loop engages (alternate
        // routing needs transmit-or-block semantics) and reports capacity 1.
        let sk = StackKautz::new(2, 2, 2);
        let kernel = PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new(), 2);
        let m = run_timed(
            &kernel,
            &[],
            &TrafficPattern::Uniform { load: 0.8 },
            &SimOptions {
                slots: 400,
                ..Default::default()
            },
        );
        assert_eq!(m.wavelengths, 1);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.alt_routed > 0);
    }

    #[test]
    fn alt_paths_up_to_the_cap_build_and_zero_means_none() {
        let stack = Arc::new(StackKautz::new(2, 2, 2).stack_graph().clone());
        assert!(!PreparedMultiOps::new(stack.clone(), FaultSet::new(), 0).has_alternates());
        let capped = PreparedMultiOps::new(stack, FaultSet::new(), MAX_ALT_PATHS);
        assert_eq!(capped.alt_paths(), MAX_ALT_PATHS);
        assert!(capped.has_alternates());
    }

    #[test]
    #[should_panic(expected = "alt_paths 65 exceeds MAX_ALT_PATHS (64)")]
    fn alt_paths_past_the_cap_panic_at_the_kernel() {
        let stack = Arc::new(StackKautz::new(2, 2, 2).stack_graph().clone());
        PreparedMultiOps::new(stack, FaultSet::new(), MAX_ALT_PATHS + 1);
    }

    #[test]
    fn capacity_one_kernel_keeps_the_wavelength_layer_off() {
        // Without alternates and at W = 1 the queued discipline runs:
        // metrics carry the layer-off sentinel and match the default config.
        let m = pops_sim(0.5, 500);
        assert_eq!(m.wavelengths, 0, "layer off ⇒ sentinel 0");
        assert_eq!(m.blocked, 0);
        assert!(m.blocking_ratio().is_nan());
    }

    #[test]
    fn random_assignment_draws_but_conserves() {
        let pops = Pops::new(3, 3);
        for assignment in [WavelengthAssignment::FirstFit, WavelengthAssignment::Random] {
            let m = simulate(
                pops.stack_graph(),
                FaultSet::new(),
                SimOptions {
                    slots: 300,
                    wavelengths: WavelengthConfig {
                        count: 4,
                        assignment,
                    },
                    ..Default::default()
                },
                &TrafficPattern::Uniform { load: 0.9 },
            );
            assert!(m.delivered > 0, "{assignment:?}");
            assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        }
    }

    /// Every route the kernel hands the processor pair `(src, dst)`, primary
    /// first, with the receivers derived the way the slot loop derives them.
    fn kernel_hops(kernel: &PreparedMultiOps, src: usize, dst: usize) -> Vec<Vec<StackHop>> {
        let s = kernel.router.stack_graph().stacking_factor() as u32;
        let dst_index = dst as u32 % s;
        kernel
            .routes_between(src, dst)
            .map(|route| {
                kernel
                    .routes
                    .hops(route)
                    .iter()
                    .map(|&c| StackHop {
                        coupler: c as usize,
                        receiver: (kernel.target_first[c as usize] + dst_index) as usize,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn group_pair_routes_match_per_pair_routes() {
        // The group-pair table must hand every processor pair exactly the
        // routes a per-pair build gives it: the primary is
        // `StackRouter::route`, and the alternates are Yen on the faulted
        // quotient, materialised with `route_via_groups`, minus the primary,
        // capped at `alt_paths − 1`.  Fault-free, every single-group fault
        // and two seeded arc-fault sets, at `alt_paths` 1, 2 and 3.
        // SII(2,4,20) has group pairs whose primary is none of the first
        // `alt_paths` Yen paths, so the cap binds there.
        use otis_topologies::StackImaseItoh;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let networks = [
            ("SK(2,2,2)", StackKautz::new(2, 2, 2).stack_graph().clone()),
            ("SK(3,2,2)", StackKautz::new(3, 2, 2).stack_graph().clone()),
            ("SK(4,2,3)", StackKautz::new(4, 2, 3).stack_graph().clone()),
            ("POPS(4,3)", Pops::new(4, 3).stack_graph().clone()),
            (
                "SII(2,3,12)",
                StackImaseItoh::new(2, 3, 12).stack_graph().clone(),
            ),
            (
                "SII(2,4,20)",
                StackImaseItoh::new(2, 4, 20).stack_graph().clone(),
            ),
        ];
        let mut rng = StdRng::seed_from_u64(17);
        let (mut alternates, mut capped) = (0, 0);
        for (name, stack) in networks {
            let stack = Arc::new(stack);
            let s = stack.stacking_factor();
            let quotient = stack.quotient();
            let groups = quotient.node_count();
            let mut patterns = vec![FaultSet::new()];
            patterns.extend((0..groups).map(|g| FaultSet::from_nodes([g])));
            for _ in 0..2 {
                let mut faults = FaultSet::new();
                for _ in 0..3 {
                    let arc = quotient.arcs()[rng.gen_range(0..quotient.arc_count())];
                    faults.fail_arc(arc.source, arc.target);
                }
                patterns.push(faults);
            }
            for faults in &patterns {
                let router = StackRouter::from_shared(Arc::clone(&stack), faults.clone());
                for alt_paths in 1..=3 {
                    let kernel =
                        PreparedMultiOps::new(Arc::clone(&stack), faults.clone(), alt_paths);
                    // Yen depends only on the group pair; memoised to keep
                    // the test fast.
                    let mut yen: Vec<Option<Vec<Vec<usize>>>> = vec![None; groups * groups];
                    for src in 0..stack.node_count() {
                        for dst in 0..stack.node_count() {
                            let got = kernel_hops(&kernel, src, dst);
                            let primary = router.route(src, dst);
                            let Some(primary) = primary.filter(|_| src != dst) else {
                                assert!(
                                    got.is_empty(),
                                    "{name} {faults:?} alt {alt_paths}: {src}->{dst}"
                                );
                                continue;
                            };
                            let paths = yen[src / s * groups + dst / s].get_or_insert_with(|| {
                                k_shortest_paths_avoiding(
                                    quotient,
                                    src / s,
                                    dst / s,
                                    alt_paths,
                                    |u, v| {
                                        faults.node_failed(u)
                                            || faults.node_failed(v)
                                            || faults.blocks(u, v)
                                    },
                                )
                            });
                            let others: Vec<Vec<StackHop>> = paths
                                .iter()
                                .filter(|path| path.len() >= 2)
                                .filter_map(|path| router.route_via_groups(src, dst, path))
                                .map(|route| route.hops)
                                .filter(|hops| *hops != primary.hops)
                                .collect();
                            if alt_paths > 1 && others.len() >= alt_paths {
                                capped += 1;
                            }
                            let mut expected = vec![primary.hops];
                            expected.extend(others.into_iter().take(alt_paths - 1));
                            assert_eq!(
                                got, expected,
                                "{name} {faults:?} alt {alt_paths}: {src}->{dst}"
                            );
                            alternates += expected.len() - 1;
                        }
                    }
                }
            }
        }
        assert!(alternates > 0, "the networks must exercise alternates");
        assert!(capped > 0, "the networks must exercise the alternate cap");
    }

    #[test]
    fn recovery_epochs_shrink_the_fault_set() {
        // The recovery epochs of a timeline shrink the fault set from
        // {0, 3} to {3} to {}, with and without alternates, and the run
        // conserves messages across all four swaps in both transmission
        // disciplines.
        let sk = StackKautz::new(2, 2, 2);
        let stack = Arc::new(sk.stack_graph().clone());
        let schedule: FaultSchedule =
            "fail(node 0)@30; fail(node 3)@60; recover(node 0)@120; recover(node 3)@180"
                .parse()
                .unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.6 };
        let configs = [
            SimOptions {
                slots: 300,
                ..Default::default()
            },
            SimOptions {
                slots: 300,
                wavelengths: WavelengthConfig::with_count(2),
                ..Default::default()
            },
        ];
        for alt_paths in [1, 3] {
            let base = PreparedMultiOps::new(Arc::clone(&stack), FaultSet::new(), alt_paths);
            let timeline = base.timeline(&schedule).unwrap();
            let epochs: Vec<(u64, &FaultSet)> = timeline
                .iter()
                .map(|(slot, epoch)| (*slot, epoch.faults()))
                .collect();
            assert_eq!(
                epochs,
                [
                    (30, &FaultSet::from_nodes([0])),
                    (60, &FaultSet::from_nodes([0, 3])),
                    (120, &FaultSet::from_nodes([3])),
                    (180, &FaultSet::new()),
                ],
                "alt_paths {alt_paths}"
            );
            for config in &configs {
                let m = run_timed(&base, &timeline, &traffic, config);
                assert_eq!(m.fault_events, 4, "alt_paths {alt_paths}");
                assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
                assert!(m.dropped_by_failure <= m.dropped);
            }
        }
    }

    #[test]
    fn empty_timeline_is_the_legacy_run() {
        // The schedule machinery must be inert until a swap fires: a run
        // whose only epoch starts after the last slot matches the run with
        // no timeline (identical metrics, hence identical RNG draw order)
        // in both disciplines.
        let sk = StackKautz::new(2, 2, 2);
        let kernel = PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new(), 1);
        let unfired = [(
            400,
            PreparedMultiOps::new(
                Arc::new(sk.stack_graph().clone()),
                FaultSet::from_nodes([2]),
                1,
            ),
        )];
        let traffic = TrafficPattern::Uniform { load: 0.5 };
        for config in [
            SimOptions {
                slots: 400,
                ..Default::default()
            },
            SimOptions {
                slots: 400,
                wavelengths: WavelengthConfig::with_count(2),
                ..Default::default()
            },
        ] {
            let timed = run_timed(&kernel, &unfired, &traffic, &config);
            let legacy = run_timed(&kernel, &[], &traffic, &config);
            assert_eq!(timed, legacy);
            assert_eq!(timed.fault_events, 0);
        }
    }

    #[test]
    fn timeline_of_a_faulted_kernel_keeps_its_static_faults_and_alternates() {
        // A timeline built from a statically faulted SK(2,2,2) kernel with
        // `alt_paths` 3 overlays the schedule on the static faults, and
        // every epoch is prepared over the same shared stack-graph with
        // the same alternates.
        let sk = StackKautz::new(2, 2, 2);
        let stack = Arc::new(sk.stack_graph().clone());
        let kernel = PreparedMultiOps::new(Arc::clone(&stack), FaultSet::from_nodes([0]), 3);
        assert!(kernel.has_alternates());
        let schedule: FaultSchedule = "fail(node 2)@40; recover@160".parse().unwrap();
        let timeline = kernel.timeline(&schedule).unwrap();
        let epochs: Vec<(u64, &FaultSet)> = timeline
            .iter()
            .map(|(slot, epoch)| (*slot, epoch.faults()))
            .collect();
        assert_eq!(
            epochs,
            [
                (40, &FaultSet::from_nodes([0, 2])),
                (160, &FaultSet::from_nodes([0]))
            ]
        );
        for (slot, epoch) in &timeline {
            assert!(Arc::ptr_eq(epoch.shared_stack_graph(), &stack), "{slot}");
            assert_eq!(epoch.alt_paths(), 3, "{slot}");
            assert!(epoch.has_alternates(), "{slot}");
        }
        let traffic = TrafficPattern::Uniform { load: 0.7 };
        let config = SimOptions {
            slots: 320,
            ..Default::default()
        };
        let m = run_timed(&kernel, &timeline, &traffic, &config);
        assert_eq!(m.fault_events, 2);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert!(m.dropped_by_failure <= m.dropped);
    }

    #[test]
    fn failure_at_slot_zero_matches_the_static_faulted_run() {
        // A swap before any traffic exists runs the whole simulation under
        // the faulted kernel: everything but the restoration bookkeeping
        // matches a statically faulted run bit for bit.
        let sk = StackKautz::new(2, 2, 2);
        let base = PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new(), 1);
        let schedule: FaultSchedule = "fail(node 2)@0".parse().unwrap();
        let timeline = base.timeline(&schedule).unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.4 };
        let config = SimOptions {
            slots: 300,
            ..Default::default()
        };
        let mut timed = run_timed(&base, &timeline, &traffic, &config);
        let faulted = PreparedMultiOps::new(
            Arc::new(sk.stack_graph().clone()),
            FaultSet::from_nodes([2]),
            1,
        );
        let static_run = run_timed(&faulted, &[], &traffic, &config);
        assert_eq!(timed.fault_events, 1);
        assert_eq!(timed.in_flight_at_failure, 0);
        assert_eq!(timed.dropped_by_failure, 0);
        assert_eq!(
            timed.restore_slots,
            u64::MAX,
            "slot-0 failure has no baseline"
        );
        timed.fault_events = 0;
        timed.restore_slots = 0;
        timed.post_failure_latency_peak = 0;
        assert_eq!(timed, static_run);
    }

    #[test]
    fn mid_run_group_failure_strands_and_recovery_restores() {
        // A group failure mid-run strands the flights held by or destined
        // to the dead group (counted separately from congestion drops), and
        // after the scheduled recovery the network restores its pre-failure
        // delivery rate.
        let sk = StackKautz::new(2, 2, 2);
        let base = PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new(), 1);
        let schedule: FaultSchedule = "fail(node 2)@200; recover@260".parse().unwrap();
        let timeline = base.timeline(&schedule).unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.9 };
        let config = SimOptions {
            slots: 2000,
            ..Default::default()
        };
        let m = run_timed(&base, &timeline, &traffic, &config);
        assert_eq!(m.fault_events, 2);
        assert!(m.in_flight_at_failure > 0, "saturated run has live flights");
        assert!(m.dropped_by_failure > 0, "the dead group strands flights");
        assert!(m.dropped_by_failure <= m.dropped);
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
        assert_ne!(m.restore_slots, u64::MAX, "recovery must restore the rate");
        assert!(m.post_failure_latency_peak > 0);
    }

    #[test]
    fn run_reads_only_its_sim_options_fields() {
        // A seeded, overloaded SK(2,2,2) run: changing a field the
        // multi-OPS kernel ignores leaves the metrics identical; changing
        // one it reads changes them.
        let sk = StackKautz::new(2, 2, 2);
        let kernel = PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new(), 1);
        let traffic = TrafficPattern::Uniform { load: 1.0 };
        let base = SimOptions::new(300, 11);
        let run = |options: &SimOptions| run_timed(&kernel, &[], &traffic, options);
        let reference = run(&base);
        assert!(reference.delivered > 0);
        let ignored = [
            SimOptions {
                max_hops: 1,
                ..base.clone()
            },
            // Faults and alternates are fixed when the kernel is prepared.
            base.clone().with_faults(FaultSet::from_nodes([1])),
            SimOptions {
                alt_paths: 3,
                ..base.clone()
            },
        ];
        for options in &ignored {
            assert_eq!(run(options), reference, "{options:?}");
        }
        let reseeded = run(&SimOptions {
            seed: 12,
            ..base.clone()
        });
        assert_ne!(reseeded, reference);
        let multiplexed = run(&SimOptions {
            wavelengths: WavelengthConfig::with_count(2),
            ..base.clone()
        });
        assert_ne!(multiplexed, reference);
    }
}
