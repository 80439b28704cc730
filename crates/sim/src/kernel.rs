//! The shared struct-of-arrays slot engine of the prepare/execute
//! simulator split.
//!
//! Both simulators — the multi-OPS coupler model and the hot-potato
//! point-to-point baseline — drive the same outer loop: a slot clock, a
//! seeded RNG, injection accounting (the `injected` counter),
//! delivery/drop accumulation into [`SimMetrics`] and a livelock guard.
//! This module owns the pieces of that loop the two simulators share:
//!
//! * [`RunCore`] — the per-run mutable core (RNG, metrics), so
//!   the prepared kernels ([`crate::hot_potato::PreparedHotPotato`],
//!   [`crate::multi_ops::PreparedMultiOps`]) stay immutable and shareable
//!   across threads while every `run` call builds one `RunCore` and drives
//!   it through the slots;
//! * [`MessageArena`] — struct-of-arrays storage for the messages in
//!   flight: parallel `dst`/`injected_at`/`hops`/`wavelength` arrays
//!   indexed by compact `u32` handles, with a free list so the arena's
//!   footprint tracks the *peak live* population, not the total injected.
//!   The slot loops move handles between per-node (or per-coupler) `u32`
//!   buckets instead of shuffling whole message structs, so a slot is a
//!   few word-wide passes over dense arrays;
//! * [`PortBits`] — `u64`-word bitset port occupancy for the hot-potato
//!   loop (the mask consumed by
//!   [`otis_routing::HotPotatoRouter::choose_port_randomized_masked`],
//!   which ranks it a word at a time with a bitmask tie set and no
//!   buffer), reset per node by overwriting its words;
//!   per-channel *spectrum* masks are the word-wide
//!   [`otis_graphs::SpectrumMap`];
//! * `assign_wavelength` — the one wavelength-assignment rule (first-fit
//!   or seeded-random) both kernels apply on a multiplexed grant.
//!
//! Keeping this state in one place also pins the conventions the
//! cross-simulator tests rely on: `metrics.slots` always equals the number
//! of slots started, and a
//! delivery in slot `s` of a message created in slot `c` has latency
//! `s − c` under whichever convention the calling simulator uses.

use crate::metrics::SimMetrics;
use crate::wavelength::WavelengthAssignment;
use otis_graphs::SpectrumMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-run mutable core shared by both simulators: seeded RNG and
/// metrics accumulator.  Everything else a
/// simulator needs per run (queues, port masks, message buffers) is its own
/// reusable scratch state; everything immutable (graphs, routing tables,
/// group-pair route tables) lives in the prepared kernel.
#[derive(Debug)]
pub struct RunCore {
    /// The run's RNG; traffic generation, arbitration and deflection
    /// tie-breaks all draw from this single stream, which is what makes a
    /// run reproducible from its seed alone.
    pub rng: StdRng,
    /// The metrics accumulated so far.
    pub metrics: SimMetrics,
}

impl Default for RunCore {
    /// A placeholder core (seed 0, no processors), to be re-armed with
    /// [`RunCore::reset`] before use — what a [`SlotScratch`] starts from.
    fn default() -> Self {
        RunCore::new(0, 0, 0)
    }
}

impl RunCore {
    /// A fresh core for one run: RNG seeded with `seed`, zeroed metrics over
    /// `processors` processors and `channels` couplers/links.
    pub fn new(seed: u64, processors: usize, channels: usize) -> Self {
        RunCore {
            rng: StdRng::seed_from_u64(seed),
            metrics: SimMetrics::new(processors, channels),
        }
    }

    /// Re-arms the core for another run — reseeded RNG, zeroed metrics.
    /// `SimMetrics` is all scalars, so a
    /// reset core is indistinguishable from a freshly constructed one; this
    /// is what lets a [`SlotScratch`] carry one core across every cell a
    /// scenario worker runs.
    pub fn reset(&mut self, seed: u64, processors: usize, channels: usize) {
        self.rng = StdRng::seed_from_u64(seed);
        self.metrics = SimMetrics::new(processors, channels);
    }

    /// Advances the slot clock: after this call `metrics.slots` counts the
    /// slot being simulated (slot indices are zero-based, the counter is the
    /// number of slots started).
    pub fn begin_slot(&mut self, slot: u64) {
        self.metrics.slots = slot + 1;
    }

    /// Accounts one accepted injection by bumping the `injected` counter.
    /// Refused injections (admission control, faults, back-pressure) must
    /// simply not call this.
    pub fn inject(&mut self) {
        self.metrics.injected += 1;
    }

    /// Records a delivery with the given end-to-end latency and hop count.
    pub fn deliver(&mut self, latency: u64, hops: u32) {
        self.metrics.record_delivery(latency, hops);
    }

    /// Records a dropped message.
    pub fn drop_message(&mut self) {
        self.metrics.dropped += 1;
    }

    /// Records one coupler/link grant (a used channel-slot).
    pub fn grant(&mut self) {
        self.metrics.grants += 1;
    }

    /// The livelock guard: whether a message that has taken `hops` hops has
    /// exhausted the `max_hops` budget (`0` disables the guard).
    pub fn livelock_exceeded(max_hops: u32, hops: u32) -> bool {
        max_hops > 0 && hops >= max_hops
    }

    /// Finishes the run: records the messages still in flight and returns
    /// the final metrics.  The core stays usable — [`RunCore::reset`] re-arms
    /// it for the next run.
    pub fn finish(&mut self, in_flight: u64) -> SimMetrics {
        self.metrics.in_flight = in_flight;
        self.metrics.clone()
    }
}

/// Struct-of-arrays storage for the messages currently in flight.
///
/// Each live message occupies one slot across a set of parallel arrays and
/// is referred to by a compact `u32` handle.  The slot loops keep handles in
/// per-node or per-coupler buckets and index the columns they need
/// (`dst` to test delivery, `injected_at` for latency and age-based
/// ordering, `hops` for the livelock guard), touching one dense array per
/// question instead of a 40-byte struct per message.  Released slots go on
/// a free list and are reused, so the arena's footprint tracks the peak
/// live population of the run.
#[derive(Debug, Default, Clone)]
pub struct MessageArena {
    dsts: Vec<u32>,
    injected_at: Vec<u64>,
    hops: Vec<u32>,
    wavelengths: Vec<u32>,
    free: Vec<u32>,
}

impl MessageArena {
    /// An empty arena.
    pub fn new() -> Self {
        MessageArena::default()
    }

    /// Stores a message bound for `dst`, injected in slot `injected_at`,
    /// with zero hops, and returns its handle, reusing a released slot when
    /// one is available.  The wavelength column starts at zero and is only
    /// meaningful after [`MessageArena::set_wavelength`].
    pub fn insert(&mut self, dst: usize, injected_at: u64) -> u32 {
        if let Some(handle) = self.free.pop() {
            let i = handle as usize;
            self.dsts[i] = dst as u32;
            self.injected_at[i] = injected_at;
            self.hops[i] = 0;
            self.wavelengths[i] = 0;
            handle
        } else {
            let handle = self.dsts.len() as u32;
            self.dsts.push(dst as u32);
            self.injected_at.push(injected_at);
            self.hops.push(0);
            self.wavelengths.push(0);
            handle
        }
    }

    /// Returns `handle`'s slot to the free list.  The handle must not be
    /// used again until `insert` hands it back out.
    pub fn release(&mut self, handle: u32) {
        self.free.push(handle);
    }

    /// The destination processor stored at `handle`.
    #[inline]
    pub fn dst(&self, handle: u32) -> usize {
        self.dsts[handle as usize] as usize
    }

    /// The slot in which the message at `handle` was injected.
    #[inline]
    pub fn injected_at(&self, handle: u32) -> u64 {
        self.injected_at[handle as usize]
    }

    /// The hop count of the message at `handle`.
    #[inline]
    pub fn hops(&self, handle: u32) -> u32 {
        self.hops[handle as usize]
    }

    /// Increments the hop count of the message at `handle`.
    #[inline]
    pub fn add_hop(&mut self, handle: u32) {
        self.hops[handle as usize] += 1;
    }

    /// Overwrites the hop count of the message at `handle`.
    #[inline]
    pub fn set_hops(&mut self, handle: u32, hops: u32) {
        self.hops[handle as usize] = hops;
    }

    /// The wavelength most recently assigned to the message at `handle`.
    #[inline]
    pub fn wavelength(&self, handle: u32) -> usize {
        self.wavelengths[handle as usize] as usize
    }

    /// Records the wavelength granted to the message at `handle` for its
    /// current hop.
    #[inline]
    pub fn set_wavelength(&mut self, handle: u32, wavelength: usize) {
        self.wavelengths[handle as usize] = wavelength as u32;
    }

    /// The number of arena slots allocated so far (live plus free); an upper
    /// bound on every handle, useful for sizing parallel side arrays.
    pub fn capacity(&self) -> usize {
        self.dsts.len()
    }

    /// Empties the arena for a new run.  Every column is cleared but keeps
    /// its allocation, so a reused arena hands out the exact handle sequence
    /// a fresh one would — byte-identical runs — while only touching the
    /// allocator when a later run's peak live population exceeds anything
    /// seen before.
    pub fn reset(&mut self) {
        self.dsts.clear();
        self.injected_at.clear();
        self.hops.clear();
        self.wavelengths.clear();
        self.free.clear();
    }

    /// The number of live messages.
    pub fn live(&self) -> usize {
        self.dsts.len() - self.free.len()
    }
}

/// `u64`-word bitset of free output ports at one node, reset for each node
/// of each slot by the hot-potato loop and consumed as the mask argument of
/// [`otis_routing::HotPotatoRouter::choose_port_randomized_masked`], which
/// ranks the free ports one word at a time.
#[derive(Debug, Default, Clone)]
pub struct PortBits {
    /// Storage for the widest node seen so far; only `words[..len]` is in
    /// use.
    words: Vec<u64>,
    len: usize,
}

impl PortBits {
    /// An empty mask; call [`PortBits::reset`] before use.
    pub fn new() -> Self {
        PortBits::default()
    }

    /// Marks all of `ports` ports free.  Bits beyond `ports` may also be
    /// set; callers must not ask about ports they did not declare.  The
    /// storage only grows, on the first node wider than any before, so a
    /// reset touches the allocator at most once per new width.
    #[inline]
    pub fn reset(&mut self, ports: usize) {
        let len = ports.div_ceil(64);
        if len > self.words.len() {
            self.words.resize(len, !0);
        }
        self.len = len;
        for word in &mut self.words[..len] {
            *word = !0;
        }
    }

    /// Whether `port` is still free.
    #[inline]
    pub fn is_free(&self, port: usize) -> bool {
        self.words()[port >> 6] & (1u64 << (port & 63)) != 0
    }

    /// Marks `port` busy for the rest of the slot.
    #[inline]
    pub fn close(&mut self, port: usize) {
        self.words[..self.len][port >> 6] &= !(1u64 << (port & 63));
    }

    /// The raw words, bit `p % 64` of word `p / 64` set iff port `p` is
    /// free — the layout `choose_port_randomized_masked` expects.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words[..self.len]
    }
}

/// Truncates or grows a bucket array to exactly `n` empty buckets, keeping
/// the allocations of the buckets that survive.  The per-node and
/// per-coupler handle buckets of both slot loops reset through this, so a
/// scratch pool reused across cells of different network sizes always
/// presents the exact initial state a fresh allocation would.
pub(crate) fn reset_buckets(buckets: &mut Vec<Vec<u32>>, n: usize) {
    buckets.truncate(n);
    for bucket in buckets.iter_mut() {
        bucket.clear();
    }
    buckets.resize_with(n, Vec::new);
}

/// The hot-potato half of a [`SlotScratch`]: per-node handle buckets and
/// the port-occupancy bitset.
#[derive(Debug, Default)]
pub(crate) struct HotScratch {
    /// Handles at each node at the start of the slot.
    pub(crate) at_node: Vec<Vec<u32>>,
    /// Handles arriving at each node for the next slot.
    pub(crate) arriving: Vec<Vec<u32>>,
    /// Free-port bitset, reset per node.
    pub(crate) ports: PortBits,
}

impl HotScratch {
    /// Resets the buckets to `n` empty nodes.
    pub(crate) fn begin_run(&mut self, n: usize) {
        reset_buckets(&mut self.at_node, n);
        reset_buckets(&mut self.arriving, n);
    }
}

/// Reusable per-worker hot state for the slot loops of both simulator
/// families: the message arena, the injection decisions and the family
/// specific queue/port buffers, bundled so a scenario worker can thread
/// one pool through every cell it runs.
///
/// Every buffer is *reset* (never reallocated) at the start of a run, and a
/// reset buffer is indistinguishable from a fresh one — so driving a kernel
/// through a scratch pool is byte-identical to the plain entry points while
/// only touching the allocator when a run's peak population exceeds anything
/// the pool has seen.  A pool serves cells of different networks, sizes and
/// families back to back; it is `Send`, so an engine can hand one to each
/// worker thread for the worker's whole lifetime.
#[derive(Debug, Default)]
pub struct SlotScratch {
    /// The per-run mutable core, re-armed by [`RunCore::reset`] per cell.
    pub(crate) core: RunCore,
    /// The struct-of-arrays message store.
    pub(crate) arena: MessageArena,
    /// This slot's injection decisions, one per processor.
    pub(crate) injections: Vec<Option<usize>>,
    /// Hot-potato buffers.
    pub(crate) hot: HotScratch,
    /// Multi-OPS buffers.
    pub(crate) ops: crate::multi_ops::OpsScratch,
}

impl SlotScratch {
    /// A fresh, empty pool.
    pub fn new() -> Self {
        SlotScratch::default()
    }

    /// Arena slots allocated by the most recent run — its peak live message
    /// population, since the arena is emptied between runs.  Scratch-reuse
    /// tests assert this high-water mark matches a fresh arena's, proving
    /// pooling never inflates the handle space.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Re-arms the shared (family-independent) state for one run.
    pub(crate) fn begin_run(&mut self, seed: u64, processors: usize, channels: usize) {
        self.core.reset(seed, processors, channels);
        self.arena.reset();
        self.injections.clear();
    }
}

/// Picks and occupies a wavelength on `channel` under the given assignment
/// discipline, returning the chosen wavelength index.
///
/// The caller must have checked `!spectrum.is_full(channel)`.  First-fit
/// takes the lowest free wavelength without touching the RNG; random draws
/// one `gen_range` over the free count, so the RNG stream depends only on
/// the discipline, never on which wavelengths happen to be free.
pub(crate) fn assign_wavelength(
    spectrum: &mut SpectrumMap,
    channel: usize,
    assignment: WavelengthAssignment,
    rng: &mut StdRng,
) -> usize {
    let lambda = match assignment {
        WavelengthAssignment::FirstFit => spectrum
            .first_free(channel)
            .expect("assign_wavelength called on a full channel"),
        WavelengthAssignment::Random => {
            let free = spectrum.free_count(channel);
            debug_assert!(free > 0, "assign_wavelength called on a full channel");
            let pick = rng.gen_range(0..free);
            spectrum
                .nth_free(channel, pick)
                .expect("nth_free within free_count")
        }
    };
    let fresh = spectrum.occupy(channel, lambda);
    debug_assert!(fresh, "assigned wavelength was already occupied");
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_accounting_counts_accepted_injections() {
        let mut core = RunCore::new(7, 4, 4);
        core.inject();
        core.inject();
        assert_eq!(core.metrics.injected, 2);
    }

    #[test]
    fn slot_clock_counts_slots_started() {
        let mut core = RunCore::new(1, 2, 2);
        core.begin_slot(0);
        assert_eq!(core.metrics.slots, 1);
        core.begin_slot(41);
        assert_eq!(core.metrics.slots, 42);
    }

    #[test]
    fn livelock_guard_respects_the_disable_sentinel() {
        assert!(!RunCore::livelock_exceeded(0, u32::MAX));
        assert!(!RunCore::livelock_exceeded(5, 4));
        assert!(RunCore::livelock_exceeded(5, 5));
        assert!(RunCore::livelock_exceeded(5, 6));
    }

    #[test]
    fn finish_records_in_flight() {
        let mut core = RunCore::new(1, 2, 2);
        core.begin_slot(0);
        core.deliver(3, 2);
        core.drop_message();
        core.grant();
        let m = core.finish(4);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.total_latency, 3);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.grants, 1);
        assert_eq!(m.in_flight, 4);
    }

    #[test]
    fn same_seed_same_stream() {
        use rand::Rng;
        let mut a = RunCore::new(99, 1, 1);
        let mut b = RunCore::new(99, 1, 1);
        let xs: Vec<usize> = (0..8).map(|_| a.rng.gen_range(0..1000)).collect();
        let ys: Vec<usize> = (0..8).map(|_| b.rng.gen_range(0..1000)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn arena_reuses_released_slots() {
        let mut arena = MessageArena::new();
        let a = arena.insert(2, 3);
        let b = arena.insert(5, 6);
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.dst(a), 2);
        assert_eq!(arena.injected_at(b), 6);
        arena.release(a);
        assert_eq!(arena.live(), 1);
        arena.set_hops(a, 4);
        let c = arena.insert(8, 9);
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.dst(c), 8);
        assert_eq!(arena.injected_at(c), 9);
        assert_eq!(arena.hops(c), 0);
        assert_eq!(arena.wavelength(c), 0);
        arena.add_hop(c);
        arena.set_hops(b, 5);
        arena.set_wavelength(c, 3);
        assert_eq!(arena.hops(c), 1);
        assert_eq!(arena.hops(b), 5);
        assert_eq!(arena.wavelength(c), 3);
    }

    #[test]
    fn port_bits_track_closures_across_words() {
        let mut bits = PortBits::new();
        bits.reset(70);
        assert_eq!(bits.words().len(), 2);
        assert!(bits.is_free(0));
        assert!(bits.is_free(69));
        bits.close(0);
        bits.close(65);
        assert!(!bits.is_free(0));
        assert!(!bits.is_free(65));
        assert!(bits.is_free(64));
        bits.reset(3);
        assert_eq!(bits.words().len(), 1);
        assert!(bits.is_free(0));
    }

    #[test]
    fn first_fit_assignment_takes_lowest_free_without_rng() {
        let mut spectrum = SpectrumMap::new(2, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let before: Vec<usize> = {
            let mut probe = StdRng::seed_from_u64(1);
            (0..4).map(|_| probe.gen_range(0..1_000_000)).collect()
        };
        assert_eq!(
            assign_wavelength(&mut spectrum, 0, WavelengthAssignment::FirstFit, &mut rng),
            0
        );
        assert_eq!(
            assign_wavelength(&mut spectrum, 0, WavelengthAssignment::FirstFit, &mut rng),
            1
        );
        let after: Vec<usize> = (0..4).map(|_| rng.gen_range(0..1_000_000)).collect();
        assert_eq!(after, before, "first-fit must not consume the RNG");
        assert_eq!(spectrum.free_count(0), 2);
        assert_eq!(spectrum.free_count(1), 4);
    }

    #[test]
    fn random_assignment_occupies_a_free_wavelength() {
        let mut spectrum = SpectrumMap::new(1, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let lambda =
                assign_wavelength(&mut spectrum, 0, WavelengthAssignment::Random, &mut rng);
            assert!(!seen.contains(&lambda));
            seen.push(lambda);
        }
        assert!(spectrum.is_full(0));
    }
}
