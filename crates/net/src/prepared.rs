//! The prepared-simulation surface of the facade.
//!
//! [`crate::family::NetworkFamily::prepare`] splits simulation into the two
//! phases of the `otis-sim` kernels: an immutable [`PreparedSim`] — the
//! fault-filtered graph plus all routing/distance state, built once — and
//! cheap runs that only pay for the slot loop.  A run goes through one
//! dispatch, [`PreparedSim::run_demand_with_timeline_scratch`], which takes
//! an optional bound fault schedule, a demand source, the options and a
//! reusable scratch pool; [`PreparedSim::run_with_timeline_scratch`] is the
//! same run under a stationary traffic pattern.  The scenario engine caches
//! these kernels per `(spec, fault-pattern)` pair so a grid builds each one
//! exactly once; [`crate::Network::simulate`] is the one-shot
//! bind-prepare-run wrapper with byte-identical metrics.

use crate::sim_options::SimOptions;
use otis_routing::FaultSet;
use otis_sim::{
    DemandSource, FaultSchedule, FaultScheduleError, HotPotatoSimConfig, MultiOpsSimConfig,
    PreparedHotPotato, PreparedMultiOps, SimMetrics, SlotScratch, TrafficPattern,
};

/// The hot-potato run-scoped knobs of `options`.
fn hot_config(options: &SimOptions) -> HotPotatoSimConfig {
    HotPotatoSimConfig {
        slots: options.slots,
        seed: options.seed,
        max_hops: options.max_hops,
        wavelengths: options.wavelengths,
    }
}

/// The multi-OPS run-scoped knobs of `options`.
fn ops_config(options: &SimOptions) -> MultiOpsSimConfig {
    MultiOpsSimConfig {
        slots: options.slots,
        seed: options.seed,
        policy: options.policy,
        queue_limit: options.queue_limit,
        wavelengths: options.wavelengths,
    }
}

/// A prepared simulation kernel for one network under one fault pattern —
/// either simulator family behind one surface.  `Send + Sync`, so one
/// kernel can serve many worker threads at once.
#[derive(Debug, Clone)]
pub enum PreparedSim {
    /// The deflection-routing kernel of the point-to-point families.
    HotPotato(PreparedHotPotato),
    /// The coupler-arbitration kernel of the multi-OPS families.
    MultiOps(PreparedMultiOps),
}

impl PreparedSim {
    /// Executes one run — the one dispatch onto the family's kernel.
    /// `demand` drives the injections (build a fresh source per run with
    /// [`otis_sim::DemandSpec::source`]); `timeline` is the bound fault
    /// schedule, `None` for a static run (an empty timeline runs the same
    /// way).  `scratch` is a caller-owned pool whose arena, queues and port
    /// masks are reused across runs; the scenario engine hands each worker
    /// one pool for its whole lifetime and threads every cell through here.
    ///
    /// Only the run-scoped options are read — `slots`, `seed`, `max_hops`,
    /// `wavelengths` for hot-potato kernels; `slots`, `seed`, `policy`,
    /// `queue_limit`, `wavelengths` for multi-OPS kernels.  The fault
    /// pattern and the alternate-route count (`alt_paths`) were fixed at
    /// prepare time ([`PreparedSim::faults`],
    /// [`crate::Network::prepare_with_alternates`]); `options.faults` and
    /// `options.alt_paths` are ignored here, which is what lets a scenario
    /// engine reuse one kernel across cells that share a fault pattern.
    ///
    /// # Panics
    ///
    /// Panics if `self` and the timeline come from different simulator
    /// families.
    pub fn run_demand_with_timeline_scratch(
        &self,
        timeline: Option<&PreparedTimeline>,
        demand: &mut DemandSource,
        options: &SimOptions,
        scratch: &mut SlotScratch,
    ) -> SimMetrics {
        match (self, timeline) {
            (PreparedSim::HotPotato(kernel), None) => {
                kernel.run(&[], demand, &hot_config(options), scratch)
            }
            (PreparedSim::HotPotato(kernel), Some(PreparedTimeline::HotPotato(epochs))) => {
                kernel.run(epochs, demand, &hot_config(options), scratch)
            }
            (PreparedSim::MultiOps(kernel), None) => {
                kernel.run(&[], demand, &ops_config(options), scratch)
            }
            (PreparedSim::MultiOps(kernel), Some(PreparedTimeline::MultiOps(epochs))) => {
                kernel.run(epochs, demand, &ops_config(options), scratch)
            }
            _ => panic!("timeline and kernel are from different simulator families"),
        }
    }

    /// [`PreparedSim::run_demand_with_timeline_scratch`] under a stationary
    /// traffic pattern, through its [`DemandSource::Pattern`] source.
    ///
    /// # Panics
    ///
    /// Panics if `self` and the timeline come from different simulator
    /// families.
    pub fn run_with_timeline_scratch(
        &self,
        timeline: Option<&PreparedTimeline>,
        traffic: &TrafficPattern,
        options: &SimOptions,
        scratch: &mut SlotScratch,
    ) -> SimMetrics {
        self.run_demand_with_timeline_scratch(
            timeline,
            &mut DemandSource::Pattern(traffic.clone()),
            options,
            scratch,
        )
    }

    /// Derives the kernel for `faults` from this kernel — `self` must be
    /// fault-free (prepared with an empty fault set).  The faulted kernel is
    /// built afresh over the base's shared graph: a multi-OPS kernel builds
    /// its group-pair routes on the fault-filtered quotient
    /// ([`PreparedMultiOps::repair_from`]), a hot-potato kernel its distance
    /// table on the surviving subgraph ([`PreparedHotPotato::repair_from`]).
    /// Either way the result is bit-identical to preparing the fault pattern
    /// from scratch.  `alt_paths` must equal the value `self` was prepared
    /// with (hot-potato kernels ignore it, exactly as they do at prepare
    /// time).
    pub fn repair(&self, faults: &FaultSet, alt_paths: usize) -> PreparedSim {
        match self {
            PreparedSim::HotPotato(base) => {
                PreparedSim::HotPotato(PreparedHotPotato::repair_from(base, faults))
            }
            PreparedSim::MultiOps(base) => {
                PreparedSim::MultiOps(PreparedMultiOps::repair_from(base, faults, alt_paths))
            }
        }
    }

    /// Structural equality of the routing state underneath — distance
    /// tables for hot-potato kernels; group-pair routes and Yen alternates
    /// for multi-OPS kernels.  The bit-identity oracle of the derived-kernel
    /// acceptance tests; hidden from docs (not part of the simulation
    /// surface).  Kernels of different families are never equal.
    #[doc(hidden)]
    pub fn routing_state_eq(&self, other: &PreparedSim) -> bool {
        match (self, other) {
            (PreparedSim::HotPotato(a), PreparedSim::HotPotato(b)) => a.routing_state_eq(b),
            (PreparedSim::MultiOps(a), PreparedSim::MultiOps(b)) => a.routing_state_eq(b),
            _ => false,
        }
    }

    /// The fault pattern this kernel was prepared with.
    pub fn faults(&self) -> &FaultSet {
        match self {
            PreparedSim::HotPotato(kernel) => kernel.faults(),
            PreparedSim::MultiOps(kernel) => kernel.router().faults(),
        }
    }

    /// Number of processors the kernel simulates.
    pub fn node_count(&self) -> usize {
        match self {
            PreparedSim::HotPotato(kernel) => kernel.node_count(),
            PreparedSim::MultiOps(kernel) => kernel.processor_count(),
        }
    }

    /// Binds a [`FaultSchedule`] against this kernel's fault domain and
    /// prepares one kernel per event slot, each derived from `base` (the
    /// fault-free kernel of the same spec) exactly as
    /// [`PreparedSim::repair`] derives it, whether the event adds faults or
    /// removes them.  `initial` is the kernel the run starts on (it carries
    /// the cell's static fault pattern); its faults are the floor every
    /// epoch unions onto.
    ///
    /// # Panics
    ///
    /// Panics if `base` and `initial` come from different simulator
    /// families — the engine only ever pairs kernels of one spec.
    pub fn timeline(
        base: &PreparedSim,
        initial: &PreparedSim,
        schedule: &FaultSchedule,
        alt_paths: usize,
    ) -> Result<PreparedTimeline, FaultScheduleError> {
        match (base, initial) {
            (PreparedSim::HotPotato(base), PreparedSim::HotPotato(initial)) => {
                Ok(PreparedTimeline::HotPotato(
                    PreparedHotPotato::timeline_from(base, initial, schedule)?,
                ))
            }
            (PreparedSim::MultiOps(base), PreparedSim::MultiOps(initial)) => {
                Ok(PreparedTimeline::MultiOps(PreparedMultiOps::timeline_from(
                    base, initial, schedule, alt_paths,
                )?))
            }
            _ => panic!("timeline base and initial kernels are from different simulator families"),
        }
    }
}

/// A bound fault schedule, prepared once per `(spec, fault-pattern,
/// schedule)` triple: the kernels the run swaps to, each tagged with the
/// slot it activates at.  Built by [`PreparedSim::timeline`] and consumed
/// by [`PreparedSim::run_demand_with_timeline_scratch`]; the scenario
/// engine caches these exactly like base kernels so a grid prepares each
/// epoch once.
#[derive(Debug, Clone)]
pub enum PreparedTimeline {
    /// Epoch kernels for a deflection-routing run.
    HotPotato(Vec<(u64, PreparedHotPotato)>),
    /// Epoch kernels for a coupler-arbitration run.
    MultiOps(Vec<(u64, PreparedMultiOps)>),
}

impl PreparedTimeline {
    /// Number of scheduled kernel swaps (epochs past the initial kernel).
    pub fn len(&self) -> usize {
        match self {
            PreparedTimeline::HotPotato(epochs) => epochs.len(),
            PreparedTimeline::MultiOps(epochs) => epochs.len(),
        }
    }

    /// `true` when the schedule bound to no events — the run is the static
    /// run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use otis_sim::DemandSpec;

    #[test]
    fn prepared_run_matches_simulate_for_both_families() {
        // The facade contract: simulate == prepare + run, byte for byte,
        // with and without faults, for one family of each kind.
        for spec in ["DB(2,4)", "SK(2,2,2)"] {
            let network = Network::from_spec(spec).unwrap();
            for faults in [FaultSet::new(), FaultSet::from_nodes([1])] {
                let options = SimOptions::new(300, 11).with_faults(faults.clone());
                let traffic = TrafficPattern::Uniform { load: 0.4 };
                let kernel = network.prepare(&faults);
                assert_eq!(kernel.faults(), &faults, "{spec}");
                let direct = network
                    .simulate(&DemandSpec::Pattern(traffic.clone()), &options)
                    .unwrap();
                // One kernel, several runs through one pool: all must match
                // one-shot calls.
                let mut scratch = SlotScratch::new();
                for _ in 0..2 {
                    let run =
                        kernel.run_with_timeline_scratch(None, &traffic, &options, &mut scratch);
                    assert_eq!(run, direct, "{spec}");
                }
            }
        }
    }

    #[test]
    fn prepared_node_count_matches_network() {
        for spec in ["K(5)", "POPS(3,4)"] {
            let network = Network::from_spec(spec).unwrap();
            let kernel = network.prepare(&FaultSet::new());
            assert_eq!(kernel.node_count(), network.node_count(), "{spec}");
        }
    }

    #[test]
    fn empty_timeline_run_matches_plain_run_for_both_families() {
        // A schedule with no events must bind to an empty timeline and the
        // timeline run must be the plain run, byte for byte.
        let schedule = FaultSchedule::empty();
        for spec in ["DB(2,4)", "SK(2,2,2)"] {
            let network = Network::from_spec(spec).unwrap();
            let kernel = network.prepare(&FaultSet::new());
            let timeline = PreparedSim::timeline(&kernel, &kernel, &schedule, 1).unwrap();
            assert!(timeline.is_empty(), "{spec}");
            let options = SimOptions::new(200, 7);
            let traffic = TrafficPattern::Uniform { load: 0.5 };
            let mut scratch = SlotScratch::new();
            assert_eq!(
                kernel.run_with_timeline_scratch(Some(&timeline), &traffic, &options, &mut scratch),
                kernel.run_with_timeline_scratch(None, &traffic, &options, &mut scratch),
                "{spec}"
            );
        }
    }

    #[test]
    fn scheduled_timeline_runs_and_counts_events_for_both_families() {
        let schedule: FaultSchedule = "fail(node 1)@20; recover@120".parse().unwrap();
        for spec in ["DB(2,4)", "SK(2,2,2)"] {
            let network = Network::from_spec(spec).unwrap();
            let kernel = network.prepare(&FaultSet::new());
            let timeline = PreparedSim::timeline(&kernel, &kernel, &schedule, 1).unwrap();
            assert_eq!(timeline.len(), 2, "{spec}");
            let options = SimOptions::new(300, 7);
            let traffic = TrafficPattern::Uniform { load: 0.5 };
            let metrics = kernel.run_with_timeline_scratch(
                Some(&timeline),
                &traffic,
                &options,
                &mut SlotScratch::new(),
            );
            assert_eq!(metrics.fault_events, 2, "{spec}");
        }
    }

    #[test]
    fn pattern_run_is_the_demand_run_of_its_pattern_source() {
        // The pattern entry point forwards to the one dispatch through a
        // `DemandSource::Pattern`: both families, static and scheduled,
        // on a fresh pool and on one reused across every run.
        let schedule: FaultSchedule = "fail(node 1)@20; recover@90".parse().unwrap();
        let traffic = TrafficPattern::Uniform { load: 0.6 };
        let options = SimOptions::new(150, 5);
        let mut reused = SlotScratch::new();
        for spec in ["DB(2,4)", "SK(2,2,2)"] {
            let network = Network::from_spec(spec).unwrap();
            let kernel = network.prepare(&FaultSet::new());
            let timeline = PreparedSim::timeline(&kernel, &kernel, &schedule, 1).unwrap();
            for timeline in [None, Some(&timeline)] {
                let pattern =
                    kernel.run_with_timeline_scratch(timeline, &traffic, &options, &mut reused);
                let mut demand = DemandSource::Pattern(traffic.clone());
                let fresh = kernel.run_demand_with_timeline_scratch(
                    timeline,
                    &mut demand,
                    &options,
                    &mut SlotScratch::new(),
                );
                assert_eq!(pattern, fresh, "{spec} timeline {}", timeline.is_some());
                let mut demand = DemandSource::Pattern(traffic.clone());
                let again = kernel.run_demand_with_timeline_scratch(
                    timeline,
                    &mut demand,
                    &options,
                    &mut reused,
                );
                assert_eq!(pattern, again, "{spec} timeline {}", timeline.is_some());
            }
        }
    }

    #[test]
    fn out_of_range_schedule_target_fails_to_bind() {
        let network = Network::from_spec("DB(2,3)").unwrap();
        let kernel = network.prepare(&FaultSet::new());
        let schedule: FaultSchedule = "fail(node 99)@5".parse().unwrap();
        let err = PreparedSim::timeline(&kernel, &kernel, &schedule, 1).unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
    }
}
