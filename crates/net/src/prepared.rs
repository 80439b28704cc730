//! The prepared-simulation surface of the facade.
//!
//! [`crate::Network::prepare_with_alternates`] splits simulation into the
//! two phases of the `otis-sim` kernels: an immutable [`PreparedSim`] — the
//! fault-filtered graph plus all routing/distance state, built once — and
//! cheap runs that only pay for the slot loop.  A run goes through one
//! dispatch, [`PreparedSim::run_demand_with_timeline_scratch`], which takes
//! an optional bound fault schedule, a demand source, the options and a
//! reusable scratch pool; [`PreparedSim::run_with_timeline_scratch`] is the
//! same run under a stationary traffic pattern.  The scenario engine caches
//! these kernels per `(spec, fault-pattern)` pair so a grid builds each one
//! exactly once; [`crate::Network::simulate`] is the one-shot
//! bind-prepare-run wrapper with byte-identical metrics.

use otis_routing::FaultSet;
use otis_sim::{
    DemandSource, FaultSchedule, FaultScheduleError, PreparedHotPotato, PreparedMultiOps,
    SimMetrics, SimOptions, SlotScratch, TrafficPattern,
};
use std::sync::Arc;

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
            (PreparedSim::HotPotato(kernel), None) => kernel.run(&[], demand, options, scratch),
            (PreparedSim::HotPotato(kernel), Some(PreparedTimeline::HotPotato(epochs))) => {
                kernel.run(epochs, demand, options, scratch)
            }
            (PreparedSim::MultiOps(kernel), None) => kernel.run(&[], demand, options, scratch),
            (PreparedSim::MultiOps(kernel), Some(PreparedTimeline::MultiOps(epochs))) => {
                kernel.run(epochs, demand, options, scratch)
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

    /// The kernel of the same network under `faults`: a fresh build over
    /// this kernel's shared, fault-free graph, equal to
    /// [`crate::Network::prepare_with_alternates`] for those faults.
    /// `alt_paths` must equal the value `self` was prepared with
    /// (hot-potato kernels ignore it, exactly as they do at prepare time).
    ///
    /// Kept only because `perfbench/` calls it, as
    /// [`crate::TrafficSpec`] is; new code prepares through the network.
    pub fn repair(&self, faults: &FaultSet, alt_paths: usize) -> PreparedSim {
        match self {
            PreparedSim::HotPotato(kernel) => PreparedSim::HotPotato(PreparedHotPotato::new(
                Arc::clone(kernel.shared_graph()),
                faults.clone(),
            )),
            PreparedSim::MultiOps(kernel) => {
                debug_assert_eq!(alt_paths, kernel.alt_paths(), "alt_paths of the kernel");
                PreparedSim::MultiOps(PreparedMultiOps::new(
                    Arc::clone(kernel.shared_stack_graph()),
                    faults.clone(),
                    alt_paths,
                ))
            }
        }
    }

    /// The fault pattern this kernel was prepared with.
    pub fn faults(&self) -> &FaultSet {
        match self {
            PreparedSim::HotPotato(kernel) => kernel.faults(),
            PreparedSim::MultiOps(kernel) => kernel.faults(),
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
    /// prepares one kernel per event slot
    /// ([`PreparedHotPotato::timeline`], [`PreparedMultiOps::timeline`]):
    /// each epoch kernel is prepared afresh over this kernel's shared graph
    /// for this kernel's faults plus every scheduled fault in force, whether
    /// the event adds faults or removes them, and an epoch back at this
    /// kernel's faults is a copy of this kernel.
    pub fn timeline_of(
        &self,
        schedule: &FaultSchedule,
    ) -> Result<PreparedTimeline, FaultScheduleError> {
        Ok(match self {
            PreparedSim::HotPotato(kernel) => {
                PreparedTimeline::HotPotato(kernel.timeline(schedule)?)
            }
            PreparedSim::MultiOps(kernel) => PreparedTimeline::MultiOps(kernel.timeline(schedule)?),
        })
    }

    /// `initial.timeline_of(schedule)`; `base` is not read.  `alt_paths`
    /// must equal the value `initial` was prepared with.
    ///
    /// Kept only because `perfbench/` calls it, as [`crate::TrafficSpec`]
    /// is; new code calls [`PreparedSim::timeline_of`].
    pub fn timeline(
        _base: &PreparedSim,
        initial: &PreparedSim,
        schedule: &FaultSchedule,
        alt_paths: usize,
    ) -> Result<PreparedTimeline, FaultScheduleError> {
        if let PreparedSim::MultiOps(kernel) = initial {
            debug_assert_eq!(alt_paths, kernel.alt_paths(), "alt_paths of the kernel");
        }
        initial.timeline_of(schedule)
    }
}

/// A bound fault schedule, prepared once per `(spec, fault-pattern,
/// schedule)` triple: the kernels the run swaps to, each tagged with the
/// slot it activates at.  Built by [`PreparedSim::timeline_of`] and
/// consumed by [`PreparedSim::run_demand_with_timeline_scratch`]; the
/// scenario engine caches these exactly like static kernels so a grid
/// prepares each epoch once.
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
                let kernel = network.prepare_with_alternates(&faults, 1);
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
            let kernel = network.prepare_with_alternates(&FaultSet::new(), 1);
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
            let kernel = network.prepare_with_alternates(&FaultSet::new(), 1);
            let timeline = kernel.timeline_of(&schedule).unwrap();
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
            let kernel = network.prepare_with_alternates(&FaultSet::new(), 1);
            let timeline = kernel.timeline_of(&schedule).unwrap();
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
            let kernel = network.prepare_with_alternates(&FaultSet::new(), 1);
            let timeline = kernel.timeline_of(&schedule).unwrap();
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
        let kernel = network.prepare_with_alternates(&FaultSet::new(), 1);
        let schedule: FaultSchedule = "fail(node 99)@5".parse().unwrap();
        let err = kernel.timeline_of(&schedule).unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
    }
}
