//! The [`Network`] facade: one handle per network, built from a spec.
//!
//! Its simulation methods are one-shot: [`Network::simulate`] and
//! [`Network::simulate_workload`] prepare the kernel for the options' fault
//! pattern and run it once, through the same dispatch the scenario engine
//! uses ([`PreparedSim::run_demand_with_timeline_scratch`]), on a fresh
//! scratch pool.  Sweeps over one `(network, fault-pattern)` pair should
//! [`Network::prepare`] once and run the kernel per cell instead.

use crate::design::NetworkDesign;
use crate::error::NetworkError;
use crate::families;
use crate::family::NetworkFamily;
use crate::prepared::PreparedSim;
use crate::route::RouteOracle;
use crate::sim_options::SimOptions;
use crate::spec::NetworkSpec;
use crate::topology::NetworkTopology;
use crate::traffic_spec::{TrafficError, TrafficSpec};
use otis_core::VerificationReport;
use otis_optics::HardwareInventory;
use otis_routing::FaultSet;
use otis_sim::{DemandSpec, SimMetrics, SlotScratch, TrafficPattern};
use otis_topologies::TopologySummary;

/// Any network of the reproduction, behind one uniform API.
///
/// A `Network` is built from a spec string (or a parsed [`NetworkSpec`]) and
/// exposes every layer of the codebase through one surface:
///
/// * [`Network::topology`] — the digraph / stack-graph structure;
/// * [`Network::design`] — the OTIS-based optical design, where the paper
///   gives one;
/// * [`Network::verify`] — end-to-end verification (signal tracing against
///   the target topology, or structural invariants for design-less
///   families);
/// * [`Network::router`] — a route oracle unifying the per-family routers;
/// * [`Network::simulate`] — the slotted simulator matching the family
///   (multi-OPS arbitration or hot-potato deflection).
///
/// ```
/// use otis_net::Network;
///
/// let network = Network::from_spec("SK(6,3,2)").unwrap();
/// let report = network.verify().unwrap();
/// assert_eq!(report.processors, 72);
/// assert_eq!(report.links, 48);
/// ```
#[derive(Debug)]
pub struct Network {
    inner: Box<dyn NetworkFamily>,
}

impl Network {
    /// Builds a network from a spec string such as `"SK(6,3,2)"`,
    /// `"POPS(9,8)"`, `"II(4,12)"`, `"KG(3,4)"`, `"DB(2,8)"`,
    /// `"SII(2,3,12)"` or `"K(5)"`.
    pub fn from_spec(spec: &str) -> Result<Self, NetworkError> {
        Self::new(spec.parse::<NetworkSpec>()?)
    }

    /// Builds a network from a parsed spec, re-validating its parameters so
    /// a directly-constructed [`NetworkSpec`] cannot panic the constructors.
    pub fn new(spec: NetworkSpec) -> Result<Self, NetworkError> {
        spec.validate()?;
        Ok(Network {
            inner: families::build(&spec),
        })
    }

    /// The spec this network was built from.
    pub fn spec(&self) -> &NetworkSpec {
        self.inner.spec()
    }

    /// The canonical name, e.g. `"SK(6,3,2)"`.
    pub fn name(&self) -> String {
        self.spec().to_string()
    }

    /// Whether this is a multi-OPS (stack-graph) network.
    pub fn is_multi_ops(&self) -> bool {
        self.spec().is_multi_ops()
    }

    /// The graph-level structure.
    pub fn topology(&self) -> NetworkTopology<'_> {
        self.inner.topology()
    }

    /// Number of processors.
    pub fn node_count(&self) -> usize {
        self.topology().node_count()
    }

    /// Number of point-to-point links or OPS couplers.
    pub fn link_count(&self) -> usize {
        self.topology().link_count()
    }

    /// The closed-form diameter predicted by the paper, when exact.
    pub fn predicted_diameter(&self) -> Option<u32> {
        self.inner.predicted_diameter()
    }

    /// The uniform property summary row (measured diameter, average
    /// distance, …) used by the reproduction tables.
    pub fn summary(&self) -> TopologySummary {
        self.topology()
            .summary(self.name(), self.predicted_diameter())
    }

    /// The OTIS-based optical design, for families the paper designs
    /// (`II`, `KG`, `POPS`, `SK`, `SII`); `None` for comparison-only
    /// families (`DB`, `K`).
    pub fn design(&self) -> Option<NetworkDesign> {
        self.inner.design()
    }

    /// The closed-form hardware inventory predicted by the paper, where one
    /// is stated (stack-Kautz designs).
    pub fn predicted_inventory(&self) -> Option<HardwareInventory> {
        self.inner.predicted_inventory()
    }

    /// End-to-end verification; see [`Network`] for what is checked per
    /// family.
    pub fn verify(&self) -> Result<VerificationReport, NetworkError> {
        self.inner.verify()
    }

    /// A route oracle over flat processor identifiers.
    pub fn router(&self) -> Box<dyn RouteOracle> {
        self.inner.router()
    }

    /// Prepares this network's immutable simulation kernel for the given
    /// fault pattern — the expensive half of a simulation (fault-filtered
    /// graph, routing/distance tables), built once.  Sweeps that vary only
    /// seeds, loads or traffic over one `(network, fault-pattern)` pair
    /// should prepare once and run the kernel per cell
    /// ([`PreparedSim::run_demand_with_timeline_scratch`]); the
    /// scenario engine does exactly that through its kernel cache.  No
    /// alternate routes are prepared; see
    /// [`Network::prepare_with_alternates`] for kernels that try Yen
    /// alternate paths before blocking.
    ///
    /// # Panics
    ///
    /// Panics if a point-to-point network has more processors than the
    /// hot-potato distance table covers
    /// ([`otis_routing::DistanceTable::MAX_NODES`]).  The scenario engine
    /// and [`Network::simulate_workload`] refuse such networks with
    /// [`NetworkError::HotPotatoTooLarge`] instead.
    pub fn prepare(&self, faults: &FaultSet) -> PreparedSim {
        self.prepare_with_alternates(faults, 1)
    }

    /// Like [`Network::prepare`], but also builds the alternate-route table
    /// of the wavelength layer: in wavelength mode a hop whose primary
    /// channel has no free wavelength tries up to `alt_paths − 1` Yen
    /// alternate routes before counting a blocked packet.  `alt_paths` is
    /// kernel state — fixed here, ignored by the kernel's runs.  `1`
    /// prepares no alternates (identical to [`Network::prepare`]); for
    /// point-to-point families the knob is a no-op because deflection
    /// routing *is* alternate routing.
    ///
    /// # Panics
    ///
    /// Panics on the same oversized point-to-point networks as
    /// [`Network::prepare`].
    pub fn prepare_with_alternates(&self, faults: &FaultSet, alt_paths: usize) -> PreparedSim {
        self.inner.prepare(faults, alt_paths)
    }

    /// Refuses a point-to-point network whose processor count exceeds the
    /// hot-potato distance table's cap, which [`Network::prepare`] would
    /// panic on.
    pub(crate) fn check_simulable(&self) -> Result<(), NetworkError> {
        let nodes = self.node_count();
        if self.is_multi_ops() || nodes <= otis_routing::DistanceTable::MAX_NODES {
            return Ok(());
        }
        Err(NetworkError::HotPotatoTooLarge {
            network: self.name(),
            nodes,
        })
    }

    /// The hardware cost of this network in optical parts, for
    /// cost-per-delivered-bit composites: the total part count of the OTIS
    /// design where the paper gives one, otherwise a `3 ×` link-count proxy
    /// (transmitter, medium, receiver per link) so design-less comparison
    /// families still land on a comparable scale.
    pub fn hardware_cost(&self) -> usize {
        match self.design() {
            Some(design) => design.inventory().total_parts(),
            None => 3 * self.link_count(),
        }
    }

    /// Runs a slotted simulation under the given traffic pattern: the
    /// one-shot prepare-then-run wrapper over [`Network::prepare`].
    pub fn simulate(&self, traffic: &TrafficPattern, options: &SimOptions) -> SimMetrics {
        self.inner.simulate(traffic, options)
    }

    /// Convenience wrapper: uniform traffic at the given load.
    pub fn simulate_uniform(&self, load: f64, options: &SimOptions) -> SimMetrics {
        self.simulate(&TrafficPattern::Uniform { load }, options)
    }

    /// Runs a slotted simulation under a parsed workload spec, binding it to
    /// this network first: value errors (NaN loads, negative rates) and
    /// topology preconditions (transpose needs a square processor count,
    /// bit-reversal a power of two, a hotspot's hot node or a Poisson
    /// destination must exist, trace events must address real processors)
    /// are typed refusals, never silently-degraded traffic.  The bound
    /// workload's demand source drives one run of a freshly prepared
    /// kernel; a stationary pattern's source draws exactly as
    /// [`Network::simulate`] does, so the metrics match it.
    pub fn simulate_workload(
        &self,
        workload: &TrafficSpec,
        options: &SimOptions,
    ) -> Result<SimMetrics, NetworkError> {
        let demand = workload.bind(self.node_count())?;
        let mut source = demand.source().map_err(|e| {
            NetworkError::from(TrafficError::TraceIo {
                path: match &demand {
                    DemandSpec::Trace { path, .. } => path.clone(),
                    _ => unreachable!("only trace sources touch the filesystem"),
                },
                detail: e.to_string(),
            })
        })?;
        self.check_simulable()?;
        let kernel = self.prepare_with_alternates(&options.faults, options.alt_paths);
        Ok(kernel.run_demand_with_timeline_scratch(
            None,
            &mut source,
            options,
            &mut SlotScratch::new(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_exposes_every_layer_for_sk() {
        let net = Network::from_spec("SK(6,3,2)").unwrap();
        assert_eq!(net.name(), "SK(6,3,2)");
        assert!(net.is_multi_ops());
        assert_eq!(net.node_count(), 72);
        assert_eq!(net.link_count(), 48);
        assert_eq!(net.predicted_diameter(), Some(2));

        let summary = net.summary();
        assert_eq!(summary.nodes, 72);
        assert!(summary.diameter_matches_prediction());

        let report = net.verify().unwrap();
        assert_eq!(report.processors, 72);
        assert_eq!(report.links, 48);

        let design = net.design().unwrap();
        assert_eq!(design.processor_count(), 72);
        assert_eq!(design.inventory(), net.predicted_inventory().unwrap());

        let router = net.router();
        let route = router.route(0, 71).unwrap();
        assert!(route.hop_count() <= 2);

        let metrics = net.simulate_uniform(0.2, &SimOptions::new(200, 7));
        assert!(metrics.delivered > 0);
        assert_eq!(
            metrics.injected,
            metrics.delivered + metrics.in_flight + metrics.dropped
        );
    }

    #[test]
    fn facade_works_for_point_to_point_families() {
        for spec in ["KG(2,3)", "II(3,12)", "DB(2,4)", "K(5)"] {
            let net = Network::from_spec(spec).unwrap();
            assert!(!net.is_multi_ops(), "{spec}");
            let report = net.verify().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(report.processors, net.node_count(), "{spec}");
            let router = net.router();
            assert_eq!(router.node_count(), net.node_count(), "{spec}");
            let route = router.route(0, net.node_count() - 1).unwrap();
            assert_eq!(
                route.nodes().last(),
                Some(&(net.node_count() - 1)),
                "{spec}"
            );
            let metrics = net.simulate_uniform(0.3, &SimOptions::new(150, 3));
            assert_eq!(
                metrics.injected,
                metrics.delivered + metrics.in_flight + metrics.dropped,
                "{spec}"
            );
        }
    }

    #[test]
    fn design_availability_matches_the_paper() {
        assert!(Network::from_spec("SK(2,2,2)").unwrap().design().is_some());
        assert!(Network::from_spec("POPS(4,2)").unwrap().design().is_some());
        assert!(Network::from_spec("SII(2,2,5)").unwrap().design().is_some());
        assert!(Network::from_spec("KG(2,2)").unwrap().design().is_some());
        assert!(Network::from_spec("II(2,5)").unwrap().design().is_some());
        assert!(Network::from_spec("DB(2,3)").unwrap().design().is_none());
        assert!(Network::from_spec("K(4)").unwrap().design().is_none());
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        assert!(Network::from_spec("nope").is_err());
        assert!(Network::from_spec("SK(0,2,2)").is_err());
    }

    #[test]
    fn simulate_workload_binds_and_refuses() {
        let net = Network::from_spec("DB(2,5)").unwrap(); // 32 = 2^5 processors
        let options = SimOptions::new(150, 5);
        let bitrev: TrafficSpec = "bitrev(0.5)".parse().unwrap();
        let metrics = net.simulate_workload(&bitrev, &options).unwrap();
        assert!(metrics.delivered > 0);
        // 32 is not a perfect square: transpose traffic is a typed refusal.
        let transpose: TrafficSpec = "transpose(0.5)".parse().unwrap();
        let err = net.simulate_workload(&transpose, &options).unwrap_err();
        assert!(matches!(err, NetworkError::Traffic(_)), "{err}");
        // And the hot node must exist.
        let hotspot: TrafficSpec = "hotspot(0.4,32,0.2)".parse().unwrap();
        assert!(net.simulate_workload(&hotspot, &options).is_err());
    }

    #[test]
    fn pops_simulation_end_to_end() {
        let net = Network::from_spec("POPS(9,8)").unwrap();
        assert_eq!(net.node_count(), 72);
        let metrics = net.simulate(
            &TrafficPattern::Uniform { load: 0.1 },
            &SimOptions::new(300, 11),
        );
        assert!(metrics.delivered > 0);
        // Single-hop network: every delivered message took exactly one hop.
        assert!((metrics.average_hops() - 1.0).abs() < 1e-9);
    }
}
