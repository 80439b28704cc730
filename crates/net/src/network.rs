//! The [`Network`] facade: one handle per network, built from a spec.
//!
//! A `Network` is one concrete struct for all seven families.  Every
//! per-family decision (graph constructor, predicted diameter, optical
//! design, verification, routing) is one `match` on the [`NetworkSpec`] in
//! this file; the design and the routing state are built on first use and
//! kept for the handle's lifetime.
//!
//! Its one simulation method is one-shot: [`Network::simulate`] binds the
//! workload, prepares the kernel for the options' fault pattern and runs it
//! once, through the same dispatch the scenario engine uses
//! ([`PreparedSim::run_demand_with_timeline_scratch`]), on a fresh scratch
//! pool.  Sweeps over one `(network, fault-pattern)` pair should prepare
//! once ([`Network::prepare_with_alternates`]) and run the kernel per cell
//! instead.

use crate::error::NetworkError;
use crate::prepared::PreparedSim;
use crate::route::Route;
use crate::spec::{NetworkSpec, MAX_LINKS};
use crate::topology::NetworkTopology;
use otis_core::stack_kautz_design;
use otis_core::verify::{verify_multi_ops, verify_point_to_point};
use otis_core::{ImaseItohDesign, OpticalDesign, StackImaseItohDesign, VerificationReport};
use otis_graphs::algorithms::{diameter, is_strongly_connected};
use otis_graphs::{Digraph, NodeId, SpectrumMap, StackGraph};
use otis_optics::HardwareInventory;
use otis_routing::{imase_itoh_route, kautz_route, FaultSet, RoutingTable, StackRouter};
use otis_sim::{
    check_alt_paths, check_wavelength_count, DemandSpec, PreparedHotPotato, PreparedMultiOps,
    SimMetrics, SimOptions, SlotScratch,
};
use otis_topologies::{
    complete_digraph, de_bruijn, imase_itoh, kautz, kautz_node_count, Pops, StackImaseItoh,
    StackKautz, TopologySummary,
};
use std::sync::{Arc, OnceLock};

/// The graph of a network, shared with the kernels prepared from it, next to
/// its routing state (built on first [`Network::route`]).
#[derive(Debug)]
enum Graph {
    /// A point-to-point digraph.  The BFS table routes `DB` and `K`; `KG`
    /// and `II` route by label arithmetic and never build it.
    PointToPoint {
        graph: Arc<Digraph>,
        table: OnceLock<RoutingTable>,
    },
    /// A multi-OPS stack-graph, routed through its quotient.
    MultiOps {
        stack: Arc<StackGraph>,
        router: OnceLock<StackRouter>,
    },
}

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
/// * [`Network::route`] — a route between two processors, by the family's
///   own router (Kautz word labels, Imase–Itoh arithmetic, the quotient
///   table of a stack-graph, or a BFS table);
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
    spec: NetworkSpec,
    graph: Graph,
    /// The optical design, built on first use; `None` for `DB` and `K`.
    design: OnceLock<Option<OpticalDesign>>,
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
        let point_to_point = |graph| Graph::PointToPoint {
            graph: Arc::new(graph),
            table: OnceLock::new(),
        };
        let multi_ops = |stack: &StackGraph| Graph::MultiOps {
            stack: Arc::new(stack.clone()),
            router: OnceLock::new(),
        };
        let graph = match spec {
            NetworkSpec::Complete { n } => point_to_point(complete_digraph(n)),
            NetworkSpec::DeBruijn { d, k } => point_to_point(de_bruijn(d, k)),
            NetworkSpec::Kautz { d, k } => point_to_point(kautz(d, k)),
            NetworkSpec::ImaseItoh { d, n } => point_to_point(imase_itoh(d, n)),
            NetworkSpec::Pops { t, g } => multi_ops(Pops::new(t, g).stack_graph()),
            NetworkSpec::StackKautz { s, d, k } => {
                multi_ops(StackKautz::new(s, d, k).stack_graph())
            }
            NetworkSpec::StackImaseItoh { s, d, n } => {
                multi_ops(StackImaseItoh::new(s, d, n).stack_graph())
            }
        };
        Ok(Network {
            spec,
            graph,
            design: OnceLock::new(),
        })
    }

    /// The spec this network was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The canonical name, e.g. `"SK(6,3,2)"`.
    pub fn name(&self) -> String {
        self.spec.to_string()
    }

    /// Whether this is a multi-OPS (stack-graph) network.
    pub fn is_multi_ops(&self) -> bool {
        self.spec.is_multi_ops()
    }

    /// The graph-level structure.
    pub fn topology(&self) -> NetworkTopology<'_> {
        match &self.graph {
            Graph::PointToPoint { graph, .. } => NetworkTopology::PointToPoint(graph),
            Graph::MultiOps { stack, .. } => NetworkTopology::MultiOps(stack),
        }
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
        match self.spec {
            NetworkSpec::Complete { n } => Some(u32::from(n > 1)),
            NetworkSpec::Pops { t, g } => Some(u32::from(t * g > 1)),
            // DB(1, k) is a single self-loop node; the k closed form needs d >= 2.
            NetworkSpec::DeBruijn { d, k } => (d >= 2).then(|| u32::try_from(k).ok()).flatten(),
            NetworkSpec::Kautz { k, .. } | NetworkSpec::StackKautz { k, .. } => {
                u32::try_from(k).ok()
            }
            // ⌈log_d n⌉ is only an upper bound, not the exact diameter.
            NetworkSpec::ImaseItoh { .. } | NetworkSpec::StackImaseItoh { .. } => None,
        }
    }

    /// The uniform property summary row (measured diameter, average
    /// distance, …) used by the reproduction tables.
    pub fn summary(&self) -> TopologySummary {
        self.topology()
            .summary(self.name(), self.predicted_diameter())
    }

    /// The OTIS-based optical design, for families the paper designs
    /// (`II`, `KG`, `POPS`, `SK`, `SII`); `None` for comparison-only
    /// families (`DB`, `K`).  Built on the first call and kept.  `KG(d, k)`
    /// is built as `II(d, n)` at `n = d^(k-1)(d+1)` (Corollary 1), and
    /// `SK(s, d, k)` as `SII(s, d, n)` at the same `n`; `POPS(t, g)` is
    /// `SII(t, g, g)`, because `K⁺_g = II(g, g)`.  A point-to-point design
    /// has no couplers.
    pub fn design(&self) -> Option<&OpticalDesign> {
        self.design
            .get_or_init(|| match self.spec {
                NetworkSpec::Complete { .. } | NetworkSpec::DeBruijn { .. } => None,
                NetworkSpec::Kautz { d, k } => {
                    Some(ImaseItohDesign::new(d, kautz_node_count(d, k)).into_design())
                }
                NetworkSpec::ImaseItoh { d, n } => Some(ImaseItohDesign::new(d, n).into_design()),
                NetworkSpec::Pops { t, g } => {
                    Some(StackImaseItohDesign::new(t, g, g).into_design())
                }
                NetworkSpec::StackKautz { s, d, k } => {
                    Some(StackImaseItohDesign::new(s, d, kautz_node_count(d, k)).into_design())
                }
                NetworkSpec::StackImaseItoh { s, d, n } => {
                    Some(StackImaseItohDesign::new(s, d, n).into_design())
                }
            })
            .as_ref()
    }

    /// The closed-form hardware inventory predicted by the paper, where one
    /// is stated (stack-Kautz designs).
    pub fn predicted_inventory(&self) -> Option<HardwareInventory> {
        match self.spec {
            NetworkSpec::StackKautz { s, d, k } => {
                Some(stack_kautz_design::expected_inventory(s, d, k))
            }
            _ => None,
        }
    }

    /// End-to-end verification.  Families with an optical design trace it
    /// signal by signal against the graph it realizes: `II(d, n)` for `KG`
    /// and `II` (Corollary 1 realizes `KG(d, k)` as `II(d, d^(k-1)(d+1))`),
    /// `ς(s, II⁺(d, n))` for `SK`, and the network's own stack-graph for
    /// `POPS` (`ς(t, K⁺_g)`, traced against its `SII(t, g, g)` design) and
    /// `SII`.  `DB` and `K` have no design and check their structural
    /// invariants instead: closed-form node count, degree regularity,
    /// strong connectivity and diameter.
    pub fn verify(&self) -> Result<VerificationReport, NetworkError> {
        let design = || {
            self.design()
                .expect("every family but DB and K has a design")
        };
        let report = match self.spec {
            NetworkSpec::Complete { n } => return self.structural_report(n - 1),
            NetworkSpec::DeBruijn { d, .. } => return self.structural_report(d),
            NetworkSpec::Kautz { d, .. } | NetworkSpec::ImaseItoh { d, .. } => {
                verify_point_to_point(design(), &imase_itoh(d, self.node_count()))
            }
            NetworkSpec::StackKautz { s, d, k } => {
                let groups = kautz_node_count(d, k);
                verify_multi_ops(design(), StackImaseItoh::new(s, d, groups).stack_graph())
            }
            NetworkSpec::Pops { .. } | NetworkSpec::StackImaseItoh { .. } => {
                let stack = self.topology().stack_graph().expect("multi-OPS family");
                verify_multi_ops(design(), stack)
            }
        };
        Ok(report?)
    }

    /// Structural verification of a design-less point-to-point family:
    /// node count, degree regularity, strong connectivity and diameter
    /// against their closed forms.
    fn structural_report(&self, degree: usize) -> Result<VerificationReport, NetworkError> {
        let graph = self
            .topology()
            .digraph()
            .expect("design-less families are point-to-point");
        let fail = |detail: String| NetworkError::Structure {
            network: self.name(),
            detail,
        };
        if let Some(expected_nodes) = self.spec.node_count() {
            if graph.node_count() != expected_nodes {
                return Err(fail(format!(
                    "node count {} differs from closed form {expected_nodes}",
                    graph.node_count()
                )));
            }
        }
        if !graph.is_d_regular(degree) {
            return Err(fail(format!("graph is not {degree}-regular")));
        }
        if graph.node_count() > 1 {
            if !is_strongly_connected(graph) {
                return Err(fail("graph is not strongly connected".to_string()));
            }
            if let (Some(measured), Some(expected)) = (diameter(graph), self.predicted_diameter()) {
                if measured != expected {
                    return Err(fail(format!(
                        "measured diameter {measured} differs from closed form {expected}"
                    )));
                }
            }
        }
        Ok(VerificationReport {
            processors: graph.node_count(),
            links: graph.arc_count(),
            components: 0,
            worst_case_loss_db: 0.0,
        })
    }

    /// A route from `src` to `dst` over flat processor identifiers, or
    /// `None` when either identifier is out of range or no path exists.
    /// `KG` routes by word labels and `II` by base-`(−d)` arithmetic (both
    /// shortest paths), `DB` and `K` by a BFS table, and the multi-OPS
    /// families by the quotient table of their stack-graph; the tables are
    /// built on the first call and kept.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        if src >= self.node_count() || dst >= self.node_count() {
            return None;
        }
        match (self.spec, &self.graph) {
            (NetworkSpec::Kautz { d, k }, _) => {
                Some(Route::PointToPoint(kautz_route(d, k, src, dst)))
            }
            (NetworkSpec::ImaseItoh { d, n }, _) => {
                imase_itoh_route(d, n, src, dst).map(Route::PointToPoint)
            }
            (_, Graph::PointToPoint { graph, table }) => table
                .get_or_init(|| RoutingTable::new(graph))
                .route(src, dst)
                .map(Route::PointToPoint),
            (_, Graph::MultiOps { stack, router }) => router
                .get_or_init(|| StackRouter::from_shared(stack.clone(), FaultSet::new()))
                .route(src, dst)
                .map(Route::MultiOps),
        }
    }

    /// Number of optical hops of [`Network::route`].
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.route(src, dst).map(|route| route.hop_count())
    }

    /// Prepares this network's immutable simulation kernel for the given
    /// fault pattern — the expensive half of a simulation (fault-filtered
    /// graph, routing/distance tables), built once.  Sweeps that vary only
    /// seeds, loads or traffic over one `(network, fault-pattern)` pair
    /// should prepare once and run the kernel per cell
    /// ([`PreparedSim::run_demand_with_timeline_scratch`]); the scenario
    /// engine does exactly that through its kernel cache.
    ///
    /// `alt_paths` builds the alternate-route table of the wavelength
    /// layer: in wavelength mode a hop whose primary channel has no free
    /// wavelength tries up to `alt_paths − 1` Yen alternate routes before
    /// counting a blocked packet.  It is kernel state — fixed here, ignored
    /// by the kernel's runs.  `0` and `1` prepare no alternates.  For
    /// point-to-point families the knob is a no-op because deflection
    /// routing *is* alternate routing.
    ///
    /// # Panics
    ///
    /// Panics if a point-to-point network has more processors than the
    /// hot-potato distance table covers
    /// ([`otis_routing::DistanceTable::MAX_NODES`]), or if a multi-OPS
    /// network is asked for more than [`otis_sim::MAX_ALT_PATHS`] routes
    /// ([`otis_sim::PreparedMultiOps::new`]).  The scenario engine and
    /// [`Network::simulate`] refuse such networks with
    /// [`NetworkError::HotPotatoTooLarge`] and such counts with
    /// [`NetworkError::AltPaths`] instead.
    pub fn prepare_with_alternates(&self, faults: &FaultSet, alt_paths: usize) -> PreparedSim {
        match &self.graph {
            Graph::PointToPoint { graph, .. } => {
                PreparedSim::HotPotato(PreparedHotPotato::new(graph.clone(), faults.clone()))
            }
            Graph::MultiOps { stack, .. } => PreparedSim::MultiOps(PreparedMultiOps::new(
                stack.clone(),
                faults.clone(),
                alt_paths,
            )),
        }
    }

    /// Refuses a point-to-point network whose processor count exceeds the
    /// hot-potato distance table's cap, which
    /// [`Network::prepare_with_alternates`] would panic on.
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

    /// Refuses a wavelength count whose spectrum map — one `⌈W/64⌉`-word
    /// bitmask per link or coupler, allocated by every multiplexed run and
    /// cleared every slot — would hold more than [`crate::spec::MAX_LINKS`]
    /// words.
    pub(crate) fn check_spectrum(&self, wavelengths: usize) -> Result<(), NetworkError> {
        let links = self.link_count();
        if spectrum_fits(links, wavelengths) {
            return Ok(());
        }
        Err(NetworkError::SpectrumTooLarge {
            network: self.name(),
            links,
            wavelengths,
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

    /// Runs a slotted simulation under a workload, binding it to this
    /// network first: value errors (NaN loads, negative rates) and topology
    /// preconditions (transpose needs a square processor count,
    /// bit-reversal a power of two, a hotspot's hot node or a Poisson
    /// destination must exist, trace events must address real processors)
    /// are typed refusals, never silently-degraded traffic, and so is a
    /// point-to-point network above the hot-potato table cap
    /// ([`NetworkError::HotPotatoTooLarge`]), a wavelength count outside
    /// `1..=MAX_WAVELENGTHS` ([`NetworkError::Wavelengths`]) or one whose
    /// spectrum map would be too large ([`NetworkError::SpectrumTooLarge`]),
    /// and an `alt_paths` outside `1..=MAX_ALT_PATHS`
    /// ([`NetworkError::AltPaths`]).  The bound
    /// workload's demand source drives one run of a freshly prepared kernel,
    /// with metrics byte-identical to preparing and running by hand.
    pub fn simulate(
        &self,
        workload: &DemandSpec,
        options: &SimOptions,
    ) -> Result<SimMetrics, NetworkError> {
        check_wavelength_count(options.wavelengths.count)?;
        check_alt_paths(options.alt_paths)?;
        let mut source = workload.bind(self.node_count())?.source()?;
        self.check_simulable()?;
        self.check_spectrum(options.wavelengths.count)?;
        let kernel = self.prepare_with_alternates(&options.faults, options.alt_paths);
        Ok(kernel.run_demand_with_timeline_scratch(
            None,
            &mut source,
            options,
            &mut SlotScratch::new(),
        ))
    }
}

/// Whether a spectrum map over `links` channels at `wavelengths`
/// wavelengths holds at most [`crate::spec::MAX_LINKS`] words.
fn spectrum_fits(links: usize, wavelengths: usize) -> bool {
    SpectrumMap::word_count(links, wavelengths).is_some_and(|words| words <= MAX_LINKS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_sim::TrafficPattern;

    fn uniform(load: f64) -> DemandSpec {
        DemandSpec::Pattern(TrafficPattern::Uniform { load })
    }

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

        let route = net.route(0, 71).unwrap();
        assert!(route.hop_count() <= 2);
        assert_eq!(net.hop_count(0, 71), Some(route.hop_count()));
        assert!(net.route(0, 72).is_none());

        let metrics = net
            .simulate(&uniform(0.2), &SimOptions::new(200, 7))
            .unwrap();
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
            let route = net.route(0, net.node_count() - 1).unwrap();
            assert_eq!(
                route.nodes().last(),
                Some(&(net.node_count() - 1)),
                "{spec}"
            );
            let metrics = net
                .simulate(&uniform(0.3), &SimOptions::new(150, 3))
                .unwrap();
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
        let bitrev: DemandSpec = "bitrev(0.5)".parse().unwrap();
        let metrics = net.simulate(&bitrev, &options).unwrap();
        assert!(metrics.delivered > 0);
        // 32 is not a perfect square: transpose traffic is a typed refusal.
        let transpose: DemandSpec = "transpose(0.5)".parse().unwrap();
        let err = net.simulate(&transpose, &options).unwrap_err();
        assert!(matches!(err, NetworkError::Traffic(_)), "{err}");
        // And the hot node must exist.
        let hotspot: DemandSpec = "hotspot(0.4,32,0.2)".parse().unwrap();
        assert!(net.simulate(&hotspot, &options).is_err());
    }

    #[test]
    fn spectrum_maps_above_the_link_cap_are_refused() {
        // K(4096) has 16 773 120 arcs, under MAX_LINKS: at 64 wavelengths
        // its map is one word per arc and fits; from 65 wavelengths on it
        // takes two words per arc, and at 4096 sixty-four (8 GiB).  Checked
        // on the numbers only: nothing that large is built here.
        let links = 4096 * 4095;
        assert!(links < MAX_LINKS);
        assert!(spectrum_fits(links, 1));
        assert!(spectrum_fits(links, 64));
        assert!(!spectrum_fits(links, 65));
        assert!(!spectrum_fits(links, otis_sim::MAX_WAVELENGTHS));
        assert!(spectrum_fits(MAX_LINKS, 64));
        assert!(!spectrum_fits(usize::MAX, 128));
        let small = Network::from_spec("K(4)").unwrap();
        assert_eq!(small.check_spectrum(otis_sim::MAX_WAVELENGTHS), Ok(()));
    }

    #[test]
    fn pops_simulation_end_to_end() {
        let net = Network::from_spec("POPS(9,8)").unwrap();
        assert_eq!(net.node_count(), 72);
        let metrics = net
            .simulate(&uniform(0.1), &SimOptions::new(300, 11))
            .unwrap();
        assert!(metrics.delivered > 0);
        // Single-hop network: every delivered message took exactly one hop.
        assert!((metrics.average_hops() - 1.0).abs() < 1e-9);
    }
}
