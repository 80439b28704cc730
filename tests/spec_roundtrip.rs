//! Facade acceptance tests: every supported spec family parses, round-trips
//! through `Display`, builds, verifies, and reports the node/link counts the
//! paper's closed forms predict.

use otis_lightwave::net::{DemandSpec, Network, NetworkSpec, RouteOracle, SimOptions};

/// One spec per family, with the closed-form processor and link/coupler
/// counts from the paper: `SK(6,3,2)` → 72 processors and 48 couplers
/// (Fig. 7), `POPS(9,8)` → 72 processors and 64 couplers (§2.4),
/// `KG(3,4)` → 108 nodes of degree 3 (§2.5), and so on.
const FAMILIES: &[(&str, usize, usize)] = &[
    ("K(5)", 5, 20),
    ("DB(2,8)", 256, 512),
    ("KG(3,4)", 108, 324),
    ("II(4,12)", 12, 48),
    ("POPS(9,8)", 72, 64),
    ("SK(6,3,2)", 72, 48),
    ("SII(2,3,12)", 24, 48),
];

#[test]
fn spec_roundtrip_all_families() {
    for &(text, nodes, links) in FAMILIES {
        // Parse and round-trip through Display.
        let spec: NetworkSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(spec.to_string(), text, "canonical rendering of {text}");
        assert_eq!(spec.to_string().parse::<NetworkSpec>().unwrap(), spec);

        // Build through the facade and check the closed forms.
        let network = Network::from_spec(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(network.node_count(), nodes, "{text} node count");
        assert_eq!(network.link_count(), links, "{text} link count");
        let summary = network.summary();
        assert_eq!(summary.nodes, nodes, "{text} summary nodes");
        assert_eq!(summary.links, links, "{text} summary links");
        assert!(summary.diameter_matches_prediction(), "{text} diameter");

        // Verification succeeds for every family: optical designs verify by
        // signal tracing, design-less families verify structurally.
        let report = network.verify().unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(report.processors, nodes, "{text} verified processors");

        // The closed forms on the spec itself agree with the built network.
        assert_eq!(
            spec.node_count(),
            Some(nodes),
            "{text} spec node closed form"
        );
        if let Some(closed_links) = spec.link_count() {
            assert_eq!(closed_links, links, "{text} spec link closed form");
        }
    }
}

#[test]
fn sk_6_3_2_matches_fig7_via_facade() {
    // The paper's worked example, end to end.
    let sk = Network::from_spec("SK(6,3,2)").unwrap();
    let report = sk.verify().unwrap();
    assert_eq!(report.processors, 72);
    assert_eq!(report.links, 48);
    let stack = sk.topology().stack_graph().unwrap();
    assert_eq!(stack.group_count(), 12);
    assert_eq!(stack.stacking_factor(), 6);
    assert_eq!(sk.summary().diameter, Some(2));
    // Fig. 12 hardware matches the closed-form inventory.
    assert_eq!(
        sk.design().unwrap().inventory(),
        sk.predicted_inventory().unwrap()
    );
}

#[test]
fn routers_cover_every_family() {
    for &(text, nodes, _) in FAMILIES {
        let network = Network::from_spec(text).unwrap();
        let router: Box<dyn RouteOracle> = network.router();
        assert_eq!(router.node_count(), nodes, "{text}");
        // Spot-check routes from a few sources to a few destinations.
        for src in [0, nodes / 2] {
            for dst in [0, nodes - 1] {
                let route = router
                    .route(src, dst)
                    .unwrap_or_else(|| panic!("{text}: no route {src}->{dst}"));
                let path = route.nodes();
                assert_eq!(path.first(), Some(&src), "{text} {src}->{dst}");
                assert_eq!(path.last(), Some(&dst), "{text} {src}->{dst}");
            }
        }
    }
}

#[test]
fn simulation_covers_every_family() {
    let options = SimOptions::new(120, 9);
    let uniform: DemandSpec = "uniform(0.2)".parse().unwrap();
    for &(text, _, _) in FAMILIES {
        let network = Network::from_spec(text).unwrap();
        let metrics = network.simulate(&uniform, &options).unwrap();
        assert_eq!(
            metrics.injected,
            metrics.delivered + metrics.in_flight + metrics.dropped,
            "{text} conservation"
        );
        assert!(metrics.delivered > 0, "{text} delivered nothing");
    }
}
