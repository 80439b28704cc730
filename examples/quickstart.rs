//! Quickstart: build the paper's worked example from a spec string, verify
//! it optically, and route on it — all through the `Network` facade.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use otis_lightwave::net::Network;

fn main() {
    // 1. The whole network behind one spec string: the stack-Kautz network
    //    SK(6,3,2) of Fig. 7.
    let sk = Network::from_spec("SK(6,3,2)").expect("valid spec");
    let stack = sk.topology().stack_graph().expect("SK is multi-OPS");
    println!(
        "{}: {} processors in {} groups of {}, {} OPS couplers, diameter {:?}",
        sk.name(),
        sk.node_count(),
        stack.group_count(),
        stack.stacking_factor(),
        sk.link_count(),
        sk.summary().diameter
    );

    // 2. The optical design of Fig. 12, and its end-to-end verification by
    //    signal tracing.
    let report = sk.verify().expect("the OTIS design realizes SK(6,3,2)");
    println!("optical design verified: {report}");
    println!(
        "hardware inventory:\n{}",
        sk.design().expect("SK has an OTIS design").inventory()
    );

    // 3. Corollary 1: a Kautz graph on a single OTIS — same facade, another
    //    spec string.
    let kautz = Network::from_spec("KG(3,2)").expect("valid spec");
    kautz.verify().expect("Corollary 1 holds for KG(3,2)");
    println!(
        "KG(3,2) realized by one OTIS(3,{}) — {} lenses in total",
        kautz.node_count(),
        kautz
            .design()
            .expect("KG has an OTIS design")
            .inventory()
            .lens_count()
    );

    // 4. Routing: the network inherits shortest-path routing from the Kautz
    //    quotient.
    use otis_lightwave::graphs::StackNode;
    let src = stack.to_flat(StackNode::new(0, 0)); // (group 0, index 0)
    let dst = stack.to_flat(StackNode::new(3, 7)); // (group 7, index 3)
    let route = sk.route(src, dst).expect("strongly connected");
    println!(
        "route from processor (group 0, index 0) to (group 7, index 3): {} optical hops",
        route.hop_count()
    );
    for (i, node) in route.nodes().iter().enumerate().skip(1) {
        let sn = stack.to_stack_node(*node);
        println!(
            "  hop {}: -> processor (group {}, index {})",
            i, sn.group, sn.index
        );
    }
}
