//! Regeneration of every figure and table of the paper.
//!
//! Each experiment id maps to a function that rebuilds the corresponding
//! artefact from the library and renders it as text: the permutation tables
//! and constructions behind Figs. 1–12, the topology property tables implied
//! by §2.5–2.7, the hardware inventories of §4, and the comparison tables
//! (cost, routing, simulation) that reproduce the *shape* of the companion
//! evaluations the paper builds on.  `EXPERIMENTS.md` records, for every id,
//! what the paper states and what this code measures.
//!
//! Every network is instantiated through the [`otis_net::Network`] facade —
//! an experiment names networks by spec string (`"SK(6,3,2)"`, `"II(3,12)"`,
//! …) and asks the facade for topology, design, verification, routing or
//! simulation, so adding a scenario means adding data, not plumbing.

use otis_graphs::algorithms::{is_eulerian, is_hamiltonian};
use otis_graphs::{are_isomorphic, line_digraph, StackGraph};
use otis_net::{
    compare_specs, default_thread_count, run_grid, run_grid_streaming, ComparisonRow, DemandSpec,
    Network, NetworkSpec, ScenarioGrid, ScenarioRow, TableSink,
};
use otis_optics::components::ComponentKind;
use otis_optics::electrical::InterconnectModel;
use otis_optics::power::{splitting_loss_db, PowerBudget};
use otis_optics::Otis;
use otis_routing::fault_tolerant::validate_kautz_fault_bound;
use otis_routing::node_fault_patterns_up_to;
use otis_topologies::imase_itoh::imase_itoh_diameter_bound;
use otis_topologies::{complete_digraph_with_loops, kautz_node_count, moore_bound};
use std::fmt::Write as _;

/// Builds a network from a spec literal the experiment tables name.
///
/// # Panics
/// Panics on an invalid spec — experiment specs are compile-time data, so a
/// bad one is a bug in the experiment, not an input error.
fn net(spec: &str) -> Network {
    Network::from_spec(spec).unwrap_or_else(|e| panic!("experiment spec '{spec}': {e}"))
}

/// The list of experiment identifiers together with a one-line description.
pub fn available_experiments() -> Vec<(&'static str, &'static str)> {
    vec![
        ("fig1", "OTIS(3,6) transpose permutation (Fig. 1)"),
        ("fig2", "degree-4 OPS coupler model (Fig. 2)"),
        ("fig3", "OPS coupler as a hyperarc (Fig. 3)"),
        ("fig4", "POPS(4,2) construction (Fig. 4)"),
        ("fig5", "POPS(4,2) as the stack-graph ς(4,K⁺₂) (Fig. 5)"),
        ("fig6", "Kautz line-digraph iterations KG(2,1..3) (Fig. 6)"),
        (
            "table-kautz",
            "Kautz property table incl. KG(5,4) row (§2.5)",
        ),
        (
            "table-ii",
            "Imase–Itoh property table and II=KG identification (§2.6)",
        ),
        ("fig7", "stack-Kautz SK(6,3,2) properties (Fig. 7)"),
        (
            "fig8",
            "group of 6 processors to 4 multiplexers via OTIS(6,4) (Fig. 8)",
        ),
        (
            "fig9",
            "3 beam-splitters to a group of 5 processors via OTIS(3,5) (Fig. 9)",
        ),
        (
            "fig10",
            "Proposition 1: II(3,12) realized by OTIS(3,12) (Fig. 10)",
        ),
        ("cor1", "Corollary 1: Kautz graphs on OTIS"),
        ("fig11", "POPS(4,2) optical design on OTIS (Fig. 11)"),
        ("fig12", "SK(6,3,2) optical design on OTIS (Fig. 12)"),
        (
            "table-cost",
            "hardware cost and power scaling of the designs (T3)",
        ),
        (
            "table-routing",
            "routing length and fault-tolerance bounds (T4)",
        ),
        (
            "table-sim",
            "POPS vs stack-Kautz vs hot-potato simulation (T5)",
        ),
    ]
}

/// The three-line banner `reproduce all` prints above experiment `id`.
pub fn experiment_banner(id: &str, description: &str) -> String {
    let rule = "=".repeat(66);
    format!("{rule}\n== {id}: {description}\n{rule}\n")
}

/// Runs one experiment by id and returns its text report.
///
/// # Panics
/// Panics on an unknown experiment id; use [`available_experiments`] to list
/// the valid ones.
pub fn run_experiment(id: &str) -> String {
    match id {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "table-kautz" => table_kautz(),
        "table-ii" => table_ii(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "cor1" => cor1(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "table-cost" => table_cost(),
        "table-routing" => table_routing(),
        "table-sim" => table_sim(),
        other => panic!("unknown experiment id '{other}'; see `reproduce list`"),
    }
}

fn fig1() -> String {
    let mut out = String::new();
    let otis = Otis::new(3, 6);
    writeln!(
        out,
        "Fig. 1 — OTIS(3,6): transmitter (i,j) -> receiver (T-1-j, G-1-i)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>6} {:>6}   {:>6} {:>6}",
        "tx i", "tx j", "rx grp", "rx off"
    )
    .unwrap();
    for i in 0..otis.groups() {
        for j in 0..otis.group_size() {
            let (p, q) = otis.map_pair(i, j);
            writeln!(out, "{i:>6} {j:>6}   {p:>6} {q:>6}").unwrap();
        }
    }
    let perm = otis.permutation();
    let bijective = {
        let mut seen = vec![false; perm.len()];
        perm.iter().all(|&r| !std::mem::replace(&mut seen[r], true))
    };
    writeln!(
        out,
        "permutation is a bijection on {} positions: {}",
        perm.len(),
        bijective
    )
    .unwrap();
    writeln!(
        out,
        "back-to-back with OTIS(6,3) restores every position: {}",
        {
            let back = otis.transposed();
            (0..otis.groups()).all(|i| {
                (0..otis.group_size()).all(|j| {
                    let (p, q) = otis.map_pair(i, j);
                    back.map_pair(p, q) == (i, j)
                })
            })
        }
    )
    .unwrap();
    out
}

fn fig2() -> String {
    let mut out = String::new();
    let coupler = ComponentKind::OpsCoupler { degree: 4 };
    writeln!(out, "Fig. 2 — a degree-4 optical passive star coupler").unwrap();
    writeln!(
        out,
        "inputs: {}, outputs: {}",
        coupler.input_count(),
        coupler.output_count()
    )
    .unwrap();
    for input in 0..4 {
        let outs = coupler.propagate(input);
        writeln!(
            out,
            "input {input} reaches outputs {:?} with {:.2} dB loss each (1/4 split = {:.2} dB + excess)",
            outs.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            outs[0].1,
            splitting_loss_db(4)
        )
        .unwrap();
    }
    let budget = PowerBudget::with_path_loss(splitting_loss_db(4));
    writeln!(
        out,
        "passive: no power source needed; link margin at degree 4: {:.1} dB",
        budget.margin_db()
    )
    .unwrap();
    out
}

fn fig3() -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 3 — modelling an OPS coupler by a hyperarc").unwrap();
    // The degree-4 coupler with sources 0..3 and destinations 4..7, as a
    // one-hyperarc hypergraph, flattens to the complete bipartite digraph.
    let mut h = otis_graphs::Hypergraph::new(8);
    h.add_hyperarc(otis_graphs::HyperArc::new(
        vec![0, 1, 2, 3],
        vec![4, 5, 6, 7],
    ))
    .unwrap();
    let flat = h.flatten();
    writeln!(
        out,
        "hyperarc: tail {{0,1,2,3}} -> head {{4,5,6,7}} (OPS degree {:?})",
        h.hyperarc(0).unwrap().ops_degree()
    )
    .unwrap();
    writeln!(
        out,
        "flattened arcs: {} (= 4 x 4 source-destination pairs)",
        flat.arc_count()
    )
    .unwrap();
    writeln!(
        out,
        "every source reaches every destination in one hop: {}",
        (0..4).all(|u| (4..8).all(|v| flat.has_arc(u, v)))
    )
    .unwrap();
    out
}

fn fig4() -> String {
    let mut out = String::new();
    let pops = net("POPS(4,2)");
    let stack = pops.topology().stack_graph().expect("POPS is multi-OPS");
    let (t, g) = (stack.stacking_factor(), stack.group_count());
    writeln!(
        out,
        "Fig. 4 — POPS(4,2): {} processors in {} groups of {}, {} couplers of degree {}",
        pops.node_count(),
        g,
        t,
        pops.link_count(),
        t
    )
    .unwrap();
    let h = stack.to_hypergraph();
    for i in 0..g {
        for j in 0..g {
            // Coupler (i, j) is hyperarc i·g + j, matching the paper's labels.
            let arc = h.hyperarc(i * g + j).unwrap();
            writeln!(
                out,
                "coupler ({i},{j}): inputs from processors {:?}, outputs to {:?}",
                arc.tail, arc.head
            )
            .unwrap();
        }
    }
    writeln!(out, "single-hop (diameter {:?})", pops.summary().diameter).unwrap();
    out
}

fn fig5() -> String {
    let mut out = String::new();
    let pops = net("POPS(4,2)");
    let stack = StackGraph::new(4, complete_digraph_with_loops(2)).unwrap();
    writeln!(out, "Fig. 5 — POPS(4,2) modelled as ς(4, K⁺₂)").unwrap();
    writeln!(
        out,
        "stack-graph: {} nodes, {} hyperarcs, stacking factor {}",
        stack.node_count(),
        stack.hyperarc_count(),
        stack.stacking_factor()
    )
    .unwrap();
    let same = pops
        .topology()
        .stack_graph()
        .expect("POPS is multi-OPS")
        .to_hypergraph()
        .same_hyperarcs(&stack.to_hypergraph());
    writeln!(
        out,
        "hyperarc sets of POPS(4,2) and ς(4,K⁺₂) coincide: {same}"
    )
    .unwrap();
    writeln!(out, "{}", otis_topologies::TopologySummary::table_header()).unwrap();
    writeln!(out, "{}", pops.summary().as_table_row()).unwrap();
    out
}

fn fig6() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 6 — Kautz graphs by line-digraph iteration (d = 2)"
    )
    .unwrap();
    writeln!(out, "{}", otis_topologies::TopologySummary::table_header()).unwrap();
    for k in 1..=3usize {
        writeln!(
            out,
            "{}",
            net(&format!("KG(2,{k})")).summary().as_table_row()
        )
        .unwrap();
    }
    let kg21_is_k3 = net("KG(2,1)")
        .topology()
        .one_hop_digraph()
        .same_arcs(&net("K(3)").topology().one_hop_digraph());
    writeln!(out, "KG(2,1) equals K_3: {kg21_is_k3}").unwrap();
    for k in 1..=2usize {
        let smaller = net(&format!("KG(2,{k})"));
        let larger = net(&format!("KG(2,{})", k + 1));
        let iso = are_isomorphic(
            &line_digraph(smaller.topology().digraph().expect("KG is point-to-point")),
            larger.topology().digraph().expect("KG is point-to-point"),
        );
        writeln!(out, "L(KG(2,{k})) isomorphic to KG(2,{}): {iso}", k + 1).unwrap();
    }
    out
}

fn table_kautz() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "T1 — Kautz graph properties (§2.5): N = d^(k-1)(d+1), degree d, diameter k"
    )
    .unwrap();
    writeln!(
        out,
        "{}  {:>8} {:>9} {:>11}",
        otis_topologies::TopologySummary::table_header(),
        "eulerian",
        "hamilton",
        "moore ratio"
    )
    .unwrap();
    for (d, k) in [
        (2usize, 2usize),
        (2, 3),
        (2, 4),
        (3, 2),
        (3, 3),
        (4, 2),
        (4, 3),
        (5, 2),
    ] {
        let network = net(&format!("KG({d},{k})"));
        let g = network.topology().digraph().expect("KG is point-to-point");
        let summary = network.summary();
        let eul = is_eulerian(g);
        let ham = if g.node_count() <= 100 {
            is_hamiltonian(g)
        } else {
            true
        };
        let ratio = kautz_node_count(d, k) as f64 / moore_bound(d, k) as f64;
        writeln!(
            out,
            "{}  {:>8} {:>9} {:>11.3}",
            summary.as_table_row(),
            eul,
            ham,
            ratio
        )
        .unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "paper's §2.5 example: 'KG(5,4) has N = 3750 nodes, degree 5 and diameter 4'"
    )
    .unwrap();
    writeln!(
        out,
        "formula N = d^(k-1)(d+1) gives KG(5,4) = {} nodes (3750 = 5^4·6 is KG(5,5));",
        kautz_node_count(5, 4)
    )
    .unwrap();
    writeln!(
        out,
        "we follow the formula and note the discrepancy in EXPERIMENTS.md."
    )
    .unwrap();
    out
}

fn table_ii() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "T2 — Imase–Itoh graph properties (§2.6): degree d, any n, diameter <= ceil(log_d n)"
    )
    .unwrap();
    writeln!(
        out,
        "{} {:>8}",
        otis_topologies::TopologySummary::table_header(),
        "bound"
    )
    .unwrap();
    for (d, n) in [
        (2usize, 7usize),
        (2, 12),
        (2, 20),
        (3, 12),
        (3, 17),
        (3, 30),
        (4, 30),
        (4, 64),
        (5, 100),
    ] {
        let network = net(&format!("II({d},{n})"));
        let bound = imase_itoh_diameter_bound(d, n);
        writeln!(out, "{} {:>8}", network.summary().as_table_row(), bound).unwrap();
    }
    writeln!(out).unwrap();
    for (d, k) in [(2usize, 2usize), (2, 3), (3, 2)] {
        let n = kautz_node_count(d, k);
        let iso = are_isomorphic(
            net(&format!("II({d},{n})"))
                .topology()
                .digraph()
                .expect("II is point-to-point"),
            net(&format!("KG({d},{k})"))
                .topology()
                .digraph()
                .expect("KG is point-to-point"),
        );
        writeln!(out, "II({d},{n}) isomorphic to KG({d},{k}): {iso}").unwrap();
    }
    out
}

fn fig7() -> String {
    let mut out = String::new();
    let sk = net("SK(6,3,2)");
    let stack = sk.topology().stack_graph().expect("SK is multi-OPS");
    writeln!(out, "Fig. 7 — stack-Kautz SK(6,3,2)").unwrap();
    writeln!(
        out,
        "processors: {} ({} groups of {}), node degree {}, couplers {} of degree {}, diameter {:?}",
        sk.node_count(),
        stack.group_count(),
        stack.stacking_factor(),
        stack.node_out_degree(0),
        sk.link_count(),
        stack.stacking_factor(),
        sk.summary().diameter
    )
    .unwrap();
    writeln!(out, "{}", otis_topologies::TopologySummary::table_header()).unwrap();
    for (s, d, k) in [(6usize, 3usize, 2usize), (2, 2, 2), (4, 2, 3), (3, 4, 2)] {
        writeln!(
            out,
            "{}",
            net(&format!("SK({s},{d},{k})")).summary().as_table_row()
        )
        .unwrap();
    }
    out
}

fn fig8() -> String {
    let mut out = String::new();
    let mut netlist = otis_optics::Netlist::new();
    let group = otis_core::group::add_transmitter_side_group(&mut netlist, 6, 4, "fig8");
    writeln!(
        out,
        "Fig. 8 — group of 6 processors to 4 multiplexers through OTIS(6,4)"
    )
    .unwrap();
    let inv = netlist.inventory();
    write!(out, "{inv}").unwrap();
    // Show which multiplexer each transmitter of processor 0 feeds.
    for alpha in 0..4usize {
        let tx = group.transmitters[0][alpha];
        let dest = netlist
            .destination(otis_optics::netlist::PortRef::new(tx, 0))
            .unwrap();
        let outs = netlist.component(group.otis).kind.propagate(dest.port);
        let mux_port = netlist
            .destination(otis_optics::netlist::PortRef::new(group.otis, outs[0].0))
            .unwrap();
        let mux_index = group
            .multiplexers
            .iter()
            .position(|&m| m == mux_port.component)
            .unwrap();
        writeln!(
            out,
            "processor 0, transmitter {alpha} -> multiplexer {mux_index} (input {})",
            mux_port.port
        )
        .unwrap();
    }
    out
}

fn fig9() -> String {
    let mut out = String::new();
    let mut netlist = otis_optics::Netlist::new();
    let group = otis_core::group::add_receiver_side_group(&mut netlist, 5, 3, "fig9");
    writeln!(
        out,
        "Fig. 9 — 3 beam-splitters to a group of 5 processors through OTIS(3,5)"
    )
    .unwrap();
    let inv = netlist.inventory();
    write!(out, "{inv}").unwrap();
    // Probe each splitter and report the processors it reaches.
    for i in 0..3usize {
        let probe = netlist.add(ComponentKind::Transmitter, format!("probe {i}"));
        netlist.connect(
            otis_optics::netlist::PortRef::new(probe, 0),
            otis_optics::netlist::PortRef::new(group.splitters[i], 0),
        );
        let reached = otis_optics::trace::reachable_receivers(&netlist, probe);
        let processors: Vec<usize> = (0..5)
            .filter(|&p| group.receivers[p].iter().any(|rx| reached.contains(rx)))
            .collect();
        writeln!(out, "beam-splitter {i} reaches processors {processors:?}").unwrap();
    }
    out
}

fn fig10() -> String {
    let mut out = String::new();
    let network = net("II(3,12)");
    writeln!(
        out,
        "Fig. 10 / Proposition 1 — II(3,12) realized by OTIS(3,12)"
    )
    .unwrap();
    match network.verify() {
        Ok(report) => writeln!(out, "{report}").unwrap(),
        Err(e) => writeln!(out, "VERIFICATION FAILED: {e}").unwrap(),
    }
    write!(
        out,
        "{}",
        network.design().expect("II has an OTIS design").inventory()
    )
    .unwrap();
    writeln!(out, "\nsweep of Proposition 1 over (d, n):").unwrap();
    for (d, n) in [
        (2usize, 5usize),
        (2, 12),
        (3, 7),
        (3, 12),
        (4, 9),
        (4, 30),
        (5, 26),
        (2, 40),
    ] {
        let ok = net(&format!("II({d},{n})")).verify().is_ok();
        writeln!(
            out,
            "  II({d},{n}) on OTIS({d},{n}): {}",
            if ok { "realized exactly" } else { "FAILED" }
        )
        .unwrap();
    }
    out
}

fn cor1() -> String {
    let mut out = String::new();
    writeln!(out, "Corollary 1 — Kautz graphs on OTIS(d, d^(k-1)(d+1))").unwrap();
    for (d, k) in [(2usize, 2usize), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)] {
        let kg = net(&format!("KG({d},{k})"));
        let n = kg.node_count();
        let verified = kg.verify().is_ok();
        // The OTIS design realizes II(d, n); Corollary 1 rests on that graph
        // being the Kautz graph itself.
        let iso = are_isomorphic(
            net(&format!("II({d},{n})"))
                .topology()
                .digraph()
                .expect("II is point-to-point"),
            kg.topology().digraph().expect("KG is point-to-point"),
        );
        writeln!(
            out,
            "  KG({d},{k}) = II({d},{n}): OTIS realization verified = {verified}, isomorphic to word construction = {iso}",
        )
        .unwrap();
    }
    out
}

fn fig11() -> String {
    let mut out = String::new();
    let pops = net("POPS(4,2)");
    writeln!(out, "Fig. 11 — POPS(4,2) optical design with OTIS").unwrap();
    match pops.verify() {
        Ok(report) => writeln!(out, "{report}").unwrap(),
        Err(e) => writeln!(out, "VERIFICATION FAILED: {e}").unwrap(),
    }
    write!(
        out,
        "{}",
        pops.design().expect("POPS has an OTIS design").inventory()
    )
    .unwrap();
    writeln!(out, "\nverification sweep:").unwrap();
    for (t, g) in [(2usize, 2usize), (4, 2), (3, 3), (2, 4), (6, 3)] {
        let ok = net(&format!("POPS({t},{g})")).verify().is_ok();
        writeln!(
            out,
            "  POPS({t},{g}): {}",
            if ok { "realized exactly" } else { "FAILED" }
        )
        .unwrap();
    }
    out
}

fn fig12() -> String {
    let mut out = String::new();
    let sk = net("SK(6,3,2)");
    writeln!(out, "Fig. 12 — SK(6,3,2) optical design with OTIS").unwrap();
    match sk.verify() {
        Ok(report) => writeln!(out, "{report}").unwrap(),
        Err(e) => writeln!(out, "VERIFICATION FAILED: {e}").unwrap(),
    }
    writeln!(out, "hardware inventory (paper: 12 OTIS(6,4), 12 OTIS(4,6), 48 multiplexers, 48 beam-splitters, 1 OTIS(3,12)):").unwrap();
    let inventory = sk.design().expect("SK has an OTIS design").inventory();
    write!(out, "{inventory}").unwrap();
    writeln!(
        out,
        "matches the closed-form prediction: {}",
        Some(inventory) == sk.predicted_inventory()
    )
    .unwrap();
    writeln!(out, "\nverification sweep:").unwrap();
    for (s, d, k) in [(2usize, 2usize, 2usize), (3, 2, 2), (2, 3, 2), (2, 2, 3)] {
        let ok = net(&format!("SK({s},{d},{k})")).verify().is_ok();
        writeln!(
            out,
            "  SK({s},{d},{k}): {}",
            if ok { "realized exactly" } else { "FAILED" }
        )
        .unwrap();
    }
    out
}

fn table_cost() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "T3 — hardware cost of the OTIS designs (couplers / OTIS units / lenses / transceivers)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>7} {:>9} {:>7} {:>8} {:>8} {:>8} {:>10}",
        "design", "procs", "couplers", "OTIS", "lenses", "tx", "rx", "loss dB"
    )
    .unwrap();
    let cost_specs = [
        "POPS(4,2)",
        "POPS(4,4)",
        "POPS(8,4)",
        "POPS(8,8)",
        "SK(4,3,2)",
        "SK(6,3,2)",
        "SK(8,3,2)",
        "SK(4,2,3)",
    ];
    for spec in cost_specs {
        let network = net(spec);
        let design = network.design().expect("cost table families have designs");
        let inv = design.inventory();
        writeln!(
            out,
            "{:<14} {:>7} {:>9} {:>7} {:>8} {:>8} {:>8} {:>10.2}",
            network.name(),
            network.node_count(),
            inv.multiplexer_count(),
            inv.otis_units(),
            inv.lens_count(),
            inv.transmitter_count(),
            inv.receiver_count(),
            design.worst_case_loss_db()
        )
        .unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "scaling comparison at equal group size s: POPS(s,g) needs g² couplers and each"
    )
    .unwrap();
    writeln!(
        out,
        "processor needs g transceiver pairs, while SK(s,d,k) with g = d^(k-1)(d+1) groups"
    )
    .unwrap();
    writeln!(
        out,
        "needs only g(d+1) couplers and d+1 transceiver pairs per processor:"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>8} {:>14} {:>14} {:>12} {:>12}",
        "groups g", "N (s=8)", "POPS couplers", "SK couplers", "POPS tx/proc", "SK tx/proc"
    )
    .unwrap();
    for (d, k) in [(2usize, 2usize), (2, 3), (3, 2), (3, 3), (4, 3)] {
        let g = kautz_node_count(d, k);
        writeln!(
            out,
            "{:<10} {:>8} {:>14} {:>14} {:>12} {:>12}",
            g,
            8 * g,
            g * g,
            g * (d + 1),
            g,
            d + 1
        )
        .unwrap();
    }
    writeln!(out).unwrap();
    let model = InterconnectModel::default();
    writeln!(
        out,
        "electrical vs free-space optical interconnect (ref [12] model):"
    )
    .unwrap();
    writeln!(
        out,
        "  energy crossover length: {:.1} mm (optics wins beyond it)",
        model.energy_crossover_mm()
    )
    .unwrap();
    for &len in &[1.0, 5.0, 20.0, 100.0] {
        writeln!(out, "  length {:>5.1} mm: electrical {:>7.2} pJ/bit, optical {:>5.2} pJ/bit, optics wins: {}",
            len, model.electrical_energy_pj(len), model.optical_energy_pj(len), model.optics_wins_energy(len)).unwrap();
    }
    out
}

fn table_routing() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "T4 — routing on Kautz / Imase–Itoh / stack-Kautz networks"
    )
    .unwrap();
    // Label routing length distribution on KG(3,2) and KG(2,3).
    for (d, k) in [(3usize, 2usize), (2, 3), (2, 4)] {
        let router = net(&format!("KG({d},{k})")).router();
        let n = router.node_count();
        let mut hist = vec![0usize; k + 1];
        for src in 0..n {
            for dst in 0..n {
                let len = router
                    .hop_count(src, dst)
                    .expect("KG is strongly connected");
                hist[len] += 1;
            }
        }
        writeln!(
            out,
            "  KG({d},{k}) label-routing path lengths (all {} pairs): {:?} (max = k = {k})",
            n * n,
            hist
        )
        .unwrap();
    }
    // Arithmetic routing distances on II.
    for (d, n) in [(3usize, 12usize), (3, 17), (4, 30)] {
        let router = net(&format!("II({d},{n})")).router();
        let mut max = 0usize;
        let mut total = 0usize;
        for u in 0..n {
            for v in 0..n {
                let dist = router.hop_count(u, v).expect("II is strongly connected");
                max = max.max(dist);
                total += dist;
            }
        }
        writeln!(
            out,
            "  II({d},{n}) arithmetic routing: max {} (bound {}), mean {:.3}",
            max,
            imase_itoh_diameter_bound(d, n),
            total as f64 / (n * n) as f64
        )
        .unwrap();
    }
    // Fault tolerance: <= k+2 under d-1 node faults.
    for (d, k) in [(2usize, 2usize), (3, 2)] {
        let network = net(&format!("KG({d},{k})"));
        let g = network.topology().digraph().expect("KG is point-to-point");
        let mut patterns = Vec::new();
        if d - 1 == 1 {
            patterns.extend((0..g.node_count()).map(|u| vec![u]));
        } else {
            for a in 0..g.node_count() {
                for b in (a + 1)..g.node_count() {
                    patterns.push(vec![a, b]);
                }
            }
        }
        let report = validate_kautz_fault_bound(g, d, k, &patterns);
        writeln!(out, "  KG({d},{k}) with up to {} node faults: {} cases, worst route {} hops (bound k+2 = {}), disconnected {} -> claim holds: {}",
            d - 1, report.cases, report.worst_length, report.bound, report.disconnected, report.holds()).unwrap();
    }
    out
}

fn table_sim() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "T5 — slotted simulation: stack-Kautz vs POPS vs single-OPS hot-potato de Bruijn"
    )
    .unwrap();
    writeln!(
        out,
        "(uniform traffic, OldestFirst coupler arbitration, 2000 slots per point)"
    )
    .unwrap();
    writeln!(out, "{}", ComparisonRow::table_header()).unwrap();
    // The comparison scenario is data: three size-matched specs, four loads.
    let specs: Vec<NetworkSpec> = ["SK(4,2,2)", "POPS(4,6)", "DB(2,5)"]
        .iter()
        .map(|s| s.parse().expect("experiment specs are valid"))
        .collect();
    let rows = compare_specs(&specs, &[0.05, 0.2, 0.5, 0.9], 2000, 42)
        .expect("experiment specs are valid");
    for row in &rows {
        writeln!(out, "{}", row.as_table_row()).unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "expected shape: POPS delivers ~1 hop latency but its throughput is bounded by"
    )
    .unwrap();
    writeln!(
        out,
        "g² couplers shared by N processors; the stack-Kautz takes up to k hops but its"
    )
    .unwrap();
    writeln!(
        out,
        "couplers are less contended per processor; the single-OPS hot-potato baseline"
    )
    .unwrap();
    writeln!(
        out,
        "deflects under load, inflating hop counts and latency first."
    )
    .unwrap();

    // Non-uniform workloads through the same engine: the workload axis is a
    // list of workload spec strings, so adversarial demand matrices
    // (permutation shifts, hotspots) sweep exactly like loads do.
    let workloads: Vec<DemandSpec> = ["uniform(0.2)", "perm(0.2,1)", "hotspot(0.2,0,0.3)"]
        .iter()
        .map(|w| w.parse().expect("experiment workloads are valid"))
        .collect();
    let grid = ScenarioGrid::new(specs)
        .workloads(workloads)
        .seeds(&[42])
        .slots(2000);
    writeln!(out).unwrap();
    writeln!(
        out,
        "non-uniform traffic at equal load 0.2 (static shift permutation, 30% hotspot on"
    )
    .unwrap();
    writeln!(
        out,
        "processor 0): skewed demand loads couplers unevenly, so throughput drops and"
    )
    .unwrap();
    writeln!(out, "latency climbs relative to the uniform row:").unwrap();
    // Rendered through the streaming result surface: rows reach the table
    // sink in grid order while later cells are still simulating.
    let mut table = TableSink::new(Vec::new());
    run_grid_streaming(&grid, default_thread_count(), &mut table)
        .expect("experiment specs are valid");
    out.push_str(&String::from_utf8(table.into_inner()).expect("table rows are UTF-8"));

    // Fault-injection sweep through the same engine (§2.5 at system level):
    // SK(4,2,2) has the Kautz quotient KG(2,2) — d = 2, k = 2, 6 groups —
    // so every single-group fault is within the d − 1 survivability claim
    // and delivered routes must stay within k + 2 hops.
    let (d, k, groups) = (2usize, 2usize, 6usize);
    let grid = ScenarioGrid::new(vec!["SK(4,2,2)".parse().expect("experiment spec is valid")])
        .loads(&[0.2])
        .seeds(&[42])
        .fault_sets(node_fault_patterns_up_to(groups, d - 1))
        .slots(2000);
    let rows = run_grid(&grid, default_thread_count()).expect("experiment specs are valid");
    writeln!(out).unwrap();
    writeln!(
        out,
        "fault sweep on SK(4,2,2) (quotient KG(2,2), every fault pattern of size <= d-1 = {}):",
        d - 1
    )
    .unwrap();
    writeln!(out, "{}", ScenarioRow::table_header()).unwrap();
    for row in &rows {
        writeln!(out, "{}", row.as_table_row()).unwrap();
    }
    let worst = rows.iter().map(|r| r.metrics.max_hops).max().unwrap_or(0);
    let all_delivering = rows.iter().all(|r| r.metrics.delivered > 0);
    let holds = worst as usize <= k + 2 && all_delivering;
    writeln!(
        out,
        "worst delivered route: {} hops (bound k+2 = {}), every cell delivering: {} -> {}",
        worst,
        k + 2,
        all_delivering,
        if holds { "claim holds" } else { "FAILED" }
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_runs() {
        for (id, _) in available_experiments() {
            // table-sim is comparatively slow; shrink implicitly by running it
            // like the others — all experiments are laptop-scale.
            let report = run_experiment(id);
            assert!(!report.is_empty(), "experiment {id} produced no output");
            assert!(
                !report.contains("FAILED"),
                "experiment {id} reported a failure:\n{report}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        run_experiment("fig99");
    }

    #[test]
    fn fig12_report_contains_paper_counts() {
        let report = run_experiment("fig12");
        assert!(report.contains("12 x OTIS(6,4)"));
        assert!(report.contains("12 x OTIS(4,6)"));
        assert!(report.contains("1 x OTIS(3,12)"));
        assert!(report.contains("48 x optical multiplexer"));
        assert!(report.contains("48 x beam-splitter"));
        assert!(report.contains("matches the closed-form prediction: true"));
    }

    #[test]
    fn table_kautz_contains_the_paper_example_row() {
        let report = run_experiment("table-kautz");
        assert!(report.contains("KG(5,4)"));
        assert!(report.contains("750"));
    }

    #[test]
    fn no_per_family_constructors_needed_for_new_scenarios() {
        // The acceptance shape of the facade redesign: a new comparison
        // scenario is a list of spec strings, nothing else.
        let rows = otis_net::compare_spec_strs(&["SK(2,2,2)", "SII(2,2,6)"], &[0.1], 50, 1)
            .expect("specs are valid");
        assert_eq!(rows.len(), 2);
    }
}
