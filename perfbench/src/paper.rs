//! The `paper` workload: every experiment of `reproduce all`, checked
//! against the text recorded under `perfbench/expected/paper`.

use crate::check::expected_dir;
use otis_net::{FaultSet, Network, ScenarioGrid};
use std::io;

/// The experiment ids in the order the workload runs them: `table-sim`
/// first, so the first report is the one that drives the grid engine and
/// `first_row_s` spans more than a few microseconds, then the rest in
/// `reproduce all` order.  Each experiment is independent, so the order
/// changes no report.
pub fn experiment_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = otis_bench::available_experiments()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    ids.sort_by_key(|&id| id != "table-sim");
    ids
}

/// The recorded report of experiment `id`.
pub fn expected_text(id: &str) -> io::Result<String> {
    std::fs::read_to_string(expected_dir().join("paper").join(format!("{id}.txt")))
}

/// The grids behind `table-sim`: the T5 trio under its six workloads, and
/// the single-group fault sweep of SK(4,2,2).  Their kernel cache is what
/// `setup_s` times on this workload.
pub fn setup_grids() -> Vec<ScenarioGrid> {
    let t5 = ["SK(4,2,2)", "POPS(4,6)", "DB(2,5)"]
        .iter()
        .map(|s| s.parse().expect("T5 specs are valid"))
        .collect();
    let workloads = [
        "uniform(0.05)",
        "uniform(0.2)",
        "uniform(0.5)",
        "uniform(0.9)",
        "perm(0.2,1)",
        "hotspot(0.2,0,0.3)",
    ]
    .iter()
    .map(|w| w.parse().expect("T5 workloads are valid"))
    .collect();
    let sweep = std::iter::once(FaultSet::new())
        .chain((0..6).map(|g| FaultSet::from_nodes([g])))
        .collect();
    vec![
        ScenarioGrid::new(t5).workloads(workloads).slots(2000),
        ScenarioGrid::new(vec!["SK(4,2,2)".parse().expect("T5 spec is valid")])
            .loads(&[0.2])
            .fault_sets(sweep)
            .slots(2000),
    ]
}

/// The `(d, k)` of the Kautz graphs of Corollary 1, as `cor1` lists them.
const COR1: [(usize, usize); 6] = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)];

fn network(spec: &str) -> Network {
    Network::from_spec(spec).expect("cor1 specs are valid")
}

/// The Kautz graphs `cor1` verifies.
pub fn cor1_networks() -> Vec<Network> {
    COR1.iter()
        .map(|(d, k)| network(&format!("KG({d},{k})")))
        .collect()
}

/// The pairs `cor1` tests for isomorphism: each Kautz graph of at most 40
/// nodes against the Imase–Itoh graph of the same order.
pub fn cor1_pairs() -> Vec<(Network, Network)> {
    COR1.iter()
        .filter_map(|(d, k)| {
            let kg = network(&format!("KG({d},{k})"));
            let n = kg.node_count();
            (n <= 40).then(|| (network(&format!("II({d},{n})")), kg))
        })
        .collect()
}
