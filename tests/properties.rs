//! Property-style tests on the core invariants of the workspace: OTIS
//! permutation laws, topology closed forms, stack-graph projection laws,
//! routing bounds and design verification.
//!
//! The build environment is offline, so instead of `proptest` these sweep
//! deterministic parameter grids (every small instance) plus pseudo-random
//! node pairs drawn from a seeded generator — the same coverage, repeatable
//! by construction.

use otis_lightwave::designs::stack_kautz_design::expected_inventory;
use otis_lightwave::designs::verify::verify_multi_ops;
use otis_lightwave::designs::{ImaseItohDesign, StackImaseItohDesign};
use otis_lightwave::graphs::algorithms::{diameter, is_strongly_connected, is_valid_path};
use otis_lightwave::graphs::{line_digraph, StackGraph};
use otis_lightwave::optics::Otis;
use otis_lightwave::routing::{imase_itoh_route, kautz_route, RoutingTable};
use otis_lightwave::topologies::{
    de_bruijn, imase_itoh, kautz, kautz_node_count, moore_bound, KautzWord, Pops, StackKautz,
};

/// A tiny deterministic generator for sampling node pairs (SplitMix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The OTIS map is a bijection and composing with the transposed system
/// restores every position, for every (G, T) in 1..12 × 1..12.
#[test]
fn otis_is_a_bijective_transpose() {
    for g in 1usize..12 {
        for t in 1usize..12 {
            let otis = Otis::new(g, t);
            let perm = otis.permutation();
            let mut seen = vec![false; perm.len()];
            for &rx in &perm {
                assert!(!seen[rx], "OTIS({g},{t}) repeats receiver {rx}");
                seen[rx] = true;
            }
            let back = otis.transposed();
            for i in 0..g {
                for j in 0..t {
                    let (p, q) = otis.map_pair(i, j);
                    assert_eq!(back.map_pair(p, q), (i, j), "OTIS({g},{t}) at ({i},{j})");
                }
            }
        }
    }
}

/// Kautz words round-trip through their integer index.
#[test]
fn kautz_word_index_roundtrip() {
    let mut mix = Mix(1);
    for d in 1usize..5 {
        for k in 1usize..5 {
            let n = kautz_node_count(d, k);
            for _ in 0..12 {
                let idx = mix.below(n);
                let w = KautzWord::from_index(d, k, idx).unwrap();
                assert_eq!(w.index(), idx);
                assert_eq!(w.len(), k);
                assert!(w.letters().windows(2).all(|p| p[0] != p[1]));
            }
        }
    }
}

/// KG(d,k) is d-regular with d^(k-1)(d+1) nodes, never exceeds the Moore
/// bound, and its line digraph is (node/arc-count) consistent with KG(d,k+1).
#[test]
fn kautz_closed_forms() {
    for d in 2usize..4 {
        for k in 1usize..4 {
            let g = kautz(d, k);
            assert_eq!(g.node_count(), kautz_node_count(d, k));
            assert!(g.is_d_regular(d));
            assert!(g.node_count() <= moore_bound(d, k));
            let l = line_digraph(&g);
            assert_eq!(l.node_count(), kautz_node_count(d, k + 1));
            assert_eq!(l.arc_count(), kautz_node_count(d, k + 1) * d);
        }
    }
}

/// II(d,n) is d-in/d-out regular and strongly connected for d >= 2.
#[test]
fn imase_itoh_regular_and_connected() {
    for d in 2usize..5 {
        for n in (4usize..60).step_by(3) {
            let g = imase_itoh(d, n);
            for u in 0..n {
                assert_eq!(g.out_degree(u), d, "II({d},{n}) node {u}");
                assert_eq!(g.in_degree(u), d, "II({d},{n}) node {u}");
            }
            assert!(is_strongly_connected(&g), "II({d},{n})");
        }
    }
}

/// Stack-graph bookkeeping: node counts, fibre membership, projection.
#[test]
fn stack_graph_projection_laws() {
    for s in 1usize..6 {
        for d in 2usize..4 {
            for k in 1usize..3 {
                let quotient = kautz(d, k).with_loops();
                let quotient_nodes = quotient.node_count();
                let sg = StackGraph::new(s, quotient).unwrap();
                assert_eq!(sg.node_count(), s * quotient_nodes);
                for node in 0..sg.node_count() {
                    let sn = sg.to_stack_node(node);
                    assert_eq!(sg.to_flat(sn), node);
                    assert!(sg.fiber(sn.group).contains(&node));
                    assert_eq!(sg.project(node), sn.group);
                }
            }
        }
    }
}

/// Kautz label routing: always a valid path of at most k arcs.
#[test]
fn kautz_label_routing_bound() {
    let mut mix = Mix(2);
    for d in 2usize..4 {
        for k in 1usize..4 {
            let g = kautz(d, k);
            let n = g.node_count();
            for _ in 0..16 {
                let src = mix.below(n);
                let dst = mix.below(n);
                let path = kautz_route(d, k, src, dst);
                assert!(is_valid_path(&g, &path), "KG({d},{k}) {src}->{dst}");
                assert!(path.len() - 1 <= k, "KG({d},{k}) {src}->{dst}");
            }
        }
    }
}

/// Imase-Itoh arithmetic routing equals the BFS distance.
#[test]
fn imase_itoh_routing_is_shortest() {
    let mut mix = Mix(3);
    for d in 2usize..4 {
        for n in (4usize..40).step_by(5) {
            let g = imase_itoh(d, n);
            let table = RoutingTable::new(&g);
            for _ in 0..16 {
                let src = mix.below(n);
                let dst = mix.below(n);
                let path = imase_itoh_route(d, n, src, dst)
                    .unwrap_or_else(|| panic!("II({d},{n}) is strongly connected: {src}->{dst}"));
                assert!(is_valid_path(&g, &path), "II({d},{n}) {src}->{dst}");
                assert_eq!(
                    (path.len() - 1) as u32,
                    table.distance(src, dst).unwrap(),
                    "II({d},{n}) {src}->{dst}"
                );
            }
        }
    }
}

/// de Bruijn and Kautz diameters match their closed forms.
#[test]
fn diameters_match_closed_forms() {
    for d in 2usize..4 {
        for k in 1usize..4 {
            assert_eq!(diameter(&kautz(d, k)), Some(k as u32));
            assert_eq!(diameter(&de_bruijn(d, k)), Some(k as u32));
        }
    }
}

/// POPS is always single-hop and its stack-graph model has g² hyperarcs.
#[test]
fn pops_is_single_hop() {
    for t in 1usize..6 {
        for g in 2usize..6 {
            let pops = Pops::new(t, g);
            assert_eq!(pops.diameter(), Some(1), "POPS({t},{g})");
            assert_eq!(pops.coupler_count(), g * g);
            assert_eq!(pops.hypergraph().hyperarc_count(), g * g);
        }
    }
}

/// The stack-Kautz inherits the Kautz diameter.
#[test]
fn stack_kautz_inherits_diameter() {
    for s in 1usize..4 {
        for d in 2usize..4 {
            for k in 1usize..3 {
                let sk = StackKautz::new(s, d, k);
                assert_eq!(sk.diameter(), Some(k as u32), "SK({s},{d},{k})");
                assert_eq!(sk.coupler_count(), sk.group_count() * (d + 1));
            }
        }
    }
}

/// Proposition 1 holds for arbitrary (d, n): the OTIS(d, n) design realizes
/// II(d, n) exactly.  (Design construction is the slow part, so the grid is
/// coarser.)
#[test]
fn proposition_1_across_parameters() {
    for d in 1usize..5 {
        for n in [2usize, 3, 7, 12, 23, 39] {
            assert!(ImaseItohDesign::new(d, n).verify().is_ok(), "II({d},{n})");
        }
    }
}

/// The POPS OTIS design, SII(t, g, g), realizes ς(t, K⁺_g) for small (t, g).
#[test]
fn pops_design_across_parameters() {
    for t in 1usize..6 {
        for g in 2usize..5 {
            let design = StackImaseItohDesign::new(t, g, g);
            let pops = Pops::new(t, g);
            assert!(
                verify_multi_ops(design.design(), pops.stack_graph()).is_ok(),
                "POPS({t},{g})"
            );
        }
    }
}

/// The stack-Kautz OTIS design realizes its stack-graph and matches the
/// closed-form hardware inventory for small (s, d, k).
#[test]
fn stack_kautz_design_across_parameters() {
    for s in 1usize..4 {
        for d in 2usize..4 {
            for k in 1usize..3 {
                let design = StackImaseItohDesign::new(s, d, kautz_node_count(d, k));
                assert!(design.verify().is_ok(), "SK({s},{d},{k})");
                assert_eq!(
                    design.inventory(),
                    expected_inventory(s, d, k),
                    "SK({s},{d},{k})"
                );
            }
        }
    }
}
