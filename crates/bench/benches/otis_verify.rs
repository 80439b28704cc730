//! Construction + exact verification of the OTIS designs
//! (Proposition 1 / Corollary 1 / Figs. 11-12, experiments F10-F12).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use otis_core::verify::verify_multi_ops;
use otis_core::{ImaseItohDesign, StackImaseItohDesign};
use otis_topologies::Pops;
use std::time::Duration;

fn bench_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("otis_designs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));

    for &(d, n) in &[(3usize, 12usize), (4, 100), (5, 300)] {
        group.bench_with_input(
            BenchmarkId::new("imase_itoh_design_verify", format!("d{d}n{n}")),
            &(d, n),
            |b, &(d, n)| {
                b.iter(|| {
                    let design = ImaseItohDesign::new(d, n);
                    design.verify().expect("Proposition 1 holds")
                })
            },
        );
    }

    for &(t, g) in &[(4usize, 2usize), (8, 4)] {
        group.bench_with_input(
            BenchmarkId::new("pops_design_verify", format!("t{t}g{g}")),
            &(t, g),
            |b, &(t, g)| {
                b.iter(|| {
                    // POPS(t, g) is SII(t, g, g), traced against ς(t, K⁺_g).
                    let design = StackImaseItohDesign::new(t, g, g);
                    verify_multi_ops(design.design(), Pops::new(t, g).stack_graph())
                        .expect("POPS design verifies")
                })
            },
        );
    }

    group.bench_function("stack_kautz_design_verify_6_3_2", |b| {
        b.iter(|| {
            // SK(6,3,2) is SII(6,3,12): KG(3,2) has 12 nodes.
            let design = StackImaseItohDesign::new(6, 3, 12);
            design.verify().expect("SK(6,3,2) design verifies")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_designs);
criterion_main!(benches);
