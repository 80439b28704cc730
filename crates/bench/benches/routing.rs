//! Routing cost: label routing, arithmetic routing, next-hop and distance
//! table construction, stack-graph routing (experiment T4 substrate) and
//! the multi-OPS kernel's route table with Yen alternates.

use criterion::{criterion_group, criterion_main, Criterion};
use otis_routing::{
    imase_itoh_route, kautz_route, DistanceTable, FaultSet, RoutingTable, StackRouter,
};
use otis_sim::PreparedMultiOps;
use otis_topologies::{de_bruijn, kautz, kautz_node_count, StackKautz};
use std::sync::Arc;
use std::time::Duration;

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200));

    let (d, k) = (4usize, 4usize);
    let n = kautz_node_count(d, k);
    group.bench_function("kautz_label_route_d4k4_all_from_0", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for dst in 0..n {
                total += kautz_route(d, k, 0, dst).len();
            }
            total
        })
    });

    group.bench_function("imase_itoh_route_d4_n1000_sample", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for v in (0..1000).step_by(7) {
                total += imase_itoh_route(4, 1000, 3, v).map_or(0, |path| path.len());
            }
            total
        })
    });

    let g = kautz(3, 3);
    group.bench_function("routing_table_kautz_3_3", |b| {
        b.iter(|| RoutingTable::new(&g))
    });

    // The hot-potato kernel's table at the largest `large_n` size: 2 048
    // nodes, 4 MiB of one-byte distances.
    let db = de_bruijn(2, 11);
    group.bench_function("distance_table_db_2_11", |b| {
        b.iter(|| DistanceTable::new(&db))
    });

    let sk = StackKautz::new(4, 3, 2);
    let router = StackRouter::new(sk.stack_graph().clone());
    group.bench_function("stack_route_sk_4_3_2_all_pairs", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for src in 0..sk.node_count() {
                for dst in 0..sk.node_count() {
                    hops += router.route(src, dst).map(|r| r.len()).unwrap_or(0);
                }
            }
            hops
        })
    });

    // The multi-OPS kernel `resilience` builds four times: SK(8,3,3)'s
    // 1 296 group pairs, each with Yen's 3 shortest paths on the quotient.
    let sk = Arc::new(StackKautz::new(8, 3, 3).stack_graph().clone());
    group.bench_function("prepare_sk_8_3_3_alt_paths_3", |b| {
        b.iter(|| PreparedMultiOps::new(Arc::clone(&sk), FaultSet::new(), 3))
    });
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
