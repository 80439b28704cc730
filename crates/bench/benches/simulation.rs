//! Slotted-simulation throughput (experiment T5 substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use otis_routing::FaultSet;
use otis_sim::{
    DemandSource, FaultSchedule, PreparedHotPotato, PreparedMultiOps, SimMetrics, SimOptions,
    SlotScratch, TrafficPattern,
};
use otis_topologies::{de_bruijn, Pops, StackKautz};
use std::sync::Arc;
use std::time::Duration;

/// One static multi-OPS run on a fresh scratch pool.
fn run_ops(
    kernel: &PreparedMultiOps,
    timeline: &[(u64, PreparedMultiOps)],
    traffic: &TrafficPattern,
    config: &SimOptions,
) -> SimMetrics {
    let mut demand = DemandSource::Pattern(traffic.clone());
    kernel.run(timeline, &mut demand, config, &mut SlotScratch::new())
}

/// One static hot-potato run on a fresh scratch pool.
fn run_hot(
    kernel: &PreparedHotPotato,
    timeline: &[(u64, PreparedHotPotato)],
    traffic: &TrafficPattern,
    config: &SimOptions,
) -> SimMetrics {
    let mut demand = DemandSource::Pattern(traffic.clone());
    kernel.run(timeline, &mut demand, config, &mut SlotScratch::new())
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let traffic = TrafficPattern::Uniform { load: 0.5 };
    let multi_config = SimOptions {
        slots: 500,
        ..Default::default()
    };

    // Each iteration prepares the kernel and runs it once.
    for &(s, d, k) in &[(4usize, 2usize, 2usize), (6, 3, 2)] {
        let sk = StackKautz::new(s, d, k);
        group.bench_with_input(
            BenchmarkId::new("stack_kautz_500_slots", format!("s{s}d{d}k{k}")),
            &sk,
            |b, sk| {
                b.iter(|| {
                    let kernel = PreparedMultiOps::new(
                        Arc::new(sk.stack_graph().clone()),
                        FaultSet::new(),
                        1,
                    );
                    run_ops(&kernel, &[], &traffic, &multi_config)
                })
            },
        );
    }

    let pops = Pops::new(8, 8);
    group.bench_function("pops_8x8_500_slots", |b| {
        b.iter(|| {
            let kernel =
                PreparedMultiOps::new(Arc::new(pops.stack_graph().clone()), FaultSet::new(), 1);
            run_ops(&kernel, &[], &traffic, &multi_config)
        })
    });

    let db = de_bruijn(2, 6);
    group.bench_function("hot_potato_de_bruijn_2_6_500_slots", |b| {
        b.iter(|| {
            let kernel = PreparedHotPotato::new(Arc::new(db.clone()), FaultSet::new());
            run_hot(
                &kernel,
                &[],
                &traffic,
                &SimOptions {
                    slots: 500,
                    ..Default::default()
                },
            )
        })
    });

    // The slot loop on a table too large for L2 (DB(2,11): 8 MiB, so the
    // loop prefetches table lines), as in the `large_n` workload.  Each
    // kernel is prepared once, outside the timed loop.
    let large = TrafficPattern::Uniform { load: 0.3 };
    let db_11 = Arc::new(de_bruijn(2, 11));
    let large_config = SimOptions {
        slots: 64,
        ..Default::default()
    };
    let large_static = PreparedHotPotato::new(db_11.clone(), FaultSet::new());
    group.bench_function("hot_potato_db_2_11_64_slots_static", |b| {
        b.iter(|| run_hot(&large_static, &[], &large, &large_config))
    });
    let large_faulted = PreparedHotPotato::new(db_11, FaultSet::from_nodes([0]));
    group.bench_function("hot_potato_db_2_11_64_slots_faulted", |b| {
        b.iter(|| run_hot(&large_faulted, &[], &large, &large_config))
    });
    group.finish();
}

fn bench_fault_timeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_timeline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let traffic = TrafficPattern::Uniform { load: 0.5 };
    let schedule: FaultSchedule = "fail(node 3)@150; recover@350".parse().unwrap();

    // The cost of preparing a whole timeline's epoch kernels — the work
    // the engine caches per (spec, fault set, schedule) triple.
    let sk = StackKautz::new(6, 3, 2);
    let sk_intact = PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new(), 1);
    group.bench_function("timeline_sk_6_3_2", |b| {
        b.iter(|| sk_intact.timeline(&schedule).unwrap())
    });

    // The run-time cost of the kernel swaps themselves, against the plain
    // run of the same kernel: the delta is what a two-event schedule adds
    // to a 500-slot multi-OPS run.
    let sk_timeline = sk_intact.timeline(&schedule).unwrap();
    let multi_config = SimOptions {
        slots: 500,
        ..Default::default()
    };
    group.bench_function("multi_ops_sk_6_3_2_500_slots_static", |b| {
        b.iter(|| run_ops(&sk_intact, &[], &traffic, &multi_config))
    });
    group.bench_function("multi_ops_sk_6_3_2_500_slots_two_swaps", |b| {
        b.iter(|| run_ops(&sk_intact, &sk_timeline, &traffic, &multi_config))
    });

    // Same comparison for the point-to-point deflection simulator.
    let db_intact = PreparedHotPotato::new(Arc::new(de_bruijn(2, 8)), FaultSet::new());
    let db_timeline = db_intact.timeline(&schedule).unwrap();
    let hot_config = SimOptions {
        slots: 500,
        ..Default::default()
    };
    group.bench_function("hot_potato_db_2_8_500_slots_static", |b| {
        b.iter(|| run_hot(&db_intact, &[], &traffic, &hot_config))
    });
    group.bench_function("hot_potato_db_2_8_500_slots_two_swaps", |b| {
        b.iter(|| run_hot(&db_intact, &db_timeline, &traffic, &hot_config))
    });
    group.finish();
}

criterion_group!(benches, bench_simulation, bench_fault_timeline);
criterion_main!(benches);
