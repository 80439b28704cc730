//! Demand-generator overhead: what does a stochastic arrival process or a
//! trace replay cost per slot, against the stationary `uniform` baseline?
//!
//! Every bench runs the same prepared hot-potato kernel — DB(2,8), 256
//! processors, 500 slots — so the slot loop, routing and metrics work are
//! identical across rows and the deltas isolate the injection side: a
//! stationary `uniform` pattern, Poisson, on/off bursts, the
//! elephants-and-mice mix, and replay of a synthetic in-memory trace with
//! one event per slot.

use criterion::{criterion_group, criterion_main, Criterion};
use otis_routing::FaultSet;
use otis_sim::{
    DemandSource, DemandSpec, HotPotatoSimConfig, PreparedHotPotato, SlotScratch, TraceReplay,
    TrafficPattern,
};
use otis_topologies::de_bruijn;
use std::io::Cursor;
use std::time::Duration;

fn bench_demand(c: &mut Criterion) {
    let mut group = c.benchmark_group("demand");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));

    let kernel = PreparedHotPotato::new(std::sync::Arc::new(de_bruijn(2, 8)), FaultSet::new());
    let config = HotPotatoSimConfig {
        slots: 500,
        seed: 42,
        ..Default::default()
    };
    let n = 256usize;
    let run = |source: &mut DemandSource| kernel.run(&[], source, &config, &mut SlotScratch::new());

    // The stationary baseline.
    let uniform = TrafficPattern::Uniform { load: 0.4 };
    group.bench_function("uniform", |b| {
        b.iter(|| run(&mut DemandSource::Pattern(uniform.clone())))
    });

    // Stochastic generators at a comparable mean rate.
    for (name, spec) in [
        (
            "poisson",
            DemandSpec::Poisson {
                rate: 0.5,
                dst: None,
            },
        ),
        (
            "onoff",
            DemandSpec::OnOff {
                rate: 2.0,
                burst_len: 16,
                idle_len: 48,
            },
        ),
        (
            "mix",
            DemandSpec::Mix {
                fraction: 0.1,
                elephant_rate: 2.0,
                mice_rate: 0.25,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| run(&mut spec.source().expect("no trace: building never fails")))
        });
    }

    // Trace replay from an in-memory buffer: one scripted event per slot.
    // Rendering the text once outside the loop leaves (re)parsing and the
    // replay state machine as the measured cost.
    let mut text = String::new();
    for slot in 0..config.slots {
        let src = slot as usize % n;
        let dst = (src + 1) % n;
        text.push_str(&format!("{slot} {src} {dst}\n"));
    }
    group.bench_function("trace_replay", |b| {
        b.iter(|| {
            run(&mut DemandSource::Trace(TraceReplay::new(Cursor::new(
                text.clone(),
            ))))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_demand);
criterion_main!(benches);
