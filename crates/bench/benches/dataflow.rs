//! Dataflow-substrate benches: self-timed simulation, buffer sizing, and
//! MCR cross-validation speed on Figure-3-sized graphs.

use criterion::{criterion_group, criterion_main, Criterion};
use rtsm_dataflow::mcr::maximum_cycle_ratio;
use rtsm_dataflow::{
    check_source_period, clear_sizing_cache, hsdf, size_buffers, BufferSizingConfig, CsdfGraph,
    PhaseVec, SimConfig, Simulation,
};
use std::hint::black_box;

/// A Figure-3-like pipeline: source → 2 routers → worker → 3 routers →
/// sink, 64 tokens/period.
fn figure3_like() -> (
    CsdfGraph,
    rtsm_dataflow::ActorId,
    Vec<rtsm_dataflow::ChannelId>,
) {
    let mut g = CsdfGraph::new();
    let src = g.add_actor("src", PhaseVec::uniform(50_000, 64), 1);
    let r1 = g.add_actor("r1", PhaseVec::single(4), 5_000);
    let r2 = g.add_actor("r2", PhaseVec::single(4), 5_000);
    let worker = g.add_actor(
        "worker",
        PhaseVec::uniform(1, 64).concat(&PhaseVec::single(170)),
        5_000,
    );
    let r3 = g.add_actor("r3", PhaseVec::single(4), 5_000);
    let snk = g.add_actor("snk", PhaseVec::single(1), 5_000);
    let one = PhaseVec::single(1);
    g.add_channel_full(src, r1, PhaseVec::uniform(1, 64), one.clone(), 0, Some(8))
        .unwrap();
    g.add_channel_full(r1, r2, one.clone(), one.clone(), 0, Some(4))
        .unwrap();
    let b1 = g
        .add_channel(
            r2,
            worker,
            one.clone(),
            PhaseVec::uniform(1, 64).concat(&PhaseVec::single(0)),
        )
        .unwrap();
    let b2 = g
        .add_channel_full(
            worker,
            r3,
            PhaseVec::uniform(0, 64).concat(&PhaseVec::single(64)),
            one.clone(),
            0,
            Some(128),
        )
        .unwrap();
    let _ = b2;
    let b3 = g
        .add_channel(r3, snk, one.clone(), PhaseVec::single(64))
        .unwrap();
    (g, src, vec![b1, b3])
}

fn simulation(c: &mut Criterion) {
    let (g, src, _) = figure3_like();
    c.bench_function("dataflow/steady_state_simulation", |b| {
        b.iter(|| {
            let sim = Simulation::new(
                &g,
                SimConfig {
                    reference: Some(src),
                    ..SimConfig::default()
                },
            );
            black_box(sim.run().unwrap().steady)
        })
    });
}

/// Cold sizing (the cross-call cache emptied inside every timed call, so
/// each one runs the full probe search) and warm sizing (a cache hit).
fn sizing(c: &mut Criterion) {
    let (g, src, targets) = figure3_like();
    let config = BufferSizingConfig {
        source: src,
        period: 3_200_000,
        channels: targets,
        max_sweeps: 3,
    };
    c.bench_function("dataflow/buffer_sizing", |b| {
        b.iter(|| {
            clear_sizing_cache();
            black_box(size_buffers(&g, &config).unwrap().total)
        })
    });
    size_buffers(&g, &config).unwrap();
    c.bench_function("dataflow/buffer_sizing_warm", |b| {
        b.iter(|| black_box(size_buffers(&g, &config).unwrap().total))
    });
}

fn period_check(c: &mut Criterion) {
    let (mut g, src, targets) = figure3_like();
    let sizing = size_buffers(
        &g,
        &BufferSizingConfig {
            source: src,
            period: 3_200_000,
            channels: targets,
            max_sweeps: 3,
        },
    )
    .unwrap();
    rtsm_dataflow::apply_sizing(&mut g, &sizing);
    c.bench_function("dataflow/period_check", |b| {
        b.iter(|| black_box(check_source_period(&g, src, 3_200_000).unwrap().0))
    });
}

fn mcr(c: &mut Criterion) {
    // Small cyclic CSDF for MCR (HSDF expansion grows with rates).
    let mut g = CsdfGraph::new();
    let a = g.add_actor("a", PhaseVec::from_slice(&[3, 5]), 1);
    let b = g.add_actor("b", PhaseVec::from_slice(&[2, 2, 2]), 1);
    g.add_channel(a, b, PhaseVec::from_slice(&[1, 2]), PhaseVec::uniform(1, 3))
        .unwrap();
    g.add_channel_full(
        b,
        a,
        PhaseVec::uniform(1, 3),
        PhaseVec::from_slice(&[1, 2]),
        3,
        None,
    )
    .unwrap();
    c.bench_function("dataflow/mcr_exact", |bch| {
        bch.iter(|| {
            let h = hsdf::expand(&g).unwrap();
            black_box(maximum_cycle_ratio(&h).unwrap())
        })
    });
}

/// Short, stable measurement settings so the whole suite completes in
/// minutes while keeping variance low enough for shape comparisons.
fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = simulation, sizing, period_check, mcr
}
criterion_main!(benches);
