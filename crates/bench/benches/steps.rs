//! Per-step cost breakdown of the four-step algorithm: where do the <4 ms
//! of §4.5 go?
//!
//! Two cases. The paper case (`step1/implementations` …
//! `step4/dataflow_check`) maps the 4-process HIPERLAN/2 receiver onto
//! the empty 3×3 paper platform. The mixed case (`step1/mixed`,
//! `step2/mixed`, `step4/mixed_warm`) runs all five entries of the mixed
//! catalog — the applications the `steady` admission workload draws — on
//! their empty 4×4 mesh, step 4 with the buffer sizing memo filled (the
//! warm path). Every step reads a per-application [`SpecIndex`] built
//! once outside the timed loop, as the mapper builds one per admission.

use criterion::{criterion_group, criterion_main, Criterion};
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_core::cost::CostModel;
use rtsm_core::feedback::Constraints;
use rtsm_core::step1::{assign_implementations, Step1Output};
use rtsm_core::step2::{improve_assignment, improve_assignment_with, Step2Config};
use rtsm_core::step3::route_channels;
use rtsm_core::step4::{check_constraints, Step4Config};
use rtsm_core::{Mapping, SpecIndex};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::PlatformState;
use std::hint::black_box;

/// Platform seed of the mixed catalog's mesh (`simulate --platform-seed 42`).
const PLATFORM_SEED: u64 = 42;

fn paper_case(c: &mut Criterion) {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let index = SpecIndex::new(&spec, &platform);
    let base = platform.initial_state();
    let constraints = Constraints::new();

    c.bench_function("step1/implementations", |b| {
        b.iter(|| {
            let out = assign_implementations(&index, &base, &constraints).unwrap();
            black_box(out.mapping.n_assigned())
        })
    });

    let step1 = assign_implementations(&index, &base, &constraints).unwrap();
    c.bench_function("step2/local_search", |b| {
        b.iter(|| {
            let mut mapping = step1.mapping.clone();
            let mut working = step1.working.clone();
            let trace = improve_assignment(
                &index,
                &constraints,
                &mut mapping,
                &mut working,
                &CostModel::HopCount,
                &Step2Config::default(),
            );
            black_box(trace.final_cost)
        })
    });

    // Prepare the improved mapping once for step 3/4 benches.
    let mut mapping = step1.mapping.clone();
    let mut working = step1.working.clone();
    improve_assignment(
        &index,
        &constraints,
        &mut mapping,
        &mut working,
        &CostModel::HopCount,
        &Step2Config::default(),
    );

    c.bench_function("step3/routing", |b| {
        b.iter(|| {
            let mut m = mapping.clone();
            let mut w = working.clone();
            route_channels(&spec, &platform, &mut m, &mut w).unwrap();
            black_box(m.routes().count())
        })
    });

    let mut routed = mapping.clone();
    let mut routed_state = working.clone();
    route_channels(&spec, &platform, &mut routed, &mut routed_state).unwrap();
    c.bench_function("step4/dataflow_check", |b| {
        b.iter(|| {
            let result = check_constraints(&index, &routed, &routed_state, &Step4Config::default());
            black_box(result.feasible)
        })
    });
}

fn mixed_case(c: &mut Criterion) {
    let resolved = rtsm_exp::resolve_catalog("mixed", PLATFORM_SEED).expect("built-in catalog");
    let platform = resolved.platform;
    let base = platform.initial_state();
    let indices: Vec<SpecIndex> = resolved
        .catalog
        .entries()
        .iter()
        .map(|e| SpecIndex::new(&e.spec, &platform))
        .collect();
    let constraints = Constraints::new();

    c.bench_function("step1/mixed", |b| {
        b.iter(|| {
            indices
                .iter()
                .filter(|index| assign_implementations(index, &base, &constraints).is_ok())
                .count()
        })
    });

    let step1: Vec<(&SpecIndex, Step1Output)> = indices
        .iter()
        .map(|index| {
            let out = assign_implementations(index, &base, &constraints)
                .expect("every mixed spec passes step 1 on the empty mesh");
            (index, out)
        })
        .collect();
    let step2 = |index: &SpecIndex, out: &Step1Output| -> (Mapping, PlatformState) {
        let mut mapping = out.mapping.clone();
        let mut working = out.working.clone();
        improve_assignment_with(
            index,
            &constraints,
            &mut mapping,
            &mut working,
            &CostModel::HopCount,
            &Step2Config::default(),
            false,
        );
        (mapping, working)
    };
    c.bench_function("step2/mixed", |b| {
        b.iter(|| {
            step1
                .iter()
                .map(|(index, out)| step2(index, out).0.n_assigned())
                .sum::<usize>()
        })
    });

    let routed: Vec<(&SpecIndex, Mapping, PlatformState)> = step1
        .iter()
        .map(|(index, out)| {
            let (mut mapping, mut working) = step2(index, out);
            route_channels(index.spec(), &platform, &mut mapping, &mut working)
                .expect("every mixed spec routes on the empty mesh");
            (*index, mapping, working)
        })
        .collect();
    let step4 = || {
        routed
            .iter()
            .filter(|(index, mapping, working)| {
                check_constraints(index, mapping, working, &Step4Config::default()).feasible
            })
            .count()
    };
    // One untimed pass fills the sizing memo: the warm path.
    black_box(step4());
    c.bench_function("step4/mixed_warm", |b| b.iter(step4));
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
    targets = paper_case, mixed_case
}
criterion_main!(benches);
