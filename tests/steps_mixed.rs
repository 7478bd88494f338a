//! Steps 1 and 2 beyond the paper case: the mixed catalog on its 4×4
//! mesh against an empty ledger and seeded partial occupancies, and the
//! per-admission [`SpecIndex`] both steps read, checked fact by fact
//! against the functions that define each fact.
//!
//! * Step 1 equals a reference written straight from §3.1, which derives
//!   every claim on the spot and sorts all viable options.
//! * Step 2 with trace capture off makes the decisions of capture on,
//!   under both search disciplines and all three cost models; in debug
//!   builds every candidate's incremental cost delta is also checked
//!   against a full recompute inside the search.
//! * The mapper's outcome does not depend on trace capture.

mod common;

use common::{occupancy, CATALOGS, PLATFORM_SEED};
use rtsm::app::{ApplicationSpec, Endpoint, ImplementationLibrary, ProcessId};
use rtsm::core::claims::{claim_for, reservation_of};
use rtsm::core::cost::CostModel;
use rtsm::core::feedback::{Constraints, Feedback};
use rtsm::core::step1::assign_implementations;
use rtsm::core::step2::{improve_assignment, improve_assignment_with, Step2Config, Step2Strategy};
use rtsm::core::trace::Step1Event;
use rtsm::core::{MapperConfig, Mapping, SpatialMapper, SpecIndex};
use rtsm::platform::{EnergyModel, Platform, PlatformState, TileId};

/// Occupancy seeds of the mixed-catalog cases (plus the empty ledger).
const OCCUPANCY_SEEDS: [u64; 6] = [1, 2, 3, 7919, 2008, 42];

/// The mixed catalog's mesh, its specs, and the ledgers they are mapped
/// against: empty first, then the seeded partial occupancies.
fn mixed() -> (Platform, Vec<ApplicationSpec>, Vec<PlatformState>) {
    let resolved = rtsm::exp::resolve_catalog("mixed", PLATFORM_SEED).unwrap();
    let platform = resolved.platform;
    let specs = resolved
        .catalog
        .entries()
        .iter()
        .map(|e| (*e.spec).clone())
        .collect();
    let mut bases = vec![platform.initial_state()];
    bases.extend(OCCUPANCY_SEEDS.iter().map(|&s| occupancy(&platform, s)));
    (platform, specs, bases)
}

#[test]
fn index_facts_equal_their_definitions_for_all_catalog_specs() {
    let mut checked = 0;
    for catalog in CATALOGS {
        let resolved = rtsm::exp::resolve_catalog(catalog, PLATFORM_SEED).unwrap();
        let platform = &resolved.platform;
        for entry in resolved.catalog.entries() {
            let spec = &entry.spec;
            let index = SpecIndex::new(spec, platform);
            for (p, _) in spec.graph.processes() {
                for (ix, implementation) in spec.library.impls_for(p).iter().enumerate() {
                    let claim = claim_for(spec, p, implementation);
                    assert_eq!(*index.claim(p, ix), claim, "{}: {p:?}/{ix}", entry.name);
                    assert_eq!(*index.reservation(p, ix), reservation_of(&claim));
                    assert_eq!(
                        index.cycles_per_period(p, ix),
                        spec.cycles_per_period(p, implementation)
                    );
                    checked += 1;
                }
            }
            for (id, ch) in spec.graph.stream_channels() {
                let port = |ports: Vec<_>| ports.iter().position(|c| *c == id);
                let src_port = match ch.src {
                    Endpoint::Process(p) => port(spec.graph.outputs_of(p).collect()),
                    _ => None,
                };
                let dst_port = match ch.dst {
                    Endpoint::Process(p) => port(spec.graph.inputs_of(p).collect()),
                    _ => None,
                };
                assert_eq!(index.src_port(id), src_port, "{}: {id:?}", entry.name);
                assert_eq!(index.dst_port(id), dst_port, "{}: {id:?}", entry.name);
            }
            let order = spec.graph.topological_order().unwrap();
            assert_eq!(index.order(), order.as_slice());
            for (i, p) in order.iter().enumerate() {
                assert_eq!(index.topo_position(*p), i);
            }
            let empty = Mapping::new();
            for endpoint in [Endpoint::StreamInput, Endpoint::StreamOutput] {
                assert_eq!(
                    index.endpoint_tile(&empty, endpoint),
                    empty.endpoint_tile(platform, endpoint)
                );
            }
        }
    }
    assert!(checked > 18, "every spec has at least one implementation");
}

/// Step 1's result: the greedy mapping, its ledger and decision log, or
/// the process that dead-ended with its feedback.
type Step1Result = Result<(Mapping, PlatformState, Vec<Step1Event>), (ProcessId, Vec<Feedback>)>;

/// Step 1 as §3.1 words it, with nothing precomputed: every option's
/// claim is derived when it is needed, the static pre-filter is re-run for
/// every option, and all viable options are sorted by cost.
fn reference_step1(
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    constraints: &Constraints,
) -> Step1Result {
    let first_fit = |state: &PlatformState, process: ProcessId, ix: usize| -> Option<TileId> {
        let implementation = &spec.library.impls_for(process)[ix];
        let claim = claim_for(spec, process, implementation);
        platform
            .tiles_of_kind(implementation.tile_kind)
            .map(|(t, _)| t)
            .find(|t| {
                !constraints.is_tile_forbidden(process, *t) && state.fits_tile(platform, *t, &claim)
            })
    };
    let statically_viable = |process: ProcessId, ix: usize| {
        !constraints.is_impl_excluded(process, ix) && first_fit(base, process, ix).is_some()
    };
    let order = spec.graph.topological_order().unwrap();
    let mut mapping = Mapping::new();
    let mut working = base.clone();
    let mut events: Vec<Step1Event> = Vec::new();
    let mut unassigned = order.clone();
    while !unassigned.is_empty() {
        let mut best: Option<(u64, usize, ProcessId, usize)> = None;
        for &process in &unassigned {
            let impls = spec.library.impls_for(process);
            let mut options: Vec<(u64, usize)> = (0..impls.len())
                .filter(|&ix| statically_viable(process, ix))
                .filter(|&ix| first_fit(&working, process, ix).is_some())
                .map(|ix| (impls[ix].energy_pj_per_period, ix))
                .collect();
            if options.is_empty() {
                let mut feedback = vec![Feedback::Infeasible {
                    detail: format!(
                        "process `{}` has no viable implementation left in step 1",
                        spec.graph.process(process).name
                    ),
                }];
                if let Some(last) = events.last() {
                    feedback.push(Feedback::ForbidTile {
                        process: last.process,
                        tile: last.tile,
                    });
                }
                return Err((process, feedback));
            }
            options.sort_unstable();
            let desirability = match options.get(1) {
                None => u64::MAX,
                Some(second) => second.0 - options[0].0,
            };
            let topo = order.iter().position(|p| *p == process).unwrap();
            if best.is_none_or(|(d, t, _, _)| desirability > d || (desirability == d && topo < t)) {
                best = Some((desirability, topo, process, options[0].1));
            }
        }
        let (desirability, _, process, impl_index) = best.unwrap();
        let tile = first_fit(&working, process, impl_index).unwrap();
        let implementation = &spec.library.impls_for(process)[impl_index];
        working
            .claim_tile(
                platform,
                tile,
                &reservation_of(&claim_for(spec, process, implementation)),
            )
            .unwrap();
        mapping.assign(process, impl_index, tile);
        events.push(Step1Event {
            process,
            impl_index,
            tile,
            desirability,
            options: (0..spec.library.impls_for(process).len())
                .filter(|&ix| statically_viable(process, ix))
                .count(),
        });
        unassigned.retain(|&p| p != process);
    }
    Ok((mapping, working, events))
}

/// `spec` with each process's implementations re-registered in the order
/// `permute(n)` gives for `n` implementations.
fn permuted(spec: &ApplicationSpec, permute: fn(usize) -> Vec<usize>) -> ApplicationSpec {
    let mut library = ImplementationLibrary::new();
    for (p, _) in spec.graph.processes() {
        let impls = spec.library.impls_for(p);
        for ix in permute(impls.len()) {
            library.register(p, impls[ix].clone());
        }
    }
    ApplicationSpec {
        library,
        ..spec.clone()
    }
}

#[test]
fn step1_equals_the_reference_on_the_mixed_catalog() {
    let (platform, specs, bases) = mixed();
    // The catalog lists options cheapest first; the permutations make
    // step 1 meet them in other cost orders too (FFT-256 has three).
    let orders: [fn(usize) -> Vec<usize>; 3] = [
        |n| (0..n).collect(),
        |n| (0..n).rev().collect(),
        |n| (0..n.min(1)).chain((1..n).rev()).collect(),
    ];
    let specs: Vec<ApplicationSpec> = specs
        .iter()
        .flat_map(|spec| orders.map(|order| permuted(spec, order)))
        .collect();
    let (mut ok, mut dead_ends) = (0, 0);
    for spec in &specs {
        let index = SpecIndex::new(spec, &platform);
        let first = index.order()[0];
        let first_tile = platform
            .tiles()
            .map(|(t, _)| t)
            .find(|t| {
                let kind = platform.tile(*t).kind;
                spec.library.impls_for(first)[0].tile_kind == kind
            })
            .unwrap();
        // No constraints, a forbidden tile, and an excluded implementation.
        let mut forbidding = Constraints::new();
        forbidding.absorb(&Feedback::ForbidTile {
            process: first,
            tile: first_tile,
        });
        let mut excluding = Constraints::new();
        excluding.absorb(&Feedback::ExcludeImplementation {
            process: first,
            impl_index: 0,
        });
        for base in &bases {
            for constraints in [&Constraints::new(), &forbidding, &excluding] {
                let actual = assign_implementations(&index, base, constraints)
                    .map(|out| (out.mapping, out.working, out.events))
                    .map_err(|failure| (failure.process, failure.feedback));
                let expected = reference_step1(spec, &platform, base, constraints);
                assert_eq!(actual, expected, "step 1 differs from the reference");
                match actual {
                    Ok(_) => ok += 1,
                    Err(_) => dead_ends += 1,
                }
            }
        }
    }
    assert!(
        ok > 0 && dead_ends > 0,
        "{ok} mappings, {dead_ends} dead ends"
    );
}

#[test]
fn step2_capture_off_makes_the_same_decisions_under_every_cost_model() {
    let (platform, specs, bases) = mixed();
    let constraints = Constraints::new();
    let models = [
        CostModel::HopCount,
        CostModel::TrafficWeighted,
        CostModel::Energy(EnergyModel::default()),
    ];
    let mut kept = 0;
    for spec in &specs {
        let index = SpecIndex::new(spec, &platform);
        for base in &bases {
            let Ok(step1) = assign_implementations(&index, base, &constraints) else {
                continue;
            };
            for strategy in [Step2Strategy::PaperScan, Step2Strategy::BestImprovement] {
                let config = Step2Config {
                    strategy,
                    ..Step2Config::default()
                };
                for model in &models {
                    let (mut m_on, mut w_on) = (step1.mapping.clone(), step1.working.clone());
                    let on = improve_assignment(
                        &index,
                        &constraints,
                        &mut m_on,
                        &mut w_on,
                        model,
                        &config,
                    );
                    let (mut m_off, mut w_off) = (step1.mapping.clone(), step1.working.clone());
                    let off = improve_assignment_with(
                        &index,
                        &constraints,
                        &mut m_off,
                        &mut w_off,
                        model,
                        &config,
                        false,
                    );
                    let case = format!("{strategy:?} {model:?}");
                    assert_eq!(m_on, m_off, "{case}: identical final mappings");
                    assert_eq!(w_on, w_off, "{case}: identical working states");
                    assert_eq!(on.initial_cost, off.initial_cost, "{case}");
                    assert_eq!(on.final_cost, off.final_cost, "{case}");
                    assert_eq!(on.evaluations, off.evaluations, "{case}");
                    assert_eq!(on.generated, off.generated, "{case}");
                    assert_eq!(on.events.len() as u64, on.evaluations, "{case}");
                    assert!(off.events.is_empty() && off.initial_assignment.is_empty());
                    assert_eq!(
                        on.final_cost,
                        model.assignment_cost(&m_on, spec, &platform),
                        "{case}: the tracked cost equals a full recompute"
                    );
                    // The working state is exactly `base` plus the final
                    // assignment's reservations.
                    let mut replay = base.clone();
                    for (p, a) in m_on.assignments() {
                        replay
                            .claim_tile(&platform, a.tile, index.reservation(p, a.impl_index))
                            .unwrap();
                    }
                    assert_eq!(w_on, replay, "{case}: working state equals a replay");
                    kept += on.events.iter().filter(|e| e.kept).count();
                }
            }
        }
    }
    assert!(kept > 0, "some searches must improve on step 1");
}

#[test]
fn mapper_outcomes_do_not_depend_on_trace_capture() {
    let (platform, specs, bases) = mixed();
    let on = SpatialMapper::new(MapperConfig::default());
    let off = SpatialMapper::new(MapperConfig::default().without_capture());
    for spec in &specs {
        for base in &bases {
            match (
                on.map(spec, &platform, base),
                off.map(spec, &platform, base),
            ) {
                (Ok(mut traced), Ok(plain)) => {
                    let trace = traced.trace.take().expect("capture on records a trace");
                    let attempted: u64 = trace
                        .attempts
                        .iter()
                        .map(|a| a.step2.events.len() as u64 + 1)
                        .sum();
                    assert_eq!(traced.evaluated, attempted);
                    assert_eq!(traced, plain);
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("capture changed the verdict: {a:?} vs {b:?}"),
            }
        }
    }
}
