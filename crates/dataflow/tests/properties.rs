//! Property-based tests for the CSDF engine.

use proptest::prelude::*;
use rtsm_dataflow::graph::{ActorId, ChannelId, CsdfGraph};
use rtsm_dataflow::mcr::maximum_cycle_ratio;
use rtsm_dataflow::simulate::{SimConfig, Simulation};
use rtsm_dataflow::{
    apply_sizing, check_source_period, hsdf, size_buffers, BufferSizingConfig, PeriodCheck,
    PeriodVerdict, PhaseVec, Ratio,
};

/// Strategy: a phase vector with the given total, split over 1..=4 phases.
fn phase_vec_with_total(total: u64) -> impl Strategy<Value = PhaseVec> {
    (1usize..=4).prop_flat_map(move |n| {
        proptest::collection::vec(0u64..=total, n - 1).prop_map(move |cuts| {
            // Split [0, total] at sorted cut points into n parts.
            let mut cuts = cuts;
            cuts.sort_unstable();
            let mut values = Vec::with_capacity(cuts.len() + 1);
            let mut prev = 0;
            for c in cuts {
                values.push(c - prev);
                prev = c;
            }
            values.push(total - prev);
            PhaseVec::from_slice(&values)
        })
    })
}

fn arbitrary_wcet(phases: usize) -> impl Strategy<Value = PhaseVec> {
    proptest::collection::vec(1u64..=10, phases).prop_map(|v| PhaseVec::from_slice(&v))
}

proptest! {
    #[test]
    fn phase_roundtrip(values in proptest::collection::vec(0u64..100, 1..20)) {
        let v = PhaseVec::from_slice(&values);
        let expanded: Vec<u64> = v.iter().collect();
        prop_assert_eq!(&expanded, &values);
        prop_assert_eq!(v.total(), values.iter().sum::<u64>());
        prop_assert_eq!(v.len(), values.len());
    }

    #[test]
    fn phase_cumulative_monotone_and_periodic(
        values in proptest::collection::vec(0u64..50, 1..10),
        n in 0u64..40,
    ) {
        let v = PhaseVec::from_slice(&values);
        prop_assert!(v.cumulative(n) <= v.cumulative(n + 1));
        prop_assert_eq!(v.cumulative(v.len() as u64), v.total());
        let cycle = v.len() as u64;
        prop_assert_eq!(v.cumulative(n + cycle), v.cumulative(n) + v.total());
    }

    #[test]
    fn phase_concat_totals(
        a in proptest::collection::vec(0u64..50, 1..8),
        b in proptest::collection::vec(0u64..50, 1..8),
    ) {
        let va = PhaseVec::from_slice(&a);
        let vb = PhaseVec::from_slice(&b);
        let cat = va.concat(&vb);
        prop_assert_eq!(cat.total(), va.total() + vb.total());
        prop_assert_eq!(cat.len(), va.len() + vb.len());
        prop_assert_eq!(cat.get(a.len()), b[0]);
    }

    /// Balance equations hold for the computed repetition vector on random
    /// consistent chains.
    #[test]
    fn repetition_vector_balances(
        rs in proptest::collection::vec(1u64..=4, 2..=5),
        ms in proptest::collection::vec(1u64..=3, 1..=4),
    ) {
        prop_assume!(ms.len() == rs.len() - 1);
        let mut g = CsdfGraph::new();
        let ids: Vec<_> = rs
            .iter()
            .enumerate()
            .map(|(i, _)| g.add_actor(format!("a{i}"), PhaseVec::single(1), 1))
            .collect();
        for i in 0..ms.len() {
            // prod_total = r_{i+1}·m, cons_total = r_i·m keeps consistency.
            let prod = rs[i + 1] * ms[i];
            let cons = rs[i] * ms[i];
            g.add_channel(ids[i], ids[i + 1], PhaseVec::single(prod), PhaseVec::single(cons))
                .unwrap();
        }
        let reps = g.repetition_vector().unwrap();
        for (_, ch) in g.channels() {
            prop_assert_eq!(
                reps[ch.src.index()] * ch.prod.total(),
                reps[ch.dst.index()] * ch.cons.total()
            );
        }
        // Minimality: connected graph => gcd of entries is 1.
        let gcd = reps.iter().fold(0u64, |acc, &r| {
            let (mut a, mut b) = (acc, r);
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        });
        prop_assert_eq!(gcd, 1);
    }

    /// A bounded channel behaves exactly like an explicit reverse channel.
    #[test]
    fn capacity_expansion_is_behaviour_preserving(
        wcet_a in 1u64..=8,
        wcet_b in 1u64..=8,
        cap in 1u64..=5,
    ) {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(wcet_a), 1);
        let b = g.add_actor("b", PhaseVec::single(wcet_b), 1);
        g.add_channel_full(a, b, PhaseVec::single(1), PhaseVec::single(1), 0, Some(cap))
            .unwrap();
        let bounded = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let expanded_graph = g.expand_capacities();
        let expanded = Simulation::new(&expanded_graph, SimConfig::default()).run().unwrap();
        let sb = bounded.steady.expect("bounded steady");
        let se = expanded.steady.expect("expanded steady");
        prop_assert_eq!(
            sb.period as u128 * se.iterations as u128,
            se.period as u128 * sb.iterations as u128
        );
    }

    /// Throughput is monotone non-decreasing in buffer capacity.
    #[test]
    fn throughput_monotone_in_capacity(
        wcet_a in 1u64..=8,
        wcet_b in 1u64..=8,
        cap in 1u64..=4,
    ) {
        let build = |c: u64| {
            let mut g = CsdfGraph::new();
            let a = g.add_actor("a", PhaseVec::single(wcet_a), 1);
            let b = g.add_actor("b", PhaseVec::single(wcet_b), 1);
            g.add_channel_full(a, b, PhaseVec::single(1), PhaseVec::single(1), 0, Some(c))
                .unwrap();
            g
        };
        let small = Simulation::new(&build(cap), SimConfig::default()).run().unwrap();
        let large = Simulation::new(&build(cap + 1), SimConfig::default()).run().unwrap();
        let ss = small.steady.expect("steady");
        let sl = large.steady.expect("steady");
        // period-per-iteration of larger capacity <= smaller capacity.
        prop_assert!(
            sl.period as u128 * ss.iterations as u128
                <= ss.period as u128 * sl.iterations as u128
        );
    }

    /// The MCR of the HSDF expansion matches the simulated steady state on
    /// random two-actor cycles.
    #[test]
    fn mcr_matches_simulation_on_cycles(
        phases_a in 1usize..=3,
        phases_b in 1usize..=3,
        tokens in 1u64..=3,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        // Deterministic wcets from seeds to keep the strategy simple.
        let wa: Vec<u64> = (0..phases_a).map(|i| 1 + (seed_a + i as u64) % 7).collect();
        let wb: Vec<u64> = (0..phases_b).map(|i| 1 + (seed_b + i as u64) % 7).collect();
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::from_slice(&wa), 1);
        let b = g.add_actor("b", PhaseVec::from_slice(&wb), 1);
        // 1 token per phase both ways: consistent with q = [pa, pb]·k.
        g.add_channel(a, b, PhaseVec::uniform(1, phases_a as u32), PhaseVec::uniform(1, phases_b as u32)).unwrap();
        g.add_channel_full(b, a, PhaseVec::uniform(1, phases_b as u32), PhaseVec::uniform(1, phases_a as u32), tokens, None).unwrap();

        let reps = g.repetition_vector().unwrap();
        let sim = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = sim.steady.expect("steady");
        let sim_period = Ratio::new(
            steady.period as i128 * reps[0] as i128,
            steady.iterations as i128,
        );
        let h = hsdf::expand(&g).unwrap();
        let mcr = maximum_cycle_ratio(&h).unwrap();
        prop_assert_eq!(sim_period, mcr);
    }

    /// Simulation is deterministic: two runs agree exactly.
    #[test]
    fn simulation_deterministic(
        wcets in proptest::collection::vec(1u64..=9, 2..=4),
    ) {
        let mut g = CsdfGraph::new();
        let ids: Vec<_> = wcets
            .iter()
            .enumerate()
            .map(|(i, &w)| g.add_actor(format!("a{i}"), PhaseVec::single(w), 1))
            .collect();
        for w in ids.windows(2) {
            g.add_channel_full(w[0], w[1], PhaseVec::single(1), PhaseVec::single(1), 0, Some(3))
                .unwrap();
        }
        let r1 = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let r2 = Simulation::new(&g, SimConfig::default()).run().unwrap();
        prop_assert_eq!(r1.end_time, r2.end_time);
        prop_assert_eq!(r1.total_firings, r2.total_firings);
        prop_assert_eq!(r1.max_pressure, r2.max_pressure);
    }

    /// Random totals: a consistent multirate chain always yields a steady
    /// state under generous capacities, and buffer sizing finds capacities
    /// that meet the unbounded-rate period.
    #[test]
    fn sizing_meets_natural_period(
        r1 in 1u64..=3,
        r2 in 1u64..=3,
        m in 1u64..=2,
        total in 2u64..=6,
    ) {
        let _ = total; // totals are derived from rates below
        let mut g = CsdfGraph::new();
        // Source paced at its wcet; worker r2 cycles per r1 source cycles.
        let src = g.add_actor("src", PhaseVec::single(20), 1);
        let dst = g.add_actor("dst", PhaseVec::single(1), 1);
        let prod = r2 * m;
        let cons = r1 * m;
        let ch = g.add_channel(src, dst, PhaseVec::single(prod), PhaseVec::single(cons)).unwrap();
        let sizing = rtsm_dataflow::size_buffers(
            &g,
            &rtsm_dataflow::BufferSizingConfig {
                source: src,
                period: 20,
                channels: vec![ch],
                max_sweeps: 2,
            },
        ).unwrap();
        let cap = sizing.capacity_of(ch).unwrap();
        prop_assert!(cap >= prod.max(cons));
        let mut sized = g;
        rtsm_dataflow::apply_sizing(&mut sized, &sizing);
        let (ok, _) = rtsm_dataflow::check_source_period(&sized, src, 20).unwrap();
        prop_assert!(ok);
    }
}

/// A multi-phase, multi-rate chain of `wcets.len()` actors with unbounded
/// channels, closed into a ring by a token-carrying back edge when
/// `back_edge > 0`, and the source period the sizing tests require. Open
/// chains pace the source at the required period, as step 4's A/D source
/// is, so the unbounded pilot run reaches a steady state whenever the
/// downstream actors keep up. Closed chains bound their own tokens, so
/// there the source may run up to `slack` times faster than required and
/// the achieved throughput depends on the capacities chosen.
fn chain_or_ring(
    wcets: &[Vec<u64>],
    rates: &[u64],
    tokens: &[u64],
    back_edge: u64,
    pace: u64,
    slack: u64,
) -> (CsdfGraph, Vec<ActorId>, u64) {
    let mut g = CsdfGraph::new();
    let ids: Vec<_> = wcets
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let cycle_time = if i == 0 { pace } else { 1 };
            g.add_actor(format!("a{i}"), PhaseVec::from_slice(w), cycle_time)
        })
        .collect();
    let slack = if back_edge > 0 { slack } else { 1 };
    let period = slack * pace * wcets[0].iter().sum::<u64>();
    // Per-phase rates drawn from `rates`; the first phase is at least 1
    // so every channel moves tokens.
    let mut next_rate = rates.iter().cycle();
    let mut rate_vec = |phases: usize| {
        let v: Vec<u64> = (0..phases)
            .map(|k| next_rate.next().copied().unwrap().max(u64::from(k == 0)))
            .collect();
        PhaseVec::from_slice(&v)
    };
    for (i, w) in ids.windows(2).enumerate() {
        let prod = rate_vec(wcets[i].len());
        let cons = rate_vec(wcets[i + 1].len());
        g.add_channel_full(w[0], w[1], prod, cons, tokens[i], None)
            .unwrap();
    }
    if back_edge > 0 {
        // A consistent back edge: the last actor produces r_first per
        // cycle, the first consumes r_last, and `back_edge` iterations'
        // worth of tokens sit on it initially.
        let reps = g.repetition_vector().unwrap();
        let (first, last) = (ids[0], *ids.last().unwrap());
        let (r_first, r_last) = (reps[first.index()], reps[last.index()]);
        let mut prod = vec![0; wcets[wcets.len() - 1].len()];
        prod[0] = r_first;
        let mut cons = vec![0; wcets[0].len()];
        cons[0] = r_last;
        g.add_channel_full(
            last,
            first,
            PhaseVec::from_slice(&prod),
            PhaseVec::from_slice(&cons),
            back_edge * r_first * r_last,
            None,
        )
        .unwrap();
    }
    (g, ids, period)
}

proptest! {
    // Cases are cheap (well under a millisecond each); about 70% of the
    // graphs size successfully, the rest are compute-bound below the
    // period.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The throughput `size_buffers` reports is the verdict an independent
    /// re-check gives: on multi-phase, multi-rate chains (some closed into
    /// a cycle by a token-carrying back edge), every graph sized
    /// successfully has `achieved` equal to `check_source_period` on the
    /// capacitated graph.
    #[test]
    fn sizing_achieved_equals_an_independent_recheck(
        wcets in proptest::collection::vec(proptest::collection::vec(1u64..=9, 1..=3), 2..=4),
        rates in proptest::collection::vec(0u64..=3, 24),
        tokens in proptest::collection::vec(0u64..=2, 4),
        back_edge in 0u64..=2,
        pace in 1u64..=4,
        slack in 1u64..=3,
        max_sweeps in 1usize..=3,
    ) {
        let (g, ids, period) = chain_or_ring(&wcets, &rates, &tokens, back_edge, pace, slack);
        let config = rtsm_dataflow::BufferSizingConfig {
            source: ids[0],
            period,
            channels: Vec::new(),
            max_sweeps,
        };
        if let Ok(sizing) = rtsm_dataflow::size_buffers(&g, &config) {
            let mut sized = g;
            rtsm_dataflow::apply_sizing(&mut sized, &sizing);
            let (ok, tp) = rtsm_dataflow::check_source_period(&sized, ids[0], period).unwrap();
            prop_assert!(ok);
            prop_assert_eq!(sizing.achieved, tp);
        }
    }
}

/// The probes sizing makes near its threshold: the sized vector itself and,
/// per sized channel, one token less (never below the channel's floor, as
/// the search never goes there).
fn near_threshold_probes(g: &CsdfGraph, config: &BufferSizingConfig) -> Vec<CsdfGraph> {
    let Ok(sizing) = size_buffers(g, config) else {
        return Vec::new();
    };
    let mut sized = g.clone();
    apply_sizing(&mut sized, &sizing);
    let mut probes = vec![sized.clone()];
    for &(ch, cap) in &sizing.capacities {
        let c = sized.channel(ch);
        let floor = c.prod.max().max(c.cons.max()).max(c.initial_tokens).max(1);
        if cap > floor {
            let mut probe = sized.clone();
            probe.channel_mut(ch).capacity = Some(cap - 1);
            probes.push(probe);
        }
    }
    probes
}

/// Checks one probe against `check_source_period`, and a slow-cycle proof
/// against the maximum cycle ratio of the capacitated graph's HSDF
/// expansion. Returns whether the probe ended on a proof.
fn probe_agrees(check: &PeriodCheck, probe: &CsdfGraph, source: ActorId, period: u64) -> bool {
    let reference = check_source_period(probe, source, period);
    match check.check(probe) {
        Ok(PeriodVerdict::Measured(ok, tp)) => {
            assert_eq!(reference, Ok((ok, tp)));
            false
        }
        Ok(PeriodVerdict::SlowCycle { time, iterations }) => {
            assert!(!matches!(reference, Ok((true, _))), "{reference:?}");
            let r_src = probe.repetition_vector().unwrap()[source.index()];
            let budget = Ratio::integer(i128::from(r_src) * i128::from(period));
            let cycle = Ratio::new(i128::from(time), i128::from(iterations));
            assert!(cycle > budget, "cycle {cycle} within the budget {budget}");
            let hsdf = hsdf::expand(&probe.expand_capacities()).unwrap();
            let mcr = maximum_cycle_ratio(&hsdf).unwrap();
            assert!(mcr > budget, "MCR {mcr} within the budget {budget}");
            assert!(mcr >= cycle, "MCR {mcr} below the cycle found, {cycle}");
            true
        }
        Err(e) => {
            assert!(reference.is_err(), "{e} vs {reference:?}");
            false
        }
    }
}

/// Draws `cases` random chains of at least `min_actors` actors (rings too
/// when `rings`) as `chain_or_ring` builds them, sizes the channels
/// `targets` picks, and checks every near-threshold probe with
/// `probe_agrees`. Returns how many probes ended on a proof.
fn check_random_probes(
    cases: u32,
    min_actors: usize,
    rings: bool,
    targets: impl Fn(&CsdfGraph) -> Vec<ChannelId>,
) -> usize {
    use proptest::collection::vec;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(cases));
    let mut cuts = 0;
    for _ in 0..runner.cases() {
        let rng = runner.rng();
        let wcets = vec(vec(1u64..=9, 1..=3), min_actors..=4).generate(rng);
        let rates = vec(0u64..=3, 24).generate(rng);
        let tokens = vec(0u64..=2, 4).generate(rng);
        let back_edge = if rings { (0u64..=2).generate(rng) } else { 0 };
        let pace = (1u64..=4).generate(rng);
        let slack = (1u64..=3).generate(rng);
        let (g, ids, period) = chain_or_ring(&wcets, &rates, &tokens, back_edge, pace, slack);
        let config = BufferSizingConfig {
            source: ids[0],
            period,
            channels: targets(&g),
            max_sweeps: 3,
        };
        let probes = near_threshold_probes(&g, &config);
        if let Some(sized) = probes.first() {
            let check = PeriodCheck::new(sized, ids[0], period);
            for probe in &probes {
                cuts += usize::from(probe_agrees(&check, probe, ids[0], period));
            }
        }
    }
    cuts
}

/// The early stop never changes a verdict: on random strongly connected
/// chains and rings (every channel sized, so bounded), the probe of the
/// sized vector and of each channel one token below it gives
/// `check_source_period`'s verdict and throughput, and every slow-cycle
/// proof is confirmed by the HSDF maximum cycle ratio.
#[test]
fn sizing_probes_equal_check_source_period() {
    let cuts = check_random_probes(256, 2, true, |_| Vec::new());
    assert!(
        cuts > 0,
        "no probe ended on a proof: the oracle went unused"
    );
}

/// A channel left unbounded breaks strong connectivity (nothing flows back
/// from the open end), so the early stop is off: no probe ends on a proof
/// and every verdict still matches.
#[test]
fn an_unbounded_channel_disables_the_early_stop() {
    let all_but_the_last = |g: &CsdfGraph| {
        let channels: Vec<ChannelId> = g.channels().map(|(id, _)| id).collect();
        channels[..channels.len() - 1].to_vec()
    };
    assert_eq!(check_random_probes(128, 3, false, all_but_the_last), 0);
}

#[test]
fn phase_vec_with_total_strategy_is_sound() {
    // Sanity-check the helper strategy itself once.
    use proptest::strategy::{Strategy as _, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    for _ in 0..32 {
        let v = phase_vec_with_total(12)
            .new_tree(&mut runner)
            .unwrap()
            .current();
        assert_eq!(v.total(), 12);
    }
}

#[test]
fn wcet_strategy_is_sound() {
    use proptest::strategy::{Strategy as _, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    for _ in 0..8 {
        let v = arbitrary_wcet(3).new_tree(&mut runner).unwrap().current();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x >= 1));
    }
}
