//! Minimal buffer-capacity computation under a throughput constraint.
//!
//! This reproduces, conservatively, the analysis of Wiggers, Bekooij and
//! Smit, *"Efficient computation of buffer capacities for cyclo-static
//! dataflow graphs"* (DAC 2007), which the DATE 2008 paper uses for its
//! step-4 feasibility check and for the `B_i` capacities of Figure 3.
//!
//! The approach here trades the closed-form linear bounds of the original
//! paper for exact back-pressure simulation (our graphs are run-time-mapper
//! sized, tens of actors):
//!
//! 1. Run self-timed with unbounded buffers; the per-channel peak *pressure*
//!    (tokens + in-flight reservations) is a feasible upper bound.
//! 2. Per channel, binary-search the smallest capacity that still sustains
//!    the required source period with all other channels at their current
//!    capacities (throughput is monotone in buffer capacity).
//! 3. Sweep until a fixpoint (one extra validation pass in practice).
//!
//! The result is feasible by construction and minimal per-channel (it may be
//! off the Pareto frontier of *joint* minimality, as is Wiggers' — both are
//! conservative).
//!
//! Every probe is a [`PeriodCheck`], whose verdict is always
//! [`check_source_period`]'s. A probe that meets the period runs the
//! self-timed simulation to its exact steady state. The final capacity
//! vector is always one the search probed feasible, and its measured
//! throughput is returned as [`BufferSizing::achieved`]: that *is* step
//! 4's throughput verdict, so the capacitated graph is never simulated
//! again. A probe that misses the period may instead end early, on a
//! dependency cycle slower than the period (see [`crate::simulate`]); this
//! is what keeps near-threshold probes, such as every channel's
//! capacity − 1, cheap. The search reads only verdicts, so the capacities
//! are the same either way.
//!
//! [`check_source_period`]: crate::throughput::check_source_period

use crate::error::DataflowError;
use crate::graph::{ActorId, ChannelId, CsdfGraph};
use crate::simulate::{SimConfig, Simulation};
use crate::throughput::{PeriodCheck, PeriodVerdict, Throughput};
use rtsm_obs as obs;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Configuration for [`size_buffers`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSizingConfig {
    /// The strictly periodic source actor (fires one phase-cycle per
    /// `period`).
    pub source: ActorId,
    /// Required source period in time units.
    pub period: u64,
    /// Channels to size; channels not listed keep their existing capacity.
    /// When empty, every channel with `capacity: None` is sized.
    pub channels: Vec<ChannelId>,
    /// Maximum sweeps over the channel list before giving up.
    pub max_sweeps: usize,
}

/// Result of a buffer-sizing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSizing {
    /// Computed capacity per sized channel, in token units.
    pub capacities: Vec<(ChannelId, u64)>,
    /// Total of all computed capacities.
    pub total: u64,
    /// Self-timed steady-state throughput of the source in the graph with
    /// these capacities applied, from the search's last feasible probe. It
    /// sustains the configured period and equals what
    /// [`check_source_period`](crate::throughput::check_source_period)
    /// reports on the capacitated graph.
    pub achieved: Throughput,
}

impl BufferSizing {
    /// Capacity computed for `channel`, if it was part of the sizing set.
    pub fn capacity_of(&self, channel: ChannelId) -> Option<u64> {
        self.capacities
            .iter()
            .find(|(c, _)| *c == channel)
            .map(|(_, cap)| *cap)
    }
}

/// The source's throughput if `graph` sustains the period, `None` if it
/// does not or cannot be analysed.
fn feasible(check: &PeriodCheck, graph: &CsdfGraph) -> Option<Throughput> {
    match check.check(graph) {
        Ok(PeriodVerdict::SlowCycle { .. }) => {
            obs::count(obs::Counter::BufferProbeCut, 1);
            None
        }
        verdict => verdict.ok().and_then(PeriodVerdict::sustained),
    }
}

/// 64-bit FNV-1a — a fixed-key [`Hasher`] so the sizing-cache digest is
/// identical across runs and threads (unlike `DefaultHasher`'s per-process
/// keys in some configurations, this is specified byte-for-byte).
struct Fnv64(u64);

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Structural digest of one sizing problem: the full graph (actor timing,
/// channel rates, initial tokens, existing capacities) plus the
/// [`BufferSizingConfig`]. It only picks the cache slot; a hit is
/// confirmed by comparing the stored problem in full, so a collision costs
/// a re-size, never a wrong answer.
fn sizing_digest(graph: &CsdfGraph, config: &BufferSizingConfig) -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    for (_, actor) in graph.actors() {
        actor.name.hash(&mut h);
        actor.wcet.hash(&mut h);
        actor.cycle_time.hash(&mut h);
    }
    for (_, channel) in graph.channels() {
        channel.src.index().hash(&mut h);
        channel.dst.index().hash(&mut h);
        channel.prod.hash(&mut h);
        channel.cons.hash(&mut h);
        channel.initial_tokens.hash(&mut h);
        channel.capacity.hash(&mut h);
    }
    config.source.index().hash(&mut h);
    config.period.hash(&mut h);
    for ch in &config.channels {
        ch.index().hash(&mut h);
    }
    config.max_sweeps.hash(&mut h);
    h.finish()
}

/// One cached sizing together with the exact problem it answers.
struct CacheEntry {
    graph: CsdfGraph,
    config: BufferSizingConfig,
    sizing: BufferSizing,
}

thread_local! {
    /// Cross-call result cache: repeated admissions of the same
    /// application compose byte-identical CSDF graphs, so the whole
    /// (pure) sizing result can be reused across `map()` calls instead of
    /// re-simulating identical capacity vectors. Entries are found by
    /// digest and returned only if their stored graph and config equal
    /// the query, so a digest collision is a miss, never a wrong answer.
    /// Thread-local so the experiment harness's workers never share
    /// state; bounded and flushed wholesale so memory stays fixed and
    /// behaviour stays deterministic.
    static SIZING_CACHE: RefCell<HashMap<u64, CacheEntry>> = RefCell::new(HashMap::new());
}

/// Entry bound of the cross-call sizing cache; on overflow the cache is
/// cleared (a deterministic flush, unlike LRU tie-breaking on hash order).
const SIZING_CACHE_CAP: usize = 512;

/// Empties this thread's cross-call sizing cache, so the next
/// [`size_buffers`] call for any problem runs the full search (the cold
/// path). Results are identical either way.
pub fn clear_sizing_cache() {
    SIZING_CACHE.with(|c| c.borrow_mut().clear());
}

/// Computes minimal buffer capacities sustaining `config.period` at the
/// source, and the throughput they achieve.
///
/// The graph is borrowed and copied only when the search actually runs (a
/// cache miss); the computed capacities are returned; apply them with
/// [`apply_sizing`] if you need the capacitated graph itself.
///
/// The returned [`BufferSizing::achieved`] throughput comes from the last
/// feasible probe of the search, which ran on exactly the capacitated
/// graph. It is the throughput verdict of step 4: callers need not
/// re-simulate the sized graph to check the period.
///
/// Sizing is a pure function of `(graph, config)`, so results are memoised
/// across calls (per thread, keyed by the full problem): repeated
/// admissions of the same application answer from the cache — counted as a
/// `buffer_memo_hit` — without re-running any feasibility simulation. The
/// returned sizing is identical with or without a cache hit.
///
/// # Errors
///
/// * [`DataflowError::GuardExhausted`] if the unbounded pilot run finds no
///   steady state (e.g. the graph is not consistent).
/// * [`DataflowError::Deadlock`] if the graph deadlocks even with unbounded
///   buffers.
/// * [`DataflowError::Inconsistent`] if the required period cannot be met at
///   any buffer size (the bottleneck is computation, not buffering).
pub fn size_buffers(
    graph: &CsdfGraph,
    config: &BufferSizingConfig,
) -> Result<BufferSizing, DataflowError> {
    let _span = obs::span(obs::Span::BufferSizing);
    let digest = sizing_digest(graph, config);
    let cached = SIZING_CACHE.with(|c| {
        c.borrow()
            .get(&digest)
            .filter(|e| e.graph == *graph && e.config == *config)
            .map(|e| e.sizing.clone())
    });
    if let Some(sizing) = cached {
        obs::count(obs::Counter::BufferMemoHit, 1);
        return Ok(sizing);
    }
    let sizing = size_buffers_uncached(graph.clone(), config)?;
    SIZING_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if cache.len() >= SIZING_CACHE_CAP {
            cache.clear();
        }
        let entry = CacheEntry {
            graph: graph.clone(),
            config: config.clone(),
            sizing: sizing.clone(),
        };
        cache.insert(digest, entry);
    });
    Ok(sizing)
}

fn size_buffers_uncached(
    mut graph: CsdfGraph,
    config: &BufferSizingConfig,
) -> Result<BufferSizing, DataflowError> {
    // Utilisation pre-check: actors are sequential, so per graph iteration
    // actor `a` is busy `r_a · cycle_duration(a)`; the iteration spans
    // `r_src · period`. A busier actor makes the requirement unattainable at
    // any buffer size — report it as compute-bound instead of searching.
    let reps = graph.repetition_vector()?;
    let r_src = reps[config.source.index()];
    for (id, actor) in graph.actors() {
        let busy = reps[id.index()] as u128 * actor.cycle_duration() as u128;
        let budget = r_src as u128 * config.period as u128;
        if busy > budget {
            return Err(DataflowError::Inconsistent {
                detail: format!(
                    "required period {} unattainable: actor `{}` needs {busy} time \
                     units per iteration but the iteration spans {budget}",
                    config.period, actor.name
                ),
            });
        }
    }

    let targets: Vec<ChannelId> = if config.channels.is_empty() {
        graph
            .channels()
            .filter(|(_, c)| c.capacity.is_none())
            .map(|(id, _)| id)
            .collect()
    } else {
        config.channels.clone()
    };

    // Feasibility is a pure function of the capacity assignment, and the
    // fixpoint sweep revisits assignments it has already probed (a clean
    // second sweep re-validates every first-sweep decision), so memoise the
    // simulations by target-capacity vector, keeping the throughput of each
    // feasible one. This only skips duplicate runs — the computed
    // capacities are identical with or without it.
    let key_of = |graph: &CsdfGraph| -> Vec<u64> {
        targets
            .iter()
            .map(|&ch| graph.channel(ch).capacity.unwrap_or(u64::MAX))
            .collect()
    };
    // Pilot run with the target channels unbounded to obtain upper bounds.
    let mut unbounded = graph.clone();
    for &ch in &targets {
        unbounded.channel_mut(ch).capacity = None;
    }
    let sim = Simulation::new(
        &unbounded,
        SimConfig {
            reference: Some(config.source),
            ..SimConfig::default()
        },
    );
    let pilot = sim.run()?;
    if pilot.deadlocked {
        return Err(DataflowError::Deadlock {
            at_time: pilot.end_time,
            firings: pilot.total_firings,
        });
    }
    let steady = pilot.steady.ok_or_else(|| DataflowError::GuardExhausted {
        guard: "no steady state with unbounded buffers".into(),
    })?;
    // If even unbounded buffers cannot sustain the period, buffering cannot
    // help: the graph is compute-bound below the requirement.
    if (steady.iterations as u128) * (config.period as u128) < steady.period as u128 {
        return Err(DataflowError::Inconsistent {
            detail: format!(
                "required period {} unattainable: unbounded-buffer period is {}/{}",
                config.period, steady.period, steady.iterations
            ),
        });
    }

    // Initialise each target at its pilot-run peak pressure (feasible by
    // construction), floored at the largest single-phase transfer.
    let mut caps: Vec<u64> = Vec::with_capacity(targets.len());
    for &ch in &targets {
        let c = graph.channel(ch);
        let floor = c.prod.max().max(c.cons.max()).max(c.initial_tokens).max(1);
        let ub = pilot.max_pressure[ch.index()].max(floor);
        caps.push(ub);
        graph.channel_mut(ch).capacity = Some(ub);
    }
    // Every probe from here on bounds the same channels, so the early-stop
    // analysis (connectivity, repetition vector) is done once, here.
    let check = PeriodCheck::new(&graph, config.source, config.period);
    let mut memo: HashMap<Vec<u64>, Option<Throughput>> = HashMap::new();
    let mut feasible_memo = |graph: &CsdfGraph| -> bool {
        match memo.entry(key_of(graph)) {
            Entry::Occupied(hit) => {
                obs::count(obs::Counter::BufferMemoHit, 1);
                hit.get().is_some()
            }
            Entry::Vacant(slot) => {
                obs::count(obs::Counter::BufferProbe, 1);
                slot.insert(feasible(&check, graph)).is_some()
            }
        }
    };

    // The pilot bound is feasible only if the *combination* still meets the
    // period; this holds because capacities at peak pressure never block the
    // pilot schedule. Validate anyway (defensive).
    if !feasible_memo(&graph) {
        // Extremely conservative fallback: double until feasible (bounded by
        // a few steps; pressure bounds are near-tight in practice).
        let mut factor = 2u64;
        loop {
            for (i, &ch) in targets.iter().enumerate() {
                graph.channel_mut(ch).capacity = Some(caps[i].saturating_mul(factor));
            }
            if feasible_memo(&graph) {
                for (cap, &ch) in caps.iter_mut().zip(&targets) {
                    *cap = graph.channel(ch).capacity.expect("capacity just set");
                }
                break;
            }
            factor = factor.saturating_mul(2);
            if factor > 1 << 20 {
                return Err(DataflowError::GuardExhausted {
                    guard: "buffer sizing failed to find a feasible upper bound".into(),
                });
            }
        }
    }

    // Per-channel binary-search descent, swept to a fixpoint.
    for _sweep in 0..config.max_sweeps {
        let mut changed = false;
        for (i, &ch) in targets.iter().enumerate() {
            let c = graph.channel(ch);
            let floor = c.prod.max().max(c.cons.max()).max(c.initial_tokens).max(1);
            let mut lo = floor;
            let mut hi = caps[i];
            if lo >= hi {
                continue;
            }
            // Invariant: hi feasible. Find the smallest feasible capacity.
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                graph.channel_mut(ch).capacity = Some(mid);
                if feasible_memo(&graph) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            graph.channel_mut(ch).capacity = Some(hi);
            if hi != caps[i] {
                caps[i] = hi;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // The current assignment is either the validated pilot bound (or its
    // feasible doubling) or the last `hi` a search probed feasible, so the
    // memo holds its throughput. A plain lookup, not a counted memo hit.
    let achieved = memo
        .get(&key_of(&graph))
        .copied()
        .flatten()
        .expect("the final capacity vector was probed feasible");
    let capacities: Vec<(ChannelId, u64)> = targets.iter().copied().zip(caps).collect();
    let total = capacities.iter().map(|(_, c)| c).sum();
    Ok(BufferSizing {
        capacities,
        total,
        achieved,
    })
}

/// Applies a computed sizing to a graph (sets channel capacities).
pub fn apply_sizing(graph: &mut CsdfGraph, sizing: &BufferSizing) {
    for &(ch, cap) in &sizing.capacities {
        graph.channel_mut(ch).capacity = Some(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseVec;
    use crate::throughput::check_source_period;

    /// source(period P) -> worker(wcet w) -> sink(wcet s)
    fn pipeline(p: u64, w: u64, s: u64) -> (CsdfGraph, ActorId, Vec<ChannelId>) {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", PhaseVec::single(p), 1);
        let work = g.add_actor("work", PhaseVec::single(w), 1);
        let snk = g.add_actor("snk", PhaseVec::single(s), 1);
        let c1 = g
            .add_channel(src, work, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let c2 = g
            .add_channel(work, snk, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        (g, src, vec![c1, c2])
    }

    #[test]
    fn fast_pipeline_needs_small_buffers() {
        let (g, src, chans) = pipeline(10, 4, 4);
        let sizing = size_buffers(
            &g,
            &BufferSizingConfig {
                source: src,
                period: 10,
                channels: chans,
                max_sweeps: 3,
            },
        )
        .unwrap();
        for (_, cap) in &sizing.capacities {
            assert!(*cap <= 2, "capacity {cap} unexpectedly large");
        }
    }

    #[test]
    fn sized_graph_meets_period() {
        let (g, src, chans) = pipeline(10, 9, 8);
        let cfg = BufferSizingConfig {
            source: src,
            period: 10,
            channels: chans,
            max_sweeps: 3,
        };
        let sizing = size_buffers(&g, &cfg).unwrap();
        let mut sized = g;
        apply_sizing(&mut sized, &sizing);
        let (ok, tp) = check_source_period(&sized, src, 10).unwrap();
        assert!(ok);
        assert_eq!(
            sizing.achieved, tp,
            "achieved is the sized graph's throughput"
        );
    }

    #[test]
    fn capacities_are_minimal() {
        let (g, src, chans) = pipeline(10, 9, 8);
        let cfg = BufferSizingConfig {
            source: src,
            period: 10,
            channels: chans.clone(),
            max_sweeps: 3,
        };
        let sizing = size_buffers(&g, &cfg).unwrap();
        // Decreasing any computed capacity by one must break feasibility
        // (unless it is already at the structural floor of 1).
        for &(ch, cap) in &sizing.capacities {
            if cap <= 1 {
                continue;
            }
            let mut probe = g.clone();
            apply_sizing(&mut probe, &sizing);
            probe.channel_mut(ch).capacity = Some(cap - 1);
            let (ok, _) = check_source_period(&probe, src, 10).unwrap_or((false, unreachable_tp()));
            assert!(!ok, "channel {ch} capacity {cap} not minimal");
        }
    }

    fn unreachable_tp() -> crate::throughput::Throughput {
        crate::throughput::Throughput {
            iterations: 1,
            period: u64::MAX,
        }
    }

    #[test]
    fn compute_bound_requirement_reported() {
        // Worker slower than the required period: no buffer size helps.
        let (g, src, chans) = pipeline(10, 30, 4);
        let err = size_buffers(
            &g,
            &BufferSizingConfig {
                source: src,
                period: 10,
                channels: chans,
                max_sweeps: 3,
            },
        )
        .unwrap_err();
        assert!(matches!(err, DataflowError::Inconsistent { .. }));
    }

    #[test]
    fn repeated_sizing_answers_from_the_cross_call_cache() {
        use rtsm_obs::SpanLatencyProbe;
        use std::rc::Rc;
        // Distinct worker timing so no other test shares this digest.
        let (g, src, chans) = pipeline(20, 17, 13);
        let cfg = BufferSizingConfig {
            source: src,
            period: 20,
            channels: chans,
            max_sweeps: 3,
        };
        let first = size_buffers(&g, &cfg).unwrap();
        let probe = Rc::new(SpanLatencyProbe::new());
        let second = {
            let _guard = obs::install(probe.clone());
            size_buffers(&g, &cfg).unwrap()
        };
        assert_eq!(first, second, "cache hit must return the identical sizing");
        assert_eq!(
            probe.counter_total(obs::Counter::BufferProbe),
            0,
            "a whole-result cache hit must not re-simulate any capacity vector"
        );
        assert_eq!(probe.counter_total(obs::Counter::BufferMemoHit), 1);
    }

    /// Plants, under the digest of `(graph, config)`, an entry whose stored
    /// problem is `key` and whose answer is `sizing` — a digest collision.
    fn plant_colliding_entry(
        graph: &CsdfGraph,
        config: &BufferSizingConfig,
        key: (CsdfGraph, BufferSizingConfig),
        sizing: BufferSizing,
    ) {
        let entry = CacheEntry {
            graph: key.0,
            config: key.1,
            sizing,
        };
        SIZING_CACHE.with(|c| c.borrow_mut().insert(sizing_digest(graph, config), entry));
    }

    #[test]
    fn a_digest_collision_is_a_miss_not_a_wrong_answer() {
        use rtsm_obs::SpanLatencyProbe;
        use std::rc::Rc;
        let (g, src, chans) = pipeline(30, 23, 19);
        let cfg = BufferSizingConfig {
            source: src,
            period: 30,
            channels: chans.clone(),
            max_sweeps: 3,
        };
        clear_sizing_cache();
        let truth = size_buffers(&g, &cfg).unwrap();
        let wrong = BufferSizing {
            capacities: chans.iter().map(|&ch| (ch, 99)).collect(),
            total: 198,
            achieved: Throughput {
                iterations: 1,
                period: 1,
            },
        };
        // Once with a different graph, once with a different config.
        let other_graph = (pipeline(30, 5, 5).0, cfg.clone());
        let other_config = (
            g.clone(),
            BufferSizingConfig {
                period: 31,
                ..cfg.clone()
            },
        );
        for key in [other_graph, other_config] {
            plant_colliding_entry(&g, &cfg, key, wrong.clone());
            let probe = Rc::new(SpanLatencyProbe::new());
            let again = {
                let _guard = obs::install(probe.clone());
                size_buffers(&g, &cfg).unwrap()
            };
            assert_eq!(again, truth, "a colliding entry must not be served");
            assert!(
                probe.counter_total(obs::Counter::BufferProbe) > 0,
                "a key mismatch must re-run the search"
            );
        }
    }

    #[test]
    fn multi_rate_channel_floor_respected() {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", PhaseVec::single(100), 1);
        let snk = g.add_actor("snk", PhaseVec::single(1), 1);
        // Source bursts 8 tokens per firing.
        let ch = g
            .add_channel(src, snk, PhaseVec::single(8), PhaseVec::single(1))
            .unwrap();
        let sizing = size_buffers(
            &g,
            &BufferSizingConfig {
                source: src,
                period: 100,
                channels: vec![ch],
                max_sweeps: 3,
            },
        )
        .unwrap();
        assert!(sizing.capacity_of(ch).unwrap() >= 8);
    }
}
