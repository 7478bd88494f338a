//! Throughput analysis and source-period feasibility checks.

use crate::error::DataflowError;
use crate::graph::{ActorId, CsdfGraph};
use crate::simulate::{SimConfig, SimOutcome, Simulation};

/// Self-timed steady-state throughput of an actor, as an exact ratio of
/// phase-cycles per time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throughput {
    /// Phase-cycles completed per steady-state period.
    pub iterations: u64,
    /// Length of the steady-state period in time units.
    pub period: u64,
}

impl Throughput {
    /// Average time for one phase-cycle, rounded up.
    pub fn time_per_iteration_ceil(&self) -> u64 {
        self.period.div_ceil(self.iterations)
    }

    /// True if this throughput sustains one phase-cycle per `period` time
    /// units (exact rational comparison: `iterations/period ≥ 1/required`).
    pub fn sustains_period(&self, required: u64) -> bool {
        // iterations / period >= 1 / required  <=>  iterations*required >= period
        (self.iterations as u128) * (required as u128) >= self.period as u128
    }
}

/// Computes the self-timed steady-state throughput of `reference`.
///
/// # Errors
///
/// * [`DataflowError::Deadlock`] when the graph deadlocks.
/// * [`DataflowError::GuardExhausted`] when no periodic steady state was
///   found within the simulation guards (e.g. unbounded token accumulation
///   on channels without capacities).
pub fn steady_state_throughput(
    graph: &CsdfGraph,
    reference: ActorId,
) -> Result<Throughput, DataflowError> {
    let config = SimConfig {
        reference: Some(reference),
        ..SimConfig::default()
    };
    throughput_of(Simulation::new(graph, config).run()?)
}

/// The reference actor's steady-state throughput in a finished run.
fn throughput_of(outcome: SimOutcome) -> Result<Throughput, DataflowError> {
    if outcome.deadlocked {
        return Err(DataflowError::Deadlock {
            at_time: outcome.end_time,
            firings: outcome.total_firings,
        });
    }
    match outcome.steady {
        Some(s) => Ok(Throughput {
            iterations: s.iterations,
            period: s.period,
        }),
        None => Err(DataflowError::GuardExhausted {
            guard: format!(
                "no periodic steady state within {} firings",
                outcome.total_firings
            ),
        }),
    }
}

/// Checks whether `source` sustains one phase-cycle every `period` time
/// units in self-timed execution — the paper's step-4 QoS check for a
/// strictly periodic input stream (one OFDM symbol every 4 µs).
///
/// Returns the measured throughput so callers can report the achieved
/// period alongside the verdict.
///
/// # Errors
///
/// Same as [`steady_state_throughput`].
pub fn check_source_period(
    graph: &CsdfGraph,
    source: ActorId,
    period: u64,
) -> Result<(bool, Throughput), DataflowError> {
    let tp = steady_state_throughput(graph, source)?;
    Ok((tp.sustains_period(period), tp))
}

/// Verdict of a [`PeriodCheck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeriodVerdict {
    /// The run reached steady state: whether the source sustains the
    /// period, and its throughput, exactly as [`check_source_period`]
    /// reports them.
    Measured(bool, Throughput),
    /// The run stopped on a dependency cycle whose firings take `time` for
    /// `iterations` graph iterations, more than `r_src · period` per
    /// iteration: the source cannot sustain the period.
    SlowCycle {
        /// Summed firing durations around the cycle.
        time: u64,
        /// Graph iterations the cycle spans (its HSDF tokens).
        iterations: u64,
    },
}

impl PeriodVerdict {
    /// The source's throughput if it sustains the period.
    pub fn sustained(self) -> Option<Throughput> {
        match self {
            PeriodVerdict::Measured(true, tp) => Some(tp),
            _ => None,
        }
    }
}

/// [`check_source_period`] for many capacity assignments of one graph, as
/// buffer sizing probes them, with an early "no".
///
/// When every actor lies on one strongly connected component through the
/// data edges and the space edges of bounded channels, a self-timed run
/// repeats any dependency cycle, so the source can go no faster than the
/// slowest cycle. A probe that misses the period may then stop on the
/// first cycle slower than `r_src · period` per graph iteration, long
/// before its state repeats. Probes that meet the period run to steady
/// state, so a verdict is always the same as [`check_source_period`]'s.
#[derive(Debug, Clone)]
pub struct PeriodCheck {
    source: ActorId,
    period: u64,
    /// Present when the early stop is sound for graphs with this pattern
    /// of bounded channels.
    cut: Option<Cut>,
}

#[derive(Debug, Clone)]
struct Cut {
    q: Vec<u64>,
    r_src: u64,
    bounded: Vec<bool>,
}

impl PeriodCheck {
    /// Prepares the check for `graph` and the graphs that differ from it
    /// only in the capacities of its bounded channels. A graph whose
    /// channels are bounded differently is checked without the early stop.
    pub fn new(graph: &CsdfGraph, source: ActorId, period: u64) -> Self {
        let reps = graph.repetition_vector().ok();
        let cut = reps.filter(|_| strongly_connected(graph)).map(|r| Cut {
            q: graph
                .actors()
                .map(|(id, a)| r[id.index()] * a.n_phases() as u64)
                .collect(),
            r_src: r[source.index()],
            bounded: bounded(graph),
        });
        PeriodCheck {
            source,
            period,
            cut,
        }
    }

    /// Checks whether the source of `graph` sustains the period.
    ///
    /// # Errors
    ///
    /// Same as [`check_source_period`].
    pub fn check(&self, graph: &CsdfGraph) -> Result<PeriodVerdict, DataflowError> {
        let sim = Simulation::new(
            graph,
            SimConfig {
                reference: Some(self.source),
                ..SimConfig::default()
            },
        );
        let outcome = match &self.cut {
            Some(cut) if graph.n_actors() == cut.q.len() && bounded(graph) == cut.bounded => {
                let budget = u128::from(cut.r_src) * u128::from(self.period);
                match sim.run_tracked(&cut.q, cut.r_src, budget) {
                    Ok(outcome) => outcome,
                    Err(slow) => {
                        return Ok(PeriodVerdict::SlowCycle {
                            time: slow.time,
                            iterations: slow.iterations,
                        })
                    }
                }
            }
            _ => sim.run()?,
        };
        let tp = throughput_of(outcome)?;
        Ok(PeriodVerdict::Measured(tp.sustains_period(self.period), tp))
    }
}

/// Which channels of `graph` are bounded.
fn bounded(graph: &CsdfGraph) -> Vec<bool> {
    graph
        .channels()
        .map(|(_, c)| c.capacity.is_some())
        .collect()
}

/// True if every actor reaches every other through channels that carry
/// tokens (data edges) and, backwards, bounded ones (space edges).
fn strongly_connected(graph: &CsdfGraph) -> bool {
    let n = graph.n_actors();
    let mut fwd = vec![Vec::new(); n];
    let mut bwd = vec![Vec::new(); n];
    for (_, ch) in graph.channels() {
        if ch.prod.total() == 0 {
            continue;
        }
        let (s, d) = (ch.src.index(), ch.dst.index());
        fwd[s].push(d);
        bwd[d].push(s);
        if ch.capacity.is_some() {
            fwd[d].push(s);
            bwd[s].push(d);
        }
    }
    let all_reached = |adj: &[Vec<usize>]| {
        let mut seen = vec![false; n];
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(a) = stack.pop() {
            for &b in &adj[a] {
                if !seen[b] {
                    seen[b] = true;
                    stack.push(b);
                }
            }
        }
        seen.iter().all(|&s| s)
    };
    n > 0 && all_reached(&fwd) && all_reached(&bwd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseVec;

    fn chain(src_wcet: u64, dst_wcet: u64, cap: Option<u64>) -> (CsdfGraph, ActorId) {
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(src_wcet), 1);
        let c = g.add_actor("c", PhaseVec::single(dst_wcet), 1);
        g.add_channel_full(p, c, PhaseVec::single(1), PhaseVec::single(1), 0, cap)
            .unwrap();
        (g, p)
    }

    #[test]
    fn throughput_of_producer_limited_chain() {
        let (g, p) = chain(10, 3, None);
        let tp = steady_state_throughput(&g, p).unwrap();
        assert_eq!(tp.time_per_iteration_ceil(), 10);
        assert!(tp.sustains_period(10));
        assert!(tp.sustains_period(11));
        assert!(!tp.sustains_period(9));
    }

    #[test]
    fn source_period_check_fails_when_downstream_too_slow() {
        let (g, p) = chain(10, 25, Some(2));
        let (ok, tp) = check_source_period(&g, p, 10).unwrap();
        assert!(!ok);
        assert!(tp.time_per_iteration_ceil() >= 25);
    }

    #[test]
    fn source_period_check_passes_when_downstream_keeps_up() {
        let (g, p) = chain(10, 9, Some(2));
        let (ok, _) = check_source_period(&g, p, 10).unwrap();
        assert!(ok);
    }

    /// src (100) → a (50) → b (51) → sink (1): capacity 1 between `a`
    /// and `b` makes a 101-per-iteration loop, 1% slower than the period;
    /// the 64-token input buffer delays the steady state by thousands of
    /// firings. The sink's channel is bounded or not.
    fn slow_pipeline(sink_capacity: Option<u64>) -> (CsdfGraph, ActorId) {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", PhaseVec::single(100), 1);
        let a = g.add_actor("a", PhaseVec::single(50), 1);
        let b = g.add_actor("b", PhaseVec::single(51), 1);
        let sink = g.add_actor("sink", PhaseVec::single(1), 1);
        let one = || PhaseVec::single(1);
        for (from, to, cap) in [
            (src, a, Some(64)),
            (a, b, Some(1)),
            (b, sink, sink_capacity),
        ] {
            g.add_channel_full(from, to, one(), one(), 0, cap).unwrap();
        }
        (g, src)
    }

    #[test]
    fn period_check_stops_early_only_on_strongly_connected_graphs() {
        let (g, src) = slow_pipeline(Some(2));
        let verdict = PeriodCheck::new(&g, src, 100).check(&g).unwrap();
        assert_eq!(
            verdict,
            PeriodVerdict::SlowCycle {
                time: 101,
                iterations: 1
            }
        );
        // With the sink's channel unbounded nothing flows back from the
        // sink, so the same slow loop proves nothing: the run goes on to
        // the steady state `check_source_period` reports.
        let (g, src) = slow_pipeline(None);
        let verdict = PeriodCheck::new(&g, src, 100).check(&g).unwrap();
        let (ok, tp) = check_source_period(&g, src, 100).unwrap();
        assert_eq!(verdict, PeriodVerdict::Measured(ok, tp));
        assert!(!ok);
    }

    #[test]
    fn deadlock_surfaces_as_error() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel(b, a, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        assert!(matches!(
            steady_state_throughput(&g, a),
            Err(DataflowError::Deadlock { .. })
        ));
    }
}
