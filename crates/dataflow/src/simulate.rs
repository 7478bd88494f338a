//! Self-timed discrete-event execution of CSDF graphs.
//!
//! The simulator implements the standard self-timed operational semantics
//! with *space reservation*: a firing starts as soon as
//!
//! 1. the actor is idle (actors are sequential — no auto-concurrency),
//! 2. every input channel holds at least the tokens the current phase
//!    consumes, and
//! 3. every bounded output channel has room for the tokens the phase will
//!    produce (the room is reserved at start and filled at completion).
//!
//! Tokens are consumed at firing start and produced at firing completion;
//! buffer space is reserved at producer start and released at consumer
//! completion. This is exactly the semantics obtained by modelling a
//! `capacity`-bounded channel as a pair of forward/backward edges (the
//! paper's Figure 3 back-edges with `B_i` initial tokens).
//!
//! Periodic steady state is detected *exactly* by hashing normalised
//! simulator states at reference-actor iteration boundaries; the detected
//! `(iterations, period)` pair gives the graph's self-timed throughput.
//!
//! A period-feasibility probe ([`crate::throughput::PeriodCheck`]) may
//! stop before that, but only to answer "no". Once it has run two
//! reference cycles without settling, every firing records the earlier
//! firing whose completion enabled it: a tight edge of the HSDF expansion
//! of [`CsdfGraph::expand_capacities`]. At each reference-cycle boundary
//! from two graph iterations later on, the simulator walks these links
//! back from every actor's latest firing until an HSDF node (actor, firing
//! index mod firings-per-iteration) repeats. If that loop took time `D`
//! for `m` graph iterations and `D > m · budget`, the graph is slower than
//! the budget and the probe is infeasible; it need not run until its state
//! repeats. A feasible probe never finds such a loop and runs to its exact
//! steady state. Tracking stops after a fixed window either way, so its
//! memory stays bounded.

use crate::error::DataflowError;
use crate::graph::{ActorId, CsdfGraph};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// Configuration knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Stop after this many completed firings (guards against divergence).
    pub max_firings: u64,
    /// Stop when simulated time exceeds this bound.
    pub max_time: u64,
    /// Actor whose full phase-cycle completions delimit steady-state
    /// snapshots. Defaults to actor 0 when `None`.
    pub reference: Option<ActorId>,
    /// When true, stop as soon as a periodic steady state is detected.
    pub stop_at_steady_state: bool,
    /// Actors whose individual firings are recorded in
    /// [`SimOutcome::records`] (for latency measurement).
    pub record: Vec<ActorId>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_firings: 2_000_000,
            max_time: u64::MAX / 4,
            reference: None,
            stop_at_steady_state: true,
            record: Vec::new(),
        }
    }
}

/// A recorded firing of an actor listed in [`SimConfig::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiringRecord {
    /// The recorded actor.
    pub actor: ActorId,
    /// Phase index fired.
    pub phase: u32,
    /// Firing start time.
    pub start: u64,
    /// Firing completion time.
    pub end: u64,
}

/// Exact periodic steady state of a self-timed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteadyState {
    /// The reference actor used for detection.
    pub reference: ActorId,
    /// Reference-actor phase-cycles per steady-state period.
    pub iterations: u64,
    /// Steady-state period in time units.
    pub period: u64,
}

impl SteadyState {
    /// Average time per reference-actor cycle, as `(time, cycles)`.
    pub fn cycle_time_ratio(&self) -> (u64, u64) {
        (self.period, self.iterations)
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Simulated time at which the run stopped.
    pub end_time: u64,
    /// Total completed firings.
    pub total_firings: u64,
    /// Completed firings per actor.
    pub completions: Vec<u64>,
    /// Per channel: the maximum of `tokens + reserved + held` over the run —
    /// the smallest capacity that would never have blocked this schedule.
    pub max_pressure: Vec<u64>,
    /// Detected periodic steady state, if any.
    pub steady: Option<SteadyState>,
    /// True if the run ended because no actor could make progress.
    pub deadlocked: bool,
    /// Firings of the actors listed in [`SimConfig::record`], in completion
    /// order.
    pub records: Vec<FiringRecord>,
}

#[derive(Debug, Hash, PartialEq, Eq)]
struct StateKey {
    phases: Vec<u32>,
    data: Vec<u64>,
    // Remaining busy time per actor (u64::MAX when idle) plus in-flight phase.
    busy: Vec<(u64, u32)>,
}

/// A discrete-event, self-timed CSDF simulator.
///
/// Use [`Simulation::run`] for a complete run; the intermediate state is
/// intentionally private (the outcome carries everything analyses need).
#[derive(Debug)]
pub struct Simulation<'g> {
    graph: &'g CsdfGraph,
    config: SimConfig,
    now: u64,
    data: Vec<u64>,
    reserved: Vec<u64>,
    held: Vec<u64>,
    phase: Vec<u32>,
    in_flight: Vec<Option<u32>>,
    busy_until: Vec<u64>,
    completions: Vec<u64>,
    total_firings: u64,
    max_pressure: Vec<u64>,
    events: BinaryHeap<Reverse<(u64, usize)>>,
    recorded: Vec<bool>,
    fire_start: Vec<u64>,
    records: Vec<FiringRecord>,
    // Flat CSR tables, precomputed once so the event loop indexes
    // contiguous arrays instead of chasing `PhaseVec` runs and per-actor
    // heap-allocated adjacency lists. Actor `a`'s input channels are
    // `in_ch[in_off[a]..in_off[a+1]]` (likewise `out_*`); channel `c`
    // consumes `cons_val[cons_off[c] + consumer_phase]` tokens and produces
    // `prod_val[prod_off[c] + producer_phase]`; actor `a`'s phase `p` runs
    // for `dur_val[dur_off[a] + p]` time units.
    in_off: Vec<u32>,
    in_ch: Vec<u32>,
    out_off: Vec<u32>,
    out_ch: Vec<u32>,
    cons_off: Vec<u32>,
    cons_val: Vec<u64>,
    prod_off: Vec<u32>,
    prod_val: Vec<u64>,
    /// Channel capacity, `u64::MAX` when unbounded.
    cap_tab: Vec<u64>,
    src_tab: Vec<u32>,
    dst_tab: Vec<u32>,
    dur_off: Vec<u32>,
    dur_val: Vec<u64>,
    // Run-loop state, kept here so a run can pause at a reference-cycle
    // boundary and resume (with or without tracking) where it stopped.
    reference: usize,
    ref_phases: u64,
    seen: HashMap<StateKey, (u64, u64)>,
    steady: Option<SteadyState>,
    deadlocked: bool,
    last_snapshot_iter: u64,
    dirty: Vec<bool>,
    candidates: Vec<usize>,
    track: Tracker,
}

/// Reference cycles a tracked run first spends untracked: feasible probes
/// usually settle by then and pay nothing for the bookkeeping.
const TRACK_FROM: u64 = 2;
/// Graph iterations of links gathered before the first walk.
const WALK_AFTER: u64 = 2;
/// Graph iterations after [`TRACK_FROM`] at which a run that found no slow
/// cycle drops its links and continues untracked, bounding their memory.
const TRACK_SPAN: u64 = 16;
/// HSDF nodes (firings per graph iteration) above which a run is not
/// tracked, so a window holds at most `TRACK_SPAN · MAX_TRACKED_NODES`
/// links.
const MAX_TRACKED_NODES: u64 = 1 << 14;
/// Marks the absence of a link.
const NO_LINK: u32 = u32::MAX;

/// A dependency loop found by a tracked run: its firings took `time` for
/// `iterations` graph iterations, more than the budget allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlowCycle {
    pub time: u64,
    pub iterations: u64,
    /// Completed firings when the loop was found.
    pub firings: u64,
}

/// Why [`Simulation::advance`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Steady state, deadlock or a guard: the run is over.
    Done,
    /// The requested reference-cycle boundary was reached.
    Paused,
    /// A tracked run found a loop slower than its budget.
    Slow(SlowCycle),
}

/// One tracked firing and the firing whose completion enabled it.
#[derive(Debug, Clone, Copy)]
struct Link {
    actor: u32,
    phase: u32,
    /// The actor's firing index since time 0.
    firing: u64,
    end: u64,
    duration: u64,
    pred: u32,
    /// The last walk that passed through this link.
    walk: u32,
}

/// Critical-predecessor bookkeeping of a tracked run; empty otherwise.
#[derive(Debug, Default)]
struct Tracker {
    /// Firing-repetition vector, and each actor's first HSDF node.
    q: Vec<u64>,
    node_base: Vec<usize>,
    /// Most time one graph iteration may take.
    budget: u128,
    /// Reference-cycle boundary of the first walk.
    walk_from: u64,
    links: Vec<Link>,
    /// Per actor: link of its latest started and latest completed firing.
    started: Vec<u32>,
    done: Vec<u32>,
    /// Per HSDF node: the walk that last visited it, and its firing index
    /// and the time summed so far then.
    node_walk: Vec<u32>,
    node_mark: Vec<(u64, u64)>,
    walks: u32,
}

impl Tracker {
    /// An empty tracker for a graph with firing-repetition vector `q`.
    fn new(q: &[u64], r_src: u64, budget: u128) -> Self {
        let mut node_base = Vec::with_capacity(q.len());
        let mut nodes = 0usize;
        for &qa in q {
            node_base.push(nodes);
            nodes += qa as usize;
        }
        Tracker {
            q: q.to_vec(),
            node_base,
            budget,
            walk_from: TRACK_FROM + WALK_AFTER * r_src,
            links: Vec::with_capacity(nodes),
            started: vec![NO_LINK; q.len()],
            done: vec![NO_LINK; q.len()],
            node_walk: vec![0; nodes],
            node_mark: vec![(0, 0); nodes],
            walks: 0,
        }
    }
}

impl<'g> Simulation<'g> {
    /// Creates a simulator over `graph` with the given configuration.
    pub fn new(graph: &'g CsdfGraph, config: SimConfig) -> Self {
        let n = graph.n_actors();
        let m = graph.n_channels();
        let data = graph.channels().map(|(_, c)| c.initial_tokens).collect();
        let mut recorded = vec![false; n];
        for a in &config.record {
            recorded[a.index()] = true;
        }
        // Degree counts, then prefix sums, then a fill pass — the standard
        // CSR construction.
        let mut in_deg = vec![0u32; n];
        let mut out_deg = vec![0u32; n];
        for (_, ch) in graph.channels() {
            out_deg[ch.src.index()] += 1;
            in_deg[ch.dst.index()] += 1;
        }
        let prefix = |deg: &[u32]| {
            let mut off = Vec::with_capacity(deg.len() + 1);
            off.push(0u32);
            for &d in deg {
                off.push(off.last().unwrap() + d);
            }
            off
        };
        let in_off = prefix(&in_deg);
        let out_off = prefix(&out_deg);
        let mut in_ch = vec![0u32; m];
        let mut out_ch = vec![0u32; m];
        let mut in_cursor: Vec<u32> = in_off[..n].to_vec();
        let mut out_cursor: Vec<u32> = out_off[..n].to_vec();
        let mut cons_off = Vec::with_capacity(m + 1);
        let mut prod_off = Vec::with_capacity(m + 1);
        let mut cons_val = Vec::new();
        let mut prod_val = Vec::new();
        let mut cap_tab = Vec::with_capacity(m);
        let mut src_tab = Vec::with_capacity(m);
        let mut dst_tab = Vec::with_capacity(m);
        cons_off.push(0u32);
        prod_off.push(0u32);
        for (ci, ch) in graph.channels() {
            let s = ch.src.index();
            let d = ch.dst.index();
            out_ch[out_cursor[s] as usize] = ci.index() as u32;
            out_cursor[s] += 1;
            in_ch[in_cursor[d] as usize] = ci.index() as u32;
            in_cursor[d] += 1;
            cons_val.extend(ch.cons.iter());
            prod_val.extend(ch.prod.iter());
            cons_off.push(cons_val.len() as u32);
            prod_off.push(prod_val.len() as u32);
            cap_tab.push(ch.capacity.unwrap_or(u64::MAX));
            src_tab.push(s as u32);
            dst_tab.push(d as u32);
        }
        let mut dur_off = Vec::with_capacity(n + 1);
        let mut dur_val = Vec::new();
        dur_off.push(0u32);
        for (_, a) in graph.actors() {
            for p in 0..a.n_phases() {
                dur_val.push(a.phase_duration(p));
            }
            dur_off.push(dur_val.len() as u32);
        }
        let reference = config.reference.unwrap_or(ActorId(0)).index();
        let ref_phases = graph.actor(ActorId(reference)).n_phases() as u64;
        Simulation {
            graph,
            config,
            now: 0,
            data,
            reserved: vec![0; m],
            held: vec![0; m],
            phase: vec![0; n],
            in_flight: vec![None; n],
            busy_until: vec![0; n],
            completions: vec![0; n],
            total_firings: 0,
            max_pressure: vec![0; m],
            events: BinaryHeap::new(),
            recorded,
            fire_start: vec![0; n],
            records: Vec::new(),
            in_off,
            in_ch,
            out_off,
            out_ch,
            cons_off,
            cons_val,
            prod_off,
            prod_val,
            cap_tab,
            src_tab,
            dst_tab,
            dur_off,
            dur_val,
            reference,
            ref_phases,
            seen: HashMap::new(),
            steady: None,
            deadlocked: false,
            last_snapshot_iter: u64::MAX,
            // Candidate-driven start scheduling: starting a firing only
            // consumes resources, so only completions can enable new
            // firings. The dirty set holds exactly the actors whose
            // enablement may have changed.
            dirty: vec![true; n],
            candidates: (0..n).collect(),
            track: Tracker::default(),
        }
    }

    #[inline]
    fn inputs(&self, actor: usize) -> &[u32] {
        &self.in_ch[self.in_off[actor] as usize..self.in_off[actor + 1] as usize]
    }

    #[inline]
    fn outputs(&self, actor: usize) -> &[u32] {
        &self.out_ch[self.out_off[actor] as usize..self.out_off[actor + 1] as usize]
    }

    #[inline]
    fn cons(&self, ci: usize, phase: usize) -> u64 {
        self.cons_val[self.cons_off[ci] as usize + phase]
    }

    #[inline]
    fn prod(&self, ci: usize, phase: usize) -> u64 {
        self.prod_val[self.prod_off[ci] as usize + phase]
    }

    // Both event loops (tracked and untracked) call this per candidate;
    // left to the heuristics it is inlined into at most one of them.
    #[inline(always)]
    fn can_start(&self, actor: usize) -> bool {
        if self.in_flight[actor].is_some() {
            return false;
        }
        let phase = self.phase[actor] as usize;
        for &ci in self.inputs(actor) {
            let ci = ci as usize;
            if self.data[ci] < self.cons(ci, phase) {
                return false;
            }
        }
        for &ci in self.outputs(actor) {
            let ci = ci as usize;
            let pressure = self.data[ci] + self.reserved[ci] + self.held[ci];
            if pressure + self.prod(ci, phase) > self.cap_tab[ci] {
                return false;
            }
        }
        true
    }

    fn start<const TRACK: bool>(&mut self, actor: usize) {
        if TRACK {
            self.link_start(actor);
        }
        let phase = self.phase[actor] as usize;
        for k in self.in_off[actor]..self.in_off[actor + 1] {
            let ci = self.in_ch[k as usize] as usize;
            let cons = self.cons(ci, phase);
            debug_assert!(self.data[ci] >= cons);
            self.data[ci] -= cons;
            self.held[ci] += cons;
        }
        for k in self.out_off[actor]..self.out_off[actor + 1] {
            let ci = self.out_ch[k as usize] as usize;
            self.reserved[ci] += self.prod(ci, phase);
            let pressure = self.data[ci] + self.reserved[ci] + self.held[ci];
            if pressure > self.max_pressure[ci] {
                self.max_pressure[ci] = pressure;
            }
        }
        let duration = self.dur_val[self.dur_off[actor] as usize + phase];
        self.in_flight[actor] = Some(phase as u32);
        self.busy_until[actor] = self.now + duration;
        if self.recorded[actor] {
            self.fire_start[actor] = self.now;
        }
        self.events.push(Reverse((self.busy_until[actor], actor)));
    }

    fn complete<const TRACK: bool>(&mut self, actor: usize) {
        if TRACK {
            self.track.done[actor] = self.track.started[actor];
        }
        let id = ActorId(actor);
        let phase = self.in_flight[actor]
            .take()
            .expect("completion event for idle actor") as usize;
        for k in self.in_off[actor]..self.in_off[actor + 1] {
            let ci = self.in_ch[k as usize] as usize;
            let cons = self.cons(ci, phase);
            debug_assert!(self.held[ci] >= cons);
            self.held[ci] -= cons;
        }
        for k in self.out_off[actor]..self.out_off[actor + 1] {
            let ci = self.out_ch[k as usize] as usize;
            let prod = self.prod(ci, phase);
            debug_assert!(self.reserved[ci] >= prod);
            self.reserved[ci] -= prod;
            self.data[ci] += prod;
        }
        let n_phases = self.graph.actor(id).n_phases() as u32;
        self.phase[actor] = (self.phase[actor] + 1) % n_phases;
        self.completions[actor] += 1;
        self.total_firings += 1;
        if self.recorded[actor] {
            self.records.push(FiringRecord {
                actor: id,
                phase: phase as u32,
                start: self.fire_start[actor],
                end: self.now,
            });
        }
    }

    fn snapshot(&self) -> StateKey {
        StateKey {
            phases: self.phase.clone(),
            data: self.data.clone(),
            busy: (0..self.graph.n_actors())
                .map(|a| match self.in_flight[a] {
                    Some(ph) => (self.busy_until[a] - self.now, ph),
                    None => (u64::MAX, u32::MAX),
                })
                .collect(),
        }
    }

    /// Records the link of a firing of `actor` about to start at `now`,
    /// before it takes its tokens and space. The predecessor is a firing
    /// that completed at `now` and whose completion this firing needed:
    ///
    /// 1. the actor's own previous firing;
    /// 2. the latest firing of an input's producer, if without its tokens
    ///    the channel would hold fewer than this phase consumes;
    /// 3. the latest firing of a bounded output's consumer, if without the
    ///    space it freed the channel would lack room for this phase.
    ///
    /// Each is an edge of the HSDF expansion of the capacitated graph
    /// (the sequential, data and space dependencies), tight at `now`. In
    /// any other case the chain ends here: a missing link only loses a
    /// proof, a wrong one would be unsound.
    fn link_start(&mut self, actor: usize) {
        let phase = self.phase[actor] as usize;
        let pred = self.critical_pred(actor, phase);
        let duration = self.dur_val[self.dur_off[actor] as usize + phase];
        let index = self.track.links.len() as u32;
        self.track.links.push(Link {
            actor: actor as u32,
            phase: phase as u32,
            firing: self.completions[actor],
            end: self.now + duration,
            duration,
            pred,
            walk: 0,
        });
        self.track.started[actor] = index;
    }

    /// The link of the firing whose completion at `now` enabled `actor`'s
    /// firing of `phase`, or [`NO_LINK`] (see [`Simulation::link_start`]).
    fn critical_pred(&self, actor: usize, phase: usize) -> u32 {
        let links = &self.track.links;
        let done = &self.track.done;
        let ended_now = |l: u32| l != NO_LINK && links[l as usize].end == self.now;
        if ended_now(done[actor]) {
            return done[actor];
        }
        for &ci in self.inputs(actor) {
            let ci = ci as usize;
            let u = done[self.src_tab[ci] as usize];
            if ended_now(u) {
                let produced = self.prod(ci, links[u as usize].phase as usize);
                if self.data[ci] < self.cons(ci, phase) + produced {
                    return u;
                }
            }
        }
        for &ci in self.outputs(actor) {
            let ci = ci as usize;
            let u = done[self.dst_tab[ci] as usize];
            if self.cap_tab[ci] != u64::MAX && ended_now(u) {
                let pressure = self.data[ci] + self.reserved[ci] + self.held[ci];
                let freed = self.cons(ci, links[u as usize].phase as usize);
                if pressure + self.prod(ci, phase) + freed > self.cap_tab[ci] {
                    return u;
                }
            }
        }
        NO_LINK
    }

    /// Walks the links back from every actor's latest firing to the first
    /// repeated HSDF node, and returns the first loop whose time exceeds
    /// `iterations · budget`. A walk also ends where an earlier walk of
    /// this round already went on, so one round costs at most one step per
    /// link.
    fn slow_cycle(&mut self) -> Option<SlowCycle> {
        let t = &mut self.track;
        let round = t.walks + 1;
        for a in 0..t.started.len() {
            let mut l = t.started[a];
            t.walks += 1;
            let walk = t.walks;
            // Time from the start of the current firing to the start of the
            // walk's first one.
            let mut time = 0u64;
            while l != NO_LINK {
                let link = &mut t.links[l as usize];
                if link.walk >= round {
                    break;
                }
                link.walk = walk;
                let actor = link.actor as usize;
                let node = t.node_base[actor] + (link.firing % t.q[actor]) as usize;
                if t.node_walk[node] == walk {
                    // The loop from this firing to its later twin.
                    let (later, time_later) = t.node_mark[node];
                    let iterations = (later - link.firing) / t.q[actor];
                    let loop_time = time - time_later;
                    // An overflowing limit is beyond any u64 loop time.
                    let limit = u128::from(iterations).checked_mul(t.budget);
                    if limit.is_some_and(|limit| u128::from(loop_time) > limit) {
                        return Some(SlowCycle {
                            time: loop_time,
                            iterations,
                            firings: self.total_firings,
                        });
                    }
                    break;
                }
                t.node_walk[node] = walk;
                t.node_mark[node] = (link.firing, time);
                l = link.pred;
                if l != NO_LINK {
                    // Saturating only shortens the loop: never a false proof.
                    time = time.saturating_add(t.links[l as usize].duration);
                }
            }
        }
        None
    }

    /// Runs the event loop until the run ends or, at a reference-cycle
    /// boundary, `pause_at` cycles are complete or (when `TRACK`) a slow
    /// loop is found. Resuming after [`Stop::Paused`] continues exactly
    /// where the run stopped.
    fn advance<const TRACK: bool>(&mut self, pause_at: u64) -> Stop {
        let reference = self.reference;
        let ref_phases = self.ref_phases;
        loop {
            // Start every enabled candidate at the current time.
            while let Some(a) = self.candidates.pop() {
                self.dirty[a] = false;
                if self.can_start(a) {
                    self.start::<TRACK>(a);
                }
            }

            // Steady-state snapshot at reference-iteration boundaries: only
            // when the reference actor has just wrapped its phase cycle and
            // the state at `now` is saturated (nothing more can start).
            if self.config.stop_at_steady_state
                && self.completions[reference] > 0
                && self.completions[reference].is_multiple_of(ref_phases)
                && self.phase[reference] == 0
                && self.completions[reference] / ref_phases != self.last_snapshot_iter
            {
                let iterations = self.completions[reference] / ref_phases;
                self.last_snapshot_iter = iterations;
                match self.seen.entry(self.snapshot()) {
                    Entry::Occupied(prev) => {
                        let (it0, t0) = *prev.get();
                        self.steady = Some(SteadyState {
                            reference: ActorId(reference),
                            iterations: iterations - it0,
                            period: self.now - t0,
                        });
                        return Stop::Done;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert((iterations, self.now));
                    }
                }
                if TRACK && iterations >= self.track.walk_from {
                    if let Some(slow) = self.slow_cycle() {
                        return Stop::Slow(slow);
                    }
                }
                if iterations >= pause_at {
                    return Stop::Paused;
                }
            }

            if self.total_firings >= self.config.max_firings {
                return Stop::Done;
            }

            // Advance to the next completion.
            let Some(Reverse((t, _))) = self.events.peek().copied() else {
                // No in-flight firings and nothing startable: deadlock (or a
                // graph with no fireable actor at all).
                self.deadlocked = true;
                return Stop::Done;
            };
            if t > self.config.max_time {
                return Stop::Done;
            }
            self.now = t;
            while let Some(Reverse((t2, actor))) = self.events.peek().copied() {
                if t2 != t {
                    break;
                }
                self.events.pop();
                self.complete::<TRACK>(actor);
                // Wake the actors this completion may have enabled: the
                // completer itself, consumers of its outputs (new data),
                // and producers into its inputs (freed space).
                let wake = |a: usize, dirty: &mut Vec<bool>, candidates: &mut Vec<usize>| {
                    if !dirty[a] {
                        dirty[a] = true;
                        candidates.push(a);
                    }
                };
                wake(actor, &mut self.dirty, &mut self.candidates);
                for k in self.out_off[actor]..self.out_off[actor + 1] {
                    let ci = self.out_ch[k as usize] as usize;
                    wake(
                        self.dst_tab[ci] as usize,
                        &mut self.dirty,
                        &mut self.candidates,
                    );
                }
                for k in self.in_off[actor]..self.in_off[actor + 1] {
                    let ci = self.in_ch[k as usize] as usize;
                    wake(
                        self.src_tab[ci] as usize,
                        &mut self.dirty,
                        &mut self.candidates,
                    );
                }
            }
        }
    }

    fn outcome(self) -> SimOutcome {
        SimOutcome {
            end_time: self.now,
            total_firings: self.total_firings,
            completions: self.completions,
            max_pressure: self.max_pressure,
            steady: self.steady,
            deadlocked: self.deadlocked,
            records: self.records,
        }
    }

    /// Runs the simulation to a guard, deadlock, or (if enabled) steady
    /// state.
    ///
    /// # Errors
    ///
    /// Currently infallible in the error-return sense — deadlock and guard
    /// exhaustion are reported in the [`SimOutcome`] rather than as errors so
    /// that callers can still inspect partial results. The `Result` is kept
    /// for forward compatibility.
    pub fn run(mut self) -> Result<SimOutcome, DataflowError> {
        self.advance::<false>(u64::MAX);
        Ok(self.outcome())
    }

    /// Like [`Simulation::run`], but may stop early on a dependency loop
    /// whose time per graph iteration exceeds `budget` (see the module
    /// header). `q` is the graph's firing-repetition vector and `r_src` the
    /// reference actor's cycle repetitions. Only sound when the graph is
    /// strongly connected through its data and space edges; the caller
    /// checks that. Without a slow loop the outcome equals `run`'s.
    pub(crate) fn run_tracked(
        mut self,
        q: &[u64],
        r_src: u64,
        budget: u128,
    ) -> Result<SimOutcome, SlowCycle> {
        let nodes = q.iter().try_fold(0u64, |sum, &qa| sum.checked_add(qa));
        if nodes.is_none_or(|nodes| nodes > MAX_TRACKED_NODES) {
            self.advance::<false>(u64::MAX);
            return Ok(self.outcome());
        }
        if self.advance::<false>(TRACK_FROM) == Stop::Paused {
            self.track = Tracker::new(q, r_src, budget);
            match self.advance::<true>(TRACK_FROM + TRACK_SPAN * r_src) {
                Stop::Slow(slow) => return Err(slow),
                Stop::Paused => {
                    self.track = Tracker::default();
                    self.advance::<false>(u64::MAX);
                }
                Stop::Done => {}
            }
        }
        Ok(self.outcome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseVec;

    /// producer (wcet 10) -> consumer (wcet 4), 1 token per firing.
    fn chain() -> CsdfGraph {
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(10), 1);
        let c = g.add_actor("c", PhaseVec::single(4), 1);
        g.add_channel(p, c, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g
    }

    #[test]
    fn steady_state_of_simple_chain_is_producer_limited() {
        let g = chain();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        assert_eq!(steady.period / steady.iterations, 10);
        assert!(!out.deadlocked);
    }

    #[test]
    fn consumer_limited_when_consumer_slower_and_buffer_bounded() {
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(2), 1);
        let c = g.add_actor("c", PhaseVec::single(9), 1);
        g.add_channel_full(p, c, PhaseVec::single(1), PhaseVec::single(1), 0, Some(2))
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        assert_eq!(steady.period / steady.iterations, 9);
    }

    #[test]
    fn deadlock_detected_on_token_starved_cycle() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        // Back edge with no initial tokens: nobody can ever fire.
        g.add_channel(b, a, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        assert!(out.deadlocked);
        assert_eq!(out.total_firings, 0);
    }

    #[test]
    fn cycle_with_initial_token_pipelines() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(3), 1);
        let b = g.add_actor("b", PhaseVec::single(5), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel_full(b, a, PhaseVec::single(1), PhaseVec::single(1), 1, None)
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        // One token in the cycle: period = 3 + 5.
        assert_eq!(steady.period / steady.iterations, 8);
    }

    #[test]
    fn two_tokens_in_cycle_hide_latency() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(3), 1);
        let b = g.add_actor("b", PhaseVec::single(5), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel_full(b, a, PhaseVec::single(1), PhaseVec::single(1), 2, None)
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        // Bottleneck actor dominates: period 5.
        assert_eq!(steady.period / steady.iterations, 5);
    }

    #[test]
    fn max_pressure_reflects_needed_capacity() {
        // Fast producer, slow consumer, unbounded channel, short run.
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(1), 1);
        let c = g.add_actor("c", PhaseVec::single(10), 1);
        g.add_channel(p, c, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let cfg = SimConfig {
            max_firings: 100,
            stop_at_steady_state: false,
            ..SimConfig::default()
        };
        let out = Simulation::new(&g, cfg).run().unwrap();
        // Producer runs ~10x faster: pressure builds up well beyond 2.
        assert!(out.max_pressure[0] > 5, "pressure {}", out.max_pressure[0]);
    }

    #[test]
    fn csdf_phases_respected() {
        // Actor with phases ⟨2,0⟩ production; consumer consumes ⟨1⟩.
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::from_slice(&[4, 6]), 1);
        let c = g.add_actor("c", PhaseVec::single(3), 1);
        g.add_channel(p, c, PhaseVec::from_slice(&[2, 0]), PhaseVec::single(1))
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        // Producer cycle = 10 time units producing 2 tokens; consumer needs
        // 2 firings (6 time units) per producer cycle: producer-limited.
        assert_eq!(steady.period / steady.iterations, 10);
    }

    #[test]
    fn bounded_capacity_one_serialises_chain() {
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(4), 1);
        let c = g.add_actor("c", PhaseVec::single(4), 1);
        g.add_channel_full(p, c, PhaseVec::single(1), PhaseVec::single(1), 0, Some(1))
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        // Capacity 1 with space released only at consumer completion fully
        // serialises the two actors: period = 4 + 4.
        assert_eq!(steady.period / steady.iterations, 8);
    }

    /// src (period 100) → a (50) → b (51), every channel bounded, so the
    /// graph is strongly connected through its space edges. Capacity 1
    /// between `a` and `b` serialises them into a 101-per-iteration loop,
    /// 1% slower than the source; the 64-token input buffer takes thousands
    /// of firings to fill before the state repeats.
    fn near_threshold_pipeline(ab_capacity: u64) -> CsdfGraph {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", PhaseVec::single(100), 1);
        let a = g.add_actor("a", PhaseVec::single(50), 1);
        let b = g.add_actor("b", PhaseVec::single(51), 1);
        let one = || PhaseVec::single(1);
        g.add_channel_full(src, a, one(), one(), 0, Some(64))
            .unwrap();
        g.add_channel_full(a, b, one(), one(), 0, Some(ab_capacity))
            .unwrap();
        g
    }

    fn tracked(g: &CsdfGraph, budget: u128) -> Result<SimOutcome, SlowCycle> {
        let q = g.firing_repetition_vector().unwrap();
        Simulation::new(g, SimConfig::default()).run_tracked(&q, 1, budget)
    }

    #[test]
    fn tracked_run_stops_on_a_loop_slower_than_the_budget() {
        let g = near_threshold_pipeline(1);
        let plain = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = plain.steady.expect("steady state");
        assert_eq!((steady.iterations, steady.period), (1, 101));
        assert!(plain.total_firings > 10_000, "{}", plain.total_firings);

        let slow = tracked(&g, 100).expect_err("a 101-per-iteration loop");
        assert_eq!((slow.time, slow.iterations), (101, 1));
        assert!(
            slow.firings * 50 < plain.total_firings,
            "stopped after {} of {} firings",
            slow.firings,
            plain.total_firings
        );
        // With the budget at the loop's own time there is no proof: the run
        // goes on to exactly the plain run's outcome.
        let outcome = tracked(&g, 101).expect("no loop slower than 101");
        assert_eq!(format!("{outcome:?}"), format!("{plain:?}"));
    }

    #[test]
    fn tracked_run_of_a_feasible_graph_equals_the_plain_run() {
        let g = near_threshold_pipeline(2);
        let plain = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = plain.steady.expect("steady state");
        assert_eq!((steady.iterations, steady.period), (1, 100));
        let outcome = tracked(&g, 100).expect("the source is the bottleneck");
        assert_eq!(format!("{outcome:?}"), format!("{plain:?}"));
    }

    /// A draw in `0..n` from a splitmix64 stream.
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// A chain of 2–4 multi-phase actors with durations 1–3 (so many
    /// completions coincide), multi-rate channels bounded near their
    /// floor, and sometimes a forward shortcut from the first to the last
    /// actor (a fork and a join) or a back edge carrying one iteration of
    /// tokens.
    fn coincident_chain(seed: u64) -> CsdfGraph {
        let rng = &mut { seed };
        let mut g = CsdfGraph::new();
        let phases: Vec<usize> = (0..2 + draw(rng, 3))
            .map(|_| 1 + draw(rng, 2) as usize)
            .collect();
        let ids: Vec<ActorId> = phases
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let wcet: Vec<u64> = (0..p).map(|_| 1 + draw(rng, 3)).collect();
                g.add_actor(format!("a{i}"), PhaseVec::from_slice(&wcet), 1)
            })
            .collect();
        let rates = |rng: &mut u64, p: usize| {
            let v: Vec<u64> = (0..p)
                .map(|k| draw(rng, 3).max(u64::from(k == 0)))
                .collect();
            PhaseVec::from_slice(&v)
        };
        for (i, w) in ids.windows(2).enumerate() {
            let (prod, cons) = (rates(rng, phases[i]), rates(rng, phases[i + 1]));
            let floor = prod.max().max(cons.max());
            let cap = floor + draw(rng, 2 * floor);
            g.add_channel_full(w[0], w[1], prod, cons, 0, Some(cap))
                .unwrap();
        }
        // Per cycle, `from` produces r_to and `to` consumes r_from tokens,
        // in their first phases: consistent with the chain.
        let reps = g.repetition_vector().unwrap();
        let (first, last) = (ids[0], *ids.last().unwrap());
        let (r_first, r_last) = (reps[first.index()], reps[last.index()]);
        let one_phase = |total: u64, phases: usize| {
            let mut v = vec![0; phases];
            v[0] = total;
            PhaseVec::from_slice(&v)
        };
        let last_phases = phases[phases.len() - 1];
        let (forward, back) = (
            one_phase(r_last, phases[0]),
            one_phase(r_first, last_phases),
        );
        match draw(rng, 3) {
            0 => {
                let cap = r_first.max(r_last) + draw(rng, 2);
                g.add_channel_full(first, last, forward, back, 0, Some(cap))
                    .unwrap();
            }
            1 => {
                let tokens = r_first * r_last;
                let cap = tokens + draw(rng, tokens + 1);
                g.add_channel_full(last, first, back, forward, tokens, Some(cap))
                    .unwrap();
            }
            _ => {}
        }
        g
    }

    /// Every link a tracked run records joins two firings by an edge of the
    /// HSDF expansion of the capacitated graph, with the iteration distance
    /// as its tokens, and is tight: the firing started as its predecessor
    /// ended. A slow-cycle proof is sound only because of this.
    #[test]
    fn every_link_is_a_tight_hsdf_edge() {
        use crate::hsdf;
        use std::collections::HashSet;
        let mut checked = 0;
        for seed in 0..300 {
            let g = coincident_chain(seed);
            let q = g.firing_repetition_vector().unwrap();
            let h = hsdf::expand(&g.expand_capacities()).unwrap();
            let edges: HashSet<(usize, usize, u64)> =
                h.edges.iter().map(|e| (e.from, e.to, e.tokens)).collect();
            let config = SimConfig {
                max_firings: 20,
                stop_at_steady_state: false,
                ..SimConfig::default()
            };
            // Untracked at first, so some firings are enabled by
            // completions that have no link.
            let mut sim = Simulation::new(&g, config);
            sim.advance::<false>(u64::MAX);
            sim.config.max_firings = 320;
            sim.track = Tracker::new(&q, 1, u128::MAX);
            sim.advance::<true>(u64::MAX);
            let t = &sim.track;
            for link in &t.links {
                if link.pred == NO_LINK {
                    continue;
                }
                let pred = &t.links[link.pred as usize];
                let node = |l: &Link| {
                    let a = l.actor as usize;
                    (t.node_base[a] + (l.firing % q[a]) as usize, l.firing / q[a])
                };
                let ((from, from_iter), (to, to_iter)) = (node(pred), node(link));
                assert!(
                    edges.contains(&(from, to, to_iter - from_iter)),
                    "seed {seed}: link {pred:?} -> {link:?} is no HSDF edge"
                );
                assert_eq!(pred.end, link.end - link.duration, "seed {seed}: slack");
                checked += 1;
            }
        }
        assert!(checked > 50_000, "only {checked} links checked");
    }

    #[test]
    fn guard_exhaustion_reports_partial_result() {
        let g = chain();
        let cfg = SimConfig {
            max_firings: 5,
            stop_at_steady_state: false,
            ..SimConfig::default()
        };
        let out = Simulation::new(&g, cfg).run().unwrap();
        assert!(out.total_firings >= 5);
        assert!(out.steady.is_none());
    }
}
