//! The benchmark's recording probe.
//!
//! [`Recorder`] consumes the spans and counters the program already
//! emits through `rtsm_obs`, plus one span of the benchmark's own: the
//! timing wrapper's `map_constrained` call ([`CALL`]). Every span is kept
//! in memory; [`Recorder::summary`] then derives, per span kind, the count,
//! the total time and the self time (span minus the part its children
//! cover), so the self times of a tree add up to its root exactly.

use rtsm_obs::{Counter, Probe, Span, N_COUNTERS, N_SPANS};
use std::cell::RefCell;
use std::time::Instant;

/// Span kind of the benchmark's timing wrapper around `map_constrained`.
pub const CALL: usize = N_SPANS;

/// Number of span kinds: the program's plus [`CALL`].
pub const N_KINDS: usize = N_SPANS + 1;

#[derive(Debug)]
struct SpanRecord {
    kind: usize,
    parent: Option<usize>,
    begin_ns: u64,
    end_ns: u64,
}

/// Records every span and counter emitted on its thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
    counters: RefCell<[u64; N_COUNTERS]>,
    unbalanced: RefCell<u64>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counters: RefCell::new([0; N_COUNTERS]),
            unbalanced: RefCell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `kind` (a [`Span::index`] or [`CALL`]).
    pub fn begin(&self, kind: usize) {
        let begin_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        spans.push(SpanRecord {
            kind,
            parent: open.last().copied(),
            begin_ns,
            end_ns: begin_ns,
        });
        open.push(spans.len() - 1);
    }

    /// Closes the innermost open span, which must be of `kind`.
    pub fn end(&self, kind: usize) {
        let end_ns = self.now_ns();
        match self.open.borrow_mut().pop() {
            Some(i) if self.spans.borrow()[i].kind == kind => {
                self.spans.borrow_mut()[i].end_ns = end_ns;
            }
            _ => *self.unbalanced.borrow_mut() += 1,
        }
    }

    /// Per-kind totals and self times, plus the counters.
    pub fn summary(&self) -> Summary {
        let spans = self.spans.borrow();
        let mut summary = Summary {
            counters: *self.counters.borrow(),
            unbalanced: *self.unbalanced.borrow() + self.open.borrow().len() as u64,
            ..Summary::default()
        };
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            let duration = s.end_ns - s.begin_ns;
            summary.n[s.kind] += 1;
            summary.total_ns[s.kind] += duration;
            match s.parent {
                Some(p) => {
                    let parent = &spans[p];
                    if s.begin_ns < parent.begin_ns || s.end_ns > parent.end_ns {
                        summary.unbalanced += 1;
                    }
                    child_ns[p] += duration;
                }
                None => summary.root_ns += duration,
            }
        }
        for (s, &children) in spans.iter().zip(&child_ns) {
            let duration = s.end_ns - s.begin_ns;
            match duration.checked_sub(children) {
                Some(own) => summary.self_ns[s.kind] += own,
                None => summary.unbalanced += 1,
            }
        }
        summary
    }
}

impl Probe for Recorder {
    fn span_begin(&self, span: Span) {
        self.begin(span.index());
    }

    fn span_end(&self, span: Span) {
        self.end(span.index());
    }

    fn count(&self, counter: Counter, delta: u64) {
        self.counters.borrow_mut()[counter.index()] += delta;
    }
}

/// What a [`Recorder`] saw, aggregated per span kind.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub n: [u64; N_KINDS],
    pub total_ns: [u64; N_KINDS],
    pub self_ns: [u64; N_KINDS],
    /// Total time of the spans with no parent.
    pub root_ns: u64,
    pub counters: [u64; N_COUNTERS],
    /// Spans left open, closed out of order, outside their parent, or
    /// shorter than their children; any of these voids the self times.
    pub unbalanced: u64,
}

impl Summary {
    /// Adds `other`'s spans and counters to this summary.
    pub fn merge(&mut self, other: &Summary) {
        for k in 0..N_KINDS {
            self.n[k] += other.n[k];
            self.total_ns[k] += other.total_ns[k];
            self.self_ns[k] += other.self_ns[k];
        }
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters) {
            *mine += theirs;
        }
        self.root_ns += other.root_ns;
        self.unbalanced += other.unbalanced;
    }

    pub fn n(&self, span: Span) -> u64 {
        self.n[span.index()]
    }

    pub fn total_ms(&self, span: Span) -> f64 {
        self.total_ns[span.index()] as f64 / 1e6
    }

    pub fn self_ms(&self, span: Span) -> f64 {
        self.self_ns[span.index()] as f64 / 1e6
    }

    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Whether the self times of all spans add up to the root spans'
    /// time, as they must when every child lies inside its parent.
    pub fn self_times_add_up(&self) -> bool {
        self.unbalanced == 0 && self.self_ns.iter().sum::<u64>() == self.root_ns
    }
}
