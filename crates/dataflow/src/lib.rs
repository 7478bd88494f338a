//! Cyclo-Static Data Flow (CSDF) modelling and analysis.
//!
//! This crate is the dataflow substrate of the `rtsm` workspace. It provides
//! the machinery the run-time spatial mapper needs for *step 4* of the DATE
//! 2008 algorithm — checking that a candidate mapping satisfies the
//! application's QoS constraints — as well as buffer-capacity computation in
//! the spirit of Wiggers et al. (DAC 2007), which the paper references for
//! its feasibility check.
//!
//! # Contents
//!
//! * [`PhaseVec`] — compact run-length encoded phase vectors implementing the
//!   paper's `⟨x^n, y^m⟩` notation for per-phase WCETs and token rates.
//! * [`CsdfGraph`] — actors, channels, initial tokens and capacities, with
//!   validation and repetition-vector computation ([`CsdfGraph::repetition_vector`]).
//! * [`simulate`] — a self-timed discrete-event execution engine with exact
//!   periodic-steady-state detection.
//! * [`throughput`] — throughput analysis and period feasibility checks.
//! * [`buffer`] — minimal buffer-capacity computation under a throughput
//!   constraint (binary search with back-pressure simulation).
//! * [`latency`] — end-to-end latency measurement in steady state.
//! * [`hsdf`] / [`mcr`] — CSDF→HSDF expansion and maximum-cycle-ratio
//!   analysis, used to cross-validate the simulator on small graphs.
//! * [`dot`] — Graphviz export.
//!
//! # Example
//!
//! ```
//! use rtsm_dataflow::{CsdfGraph, PhaseVec};
//!
//! // producer -> consumer, 2 tokens per firing each way.
//! let mut g = CsdfGraph::new();
//! let p = g.add_actor("prod", PhaseVec::uniform(10, 1), 1);
//! let c = g.add_actor("cons", PhaseVec::uniform(5, 1), 1);
//! g.add_channel(p, c, PhaseVec::uniform(2, 1), PhaseVec::uniform(2, 1))
//!     .unwrap();
//! let reps = g.repetition_vector().unwrap();
//! assert_eq!(reps[p.index()], reps[c.index()]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod dot;
pub mod error;
pub mod graph;
pub mod hsdf;
pub mod latency;
pub mod mcr;
pub mod phase;
pub mod rational;
pub mod simulate;
pub mod throughput;

pub use buffer::{
    apply_sizing, clear_sizing_cache, size_buffers, BufferSizing, BufferSizingConfig,
};
pub use error::DataflowError;
pub use graph::{ActorId, ActorSpec, Channel, ChannelId, CsdfGraph};
pub use latency::iteration_latency;
pub use phase::PhaseVec;
pub use rational::Ratio;
pub use simulate::{FiringRecord, SimConfig, SimOutcome, Simulation, SteadyState};
pub use throughput::{check_source_period, steady_state_throughput, Throughput};
