//! Seeded synthetic streaming applications.
//!
//! Applications are generated so that they always pass
//! [`ApplicationSpec::validate`]: every process gets an implementation for
//! its *preferred* tile kind (cheap, specialized) and, with configurable
//! probability, alternatives on other kinds (more expensive, in the spirit
//! of Table 1's ARM-vs-MONTIUM gap). Rates are consistent by construction.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm_app::{
    ApplicationSpec, Endpoint, Implementation, ImplementationLibrary, ProcessGraph, ProcessId,
    QosSpec,
};
use rtsm_dataflow::PhaseVec;
use rtsm_platform::TileKind;

/// Topology of the generated KPN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphShape {
    /// A straight pipeline (the dominant streaming-DSP shape).
    Chain,
    /// A fork of `width` parallel branches between a splitter and a joiner.
    ForkJoin {
        /// Number of parallel branches (≥ 1).
        width: usize,
    },
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// RNG seed (generation is fully deterministic per seed).
    pub seed: u64,
    /// Number of data-stream processes.
    pub n_processes: usize,
    /// Graph topology.
    pub shape: GraphShape,
    /// Tile kinds implementations may target; the first entry is every
    /// process's *preferred* (cheapest) kind unless the RNG diversifies.
    pub tile_kinds: Vec<TileKind>,
    /// Probability that a process has an implementation for each
    /// non-preferred kind.
    pub alt_impl_probability: f64,
    /// Application period in picoseconds.
    pub period_ps: u64,
    /// Inclusive range of per-channel tokens per period.
    pub tokens_range: (u64, u64),
    /// Inclusive range of total WCET cycles per period for the preferred
    /// implementation; alternatives are scaled up.
    pub wcet_range: (u64, u64),
    /// Energy (pJ/period) range for preferred implementations.
    pub energy_range: (u64, u64),
    /// Energy multiplier for non-preferred implementations (×1000, e.g.
    /// 1900 ≈ the paper's ARM/MONTIUM gap of ~1.9×).
    pub alt_energy_factor_milli: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            seed: 1,
            n_processes: 6,
            shape: GraphShape::Chain,
            tile_kinds: vec![TileKind::Montium, TileKind::Arm],
            alt_impl_probability: 0.8,
            period_ps: 4_000_000,
            tokens_range: (8, 64),
            wcet_range: (60, 500),
            energy_range: (20_000, 150_000),
            alt_energy_factor_milli: 1900,
        }
    }
}

fn phase_split(rng: &mut StdRng, total: u64, max_phases: u32) -> PhaseVec {
    let phases = rng.random_range(1..=max_phases.min(total.max(1) as u32)) as u64;
    // Bresenham-even split keeps totals exact.
    let q = total / phases;
    let r = total % phases;
    let values: Vec<u64> = (0..phases).map(|i| q + u64::from(i < r)).collect();
    PhaseVec::from_slice(&values)
}

fn wcet_vec(rng: &mut StdRng, total: u64, phases: usize) -> PhaseVec {
    // Random positive split of `total` cycles over exactly `phases` phases.
    let mut remaining = total.max(phases as u64);
    let mut values = Vec::with_capacity(phases);
    for i in 0..phases {
        let left = (phases - i - 1) as u64;
        let max_here = remaining - left; // leave ≥1 per remaining phase
        let v = if left == 0 {
            remaining
        } else {
            rng.random_range(1..=max_here.max(1))
        };
        values.push(v);
        remaining -= v;
    }
    PhaseVec::from_slice(&values)
}

/// Generates one synthetic application.
///
/// # Panics
///
/// Panics if `config.n_processes` is 0 or `tile_kinds` is empty. The
/// returned spec always validates (asserted in tests over many seeds).
#[allow(clippy::needless_range_loop)] // branch indices double as process ids
pub fn synthetic_app(config: &SyntheticConfig) -> ApplicationSpec {
    assert!(config.n_processes >= 1, "need at least one process");
    assert!(!config.tile_kinds.is_empty(), "need at least one tile kind");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut graph = ProcessGraph::new();

    let processes: Vec<ProcessId> = (0..config.n_processes)
        .map(|i| graph.add_process_abbrev(format!("proc{i}"), format!("p{i}")))
        .collect();

    let tok = |rng: &mut StdRng| rng.random_range(config.tokens_range.0..=config.tokens_range.1);

    // Wire the topology.
    match config.shape {
        GraphShape::Chain => {
            graph
                .add_channel(Endpoint::StreamInput, Endpoint::Process(processes[0]), {
                    tok(&mut rng)
                })
                .expect("valid endpoints");
            for pair in processes.windows(2) {
                graph
                    .add_channel(Endpoint::Process(pair[0]), Endpoint::Process(pair[1]), {
                        tok(&mut rng)
                    })
                    .expect("valid endpoints");
            }
            graph
                .add_channel(
                    Endpoint::Process(processes[config.n_processes - 1]),
                    Endpoint::StreamOutput,
                    tok(&mut rng),
                )
                .expect("valid endpoints");
        }
        GraphShape::ForkJoin { width } => {
            let width = width.clamp(1, config.n_processes.saturating_sub(2).max(1));
            // processes[0] splits, processes[1..=width] are branches, the
            // rest form a tail chain after the join.
            graph
                .add_channel(Endpoint::StreamInput, Endpoint::Process(processes[0]), {
                    tok(&mut rng)
                })
                .expect("valid endpoints");
            let join_index = width + 1;
            for b in 1..=width {
                graph
                    .add_channel(
                        Endpoint::Process(processes[0]),
                        Endpoint::Process(processes[b]),
                        tok(&mut rng),
                    )
                    .expect("valid endpoints");
                if join_index < config.n_processes {
                    graph
                        .add_channel(
                            Endpoint::Process(processes[b]),
                            Endpoint::Process(processes[join_index]),
                            tok(&mut rng),
                        )
                        .expect("valid endpoints");
                }
            }
            if join_index < config.n_processes {
                for pair in processes[join_index..].windows(2) {
                    graph
                        .add_channel(Endpoint::Process(pair[0]), Endpoint::Process(pair[1]), {
                            tok(&mut rng)
                        })
                        .expect("valid endpoints");
                }
                graph
                    .add_channel(
                        Endpoint::Process(processes[config.n_processes - 1]),
                        Endpoint::StreamOutput,
                        tok(&mut rng),
                    )
                    .expect("valid endpoints");
            } else {
                for b in 1..=width {
                    graph
                        .add_channel(Endpoint::Process(processes[b]), Endpoint::StreamOutput, {
                            tok(&mut rng)
                        })
                        .expect("valid endpoints");
                }
            }
        }
    }

    // Implementation library: single-cycle-per-period actors whose rate
    // totals equal the channel traffic (consistent by construction).
    let mut library = ImplementationLibrary::new();
    for &pid in &processes {
        let inputs: Vec<_> = graph.inputs_of(pid).collect();
        let outputs: Vec<_> = graph.outputs_of(pid).collect();
        let preferred_wcet = rng.random_range(config.wcet_range.0..=config.wcet_range.1);
        let preferred_energy = rng.random_range(config.energy_range.0..=config.energy_range.1);
        for (k, &kind) in config.tile_kinds.iter().enumerate() {
            let preferred = k == 0;
            if !preferred && !rng.random_bool(config.alt_impl_probability) {
                continue;
            }
            // Alternatives are slower and hungrier, like Table 1's ARM rows.
            let wcet_total = if preferred {
                preferred_wcet
            } else {
                preferred_wcet + rng.random_range(0..=preferred_wcet)
            };
            let energy = if preferred {
                preferred_energy
            } else {
                preferred_energy * config.alt_energy_factor_milli / 1000
            };
            // Phase structure: split one input's tokens into phases and
            // align every port to that phase count.
            let phases = if let Some(first) = inputs.first() {
                phase_split(&mut rng, graph.channel(*first).tokens_per_period, 6).len()
            } else if let Some(first) = outputs.first() {
                phase_split(&mut rng, graph.channel(*first).tokens_per_period, 6).len()
            } else {
                1
            };
            let rate_vec = |total: u64| {
                let q = total / phases as u64;
                let r = total % phases as u64;
                let values: Vec<u64> = (0..phases as u64).map(|i| q + u64::from(i < r)).collect();
                PhaseVec::from_slice(&values)
            };
            let implementation = Implementation {
                name: format!("{} @ {kind}", graph.process(pid).name),
                tile_kind: kind,
                wcet: wcet_vec(&mut rng, wcet_total, phases),
                inputs: inputs
                    .iter()
                    .map(|c| rate_vec(graph.channel(*c).tokens_per_period))
                    .collect(),
                outputs: outputs
                    .iter()
                    .map(|c| rate_vec(graph.channel(*c).tokens_per_period))
                    .collect(),
                energy_pj_per_period: energy,
                memory_bytes: rng.random_range(1024..=8192),
            };
            library.register(pid, implementation);
        }
    }

    ApplicationSpec {
        name: format!(
            "synthetic-{:?}-n{}-s{}",
            config.shape, config.n_processes, config.seed
        ),
        graph,
        qos: QosSpec::with_period(config.period_ps),
        library,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_validate_across_seeds() {
        for seed in 0..50 {
            let spec = synthetic_app(&SyntheticConfig {
                seed,
                ..SyntheticConfig::default()
            });
            assert_eq!(spec.validate(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn fork_joins_validate_across_seeds() {
        for seed in 0..50 {
            let spec = synthetic_app(&SyntheticConfig {
                seed,
                n_processes: 7,
                shape: GraphShape::ForkJoin { width: 3 },
                ..SyntheticConfig::default()
            });
            assert_eq!(spec.validate(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = synthetic_app(&SyntheticConfig::default());
        let b = synthetic_app(&SyntheticConfig::default());
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.library, b.library);
    }

    #[test]
    fn every_process_has_a_preferred_implementation() {
        let spec = synthetic_app(&SyntheticConfig {
            seed: 7,
            alt_impl_probability: 0.0,
            ..SyntheticConfig::default()
        });
        for (pid, _) in spec.graph.stream_processes() {
            let impls = spec.library.impls_for(pid);
            assert_eq!(impls.len(), 1);
            assert_eq!(impls[0].tile_kind, TileKind::Montium);
        }
    }

    #[test]
    fn alternatives_cost_more() {
        let spec = synthetic_app(&SyntheticConfig {
            seed: 3,
            alt_impl_probability: 1.0,
            ..SyntheticConfig::default()
        });
        for (pid, _) in spec.graph.stream_processes() {
            let impls = spec.library.impls_for(pid);
            assert_eq!(impls.len(), 2);
            assert!(impls[1].energy_pj_per_period > impls[0].energy_pj_per_period);
        }
    }
}
