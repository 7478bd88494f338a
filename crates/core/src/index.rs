//! Per-admission facts about one application on one platform.
//!
//! Steps 1, 2 and 4 ask the same questions of a specification over and
//! over: what a (process, implementation) pair claims on a tile, how many
//! phase-cycles it runs per period, on which port of its producer and
//! consumer a channel sits, and which tiles realise the stream endpoints.
//! None of the answers depends on the mapping being searched, so a
//! [`SpecIndex`] computes them once per admission and the steps read them
//! from there instead of re-deriving them for every candidate.

use crate::claims::{claim_for, reservation_of};
use crate::mapping::Mapping;
use rtsm_app::{ApplicationSpec, Endpoint, KpnChannelId, ProcessId};
use rtsm_platform::{Platform, TileClaim, TileId, TileKind};

/// What one (process, implementation) pair needs from a tile.
#[derive(Debug, Clone, Copy)]
struct ImplFacts {
    claim: TileClaim,
    reservation: TileClaim,
    cycles_per_period: u64,
}

/// The mapping-independent facts of `spec` on `platform`, built once per
/// admission (see the [module documentation](self)).
#[derive(Debug, Clone)]
pub struct SpecIndex<'a> {
    spec: &'a ApplicationSpec,
    platform: &'a Platform,
    /// Facts of every (process, implementation) pair, by process index
    /// and then implementation index.
    facts: Vec<Vec<ImplFacts>>,
    /// Output port of each stream channel at its producing process, and
    /// input port at its consuming process, by channel index (`None` for
    /// stream endpoints and control channels).
    src_port: Vec<Option<usize>>,
    dst_port: Vec<Option<usize>>,
    /// Topological order of the stream processes (`None`: cyclic graph).
    order: Option<Vec<ProcessId>>,
    topo_position: Vec<usize>,
    stream_input: Option<TileId>,
    stream_output: Option<TileId>,
}

impl<'a> SpecIndex<'a> {
    /// Indexes `spec` for mapping onto `platform`.
    pub fn new(spec: &'a ApplicationSpec, platform: &'a Platform) -> Self {
        let n_processes = spec.graph.n_processes();
        let facts = spec
            .graph
            .processes()
            .map(|(process, _)| {
                let facts_of = |implementation| {
                    let claim = claim_for(spec, process, implementation);
                    ImplFacts {
                        claim,
                        reservation: reservation_of(&claim),
                        cycles_per_period: spec.cycles_per_period(process, implementation),
                    }
                };
                spec.library
                    .impls_for(process)
                    .iter()
                    .map(facts_of)
                    .collect()
            })
            .collect();

        // Ports are numbered in stream-channel id order, exactly as
        // `ProcessGraph::inputs_of` / `outputs_of` enumerate them.
        let n_channels = spec.graph.n_channels();
        let mut src_port = vec![None; n_channels];
        let mut dst_port = vec![None; n_channels];
        let mut n_outputs = vec![0usize; n_processes];
        let mut n_inputs = vec![0usize; n_processes];
        for (id, ch) in spec.graph.stream_channels() {
            if let Endpoint::Process(p) = ch.src {
                src_port[id.index()] = Some(n_outputs[p.index()]);
                n_outputs[p.index()] += 1;
            }
            if let Endpoint::Process(p) = ch.dst {
                dst_port[id.index()] = Some(n_inputs[p.index()]);
                n_inputs[p.index()] += 1;
            }
        }

        let order = spec.graph.topological_order().ok();
        let mut topo_position = vec![usize::MAX; n_processes];
        for (i, p) in order.iter().flatten().enumerate() {
            topo_position[p.index()] = i;
        }
        let first_of = |kind| platform.tiles_of_kind(kind).map(|(id, _)| id).next();
        SpecIndex {
            spec,
            platform,
            facts,
            src_port,
            dst_port,
            order,
            topo_position,
            stream_input: first_of(TileKind::AdcSource),
            stream_output: first_of(TileKind::Sink),
        }
    }

    /// The indexed specification.
    pub fn spec(&self) -> &'a ApplicationSpec {
        self.spec
    }

    /// The platform the specification is indexed for.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    fn facts(&self, process: ProcessId, impl_index: usize) -> &ImplFacts {
        &self.facts[process.index()][impl_index]
    }

    /// [`claim_for`] of `process` served by its `impl_index`-th
    /// implementation.
    pub fn claim(&self, process: ProcessId, impl_index: usize) -> &TileClaim {
        &self.facts(process, impl_index).claim
    }

    /// [`reservation_of`] the pair's [`SpecIndex::claim`].
    pub fn reservation(&self, process: ProcessId, impl_index: usize) -> &TileClaim {
        &self.facts(process, impl_index).reservation
    }

    /// `ApplicationSpec::cycles_per_period` of the pair.
    pub fn cycles_per_period(&self, process: ProcessId, impl_index: usize) -> u64 {
        self.facts(process, impl_index).cycles_per_period
    }

    /// The stream processes in topological order.
    ///
    /// # Panics
    ///
    /// If the process graph is cyclic, which validation rejects.
    pub fn order(&self) -> &[ProcessId] {
        self.order.as_deref().expect("validated specs are acyclic")
    }

    /// `process`'s position in [`SpecIndex::order`] (`usize::MAX` for
    /// control processes).
    pub fn topo_position(&self, process: ProcessId) -> usize {
        self.topo_position[process.index()]
    }

    /// The output port `channel` occupies at its producing process (`None`
    /// when the A/D source produces it).
    pub fn src_port(&self, channel: KpnChannelId) -> Option<usize> {
        self.src_port[channel.index()]
    }

    /// The input port `channel` occupies at its consuming process (`None`
    /// when the Sink consumes it).
    pub fn dst_port(&self, channel: KpnChannelId) -> Option<usize> {
        self.dst_port[channel.index()]
    }

    /// [`Mapping::endpoint_tile`] without scanning the platform for the
    /// stream-endpoint tiles.
    pub fn endpoint_tile(&self, mapping: &Mapping, endpoint: Endpoint) -> Option<TileId> {
        match endpoint {
            Endpoint::Process(p) => mapping.assignment(p).map(|a| a.tile),
            Endpoint::StreamInput => self.stream_input,
            Endpoint::StreamOutput => self.stream_output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::{Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
    use rtsm_dataflow::PhaseVec;
    use rtsm_platform::paper::paper_platform;

    /// A/D → fork → {left, right} → join → Sink: the fork has two output
    /// ports and the join two input ports, unlike every catalog chain.
    fn fork_join() -> ApplicationSpec {
        let mut graph = ProcessGraph::new();
        let names = ["fork", "left", "right", "join"];
        let [fork, left, right, join] = names.map(|n| graph.add_process(n));
        let edges = [
            (Endpoint::StreamInput, Endpoint::Process(fork), 8),
            (Endpoint::Process(fork), Endpoint::Process(left), 4),
            (Endpoint::Process(fork), Endpoint::Process(right), 2),
            (Endpoint::Process(left), Endpoint::Process(join), 4),
            (Endpoint::Process(right), Endpoint::Process(join), 2),
            (Endpoint::Process(join), Endpoint::StreamOutput, 6),
        ];
        for (src, dst, tokens) in edges {
            graph.add_channel(src, dst, tokens).unwrap();
        }
        let mut library = ImplementationLibrary::new();
        for p in [fork, left, right, join] {
            let rates = |ports: Vec<KpnChannelId>| {
                ports
                    .iter()
                    .map(|c| PhaseVec::single(graph.channel(*c).tokens_per_period))
                    .collect()
            };
            library.register(
                p,
                Implementation {
                    name: format!("{} @ ARM", graph.process(p).name),
                    tile_kind: TileKind::Arm,
                    wcet: PhaseVec::single(10),
                    inputs: rates(graph.inputs_of(p).collect()),
                    outputs: rates(graph.outputs_of(p).collect()),
                    energy_pj_per_period: 1000,
                    memory_bytes: 64,
                },
            );
        }
        ApplicationSpec {
            name: "fork-join".into(),
            graph,
            qos: QosSpec::with_period(1_000_000),
            library,
        }
    }

    #[test]
    fn ports_follow_the_graphs_port_order() {
        let spec = fork_join();
        spec.validate().expect("a consistent fork-join");
        let platform = paper_platform();
        let index = SpecIndex::new(&spec, &platform);
        let port_of = |ports: Vec<KpnChannelId>, channel| ports.iter().position(|c| *c == channel);
        let mut multi_port = 0;
        for (id, ch) in spec.graph.stream_channels() {
            let src = match ch.src {
                Endpoint::Process(p) => port_of(spec.graph.outputs_of(p).collect(), id),
                _ => None,
            };
            let dst = match ch.dst {
                Endpoint::Process(p) => port_of(spec.graph.inputs_of(p).collect(), id),
                _ => None,
            };
            assert_eq!(index.src_port(id), src, "{id:?}");
            assert_eq!(index.dst_port(id), dst, "{id:?}");
            multi_port += usize::from(src == Some(1)) + usize::from(dst == Some(1));
        }
        assert_eq!(multi_port, 2, "the fork's and the join's second ports");
    }

    #[test]
    fn claims_sum_every_port() {
        let spec = fork_join();
        let platform = paper_platform();
        let index = SpecIndex::new(&spec, &platform);
        for (p, _) in spec.graph.processes() {
            let implementation = &spec.library.impls_for(p)[0];
            let claim = claim_for(&spec, p, implementation);
            assert_eq!(*index.claim(p, 0), claim);
            assert_eq!(*index.reservation(p, 0), reservation_of(&claim));
            assert_eq!(
                index.cycles_per_period(p, 0),
                spec.cycles_per_period(p, implementation)
            );
        }
        // The fork injects both branches: (4 + 2) words per 1 µs period.
        let fork = spec.graph.process_by_name("fork").unwrap();
        assert_eq!(index.claim(fork, 0).injection, 6_000_000);
        assert_eq!(index.claim(fork, 0).ejection, 8_000_000);
    }
}
