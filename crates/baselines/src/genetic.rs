//! Seeded bias-elitist genetic mapper (after Quan & Pimentel,
//! arXiv:1406.7539).
//!
//! A genome is one `(implementation, tile)` gene per process. The initial
//! population is *seeded* with the greedy first-fit and spiral
//! region-growing solutions (the paper's key trick for fast convergence on
//! a run-time budget); the rest is sampled uniformly from each process's
//! viable options. Selection is *biased towards feasibility*: individuals
//! are compared lexicographically by (capacity violations, cost), so any
//! claim-feasible individual beats every infeasible one regardless of
//! cost, and an elite carries over unchanged each generation.
//!
//! Fitness stays cheap on purpose — capacity replay plus the decomposed
//! [`CostModel::assignment_cost`], no routing — so a whole run costs about
//! as much as one annealing run. Only the final ranked candidates go
//! through the shared step-3/step-4 back-end ([`finalize_assignment`]),
//! which is what makes the returned outcome committable and comparable.

use crate::common::{finalize_assignment, no_feasible_mapping, viable_options};
use crate::spiral::spiral_assignment;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm_app::{ApplicationSpec, ProcessId};
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::cost::CostModel;
use rtsm_core::step1::assign_implementations;
use rtsm_core::{feedback, MapError, Mapping, MappingAlgorithm, MappingOutcome, SpecIndex};
use rtsm_platform::{Platform, PlatformState, TileId};

/// One `(impl_index, tile)` gene per process, in topological order.
type Genome = Vec<(usize, TileId)>;

/// Seeded bias-elitist genetic mapper.
#[derive(Debug, Clone)]
pub struct GeneticMapper {
    /// RNG seed — runs are reproducible.
    pub seed: u64,
    /// Individuals per generation (including the greedy/spiral seeds).
    pub population: usize,
    /// Generations evolved before the best candidates are finalized.
    pub generations: u32,
    /// Individuals carried over unchanged each generation.
    pub elite: usize,
    /// Per-gene mutation probability, permille.
    pub mutation_permille: u64,
    /// Cost model the (feasibility-biased) fitness minimises.
    pub cost_model: CostModel,
}

impl Default for GeneticMapper {
    fn default() -> Self {
        GeneticMapper {
            seed: 0x6E0_2008,
            population: 16,
            generations: 24,
            elite: 4,
            mutation_permille: 150,
            cost_model: CostModel::Energy(rtsm_platform::EnergyModel::default()),
        }
    }
}

/// Capacity violations and cost of one genome: genes are replayed onto a
/// scratch state in order; a gene that no longer fits counts as a
/// violation and claims nothing. `(0, cost)` means claim-feasible.
fn fitness(
    index: &SpecIndex,
    base: &PlatformState,
    processes: &[ProcessId],
    genome: &Genome,
    cost_model: &CostModel,
) -> (u32, u64) {
    let (spec, platform) = (index.spec(), index.platform());
    let mut working = base.clone();
    let mut violations = 0u32;
    let mut mapping = Mapping::new();
    for (&process, &(impl_index, tile)) in processes.iter().zip(genome) {
        if working.fits_tile(platform, tile, index.claim(process, impl_index)) {
            working
                .claim_tile(platform, tile, index.reservation(process, impl_index))
                .expect("fits_tile just checked");
        } else {
            violations += 1;
        }
        mapping.assign(process, impl_index, tile);
    }
    (
        violations,
        cost_model.assignment_cost(&mapping, spec, platform),
    )
}

impl GeneticMapper {
    /// The deterministic greedy (step-1) and spiral seed genomes, when
    /// those heuristics produce an assignment under `constraints`.
    fn seed_genomes(
        &self,
        index: &SpecIndex,
        base: &PlatformState,
        constraints: &MappingConstraints,
        processes: &[ProcessId],
    ) -> Vec<Genome> {
        let to_genome = |mapping: &Mapping| -> Option<Genome> {
            processes
                .iter()
                .map(|&p| mapping.assignment(p).map(|a| (a.impl_index, a.tile)))
                .collect()
        };
        let mut seeds = Vec::new();
        let (spec, platform) = (index.spec(), index.platform());
        if let Ok(out) = assign_implementations(
            index,
            base,
            &feedback::Constraints::with_external(constraints.clone()),
        ) {
            seeds.extend(to_genome(&out.mapping));
        }
        let mut working = base.clone();
        if let Some((mapping, _)) = spiral_assignment(
            spec,
            platform,
            &mut working,
            constraints,
            &CostModel::TrafficWeighted,
            1,
        ) {
            seeds.extend(to_genome(&mapping));
        }
        seeds
    }
}

impl MappingAlgorithm for GeneticMapper {
    fn name(&self) -> &str {
        "bias-elitist genetic"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let processes = spec
            .graph
            .topological_order()
            .map_err(|_| no_feasible_mapping(0))?;
        // Options are enumerated against the *empty-claim* base once; the
        // fitness replay accounts for intra-genome capacity interactions.
        let options: Vec<Vec<(usize, TileId)>> = processes
            .iter()
            .map(|&p| viable_options(spec, platform, base, p, constraints))
            .collect();
        if options.iter().any(Vec::is_empty) {
            return Err(no_feasible_mapping(0));
        }

        let index = SpecIndex::new(spec, platform);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut evaluated = 0u64;
        let score = |genome: &Genome, evaluated: &mut u64| {
            *evaluated += 1;
            fitness(&index, base, &processes, genome, &self.cost_model)
        };

        // Population: deterministic seeds first, random fill after.
        let population_size = self.population.max(4);
        let mut population: Vec<(Genome, (u32, u64))> = Vec::with_capacity(population_size);
        for genome in self.seed_genomes(&index, base, constraints, &processes) {
            let fit = score(&genome, &mut evaluated);
            population.push((genome, fit));
        }
        while population.len() < population_size {
            let genome: Genome = options
                .iter()
                .map(|opts| opts[rng.random_range(0..opts.len())])
                .collect();
            let fit = score(&genome, &mut evaluated);
            population.push((genome, fit));
        }

        let elite = self.elite.clamp(1, population_size - 1);
        for _ in 0..self.generations {
            // Bias-elitist ranking: feasibility first, cost second. The
            // sort is stable, so equal individuals keep their order and
            // the evolution stays deterministic.
            population.sort_by_key(|(_, fit)| *fit);
            let mut next: Vec<(Genome, (u32, u64))> = population[..elite].to_vec();
            while next.len() < population_size {
                // Binary tournaments with the same feasibility bias.
                let pick = |rng: &mut StdRng| {
                    let a = rng.random_range(0..population.len());
                    let b = rng.random_range(0..population.len());
                    if population[a].1 <= population[b].1 {
                        &population[a].0
                    } else {
                        &population[b].0
                    }
                };
                let mother = pick(&mut rng).clone();
                let father = pick(&mut rng).clone();
                // Uniform crossover + per-gene mutation from the options.
                let child: Genome = mother
                    .iter()
                    .zip(&father)
                    .zip(&options)
                    .map(|((&m, &f), opts)| {
                        if u64::from(rng.random_range(0..1000u32)) < self.mutation_permille {
                            opts[rng.random_range(0..opts.len())]
                        } else if rng.random_range(0..2u32) == 0 {
                            m
                        } else {
                            f
                        }
                    })
                    .collect();
                let fit = score(&child, &mut evaluated);
                next.push((child, fit));
            }
            population = next;
        }

        // Finalize the claim-feasible candidates best-first; routing or
        // dataflow may still reject some, so walk the ranking.
        population.sort_by_key(|(_, fit)| *fit);
        for (genome, (violations, _)) in &population {
            if *violations > 0 {
                break;
            }
            let mut mapping = Mapping::new();
            for (&p, &(impl_index, tile)) in processes.iter().zip(genome) {
                mapping.assign(p, impl_index, tile);
            }
            if let Some(outcome) = finalize_assignment(spec, platform, base, mapping, evaluated) {
                return Ok(outcome);
            }
        }
        Err(no_feasible_mapping(evaluated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    #[test]
    fn genetic_finds_a_feasible_mapping_on_the_paper_case() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = GeneticMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .expect("the GA maps the paper case");
        assert!(result.feasible);
        assert!(result.evaluated > 0);
    }

    #[test]
    fn genetic_is_deterministic_per_seed() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let a = GeneticMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let b = GeneticMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.energy_pj, b.energy_pj);
    }

    #[test]
    fn seeding_keeps_the_ga_at_least_as_good_as_greedy() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let ga = GeneticMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let greedy = crate::GreedyMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        // The greedy solution is in the initial population and elitism
        // never loses it, so the GA can only match or improve its energy.
        assert!(ga.energy_pj <= greedy.energy_pj);
    }

    #[test]
    fn genetic_honours_pinning_constraints() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let p = spec.graph.process_by_name("Prefix removal").unwrap();
        let tile = platform.tile_by_name("ARM1").unwrap();
        let constraints = MappingConstraints::none().pin(p, tile);
        let result = GeneticMapper::default()
            .map_constrained(&spec, &platform, &platform.initial_state(), &constraints)
            .expect("pinned paper case stays mappable");
        assert_eq!(result.mapping.assignment(p).unwrap().tile, tile);
        assert!(constraints.satisfied_by(&result.mapping));
    }
}
