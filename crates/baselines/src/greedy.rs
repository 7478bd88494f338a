//! Greedy first-fit without local search: the step-2 ablation.
//!
//! Runs the paper's step 1 (desirability + first-fit) and goes straight to
//! routing and the constraint check, skipping step 2. On the paper's case
//! this keeps the initial cost of 11 instead of improving to 7 — the
//! ablation benches quantify how much step 2 buys on larger workloads.

use crate::common::{finalize_assignment, no_feasible_mapping};
use rtsm_app::ApplicationSpec;
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::feedback::Constraints;
use rtsm_core::step1::assign_implementations;
use rtsm_core::{MapError, MappingAlgorithm, MappingOutcome, SpecIndex};
use rtsm_platform::{Platform, PlatformState};

/// Step-1-only mapper.
#[derive(Debug, Clone, Default)]
pub struct GreedyMapper;

impl MappingAlgorithm for GreedyMapper {
    fn name(&self) -> &str {
        "greedy first-fit (no step 2)"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        assign_implementations(
            &SpecIndex::new(spec, platform),
            base,
            &Constraints::with_external(constraints.clone()),
        )
        .ok()
        .and_then(|out| finalize_assignment(spec, platform, base, out.mapping, 1))
        .ok_or_else(|| no_feasible_mapping(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    #[test]
    fn greedy_keeps_the_initial_cost_of_eleven() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = GreedyMapper
            .map(&spec, &platform, &platform.initial_state())
            .expect("greedy mapping is feasible on the paper case");
        assert_eq!(result.communication_hops, 11);
    }

    #[test]
    fn step2_improves_on_greedy() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let greedy = GreedyMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let full = crate::SpatialMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert!(full.communication_hops < greedy.communication_hops);
        assert!(full.energy_pj <= greedy.energy_pj);
    }
}
