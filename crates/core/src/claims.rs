//! Resource claims derived from an implementation choice.

use rtsm_app::{ApplicationSpec, Implementation, ProcessId};
use rtsm_platform::TileClaim;

/// The tile resources a process claims when `implementation` serves it:
/// one compute slot, the implementation's memory, its WCET as a share of
/// the tile's cycle budget, and NI bandwidth for its channel traffic.
///
/// The mapper's steps read every pair's claim from a
/// [`SpecIndex`](crate::SpecIndex), which computes it once per admission.
pub fn claim_for(
    spec: &ApplicationSpec,
    process: ProcessId,
    implementation: &Implementation,
) -> TileClaim {
    let cycles_per_period = spec.cycles_per_period(process, implementation);
    let wcet = implementation.wcet_per_period(cycles_per_period);
    // cycles/period ÷ period_ps × 1e12 ps/s = cycles/second.
    let cycles_per_second =
        (wcet as u128 * 1_000_000_000_000u128 / spec.qos.period_ps as u128) as u64;
    let words_per_second = |ch| {
        spec.qos
            .words_per_second(spec.graph.channel(ch).tokens_per_period)
    };
    let ejection: u64 = spec.graph.inputs_of(process).map(words_per_second).sum();
    let injection: u64 = spec.graph.outputs_of(process).map(words_per_second).sum();
    TileClaim {
        slots: 1,
        memory_bytes: implementation.memory_bytes,
        cycles_per_second,
        injection,
        ejection,
    }
}

/// The part of a claim that is *reserved* when a process is assigned to a
/// tile in steps 1–2: slot, memory and cycles. The NI fields of
/// [`claim_for`] are a **filter** ("tiles … that have sufficient
/// communication resources … at least, locally", §3.2); actual NI bandwidth
/// is reserved per channel by step 3's route allocation, so reserving it
/// here too would double-count.
pub fn reservation_of(claim: &TileClaim) -> TileClaim {
    TileClaim {
        injection: 0,
        ejection: 0,
        ..*claim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::TileKind;

    #[test]
    fn prefix_removal_arm_claim() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let pfx = spec.graph.process_by_name("Prefix removal").unwrap();
        let arm = spec.library.impl_for(pfx, TileKind::Arm).unwrap();
        let claim = claim_for(&spec, pfx, arm);
        // 324 cycles per 4 µs = 81e6 cycles/s.
        assert_eq!(claim.cycles_per_second, 81_000_000);
        // Input 80 tokens/4 µs = 20M words/s; output 64 → 16M words/s.
        assert_eq!(claim.ejection, 20_000_000);
        assert_eq!(claim.injection, 16_000_000);
        assert_eq!(claim.slots, 1);
    }

    #[test]
    fn frq_arm_claim_accounts_for_eight_cycles() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let frq = spec.graph.process_by_name("Freq. off. correction").unwrap();
        let arm = spec.library.impl_for(frq, TileKind::Arm).unwrap();
        let claim = claim_for(&spec, frq, arm);
        // 8 firing-cycles × 68 cycles per 4 µs = 136e6 cycles/s.
        assert_eq!(claim.cycles_per_second, 136_000_000);
    }

    #[test]
    fn iofdm_arm_exceeds_200mhz_budget() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let iofdm = spec.graph.process_by_name("Inverse OFDM").unwrap();
        let arm = spec.library.impl_for(iofdm, TileKind::Arm).unwrap();
        let claim = claim_for(&spec, iofdm, arm);
        // 4370 cycles per 4 µs = 1.0925e9 cycles/s > 200e6: infeasible on
        // the paper platform's 200 MHz tiles.
        assert!(claim.cycles_per_second > 200_000_000);
    }
}
