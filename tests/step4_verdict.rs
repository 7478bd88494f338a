//! Step 4 takes its throughput verdict from buffer sizing's last feasible
//! probe instead of simulating the sized graph a second time. This checks
//! that verdict against an independent simulation of the composed graph
//! for every catalog spec, on the cold path (empty sizing cache) and the
//! warm path (whole-result cache hit).

use rtsm::core::step4::{check_constraints, Step4Config, Step4Result};
use rtsm::core::SpatialMapper;
use rtsm::dataflow::{check_source_period, clear_sizing_cache};
use rtsm::obs::{self, Counter, SpanLatencyProbe};
use std::rc::Rc;

/// Platform seed of the built-in mesh catalogs.
const PLATFORM_SEED: u64 = 42;

#[test]
fn step4_verdict_matches_an_independent_recheck_cold_and_warm() {
    let mut checked = 0;
    for catalog in ["hiperlan2", "mixed", "synthetic"] {
        let resolved = rtsm::exp::resolve_catalog(catalog, PLATFORM_SEED).unwrap();
        let platform = &resolved.platform;
        let empty = platform.initial_state();
        for entry in resolved.catalog.entries() {
            let spec = &entry.spec;
            let outcome = SpatialMapper::default()
                .map(spec, platform, &empty)
                .unwrap_or_else(|e| panic!("`{}` maps onto an empty platform: {e}", entry.name));
            let step4 = || -> (Step4Result, u64) {
                let probe = Rc::new(SpanLatencyProbe::new());
                let _guard = obs::install(probe.clone());
                let result = check_constraints(
                    spec,
                    platform,
                    &outcome.mapping,
                    &empty,
                    &Step4Config::default(),
                );
                (result, probe.counter_total(Counter::BufferProbe))
            };
            clear_sizing_cache();
            let (cold, cold_probes) = step4();
            let (warm, warm_probes) = step4();
            assert!(cold_probes > 0, "`{}`: the cold run must size", entry.name);
            assert_eq!(warm_probes, 0, "`{}`: the warm run must hit", entry.name);
            assert_eq!(cold, warm, "`{}`: cold and warm step 4 differ", entry.name);

            assert!(cold.feasible, "`{}`: {:?}", entry.name, cold.feedback);
            let (ok, tp) = check_source_period(&cold.csdf, cold.source, spec.qos.period_ps)
                .expect("the sized graph has a steady state");
            assert!(ok, "`{}`: re-simulation misses the period", entry.name);
            assert_eq!(
                cold.achieved_period,
                (tp.period, tp.iterations),
                "`{}`: verdict differs from an independent simulation",
                entry.name
            );
            assert_eq!(outcome.achieved_period, cold.achieved_period);
            checked += 1;
        }
    }
    assert_eq!(checked, 18, "7 hiperlan2 modes, 5 mixed, 6 synthetic specs");
}
