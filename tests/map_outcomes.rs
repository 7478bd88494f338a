//! The mapper's decisions, byte for byte: every catalog spec of the
//! `hiperlan2`, `mixed` and `synthetic` catalogs on its platform, against
//! an empty ledger, three seeded partial occupancies, a failed tile and a
//! pinned-plus-excluded constraint set. Each case records the serialized
//! [`MappingOutcome`] (capture off; the composed CSDF graph as a digest)
//! or the error's kind and message, one JSON line per case, and the whole
//! text must equal the committed fixture
//! `tests/golden/map_outcomes_seed2008.jsonl`.
//!
//! On a mismatch the actual text is written to this test's target
//! temporary directory (the path is in the failure message), so an
//! intended behaviour change can be reviewed with `diff` and re-sealed by
//! copying that file over the fixture.

mod common;

use common::{occupancy, CATALOGS, PLATFORM_SEED};
use rtsm::core::{MapError, MapperConfig, MappingConstraints, MappingOutcome, SpatialMapper};

/// Seed of every drawn occupancy.
const SEED: u64 = 2008;

const FIXTURE: &str = include_str!("golden/map_outcomes_seed2008.jsonl");

/// 64-bit FNV-1a: a stable digest of the composed CSDF graph, which would
/// otherwise make up nine tenths of the fixture.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One JSON line: the serialized outcome (its CSDF graph as a digest) or
/// the error.
fn line(case: &str, result: &Result<MappingOutcome, MapError>) -> String {
    let case = serde_json::to_string(&case).expect("strings serialize");
    match result {
        Ok(outcome) => {
            let csdf = serde_json::to_string(&outcome.csdf).expect("graphs serialize");
            let outcome = MappingOutcome {
                csdf: None,
                ..outcome.clone()
            };
            format!(
                "{{\"case\":{case},\"csdf_fnv1a\":\"{:016x}\",\"outcome\":{}}}\n",
                fnv1a(csdf.as_bytes()),
                serde_json::to_string(&outcome).expect("outcomes serialize")
            )
        }
        Err(e) => format!(
            "{{\"case\":{case},\"error\":{}}}\n",
            serde_json::to_string(&format!("{}: {e}", e.kind())).expect("strings serialize")
        ),
    }
}

fn actual_lines() -> String {
    let mapper = SpatialMapper::new(MapperConfig::default().without_capture());
    let mut out = String::new();
    for catalog in CATALOGS {
        let resolved = rtsm::exp::resolve_catalog(catalog, PLATFORM_SEED).unwrap();
        let platform = &resolved.platform;
        let empty = platform.initial_state();
        for (i, entry) in resolved.catalog.entries().iter().enumerate() {
            let spec = &entry.spec;
            let name = format!("{catalog}/{}", entry.name);
            let alone = mapper.map(spec, platform, &empty);
            out.push_str(&line(&format!("{name} empty"), &alone));
            for k in 1..=3u64 {
                let base = occupancy(platform, SEED ^ (k << 32) ^ i as u64);
                let result = mapper.map(spec, platform, &base);
                out.push_str(&line(&format!("{name} occupancy{k}"), &result));
            }
            // The failed tile and the constraints take their targets from
            // the empty-platform mapping, so both force a different one.
            let alone = alone.expect("every catalog spec maps onto an empty platform");
            let mut assignments = alone.mapping.assignments();
            let (first, first_at) = assignments.next().expect("specs have processes");
            let (_, last_at) = assignments.last().unwrap_or((first, first_at));

            let mut failed = empty.clone();
            failed.fail_tile(first_at.tile);
            let result = mapper.map(spec, platform, &failed);
            out.push_str(&line(&format!("{name} failed-tile"), &result));

            let kind = platform.tile(first_at.tile).kind;
            let pin_to = platform
                .tiles_of_kind(kind)
                .map(|(t, _)| t)
                .find(|t| *t != first_at.tile && *t != last_at.tile)
                .unwrap_or(first_at.tile);
            let constraints = MappingConstraints::none()
                .pin(first, pin_to)
                .exclude_tile(last_at.tile);
            let result = mapper.map_constrained(spec, platform, &empty, &constraints);
            out.push_str(&line(&format!("{name} pinned-excluded"), &result));
        }
    }
    out
}

#[test]
fn map_outcomes_match_the_golden_fixture() {
    let actual = actual_lines();
    if actual != FIXTURE {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("map_outcomes_seed2008.jsonl");
        std::fs::write(&path, &actual).expect("the target temp directory is writable");
        let first_diff = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "map outcomes differ from the fixture from line {} on ({} vs {} lines); actual written to {}",
            first_diff + 1,
            actual.lines().count(),
            FIXTURE.lines().count(),
            path.display()
        );
    }
}
