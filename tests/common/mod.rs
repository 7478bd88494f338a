//! Helpers shared by the integration tests that replay catalog specs
//! against seeded partial occupancies.

use rtsm::platform::{LinkId, Platform, PlatformState, TileClaim, TileKind};

/// Platform seed of the built-in mesh catalogs (`simulate --platform-seed 42`).
pub const PLATFORM_SEED: u64 = 42;

/// The catalogs whose 18 specs the `cold` admission workload maps.
pub const CATALOGS: [&str; 3] = ["hiperlan2", "mixed", "synthetic"];

/// splitmix64: a tiny seeded stream independent of any crate's RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A fraction of `whole` in `0..=percent` percent.
    fn share(&mut self, whole: u64, percent: u64) -> u64 {
        whole / 100 * (self.next() % (percent + 1))
    }
}

/// A partial occupancy drawn from `seed`: about half of the compute tiles
/// lose a slot and/or part of their memory and cycle budget, and about a
/// quarter of the links lose up to 60% of their bandwidth. Built with the
/// ledger's own operations only, so it never depends on a mapper.
pub fn occupancy(platform: &Platform, seed: u64) -> PlatformState {
    let mut rng = SplitMix(seed);
    let mut state = platform.initial_state();
    for (tile, t) in platform.tiles() {
        if matches!(t.kind, TileKind::AdcSource | TileKind::Sink) || rng.next().is_multiple_of(2) {
            continue;
        }
        let claim = TileClaim {
            slots: u32::from(rng.next().is_multiple_of(2)),
            memory_bytes: rng.share(t.memory_bytes, 50),
            cycles_per_second: rng.share(u64::from(t.clock_mhz) * 1_000_000, 60),
            injection: 0,
            ejection: 0,
        };
        state
            .claim_tile(platform, tile, &claim)
            .expect("a partial claim fits an empty tile");
    }
    let links: Vec<(LinkId, u64)> = platform.links().map(|(id, l)| (id, l.capacity)).collect();
    for (link, capacity) in links {
        if rng.next().is_multiple_of(4) {
            let demand = rng.share(capacity, 60);
            state
                .allocate_link(platform, link, demand)
                .expect("a partial demand fits an empty link");
        }
    }
    state
}
