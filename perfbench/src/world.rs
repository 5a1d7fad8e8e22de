//! Workload inputs, all derived from the `--seed` argument.
//!
//! The venue is fixed (one building, like the paper's one synthetic
//! building); the seed drives mobility, positioning noise and the
//! query stream. Keeping the venue fixed keeps run-to-run spread down
//! to what the seeded traffic causes.

use std::sync::Arc;

use indoor_iupt::{Record, TimeInterval};
use indoor_model::{IndoorSpace, SLocId};
use indoor_sim::{generate_building, RecordStream, Scenario, World};
use popflow_core::QuerySet;
use popflow_server::scenario::LoadProfile;
use popflow_server::ServerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the fixed venue every workload runs in.
pub const VENUE_SEED: u64 = 0x7e11_0019;

/// The paper's §5.3 sweep ranges for ad-hoc queries (Table 6).
pub const K_SWEEP: [usize; 4] = [5, 10, 15, 20];
/// Query-set size as a fraction of all S-locations.
pub const Q_FRACTION_SWEEP: [f64; 3] = [0.04, 0.08, 0.12];
/// Query window Δt in minutes.
pub const DT_MIN_SWEEP: [i64; 4] = [15, 30, 60, 120];

/// Derives an independent stream seed from the run seed and a tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The batch workload's synthetic world: the paper's §5.3 scenario at
/// `scale`, no dwell cache, venue fixed, traffic seeded.
pub fn batch_scenario(scale: f64, seed: u64) -> Scenario {
    let mut scenario = Scenario::synthetic_scaled(scale).with_seed(seed);
    scenario.building = Scenario::synthetic_scaled(scale)
        .with_seed(VENUE_SEED)
        .building;
    scenario
}

/// One ad-hoc TkPLQ of the batch workload.
#[derive(Debug, Clone)]
pub struct AdhocQuery {
    /// Query number within the run (the span request id).
    pub id: u64,
    /// Top-k size.
    pub k: usize,
    /// Query location set.
    pub query_set: QuerySet,
    /// Query window.
    pub interval: TimeInterval,
}

/// Points of the (k, |Q|, Δt) sweep grid.
const GRID: usize = K_SWEEP.len() * Q_FRACTION_SWEEP.len() * DT_MIN_SWEEP.len();

/// The `id`-th query of the seeded ad-hoc stream over `world`. The
/// stream walks the paper's whole (k, |Q|, Δt) sweep grid once per
/// pass, in a seeded order that changes every pass, so every run mixes
/// the sweep points in the same proportions; the location set and the
/// window start are drawn uniformly at random.
pub fn adhoc_query(world: &World, seed: u64, id: u64) -> AdhocQuery {
    let pass = id / GRID as u64;
    let mut order: Vec<usize> = (0..GRID).collect();
    let mut shuffle = StdRng::seed_from_u64(mix(seed, 0x0b00 + pass));
    for i in (1..GRID).rev() {
        order.swap(i, shuffle.gen_range(0..=i));
    }
    let point = order[(id % GRID as u64) as usize];
    let k = K_SWEEP[point % K_SWEEP.len()];
    let fraction = Q_FRACTION_SWEEP[point / K_SWEEP.len() % Q_FRACTION_SWEEP.len()];
    let dt_min = DT_MIN_SWEEP[point / (K_SWEEP.len() * Q_FRACTION_SWEEP.len())];
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x0a00 + id));
    let mut ids: Vec<SLocId> = world.space.slocs().iter().map(|s| s.id).collect();
    let take = ((ids.len() as f64 * fraction).round() as usize).clamp(1, ids.len());
    for i in 0..take {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(take);
    let total_min = world.scenario.mobility.duration_secs / 60;
    let dt = dt_min.min(total_min);
    let latest = (total_min - dt).max(0);
    let start = if latest == 0 {
        0
    } else {
        rng.gen_range(0..=latest)
    };
    AdhocQuery {
        id,
        k,
        query_set: QuerySet::new(ids),
        interval: world.window(start, dt),
    }
}

/// The shape of a server workload's stream and standing queries.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    /// The shipped load profile (scale, bucket width, query count).
    pub profile: LoadProfile,
    /// Shards of the served engine.
    pub shards: usize,
}

impl LiveShape {
    /// The stream world: the profile's visitor venue with the venue
    /// fixed and visitors seeded.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = self.profile.stream_scenario().scenario();
        scenario.building = self.venue_scenario().building;
        scenario
    }

    fn venue_scenario(&self) -> Scenario {
        LoadProfile {
            seed: VENUE_SEED,
            ..self.profile
        }
        .stream_scenario()
        .scenario()
    }

    /// Builds only the venue, as the server process does.
    pub fn venue(&self) -> IndoorSpace {
        generate_building(&self.venue_scenario().building)
    }

    /// The server configuration: the profile's shipped tick, drain and
    /// queue budgets with the workload's shard count, waiting for
    /// `streams` ingest connections before releasing records.
    pub fn server_config(&self, streams: u32) -> ServerConfig {
        let mut config = self
            .profile
            .server_config()
            .with_min_ingest_streams(streams);
        config.serve = config.serve.with_shards(self.shards);
        config
    }
}

/// A generated stream world and its records in delivery order.
pub struct StreamInputs {
    /// The generated world (space, trajectories, positioning table).
    pub world: World,
    /// The space shared with in-process engines.
    pub space: Arc<IndoorSpace>,
    /// Every record, time-ordered.
    pub records: Vec<Record>,
}

/// Generates a server workload's world and record stream.
pub fn stream_inputs(shape: &LiveShape) -> StreamInputs {
    let world = World::generate(shape.scenario());
    let records = RecordStream::replay(&world).to_records();
    let space = Arc::new(world.space.clone());
    StreamInputs {
        world,
        space,
        records,
    }
}
