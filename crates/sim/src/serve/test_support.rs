//! Engine fixtures shared by the serving tests.

use super::{ServeConfig, ServeEngine, StreamEvent};
use crate::setup::{build_replication, SimSetup, TopologySpec};
use dve_assign::{CapInstance, DelayLayout, StuckPolicy};
use dve_topology::{DelayMatrix, HierarchicalConfig};
use dve_world::{ErrorModel, ScenarioConfig, World, WorldDelays};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 5-server, 15-zone, 120-client fixture tier.
pub(super) fn small_setup() -> SimSetup {
    SimSetup {
        scenario: ScenarioConfig::from_notation("5s-15z-120c-100cp").unwrap(),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 8,
            ..Default::default()
        }),
        runs: 1,
        ..Default::default()
    }
}

/// Boots an engine on replication 0 of `setup` under perfect delay
/// estimates.
pub(super) fn boot_engine(setup: &SimSetup, config: ServeConfig) -> ServeEngine {
    let rep = build_replication(setup, 0);
    ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        config,
        rep.rng,
    )
    .expect("small instances solve")
}

/// Boots an engine on a random world whose delays are whole
/// milliseconds. Server hops are halved by the provisioning factor,
/// so every `C^R` is an exact multiple of 0.5 ms and ties between
/// servers are common. Flushes run only when the test calls them.
pub(super) fn integer_delay_engine(seed: u64) -> ServeEngine {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = 24;
    let mut rtt = vec![0.0; nodes * nodes];
    for a in 0..nodes {
        for b in a + 1..nodes {
            let d = f64::from(rng.gen_range(40u32..=320));
            rtt[a * nodes + b] = d;
            rtt[b * nodes + a] = d;
        }
    }
    let matrix = DelayMatrix::from_raw(nodes, rtt).expect("square matrix");
    let config = ScenarioConfig::from_notation("6s-10z-240c-110cp").unwrap();
    let world = World::generate(&config, nodes, &[0; 24], &mut rng).expect("world fits");
    let delays = WorldDelays::from_matrix(matrix, &world);
    let inst = CapInstance::from_world(
        &world,
        &delays,
        0.5,
        250.0,
        ErrorModel::PERFECT,
        DelayLayout::Dense64,
        &mut rng,
    );
    ServeEngine::new(
        inst,
        &world,
        delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig {
            max_batch: 10_000,
            max_staleness: 10_000,
            ..Default::default()
        },
        rng,
    )
    .expect("best effort always boots")
}

/// Pushes a random batch of joins, leaves and moves (refusals, such
/// as a second leave of one client, are dropped) and flushes it.
pub(super) fn random_flush(engine: &mut ServeEngine, rng: &mut StdRng) {
    let zones = engine.instance().num_zones();
    for _ in 0..rng.gen_range(1..24) {
        let k = engine.num_clients();
        let event = match rng.gen_range(0..3) {
            0 => StreamEvent::Join {
                node: rng.gen_range(0..engine.nodes()),
                zone: rng.gen_range(0..zones),
            },
            1 if k > 40 => StreamEvent::Leave {
                id: engine.id_at(rng.gen_range(0..k)),
            },
            _ => StreamEvent::Move {
                id: engine.id_at(rng.gen_range(0..k)),
                zone: rng.gen_range(0..zones),
            },
        };
        let _ = engine.push(event);
    }
    engine.flush_now();
}

/// Fails or restores a random server.
pub(super) fn random_fault(engine: &mut ServeEngine, rng: &mut StdRng) {
    let s = rng.gen_range(0..engine.instance().num_servers());
    if engine.down_servers().contains(&s) {
        engine.restore_server(s).expect("in range");
    } else {
        engine.fail_server(s).expect("in range");
    }
}
