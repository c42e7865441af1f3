//! Property test for the ingest path end to end: ring → `IngestStream`
//! → `ServeEngine`. Backpressure composes across the ring and the
//! stream's window bound — every event sent is shed at the ring, shed
//! at the window, committed, dropped as invalid, or refused at
//! admission, and a Leave is never among the shed at either layer —
//! while the engine's carried books stay exact.

use dve_assign::{CostMatrix, StuckPolicy};
use dve_sim::{
    build_replication, AdmissionPolicy, ClientId, DegradationPolicy, IngestConfig, IngestStream,
    ServeConfig, ServeEngine, SimSetup, TopologySpec,
};
use dve_topology::HierarchicalConfig;
use dve_world::{ErrorModel, IngestError, IngestRing, ScenarioConfig, WorldEvent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The boot population: ids `0..CLIENTS`; joiners take the ids after.
const CLIENTS: usize = 120;

fn boot(degradation: DegradationPolicy) -> (ServeEngine, dve_world::World) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation("5s-15z-120c-100cp").unwrap(),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 8,
            ..Default::default()
        }),
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    let engine = ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig {
            degradation,
            ..ServeConfig::default()
        },
        rep.rng,
    )
    .expect("small instances solve");
    (engine, rep.world)
}

/// A client id a producer might send: mostly the boot population,
/// sometimes a joiner's id (live or not, depending on what was shed),
/// sometimes an id nobody ever had.
fn draw_id(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..10) {
        0 => rng.gen_range(CLIENTS..CLIENTS + 20),
        1 => rng.gen_range(10_000..10_100),
        _ => rng.gen_range(0..CLIENTS),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arrivals = stream-shed + committed + dropped + refused joins, and
    /// every event sent reached the ring or was shed there; no Leave is
    /// shed at either layer, so every Leave sent for a boot-population
    /// id removes it from the engine (and every other boot id stays
    /// live); each committed arrival records one latency sample; and
    /// the carried matrix equals a fresh build.
    #[test]
    fn shed_counters_compose_across_ring_and_buffer(seed in any::<u64>(),
                                                    ring_cap in 1usize..24,
                                                    bound in 1usize..24,
                                                    max_batch in 1usize..48,
                                                    max_pending in 0usize..8,
                                                    reject in any::<bool>(),
                                                    events in 1usize..150) {
        let mut rng = StdRng::seed_from_u64(seed);
        let degradation = DegradationPolicy {
            admission: if reject { AdmissionPolicy::Reject } else { AdmissionPolicy::Open },
            headroom: if reject { 0.5 } else { 0.0 },
            // 0 draws an unbounded engine queue.
            max_pending: (max_pending > 0).then_some(max_pending),
        };
        let (mut engine, world) = boot(degradation);
        let ring = IngestRing::with_capacity(ring_cap);
        let config = IngestConfig {
            max_batch,
            max_staleness: Duration::from_secs(3_600),
        };
        let mut stream = IngestStream::new(&engine, &world, bound, config);

        let mut sent = 0u64;
        let mut left = [false; CLIENTS];
        for _ in 0..events {
            let event = match rng.gen_range(0..4) {
                0 => WorldEvent::Join {
                    node: rng.gen_range(0..engine.nodes()),
                    zone: rng.gen_range(0..world.zones),
                },
                1 => WorldEvent::Leave { client: draw_id(&mut rng) },
                _ => WorldEvent::Move {
                    client: draw_id(&mut rng),
                    zone: rng.gen_range(0..world.zones),
                },
            };
            sent += 1;
            if let WorldEvent::Leave { client } = event {
                if client < CLIENTS {
                    left[client] = true;
                }
                // Single-threaded here, so instead of push_blocking
                // (which would spin with no consumer running) a full
                // ring drains inline — either way a Leave is never shed
                // at the ring.
                while ring.try_push(event) == Err(IngestError::RingFull { capacity: ring_cap }) {
                    stream.pump(&mut engine, &ring);
                }
            } else {
                ring.push_or_shed(event).unwrap();
            }
            // Drain roughly half the time so the ring backpressure path
            // and multi-event windows both exercise.
            if rng.gen_bool(0.5) {
                stream.pump(&mut engine, &ring);
            }
        }
        ring.close();
        stream.pump(&mut engine, &ring);
        let report = stream.finish(&mut engine);

        prop_assert_eq!(report.shed_leaves, 0);
        prop_assert_eq!(report.arrivals + ring.shed_events(), sent);
        prop_assert_eq!(
            report.arrivals,
            report.shed + report.committed + report.dropped + report.refused_joins
        );
        prop_assert_eq!(engine.stats().latency.count(), report.committed);
        prop_assert_eq!(engine.pending_events(), 0);
        for (id, &gone) in left.iter().enumerate() {
            prop_assert_eq!(
                engine.index_of(id as ClientId).is_none(),
                gone,
                "boot client {} (Leave sent: {})", id, gone
            );
        }
        prop_assert!(
            engine.matrix() == &CostMatrix::build(engine.instance()),
            "carried matrix diverged from a fresh build"
        );
    }
}
