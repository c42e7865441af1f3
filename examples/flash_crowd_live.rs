//! Flash-crowd drill, served live: the same storm as
//! `examples/flash_crowd.rs` — 30% of players pile into one hot zone
//! with join/leave churn on top — but instead of re-executing the
//! solver against a rebuilt snapshot, every event travels the ingest
//! path: a producer thread speaks into the SPSC `IngestRing`, and the
//! engine-side pull loop drains it through its window bound into the
//! engine's pending buffer and incremental repairs.
//!
//! The interesting numbers are the ones a batch re-solve cannot give
//! you: arrival-to-commit latency quantiles under the burst, and the
//! shed accounting (moves may shed under pressure; leaves never do).
//!
//! ```bash
//! cargo run --release --example flash_crowd_live
//! ```

use dve::assign::StuckPolicy;
use dve::sim::{
    build_replication, run_ingest_stream, IngestConfig, ServeConfig, ServeEngine, SimSetup,
};
use dve::world::{ErrorModel, IngestRing, WorldEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    let setup = SimSetup::default(); // 20s-80z-1000c-500cp
    let rep = build_replication(&setup, 7);
    let world = rep.world;
    let zones = world.zones;
    let clients = world.clients.len();

    let mut engine = ServeEngine::new(
        rep.instance,
        &world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
        rep.rng,
    )
    .expect("steady state solves");
    println!(
        "steady state: {} clients, pQoS {:.3}, feasible {}",
        engine.num_clients(),
        engine.metrics().pqos,
        engine.is_feasible()
    );

    // The storm script, against stable wire ids (the initial population
    // is 0..clients): 30% of players march into the busiest zone, plus
    // +50 joins and -50 leaves of background churn.
    let hot_zone = {
        let pops = world.zone_populations();
        (0..pops.len()).max_by_key(|&z| pops[z]).unwrap()
    };
    let nodes = engine.nodes();
    let mut rng = StdRng::seed_from_u64(7);
    let mut script: Vec<WorldEvent> = Vec::new();
    let mut stormers = 0usize;
    for client in 0..clients {
        if stormers >= clients * 3 / 10 {
            break;
        }
        if world.clients[client].zone != hot_zone && rng.gen::<f64>() < 0.35 {
            script.push(WorldEvent::Move {
                client,
                zone: hot_zone,
            });
            stormers += 1;
        }
    }
    for _ in 0..50 {
        script.push(WorldEvent::Join {
            node: rng.gen_range(0..nodes),
            zone: rng.gen_range(0..zones),
        });
    }
    let mut left = vec![false; clients];
    let mut departures = 0usize;
    while departures < 50 {
        let client = rng.gen_range(0..clients);
        if !left[client] {
            left[client] = true;
            script.push(WorldEvent::Leave { client });
            departures += 1;
        }
    }
    println!(
        "flash crowd: {stormers} players storm zone {hot_zone} (+50 join, -50 leave), {} events",
        script.len()
    );

    // Serve it live: producer thread → ring → pull loop → engine.
    let ring = Arc::new(IngestRing::with_capacity(1024));
    let producer_ring = Arc::clone(&ring);
    let producer = std::thread::spawn(move || {
        for ev in script {
            match ev {
                // Departures must always land; moves and joins may shed
                // under backpressure.
                WorldEvent::Leave { .. } => producer_ring.push_blocking(ev).unwrap(),
                _ => {
                    producer_ring.push_or_shed(ev).unwrap();
                }
            }
        }
        producer_ring.close();
    });
    let report = run_ingest_stream(&mut engine, &ring, 512, IngestConfig::default());
    producer.join().unwrap();

    let stats = engine.stats();
    println!(
        "served: arrivals {}  committed {}  flushes {}  dropped {}",
        report.arrivals, report.committed, report.flushes, report.dropped
    );
    println!(
        "shed: ring {}  buffer {}  leaves {} (must be 0)",
        ring.shed_events(),
        report.shed,
        report.shed_leaves
    );
    println!(
        "arrival-to-commit: mean {:.3} ms  p99 {:.3} ms  p99.9 {:.3} ms ({} samples)",
        stats.latency.mean_ns() / 1e6,
        stats.latency.quantile_upper_ns(0.99) as f64 / 1e6,
        stats.latency.quantile_upper_ns(0.999) as f64 / 1e6,
        stats.latency.count()
    );
    println!(
        "after crowd (served, no re-execution): population {}  pQoS {:.3}  feasible {}",
        engine.num_clients(),
        engine.metrics().pqos,
        engine.is_feasible()
    );
    assert_eq!(report.shed_leaves, 0, "a departure must never shed");
}
