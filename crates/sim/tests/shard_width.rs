//! Width-invariance property tests for zone-sharded serving: a
//! [`ServeEngine`] booted with [`ServeConfig::shards`] > 1 must make
//! **bit-identical decisions** to the one-shard engine fed the same
//! trace, at every shard count — plain churn, and a churn+fault replay
//! whose evacuations and re-admission sweeps cross shard boundaries.

use dve_assign::StuckPolicy;
use dve_sim::{
    build_replication, run_recovery_stream, run_stream, QualityEstimator, ServeConfig, ServeEngine,
    ServeStats, SimSetup, StreamEvent, TopologySpec,
};
use dve_topology::HierarchicalConfig;
use dve_world::{DynamicsBatch, ErrorModel, FaultKind, FaultSchedule, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shard widths the properties are pinned across — serial, even split,
/// uneven split, more shards than some zones' residues use.
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

fn setup() -> SimSetup {
    SimSetup {
        scenario: ScenarioConfig::from_notation("8s-40z-600c-100cp").unwrap(),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 8,
            ..Default::default()
        }),
        runs: 1,
        ..Default::default()
    }
}

/// The default serving policy at `shards` width.
fn width(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ..ServeConfig::default()
    }
}

/// Boots an engine on replication 0 of `setup` at `shards` width.
fn boot(setup: &SimSetup, shards: usize, seed: u64) -> ServeEngine {
    let rep = build_replication(setup, 0);
    ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        width(shards),
        StdRng::seed_from_u64(seed),
    )
    .expect("engine solves")
}

/// The shard books account for every applied event: one book per
/// shard above width 1, none at width 1.
fn assert_books_route_every_event(stats: &ServeStats, shards: usize) {
    if shards == 1 {
        assert!(stats.shards.is_empty(), "a one-shard engine keeps no books");
        return;
    }
    assert_eq!(stats.shards.len(), shards);
    let routed: u64 = stats.shards.iter().map(|b| b.events).sum();
    assert_eq!(
        routed, stats.events,
        "shard books must account for every applied event at {shards} shards"
    );
}

/// Flushes that ran concurrently on the team: every concurrent flush
/// records one propose sample per worker, shard 0's included.
fn concurrent_flushes(stats: &ServeStats) -> u64 {
    stats.shards.first().map_or(0, |b| b.propose.count())
}

fn batch() -> DynamicsBatch {
    DynamicsBatch {
        joins: 60,
        leaves: 60,
        moves: 60,
    }
}

/// The decision-relevant counters of a [`ServeStats`]: everything but
/// the latency histograms, which record wall-clock time and are the one
/// part of a report that legitimately varies run to run.
fn decisions(stats: &ServeStats) -> [u64; 9] {
    [
        stats.events,
        stats.flushes,
        stats.zones_migrated,
        stats.full_repairs,
        stats.shed_events,
        stats.rejected_joins,
        stats.queued_joins,
        stats.failovers,
        stats.recoveries,
    ]
}

/// Plain churn: every width's report equals the one-shard one —
/// same per-epoch records (pQoS is an f64, compared exactly) and same
/// lifetime counters — and the shard books account for every event.
#[test]
fn sharded_stream_is_bit_identical_across_widths() {
    let setup = setup();
    let batch = batch();
    let epochs = 4;
    let baseline = run_stream(
        &setup,
        0,
        &batch,
        epochs,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
    )
    .expect("baseline run solves");
    for shards in WIDTHS {
        let report = run_stream(
            &setup,
            0,
            &batch,
            epochs,
            StuckPolicy::BestEffort,
            width(shards),
        )
        .expect("sharded run solves");
        assert_eq!(
            report.records, baseline.records,
            "epoch records diverged at {shards} shards"
        );
        assert_eq!(
            decisions(&report.stats),
            decisions(&baseline.stats),
            "lifetime counters diverged at {shards} shards"
        );
        assert_books_route_every_event(&report.stats, shards);
    }
}

/// Churn + a fail/recover schedule: the mass evacuation and the
/// re-admission sweep move zones between servers owned by different
/// shards, and the replay still matches the one-shard engine exactly at
/// every width.
#[test]
fn sharded_recovery_is_bit_identical_across_widths() {
    let setup = setup();
    let batch = batch();
    let schedule = FaultSchedule::generate(FaultKind::FailRecover { down_for: 2 }, 8, 6, 0xd1e5);
    let baseline = run_recovery_stream(
        &setup,
        0,
        &batch,
        &schedule,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
        QualityEstimator::Exact,
        0.95,
    )
    .expect("baseline recovery solves");
    assert!(
        baseline.stats.failovers >= 1 && baseline.stats.recoveries >= 1,
        "the trace must actually exercise failure and recovery"
    );
    for shards in WIDTHS {
        let report = run_recovery_stream(
            &setup,
            0,
            &batch,
            &schedule,
            StuckPolicy::BestEffort,
            width(shards),
            QualityEstimator::Exact,
            0.95,
        )
        .expect("sharded recovery solves");
        assert_eq!(
            report.records, baseline.records,
            "recovery records diverged at {shards} shards"
        );
        assert_eq!(report.pre_pqos.to_bits(), baseline.pre_pqos.to_bits());
        assert_eq!(report.trough_pqos.to_bits(), baseline.trough_pqos.to_bits());
        assert_eq!(report.recovered_at, baseline.recovered_at);
        assert_eq!(report.events_to_recover, baseline.events_to_recover);
        assert_eq!(report.dropped_events, baseline.dropped_events);
        assert_eq!(
            decisions(&report.stats),
            decisions(&baseline.stats),
            "recovery counters diverged at {shards} shards"
        );
        assert_books_route_every_event(&report.stats, shards);
    }
}

/// An engine's full decision state: per-zone targets, per-client
/// contacts, population and lifetime counters.
type Decisions = (Vec<usize>, Vec<usize>, usize, [u64; 9]);

fn decision_state(e: &ServeEngine) -> Decisions {
    (
        e.targets().to_vec(),
        e.contacts().to_vec(),
        e.num_clients(),
        decisions(e.stats()),
    )
}

/// Drives an engine through a fixed churn + failure + recovery script
/// and returns its full decision state. Most flushes touch more zones
/// than the concurrent-flush knee; the last one moves two clients, so
/// a multi-shard engine serves it serially.
fn drive_script(engine: &mut ServeEngine) -> Decisions {
    let initial = engine.num_clients() as u64;
    // Joins land in a spread of zones; leaves retire low ids; moves
    // push survivors across the zone space. All well-formed for the
    // 8s-40z-600c scenario.
    for zone in 0..24 {
        engine
            .push(StreamEvent::Join {
                node: zone % 5,
                zone,
            })
            .expect("join admitted");
    }
    for id in 0..12u64 {
        engine.push(StreamEvent::Leave { id }).expect("leave");
    }
    for id in 100..140u64 {
        engine
            .push(StreamEvent::Move {
                id,
                zone: (id as usize * 7) % 40,
            })
            .expect("move");
    }
    engine.flush_now();
    engine.fail_server(2).expect("fail");
    for id in 200..230u64 {
        engine
            .push(StreamEvent::Move {
                id,
                zone: (id as usize * 3) % 40,
            })
            .expect("move under failure");
    }
    engine.flush_now();
    engine.restore_server(2).expect("restore");
    for id in 300..302u64 {
        engine
            .push(StreamEvent::Move {
                id,
                zone: (id as usize * 11) % 40,
            })
            .expect("move after recovery");
    }
    engine.flush_now();
    assert!(engine.num_clients() as u64 >= initial); // joins minus leaves
    decision_state(engine)
}

/// The strongest form of the property: the full per-client assignment
/// (target and contact servers), not just aggregate reports, is
/// bit-identical between the one-shard engine and a multi-shard engine
/// at every width — through a script that fails and restores a server,
/// so evacuation and re-admission cross shard boundaries.
#[test]
fn sharded_assignments_equal_unsharded_per_client() {
    let setup = setup();
    let baseline = drive_script(&mut boot(&setup, 1, 0xbeef));
    for shards in WIDTHS {
        let mut sharded = boot(&setup, shards, 0xbeef);
        let got = drive_script(&mut sharded);
        assert_eq!(
            got, baseline,
            "per-client targets/contacts diverged at {shards} shards"
        );
        assert_books_route_every_event(sharded.stats(), shards);
    }
}

/// The concurrent-flush knee is scheduling only: at 4 shards the
/// churn+failure script takes both flush paths — concurrent flushes on
/// the team for its wide batches, a serial flush for its two-move
/// batch — and still matches the one-shard engine bit for bit.
#[test]
fn knee_mixes_serial_and_concurrent_flushes_without_changing_decisions() {
    let setup = setup();
    let baseline = drive_script(&mut boot(&setup, 1, 0xbeef));
    let mut sharded = boot(&setup, 4, 0xbeef);
    let got = drive_script(&mut sharded);
    assert_eq!(got, baseline, "decisions diverged across the knee");
    let stats = sharded.stats();
    let concurrent = concurrent_flushes(stats);
    assert!(concurrent > 0, "the wide batches must flush concurrently");
    assert!(
        stats.flushes - concurrent > 0,
        "the two-move batch must flush serially"
    );
}

/// The inter-shard message seam under maximum stress: two servers fail
/// (mass evacuations land zones on servers owned by *other* shards, and
/// shed relays re-book cross-shard), churn continues while degraded,
/// then both recover (re-admission sweeps pull zones back). Every batch
/// touches more zones than the knee, so above width 1 every flush takes
/// the concurrent propose/commit path, and every width must reproduce
/// the one-shard engine's full per-client assignment exactly.
#[test]
fn concurrent_flush_matches_serial_under_cross_shard_evacuations() {
    let setup = setup();

    fn storm(engine: &mut ServeEngine) -> Decisions {
        for zone in 0..40 {
            engine
                .push(StreamEvent::Join {
                    node: zone % 5,
                    zone,
                })
                .expect("join admitted");
        }
        engine.flush_now();
        // Server 0 owns zones of every shard residue (zones land by
        // cost, not residue), so evacuating it must cross shards.
        engine.fail_server(0).expect("fail 0");
        for id in 300..360u64 {
            engine
                .push(StreamEvent::Move {
                    id,
                    zone: (id as usize * 11) % 40,
                })
                .expect("move under failure");
        }
        engine.flush_now();
        engine.fail_server(3).expect("fail 3");
        for id in 400..440u64 {
            engine
                .push(StreamEvent::Move {
                    id,
                    zone: (id as usize * 13) % 40,
                })
                .expect("move doubly degraded");
        }
        engine.flush_now();
        engine.restore_server(0).expect("restore 0");
        engine.restore_server(3).expect("restore 3");
        for id in 500..540u64 {
            engine
                .push(StreamEvent::Move {
                    id,
                    zone: (id as usize * 17) % 40,
                })
                .expect("move recovered");
        }
        engine.flush_now();
        decision_state(engine)
    }

    let baseline = storm(&mut boot(&setup, 1, 0xfade));
    assert!(
        baseline.3[7] >= 2 && baseline.3[8] >= 2,
        "the storm must exercise two failovers and two recoveries"
    );
    for shards in WIDTHS {
        let mut sharded = boot(&setup, shards, 0xfade);
        let got = storm(&mut sharded);
        assert_eq!(
            got, baseline,
            "concurrent flush diverged from serial at {shards} shards"
        );
        if shards > 1 {
            let stats = sharded.stats();
            assert_eq!(
                concurrent_flushes(stats),
                stats.flushes,
                "every storm flush must run concurrently at {shards} shards"
            );
        }
    }
}
