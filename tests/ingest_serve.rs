//! Cross-crate integration test of the ingest front end: a TCP
//! loopback producer speaking the `dve_world::wire` protocol, a socket
//! reader feeding the SPSC ring, and the engine-side pull loop
//! committing the events — the full `dvecap serve` path, in-process.

use dve::assign::StuckPolicy;
use dve::sim::{
    build_replication, run_ingest_stream, IngestConfig, ServeConfig, ServeEngine, SimSetup,
    TopologySpec,
};
use dve::topology::HierarchicalConfig;
use dve::world::wire::{encode_event, FrameReader};
use dve::world::{ErrorModel, IngestRing, ScenarioConfig, WorldEvent};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn small_setup() -> SimSetup {
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

/// The socket-reader half of `dvecap serve`: bytes → frames → ring.
fn read_into_ring(mut conn: TcpStream, ring: &IngestRing) {
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        frames.feed(&buf[..n]);
        while let Some(event) = frames.next_event().expect("well-formed stream") {
            let must_deliver = matches!(
                event,
                WorldEvent::Leave { .. }
                    | WorldEvent::ServerDown { .. }
                    | WorldEvent::ServerUp { .. }
            );
            if must_deliver {
                ring.push_blocking(event).unwrap();
            } else {
                ring.push_or_shed(event).unwrap();
            }
        }
    }
    assert_eq!(frames.pending_bytes(), 0, "no truncated final frame");
}

/// End to end over a real socket: a producer thread encodes a churn
/// script frame by frame, the reader decodes into the ring, the pull
/// loop commits into the engine. Population, shed counters, and
/// latency sample counts all reconcile.
///
/// The whole script is on the ring before the pull loop starts, and
/// the staleness bound is long, so the seven events form one window and
/// client 0's two moves always coalesce. (Reader/pump overlap is
/// covered by `two_sequential_clients_share_one_serve_loop`.)
#[test]
fn wire_events_over_loopback_commit_into_the_engine() {
    let setup = small_setup();
    let rep = build_replication(&setup, 0);
    let world = rep.world;
    let mut engine = ServeEngine::new(
        rep.instance,
        &world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
        rep.rng,
    )
    .expect("small instances solve");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // The producer: a churn script against the initial population's
    // stable ids, written in a handful of odd-sized chunks so framing
    // is exercised across write boundaries.
    let script: Vec<WorldEvent> = vec![
        WorldEvent::Move { client: 0, zone: 3 },
        WorldEvent::Leave { client: 1 },
        WorldEvent::Join { node: 2, zone: 5 },
        WorldEvent::Move { client: 0, zone: 4 },
        WorldEvent::Move { client: 2, zone: 9 },
        WorldEvent::Leave { client: 3 },
        WorldEvent::Join { node: 7, zone: 1 },
    ];
    let script_clone = script.clone();
    let producer = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        for ev in &script_clone {
            encode_event(ev, &mut bytes);
        }
        let mut conn = TcpStream::connect(addr).unwrap();
        // Deliberately misaligned chunks: 7 bytes at a time.
        for chunk in bytes.chunks(7) {
            conn.write_all(chunk).unwrap();
        }
    });

    let (conn, _) = listener.accept().unwrap();
    let ring = Arc::new(IngestRing::with_capacity(64));
    let reader_ring = Arc::clone(&ring);
    let reader = std::thread::spawn(move || {
        read_into_ring(conn, &reader_ring);
        reader_ring.close();
    });
    producer.join().unwrap();
    reader.join().unwrap();

    let config = IngestConfig {
        max_staleness: Duration::from_secs(3_600),
        ..Default::default()
    };
    let report = run_ingest_stream(&mut engine, &ring, &world, 256, config);

    assert_eq!(report.arrivals, script.len() as u64);
    assert_eq!(report.shed_leaves, 0);
    assert_eq!(report.dropped, 0);
    assert_eq!(ring.shed_events(), 0);
    // 2 leaves + 2 joins; moves commit unless they were no-ops (the
    // coalesced final destination equals the base zone).
    let moved0 = u64::from(world.clients[0].zone != 4);
    let moved2 = u64::from(world.clients[2].zone != 9);
    assert_eq!(report.committed, 4 + moved0 + moved2);
    assert_eq!(report.coalesced, 1, "the second move of client 0");
    assert_eq!(engine.num_clients(), 120, "2 leaves + 2 joins net zero");
    assert_eq!(
        engine.stats().latency.count() + engine.stats().warmup.count(),
        report.committed - report.server_events,
        "one latency sample per committed churn event"
    );
    // Departed ids are gone; the joiners took the next ids.
    assert_eq!(engine.index_of(1), None);
    assert_eq!(engine.index_of(3), None);
    assert!(engine.index_of(120).is_some(), "first joiner's id");
    assert!(engine.index_of(121).is_some(), "second joiner's id");
}

/// The `--connections N` shape of `dvecap serve`: two producers connect
/// back to back, the reader accepts them sequentially against the same
/// ring, and one serve loop commits both scripts into one engine. The
/// second client observes state the first one created (the first
/// joiner's id is live; a departed id is gone).
#[test]
fn two_sequential_clients_share_one_serve_loop() {
    let setup = small_setup();
    let rep = build_replication(&setup, 0);
    let world = rep.world;
    let mut engine = ServeEngine::new(
        rep.instance,
        &world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
        rep.rng,
    )
    .expect("small instances solve");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Client 1 churns the initial population and joins one client
    // (which takes id 120); client 2 connects after client 1 hangs up
    // and addresses both the initial ids and that joiner.
    let script_one: Vec<WorldEvent> = vec![
        WorldEvent::Move { client: 0, zone: 3 },
        WorldEvent::Leave { client: 1 },
        WorldEvent::Join { node: 2, zone: 5 },
    ];
    let script_two: Vec<WorldEvent> = vec![
        WorldEvent::Move {
            client: 120,
            zone: 7,
        },
        WorldEvent::Leave { client: 2 },
        WorldEvent::Join { node: 4, zone: 9 },
    ];
    let total_events = script_one.len() + script_two.len();
    let producer = std::thread::spawn(move || {
        for script in [&script_one, &script_two] {
            let mut bytes = Vec::new();
            for ev in script {
                encode_event(ev, &mut bytes);
            }
            let mut conn = TcpStream::connect(addr).unwrap();
            for chunk in bytes.chunks(5) {
                conn.write_all(chunk).unwrap();
            }
            // Dropping `conn` closes it; the next iteration dials a
            // fresh connection that the reader accepts afterwards.
        }
    });

    // The reader half of `dvecap serve --connections 2`: sequential
    // accepts into the same ring, closed after the last hang-up.
    let ring = Arc::new(IngestRing::with_capacity(64));
    let reader_ring = Arc::clone(&ring);
    let reader = std::thread::spawn(move || {
        for _ in 0..2 {
            let (conn, _) = listener.accept().unwrap();
            read_into_ring(conn, &reader_ring);
        }
        reader_ring.close();
    });

    // max_batch = 3 pins a flush right after each client's script, so
    // client 1's joiner id is live before client 2 addresses it no
    // matter how the pump interleaves with the socket reads.
    let config = IngestConfig {
        max_batch: 3,
        ..Default::default()
    };
    let report = run_ingest_stream(&mut engine, &ring, &world, 256, config);
    producer.join().unwrap();
    reader.join().unwrap();

    assert_eq!(report.arrivals, total_events as u64);
    assert_eq!(report.shed_leaves, 0);
    assert_eq!(report.dropped, 0);
    assert_eq!(ring.shed_events(), 0);
    assert_eq!(engine.num_clients(), 120, "2 leaves + 2 joins net zero");
    // Cross-connection state: ids departed or created by client 1 are
    // what client 2 saw; client 2's join took the next fresh id.
    assert_eq!(engine.index_of(1), None, "client 1's leave");
    assert_eq!(engine.index_of(2), None, "client 2's leave");
    assert!(engine.index_of(120).is_some(), "client 1's joiner");
    assert!(engine.index_of(121).is_some(), "client 2's joiner");
}

/// A malformed stream (hostile length prefix) is refused at the frame
/// layer without crashing anything downstream.
#[test]
fn hostile_length_prefix_drops_the_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let producer = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
        conn.write_all(&[0u8; 64]).unwrap();
    });
    let (mut conn, _) = listener.accept().unwrap();
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 256];
    let mut refused = false;
    loop {
        let n = match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        frames.feed(&buf[..n]);
        match frames.next_event() {
            Ok(Some(_)) => panic!("garbage must not decode"),
            Ok(None) => {}
            Err(_) => {
                refused = true;
                break;
            }
        }
    }
    producer.join().unwrap();
    assert!(refused, "the oversized frame must be refused");
}
