//! Engine-side pull loop draining an [`IngestRing`] into any
//! [`ServeSink`] — a [`ServeEngine`](crate::ServeEngine), or a harness
//! wrapped around one.
//!
//! The wire frames a remote producer feeds the ring with are specified
//! in `docs/WIRE.md` at the repository root.
//!
//! This is the consumer half of the line-rate ingest front end: a
//! producer (the `dvecap serve` socket reader, or a burst replayer)
//! enqueues [`WorldEvent`]s on the ring, and [`IngestStream::pump`]
//! pushes each popped event straight into the engine's pending buffer,
//! flushing it on the first of three triggers: `max_batch` arrivals in
//! the open window, `max_staleness` elapsed since the consumer **popped
//! the window's first event** (checked on every pop, so a sustained
//! line-rate feed cannot starve the commit path), or the ring running
//! dry with arrivals pending — the group commit that lets a flash-crowd
//! burst amortise one repair instead of queueing behind
//! `batch/max_batch` of them. The stream is only a ring drain plus
//! these triggers: the engine's pending buffer is the one place events
//! wait, and nothing coalesces, so every accepted arrival is applied
//! and records one latency sample.
//!
//! The deadline clock is the consumer's, not the producer's: it starts
//! when a window's first event is popped and every flush stops it.
//! Under a backlog — the consumer behind, every queued event already
//! older than `max_staleness` — each window therefore still fills up to
//! `max_batch` instead of committing one event at a time; a trickle's
//! ring runs dry after almost every event, so it commits at the
//! ring-dry trigger. Arrival-to-commit latency is measured from the
//! **ring enqueue** stamp, so it covers the queueing delay end to end.
//!
//! ## Id discipline
//!
//! Ring events address clients by **stable id** (the engine's
//! [`ClientId`] discipline), and the stream passes them to the engine
//! untranslated: the engine's id table is the only one. The engine
//! assigns a joiner's id when it accepts the Join at pop time, so a
//! Move or Leave naming that joiner later in the same window commits.
//! A Join shed at the window bound or refused by admission control
//! takes no id. Joiner ids are not echoed back over the wire in this
//! version. Events naming unknown or departed ids, or out-of-range
//! zones and nodes, are counted in [`IngestReport::dropped`], never
//! panicked on.
//!
//! ## Backpressure and shedding
//!
//! The layers compose: the *ring* refuses when the consumer lags (the
//! producer retries or sheds, counted on the ring), the stream's
//! *window bound* sheds Joins and Moves once `bound` arrivals are in
//! the open window (counted here; it never binds while `bound >=
//! max_batch`, since a window flushes at `max_batch`), and Leaves are
//! never shed anywhere — the window admits them past its bound and
//! [`IngestReport::shed_leaves`] stays zero, which the burst bench
//! gates.

use crate::serve::{ClientId, ServeError, ServeSink, StreamEvent};
use dve_world::{IngestRing, World, WorldEvent};
use std::time::{Duration, Instant};

/// Flush policy of an [`IngestStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Flush the engine once this many arrivals are in the open window.
    /// This is the in-flight cap under sustained backlog; a burst
    /// smaller than it commits in one flush when the ring runs dry.
    pub max_batch: usize,
    /// Flush once this long has passed since the current window's
    /// first event was popped off the ring — the wall-clock bound on
    /// how long a popped event waits in the engine's pending buffer
    /// when the producer never lets the ring run dry. The clock starts
    /// at the pop, not at ring enqueue, so a backlog of already-old
    /// events still commits in windows of up to `max_batch` arrivals.
    pub max_staleness: Duration,
}

impl Default for IngestConfig {
    /// Batches capped at 1024 arrivals (the burst bench's window
    /// bound), 1 ms staleness — the serving-SLO posture of the burst
    /// bench: bursts group-commit whole, trickles wait at most 1 ms.
    fn default() -> Self {
        IngestConfig {
            max_batch: 1024,
            max_staleness: Duration::from_millis(1),
        }
    }
}

/// Lifetime counters of one ingest session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Events popped off the ring.
    pub arrivals: u64,
    /// Events the engine accepted (each is applied; nothing coalesces)
    /// plus server fault events.
    pub committed: u64,
    /// Window flushes into the engine.
    pub flushes: u64,
    /// Joins and Moves shed at the window bound.
    pub shed: u64,
    /// Leaves shed — **always zero**: the window bound admits every
    /// Leave (a departure strictly frees capacity), and producers push
    /// Leaves onto the ring with the blocking push. The burst bench
    /// gates this.
    pub shed_leaves: u64,
    /// Always 0: the stream no longer coalesces arrivals. Kept so the
    /// report readers in `benchmark/` still compile.
    pub coalesced: u64,
    /// Invalid events dropped (unknown/departed ids, out-of-range
    /// zones or nodes, refusals after retry).
    pub dropped: u64,
    /// Joins the engine shed at admission control.
    pub refused_joins: u64,
    /// Server fault events routed to the engine.
    pub server_events: u64,
}

/// The pull-loop state machine: the window bound, the flush triggers
/// and the counters. See the module-level docs of
/// [`run_ingest_stream`]'s module for the flush policy and id
/// discipline.
#[derive(Debug)]
pub struct IngestStream {
    /// Joins and Moves shed once this many arrivals are in the window.
    bound: usize,
    config: IngestConfig,
    /// Arrivals the engine accepted since the last flush.
    window: usize,
    /// When the consumer popped the current window's first event — the
    /// `max_staleness` clock. `None` between windows: every flush
    /// clears it.
    window_opened: Option<Instant>,
    report: IngestReport,
}

impl IngestStream {
    /// Opens a stream in front of `engine`. `bound` caps the arrivals
    /// one window admits before Joins and Moves shed. The stream keeps
    /// no engine or world state, so `_engine` and `_world` are unused;
    /// they stay for the callers of this signature. Any [`ServeSink`]
    /// works — the engine itself or a harness wrapped around it.
    pub fn new<E: ServeSink>(
        _engine: &E,
        _world: &World,
        bound: usize,
        config: IngestConfig,
    ) -> Self {
        Self::open(bound, config)
    }

    fn open(bound: usize, config: IngestConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(bound >= 1, "a zero-arrival window cannot accept anything");
        IngestStream {
            bound,
            config,
            window: 0,
            window_opened: None,
            report: IngestReport::default(),
        }
    }

    /// Counters so far.
    pub fn report(&self) -> IngestReport {
        self.report
    }

    /// Drains every event currently on the ring, flushing the engine
    /// per the [`IngestConfig`] policy, and returns how many events
    /// were popped. Call in a loop (the consumer side of the SPSC
    /// contract) until the ring is closed and empty.
    pub fn pump<E: ServeSink>(&mut self, engine: &mut E, ring: &IngestRing) -> u64 {
        let mut popped = 0u64;
        while let Some(admitted) = ring.pop() {
            popped += 1;
            self.report.arrivals += 1;
            let now = Instant::now();
            let opened = *self.window_opened.get_or_insert(now);
            self.accept(engine, admitted.event, admitted.admitted);
            if self.window >= self.config.max_batch
                || now.duration_since(opened) >= self.config.max_staleness
            {
                self.flush(engine);
            }
        }
        // The ring ran dry: group-commit whatever the drain gathered. A
        // burst under `max_batch` pays one repair for the whole window
        // instead of its tail queueing behind a chain of micro-flushes.
        if popped > 0 {
            self.flush(engine);
        }
        popped
    }

    /// Final drain: flushes anything still pending and returns the
    /// session's counters.
    pub fn finish<E: ServeSink>(mut self, engine: &mut E) -> IngestReport {
        self.flush(engine);
        engine.flush_now();
        self.report
    }

    /// Routes one ring event: client churn into the engine's pending
    /// buffer by stable id (through the window bound), server faults
    /// to the engine after the open window commits.
    fn accept<E: ServeSink>(&mut self, engine: &mut E, event: WorldEvent, at: Instant) {
        let event = match event {
            WorldEvent::Join { node, zone } => StreamEvent::Join { node, zone },
            WorldEvent::Leave { client } => StreamEvent::Leave {
                id: client as ClientId,
            },
            WorldEvent::Move { client, zone } => StreamEvent::Move {
                id: client as ClientId,
                zone,
            },
            WorldEvent::ServerDown { server } => {
                // Order matters: commit the open window first, then fail.
                self.flush(engine);
                let result = engine.fail_server(server).map(drop);
                self.count_server_event(result);
                return;
            }
            WorldEvent::ServerUp { server } => {
                self.flush(engine);
                let result = engine.restore_server(server).map(drop);
                self.count_server_event(result);
                return;
            }
        };
        // The window bound sheds Joins and Moves only: a Leave strictly
        // frees capacity, and shedding one would leave the engine
        // serving a phantom client forever.
        if self.window >= self.bound && !matches!(event, StreamEvent::Leave { .. }) {
            self.report.shed += 1;
            return;
        }
        self.feed(engine, event, at);
    }

    fn count_server_event(&mut self, result: Result<(), ServeError>) {
        match result {
            Ok(()) => {
                self.report.server_events += 1;
                self.report.committed += 1;
            }
            Err(_) => self.report.dropped += 1,
        }
    }

    /// Pushes one event into the engine with its admission stamp,
    /// retrying once across a flush on `QueueFull`.
    fn feed<E: ServeSink>(&mut self, engine: &mut E, event: StreamEvent, at: Instant) {
        let mut attempt = engine.push_admitted(event, at);
        if matches!(attempt, Err(ServeError::QueueFull { .. })) {
            self.flush(engine);
            attempt = engine.push_admitted(event, at);
        }
        match attempt {
            Ok(_) => {
                self.window += 1;
                self.report.committed += 1;
            }
            Err(ServeError::Shed { .. }) => self.report.refused_joins += 1,
            Err(_) => self.report.dropped += 1,
        }
    }

    /// Commits the open window: one engine flush, unless the window
    /// took nothing.
    fn flush<E: ServeSink>(&mut self, engine: &mut E) {
        self.window_opened = None;
        if self.window == 0 {
            return;
        }
        self.window = 0;
        self.report.flushes += 1;
        engine.flush_now();
    }
}

/// Runs the pull loop to completion: pumps `ring` into `engine` until
/// the ring is closed and drained, then flushes the tail and returns
/// the session counters. `bound` caps the arrivals one window admits
/// before Joins and Moves shed.
///
/// The latency histogram in
/// [`ServeEngine::stats`](crate::ServeEngine::stats) measures each
/// arrival from its ring enqueue to the end of the flush that committed
/// it — the end-to-end serving SLO the burst bench gates at p99.9.
pub fn run_ingest_stream<E: ServeSink>(
    engine: &mut E,
    ring: &IngestRing,
    bound: usize,
    config: IngestConfig,
) -> IngestReport {
    let mut stream = IngestStream::open(bound, config);
    loop {
        let popped = stream.pump(engine, ring);
        if ring.is_closed() && ring.is_empty() {
            break;
        }
        if popped == 0 {
            std::thread::yield_now();
        }
    }
    stream.finish(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{FailoverReport, FlushReport, RestoreReport, ServeConfig, ServeEngine};
    use crate::setup::{build_replication, SimSetup, TopologySpec};
    use dve_assign::StuckPolicy;
    use dve_topology::HierarchicalConfig;
    use dve_world::{ErrorModel, ScenarioConfig};

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

    fn boot(setup: &SimSetup) -> (ServeEngine, World) {
        let rep = build_replication(setup, 0);
        let engine = ServeEngine::new(
            rep.instance,
            &rep.world,
            rep.delays,
            ErrorModel::PERFECT,
            StuckPolicy::BestEffort,
            ServeConfig::default(),
            rep.rng,
        )
        .expect("small instances solve");
        (engine, rep.world)
    }

    /// One window per ring drain: no deadline and no batch cap bind.
    fn one_window() -> IngestConfig {
        IngestConfig {
            max_batch: 1_000,
            max_staleness: Duration::from_secs(3_600),
        }
    }

    /// Queues `events` on a closed ring and serves them to completion.
    fn serve(
        engine: &mut ServeEngine,
        events: &[WorldEvent],
        bound: usize,
        config: IngestConfig,
    ) -> IngestReport {
        let ring = IngestRing::with_capacity(events.len().max(1));
        for &event in events {
            ring.try_push(event).unwrap();
        }
        ring.close();
        run_ingest_stream(engine, &ring, bound, config)
    }

    /// The zone client `id` is in, if live.
    fn zone_of(engine: &ServeEngine, id: ClientId) -> Option<usize> {
        engine.index_of(id).map(|c| engine.instance().zone_of(c))
    }

    /// Latency samples the engine recorded, warm-up included.
    fn samples(engine: &ServeEngine) -> u64 {
        engine.stats().latency.count() + engine.stats().warmup.count()
    }

    /// Ring → engine end to end: every accepted arrival commits (a
    /// same-zone move included), population tracks joins and leaves,
    /// zero shed leaves.
    #[test]
    fn ring_events_commit_into_the_engine() {
        let (mut engine, _) = boot(&small_setup());
        let events = [
            WorldEvent::Leave { client: 3 },
            WorldEvent::Move { client: 5, zone: 2 },
            WorldEvent::Join { node: 1, zone: 4 },
            WorldEvent::Leave { client: 7 },
        ];
        let report = serve(&mut engine, &events, 64, IngestConfig::default());
        assert_eq!(report.arrivals, 4);
        assert_eq!(report.shed_leaves, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.committed, 4);
        assert_eq!(engine.num_clients(), 119);
        assert_eq!(engine.stats().events, 4);
        assert_eq!(samples(&engine), 4, "one latency sample per arrival");
        // Departed ids are gone; survivors keep their ids.
        assert_eq!(engine.index_of(3), None);
        assert_eq!(engine.index_of(7), None);
        assert_eq!(zone_of(&engine, 5), Some(2));
    }

    /// Stale ids (departed clients) and bad zones are dropped, never
    /// panicked on — a remote producer cannot crash the engine.
    #[test]
    fn invalid_events_are_dropped_not_fatal() {
        let (mut engine, _) = boot(&small_setup());
        let events = [
            WorldEvent::Leave { client: 2 },
            // Same id again: already leaving by the time the second
            // arrives in the same window.
            WorldEvent::Leave { client: 2 },
            // Unknown id and out-of-range zone.
            WorldEvent::Leave { client: 9_999 },
            WorldEvent::Move {
                client: 4,
                zone: 9_999,
            },
        ];
        let report = serve(&mut engine, &events, 64, IngestConfig::default());
        assert_eq!(report.arrivals, 4);
        assert_eq!(report.committed, 1);
        assert_eq!(report.dropped, 3);
        assert_eq!(engine.num_clients(), 119);
    }

    /// The window bound sheds moves under pressure but never a leave,
    /// and the shed counter composes with committed counts to account
    /// for every arrival.
    #[test]
    fn bounded_buffer_sheds_moves_not_leaves() {
        let (mut engine, _) = boot(&small_setup());
        // Tight bound of 4 arrivals, one window: arrivals past the
        // bound shed.
        let mut events: Vec<WorldEvent> = (0..8)
            .map(|client| WorldEvent::Move { client, zone: 9 })
            .collect();
        events.extend((8..12).map(|client| WorldEvent::Leave { client }));
        let report = serve(&mut engine, &events, 4, one_window());
        assert_eq!(report.arrivals, 12);
        assert_eq!(report.shed, 4, "moves past the bound shed");
        assert_eq!(report.shed_leaves, 0, "leaves all admitted past it");
        assert_eq!(report.committed + report.shed, report.arrivals);
        assert_eq!(engine.num_clients(), 116, "all four leaves committed");
    }

    /// Regression: a Leave must never be shed at the window bound.
    /// Shedding a departure would leave the engine serving a phantom
    /// client forever — a leave strictly frees capacity, so it is
    /// admitted past the bound, while new Moves and Joins shed there.
    #[test]
    fn leave_is_never_shed_at_the_bound() {
        let (mut engine, world) = boot(&small_setup());
        let events = [
            WorldEvent::Move { client: 0, zone: 1 },
            WorldEvent::Move { client: 1, zone: 1 },
            // The window is at its bound of 2: these shed...
            WorldEvent::Move { client: 2, zone: 1 },
            WorldEvent::Join { node: 0, zone: 0 },
            // ...and these are admitted past it.
            WorldEvent::Leave { client: 3 },
            WorldEvent::Leave { client: 4 },
            WorldEvent::Leave { client: 5 },
        ];
        let report = serve(&mut engine, &events, 2, one_window());
        assert_eq!(report.flushes, 1, "one window");
        assert_eq!(report.shed, 2);
        assert_eq!(report.shed_leaves, 0);
        assert_eq!(report.committed, 5);
        assert_eq!(engine.num_clients(), 117, "all three leaves committed");
        for id in 3..6 {
            assert_eq!(engine.index_of(id), None);
        }
        assert_eq!(zone_of(&engine, 2), Some(world.clients[2].zone));
        assert_eq!(engine.index_of(120), None, "a shed join takes no id");
    }

    /// Server fault events route around the window in order: churn
    /// popped before the fault commits first.
    #[test]
    fn server_faults_route_to_the_engine_in_order() {
        let (mut engine, _) = boot(&small_setup());
        let events = [
            WorldEvent::Leave { client: 0 },
            WorldEvent::ServerDown { server: 1 },
            WorldEvent::ServerUp { server: 1 },
        ];
        let report = serve(&mut engine, &events, 64, IngestConfig::default());
        assert_eq!(report.server_events, 2);
        assert_eq!(report.dropped, 0);
        assert_eq!(engine.stats().failovers, 1);
        assert_eq!(engine.stats().recoveries, 1);
        assert_eq!(engine.num_clients(), 119);
    }

    /// A joiner's id is assigned when the engine accepts its Join, so a
    /// Move and a Leave naming it in the same window commit.
    #[test]
    fn a_joiner_is_addressable_in_its_own_window() {
        let (mut engine, _) = boot(&small_setup());
        let events = [
            WorldEvent::Join { node: 2, zone: 5 },
            WorldEvent::Move {
                client: 120,
                zone: 6,
            },
            WorldEvent::Leave { client: 120 },
        ];
        let report = serve(&mut engine, &events, 64, one_window());
        assert_eq!(report.flushes, 1, "one window");
        assert_eq!(report.dropped, 0);
        assert_eq!(report.committed, 3);
        assert_eq!(engine.num_clients(), 120);
        assert_eq!(engine.index_of(120), None, "the joiner came and went");
        assert_eq!(samples(&engine), 3);
    }

    /// Every accepted arrival records exactly one latency sample, each
    /// measured from its ring enqueue: the queueing delay on the ring
    /// is part of it. Shed arrivals record none.
    #[test]
    fn admission_timestamps_align_with_the_committed_delta() {
        let (mut engine, _) = boot(&small_setup());
        let ring = IngestRing::with_capacity(8);
        ring.try_push(WorldEvent::Leave { client: 0 }).unwrap();
        ring.try_push(WorldEvent::Move { client: 1, zone: 3 })
            .unwrap();
        // The window bound is 2: these two shed.
        ring.try_push(WorldEvent::Move { client: 2, zone: 3 })
            .unwrap();
        ring.try_push(WorldEvent::Join { node: 0, zone: 3 })
            .unwrap();
        ring.close();
        let queued = Duration::from_millis(20);
        std::thread::sleep(queued);
        let report = run_ingest_stream(&mut engine, &ring, 2, one_window());
        assert_eq!((report.committed, report.shed), (2, 2));
        assert_eq!(samples(&engine), report.committed);
        assert!(
            engine.stats().latency.min_ns() >= queued.as_nanos() as u64,
            "every sample covers the ring queueing delay"
        );
    }

    /// Nothing coalesces: two moves of one client in one window are
    /// two samples, and the first keeps its own, earlier stamp.
    #[test]
    fn coalesced_entries_keep_the_first_arrival_stamp() {
        let (mut engine, world) = boot(&small_setup());
        let base = world.clients[0].zone;
        let a = (base + 1) % world.zones;
        let b = (base + 2) % world.zones;
        let ring = IngestRing::with_capacity(8);
        ring.try_push(WorldEvent::Move { client: 0, zone: a })
            .unwrap();
        let gap = Duration::from_millis(30);
        std::thread::sleep(gap);
        ring.try_push(WorldEvent::Move { client: 0, zone: b })
            .unwrap();
        ring.close();
        let report = run_ingest_stream(&mut engine, &ring, 64, one_window());
        assert_eq!(report.committed, 2);
        assert_eq!(report.coalesced, 0);
        assert_eq!(zone_of(&engine, 0), Some(b), "last destination wins");
        let latency = &engine.stats().latency;
        assert_eq!(latency.count(), 2, "two arrivals, two samples");
        assert!(
            latency.max_ns() >= latency.min_ns() + gap.as_nanos() as u64,
            "the first arrival is measured from its own stamp"
        );
    }

    /// A move-then-move-back pair is two accepted arrivals and two
    /// samples in whichever window it lands, and an invalid event
    /// records none: sample counts always equal committed churn.
    #[test]
    fn move_then_move_back_yields_consistent_sample_counts() {
        let (mut engine, world) = boot(&small_setup());
        let mut events = Vec::new();
        for client in [6, 9, 11] {
            let base = world.clients[client].zone;
            let other = (base + 1) % world.zones;
            events.push(WorldEvent::Move {
                client,
                zone: other,
            });
            events.push(WorldEvent::Move { client, zone: base });
        }
        events.push(WorldEvent::Leave { client: 9_999 });
        // Windows of 4 split one pair across a flush.
        let config = IngestConfig {
            max_batch: 4,
            ..one_window()
        };
        let report = serve(&mut engine, &events, 64, config);
        assert_eq!(report.flushes, 2);
        assert_eq!((report.committed, report.dropped), (6, 1));
        assert_eq!(samples(&engine), report.committed);
        for client in [6, 9, 11] {
            let id = client as ClientId;
            assert_eq!(zone_of(&engine, id), Some(world.clients[client].zone));
        }
    }

    /// The serving path commits a window in place, with the batch
    /// semantics of the window: the leavers depart, a mover lands in its
    /// zone, a move away and back ends where it started, the joiner
    /// takes the next id (120) in its zone, and every other client
    /// stays in its boot zone.
    #[test]
    fn drain_in_place_matches_flush_semantics() {
        let (mut engine, world) = boot(&small_setup());
        let base = 4;
        let away = (world.clients[base].zone + 1) % world.zones;
        let events = [
            WorldEvent::Leave { client: 2 },
            WorldEvent::Move { client: 5, zone: 9 },
            WorldEvent::Leave { client: 7 },
            WorldEvent::Join { node: 3, zone: 1 },
            // Moved away and back: it ends where it started.
            WorldEvent::Move {
                client: base,
                zone: away,
            },
            WorldEvent::Move {
                client: base,
                zone: world.clients[base].zone,
            },
        ];
        let report = serve(&mut engine, &events, 64, one_window());
        assert_eq!(report.committed, events.len() as u64);

        assert_eq!(engine.num_clients(), 119);
        for id in [2, 7] {
            assert_eq!(engine.index_of(id), None);
        }
        assert_eq!(zone_of(&engine, 5), Some(9));
        assert_eq!(zone_of(&engine, 120), Some(1));
        for client in (0..120).filter(|c| ![2, 5, 7].contains(c)) {
            assert_eq!(
                zone_of(&engine, client as ClientId),
                Some(world.clients[client].zone),
                "client {client}"
            );
        }
    }

    /// Queues `events` on a fresh ring, lets all of them age past
    /// `max_staleness`, then drains them in a single pump: the backlog a
    /// consumer reaches late. The window bound is `max_batch`, so
    /// nothing sheds.
    fn pump_aged_backlog<E: ServeSink>(
        sink: &mut E,
        world: &World,
        max_batch: usize,
        max_staleness: Duration,
        events: &[WorldEvent],
    ) -> IngestReport {
        let config = IngestConfig {
            max_batch,
            max_staleness,
        };
        let mut stream = IngestStream::new(&*sink, world, max_batch, config);
        let ring = IngestRing::with_capacity(events.len());
        for &event in events {
            ring.try_push(event).unwrap();
        }
        std::thread::sleep(max_staleness + Duration::from_millis(10));
        assert_eq!(stream.pump(sink, &ring), events.len() as u64);
        let report = stream.report();
        assert_eq!((report.shed, report.dropped), (0, 0));
        report
    }

    /// A backlog older than the deadline still group-commits: the
    /// clock starts at the window's first pop, so windows fill to
    /// `max_batch` (or the ring runs dry) instead of committing one
    /// already-late event at a time.
    #[test]
    fn aged_backlog_commits_in_max_batch_windows() {
        for (max_batch, windows) in [(1024, 1), (128, 3)] {
            let (mut engine, world) = boot(&small_setup());
            let moves: Vec<WorldEvent> = (0..300)
                .map(|i| WorldEvent::Move {
                    client: i % world.clients.len(),
                    zone: i % world.zones,
                })
                .collect();
            let report = pump_aged_backlog(
                &mut engine,
                &world,
                max_batch,
                Duration::from_millis(50),
                &moves,
            );
            assert_eq!(report.arrivals, 300);
            assert_eq!(report.flushes, windows, "max_batch {max_batch}");
        }
    }

    /// Logs the engine's committed event count at each failover.
    struct FailoverProbe {
        engine: ServeEngine,
        events_at_fail: Vec<u64>,
    }

    impl ServeSink for FailoverProbe {
        fn engine(&self) -> &ServeEngine {
            &self.engine
        }
        fn push_admitted(
            &mut self,
            event: StreamEvent,
            at: Instant,
        ) -> Result<Option<ClientId>, ServeError> {
            self.engine.push_admitted(event, at)
        }
        fn tick(&mut self) -> Option<FlushReport> {
            self.engine.tick()
        }
        fn flush_now(&mut self) -> Option<FlushReport> {
            self.engine.flush_now()
        }
        fn fail_server(&mut self, server: usize) -> Result<FailoverReport, ServeError> {
            self.events_at_fail.push(self.engine.stats().events);
            self.engine.fail_server(server)
        }
        fn restore_server(&mut self, server: usize) -> Result<RestoreReport, ServeError> {
            self.engine.restore_server(server)
        }
        fn begin_warmup(&mut self) {
            self.engine.begin_warmup()
        }
        fn end_warmup(&mut self) {
            self.engine.end_warmup()
        }
    }

    /// A server fault in an aged backlog closes the window: the churn
    /// queued before it commits as one window ahead of the failover,
    /// the churn after it as a second.
    #[test]
    fn aged_backlog_commits_two_windows_around_a_failover() {
        let (engine, world) = boot(&small_setup());
        let hop = |client: usize, by: usize| WorldEvent::Move {
            client,
            zone: (world.clients[client].zone + by) % world.zones,
        };
        let mut events: Vec<WorldEvent> = (0..100).map(|c| hop(c, 1)).collect();
        events.push(WorldEvent::ServerDown { server: 1 });
        events.extend((0..100).map(|c| hop(c, 2)));
        let mut probe = FailoverProbe {
            engine,
            events_at_fail: Vec::new(),
        };
        let report =
            pump_aged_backlog(&mut probe, &world, 1024, Duration::from_millis(50), &events);
        assert_eq!(report.flushes, 2);
        assert_eq!(report.server_events, 1);
        assert_eq!(report.committed, 201);
        assert_eq!(
            probe.events_at_fail,
            vec![100],
            "the churn before the fault commits first, whole"
        );
        assert_eq!(probe.engine.stats().events, 200);
    }

    /// A zero deadline still binds: every popped event is already due,
    /// so each commits in its own flush.
    #[test]
    fn zero_staleness_commits_every_pop_alone() {
        let (mut engine, world) = boot(&small_setup());
        let moves: Vec<WorldEvent> = (0..50)
            .map(|client| WorldEvent::Move { client, zone: 0 })
            .collect();
        let report = pump_aged_backlog(&mut engine, &world, 1024, Duration::ZERO, &moves);
        assert_eq!(report.flushes, 50);
    }

    /// A move-then-move-back window commits both arrivals, which net
    /// out to no change: the client ends in its base zone and each
    /// arrival records its own sample.
    #[test]
    fn move_back_window_commits_nothing() {
        let (mut engine, world) = boot(&small_setup());
        let base = world.clients[6].zone;
        let other = (base + 1) % world.zones;
        let events = [
            WorldEvent::Move {
                client: 6,
                zone: other,
            },
            WorldEvent::Move {
                client: 6,
                zone: base,
            },
        ];
        let report = serve(&mut engine, &events, 64, one_window());
        assert_eq!(report.arrivals, 2);
        assert_eq!(report.coalesced, 0);
        assert_eq!(report.committed, 2, "both arrivals are applied");
        assert_eq!(samples(&engine), 2, "one latency sample per arrival");
        assert_eq!(zone_of(&engine, 6), Some(base), "no net change");
        assert_eq!(engine.num_clients(), world.clients.len());
    }
}
