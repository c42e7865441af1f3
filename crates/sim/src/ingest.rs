//! Engine-side pull loop draining an [`IngestRing`] through the
//! [`DeltaBuffer`] coalesce-or-shed boundary into any [`ServeSink`] —
//! a [`ServeEngine`](crate::ServeEngine) at any
//! [`ServeConfig::shards`](crate::ServeConfig::shards) width, or a
//! harness wrapped around one.
//!
//! The wire frames a remote producer feeds the ring with are specified
//! in `docs/WIRE.md` at the repository root.
//!
//! This is the consumer half of the line-rate ingest front end: a
//! producer (the `dvecap serve` socket reader, or a burst replayer)
//! enqueues [`WorldEvent`]s on the ring, and [`IngestStream::pump`]
//! drains them into a bounded [`DeltaBuffer`], flushing into the engine
//! on the first of three triggers: `max_batch` arrivals buffered,
//! `max_staleness` elapsed since the consumer **popped the window's
//! first event** (checked on every pop, so a sustained line-rate feed
//! cannot starve the commit path), or the ring running dry with
//! arrivals pending — the group commit that lets a flash-crowd burst
//! amortise one repair instead of queueing behind `batch/max_batch` of
//! them.
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
//! [`ClientId`] discipline), not by base-world index: remote producers
//! cannot track the per-flush index rebasing a [`DeltaBuffer`] does.
//! The stream owns the translation — a mirror world the buffer is based
//! on, an index→id table rebased from each flush's `carried_from`, and
//! an id→index table for addressing. Joiner ids are engine-assigned at
//! the flush that admits them and are not echoed back over the wire in
//! this version, so a remote connection can only address the initial
//! population; a join the engine refuses (admission shed) keeps a dead
//! placeholder in the table so mirror and engine indexing cannot
//! diverge. Events naming unknown or departed ids are counted in
//! [`IngestReport::dropped`], never panicked on.
//!
//! ## Backpressure and shedding
//!
//! The layers compose: the *ring* refuses when the consumer lags (the
//! producer retries or sheds, counted on the ring), the *buffer* sheds
//! joins/moves past its entry bound (counted here), and Leaves are
//! never shed anywhere — the buffer admits them past its bound and
//! [`IngestReport::shed_leaves`] stays zero, which the burst bench
//! gates.

use crate::serve::{ClientId, ServeError, ServeSink, StreamEvent};
use dve_world::{DeltaBuffer, IngestRing, World, WorldEvent};
use std::time::{Duration, Instant};

/// Marks an id-table slot whose join the engine refused: the mirror
/// world carries the client, the engine does not, and nothing can
/// address it (never a live engine id).
const DEAD: ClientId = ClientId::MAX;

/// Marks an id→index slot that is not live.
const NOT_LIVE: usize = usize::MAX;

/// Flush policy of an [`IngestStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Flush the buffer into the engine once this many arrivals are
    /// pending (coalesced arrivals count: this is the arrival counter,
    /// matching the engine's own `max_batch` semantics). This is the
    /// in-flight cap under sustained backlog; a burst smaller than it
    /// commits in one flush when the ring runs dry.
    pub max_batch: usize,
    /// Flush once this long has passed since the current window's
    /// first event was popped off the ring — the wall-clock bound on
    /// how long a popped event waits in the buffer when the producer
    /// never lets the ring run dry. The clock starts at the pop, not at
    /// ring enqueue, so a backlog of already-old events still commits
    /// in windows of up to `max_batch` arrivals.
    pub max_staleness: Duration,
}

impl Default for IngestConfig {
    /// Batches capped at 1024 arrivals (the burst bench's buffer
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
    /// Events committed into the engine (post-coalescing delta events
    /// plus server fault events).
    pub committed: u64,
    /// Buffer flushes into the engine.
    pub flushes: u64,
    /// Events shed at the buffer bound (joins/moves only, by policy).
    pub shed: u64,
    /// Leaves shed anywhere — **must stay zero**: leaves bypass every
    /// bound (a departure strictly frees capacity). The burst bench
    /// gates this.
    pub shed_leaves: u64,
    /// Arrivals absorbed into an existing buffer entry.
    pub coalesced: u64,
    /// Buffer entries dropped at flush as no-ops (move-back windows).
    pub ineffective: u64,
    /// Invalid events dropped (unknown/departed ids, out-of-range
    /// zones or nodes, refusals after retry).
    pub dropped: u64,
    /// Joins the engine refused at admission (shed or still queued).
    pub refused_joins: u64,
    /// Server fault events routed around the buffer to the engine.
    pub server_events: u64,
}

/// The pull-loop state machine: mirror world, id tables, bounded
/// buffer, counters. See the module-level docs of
/// [`run_ingest_stream`]'s module for the flush policy and id
/// discipline.
#[derive(Debug)]
pub struct IngestStream {
    buffer: DeltaBuffer,
    /// Mirror of the buffer's base world, advanced by each flush.
    world: World,
    /// Mirror index → stable id ([`DEAD`] for engine-refused joiners).
    ids: Vec<ClientId>,
    /// Stable id → mirror index ([`NOT_LIVE`] when absent).
    index_of: Vec<usize>,
    config: IngestConfig,
    /// When the consumer popped the current window's first event — the
    /// `max_staleness` clock. `None` between windows: every flush
    /// clears it.
    window_opened: Option<Instant>,
    report: IngestReport,
}

impl IngestStream {
    /// Binds a stream to `engine` and the world it was booted on.
    /// `bound` caps the buffer's distinct entries (the coalesce-or-shed
    /// boundary). The engine's live population must still be the boot
    /// world's `0..k` id range (i.e. attach before serving churn). Any
    /// [`ServeSink`] works — the engine itself or a harness wrapped
    /// around it.
    pub fn new<E: ServeSink>(
        engine: &E,
        world: &World,
        bound: usize,
        config: IngestConfig,
    ) -> Self {
        assert_eq!(
            engine.engine().num_clients(),
            world.clients.len(),
            "engine and world populations must match"
        );
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        let k = world.clients.len();
        IngestStream {
            buffer: DeltaBuffer::with_bound(world, bound),
            world: world.clone(),
            ids: (0..k as ClientId).collect(),
            index_of: (0..k).collect(),
            config,
            window_opened: None,
            report: IngestReport::default(),
        }
    }

    /// Counters so far.
    pub fn report(&self) -> IngestReport {
        self.report
    }

    /// Drains every event currently on the ring, flushing into the
    /// engine per the [`IngestConfig`] policy, and returns how many
    /// events were popped. Call in a loop (the consumer side of the
    /// SPSC contract) until the ring is closed and empty.
    pub fn pump<E: ServeSink>(&mut self, engine: &mut E, ring: &IngestRing) -> u64 {
        let mut popped = 0u64;
        while let Some(admitted) = ring.pop() {
            popped += 1;
            self.report.arrivals += 1;
            let now = Instant::now();
            let opened = *self.window_opened.get_or_insert(now);
            self.accept(engine, admitted.event, admitted.admitted);
            if self.buffer.pending_events() >= self.config.max_batch
                || now.duration_since(opened) >= self.config.max_staleness
            {
                self.flush(engine);
            }
        }
        // The ring ran dry: nothing more can coalesce into this window,
        // so group-commit whatever the drain gathered. A burst under
        // `max_batch` pays one repair for the whole window instead of
        // its tail queueing behind a chain of micro-flushes.
        if popped > 0 {
            self.flush(engine);
        }
        popped
    }

    /// Final drain: flushes anything still buffered and returns the
    /// session's counters.
    pub fn finish<E: ServeSink>(mut self, engine: &mut E) -> IngestReport {
        self.flush(engine);
        engine.flush_now();
        self.report
    }

    /// Routes one ring event: client churn into the buffer (translated
    /// id → mirror index), server faults around it to the engine.
    fn accept<E: ServeSink>(&mut self, engine: &mut E, event: WorldEvent, at: Instant) {
        match event {
            WorldEvent::Join { node, zone } => {
                if node >= engine.engine().nodes() {
                    self.report.dropped += 1;
                    return;
                }
                match self
                    .buffer
                    .push_or_shed_at(WorldEvent::Join { node, zone }, at)
                {
                    Ok(true) => {}
                    Ok(false) => self.report.shed += 1,
                    Err(_) => self.report.dropped += 1,
                }
            }
            WorldEvent::Leave { client: id } => {
                let Some(index) = self.live_index(id as ClientId) else {
                    self.report.dropped += 1;
                    return;
                };
                // Leaves bypass the buffer bound, so the only refusals
                // are caller bugs (AlreadyLeft after a duplicate);
                // dropped, never shed.
                match self
                    .buffer
                    .push_or_shed_at(WorldEvent::Leave { client: index }, at)
                {
                    Ok(true) => {}
                    Ok(false) => self.report.shed_leaves += 1,
                    Err(_) => self.report.dropped += 1,
                }
            }
            WorldEvent::Move { client: id, zone } => {
                let Some(index) = self.live_index(id as ClientId) else {
                    self.report.dropped += 1;
                    return;
                };
                match self.buffer.push_or_shed_at(
                    WorldEvent::Move {
                        client: index,
                        zone,
                    },
                    at,
                ) {
                    Ok(true) => {}
                    Ok(false) => self.report.shed += 1,
                    Err(_) => self.report.dropped += 1,
                }
            }
            WorldEvent::ServerDown { server } => {
                // Order matters: commit buffered churn first, then fail.
                self.flush(engine);
                match engine.fail_server(server) {
                    Ok(_) => {
                        self.report.server_events += 1;
                        self.report.committed += 1;
                    }
                    Err(_) => self.report.dropped += 1,
                }
            }
            WorldEvent::ServerUp { server } => {
                self.flush(engine);
                match engine.restore_server(server) {
                    Ok(_) => {
                        self.report.server_events += 1;
                        self.report.committed += 1;
                    }
                    Err(_) => self.report.dropped += 1,
                }
            }
        }
    }

    fn live_index(&self, id: ClientId) -> Option<usize> {
        match self.index_of.get(id as usize) {
            Some(&index) if index != NOT_LIVE => Some(index),
            _ => None,
        }
    }

    /// Commits the buffered window: drain the buffer **into the mirror
    /// world in place** (O(touched), not O(population) — the line-rate
    /// property the burst bench gates), feed the delta-aligned events
    /// with their admission stamps into the engine, flush the engine,
    /// and replay the drain's `swap_remove`s onto the id tables.
    fn flush<E: ServeSink>(&mut self, engine: &mut E) {
        self.window_opened = None;
        if self.buffer.is_empty() {
            return;
        }
        let (delta, admissions) = self.buffer.drain_in_place(&mut self.world);
        self.report.flushes += 1;
        // Feed against pre-drain indices — the id tables are rebased
        // only after the engine has taken the window.
        for (&index, &at) in delta.leaves.iter().zip(&admissions.leaves) {
            let id = self.ids[index];
            self.feed(engine, StreamEvent::Leave { id }, at);
        }
        for (&(index, zone), &at) in delta.moves.iter().zip(&admissions.moves) {
            let id = self.ids[index];
            self.feed(engine, StreamEvent::Move { id, zone }, at);
        }
        let mut joined: Vec<ClientId> = Vec::with_capacity(delta.joins.len());
        for (&(node, zone), &at) in delta.joins.iter().zip(&admissions.joins) {
            match self.feed(engine, StreamEvent::Join { node, zone }, at) {
                Some(Some(id)) => joined.push(id),
                // Refused (admission shed, counted in `feed`) or
                // dropped: the mirror carries the client under a dead
                // placeholder so indexing cannot diverge.
                Some(None) | None => joined.push(DEAD),
            }
        }
        engine.flush_now();

        // Replay the drain's index moves onto the id tables: departures
        // are swap_removes from the highest index down, joiners append.
        for &index in delta.leaves.iter().rev() {
            let id = self.ids.swap_remove(index);
            if id != DEAD {
                self.index_of[id as usize] = NOT_LIVE;
            }
            if index < self.ids.len() {
                let swapped = self.ids[index];
                if swapped != DEAD {
                    self.index_of[swapped as usize] = index;
                }
            }
        }
        for id in joined {
            let index = self.ids.len();
            self.ids.push(id);
            self.note_live(id, index);
        }
        debug_assert_eq!(self.ids.len(), self.world.clients.len());
        self.report.coalesced = self.buffer.coalesced_events();
        self.report.ineffective = self.buffer.ineffective_events();
        self.report.shed = self.buffer.shed_events();
    }

    fn note_live(&mut self, id: ClientId, index: usize) {
        if id == DEAD {
            return;
        }
        let slot = id as usize;
        if slot >= self.index_of.len() {
            self.index_of.resize(slot + 1, NOT_LIVE);
        }
        self.index_of[slot] = index;
    }

    /// Pushes one event into the engine with its admission stamp,
    /// retrying once across an engine flush on `QueueFull`. Returns
    /// `None` when the event was dropped, `Some(join_result)` when the
    /// engine took it.
    fn feed<E: ServeSink>(
        &mut self,
        engine: &mut E,
        event: StreamEvent,
        at: Instant,
    ) -> Option<Option<ClientId>> {
        let mut attempt = engine.push_admitted(event, at);
        if matches!(attempt, Err(ServeError::QueueFull { .. })) {
            engine.flush_now();
            attempt = engine.push_admitted(event, at);
        }
        match attempt {
            Ok(id) => {
                self.report.committed += 1;
                Some(id)
            }
            Err(ServeError::Shed { .. }) => {
                self.report.refused_joins += 1;
                Some(None)
            }
            Err(_) => {
                self.report.dropped += 1;
                None
            }
        }
    }
}

/// Runs the pull loop to completion: pumps `ring` into `engine` until
/// the ring is closed and drained, then flushes the tail and returns
/// the session counters. `world` must be the world `engine` was booted
/// on (the id-discipline anchor); `bound` caps the buffer entries.
///
/// The latency histogram in
/// [`ServeEngine::stats`](crate::ServeEngine::stats) measures each
/// arrival from its ring enqueue to the end of the flush that committed
/// it — the end-to-end serving SLO the burst bench gates at p99.9.
pub fn run_ingest_stream<E: ServeSink>(
    engine: &mut E,
    ring: &IngestRing,
    world: &World,
    bound: usize,
    config: IngestConfig,
) -> IngestReport {
    let mut stream = IngestStream::new(engine, world, bound, config);
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

    /// Ring → buffer → engine end to end: events committed, population
    /// tracks joins and leaves, zero shed leaves.
    #[test]
    fn ring_events_commit_into_the_engine() {
        let (mut engine, world) = boot(&small_setup());
        let ring = IngestRing::with_capacity(256);
        ring.try_push(WorldEvent::Leave { client: 3 }).unwrap();
        ring.try_push(WorldEvent::Move { client: 5, zone: 2 })
            .unwrap();
        ring.try_push(WorldEvent::Join { node: 1, zone: 4 })
            .unwrap();
        ring.try_push(WorldEvent::Leave { client: 7 }).unwrap();
        ring.close();
        let report = run_ingest_stream(&mut engine, &ring, &world, 64, IngestConfig::default());
        assert_eq!(report.arrivals, 4);
        assert_eq!(report.shed_leaves, 0);
        assert_eq!(report.dropped, 0);
        // 2 leaves + 1 join + 1 move, unless the move was a no-op.
        let moved = u64::from(world.clients[5].zone != 2);
        assert_eq!(report.committed, 3 + moved);
        assert_eq!(engine.num_clients(), 119);
        assert_eq!(engine.stats().events, 3 + moved);
        assert_eq!(
            engine.stats().latency.count() + engine.stats().warmup.count(),
            3 + moved,
            "one latency sample per committed event"
        );
        // Departed ids are gone; survivors keep their ids.
        assert_eq!(engine.index_of(3), None);
        assert_eq!(engine.index_of(7), None);
        assert!(engine.index_of(5).is_some());
    }

    /// Stale ids (departed clients) and bad zones are dropped, never
    /// panicked on — a remote producer cannot crash the engine.
    #[test]
    fn invalid_events_are_dropped_not_fatal() {
        let (mut engine, world) = boot(&small_setup());
        let ring = IngestRing::with_capacity(64);
        ring.try_push(WorldEvent::Leave { client: 2 }).unwrap();
        // Same id again: departed by the time the second arrives in
        // the same window (AlreadyLeft inside the buffer).
        ring.try_push(WorldEvent::Leave { client: 2 }).unwrap();
        // Unknown id and out-of-range zone.
        ring.try_push(WorldEvent::Leave { client: 9_999 }).unwrap();
        ring.try_push(WorldEvent::Move {
            client: 4,
            zone: 9_999,
        })
        .unwrap();
        ring.close();
        let report = run_ingest_stream(&mut engine, &ring, &world, 64, IngestConfig::default());
        assert_eq!(report.arrivals, 4);
        assert_eq!(report.committed, 1);
        assert_eq!(report.dropped, 3);
        assert_eq!(engine.num_clients(), 119);
    }

    /// The buffer bound sheds joins/moves under pressure but never a
    /// leave, and the ring/buffer shed counters compose with committed
    /// counts to account for every arrival.
    #[test]
    fn bounded_buffer_sheds_moves_not_leaves() {
        let (mut engine, world) = boot(&small_setup());
        let ring = IngestRing::with_capacity(256);
        // Tight bound of 4 entries, huge batch: everything buffers in
        // one window, so arrivals past the bound shed.
        for client in 0..8 {
            ring.try_push(WorldEvent::Move { client, zone: 9 }).unwrap();
        }
        for client in 8..12 {
            ring.try_push(WorldEvent::Leave { client }).unwrap();
        }
        ring.close();
        let config = IngestConfig {
            max_batch: 1_000,
            max_staleness: Duration::from_secs(3_600),
        };
        let report = run_ingest_stream(&mut engine, &ring, &world, 4, config);
        assert_eq!(report.arrivals, 12);
        assert_eq!(report.shed, 4, "moves past the bound shed");
        assert_eq!(report.shed_leaves, 0, "leaves all admitted past it");
        assert_eq!(engine.num_clients(), 116, "all four leaves committed");
    }

    /// Server fault events route around the buffer in order: churn
    /// buffered before the fault commits first.
    #[test]
    fn server_faults_route_to_the_engine_in_order() {
        let (mut engine, world) = boot(&small_setup());
        let ring = IngestRing::with_capacity(64);
        ring.try_push(WorldEvent::Leave { client: 0 }).unwrap();
        ring.try_push(WorldEvent::ServerDown { server: 1 }).unwrap();
        ring.try_push(WorldEvent::ServerUp { server: 1 }).unwrap();
        ring.close();
        let report = run_ingest_stream(&mut engine, &ring, &world, 64, IngestConfig::default());
        assert_eq!(report.server_events, 2);
        assert_eq!(report.dropped, 0);
        assert_eq!(engine.stats().failovers, 1);
        assert_eq!(engine.stats().recoveries, 1);
        assert_eq!(engine.num_clients(), 119);
    }

    /// Queues `events` on a fresh ring, lets all of them age past
    /// `max_staleness`, then drains them in a single pump: the backlog a
    /// consumer reaches late. The buffer bound is the population, so
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
        let mut stream = IngestStream::new(&*sink, world, world.clients.len(), config);
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

    /// Joiner ids assigned across flush windows stay addressable
    /// in-process (the stream's id table follows the engine), and a
    /// move-then-move-back window costs no engine event.
    #[test]
    fn move_back_window_commits_nothing() {
        let (mut engine, world) = boot(&small_setup());
        let base = world.clients[6].zone;
        let other = (base + 1) % world.zones;
        let ring = IngestRing::with_capacity(64);
        ring.try_push(WorldEvent::Move {
            client: 6,
            zone: other,
        })
        .unwrap();
        ring.try_push(WorldEvent::Move {
            client: 6,
            zone: base,
        })
        .unwrap();
        ring.close();
        let config = IngestConfig {
            max_batch: 1_000,
            max_staleness: Duration::from_secs(3_600),
        };
        let report = run_ingest_stream(&mut engine, &ring, &world, 64, config);
        assert_eq!(report.arrivals, 2);
        assert_eq!(report.coalesced, 1);
        assert_eq!(report.ineffective, 1);
        assert_eq!(report.committed, 0, "a no-op window commits nothing");
        assert_eq!(
            engine.stats().latency.count() + engine.stats().warmup.count(),
            0,
            "no committed event, no latency sample"
        );
    }
}
