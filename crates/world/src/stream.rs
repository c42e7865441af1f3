//! Single-event churn emission and coalescing for the streaming serving
//! path.
//!
//! The Table 3 protocol models churn as per-epoch batches, but a live DVE
//! sees joins, leaves, and zone moves as a continuous *event stream*. This
//! module provides the event vocabulary and the bridge back to the batch
//! world:
//!
//! * [`WorldEvent`] — one join, leave, or move, expressed against a fixed
//!   base world (the world at the last flush);
//! * [`DeltaBuffer`] — a coalescer that accumulates events and, on
//!   [`DeltaBuffer::flush`], applies them to the base world in one step,
//!   producing a [`DynamicsOutcome`] with exactly the shape
//!   [`apply_dynamics`](crate::apply_dynamics) produces (survivors keep
//!   their relative order, joiners are appended in arrival order), so
//!   every delta-aware consumer — `CapInstance::apply_delta`,
//!   `CostMatrix::retire_departures`/`admit_arrivals` — works unchanged on
//!   streamed input;
//! * [`DynamicsOutcome::to_events`] — the inverse direction: decompose a
//!   batch outcome into the event sequence that reproduces it, which is
//!   what lets the stream engine replay *the same events* as a batch run
//!   for the equivalence property tests.
//!
//! Coalescing rules (per base-world client, within one buffer window): a
//! move followed by another move keeps the last destination; a move
//! followed by a leave collapses to a leave from the *base* zone (the
//! buffered move never happened); any event after a leave is rejected —
//! the client is gone. A move whose final destination equals the client's
//! base zone is dropped at flush (it is not an effective event).
//!
//! Admission timestamps are keyed to **entries**, not arrivals
//! (first-arrival wins, per the UQP model): the stamp of a coalesced
//! entry is the arrival time of the event that *created* it, and
//! [`DeltaBuffer::flush_with_admissions`] returns stamps aligned
//! one-to-one with the committed delta — entries that turn out
//! ineffective at flush (a move back to the base zone) surrender their
//! stamp and are counted instead, so stamp counts always match committed
//! event counts.

use crate::dynamics::{ClientJoin, ClientLeave, DynamicsOutcome, WorldDelta, ZoneMove};
use crate::world::{Client, World};
use std::time::Instant;

/// One churn event against a base world: the world state at the time the
/// owning [`DeltaBuffer`] was created or last flushed. `client` fields
/// are indices into that base world's client vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldEvent {
    /// A new client appears on topology node `node` in zone `zone`.
    Join {
        /// Topology node the client connects from.
        node: usize,
        /// Zone the client's avatar starts in.
        zone: usize,
    },
    /// Base-world client `client` disconnects.
    Leave {
        /// Index of the leaver in the base world.
        client: usize,
    },
    /// Base-world client `client` moves its avatar to `zone`.
    Move {
        /// Index of the mover in the base world.
        client: usize,
        /// Destination zone.
        zone: usize,
    },
    /// Server `server` fails: its capacity leaves the system and every
    /// zone and relay it carries must be evacuated. Fault events are
    /// *infrastructure* events — they address the serving layer, not the
    /// client population, so a [`DeltaBuffer`] (which coalesces client
    /// churn into batch deltas) rejects them; the serving engine in
    /// `dve-sim` applies them immediately through its mass-evacuation
    /// path instead.
    ServerDown {
        /// The failing server.
        server: usize,
    },
    /// Server `server` recovers: its capacity re-enters the system and
    /// the serving layer may rebalance back onto it. Same routing rule
    /// as [`WorldEvent::ServerDown`].
    ServerUp {
        /// The recovering server.
        server: usize,
    },
}

/// Why a [`DeltaBuffer`] rejected an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The event names a client index outside the base world.
    ClientOutOfRange {
        /// Offending index.
        client: usize,
        /// Base-world population.
        clients: usize,
    },
    /// The event names a zone outside the world.
    ZoneOutOfRange {
        /// Offending zone.
        zone: usize,
        /// Zone count.
        zones: usize,
    },
    /// The client already has a buffered leave; it cannot act again.
    AlreadyLeft {
        /// The departed client.
        client: usize,
    },
    /// The buffer is at its capacity bound and the event would create a
    /// new entry (coalescing updates of already-buffered clients are
    /// always admitted, and so are [`WorldEvent::Leave`]s — a departure
    /// strictly frees capacity at flush, so shedding one would leave a
    /// phantom client on the books forever). Backpressure: the producer
    /// must retry after a flush, or shed the event (see
    /// [`DeltaBuffer::push_or_shed`]).
    QueueFull {
        /// The configured bound that was hit.
        bound: usize,
    },
    /// Fault events ([`WorldEvent::ServerDown`]/[`WorldEvent::ServerUp`])
    /// address the serving layer, not the client population: they cannot
    /// be coalesced into a batch delta and must be routed to the engine
    /// directly.
    ServerEvent {
        /// The server the rejected event named.
        server: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::ClientOutOfRange { client, clients } => {
                write!(f, "client {client} out of range (base world has {clients})")
            }
            StreamError::ZoneOutOfRange { zone, zones } => {
                write!(f, "zone {zone} out of range (world has {zones})")
            }
            StreamError::AlreadyLeft { client } => {
                write!(
                    f,
                    "client {client} has a buffered leave and cannot act again"
                )
            }
            StreamError::QueueFull { bound } => {
                write!(f, "delta buffer is at its bound of {bound} entries")
            }
            StreamError::ServerEvent { server } => {
                write!(
                    f,
                    "server fault event (server {server}) cannot be buffered as client churn"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Buffered fate of one base-world client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingOp {
    None,
    Leave,
    Move(usize),
}

/// Coalesces a stream of [`WorldEvent`]s into one batch-shaped
/// [`DynamicsOutcome`] per [`DeltaBuffer::flush`].
///
/// The buffer is bound to a base world by population and zone count;
/// [`DeltaBuffer::flush`] rebases it onto the world it just produced, so
/// one buffer serves an arbitrarily long stream of flush windows. Events
/// accepted after a flush must use the *new* world's client indices (the
/// outcome's `carried_from` is the translation table).
#[derive(Debug, Clone)]
pub struct DeltaBuffer {
    base_clients: usize,
    zones: usize,
    /// Dense per-base-client fate; only entries listed in `touched` are
    /// ever non-`None`, so a flush resets in O(touched), not O(k).
    ops: Vec<PendingOp>,
    /// Dense per-base-client admission stamp, meaningful only while the
    /// client is in `touched`: the arrival time of the event that
    /// *created* the entry (first-arrival wins; coalescing updates keep
    /// it).
    stamps: Vec<Instant>,
    touched: Vec<usize>,
    /// Pending joiners, in arrival order: (topology node, zone,
    /// admission stamp).
    joins: Vec<(usize, usize, Instant)>,
    events: usize,
    /// Capacity bound on *entries* (touched clients + pending joins).
    /// `None` = unbounded (the historical behavior). When the bound is
    /// hit, events that would create a new entry are refused with
    /// [`StreamError::QueueFull`]; coalescing updates of
    /// already-buffered clients are always admitted, and so are leaves
    /// (see [`StreamError::QueueFull`]) — the coalesce-or-shed policy of
    /// the ingest boundary.
    bound: Option<usize>,
    shed: u64,
    coalesced: u64,
    ineffective: u64,
}

/// Admission stamps of one flush window, keyed to the committed delta
/// (see [`DeltaBuffer::flush_with_admissions`]): `leaves`/`moves`/`joins`
/// align index-for-index with the outcome's
/// [`WorldDelta`](crate::WorldDelta) vectors, so every committed event
/// has exactly one stamp — arrival-to-commit latency is
/// `commit_time - stamp`. Entries dropped at flush as ineffective (a
/// move whose final destination equals the base zone) surrender their
/// stamp into `ineffective` instead of producing a phantom sample.
#[derive(Debug, Clone, Default)]
pub struct FlushAdmissions {
    /// One stamp per committed leave, aligned with `delta.leaves`.
    pub leaves: Vec<Instant>,
    /// One stamp per committed (effective) move, aligned with
    /// `delta.moves`.
    pub moves: Vec<Instant>,
    /// One stamp per committed join, aligned with `delta.joins`.
    pub joins: Vec<Instant>,
    /// Entries whose coalesced result was a no-op at flush; their stamps
    /// are discarded, not reported, so sample counts match event counts.
    pub ineffective: u64,
}

/// The committed window of a [`DeltaBuffer::drain_in_place`]: the same
/// events a [`flush`](DeltaBuffer::flush) would report, but expressed
/// against **pre-drain** indices and without materialising a new
/// [`World`]. The mirror world is updated in place instead — moves
/// rewrite zones, leaves `swap_remove` their slot (descending order, so
/// earlier indices stay valid), joins append — which makes the drain
/// O(touched entries), not O(population). Consumers that mirror the
/// index space (the engine-side pull loop's id tables) must replay the
/// same `swap_remove`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainDelta {
    /// Pre-drain indices of departing clients, ascending.
    pub leaves: Vec<usize>,
    /// `(pre-drain index, destination zone)` of each effective move,
    /// ascending by index.
    pub moves: Vec<(usize, usize)>,
    /// `(node, zone)` of each join, in arrival order; joiners occupy
    /// the tail of the post-drain world.
    pub joins: Vec<(usize, usize)>,
}

impl DeltaBuffer {
    /// Creates an empty, unbounded buffer based on `world`.
    pub fn new(world: &World) -> DeltaBuffer {
        let now = Instant::now();
        DeltaBuffer {
            base_clients: world.clients.len(),
            zones: world.zones,
            ops: vec![PendingOp::None; world.clients.len()],
            stamps: vec![now; world.clients.len()],
            touched: Vec::new(),
            joins: Vec::new(),
            events: 0,
            bound: None,
            shed: 0,
            coalesced: 0,
            ineffective: 0,
        }
    }

    /// [`DeltaBuffer::new`] with a capacity bound: at most `bound`
    /// distinct entries (touched clients + pending joins) buffer between
    /// flushes. Under a flash-crowd burst the buffer then sheds or
    /// coalesces instead of growing without bound — see
    /// [`DeltaBuffer::push_or_shed`].
    pub fn with_bound(world: &World, bound: usize) -> DeltaBuffer {
        assert!(bound >= 1, "a zero-entry buffer cannot accept anything");
        let mut buffer = DeltaBuffer::new(world);
        buffer.bound = Some(bound);
        buffer
    }

    /// Number of events accepted since the last flush (coalesced events
    /// still count: this is the arrival counter batching policies watch).
    pub fn pending_events(&self) -> usize {
        self.events
    }

    /// Distinct buffered entries: touched base-world clients plus
    /// pending joins — the quantity the capacity bound limits.
    pub fn pending_entries(&self) -> usize {
        self.touched.len() + self.joins.len()
    }

    /// The configured entry bound, if any.
    pub fn bound(&self) -> Option<usize> {
        self.bound
    }

    /// Lifetime count of events shed by [`DeltaBuffer::push_or_shed`]
    /// because the buffer was full.
    pub fn shed_events(&self) -> u64 {
        self.shed
    }

    /// Lifetime count of events absorbed into an existing entry (a
    /// move/leave updating an already-buffered client) instead of
    /// occupying a new one.
    pub fn coalesced_events(&self) -> u64 {
        self.coalesced
    }

    /// Lifetime count of entries dropped at flush as ineffective (the
    /// coalesced result was a move back to the client's base zone, i.e.
    /// a no-op).
    pub fn ineffective_events(&self) -> u64 {
        self.ineffective
    }

    /// Whether the buffer holds nothing to flush.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Accepts one event, coalescing it against the buffered ones (see
    /// the module docs for the rules). With a bound configured, an event
    /// that would create a new entry while the buffer is full is refused
    /// with [`StreamError::QueueFull`] — backpressure; coalescing
    /// updates and leaves are always admitted. The admission stamp is
    /// taken now; ingest front ends that queued the event earlier should
    /// use [`DeltaBuffer::push_at`] with the original arrival time so
    /// latency stays arrival-to-commit end to end.
    pub fn push(&mut self, event: WorldEvent) -> Result<(), StreamError> {
        self.push_at(event, Instant::now())
    }

    /// [`DeltaBuffer::push`] with an explicit admission stamp: `at` is
    /// when the event *arrived* at the ingest boundary (e.g. was
    /// enqueued on an `IngestRing`), which may be well before it reached
    /// this buffer. The stamp is keyed to the entry the event creates
    /// (first-arrival wins: coalescing updates never advance it).
    pub fn push_at(&mut self, event: WorldEvent, at: Instant) -> Result<(), StreamError> {
        match event {
            WorldEvent::Join { node, zone } => {
                if zone >= self.zones {
                    return Err(StreamError::ZoneOutOfRange {
                        zone,
                        zones: self.zones,
                    });
                }
                self.check_room()?;
                self.joins.push((node, zone, at));
            }
            WorldEvent::Leave { client } => {
                self.mark(client, PendingOp::Leave, at)?;
            }
            WorldEvent::Move { client, zone } => {
                if zone >= self.zones {
                    return Err(StreamError::ZoneOutOfRange {
                        zone,
                        zones: self.zones,
                    });
                }
                self.mark(client, PendingOp::Move(zone), at)?;
            }
            WorldEvent::ServerDown { server } | WorldEvent::ServerUp { server } => {
                return Err(StreamError::ServerEvent { server });
            }
        }
        self.events += 1;
        Ok(())
    }

    /// [`DeltaBuffer::push`] with the shed half of the coalesce-or-shed
    /// policy: a [`StreamError::QueueFull`] refusal drops the event and
    /// counts it in [`DeltaBuffer::shed_events`] instead of propagating.
    /// Returns whether the event was admitted; every other error still
    /// propagates (they are caller bugs, not load). A
    /// [`WorldEvent::Leave`] can never be shed here: leaves bypass the
    /// bound entirely.
    pub fn push_or_shed(&mut self, event: WorldEvent) -> Result<bool, StreamError> {
        self.push_or_shed_at(event, Instant::now())
    }

    /// [`DeltaBuffer::push_or_shed`] with an explicit admission stamp
    /// (see [`DeltaBuffer::push_at`]).
    pub fn push_or_shed_at(&mut self, event: WorldEvent, at: Instant) -> Result<bool, StreamError> {
        match self.push_at(event, at) {
            Ok(()) => Ok(true),
            Err(StreamError::QueueFull { .. }) => {
                self.shed += 1;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    fn check_room(&self) -> Result<(), StreamError> {
        match self.bound {
            Some(bound) if self.pending_entries() >= bound => Err(StreamError::QueueFull { bound }),
            _ => Ok(()),
        }
    }

    fn mark(&mut self, client: usize, op: PendingOp, at: Instant) -> Result<(), StreamError> {
        if client >= self.base_clients {
            return Err(StreamError::ClientOutOfRange {
                client,
                clients: self.base_clients,
            });
        }
        match self.ops[client] {
            PendingOp::Leave => Err(StreamError::AlreadyLeft { client }),
            PendingOp::None => {
                // Leaves are exempt from the bound: a departure strictly
                // frees capacity at flush, and shedding one would leave
                // the engine serving a phantom client forever.
                if op != PendingOp::Leave {
                    self.check_room()?;
                }
                self.ops[client] = op;
                self.stamps[client] = at;
                self.touched.push(client);
                Ok(())
            }
            PendingOp::Move(_) => {
                self.ops[client] = op;
                self.coalesced += 1;
                Ok(())
            }
        }
    }

    /// Applies every buffered event to `world` in one step and rebases
    /// the buffer onto the produced world.
    ///
    /// The outcome has exactly the batch shape: survivors keep their
    /// relative order, joiners are appended in arrival order, the delta's
    /// leaves/moves/joins are ascending by their index fields. Feeding
    /// [`DynamicsOutcome::to_events`] of an
    /// [`apply_dynamics`](crate::apply_dynamics) outcome through a buffer
    /// therefore reproduces that outcome bit-identically (`moved` is
    /// sorted rather than draw-ordered; see `to_events`).
    pub fn flush(&mut self, world: &World) -> DynamicsOutcome {
        self.flush_with_admissions(world).0
    }

    /// [`DeltaBuffer::flush`] returning the admission stamps keyed to
    /// the committed delta (see [`FlushAdmissions`]): each committed
    /// leave/move/join carries the arrival time of the event that
    /// created its entry (first-arrival wins across coalescing), and
    /// entries that were no-ops at flush surrender their stamp into the
    /// `ineffective` count. The engine-side pull loop feeds these stamps
    /// into its per-event latency histogram so latency is measured
    /// arrival-to-commit end to end.
    pub fn flush_with_admissions(&mut self, world: &World) -> (DynamicsOutcome, FlushAdmissions) {
        assert_eq!(
            world.clients.len(),
            self.base_clients,
            "flush world does not match the buffer's base world"
        );
        assert_eq!(
            world.zones, self.zones,
            "flush world's zone count does not match the buffer's"
        );
        let survivors = self.base_clients - self.count_leaves();
        let mut clients: Vec<Client> = Vec::with_capacity(survivors + self.joins.len());
        let mut carried_from: Vec<Option<usize>> = Vec::with_capacity(clients.capacity());
        let mut leaves: Vec<ClientLeave> = Vec::new();
        let mut moves: Vec<ZoneMove> = Vec::new();
        let mut moved: Vec<usize> = Vec::new();
        let mut admissions = FlushAdmissions::default();

        for (i, c) in world.clients.iter().enumerate() {
            match self.ops[i] {
                PendingOp::Leave => {
                    leaves.push(ClientLeave {
                        client: i,
                        zone: c.zone,
                    });
                    admissions.leaves.push(self.stamps[i]);
                }
                PendingOp::Move(to) if to != c.zone => {
                    let new_index = clients.len();
                    moves.push(ZoneMove {
                        old_index: i,
                        new_index,
                        from: c.zone,
                        to,
                    });
                    admissions.moves.push(self.stamps[i]);
                    moved.push(new_index);
                    clients.push(Client {
                        node: c.node,
                        zone: to,
                    });
                    carried_from.push(Some(i));
                }
                PendingOp::Move(_) => {
                    // Coalesced back to the base zone: a no-op. The
                    // entry's stamp is surrendered, not reported, so
                    // stamp counts keep matching committed events.
                    admissions.ineffective += 1;
                    clients.push(*c);
                    carried_from.push(Some(i));
                }
                PendingOp::None => {
                    clients.push(*c);
                    carried_from.push(Some(i));
                }
            }
        }
        let mut joins: Vec<ClientJoin> = Vec::with_capacity(self.joins.len());
        for &(node, zone, at) in &self.joins {
            joins.push(ClientJoin {
                client: clients.len(),
                zone,
            });
            admissions.joins.push(at);
            clients.push(Client { node, zone });
            carried_from.push(None);
        }
        self.ineffective += admissions.ineffective;

        // Rebase onto the produced world.
        for &i in &self.touched {
            self.ops[i] = PendingOp::None;
        }
        self.touched.clear();
        self.joins.clear();
        self.events = 0;
        self.base_clients = clients.len();
        self.ops.resize(self.base_clients, PendingOp::None);
        self.stamps.resize(self.base_clients, Instant::now());

        let mut new_world = world.clone();
        new_world.clients = clients;
        let outcome = DynamicsOutcome {
            world: new_world,
            carried_from,
            moved,
            delta: WorldDelta {
                joins,
                leaves,
                moves,
            },
        };
        (outcome, admissions)
    }

    /// The line-rate flush: commits the buffered window **into `world`
    /// in place** and returns the delta in pre-drain indexing plus the
    /// aligned admission stamps — the same events
    /// [`flush_with_admissions`](DeltaBuffer::flush_with_admissions)
    /// would produce, without rebuilding the client vector. Cost is
    /// O(touched entries + joins) where the rebuilding flush is
    /// O(population): at the production tier a 64-event micro-batch
    /// drains in microseconds instead of milliseconds, which is what
    /// keeps p99.9 arrival-to-commit inside the burst budget.
    ///
    /// Leaves are applied as `swap_remove`s in descending index order;
    /// survivors therefore do **not** keep their relative order (unlike
    /// [`flush`](DeltaBuffer::flush)). Callers tracking ids per index
    /// must replay the same swaps (see [`DrainDelta`]).
    pub fn drain_in_place(&mut self, world: &mut World) -> (DrainDelta, FlushAdmissions) {
        assert_eq!(
            world.clients.len(),
            self.base_clients,
            "drain world does not match the buffer's base world"
        );
        assert_eq!(
            world.zones, self.zones,
            "drain world's zone count does not match the buffer's"
        );
        let mut delta = DrainDelta::default();
        let mut admissions = FlushAdmissions::default();
        self.touched.sort_unstable();
        for &i in &self.touched {
            match self.ops[i] {
                PendingOp::Leave => {
                    delta.leaves.push(i);
                    admissions.leaves.push(self.stamps[i]);
                }
                PendingOp::Move(to) if to != world.clients[i].zone => {
                    delta.moves.push((i, to));
                    admissions.moves.push(self.stamps[i]);
                }
                // Coalesced back to the base zone, or a spurious touch:
                // a no-op whose stamp is surrendered, not reported.
                PendingOp::Move(_) => admissions.ineffective += 1,
                PendingOp::None => {}
            }
            self.ops[i] = PendingOp::None;
        }
        for &(node, zone, at) in &self.joins {
            delta.joins.push((node, zone));
            admissions.joins.push(at);
        }
        self.ineffective += admissions.ineffective;

        // Apply in place: zones rewrite, departures swap_remove from
        // the highest index down (so lower leave indices stay valid),
        // joiners append at the tail.
        for &(i, to) in &delta.moves {
            world.clients[i].zone = to;
        }
        for &i in delta.leaves.iter().rev() {
            world.clients.swap_remove(i);
        }
        for &(node, zone) in &delta.joins {
            world.clients.push(Client { node, zone });
        }

        // Rebase. Every op slot is None again (touched were cleared
        // above, the rest never left None), so the arrays only need
        // resizing; stamp slots are rewritten on first mark.
        self.touched.clear();
        self.joins.clear();
        self.events = 0;
        self.base_clients = world.clients.len();
        self.ops.resize(self.base_clients, PendingOp::None);
        self.stamps.resize(self.base_clients, Instant::now());
        (delta, admissions)
    }

    fn count_leaves(&self) -> usize {
        self.touched
            .iter()
            .filter(|&&i| self.ops[i] == PendingOp::Leave)
            .count()
    }
}

impl DynamicsOutcome {
    /// Decomposes this outcome into the event sequence (leaves, then
    /// moves, then joins — each ascending by index) that reproduces it
    /// through a [`DeltaBuffer`] flushed against the pre-churn world.
    ///
    /// Only *effective* events are emitted: a batch "move" that kept its
    /// zone (single-zone worlds) has no [`ZoneMove`] and produces no
    /// event, and the reproduced `moved` list is ascending by new-world
    /// index rather than preserving the batch path's draw order.
    pub fn to_events(&self) -> Vec<WorldEvent> {
        let mut events = Vec::with_capacity(
            self.delta.leaves.len() + self.delta.moves.len() + self.delta.joins.len(),
        );
        events.extend(
            self.delta
                .leaves
                .iter()
                .map(|l| WorldEvent::Leave { client: l.client }),
        );
        events.extend(self.delta.moves.iter().map(|m| WorldEvent::Move {
            client: m.old_index,
            zone: m.to,
        }));
        events.extend(self.delta.joins.iter().map(|j| WorldEvent::Join {
            node: self.world.clients[j.client].node,
            zone: j.zone,
        }));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{apply_dynamics, DynamicsBatch};
    use crate::scenario::ScenarioConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_world(seed: u64) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ScenarioConfig::from_notation("5s-15z-200c-100cp").unwrap();
        let labels: Vec<u16> = (0..100).map(|n| (n % 5) as u16).collect();
        World::generate(&config, 100, &labels, &mut rng).unwrap()
    }

    /// Replaying a batch outcome's events through a buffer reproduces the
    /// outcome bit-identically (modulo `moved` ordering).
    #[test]
    fn replay_reproduces_batch_outcome() {
        let w = small_world(1);
        let mut rng = StdRng::seed_from_u64(2);
        let batch = DynamicsBatch {
            joins: 30,
            leaves: 40,
            moves: 25,
        };
        let batch_out = apply_dynamics(&w, &batch, 100, &mut rng);

        let mut buffer = DeltaBuffer::new(&w);
        for ev in batch_out.to_events() {
            buffer.push(ev).unwrap();
        }
        assert_eq!(buffer.pending_events(), 95);
        let stream_out = buffer.flush(&w);

        assert_eq!(stream_out.world.clients, batch_out.world.clients);
        assert_eq!(stream_out.carried_from, batch_out.carried_from);
        assert_eq!(stream_out.delta, batch_out.delta);
        let mut batch_moved = batch_out.moved.clone();
        batch_moved.sort_unstable();
        assert_eq!(stream_out.moved, batch_moved);
        assert!(buffer.is_empty());
    }

    /// After a flush the buffer is rebased: a second window against the
    /// produced world keeps working.
    #[test]
    fn flush_rebases_for_the_next_window() {
        let w = small_world(3);
        let mut buffer = DeltaBuffer::new(&w);
        buffer.push(WorldEvent::Leave { client: 7 }).unwrap();
        let first = buffer.flush(&w);
        assert_eq!(first.world.clients.len(), 199);

        buffer.push(WorldEvent::Join { node: 5, zone: 3 }).unwrap();
        buffer.push(WorldEvent::Leave { client: 198 }).unwrap();
        let second = buffer.flush(&first.world);
        assert_eq!(second.world.clients.len(), 199);
        assert_eq!(second.delta.joins.len(), 1);
        assert_eq!(second.delta.leaves.len(), 1);
    }

    #[test]
    fn move_then_move_keeps_last_destination() {
        let w = small_world(4);
        let mut buffer = DeltaBuffer::new(&w);
        buffer
            .push(WorldEvent::Move { client: 0, zone: 3 })
            .unwrap();
        buffer
            .push(WorldEvent::Move { client: 0, zone: 9 })
            .unwrap();
        let out = buffer.flush(&w);
        let expected = usize::from(w.clients[0].zone != 9);
        assert_eq!(out.delta.moves.len(), expected);
        if expected == 1 {
            assert_eq!(out.delta.moves[0].to, 9);
        }
        assert_eq!(out.world.clients[0].zone, 9);
    }

    #[test]
    fn move_then_leave_collapses_to_base_zone_leave() {
        let w = small_world(5);
        let mut buffer = DeltaBuffer::new(&w);
        buffer
            .push(WorldEvent::Move { client: 2, zone: 1 })
            .unwrap();
        buffer.push(WorldEvent::Leave { client: 2 }).unwrap();
        let out = buffer.flush(&w);
        assert!(out.delta.moves.is_empty());
        assert_eq!(out.delta.leaves.len(), 1);
        assert_eq!(out.delta.leaves[0].zone, w.clients[2].zone);
    }

    #[test]
    fn move_back_to_base_zone_is_dropped() {
        let w = small_world(6);
        let base = w.clients[4].zone;
        let other = (base + 1) % w.zones;
        let mut buffer = DeltaBuffer::new(&w);
        buffer
            .push(WorldEvent::Move {
                client: 4,
                zone: other,
            })
            .unwrap();
        buffer
            .push(WorldEvent::Move {
                client: 4,
                zone: base,
            })
            .unwrap();
        let out = buffer.flush(&w);
        assert!(out.delta.is_empty());
        assert_eq!(out.world.clients, w.clients);
    }

    #[test]
    fn events_after_leave_are_rejected() {
        let w = small_world(7);
        let mut buffer = DeltaBuffer::new(&w);
        buffer.push(WorldEvent::Leave { client: 11 }).unwrap();
        assert_eq!(
            buffer.push(WorldEvent::Leave { client: 11 }),
            Err(StreamError::AlreadyLeft { client: 11 })
        );
        assert_eq!(
            buffer.push(WorldEvent::Move {
                client: 11,
                zone: 0
            }),
            Err(StreamError::AlreadyLeft { client: 11 })
        );
    }

    #[test]
    fn out_of_range_events_are_rejected() {
        let w = small_world(8);
        let mut buffer = DeltaBuffer::new(&w);
        assert_eq!(
            buffer.push(WorldEvent::Leave { client: 200 }),
            Err(StreamError::ClientOutOfRange {
                client: 200,
                clients: 200
            })
        );
        assert_eq!(
            buffer.push(WorldEvent::Move {
                client: 0,
                zone: 15
            }),
            Err(StreamError::ZoneOutOfRange {
                zone: 15,
                zones: 15
            })
        );
        assert_eq!(
            buffer.push(WorldEvent::Join { node: 0, zone: 99 }),
            Err(StreamError::ZoneOutOfRange {
                zone: 99,
                zones: 15
            })
        );
        assert!(buffer.is_empty());
    }

    /// The coalesce-or-shed policy under a flash-crowd-shaped burst: a
    /// bounded buffer admits up to its bound of distinct entries, keeps
    /// absorbing same-client updates (coalesce), refuses new entries
    /// (backpressure) or sheds them counted — and never grows past the
    /// bound.
    #[test]
    fn bounded_buffer_sheds_and_coalesces_instead_of_growing() {
        let w = small_world(10);
        let mut buffer = DeltaBuffer::with_bound(&w, 8);
        assert_eq!(buffer.bound(), Some(8));
        // Fill the bound with distinct movers.
        for client in 0..8 {
            buffer.push(WorldEvent::Move { client, zone: 1 }).unwrap();
        }
        assert_eq!(buffer.pending_entries(), 8);
        // A 9th distinct client is backpressured...
        assert_eq!(
            buffer.push(WorldEvent::Move { client: 8, zone: 2 }),
            Err(StreamError::QueueFull { bound: 8 })
        );
        assert_eq!(
            buffer.push(WorldEvent::Join { node: 0, zone: 0 }),
            Err(StreamError::QueueFull { bound: 8 })
        );
        // ...or shed (counted), while same-client updates still coalesce.
        assert_eq!(
            buffer.push_or_shed(WorldEvent::Move { client: 9, zone: 2 }),
            Ok(false)
        );
        assert_eq!(buffer.shed_events(), 1);
        buffer
            .push(WorldEvent::Move { client: 3, zone: 5 })
            .unwrap();
        assert_eq!(buffer.coalesced_events(), 1);
        assert_eq!(buffer.pending_entries(), 8, "coalescing adds no entry");
        // Leave-after-move coalesces too (the move entry is reused).
        buffer.push(WorldEvent::Leave { client: 4 }).unwrap();
        assert_eq!(buffer.pending_entries(), 8);
        // A flush drains the bound; the buffer accepts again.
        let out = buffer.flush(&w);
        assert_eq!(out.delta.moves.len(), 7);
        assert_eq!(out.delta.leaves.len(), 1);
        buffer
            .push(WorldEvent::Move { client: 0, zone: 2 })
            .unwrap();
        assert_eq!(buffer.pending_entries(), 1);
    }

    /// Regression: a Leave must never be shed at the bound. Shedding a
    /// departure would leave the engine serving a phantom client forever
    /// — a leave strictly frees capacity at flush, so it is admitted even
    /// past the bound.
    #[test]
    fn leave_is_never_shed_at_the_bound() {
        let w = small_world(13);
        let mut buffer = DeltaBuffer::with_bound(&w, 4);
        for client in 0..4 {
            buffer.push(WorldEvent::Move { client, zone: 1 }).unwrap();
        }
        assert_eq!(buffer.pending_entries(), 4);
        // New movers and joiners are refused at the bound...
        assert_eq!(
            buffer.push(WorldEvent::Move { client: 7, zone: 2 }),
            Err(StreamError::QueueFull { bound: 4 })
        );
        // ...but a Leave for an untouched client is admitted past it.
        buffer.push(WorldEvent::Leave { client: 8 }).unwrap();
        assert_eq!(buffer.pending_entries(), 5, "leave overflows the bound");
        assert_eq!(
            buffer.push_or_shed(WorldEvent::Leave { client: 9 }),
            Ok(true),
            "push_or_shed must not shed a leave"
        );
        assert_eq!(buffer.shed_events(), 0);
        let out = buffer.flush(&w);
        assert_eq!(out.delta.leaves.len(), 2, "both leaves committed");
        assert_eq!(out.world.clients.len(), 198);
    }

    /// Admission timestamps are keyed to entries and come back from
    /// [`DeltaBuffer::flush_with_admissions`] aligned one-to-one with the
    /// committed delta — the arrival-to-commit measurement hook of the
    /// ingest boundary.
    #[test]
    fn admission_timestamps_align_with_the_committed_delta() {
        let w = small_world(11);
        let mut buffer = DeltaBuffer::with_bound(&w, 2);
        let t0 = Instant::now();
        buffer.push_at(WorldEvent::Leave { client: 0 }, t0).unwrap();
        let t1 = Instant::now();
        buffer
            .push_at(WorldEvent::Move { client: 1, zone: 3 }, t1)
            .unwrap();
        // A shed event gets no admission stamp.
        assert_eq!(
            buffer.push_or_shed(WorldEvent::Move { client: 2, zone: 3 }),
            Ok(false)
        );
        let (out, admissions) = buffer.flush_with_admissions(&w);
        assert_eq!(admissions.leaves.len(), out.delta.leaves.len());
        assert_eq!(admissions.moves.len(), out.delta.moves.len());
        assert_eq!(admissions.joins.len(), out.delta.joins.len());
        assert_eq!(admissions.leaves, vec![t0]);
        let expected_moves = usize::from(w.clients[1].zone != 3);
        if expected_moves == 1 {
            assert_eq!(admissions.moves, vec![t1]);
            assert_eq!(admissions.ineffective, 0);
        } else {
            assert!(admissions.moves.is_empty());
            assert_eq!(admissions.ineffective, 1);
        }
    }

    /// The in-place drain commits the same window as the rebuilding
    /// flush — identical event multiset, identical stamps, identical
    /// post-flush population up to the documented `swap_remove`
    /// reordering — while mutating the mirror world directly.
    #[test]
    fn drain_in_place_matches_flush_semantics() {
        let w = small_world(21);
        let t = Instant::now();
        let feed = |buffer: &mut DeltaBuffer| {
            buffer.push_at(WorldEvent::Leave { client: 2 }, t).unwrap();
            buffer
                .push_at(WorldEvent::Move { client: 5, zone: 9 }, t)
                .unwrap();
            buffer.push_at(WorldEvent::Leave { client: 7 }, t).unwrap();
            buffer
                .push_at(WorldEvent::Join { node: 3, zone: 1 }, t)
                .unwrap();
            // Coalesced back to base: surrendered by both paths.
            let base = 4;
            let away = (w.clients[base].zone + 1) % w.zones;
            buffer
                .push_at(
                    WorldEvent::Move {
                        client: base,
                        zone: away,
                    },
                    t,
                )
                .unwrap();
            buffer
                .push_at(
                    WorldEvent::Move {
                        client: base,
                        zone: w.clients[base].zone,
                    },
                    t,
                )
                .unwrap();
        };
        let mut rebuild = DeltaBuffer::new(&w);
        feed(&mut rebuild);
        let (outcome, flush_adm) = rebuild.flush_with_admissions(&w);

        let mut drain = DeltaBuffer::new(&w);
        feed(&mut drain);
        let mut mirror = w.clone();
        let (delta, drain_adm) = drain.drain_in_place(&mut mirror);

        // Same committed events against pre-flush indices.
        assert_eq!(delta.leaves, vec![2, 7]);
        assert_eq!(
            delta.leaves,
            outcome
                .delta
                .leaves
                .iter()
                .map(|l| l.client)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            delta.moves,
            outcome
                .delta
                .moves
                .iter()
                .map(|m| (m.old_index, m.to))
                .collect::<Vec<_>>()
        );
        assert_eq!(delta.joins, vec![(3, 1)]);
        assert_eq!(drain_adm.leaves, flush_adm.leaves);
        assert_eq!(drain_adm.moves, flush_adm.moves);
        assert_eq!(drain_adm.joins, flush_adm.joins);
        assert_eq!(drain_adm.ineffective, flush_adm.ineffective);

        // Same population, same contents up to the swap_remove
        // reordering; both buffers rebased onto it.
        assert_eq!(mirror.clients.len(), outcome.world.clients.len());
        let key = |c: &Client| (c.node, c.zone);
        let mut a: Vec<_> = mirror.clients.iter().map(key).collect();
        let mut b: Vec<_> = outcome.world.clients.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(drain.is_empty());
        // The drained buffer keeps accepting against the new indexing.
        drain
            .push(WorldEvent::Move {
                client: mirror.clients.len() - 1,
                zone: 0,
            })
            .unwrap();
    }

    /// First arrival wins across coalescing: a coalesced entry keeps the
    /// stamp of the event that created it, per the UQP model.
    #[test]
    fn coalesced_entries_keep_the_first_arrival_stamp() {
        let w = small_world(14);
        let base = w.clients[0].zone;
        let a = (base + 1) % w.zones;
        let b = (base + 2) % w.zones;
        let mut buffer = DeltaBuffer::new(&w);
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_millis(5);
        buffer
            .push_at(WorldEvent::Move { client: 0, zone: a }, t0)
            .unwrap();
        buffer
            .push_at(WorldEvent::Move { client: 0, zone: b }, t1)
            .unwrap();
        let (out, admissions) = buffer.flush_with_admissions(&w);
        assert_eq!(out.delta.moves.len(), 1);
        assert_eq!(out.delta.moves[0].to, b, "last destination wins");
        assert_eq!(admissions.moves, vec![t0], "first arrival wins");
    }

    /// A move-then-move-back window commits nothing and yields no stamp:
    /// sample counts stay consistent with committed event counts, and the
    /// surrendered entry is visible in the ineffective counters.
    #[test]
    fn move_then_move_back_yields_consistent_sample_counts() {
        let w = small_world(15);
        let base = w.clients[6].zone;
        let other = (base + 1) % w.zones;
        let mut buffer = DeltaBuffer::new(&w);
        buffer
            .push(WorldEvent::Move {
                client: 6,
                zone: other,
            })
            .unwrap();
        buffer
            .push(WorldEvent::Move {
                client: 6,
                zone: base,
            })
            .unwrap();
        assert_eq!(buffer.pending_events(), 2);
        assert_eq!(buffer.coalesced_events(), 1);
        let (out, admissions) = buffer.flush_with_admissions(&w);
        assert!(out.delta.is_empty());
        let stamps = admissions.leaves.len() + admissions.moves.len() + admissions.joins.len();
        assert_eq!(stamps, 0, "no committed event, no stamp");
        assert_eq!(admissions.ineffective, 1, "the entry is accounted for");
        assert_eq!(buffer.ineffective_events(), 1);
    }

    /// Flushing against a world with a different zone count is a caller
    /// bug: the buffer validated every Move against its own zone count,
    /// so committing to a mismatched world would mis-validate bounds.
    #[test]
    #[should_panic(expected = "zone count")]
    fn flush_panics_on_zone_count_mismatch() {
        let w = small_world(16);
        let mut buffer = DeltaBuffer::new(&w);
        let mut other = w.clone();
        other.zones += 1;
        buffer.flush(&other);
    }

    /// Server fault events are infrastructure events: the churn
    /// coalescer refuses them so they cannot be silently dropped into a
    /// batch delta.
    #[test]
    fn server_fault_events_are_rejected_by_the_coalescer() {
        let w = small_world(12);
        let mut buffer = DeltaBuffer::new(&w);
        assert_eq!(
            buffer.push(WorldEvent::ServerDown { server: 2 }),
            Err(StreamError::ServerEvent { server: 2 })
        );
        assert_eq!(
            buffer.push(WorldEvent::ServerUp { server: 2 }),
            Err(StreamError::ServerEvent { server: 2 })
        );
        assert!(buffer.is_empty());
    }

    #[test]
    fn empty_flush_is_identity() {
        let w = small_world(9);
        let mut buffer = DeltaBuffer::new(&w);
        let out = buffer.flush(&w);
        assert!(out.delta.is_empty());
        assert_eq!(out.world.clients, w.clients);
        assert!(out.carried_from.iter().all(|c| c.is_some()));
    }
}
