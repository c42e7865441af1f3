//! Single-event churn emission: the bridge between the batch world and
//! the event stream.
//!
//! The Table 3 protocol models churn as per-epoch batches, but a live DVE
//! sees joins, leaves, and zone moves as a continuous *event stream*. This
//! module provides the event vocabulary and the bridge from the batch
//! world:
//!
//! * [`WorldEvent`] — one join, leave, or move, expressed against a fixed
//!   base world (the world at the last epoch boundary), or one server
//!   failure or recovery;
//! * [`DynamicsOutcome::to_events`] — decompose a batch outcome into the
//!   event sequence that reproduces it, which is what lets the serving
//!   engine's trace drivers replay *the same events* as a batch step.
//!
//! The tests keep a coalescing reference, `DeltaBuffer`, that applies a
//! window of events to the base world in one step and produces a
//! [`DynamicsOutcome`] with exactly the shape
//! [`apply_dynamics`](crate::apply_dynamics) produces (survivors keep
//! their relative order, joiners are appended in arrival order). Its
//! coalescing rules, per base-world client within one window: a move
//! followed by another move keeps the last destination; a move followed
//! by a leave collapses to a leave from the *base* zone; any event after
//! a leave is rejected. A move whose final destination equals the
//! client's base zone is dropped at flush. Replaying `to_events` through
//! it reproduces the batch outcome's world, provenance and delta.

use crate::dynamics::DynamicsOutcome;
#[cfg(test)]
use crate::dynamics::{ClientJoin, ClientLeave, WorldDelta, ZoneMove};
#[cfg(test)]
use crate::world::{Client, World};

/// One churn event against a base world: the world state at the last
/// epoch boundary. `client` fields are indices into that base world's
/// client vector.
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
    /// client population: the serving engine in `dve-sim` applies them
    /// immediately through its mass-evacuation path.
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
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamError {
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
    /// Fault events ([`WorldEvent::ServerDown`]/[`WorldEvent::ServerUp`])
    /// address the serving layer, not the client population: they cannot
    /// be coalesced into a batch delta and must be routed to the engine
    /// directly.
    ServerEvent {
        /// The server the rejected event named.
        server: usize,
    },
}

/// Buffered fate of one base-world client.
#[cfg(test)]
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
/// outcome's `carried_from` is the translation table). The batch
/// reference the tests replay event streams against (see the module
/// docs).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct DeltaBuffer {
    base_clients: usize,
    zones: usize,
    /// Dense per-base-client fate; only entries listed in `touched` are
    /// ever non-`None`, so a flush resets in O(touched), not O(k).
    ops: Vec<PendingOp>,
    touched: Vec<usize>,
    /// Pending joiners, in arrival order: (topology node, zone).
    joins: Vec<(usize, usize)>,
    events: usize,
}

#[cfg(test)]
impl DeltaBuffer {
    /// Creates an empty buffer based on `world`.
    pub(crate) fn new(world: &World) -> DeltaBuffer {
        DeltaBuffer {
            base_clients: world.clients.len(),
            zones: world.zones,
            ops: vec![PendingOp::None; world.clients.len()],
            touched: Vec::new(),
            joins: Vec::new(),
            events: 0,
        }
    }

    /// Number of events accepted since the last flush (coalesced events
    /// still count).
    pub(crate) fn pending_events(&self) -> usize {
        self.events
    }

    /// Whether the buffer holds nothing to flush.
    pub(crate) fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Accepts one event, coalescing it against the buffered ones (see
    /// the module docs for the rules).
    pub(crate) fn push(&mut self, event: WorldEvent) -> Result<(), StreamError> {
        match event {
            WorldEvent::Join { node, zone } => {
                self.check_zone(zone)?;
                self.joins.push((node, zone));
            }
            WorldEvent::Leave { client } => {
                self.mark(client, PendingOp::Leave)?;
            }
            WorldEvent::Move { client, zone } => {
                self.check_zone(zone)?;
                self.mark(client, PendingOp::Move(zone))?;
            }
            WorldEvent::ServerDown { server } | WorldEvent::ServerUp { server } => {
                return Err(StreamError::ServerEvent { server });
            }
        }
        self.events += 1;
        Ok(())
    }

    fn check_zone(&self, zone: usize) -> Result<(), StreamError> {
        if zone >= self.zones {
            return Err(StreamError::ZoneOutOfRange {
                zone,
                zones: self.zones,
            });
        }
        Ok(())
    }

    fn mark(&mut self, client: usize, op: PendingOp) -> Result<(), StreamError> {
        if client >= self.base_clients {
            return Err(StreamError::ClientOutOfRange {
                client,
                clients: self.base_clients,
            });
        }
        match self.ops[client] {
            PendingOp::Leave => return Err(StreamError::AlreadyLeft { client }),
            PendingOp::None => self.touched.push(client),
            PendingOp::Move(_) => {}
        }
        self.ops[client] = op;
        Ok(())
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
    pub(crate) fn flush(&mut self, world: &World) -> DynamicsOutcome {
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

        for (i, c) in world.clients.iter().enumerate() {
            match self.ops[i] {
                PendingOp::Leave => {
                    leaves.push(ClientLeave {
                        client: i,
                        zone: c.zone,
                    });
                }
                PendingOp::Move(to) if to != c.zone => {
                    let new_index = clients.len();
                    moves.push(ZoneMove {
                        old_index: i,
                        new_index,
                        from: c.zone,
                        to,
                    });
                    moved.push(new_index);
                    clients.push(Client {
                        node: c.node,
                        zone: to,
                    });
                    carried_from.push(Some(i));
                }
                // Untouched, or coalesced back to the base zone (a
                // no-op): carried as is.
                PendingOp::Move(_) | PendingOp::None => {
                    clients.push(*c);
                    carried_from.push(Some(i));
                }
            }
        }
        let mut joins: Vec<ClientJoin> = Vec::with_capacity(self.joins.len());
        for &(node, zone) in &self.joins {
            joins.push(ClientJoin {
                client: clients.len(),
                zone,
            });
            clients.push(Client { node, zone });
            carried_from.push(None);
        }

        // Rebase onto the produced world.
        for &i in &self.touched {
            self.ops[i] = PendingOp::None;
        }
        self.touched.clear();
        self.joins.clear();
        self.events = 0;
        self.base_clients = clients.len();
        self.ops.resize(self.base_clients, PendingOp::None);

        let mut new_world = world.clone();
        new_world.clients = clients;
        DynamicsOutcome {
            world: new_world,
            carried_from,
            moved,
            delta: WorldDelta {
                joins,
                leaves,
                moves,
            },
        }
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
    /// when applied to the pre-churn world in order.
    ///
    /// Only *effective* events are emitted: a batch "move" that kept its
    /// zone (single-zone worlds) has no [`ZoneMove`](crate::ZoneMove) and
    /// produces no event, and the reproduced `moved` list is ascending by
    /// new-world index rather than preserving the batch path's draw
    /// order.
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
    /// outcome bit-identically (modulo `moved` ordering): the world, the
    /// provenance and the delta, over four consecutive epochs of four
    /// (seed, join/leave/move mix) cases, the buffer rebasing at each
    /// flush. Those three fields are all a batch carry of the instance,
    /// the cost matrix and the assignment reads.
    #[test]
    fn replay_reproduces_batch_outcome() {
        for (seed, joins, leaves, moves) in [
            (0, 20, 25, 10),
            (1, 0, 30, 20),
            (2, 35, 5, 0),
            (3, 15, 15, 15),
        ] {
            let mut world = small_world(42 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let batch = DynamicsBatch {
                joins,
                leaves,
                moves,
            };
            let mut buffer = DeltaBuffer::new(&world);
            for epoch in 0..4 {
                let batch_out = apply_dynamics(&world, &batch, 100, &mut rng);
                let events = batch_out.to_events();
                for &ev in &events {
                    buffer.push(ev).unwrap();
                }
                assert_eq!(buffer.pending_events(), events.len());
                let stream_out = buffer.flush(&world);
                let case = format!("seed {seed}, epoch {epoch}");
                assert_eq!(stream_out.world.clients, batch_out.world.clients, "{case}");
                assert_eq!(stream_out.carried_from, batch_out.carried_from, "{case}");
                assert_eq!(stream_out.delta, batch_out.delta, "{case}");
                let mut batch_moved = batch_out.moved.clone();
                batch_moved.sort_unstable();
                assert_eq!(stream_out.moved, batch_moved, "{case}");
                assert!(buffer.is_empty());
                world = batch_out.world;
            }
        }
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

    /// Coalescing keeps a window from growing with repeated updates: a
    /// burst of many events over few clients flushes to one delta entry
    /// per client (the last destination, or the leave from the base
    /// zone), and the rebased buffer accepts again.
    #[test]
    fn bounded_buffer_sheds_and_coalesces_instead_of_growing() {
        let w = small_world(10);
        let mut buffer = DeltaBuffer::new(&w);
        // Eight movers, each updated five times.
        for round in 0..5 {
            for client in 0..8 {
                let zone = (w.clients[client].zone + 1 + round) % w.zones;
                buffer.push(WorldEvent::Move { client, zone }).unwrap();
            }
        }
        // Leave-after-move reuses the mover's entry.
        buffer.push(WorldEvent::Leave { client: 4 }).unwrap();
        assert_eq!(buffer.pending_events(), 41);
        let out = buffer.flush(&w);
        assert_eq!(out.delta.moves.len(), 7, "one entry per mover");
        assert_eq!(out.delta.leaves.len(), 1);
        assert_eq!(out.delta.leaves[0].zone, w.clients[4].zone);
        for m in &out.delta.moves {
            assert_eq!(m.to, (w.clients[m.old_index].zone + 5) % w.zones);
        }
        buffer
            .push(WorldEvent::Move { client: 0, zone: 2 })
            .unwrap();
        assert_eq!(buffer.pending_events(), 1);
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
