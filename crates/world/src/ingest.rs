//! Bounded SPSC ingest ring: the line-rate front end of the serving
//! path.
//!
//! An [`IngestRing`] is a fixed-capacity single-producer/single-consumer
//! queue of [`WorldEvent`]s, admission-stamped at enqueue. It sits in
//! front of the serving engine: a network reader (or a burst replayer)
//! pushes decoded events onto the ring at line rate, and the
//! engine-side pull loop (`dve-sim`'s `IngestStream`) drains it in
//! windows, carrying each event's **enqueue** time into the engine so
//! arrival-to-commit latency is measured end to end — the queueing
//! delay on the ring is part of the event's latency, not hidden before
//! the measurement starts.
//!
//! The ring is lock-free and allocation-free after construction. Events
//! are packed into per-slot atomics (the crate forbids `unsafe`, so
//! slots are `AtomicU64` fields rather than raw cells); head and tail
//! live on separate cache lines so producer and consumer do not false-
//! share. The SPSC contract is **one** producer thread and **one**
//! consumer thread at a time; the methods take `&self` so the ring can
//! be shared via `Arc`, and ownership of each side is the caller's
//! protocol to keep (the property tests exercise a thread per side).
//!
//! Backpressure composes across the two layers: a full ring refuses
//! events with [`IngestError::RingFull`] (the producer retries or sheds
//! via [`IngestRing::push_or_shed`], counted), and the pull loop's
//! window bound downstream sheds Joins and Moves via its own counter —
//! every event is shed at the ring, shed at the window, committed,
//! dropped as invalid, or refused at admission, which the property
//! tests assert.

use crate::stream::WorldEvent;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Pads a hot counter to its own cache line so the producer's tail and
/// the consumer's head never false-share (the vendored crossbeam stub
/// has no `CachePadded`).
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicUsize);

/// One ring slot: a [`WorldEvent`] packed into atomics. `tag` selects
/// the variant, `a`/`b` carry its fields, `stamp` is nanoseconds since
/// the ring's epoch. Slot contents are published by the tail store
/// (release) and observed after the tail load (acquire), so the relaxed
/// field accesses are ordered.
#[derive(Default)]
struct Slot {
    tag: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    stamp: AtomicU64,
}

const TAG_JOIN: u64 = 0;
const TAG_LEAVE: u64 = 1;
const TAG_MOVE: u64 = 2;
const TAG_SERVER_DOWN: u64 = 3;
const TAG_SERVER_UP: u64 = 4;

fn pack(event: &WorldEvent) -> (u64, u64, u64) {
    match *event {
        WorldEvent::Join { node, zone } => (TAG_JOIN, node as u64, zone as u64),
        WorldEvent::Leave { client } => (TAG_LEAVE, client as u64, 0),
        WorldEvent::Move { client, zone } => (TAG_MOVE, client as u64, zone as u64),
        WorldEvent::ServerDown { server } => (TAG_SERVER_DOWN, server as u64, 0),
        WorldEvent::ServerUp { server } => (TAG_SERVER_UP, server as u64, 0),
    }
}

fn unpack(tag: u64, a: u64, b: u64) -> WorldEvent {
    match tag {
        TAG_JOIN => WorldEvent::Join {
            node: a as usize,
            zone: b as usize,
        },
        TAG_LEAVE => WorldEvent::Leave { client: a as usize },
        TAG_MOVE => WorldEvent::Move {
            client: a as usize,
            zone: b as usize,
        },
        TAG_SERVER_DOWN => WorldEvent::ServerDown { server: a as usize },
        TAG_SERVER_UP => WorldEvent::ServerUp { server: a as usize },
        _ => unreachable!("ring slots only ever hold packed events"),
    }
}

/// Why the ring refused an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// Every slot is occupied: the consumer has fallen behind. The
    /// producer must retry after the consumer drains (backpressure) or
    /// shed the event (see [`IngestRing::push_or_shed`]).
    RingFull {
        /// The ring's fixed capacity.
        capacity: usize,
    },
    /// The ring was closed by [`IngestRing::close`]; no more events are
    /// accepted (pending ones still drain).
    Closed,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::RingFull { capacity } => {
                write!(f, "ingest ring is full ({capacity} slots)")
            }
            IngestError::Closed => write!(f, "ingest ring is closed"),
        }
    }
}

impl std::error::Error for IngestError {}

/// One event popped off the ring, with the [`Instant`] it was admitted
/// (enqueued) — the start of its arrival-to-commit latency clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// The event.
    pub event: WorldEvent,
    /// When the producer enqueued it.
    pub admitted: Instant,
}

/// Bounded single-producer/single-consumer ring of admission-stamped
/// [`WorldEvent`]s — see the module-level docs for the SPSC contract.
pub struct IngestRing {
    slots: Vec<Slot>,
    /// Consumer cursor: slots `[head, tail)` hold pending events.
    head: PaddedCounter,
    /// Producer cursor; the counters run monotonically and are reduced
    /// modulo capacity at the slot access, so `tail - head` is the exact
    /// occupancy with no reserved empty slot.
    tail: PaddedCounter,
    closed: AtomicBool,
    shed: AtomicU64,
    /// Stamps travel as nanoseconds since this epoch (captured at ring
    /// construction) so they fit one atomic word.
    epoch: Instant,
}

impl IngestRing {
    /// Creates a ring with exactly `capacity` usable slots.
    pub fn with_capacity(capacity: usize) -> IngestRing {
        assert!(capacity >= 1, "a zero-slot ring cannot accept anything");
        IngestRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: PaddedCounter::default(),
            tail: PaddedCounter::default(),
            closed: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events currently queued (enqueued, not yet popped).
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the ring closed: [`IngestRing::try_push`] refuses further
    /// events, the consumer drains what is pending and stops. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether [`IngestRing::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Lifetime count of events dropped by [`IngestRing::push_or_shed`]
    /// because the ring was full.
    pub fn shed_events(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Enqueues one event, admission-stamped now. Producer side of the
    /// SPSC contract: at most one thread may call the push methods at a
    /// time.
    pub fn try_push(&self, event: WorldEvent) -> Result<(), IngestError> {
        if self.is_closed() {
            return Err(IngestError::Closed);
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail - head >= self.capacity() {
            return Err(IngestError::RingFull {
                capacity: self.capacity(),
            });
        }
        let (tag, a, b) = pack(&event);
        let nanos = Instant::now().duration_since(self.epoch).as_nanos() as u64;
        let slot = &self.slots[tail % self.capacity()];
        slot.tag.store(tag, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.stamp.store(nanos, Ordering::Relaxed);
        // Publish the slot: pairs with the acquire tail load in `pop`.
        self.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// [`IngestRing::try_push`] with the shed half of the policy: a full
    /// ring drops the event, counts it in [`IngestRing::shed_events`],
    /// and reports `false`. A closed ring still errors — closure is a
    /// protocol event, not load.
    pub fn push_or_shed(&self, event: WorldEvent) -> Result<bool, IngestError> {
        match self.try_push(event) {
            Ok(()) => Ok(true),
            Err(IngestError::RingFull { .. }) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// [`IngestRing::try_push`] that spins (yielding) on a full ring
    /// until the consumer makes room — backpressure for events that must
    /// never be shed (a Leave, a server fault). Errors only on a closed
    /// ring.
    pub fn push_blocking(&self, event: WorldEvent) -> Result<(), IngestError> {
        loop {
            match self.try_push(event) {
                Err(IngestError::RingFull { .. }) => std::thread::yield_now(),
                other => return other,
            }
        }
    }

    /// Dequeues the oldest pending event, or `None` when the ring is
    /// empty. Consumer side of the SPSC contract: at most one thread may
    /// call `pop` at a time.
    pub fn pop(&self) -> Option<Admitted> {
        let head = self.head.0.load(Ordering::Relaxed);
        // Pairs with the release tail store in `try_push`.
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head % self.capacity()];
        let tag = slot.tag.load(Ordering::Relaxed);
        let a = slot.a.load(Ordering::Relaxed);
        let b = slot.b.load(Ordering::Relaxed);
        let nanos = slot.stamp.load(Ordering::Relaxed);
        // Free the slot for the producer.
        self.head.0.store(head + 1, Ordering::Release);
        Some(Admitted {
            event: unpack(tag, a, b),
            admitted: self.epoch + Duration::from_nanos(nanos),
        })
    }
}

impl std::fmt::Debug for IngestRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .field("shed", &self.shed_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_stamps_survive_the_ring() {
        let ring = IngestRing::with_capacity(8);
        let before = Instant::now();
        ring.try_push(WorldEvent::Join { node: 3, zone: 7 })
            .unwrap();
        ring.try_push(WorldEvent::Leave { client: 42 }).unwrap();
        ring.try_push(WorldEvent::Move {
            client: 9,
            zone: 1_000_000,
        })
        .unwrap();
        assert_eq!(ring.len(), 3);
        let first = ring.pop().unwrap();
        assert_eq!(first.event, WorldEvent::Join { node: 3, zone: 7 });
        assert!(first.admitted >= before);
        assert!(first.admitted <= Instant::now());
        assert_eq!(ring.pop().unwrap().event, WorldEvent::Leave { client: 42 });
        assert_eq!(
            ring.pop().unwrap().event,
            WorldEvent::Move {
                client: 9,
                zone: 1_000_000
            }
        );
        assert!(ring.pop().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_backpressures_then_sheds_counted() {
        let ring = IngestRing::with_capacity(2);
        ring.try_push(WorldEvent::Leave { client: 0 }).unwrap();
        ring.try_push(WorldEvent::Leave { client: 1 }).unwrap();
        assert_eq!(
            ring.try_push(WorldEvent::Leave { client: 2 }),
            Err(IngestError::RingFull { capacity: 2 })
        );
        assert_eq!(
            ring.push_or_shed(WorldEvent::Leave { client: 2 }),
            Ok(false)
        );
        assert_eq!(ring.shed_events(), 1);
        // Draining one slot makes room again (wraparound works).
        assert_eq!(ring.pop().unwrap().event, WorldEvent::Leave { client: 0 });
        assert_eq!(ring.push_or_shed(WorldEvent::Leave { client: 2 }), Ok(true));
        assert_eq!(ring.shed_events(), 1);
        assert_eq!(ring.pop().unwrap().event, WorldEvent::Leave { client: 1 });
        assert_eq!(ring.pop().unwrap().event, WorldEvent::Leave { client: 2 });
    }

    #[test]
    fn close_refuses_pushes_but_drains_pending() {
        let ring = IngestRing::with_capacity(4);
        ring.try_push(WorldEvent::ServerDown { server: 5 }).unwrap();
        ring.close();
        assert!(ring.is_closed());
        assert_eq!(
            ring.try_push(WorldEvent::Leave { client: 0 }),
            Err(IngestError::Closed)
        );
        assert_eq!(
            ring.push_blocking(WorldEvent::Leave { client: 0 }),
            Err(IngestError::Closed)
        );
        assert_eq!(
            ring.pop().unwrap().event,
            WorldEvent::ServerDown { server: 5 }
        );
        assert!(ring.pop().is_none());
    }

    #[test]
    fn server_events_round_trip() {
        let ring = IngestRing::with_capacity(2);
        ring.try_push(WorldEvent::ServerUp { server: 77 }).unwrap();
        assert_eq!(
            ring.pop().unwrap().event,
            WorldEvent::ServerUp { server: 77 }
        );
    }
}
