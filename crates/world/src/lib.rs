//! # dve-world — DVE workload substrate
//!
//! Everything the paper's simulation needs to *describe* a distributed
//! virtual environment, independent of the assignment algorithms:
//!
//! * [`ScenarioConfig`] — scenario parameters, including the paper's
//!   compact `"20s-80z-1000c-500cp"` notation and the Table 1 config set;
//! * [`World`] — a populated scenario: servers on topology nodes with
//!   capacities, clients with physical nodes and virtual zones;
//! * [`DistributionType`] — the PW/VW clustering taxonomy of Table 2;
//! * [`CorrelationModel`] — the physical/virtual correlation `delta` model;
//! * [`BandwidthModel`] — the quadratic zone-bandwidth model of \[20\]
//!   (25 msg/s x 100 B defaults);
//! * [`ErrorModel`] — King/IDMaps-style delay estimation error (Table 4);
//! * [`apply_dynamics`] — join/leave/move population dynamics (Table 3);
//! * [`WorldEvent`] / [`DynamicsOutcome::to_events`] — the same dynamics
//!   as a continuous event stream, the input of the serving engine in
//!   `dve-sim`;
//! * [`FaultSchedule`] — deterministic seeded server failure/recovery
//!   schedules ([`WorldEvent::ServerDown`]/[`WorldEvent::ServerUp`]) for
//!   the robustness scenarios: single failure, correlated multi-failure,
//!   fail-then-recover;
//! * [`WorldDelays`] — the delay handle of the pipeline: a shared
//!   [`DelaySource`] plus the gathered node→server RTT table, replacing
//!   the dense node×node `DelayMatrix` everywhere downstream
//!   (O(nodes × servers) instead of O(nodes²) or O(clients × servers));
//! * [`IngestRing`] — bounded SPSC ring in front of the serving engine:
//!   the line-rate ingest seam, admission-stamping events at enqueue so
//!   latency is arrival-to-commit end to end;
//! * [`wire`] — the length-prefixed wire protocol `dvecap serve` speaks
//!   (see below).
//!
//! ## Wire protocol
//!
//! Remote producers stream events as length-prefixed frames, integers
//! little-endian:
//!
//! ```text
//! [u32 length][u8 opcode][u64 fields...]
//! ```
//!
//! `length` counts the opcode plus the payload (not itself). Opcodes:
//! `0x01` Join(node, zone), `0x02` Leave(client), `0x03` Move(client,
//! zone), `0x04` ServerDown(server), `0x05` ServerUp(server) — so Join
//! and Move frames are 17 body bytes, the rest 9. On the wire `client`
//! is a *stable* client id (the serving engine's id discipline), not a
//! base-world index, handed to the engine untranslated. A
//! length prefix past [`wire::MAX_FRAME`] is refused outright. See
//! [`wire`] for the encoder and the incremental [`wire::FrameReader`],
//! and `docs/WIRE.md` at the repository root for the standalone spec
//! with a worked `dvecap serve` transcript.
//!
//! ## Ingest invariants
//!
//! * **[`IngestRing`] is strictly SPSC and never blocks.** One producer
//!   (`try_push`), one consumer (`pop`); a full ring *refuses* —
//!   the producer decides whether to retry or shed, and every refusal
//!   is counted on the ring. Events are admission-stamped at enqueue,
//!   so downstream latency accounting covers time spent queued.
//! * **Never shed a Leave.** The ring's producers push Leaves with the
//!   blocking push, and the second backpressure layer — the window
//!   bound of `dve-sim`'s `IngestStream`, which sheds Joins and Moves —
//!   admits Leaves past it: a departure strictly frees capacity, and a
//!   shed Leave would leave a phantom client holding server capacity
//!   forever. The burst bench and the ingest tests gate
//!   `shed_leaves == 0`.
//!
//! ```
//! use dve_world::{ScenarioConfig, World};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let config = ScenarioConfig::from_notation("5s-15z-200c-100cp").unwrap();
//! let labels: Vec<u16> = (0..100).map(|n| (n % 5) as u16).collect();
//! let world = World::generate(&config, 100, &labels, &mut rng).unwrap();
//! assert_eq!(world.clients.len(), 200);
//! assert_eq!(world.zone_populations().iter().sum::<usize>(), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod bandwidth;
mod correlation;
mod delays;
mod distribution;
mod dynamics;
mod error;
mod fault;
mod ingest;
mod mobility;
mod scenario;
mod stream;
pub mod wire;
mod world;

pub use arrival::InterArrival;
pub use bandwidth::BandwidthModel;
pub use correlation::CorrelationModel;
pub use delays::WorldDelays;
pub use distribution::{hot_weights, zipf_weights, DistributionType, WeightedIndex};
pub use dve_topology::{DelaySource, OnDemandDelays};
pub use dynamics::{
    apply_dynamics, ClientJoin, ClientLeave, DynamicsBatch, DynamicsOutcome, WorldDelta, ZoneMove,
};
pub use error::ErrorModel;
pub use fault::{FaultKind, FaultSchedule};
pub use ingest::{Admitted, IngestError, IngestRing};
pub use mobility::{MobilityModel, ZoneGrid};
pub use scenario::{CapacityPolicy, NotationError, ScenarioConfig};
pub use stream::WorldEvent;
pub use world::{Client, Server, World, WorldError};
