//! Always-on streaming serving engine: per-event churn with bounded
//! latency.
//!
//! [`run_churn`](crate::run_churn) advances the world in per-epoch
//! batches — fine for reproducing Table 3, but a production DVE serves a
//! continuous stream of joins, leaves, and zone moves, and its operative
//! SLO is *per-event latency*, not per-epoch throughput. This module is
//! that serving layer:
//!
//! * [`ServeEngine`] — an online engine addressed by stable
//!   [`ClientId`]s. Events are buffered and coalesced into micro-batches
//!   under a [`ServeConfig`] policy (flush at `max_batch` buffered
//!   events, or after `max_staleness` idle [`ServeEngine::tick`]s), then
//!   applied **in place**: the carried
//!   [`CapInstance`] advances by slot-recycling swap-remove ops
//!   (`stream_leave`/`stream_join`/`stream_move`), the carried
//!   [`CostMatrix`] by per-client column updates with a deferred
//!   per-touched-zone refresh. No O(k) work happens anywhere in a flush —
//!   the probe numbers that motivated this: at 100s-1000z-50000c a
//!   batch-path epoch costs ~35 ms (full repair ~33 ms, instance carry
//!   ~0.8 ms, violator scan ~1.5 ms), versus a per-event budget of 1 ms
//!   p99.
//! * **Incremental repair fast path** — after a flush the engine
//!   re-examines only the zones the micro-batch touched: a shift sweep
//!   (same rule as [`repair_assignment_with`] step 2) over touched
//!   columns, scoped evacuation of servers pushed over capacity, and
//!   contact re-decisions for joiners, movers, migrated-zone members and
//!   the zone-scoped violator rescan
//!   ([`violating_clients_in`](dve_assign::violating_clients_in),
//!   served by incrementally maintained per-zone unserved lists). When
//!   an overload cannot be evacuated locally and the engine was feasible
//!   before the flush, it **falls back** to the global zone-level repair
//!   ([`repair_targets_with`](crate::repair_targets_with)), applying
//!   each changed target through the scoped zone migration — contact
//!   re-decisions stay bounded by the membership of zones that moved.
//! * **Zone shards** — [`ServeConfig::shards`] is the one serving-width
//!   setting. Above 1 the engine boots a persistent [`WorkerTeam`] (the
//!   only threads it ever creates) and partitions zones by residue:
//!   shard `i` owns every zone `z` with `z % shards == i`. A flush that
//!   touches at least 8 zones (the concurrent-flush knee, a constant)
//!   **proposes in parallel**
//!   — each worker reads one immutable snapshot and derives its zones'
//!   refreshed orderings, repair shift prefixes and ranked contact
//!   plans — and then **commits serially** in worker-index order with
//!   live capacity checks. Everything load-coupled (migrations,
//!   evacuations, relay shedding, the full-repair escalation, server
//!   failure and recovery) stays in the serial commit, so decisions are
//!   bit-identical to the one-shard engine at every width. The
//!   per-shard books live in [`ServeStats::shards`]. The argument is
//!   spelled out in `docs/PARALLELISM.md` at the repository root.
//! * [`run_stream`] — the stream runner: replays the exact event
//!   sequence of a batch dynamics trace through the engine, recording
//!   per-event latencies ([`LatencyHistogram`]) and per-epoch quality.
//! * [`run_stream_batch_compat`] — the equivalence harness: the same
//!   events routed through a [`DeltaBuffer`] coalescer and the *batch*
//!   carry path, producing [`ChurnEpochRecord`]s that are bit-identical
//!   to [`run_churn`](crate::run_churn)'s — the property test that pins
//!   stream-in, batch-out equivalence.
//!
//! Divergence contract: with epoch-aligned coalescing and full repair
//! (`run_stream_batch_compat`) the stream path *is* the batch path.
//! Under micro-batching the carried instance and cost matrix remain
//! bit-identical to fresh builds of the engine's state (property-tested),
//! but client indices are a permutation of the batch world's (swap-remove
//! vs order-preserving compaction) and contacts are repaired
//! incrementally rather than re-derived by a global GreC per epoch — so
//! per-epoch pQoS tracks the batch path closely without being
//! float-identical. All capacity accounting is exact either way.

use crate::repair::repair_targets_with;
use crate::runner::ChurnEpochRecord;
use crate::setup::{build_replication, SimSetup};
use crate::stats::LatencyHistogram;
use dve_assign::{
    evaluate, grec, grez_with, Assignment, CapInstance, CostMatrix, IapError, Metrics, StuckPolicy,
};
use dve_par::WorkerTeam;
use dve_world::{
    apply_dynamics, BandwidthModel, DeltaBuffer, DynamicsBatch, ErrorModel, InterArrival,
    MobilityModel, World, WorldDelays, WorldEvent,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Stable identity of a client across its lifetime in a [`ServeEngine`].
/// Indices into the engine's [`CapInstance`] are *not* stable (leaves
/// backfill by swap-remove); ids are.
pub type ClientId = u64;

/// One event addressed to a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent {
    /// A new client connects from topology node `node` into `zone`.
    /// [`ServeEngine::push`] assigns and returns its [`ClientId`].
    Join {
        /// Topology node the client connects from.
        node: usize,
        /// Zone the client's avatar starts in.
        zone: usize,
    },
    /// Client `id` disconnects.
    Leave {
        /// The departing client.
        id: ClientId,
    },
    /// Client `id` moves its avatar to `zone`.
    Move {
        /// The moving client.
        id: ClientId,
        /// Destination zone.
        zone: usize,
    },
}

/// The serving layer's error taxonomy: why a [`ServeEngine`] (or one of
/// the stream runners built on it) refused to do what was asked. Every
/// variant is a *refusal with a reason*, never a panic — infeasible
/// seeds, full queues, and overload sheds all surface here so callers
/// can retry, degrade, or report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The id is not a live client (never joined, or already left).
    UnknownClient {
        /// The unknown id.
        id: ClientId,
    },
    /// The client already has a buffered leave.
    AlreadyLeaving {
        /// The departing id.
        id: ClientId,
    },
    /// The zone index is out of range.
    ZoneOutOfRange {
        /// Offending zone.
        zone: usize,
        /// Zone count.
        zones: usize,
    },
    /// The topology node index is out of range.
    NodeOutOfRange {
        /// Offending node.
        node: usize,
        /// Node count.
        nodes: usize,
    },
    /// The server index is out of range (fault events name servers).
    UnknownServer {
        /// Offending server.
        server: usize,
        /// Server count.
        servers: usize,
    },
    /// The initial assignment could not be solved within capacities
    /// (strict policies on over-demanded seeds). Carries the first zone
    /// GreZ could not place when that is known. This is the error the
    /// stream runners return instead of panicking on infeasible seeds.
    Infeasible {
        /// The unplaceable zone, when the solver identified one.
        zone: Option<usize>,
    },
    /// The bounded ingest queue is full
    /// ([`DegradationPolicy::max_pending`]): backpressure — the caller
    /// should retry after a flush drains the buffer, or shed the event
    /// itself.
    QueueFull {
        /// The configured bound that was hit.
        bound: usize,
    },
    /// Admission control shed the event ([`AdmissionPolicy::Reject`]
    /// under capacity pressure): the engine is protecting the serving
    /// population instead of overcommitting. Counted in
    /// [`ServeStats::shed_events`].
    Shed {
        /// The zone the shed join addressed.
        zone: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownClient { id } => write!(f, "client id {id} is not live"),
            ServeError::AlreadyLeaving { id } => {
                write!(f, "client id {id} already has a buffered leave")
            }
            ServeError::ZoneOutOfRange { zone, zones } => {
                write!(f, "zone {zone} out of range (world has {zones})")
            }
            ServeError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (topology has {nodes})")
            }
            ServeError::UnknownServer { server, servers } => {
                write!(f, "server {server} out of range (instance has {servers})")
            }
            ServeError::Infeasible { zone: Some(zone) } => {
                write!(
                    f,
                    "initial assignment infeasible: no capacity for zone {zone}"
                )
            }
            ServeError::Infeasible { zone: None } => {
                write!(f, "initial assignment infeasible within capacities")
            }
            ServeError::QueueFull { bound } => {
                write!(f, "ingest queue at its bound of {bound} events")
            }
            ServeError::Shed { zone } => {
                write!(f, "join into zone {zone} shed by admission control")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IapError> for ServeError {
    /// Maps an initial-solve failure into the serving taxonomy,
    /// preserving the unplaceable zone when GreZ named one.
    fn from(e: IapError) -> ServeError {
        match e {
            IapError::NoFeasibleServer { zone } => ServeError::Infeasible { zone: Some(zone) },
            _ => ServeError::Infeasible { zone: None },
        }
    }
}

/// What a [`ServeEngine`] does with a join that fails the
/// [`DegradationPolicy`] admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// No admission control: every valid join is applied (the
    /// historical behavior).
    #[default]
    Open,
    /// Refuse the join with [`ServeError::Shed`] (counted in
    /// [`ServeStats::shed_events`]): load is shed at the door.
    Reject,
    /// Accept the join but hold it in a deferred queue until its
    /// target's load drops back under the headroom line; the id is
    /// assigned immediately, the client becomes live at the flush that
    /// re-admits it (latency measured arrival-to-commit).
    Queue,
}

/// Graceful-degradation policy of a [`ServeEngine`]: how the engine
/// sheds or defers load instead of overcommitting when capacity is
/// scarce (a failed server, a flash crowd).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// What to do with joins failing the headroom check.
    pub admission: AdmissionPolicy,
    /// Capacity headroom fraction: a join into zone `z` passes admission
    /// only while its target server's booked load is at most
    /// `(1 - headroom) x capacity`. 0.0 (with [`AdmissionPolicy::Open`])
    /// disables the check entirely.
    pub headroom: f64,
    /// Bound on the engine's ingest buffer: a push arriving with this
    /// many events already pending is refused with
    /// [`ServeError::QueueFull`] (backpressure). `None` = unbounded;
    /// the auto-flush at `max_batch` keeps the buffer short either way,
    /// so this matters when flushes are deliberately deferred.
    pub max_pending: Option<usize>,
}

impl Default for DegradationPolicy {
    /// Open admission, no headroom, unbounded ingest — bit-identical to
    /// the engine's historical behavior.
    fn default() -> Self {
        DegradationPolicy {
            admission: AdmissionPolicy::Open,
            headroom: 0.0,
            max_pending: None,
        }
    }
}

/// Micro-batch coalescing policy of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Flush as soon as this many events are buffered (1 = apply every
    /// event immediately).
    pub max_batch: usize,
    /// Flush after this many [`ServeEngine::tick`]s with events pending —
    /// the staleness bound for quiet periods when `max_batch` is never
    /// reached.
    pub max_staleness: usize,
    /// How stream events spread over wall-clock within a tick. With
    /// [`InterArrival::AtTick`] every event lands at its tick boundary
    /// (the historical batch semantics); with
    /// [`InterArrival::Exponential`] the runners draw per-event arrival
    /// offsets, events spill across tick boundaries when a burst
    /// outruns the tick, and `max_staleness` ticks become a genuine
    /// wall-clock deadline (see
    /// [`run_mobility_stream_with`]).
    pub arrival: InterArrival,
    /// Graceful-degradation policy: admission control and ingest
    /// bounds. The default is fully open (historical behavior).
    pub degradation: DegradationPolicy,
    /// Serving width: the number of zone shards (shard `i` owns every
    /// zone `z` with `z % shards == i`). At 1 every flush runs serially
    /// on the calling thread; above 1 the engine boots a persistent
    /// [`WorkerTeam`] of this many workers, and flushes touching at
    /// least 8 zones propose on it concurrently (see
    /// [`ServeEngine::flush_now`]). Scheduling only: decisions are
    /// bit-identical at every width. Must be at least 1.
    pub shards: usize,
}

impl Default for ServeConfig {
    /// 64-event micro-batches, flushed after at most 4 idle ticks,
    /// events at tick boundaries, open admission, one shard.
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_staleness: 4,
            arrival: InterArrival::AtTick,
            degradation: DegradationPolicy::default(),
            shards: 1,
        }
    }
}

/// Touched-zone knee of the concurrent flush: below this many touched
/// zones a scatter round-trip costs more than the serial work it
/// replaces, so even a multi-shard engine flushes serially. Scheduling
/// only — both paths make bit-identical decisions.
pub(crate) const TEAM_ZONE_MIN: usize = 8;

/// How the stream runners sample serving quality at tick boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityEstimator {
    /// The exact O(k) [`ServeEngine::metrics`] evaluation — right for
    /// mid-size tiers, far too slow to run per tick at the million
    /// tier.
    Exact,
    /// [`ServeEngine::pqos_sampled`] over this many uniformly drawn
    /// clients — an O(sample) unbiased estimate with standard error
    /// `≈ 0.5/√sample`, the million-tier mode.
    Sampled {
        /// Clients sampled per estimate (with replacement).
        sample: usize,
    },
}

/// Lifetime counters of a [`ServeEngine`].
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Events applied (after coalescing no-ops are still counted).
    pub events: u64,
    /// Micro-batch flushes executed.
    pub flushes: u64,
    /// Zone migrations performed by the incremental repair.
    pub zones_migrated: u64,
    /// Times the engine fell back to the full repair pass.
    pub full_repairs: u64,
    /// Per-event latency: push to end of the applying flush.
    /// Steady-state only — events flushed inside a
    /// [`ServeEngine::begin_warmup`] window land in
    /// [`ServeStats::warmup`] instead, so build/admission of an initial
    /// population never pollutes the gated quantiles.
    pub latency: LatencyHistogram,
    /// Per-event latency of warm-up windows (initial-population
    /// admission, cold caches) — recorded, reported, not gated.
    pub warmup: LatencyHistogram,
    /// Load shed for capacity protection: joins refused by admission
    /// control plus relays force-shed off a failed server.
    pub shed_events: u64,
    /// Joins refused with [`ServeError::Shed`]
    /// ([`AdmissionPolicy::Reject`]).
    pub rejected_joins: u64,
    /// Joins accepted into the deferred queue
    /// ([`AdmissionPolicy::Queue`]); they leave the queue at the flush
    /// that re-admits them.
    pub queued_joins: u64,
    /// [`ServeEngine::fail_server`] mass evacuations executed.
    pub failovers: u64,
    /// [`ServeEngine::restore_server`] re-admission sweeps executed.
    pub recoveries: u64,
    /// Per-shard books, indexed by shard; empty at
    /// [`ServeConfig::shards`] = 1.
    pub shards: Vec<ShardStats>,
}

/// What shard `i` of a multi-shard [`ServeEngine`] has served.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Events applied whose zone routes to this shard (a leave counts
    /// in the zone it departed, a move in the zone it arrived in).
    pub events: u64,
    /// On-worker durations of this shard's propose jobs: one sample per
    /// **concurrent** flush (serial flushes, below 8 touched zones,
    /// record nothing). A shard with systematically
    /// longer propose times than its siblings exposes `z % shards`
    /// ownership skew.
    pub propose: LatencyHistogram,
}

/// What one flush did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReport {
    /// Events applied by this flush.
    pub events: usize,
    /// Distinct zones the micro-batch touched.
    pub touched_zones: usize,
    /// Zones migrated by the incremental repair (including evacuations).
    pub zones_migrated: usize,
    /// Whether the flush escalated to the full repair pass.
    pub full_repair: bool,
}

/// What a [`ServeEngine::fail_server`] mass evacuation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// The failed server.
    pub server: usize,
    /// Zones evacuated off the failed server (every hosted zone, when
    /// at least one survivor exists).
    pub zones_evacuated: usize,
    /// Relayed clients shed off the failed server's forwarding books.
    pub relays_shed: usize,
    /// Whether every surviving server ended within capacity — `false`
    /// is the degraded-mode signal: the survivors absorbed more than
    /// they fit and admission control should start pushing back.
    pub feasible: bool,
}

/// What a [`ServeEngine::restore_server`] re-admission sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// The recovered server.
    pub server: usize,
    /// Zones migrated by the sweep (pulled onto the recovered capacity
    /// or drained off overloaded survivors).
    pub zones_migrated: usize,
    /// Whether every server ended within capacity.
    pub feasible: bool,
}

/// A join accepted by [`AdmissionPolicy::Queue`] but not yet admitted:
/// it keeps its arrival stamp so the latency histogram measures
/// arrival-to-commit across the deferral.
#[derive(Debug, Clone, Copy)]
struct DeferredJoin {
    node: usize,
    zone: usize,
    id: ClientId,
    at: Instant,
}

/// A buffered event with its arrival time.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Join {
        node: usize,
        zone: usize,
        id: ClientId,
        at: Instant,
    },
    Leave {
        id: ClientId,
        at: Instant,
    },
    Move {
        id: ClientId,
        zone: usize,
        at: Instant,
    },
}

impl Pending {
    fn at(&self) -> Instant {
        match *self {
            Pending::Join { at, .. } | Pending::Leave { at, .. } | Pending::Move { at, .. } => at,
        }
    }
}

/// The always-on serving engine. See the module docs for the design.
#[derive(Debug)]
pub struct ServeEngine {
    inst: CapInstance,
    matrix: CostMatrix,
    target_of_zone: Vec<usize>,
    contact_of_client: Vec<usize>,
    /// Per-server load from hosted zones (`R_z` sums).
    zone_load: Vec<f64>,
    /// Per-server load from forwarded clients (`R^C_c` sums).
    forward_load: Vec<f64>,
    /// Per-client forwarding contribution currently on the books (0 when
    /// contact == target).
    fwd_contrib: Vec<f64>,
    /// Clients currently relayed through each server (`fwd_contrib > 0`
    /// with that contact) — the shed list the scoped evacuation re-decides
    /// when forwarding growth overloads a server. Unordered; entries are
    /// swap-removed.
    relayed_of_server: Vec<Vec<usize>>,
    /// Clients currently relayed out of each zone — the same relay set as
    /// [`ServeEngine::relayed_of_server`], keyed by zone. Only relayed
    /// members can have a stale forwarding booking when their zone's
    /// population changes (`R^C_c` is population-dependent), so
    /// [`ServeEngine::refresh_zone_forwarding`] walks this list instead
    /// of the whole membership. Unordered; entries are swap-removed.
    relayed_of_zone: Vec<Vec<usize>>,
    /// Per-zone **unserved violators**: members beyond the delay bound
    /// of their zone's target whose contact still *is* that target (no
    /// relay found yet) — exactly the set the flush-path violator rescan
    /// retries. Maintained incrementally by the event appliers and
    /// [`ServeEngine::decide_contact_among`], so the rescan never sweeps
    /// a full zone membership. Unordered; entries are swap-removed.
    unserved_of_zone: Vec<Vec<usize>>,
    /// Position of each client in its zone's unserved list
    /// (`usize::MAX` when not listed) — O(1) membership and removal.
    unserved_pos: Vec<usize>,
    /// Position of each client in its contact's
    /// [`ServeEngine::relayed_of_server`] list (`usize::MAX` when not
    /// relayed) — O(1) removal. Without it every unrelay scanned the
    /// list, and a flash crowd's hot zone can relay thousands of
    /// clients through the same few servers.
    relay_pos_server: Vec<usize>,
    /// Position of each client in its zone's
    /// [`ServeEngine::relayed_of_zone`] list (`usize::MAX` when not
    /// relayed) — O(1) removal, same reason.
    relay_pos_zone: Vec<usize>,
    /// Zones currently hosted by each server (the inverse of
    /// `target_of_zone`), so evacuations list a server's zones without
    /// scanning the whole zone table — under a flash crowd dozens of
    /// servers can sit overloaded on every flush, and the naive
    /// O(servers × zones) rescan was a per-flush latency tax. Unordered;
    /// entries are swap-removed.
    zones_of_server: Vec<Vec<usize>>,
    /// Whether every server was within capacity at the end of the last
    /// flush (initially: of the initial assignment).
    capacity_ok: bool,
    /// Per-server failure flags ([`ServeEngine::fail_server`]). A down
    /// server carries capacity 0 in the instance, so every fit check in
    /// the repair path excludes it without special cases.
    down: Vec<bool>,
    /// Nominal (boot-time) capacities, restored on
    /// [`ServeEngine::restore_server`].
    nominal_capacity: Vec<f64>,
    /// Joins held back by [`AdmissionPolicy::Queue`], FIFO; retried at
    /// every flush.
    deferred: Vec<DeferredJoin>,
    id_of_client: Vec<ClientId>,
    index_of_id: HashMap<ClientId, usize>,
    next_id: ClientId,
    delays: WorldDelays,
    model: BandwidthModel,
    error: ErrorModel,
    rng: StdRng,
    pending: Vec<Pending>,
    pending_joins: HashSet<ClientId>,
    pending_leaves: HashSet<ClientId>,
    staleness: usize,
    /// Whether flushes currently record into the warm-up histogram.
    warming_up: bool,
    /// The persistent propose team of a multi-shard engine (one worker
    /// per shard, spawned at boot); `None` at one shard.
    team: Option<WorkerTeam>,
    /// Recycled flush-local buffers — see [`FlushScratch`].
    scratch: FlushScratch,
    config: ServeConfig,
    stats: ServeStats,
}

/// The immutable state a concurrent flush shares with the propose
/// workers: everything a zone-order refresh, a repair shift prefix, or
/// a contact plan reads. Moved out of the engine with `mem::take`
/// behind an `Arc` for the scatter and moved back before the serial
/// commit — no clone of the big tables, and the workers can never see
/// a half-committed engine.
struct FlushSnapshot {
    inst: CapInstance,
    matrix: CostMatrix,
    targets: Vec<usize>,
    unserved: Vec<Vec<usize>>,
}

/// A worker-proposed contact decision for one client: the relay
/// candidates strictly cheaper (`C^R`) than staying on the planned
/// target, sorted by `(cost, server)` ascending. The serial commit
/// walks the list with **live** capacity checks and books the first
/// fit — which is exactly the server the live full scan's
/// strict-`<` minimum would pick (the scan keeps the lexicographically
/// smallest fitting `(cost, index)` below the stay-home cost, and
/// every fitting entry earlier in this list is exactly that). A plan
/// is only consumed while the client's zone still has the planned
/// target; the commit falls back to the live scan otherwise.
#[derive(Debug)]
struct ContactPlan {
    target: usize,
    ranked: Vec<(f64, usize)>,
}

/// One worker's output of a concurrent flush propose scatter.
#[derive(Debug, Default)]
struct ShardProposal {
    /// Per owned touched zone: `(zone, proposed order row, regret,
    /// repair shift prefix)`. The prefix is the head of the *proposed*
    /// row up to (excluding) the first server whose violator count
    /// reaches the current target's — the exact candidate set the
    /// serial quality-shift walk would consider before its
    /// `count >= cur_count` break.
    zones: Vec<(usize, Vec<u32>, f64, Vec<u32>)>,
    /// Contact plans for the shard's redecide clients and (bounded)
    /// snapshot-unserved members.
    contacts: Vec<(usize, ContactPlan)>,
    /// The worker's zone work-list, riding back so the caller's
    /// partition buffer recycles across flushes.
    zone_list: Vec<usize>,
    /// The worker's redecide-client work-list, riding back likewise.
    client_list: Vec<usize>,
    /// Unused row buffers from the worker's scratch stash, returned to
    /// the engine's pool.
    row_stash: Vec<Vec<u32>>,
    /// Unused ranked-candidate buffers, returned likewise.
    ranked_stash: Vec<Vec<(f64, usize)>>,
}

/// Recycled flush-local buffers, owned by the engine and threaded
/// through every flush so the steady-state serve loop stops paying the
/// allocator: after warm-up each buffer's capacity has converged to its
/// high-water mark and a flush is amortized allocation-free. Reuse is
/// invisible to decisions — every buffer is cleared before it is read,
/// so a recycled buffer holds exactly the bytes a fresh allocation
/// would (property-tested; see docs/PARALLELISM.md, "Buffer
/// lifecycle").
#[derive(Debug, Default)]
struct FlushScratch {
    /// `flush_now`'s touched-zone accumulator (also the all-zones list
    /// of the restore sweep).
    touched: Vec<usize>,
    /// `flush_now`'s redecide-id accumulator.
    redecide: Vec<ClientId>,
    /// `repair_targets`' migrated-zone accumulator.
    migrated: Vec<usize>,
    /// `repair_contacts`' per-zone relay-candidate list.
    candidates: Vec<usize>,
    /// `evacuate`'s servers-with-headroom list.
    room: Vec<usize>,
    /// `evacuate`/`fail_server`'s sorted hosted-zone list.
    evac_zones: Vec<usize>,
    /// Concurrent flush: per-worker zone partition (outer length is the
    /// team width; inner lists recycle through the proposals).
    zones_of: Vec<Vec<usize>>,
    /// Concurrent flush: per-worker redecide partition.
    clients_of: Vec<Vec<usize>>,
    /// Concurrent flush: per-worker `(row, ranked)` buffer demand.
    need: Vec<(usize, usize)>,
    /// Pool of `u32` row buffers (order rows and shift prefixes).
    rows: Vec<Vec<u32>>,
    /// Pool of ranked-candidate buffers (`ContactPlan` backing stores).
    ranked: Vec<Vec<(f64, usize)>>,
    /// Recycled [`ShardProposal`] shells (their inner `Vec`s keep their
    /// capacity across flushes).
    shells: Vec<ShardProposal>,
    /// Recycled scatter result slots ([`WorkerTeam::scatter`]).
    slots: Vec<Option<(ShardProposal, u64)>>,
    /// Merge-side shift-prefix index (drained back into `rows`).
    prefixes: HashMap<usize, Vec<u32>>,
    /// Merge-side contact-plan index (ranked stores drained back into
    /// `ranked`).
    plans: HashMap<usize, ContactPlan>,
}

/// Per-zone cap on proposed contact plans for the violator rescan: a
/// flash-crowd zone with thousands of unrescuable violators would
/// otherwise cost every flush O(violators · m log m) of propose work
/// that the serial path's candidates-empty skip avoids entirely. Over
/// the cap the zone gets no plans and the rescan runs its (equally
/// exact) live path.
const RESCUE_PLAN_MAX: usize = 64;

impl FlushSnapshot {
    /// Proposes a contact decision for client `c` — the parallel half
    /// of [`ServeEngine::decide_contact`] — writing the ranked list
    /// into the caller-owned `ranked` buffer (cleared first, so a
    /// recycled buffer yields the same bytes a fresh allocation would;
    /// equivalence is tested below). Pure in the snapshot: the ranked
    /// list depends only on delay rows and the planned target, so
    /// recomputing it at commit time would yield the same floats.
    fn plan_contact_with(&self, c: usize, mut ranked: Vec<(f64, usize)>) -> (usize, ContactPlan) {
        let z = self.inst.zone_of(c);
        let target = self.targets[z];
        ranked.clear();
        if self.inst.obs_cs(c, target) > self.inst.delay_bound() {
            let best0 = self.inst.rap_cost(c, target, target);
            ranked.extend(
                (0..self.inst.num_servers())
                    .filter(|&s| s != target)
                    .map(|s| (self.inst.rap_cost(c, s, target), s))
                    .filter(|&(cost, _)| cost < best0),
            );
            ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        }
        // Within bound on the target the (cleared) list stays empty:
        // the commit's early return never reads it.
        (c, ContactPlan { target, ranked })
    }
}

impl ServeEngine {
    /// Boots an engine on an instance built from `world`: solves the
    /// initial assignment (GreZ + GreC, as the churn engine does), builds
    /// the carried [`CostMatrix`] and the incremental load books, and
    /// numbers the initial clients `0..k` in index order.
    ///
    /// `delays` is the world's delay-pipeline handle (owned): joiners'
    /// delay rows are filled from its node→server gather with the same
    /// lookups the batch carry uses. `rng` is drawn from only when
    /// `error` actually distorts (joiner estimate sampling).
    pub fn new(
        instance: CapInstance,
        world: &World,
        delays: WorldDelays,
        error: ErrorModel,
        policy: StuckPolicy,
        config: ServeConfig,
        rng: StdRng,
    ) -> Result<ServeEngine, ServeError> {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.shards >= 1, "shards must be at least 1");
        assert!(
            config.max_staleness >= 1,
            "max_staleness must be at least 1"
        );
        assert!(
            (0.0..1.0).contains(&config.degradation.headroom),
            "headroom must be in [0, 1)"
        );
        assert_eq!(
            delays.num_servers(),
            instance.num_servers(),
            "delay handle covers the instance's servers"
        );
        let matrix = CostMatrix::build(&instance);
        let target_of_zone = grez_with(&instance, &matrix, policy)?;
        let contact_of_client = grec(&instance, &target_of_zone);
        let k = instance.num_clients();
        let m = instance.num_servers();
        let mut engine = ServeEngine {
            zone_load: Vec::new(),
            forward_load: Vec::new(),
            fwd_contrib: Vec::new(),
            relayed_of_server: Vec::new(),
            relayed_of_zone: Vec::new(),
            unserved_of_zone: Vec::new(),
            unserved_pos: Vec::new(),
            relay_pos_server: Vec::new(),
            relay_pos_zone: Vec::new(),
            zones_of_server: Vec::new(),
            capacity_ok: false,
            down: vec![false; m],
            nominal_capacity: (0..m).map(|s| instance.capacity(s)).collect(),
            deferred: Vec::new(),
            id_of_client: (0..k as ClientId).collect(),
            index_of_id: (0..k).map(|c| (c as ClientId, c)).collect(),
            next_id: k as ClientId,
            model: world.config.bandwidth,
            delays,
            error,
            rng,
            pending: Vec::new(),
            pending_joins: HashSet::new(),
            pending_leaves: HashSet::new(),
            staleness: 0,
            warming_up: false,
            team: (config.shards > 1).then(|| WorkerTeam::new(config.shards)),
            scratch: FlushScratch::default(),
            config,
            stats: ServeStats {
                shards: if config.shards > 1 {
                    vec![ShardStats::default(); config.shards]
                } else {
                    Vec::new()
                },
                ..ServeStats::default()
            },
            inst: instance,
            matrix,
            target_of_zone,
            contact_of_client,
        };
        engine.rebuild_loads();
        Ok(engine)
    }

    /// Enters a warm-up window: pending events are flushed first, then
    /// every event applied until [`ServeEngine::end_warmup`] records its
    /// latency into [`ServeStats::warmup`] instead of the gated
    /// steady-state histogram. Use it while admitting an initial
    /// population or repopulating after a topology change, so one-off
    /// build traffic cannot pollute the serving-SLO quantiles.
    pub fn begin_warmup(&mut self) {
        self.flush_now();
        self.warming_up = true;
    }

    /// Leaves the warm-up window (flushing anything still buffered into
    /// the warm-up histogram).
    pub fn end_warmup(&mut self) {
        self.flush_now();
        self.warming_up = false;
    }

    /// Whether the engine is inside a warm-up window.
    pub fn is_warming_up(&self) -> bool {
        self.warming_up
    }

    /// The carried instance (advanced in place by flushes).
    pub fn instance(&self) -> &CapInstance {
        &self.inst
    }

    /// The carried cost matrix (bit-identical to a fresh build of
    /// [`ServeEngine::instance`] after every flush).
    pub fn matrix(&self) -> &CostMatrix {
        &self.matrix
    }

    /// Current zone→server map.
    pub fn targets(&self) -> &[usize] {
        &self.target_of_zone
    }

    /// Current client→contact map (indexed like the instance).
    pub fn contacts(&self) -> &[usize] {
        &self.contact_of_client
    }

    /// Lifetime counters, including the per-event latency histogram.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Live population.
    pub fn num_clients(&self) -> usize {
        self.inst.num_clients()
    }

    /// Topology nodes the engine's delay handle covers — the validation
    /// bound for join events' `node` field.
    pub fn nodes(&self) -> usize {
        self.delays.nodes()
    }

    /// Events buffered and not yet applied.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Whether every server is within capacity (as of the last flush).
    pub fn is_feasible(&self) -> bool {
        self.capacity_ok
    }

    /// The id of the client currently at `index`.
    pub fn id_at(&self, index: usize) -> ClientId {
        self.id_of_client[index]
    }

    /// Current index of client `id`, if live.
    pub fn index_of(&self, id: ClientId) -> Option<usize> {
        self.index_of_id.get(&id).copied()
    }

    /// Snapshot of the current assignment.
    pub fn assignment(&self) -> Assignment {
        Assignment {
            target_of_zone: self.target_of_zone.clone(),
            contact_of_client: self.contact_of_client.clone(),
        }
    }

    /// Evaluates the current assignment (O(k): not for the hot path).
    pub fn metrics(&self) -> Metrics {
        evaluate(&self.inst, &self.assignment())
    }

    /// Sampled pQoS estimate: draws `sample` clients uniformly **with
    /// replacement** from the live population and returns the fraction
    /// whose true end-to-end delay (client → contact → target, exactly
    /// the [`evaluate`] rule) is within the bound. O(sample) instead of
    /// the O(k) full evaluation — the per-tick quality probe of the
    /// million-client mobility runs, where even one full sweep per tick
    /// would dominate the epoch. Unbiased, standard error ≈
    /// `0.5/√sample`; deterministic given `rng`. Returns 1.0 for an
    /// empty population (matching [`evaluate`]).
    pub fn pqos_sampled<R: rand::Rng + ?Sized>(&self, sample: usize, rng: &mut R) -> f64 {
        assert!(sample > 0, "sample size must be positive");
        let k = self.inst.num_clients();
        if k == 0 {
            return 1.0;
        }
        let bound = self.inst.delay_bound();
        let mut with_qos = 0usize;
        for _ in 0..sample {
            let c = rng.gen_range(0..k);
            let target = self.target_of_zone[self.inst.zone_of(c)];
            let delay = self
                .inst
                .true_path_delay(c, self.contact_of_client[c], target);
            with_qos += usize::from(delay <= bound);
        }
        with_qos as f64 / sample as f64
    }

    /// Accepts one event. Joins return the assigned [`ClientId`].
    /// Triggers a flush when the buffer reaches `max_batch`.
    ///
    /// Under a [`DegradationPolicy`] this is also the admission door:
    /// a full ingest buffer refuses with [`ServeError::QueueFull`]
    /// (backpressure), and a join into a zone whose target is over the
    /// headroom line is shed ([`ServeError::Shed`]) or deferred,
    /// depending on the policy. Both decisions read only committed
    /// (post-flush) load books, so they are bit-identical across
    /// repeated runs and thread counts.
    ///
    /// Latency semantics are **per arrival**: every accepted event
    /// carries its own admission stamp and contributes exactly one
    /// sample to the latency histogram at the flush that applies it —
    /// the engine does not coalesce, so sample counts always equal
    /// accepted-event counts (the upstream [`DeltaBuffer`] layer keys
    /// its stamps to surviving entries instead; see
    /// `dve_world::FlushAdmissions`).
    pub fn push(&mut self, event: StreamEvent) -> Result<Option<ClientId>, ServeError> {
        self.push_admitted(event, Instant::now())
    }

    /// [`ServeEngine::push`] with an explicit admission stamp: `at` is
    /// when the event arrived at the ingest boundary (e.g. was enqueued
    /// on a `dve_world::IngestRing`), which may be well before it
    /// reached the engine — the latency histogram then measures
    /// arrival-to-commit end to end, queueing delay included.
    pub fn push_admitted(
        &mut self,
        event: StreamEvent,
        at: Instant,
    ) -> Result<Option<ClientId>, ServeError> {
        if let Some(bound) = self.config.degradation.max_pending {
            if self.pending.len() >= bound {
                return Err(ServeError::QueueFull { bound });
            }
        }
        let assigned = match event {
            StreamEvent::Join { node, zone } => {
                if zone >= self.inst.num_zones() {
                    return Err(ServeError::ZoneOutOfRange {
                        zone,
                        zones: self.inst.num_zones(),
                    });
                }
                if node >= self.delays.nodes() {
                    return Err(ServeError::NodeOutOfRange {
                        node,
                        nodes: self.delays.nodes(),
                    });
                }
                if !self.admit_join(zone) {
                    match self.config.degradation.admission {
                        AdmissionPolicy::Open => unreachable!("open admission always admits"),
                        AdmissionPolicy::Reject => {
                            self.stats.shed_events += 1;
                            self.stats.rejected_joins += 1;
                            return Err(ServeError::Shed { zone });
                        }
                        AdmissionPolicy::Queue => {
                            let id = self.next_id;
                            self.next_id += 1;
                            self.stats.queued_joins += 1;
                            self.deferred.push(DeferredJoin { node, zone, id, at });
                            return Ok(Some(id));
                        }
                    }
                }
                let id = self.next_id;
                self.next_id += 1;
                self.pending_joins.insert(id);
                self.pending.push(Pending::Join { node, zone, id, at });
                Some(id)
            }
            StreamEvent::Leave { id } => {
                // A queued joiner that leaves before being admitted just
                // departs the deferred queue: it was never live.
                if let Some(pos) = self.deferred.iter().position(|d| d.id == id) {
                    self.deferred.remove(pos);
                    return Ok(None);
                }
                self.check_live(id)?;
                self.pending_leaves.insert(id);
                self.pending.push(Pending::Leave { id, at });
                None
            }
            StreamEvent::Move { id, zone } => {
                if zone >= self.inst.num_zones() {
                    return Err(ServeError::ZoneOutOfRange {
                        zone,
                        zones: self.inst.num_zones(),
                    });
                }
                // A queued joiner may move zones while waiting; it will
                // be admitted into its latest zone.
                if let Some(pos) = self.deferred.iter().position(|d| d.id == id) {
                    self.deferred[pos].zone = zone;
                    return Ok(None);
                }
                self.check_live(id)?;
                self.pending.push(Pending::Move { id, zone, at });
                None
            }
        };
        if self.pending.len() >= self.config.max_batch {
            self.flush_now();
        }
        Ok(assigned)
    }

    /// Heartbeat for quiet periods: counts one staleness tick and flushes
    /// once `max_staleness` ticks accumulate with events pending (joins
    /// deferred by admission control count: their retry rides the flush).
    pub fn tick(&mut self) -> Option<FlushReport> {
        if self.pending.is_empty() && self.deferred.is_empty() {
            self.staleness = 0;
            return None;
        }
        self.staleness += 1;
        if self.staleness >= self.config.max_staleness {
            return self.flush_now();
        }
        None
    }

    fn check_live(&self, id: ClientId) -> Result<(), ServeError> {
        if self.pending_leaves.contains(&id) {
            return Err(ServeError::AlreadyLeaving { id });
        }
        if !self.index_of_id.contains_key(&id) && !self.pending_joins.contains(&id) {
            return Err(ServeError::UnknownClient { id });
        }
        Ok(())
    }

    /// Applies every buffered event as one micro-batch and runs the
    /// incremental repair. Returns `None` when nothing was pending.
    /// Joins deferred by [`AdmissionPolicy::Queue`] are retried first
    /// (FIFO, stopping at the first still-blocked join so the queue
    /// order is preserved) and ride this flush when re-admitted.
    ///
    /// A multi-shard engine whose batch touched at least 8 zones (the
    /// concurrent-flush knee) runs the flush tail concurrently on its
    /// team (`flush_concurrent`); every other flush runs the serial
    /// pipeline entirely on the calling thread, consulting neither
    /// `DVE_THREADS` nor any other runtime width. Bit-identical either
    /// way.
    pub fn flush_now(&mut self) -> Option<FlushReport> {
        self.staleness = 0;
        self.readmit_deferred();
        if self.pending.is_empty() {
            return None;
        }
        let mut events = std::mem::take(&mut self.pending);
        self.pending_joins.clear();
        self.pending_leaves.clear();

        // Flush-local accumulators recycle through the scratch pool:
        // cleared here, restored (with their grown capacity) before the
        // report so steady-state flushes stop allocating.
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.clear();
        // Joiners and effective movers need a contact decision by id
        // (indices shift under later leaves in the same batch).
        let mut redecide = std::mem::take(&mut self.scratch.redecide);
        redecide.clear();
        let shards = self.stats.shards.len();
        for ev in &events {
            if shards > 0 {
                // A leave's zone must be read before the apply recycles
                // the client's slot.
                let zone = match *ev {
                    Pending::Join { zone, .. } | Pending::Move { zone, .. } => zone,
                    Pending::Leave { id, .. } => self.inst.zone_of(self.index_of_id[&id]),
                };
                self.stats.shards[zone % shards].events += 1;
            }
            match *ev {
                Pending::Join { node, zone, id, .. } => {
                    self.apply_join(node, zone, id, &mut touched);
                    redecide.push(id);
                }
                Pending::Leave { id, .. } => self.apply_leave(id, &mut touched),
                Pending::Move { id, zone, .. } => {
                    if self.apply_move(id, zone, &mut touched) {
                        redecide.push(id);
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        // With a worker team and enough touched zones, the whole flush
        // tail — column refresh, repair shift prefixes, and contact
        // plans — proposes concurrently on disjoint shards and commits
        // serially (see `flush_concurrent`); otherwise the serial
        // pipeline runs at width 1. Bit-identical either way.
        let (migrated, full_repair) = if self.team.is_some() && touched.len() >= TEAM_ZONE_MIN {
            self.flush_concurrent(&touched, &redecide)
        } else {
            self.matrix.refresh_zones_threads(&touched, 1);
            let (migrated, full_repair) = self.repair_targets(&touched, None);
            if !full_repair {
                self.repair_contacts(&touched, &migrated, &redecide, None);
            }
            (migrated, full_repair)
        };
        let m = self.inst.num_servers();
        self.capacity_ok = (0..m).all(|s| self.load(s) <= self.inst.capacity(s) + 1e-9);

        let finished = Instant::now();
        let histogram = if self.warming_up {
            &mut self.stats.warmup
        } else {
            &mut self.stats.latency
        };
        for ev in &events {
            histogram.record(finished.duration_since(ev.at()));
        }
        self.stats.events += events.len() as u64;
        self.stats.flushes += 1;
        self.stats.zones_migrated += migrated.len() as u64;
        let report = FlushReport {
            events: events.len(),
            touched_zones: touched.len(),
            zones_migrated: migrated.len(),
            full_repair,
        };
        // Recycle: the drained event batch becomes the next pending
        // buffer (nothing pushed to `pending` mid-flush), and the
        // accumulators go back to the pool.
        events.clear();
        self.pending = events;
        self.scratch.touched = touched;
        self.scratch.redecide = redecide;
        self.scratch.migrated = migrated;
        Some(report)
    }

    /// The concurrent flush tail: everything between event application
    /// and the load-coupled serial repair — zone-order refreshes, the
    /// quality-shift candidate prefixes, and contact plans for
    /// joiners/movers and unserved violators — is **proposed in
    /// parallel** on disjoint zone shards (zone `z` on worker
    /// `z % threads`) from one immutable snapshot of the engine, then
    /// applied by a single serial merge that consumes the scatter's
    /// results in worker-index order.
    ///
    /// Why this is bit-identical to the serial pipeline at any width:
    ///
    /// * **Refreshes** read only their own zone's column, and zones are
    ///   disjoint across shards, so installing the proposed orders in
    ///   any order yields the serial loop's matrix.
    /// * **Shift prefixes** are count-based: violator counts cannot
    ///   change between snapshot and commit (only events change counts,
    ///   and they are all applied), and a zone's own target cannot
    ///   change before its quality-shift turn, so the prefix equals
    ///   exactly the candidates the serial walk's `count >= cur_count`
    ///   break would visit. The *fit* checks stay live in the commit.
    /// * **Contact plans** pre-rank relay candidates by `(C^R, index)`;
    ///   loads only grow while the commit books relays, so walking the
    ///   ranked list with live fit checks books the same server the
    ///   live strict-`<` minimum scan would. Plans are guarded on the
    ///   planned target still being the zone's target; any cross-shard
    ///   effect the snapshot could not see (a migration, an evacuation
    ///   shedding onto another shard's server) voids the plan and the
    ///   commit falls back to the live scan.
    ///
    /// Cross-shard effects themselves — migrations, evacuation, relay
    /// shedding, the full-repair escalation — run only in the serial
    /// merge, where every load book is authoritative. The team's
    /// workers are the boot-time persistent ones: no flush spawns.
    fn flush_concurrent(&mut self, touched: &[usize], redecide: &[ClientId]) -> (Vec<usize>, bool) {
        let team = self
            .team
            .as_ref()
            .expect("concurrent flushes run on the boot-time team");
        let threads = team.threads();
        // Partition the work by shard owner (zone % threads), resolving
        // redecide ids serially while the engine still owns its state.
        // Partition lists, buffer pools, and result slots all recycle
        // through the scratch — the worker stashes ride back inside the
        // proposals, so after warm-up a concurrent flush reuses every
        // proposal buffer it fills.
        let mut zones_of = std::mem::take(&mut self.scratch.zones_of);
        zones_of.resize_with(threads, Vec::new);
        let mut clients_of = std::mem::take(&mut self.scratch.clients_of);
        clients_of.resize_with(threads, Vec::new);
        let mut need = std::mem::take(&mut self.scratch.need);
        need.clear();
        need.resize(threads, (0, 0));
        for list in zones_of.iter_mut().chain(clients_of.iter_mut()) {
            list.clear();
        }
        for &z in touched {
            let w = z % threads;
            zones_of[w].push(z);
            // Each zone proposal fills one order row and one prefix;
            // each (bounded) unserved member fills one ranked list.
            need[w].0 += 2;
            let u = self.unserved_of_zone[z].len();
            if u > 0 && u <= RESCUE_PLAN_MAX {
                need[w].1 += u;
            }
        }
        for &id in redecide {
            if let Some(&c) = self.index_of_id.get(&id) {
                let w = self.inst.zone_of(c) % threads;
                clients_of[w].push(c);
                need[w].1 += 1;
            }
        }
        let snap = Arc::new(FlushSnapshot {
            inst: std::mem::take(&mut self.inst),
            matrix: std::mem::take(&mut self.matrix),
            targets: std::mem::take(&mut self.target_of_zone),
            unserved: std::mem::take(&mut self.unserved_of_zone),
        });
        let mut rows_pool = std::mem::take(&mut self.scratch.rows);
        let mut ranked_pool = std::mem::take(&mut self.scratch.ranked);
        let mut shells = std::mem::take(&mut self.scratch.shells);
        let jobs: Vec<_> = zones_of
            .iter_mut()
            .zip(clients_of.iter_mut())
            .enumerate()
            .map(|(w, (zone_list, client_list))| {
                let zones = std::mem::take(zone_list);
                let clients = std::mem::take(client_list);
                let (row_need, ranked_need) = need[w];
                let mut rows = rows_pool.split_off(rows_pool.len().saturating_sub(row_need));
                let mut ranked =
                    ranked_pool.split_off(ranked_pool.len().saturating_sub(ranked_need));
                let mut p = shells.pop().unwrap_or_default();
                p.zones.clear();
                p.contacts.clear();
                let snap = Arc::clone(&snap);
                move |_w: usize| -> ShardProposal {
                    for &z in &zones {
                        let mut row = rows.pop().unwrap_or_default();
                        let rho = snap.matrix.propose_zone_order_into(z, &mut row);
                        let cur = snap.targets[z];
                        let cur_count = snap.matrix.count(cur, z);
                        // Pool rows come back full; the prefix is
                        // appended to, so clear it explicitly.
                        let mut prefix = rows.pop().unwrap_or_default();
                        prefix.clear();
                        if cur_count > 0 {
                            for &s in &row {
                                if snap.matrix.count(s as usize, z) >= cur_count {
                                    break;
                                }
                                prefix.push(s);
                            }
                        }
                        let unserved = &snap.unserved[z];
                        if !unserved.is_empty() && unserved.len() <= RESCUE_PLAN_MAX {
                            for &c in unserved {
                                p.contacts.push(
                                    snap.plan_contact_with(c, ranked.pop().unwrap_or_default()),
                                );
                            }
                        }
                        p.zones.push((z, row, rho, prefix));
                    }
                    for &c in &clients {
                        p.contacts
                            .push(snap.plan_contact_with(c, ranked.pop().unwrap_or_default()));
                    }
                    p.zone_list = zones;
                    p.client_list = clients;
                    p.row_stash = rows;
                    p.ranked_stash = ranked;
                    p
                }
            })
            .collect();
        let mut slots = std::mem::take(&mut self.scratch.slots);
        team.scatter(jobs, &mut slots);
        // Every job has run and dropped its snapshot clone; the state
        // is exclusively ours again.
        let snap = Arc::try_unwrap(snap)
            .unwrap_or_else(|_| unreachable!("scatter jobs dropped their snapshots"));
        self.inst = snap.inst;
        self.matrix = snap.matrix;
        self.target_of_zone = snap.targets;
        self.unserved_of_zone = snap.unserved;
        // Serial merge, worker-index order: install the zone orders and
        // index the proposals for the repair passes (the maps are only
        // ever *looked up* by the live sweeps below, so their iteration
        // order never influences a decision).
        let mut prefixes = std::mem::take(&mut self.scratch.prefixes);
        let mut plans = std::mem::take(&mut self.scratch.plans);
        prefixes.clear();
        plans.clear();
        for (w, slot) in slots.iter_mut().enumerate() {
            let (mut proposal, ns) = slot.take().expect("scatter filled every slot");
            self.stats.shards[w].propose.record_ns(ns);
            for (z, row, rho, prefix) in proposal.zones.drain(..) {
                self.matrix.commit_zone_order(z, &row, rho);
                rows_pool.push(row);
                prefixes.insert(z, prefix);
            }
            for (c, plan) in proposal.contacts.drain(..) {
                plans.insert(c, plan);
            }
            zones_of[w] = std::mem::take(&mut proposal.zone_list);
            clients_of[w] = std::mem::take(&mut proposal.client_list);
            rows_pool.append(&mut proposal.row_stash);
            ranked_pool.append(&mut proposal.ranked_stash);
            shells.push(proposal);
        }
        let (migrated, full_repair) = self.repair_targets(touched, Some(&prefixes));
        if !full_repair {
            self.repair_contacts(touched, &migrated, redecide, Some(&plans));
        }
        // Drain the proposal indices back into the buffer pools and
        // restore everything for the next flush.
        rows_pool.extend(prefixes.drain().map(|(_, prefix)| prefix));
        ranked_pool.extend(plans.drain().map(|(_, plan)| plan.ranked));
        self.scratch.zones_of = zones_of;
        self.scratch.clients_of = clients_of;
        self.scratch.need = need;
        self.scratch.rows = rows_pool;
        self.scratch.ranked = ranked_pool;
        self.scratch.shells = shells;
        self.scratch.slots = slots;
        self.scratch.prefixes = prefixes;
        self.scratch.plans = plans;
        (migrated, full_repair)
    }

    /// Total load of server `s`: hosted zones plus forwarding overheads.
    #[inline]
    fn load(&self, s: usize) -> f64 {
        self.zone_load[s] + self.forward_load[s]
    }

    /// Largest spare capacity on any server right now. A demand above
    /// this fits nowhere, which lets the repair sweep skip whole zones
    /// without probing every server (recomputed after any migration,
    /// since moving a zone frees its old host).
    fn max_headroom(&self) -> f64 {
        (0..self.inst.num_servers())
            .map(|s| self.inst.capacity(s) - self.load(s))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The admission check: a join into `zone` passes while the zone's
    /// target server is at most `(1 - headroom) x capacity` booked.
    /// Reads only committed load books (as of the last flush), so the
    /// decision is deterministic and thread-count-invariant. Open
    /// admission always passes.
    fn admit_join(&self, zone: usize) -> bool {
        let policy = self.config.degradation;
        if matches!(policy.admission, AdmissionPolicy::Open) {
            return true;
        }
        let target = self.target_of_zone[zone];
        self.load(target) <= (1.0 - policy.headroom) * self.inst.capacity(target) + 1e-9
    }

    /// Retries deferred joins in FIFO order, stopping at the first one
    /// still blocked (preserving queue order); re-admitted joins keep
    /// their original arrival stamp, so the latency histogram measures
    /// arrival-to-commit across the deferral.
    fn readmit_deferred(&mut self) {
        while let Some(d) = self.deferred.first().copied() {
            if !self.admit_join(d.zone) {
                break;
            }
            self.deferred.remove(0);
            self.pending_joins.insert(d.id);
            self.pending.push(Pending::Join {
                node: d.node,
                zone: d.zone,
                id: d.id,
                at: d.at,
            });
        }
    }

    /// Fails server `server` through the live stream path: flushes
    /// pending work, retires the server's capacity to zero (so every
    /// downstream fit check excludes it with no special cases), then
    /// runs the **mass evacuation** — every hosted zone leaves,
    /// largest-demand first, to the cheapest `C^I` survivor with room,
    /// or (degraded mode) to the survivor with the most headroom when
    /// none fits: a deliberately overloaded survivor beats a dead host.
    /// Every relay still routed through the server is then shed
    /// (counted in [`ServeStats::shed_events`]).
    ///
    /// Never escalates to a full repair and never panics: if no
    /// survivor exists at all, hosted zones stay pinned to the dead
    /// server and the engine simply reports infeasible. Idempotent on
    /// an already-down server.
    pub fn fail_server(&mut self, server: usize) -> Result<FailoverReport, ServeError> {
        let m = self.inst.num_servers();
        if server >= m {
            return Err(ServeError::UnknownServer { server, servers: m });
        }
        self.flush_now();
        if self.down[server] {
            return Ok(FailoverReport {
                server,
                zones_evacuated: 0,
                relays_shed: 0,
                feasible: self.capacity_ok,
            });
        }
        self.down[server] = true;
        self.inst.set_capacity(server, 0.0);
        self.stats.failovers += 1;

        let mut zones = std::mem::take(&mut self.scratch.evac_zones);
        zones.clear();
        zones.extend_from_slice(&self.zones_of_server[server]);
        zones.sort_by(|&a, &b| {
            self.inst
                .zone_bps(b)
                .partial_cmp(&self.inst.zone_bps(a))
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut evacuated = 0usize;
        for &z in &zones {
            if let Some(dest) = self.evacuation_dest(server, z) {
                self.migrate_zone(z, dest);
                evacuated += 1;
            }
        }
        self.scratch.evac_zones = zones;
        // Relays from zones hosted elsewhere may still route through
        // the dead server; shed them all (each re-decision shrinks the
        // list — capacity 0 keeps re-picking it impossible).
        let mut shed = 0usize;
        while let Some(&c) = self.relayed_of_server[server].last() {
            self.decide_contact(c);
            shed += 1;
        }
        self.stats.zones_migrated += evacuated as u64;
        self.stats.shed_events += shed as u64;
        self.capacity_ok = (0..m).all(|s| self.load(s) <= self.inst.capacity(s) + 1e-9);
        Ok(FailoverReport {
            server,
            zones_evacuated: evacuated,
            relays_shed: shed,
            feasible: self.capacity_ok,
        })
    }

    /// Where zone `z` evacuates to when `from` fails: the cheapest
    /// `C^I` survivor with room, else the survivor with the most
    /// capacity headroom (ties: lowest index — deterministic). `None`
    /// only when every other server is down too.
    fn evacuation_dest(&self, from: usize, z: usize) -> Option<usize> {
        let m = self.inst.num_servers();
        let demand = self.inst.zone_bps(z);
        let fit = (0..m)
            .filter(|&d| {
                d != from && !self.down[d] && self.load(d) + demand <= self.inst.capacity(d) + 1e-9
            })
            .min_by(|&a, &b| {
                self.matrix
                    .cost(a, z)
                    .partial_cmp(&self.matrix.cost(b, z))
                    .expect("finite")
            });
        if fit.is_some() {
            return fit;
        }
        let mut best: Option<(f64, usize)> = None;
        for d in 0..m {
            if d == from || self.down[d] {
                continue;
            }
            let headroom = self.inst.capacity(d) - self.load(d);
            if best.is_none_or(|(h, _)| headroom > h) {
                best = Some((headroom, d));
            }
        }
        best.map(|(_, d)| d)
    }

    /// Recovers server `server`: flushes pending work, restores the
    /// nominal capacity, and runs the **re-admission sweep** — the same
    /// zone-scoped repair the flush path uses, over every zone: quality
    /// shifts pull zones onto the recovered capacity where that wins,
    /// and the evacuation loop drains any survivor still overloaded
    /// from the degraded window. Deterministic, and never escalates to
    /// the full-repair fallback (the sweep either restores feasibility
    /// locally or the engine was already infeasible before the flush,
    /// which disarms the escalation guard). Idempotent on an up server.
    pub fn restore_server(&mut self, server: usize) -> Result<RestoreReport, ServeError> {
        let m = self.inst.num_servers();
        if server >= m {
            return Err(ServeError::UnknownServer { server, servers: m });
        }
        self.flush_now();
        if !self.down[server] {
            return Ok(RestoreReport {
                server,
                zones_migrated: 0,
                feasible: self.capacity_ok,
            });
        }
        self.down[server] = false;
        self.inst
            .set_capacity(server, self.nominal_capacity[server]);
        self.stats.recoveries += 1;
        // Zones still pinned to a dead host (stranded by a window with
        // no survivors) force-move onto live capacity first — same
        // forced-placement rule as the failover evacuation.
        let mut rescued = 0usize;
        for z in 0..self.inst.num_zones() {
            let pinned = self.target_of_zone[z];
            if self.down[pinned] {
                if let Some(dest) = self.evacuation_dest(pinned, z) {
                    self.migrate_zone(z, dest);
                    rescued += 1;
                }
            }
        }
        let mut all = std::mem::take(&mut self.scratch.touched);
        all.clear();
        all.extend(0..self.inst.num_zones());
        let (migrated, full) = self.repair_targets(&all, None);
        debug_assert!(!full, "restore sweep never escalates to full repair");
        if !full {
            self.repair_contacts(&all, &migrated, &[], None);
        }
        self.scratch.touched = all;
        let moved = rescued + migrated.len();
        self.scratch.migrated = migrated;
        self.stats.zones_migrated += moved as u64;
        self.capacity_ok = (0..m).all(|s| self.load(s) <= self.inst.capacity(s) + 1e-9);
        Ok(RestoreReport {
            server,
            zones_migrated: moved,
            feasible: self.capacity_ok,
        })
    }

    /// Whether `server` is currently failed.
    pub fn is_server_down(&self, server: usize) -> bool {
        self.down[server]
    }

    /// Currently failed servers, ascending.
    pub fn down_servers(&self) -> Vec<usize> {
        (0..self.inst.num_servers())
            .filter(|&s| self.down[s])
            .collect()
    }

    /// The nominal (boot-time) capacity of `server` — what
    /// [`ServeEngine::restore_server`] restores.
    pub fn nominal_capacity(&self, server: usize) -> f64 {
        self.nominal_capacity[server]
    }

    /// Joins accepted by [`AdmissionPolicy::Queue`] and still deferred.
    pub fn deferred_joins(&self) -> usize {
        self.deferred.len()
    }

    fn apply_leave(&mut self, id: ClientId, touched: &mut Vec<usize>) {
        let c = self.index_of_id.remove(&id).expect("validated at push");
        let zone = self.inst.zone_of(c);
        self.matrix.retire_client(&self.inst, c, zone);
        self.clear_unserved(zone, c);
        self.unrelay(c);
        self.forward_load[self.contact_of_client[c]] -= self.fwd_contrib[c];
        let before = self.inst.zone_bps(zone);
        let departure = self.inst.stream_leave(c, &self.model);
        if let Some(last) = departure.relocated {
            self.contact_of_client[c] = self.contact_of_client[last];
            self.fwd_contrib[c] = self.fwd_contrib[last];
            let moved_id = self.id_of_client[last];
            self.id_of_client[c] = moved_id;
            self.index_of_id.insert(moved_id, c);
            self.relay_pos_server[c] = self.relay_pos_server[last];
            self.relay_pos_zone[c] = self.relay_pos_zone[last];
            if self.fwd_contrib[c] > 0.0 {
                // The relocated client keeps its relay; re-key its shed
                // list and zone relay list entries from its old index to
                // its new one.
                let contact = self.contact_of_client[c];
                let pos = self.relay_pos_server[c];
                self.relayed_of_server[contact][pos] = c;
                let z = self.inst.zone_of(c);
                let pos = self.relay_pos_zone[c];
                self.relayed_of_zone[z][pos] = c;
            }
            let pos = self.unserved_pos[last];
            self.unserved_pos[c] = pos;
            if pos != usize::MAX {
                let z = self.inst.zone_of(c);
                self.unserved_of_zone[z][pos] = c;
            }
        }
        let k = self.inst.num_clients();
        self.contact_of_client.truncate(k);
        self.fwd_contrib.truncate(k);
        self.id_of_client.truncate(k);
        self.unserved_pos.truncate(k);
        self.relay_pos_server.truncate(k);
        self.relay_pos_zone.truncate(k);
        self.zone_load[self.target_of_zone[zone]] += self.inst.zone_bps(zone) - before;
        self.refresh_zone_forwarding(zone);
        touched.push(zone);
    }

    fn apply_join(&mut self, node: usize, zone: usize, id: ClientId, touched: &mut Vec<usize>) {
        let before = self.inst.zone_bps(zone);
        let idx = self.inst.stream_join(
            node,
            zone,
            &self.delays,
            &self.model,
            self.error,
            &mut self.rng,
        );
        self.matrix.admit_client(&self.inst, idx, zone);
        let target = self.target_of_zone[zone];
        self.contact_of_client.push(target);
        self.fwd_contrib.push(0.0);
        self.id_of_client.push(id);
        self.index_of_id.insert(id, idx);
        self.unserved_pos.push(usize::MAX);
        self.relay_pos_server.push(usize::MAX);
        self.relay_pos_zone.push(usize::MAX);
        if self.inst.obs_cs(idx, target) > self.inst.delay_bound() {
            self.mark_unserved(zone, idx);
        }
        self.zone_load[target] += self.inst.zone_bps(zone) - before;
        self.refresh_zone_forwarding(zone);
        touched.push(zone);
    }

    /// Returns whether the move was effective (destination != current).
    fn apply_move(&mut self, id: ClientId, zone: usize, touched: &mut Vec<usize>) -> bool {
        let c = *self.index_of_id.get(&id).expect("validated at push");
        let from = self.inst.zone_of(c);
        if from == zone {
            return false;
        }
        self.matrix.retire_client(&self.inst, c, from);
        self.clear_unserved(from, c);
        if self.fwd_contrib[c] > 0.0 {
            // The mover's relay travels with it: relocate its zone relay
            // list entry so the refreshes below see it in the new zone.
            let pos = self.relay_pos_zone[c];
            self.relayed_of_zone[from].swap_remove(pos);
            if let Some(&moved) = self.relayed_of_zone[from].get(pos) {
                self.relay_pos_zone[moved] = pos;
            }
            self.relay_pos_zone[c] = self.relayed_of_zone[zone].len();
            self.relayed_of_zone[zone].push(c);
        }
        let before_from = self.inst.zone_bps(from);
        let before_to = self.inst.zone_bps(zone);
        self.inst.stream_move(c, zone, &self.model);
        self.matrix.admit_client(&self.inst, c, zone);
        self.zone_load[self.target_of_zone[from]] += self.inst.zone_bps(from) - before_from;
        self.zone_load[self.target_of_zone[zone]] += self.inst.zone_bps(zone) - before_to;
        // The mover keeps its contact session (GreC-style forwarding);
        // the zone refreshes below re-book its overhead against the new
        // target and the contact repair re-decides it.
        self.refresh_zone_forwarding(from);
        self.refresh_zone_forwarding(zone);
        // A direct mover whose kept contact differs from the new zone's
        // target has just *become* relayed — the one transition the relay
        // lists cannot see coming; book it explicitly.
        let contact = self.contact_of_client[c];
        let target = self.target_of_zone[zone];
        if self.fwd_contrib[c] == 0.0 && contact != target {
            let overhead = self.inst.client_forwarding_bps(c);
            self.forward_load[contact] += overhead;
            self.fwd_contrib[c] = overhead;
            self.relay_pos_server[c] = self.relayed_of_server[contact].len();
            self.relayed_of_server[contact].push(c);
            self.relay_pos_zone[c] = self.relayed_of_zone[zone].len();
            self.relayed_of_zone[zone].push(c);
        } else if contact == target && self.inst.obs_cs(c, target) > self.inst.delay_bound() {
            // On its new target but beyond the bound: eligible for the
            // violator rescan until a relay is found.
            self.mark_unserved(zone, c);
        }
        touched.push(from);
        touched.push(zone);
        true
    }

    /// Re-books the forwarding contribution of every **relayed** member
    /// of `z` against the zone's current target and
    /// population-dependent overhead (`R^C_c` changes whenever the zone
    /// population does), keeping the per-server shed lists in step.
    ///
    /// Only already-relayed members are visited — O(relays in `z`), not
    /// O(members): a direct member (`fwd_contrib == 0`) sits on its
    /// zone's target by invariant and stays direct under a population
    /// change. The one direct→relayed transition a zone event can cause
    /// — a mover whose kept contact differs from its new zone's target —
    /// is booked explicitly by [`ServeEngine::apply_move`]; target
    /// migrations re-decide every member inline.
    fn refresh_zone_forwarding(&mut self, z: usize) {
        let target = self.target_of_zone[z];
        let mut i = 0;
        while i < self.relayed_of_zone[z].len() {
            let c = self.relayed_of_zone[z][i];
            let contact = self.contact_of_client[c];
            let desired = if contact != target {
                self.inst.client_forwarding_bps(c)
            } else {
                0.0
            };
            let booked = self.fwd_contrib[c];
            if desired != booked {
                self.forward_load[contact] += desired - booked;
                if desired == 0.0 {
                    // unrelay swap-removes entry `i`; revisit the slot.
                    self.unrelay(c);
                    self.fwd_contrib[c] = 0.0;
                    continue;
                }
                self.fwd_contrib[c] = desired;
            }
            i += 1;
        }
    }

    /// The zone-scoped target repair: quality shifts over touched zones,
    /// then scoped evacuation of any server pushed over capacity.
    /// Returns the migrated zones and whether it escalated to the full
    /// repair.
    ///
    /// `prefixes` (concurrent flushes only) maps a touched zone to the
    /// worker-proposed candidate prefix of its refreshed order — the
    /// servers before the `count >= cur_count` break. When present the
    /// quality shift walks the prefix instead of re-deriving it; the
    /// capacity fits (and everything downstream — evacuation,
    /// escalation) stay live, so the decisions are identical.
    fn repair_targets(
        &mut self,
        touched: &[usize],
        prefixes: Option<&HashMap<usize, Vec<u32>>>,
    ) -> (Vec<usize>, bool) {
        let m = self.inst.num_servers();
        // The accumulator recycles through the scratch pool; callers
        // restore it (`self.scratch.migrated = migrated`) once the
        // returned list has been consumed.
        let mut migrated = std::mem::take(&mut self.scratch.migrated);
        migrated.clear();

        // Quality shifts (the same rule as `repair_assignment_with`'s
        // improvement sweep, restricted to touched columns). Two exact
        // prunes keep the sweep O(1) per settled zone where the naive
        // form pays O(m) for every touched zone:
        // * a zone whose demand exceeds the best headroom on any server
        //   cannot fit anywhere, so no scan can move it (the saturated
        //   regime, where every server a flash crowd filled would be
        //   probed and rejected);
        // * otherwise, walking the matrix's (cost, index)-sorted order —
        //   refreshed for exactly these zones just before this runs —
        //   picks the same server a full scan's `min_by` over fitting
        //   servers would, and a zone already on its cheapest server
        //   exits at the first entry (the quiet regime).
        let mut headroom = self.max_headroom();
        for &z in touched {
            let cur = self.target_of_zone[z];
            let cur_count = self.matrix.count(cur, z);
            if cur_count == 0 {
                continue;
            }
            let demand = self.inst.zone_bps(z);
            if demand > headroom + 1e-9 {
                continue;
            }
            match prefixes.and_then(|p| p.get(&z)) {
                Some(prefix) => {
                    for &s in prefix {
                        let s = s as usize;
                        if self.load(s) + demand <= self.inst.capacity(s) + 1e-9 {
                            self.migrate_zone(z, s);
                            migrated.push(z);
                            headroom = self.max_headroom();
                            break;
                        }
                    }
                }
                None => {
                    for i in 0..m {
                        let s = self.matrix.order(z)[i] as usize;
                        if self.matrix.count(s, z) >= cur_count {
                            break;
                        }
                        if self.load(s) + demand <= self.inst.capacity(s) + 1e-9 {
                            self.migrate_zone(z, s);
                            migrated.push(z);
                            headroom = self.max_headroom();
                            break;
                        }
                    }
                }
            }
        }

        // Scoped capacity restoration: a flush can only add load via
        // touched-zone growth or forwarding growth, so overloads are
        // rare and local; evacuate them largest-zone-first.
        let mut restored = true;
        for s in 0..m {
            if self.load(s) > self.inst.capacity(s) + 1e-9 && !self.evacuate(s, &mut migrated) {
                restored = false;
            }
        }
        if !restored && self.capacity_ok && !self.down.iter().any(|&d| d) {
            // The engine was feasible and a local evacuation cannot keep
            // it so: escalate to the global zone-level repair. Only the
            // zone→server map is recomputed (O(zones × servers)); each
            // changed target is then applied through `migrate_zone`, so
            // contact re-decisions stay scoped to the members of zones
            // that actually moved — where a full `repair_assignment_with`
            // would re-run GreC over the entire population inside one
            // latency-accounted flush. The fast path's own migrations
            // already sit in `migrated`; the escalation's go on top so
            // the counters cover everything this flush moved. With any
            // server down the escalation stays disarmed: a global
            // repair cannot conjure the missing capacity, and degraded
            // mode promises bounded (zone-scoped) work per flush.
            let plan = repair_targets_with(&self.inst, &self.matrix, &self.target_of_zone);
            for (z, &dest) in plan.iter().enumerate() {
                if dest != self.target_of_zone[z] {
                    self.migrate_zone(z, dest);
                    migrated.push(z);
                }
            }
            self.stats.full_repairs += 1;
            migrated.sort_unstable();
            migrated.dedup();
            return (migrated, true);
        }
        migrated.sort_unstable();
        migrated.dedup();
        (migrated, false)
    }

    /// Moves zone `z` to server `s` and re-decides every member's
    /// contact immediately: a migration invalidates the members' contact
    /// choices (a direct client's old contact becomes a forwarding relay
    /// against the new target), and leaving the stale choices booked
    /// would show the repair loop a transient overload that is not real.
    fn migrate_zone(&mut self, z: usize, s: usize) {
        let demand = self.inst.zone_bps(z);
        let old = self.target_of_zone[z];
        self.zone_load[old] -= demand;
        self.zone_load[s] += demand;
        self.target_of_zone[z] = s;
        let pos = self.zones_of_server[old]
            .iter()
            .position(|&x| x == z)
            .expect("hosted-zone book is consistent");
        self.zones_of_server[old].swap_remove(pos);
        self.zones_of_server[s].push(z);
        for i in 0..self.inst.clients_in_zone(z).len() {
            let c = self.inst.clients_in_zone(z)[i];
            self.decide_contact(c);
        }
    }

    /// Evacuates overloaded server `s`: first sheds relayed clients
    /// (re-deciding their contacts; the capacity fit steers them off `s`
    /// while it is over — the local counterpart of what the full GreC
    /// pass does globally), then migrates hosted zones largest-first to
    /// the best `C^I` destination with room (the same rule as
    /// `repair_assignment_with`'s step 1, for one server). Returns
    /// whether `s` ended within capacity.
    fn evacuate(&mut self, s: usize, migrated: &mut Vec<usize>) -> bool {
        let m = self.inst.num_servers();
        // Restricting each shed re-decision to servers with *any*
        // headroom right now is exact: a relay fit needs
        // `load + overhead <= capacity` with `overhead > 0`, so a server
        // already at or over capacity can never win, and during this
        // loop every other server's load only grows (a shed client
        // re-relays elsewhere or goes unserved) while `s` itself stays
        // over capacity for as long as the loop runs — the fit check
        // inside `decide_contact_among` remains authoritative. Under a
        // flash crowd almost every server is saturated, so this turns
        // thousands of full-width scans into a handful of probes.
        let mut room = std::mem::take(&mut self.scratch.room);
        room.clear();
        room.extend((0..m).filter(|&d| d != s && self.load(d) < self.inst.capacity(d) + 1e-9));
        while self.load(s) > self.inst.capacity(s) + 1e-9 {
            let Some(&c) = self.relayed_of_server[s].last() else {
                break;
            };
            // Either the client relays elsewhere / returns to its target
            // (the list shrinks), or it re-picks `s` — which the fit
            // check only allows once `s` is back within capacity, ending
            // the loop either way.
            self.decide_contact_among(c, Some(&room));
        }
        self.scratch.room = room;
        // The hosted-zone book plus a (demand desc, zone asc) sort is
        // exactly the order the old full-table scan produced (ascending
        // zone indices through a stable sort on demand).
        let mut zones = std::mem::take(&mut self.scratch.evac_zones);
        zones.clear();
        zones.extend_from_slice(&self.zones_of_server[s]);
        zones.sort_by(|&a, &b| {
            self.inst
                .zone_bps(b)
                .partial_cmp(&self.inst.zone_bps(a))
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut headroom = self.max_headroom();
        for &z in &zones {
            if self.load(s) <= self.inst.capacity(s) + 1e-9 {
                break;
            }
            let demand = self.inst.zone_bps(z);
            // No server can take this zone: the scan below could only
            // fail, so skip it (exact — the fit bound is the same).
            if demand > headroom + 1e-9 {
                continue;
            }
            let dest = (0..m)
                .filter(|&d| d != s && self.load(d) + demand <= self.inst.capacity(d) + 1e-9)
                .min_by(|&a, &b| {
                    self.matrix
                        .cost(a, z)
                        .partial_cmp(&self.matrix.cost(b, z))
                        .expect("finite")
                });
            if let Some(dest) = dest {
                self.migrate_zone(z, dest);
                migrated.push(z);
                headroom = self.max_headroom();
            }
        }
        self.scratch.evac_zones = zones;
        self.load(s) <= self.inst.capacity(s) + 1e-9
    }

    /// Contact re-decisions for the clients a flush may have affected
    /// beyond the migrated zones (whose members [`ServeEngine::migrate_zone`]
    /// already re-decided inline): joiners and movers, then the
    /// zone-scoped violator rescan of the touched zones (violating
    /// members still on their target get a relay retry).
    ///
    /// `plans` (concurrent flushes only) carries worker-proposed ranked
    /// relay candidates per client. A plan is consumed only while its
    /// planned target is still the client's zone target — a zone the
    /// serial repair migrated re-decided its members inline and any
    /// stale plan for them is skipped by that guard (and by the live
    /// unserved lists, which no longer hold rescued members). Clients
    /// without a valid plan take the live scan; both routes are
    /// bit-identical (see [`ServeEngine::decide_contact_planned`]).
    fn repair_contacts(
        &mut self,
        touched: &[usize],
        migrated: &[usize],
        redecide: &[ClientId],
        plans: Option<&HashMap<usize, ContactPlan>>,
    ) {
        for &id in redecide {
            // A joiner/mover may have left later in the same batch.
            if let Some(&c) = self.index_of_id.get(&id) {
                match plans.and_then(|p| p.get(&c)) {
                    Some(plan) if self.target_of_zone[self.inst.zone_of(c)] == plan.target => {
                        self.decide_contact_planned(c, plan.target, &plan.ranked);
                    }
                    _ => self.decide_contact(c),
                }
            }
        }
        // Zone-scoped violator rescan: unserved violators in zones whose
        // columns this batch touched (their zone-mates changed the
        // forwarding economics, or they were never rescued) retry a
        // relay. Members of migrated zones were already fully re-decided.
        //
        // The relay overhead `R^C` is uniform across a zone's members,
        // so which servers could host a relay at all is a per-zone
        // question — answered once up front. An empty candidate set
        // means no violator in the zone can be rescued this flush and
        // the whole sweep is skipped, which is what keeps a saturated
        // flash crowd (thousands of unrescuable violators in one zone,
        // touched by every batch) from costing O(violators × servers)
        // per flush. Loads only grow while the sweep books relays, so
        // the precomputed set over-approximates exactly the servers the
        // full per-member scan could ever pick; the fit check inside
        // `decide_contact_among` stays authoritative.
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        for &z in touched {
            if migrated.contains(&z) || self.unserved_of_zone[z].is_empty() {
                continue;
            }
            self.relay_candidates_into(z, &mut candidates);
            if candidates.is_empty() {
                continue;
            }
            // A rescued entry is swap-removed from under the cursor
            // (revisit the slot); an unrescued one stays put (advance).
            // Violators the serial repair itself newly marked (an
            // evacuation shed that found no relay) have no plan and
            // take the live restricted scan — identical decisions.
            let mut i = 0;
            while i < self.unserved_of_zone[z].len() {
                let c = self.unserved_of_zone[z][i];
                match plans.and_then(|p| p.get(&c)) {
                    Some(plan) if self.target_of_zone[z] == plan.target => {
                        self.decide_contact_planned(c, plan.target, &plan.ranked);
                    }
                    _ => self.decide_contact_among(c, Some(&candidates)),
                }
                if self.unserved_pos[c] == i {
                    i += 1;
                }
            }
        }
        self.scratch.candidates = candidates;
    }

    /// GreC's per-client rule: stay on the target when within bound,
    /// otherwise route through the contact minimising `C^R` among
    /// servers with forwarding capacity (ties: lowest index; the target
    /// itself always fits at zero overhead).
    fn decide_contact(&mut self, c: usize) {
        self.decide_contact_among(c, None);
    }

    /// [`ServeEngine::decide_contact`] with the relay scan restricted to
    /// `candidates` (`None` scans every server). Callers sweeping a whole
    /// zone fill one via [`ServeEngine::relay_candidates_into`] so the scan
    /// skips servers that cannot fit the zone's uniform overhead; the fit
    /// check here remains authoritative against loads the sweep itself
    /// booked in the meantime.
    fn decide_contact_among(&mut self, c: usize, candidates: Option<&[usize]>) {
        let z = self.inst.zone_of(c);
        let target = self.target_of_zone[z];
        // Take the current relay (if any) off the books first.
        self.unrelay(c);
        let current = self.contact_of_client[c];
        self.forward_load[current] -= self.fwd_contrib[c];
        self.fwd_contrib[c] = 0.0;
        self.contact_of_client[c] = target;
        if self.inst.obs_cs(c, target) <= self.inst.delay_bound() {
            self.clear_unserved(z, c);
            return;
        }
        let overhead = self.inst.client_forwarding_bps(c);
        let mut best = (self.inst.rap_cost(c, target, target), target);
        let fits = |engine: &Self, s: usize| {
            s != target && engine.load(s) + overhead <= engine.inst.capacity(s) + 1e-9
        };
        match candidates {
            Some(list) => {
                for &s in list {
                    if !fits(self, s) {
                        continue;
                    }
                    let cost = self.inst.rap_cost(c, s, target);
                    if cost < best.0 {
                        best = (cost, s);
                    }
                }
            }
            None => {
                for s in 0..self.inst.num_servers() {
                    if !fits(self, s) {
                        continue;
                    }
                    let cost = self.inst.rap_cost(c, s, target);
                    if cost < best.0 {
                        best = (cost, s);
                    }
                }
            }
        }
        if best.1 != target {
            self.contact_of_client[c] = best.1;
            self.fwd_contrib[c] = overhead;
            self.forward_load[best.1] += overhead;
            self.relay_pos_server[c] = self.relayed_of_server[best.1].len();
            self.relayed_of_server[best.1].push(c);
            self.relay_pos_zone[c] = self.relayed_of_zone[z].len();
            self.relayed_of_zone[z].push(c);
            self.clear_unserved(z, c);
        } else {
            self.mark_unserved(z, c);
        }
    }

    /// [`ServeEngine::decide_contact`] consuming a worker-proposed
    /// [`ContactPlan`] instead of scanning every server. The ranked
    /// list holds every candidate with relay cost strictly below
    /// staying on `target`, `(cost, index)`-ascending; the first entry
    /// that passes the **live** capacity fit is precisely the server
    /// the live scan's strict-`<` minimum would keep (a fitting entry
    /// earlier in the list would have beaten it there too, and the
    /// unlisted servers cannot win at all). Prologue and booking are
    /// identical to [`ServeEngine::decide_contact_among`], so the two
    /// routes leave bit-identical state.
    ///
    /// The caller guards that `target` is still the zone's live target;
    /// costs are pure functions of the instance's delay rows, which no
    /// repair step mutates, so the plan's floats equal what a live
    /// recomputation would produce.
    fn decide_contact_planned(&mut self, c: usize, target: usize, ranked: &[(f64, usize)]) {
        let z = self.inst.zone_of(c);
        debug_assert_eq!(self.target_of_zone[z], target, "caller guards the plan");
        self.unrelay(c);
        let current = self.contact_of_client[c];
        self.forward_load[current] -= self.fwd_contrib[c];
        self.fwd_contrib[c] = 0.0;
        self.contact_of_client[c] = target;
        if self.inst.obs_cs(c, target) <= self.inst.delay_bound() {
            self.clear_unserved(z, c);
            return;
        }
        let overhead = self.inst.client_forwarding_bps(c);
        let mut winner = None;
        for &(_, s) in ranked {
            if s != target && self.load(s) + overhead <= self.inst.capacity(s) + 1e-9 {
                winner = Some(s);
                break;
            }
        }
        if let Some(s) = winner {
            self.contact_of_client[c] = s;
            self.fwd_contrib[c] = overhead;
            self.forward_load[s] += overhead;
            self.relay_pos_server[c] = self.relayed_of_server[s].len();
            self.relayed_of_server[s].push(c);
            self.relay_pos_zone[c] = self.relayed_of_zone[z].len();
            self.relayed_of_zone[z].push(c);
            self.clear_unserved(z, c);
        } else {
            self.mark_unserved(z, c);
        }
    }

    /// Servers that currently have room for one relay out of zone `z`
    /// (the overhead `R^C` is uniform across a zone's members, so this
    /// is a per-zone question), written into the caller-owned `out`
    /// buffer (cleared first) so the rescan recycles one list across
    /// zones and flushes. Ascending order, so a scan restricted to the
    /// list breaks ties exactly as the full scan does.
    fn relay_candidates_into(&self, z: usize, out: &mut Vec<usize>) {
        out.clear();
        let Some(&member) = self.inst.clients_in_zone(z).first() else {
            return;
        };
        let overhead = self.inst.client_forwarding_bps(member);
        out.extend(
            (0..self.inst.num_servers())
                .filter(|&s| self.load(s) + overhead <= self.inst.capacity(s) + 1e-9),
        );
    }

    /// Adds `c` to zone `z`'s unserved list (no-op when already listed).
    /// `z` must be `c`'s current zone.
    fn mark_unserved(&mut self, z: usize, c: usize) {
        if self.unserved_pos[c] == usize::MAX {
            self.unserved_pos[c] = self.unserved_of_zone[z].len();
            self.unserved_of_zone[z].push(c);
        }
    }

    /// Removes `c` from zone `z`'s unserved list (no-op when not
    /// listed). `z` must be the zone whose list holds `c`.
    fn clear_unserved(&mut self, z: usize, c: usize) {
        let pos = self.unserved_pos[c];
        if pos != usize::MAX {
            self.unserved_pos[c] = usize::MAX;
            self.unserved_of_zone[z].swap_remove(pos);
            if let Some(&moved) = self.unserved_of_zone[z].get(pos) {
                self.unserved_pos[moved] = pos;
            }
        }
    }

    /// Removes `c` from its contact's shed list and its zone's relay
    /// list when it is relayed.
    fn unrelay(&mut self, c: usize) {
        if self.fwd_contrib[c] > 0.0 {
            let contact = self.contact_of_client[c];
            let pos = self.relay_pos_server[c];
            self.relayed_of_server[contact].swap_remove(pos);
            if let Some(&moved) = self.relayed_of_server[contact].get(pos) {
                self.relay_pos_server[moved] = pos;
            }
            self.relay_pos_server[c] = usize::MAX;
            let z = self.inst.zone_of(c);
            let pos = self.relay_pos_zone[c];
            self.relayed_of_zone[z].swap_remove(pos);
            if let Some(&moved) = self.relayed_of_zone[z].get(pos) {
                self.relay_pos_zone[moved] = pos;
            }
            self.relay_pos_zone[c] = usize::MAX;
        }
    }

    /// Rebuilds the load books from scratch (engine boot and full-repair
    /// fallback; O(k + n + m)).
    fn rebuild_loads(&mut self) {
        let m = self.inst.num_servers();
        self.zone_load.clear();
        self.zone_load.resize(m, 0.0);
        self.forward_load.clear();
        self.forward_load.resize(m, 0.0);
        self.zones_of_server.clear();
        self.zones_of_server.resize(m, Vec::new());
        for (z, &s) in self.target_of_zone.iter().enumerate() {
            self.zone_load[s] += self.inst.zone_bps(z);
            self.zones_of_server[s].push(z);
        }
        self.fwd_contrib.clear();
        self.fwd_contrib.resize(self.inst.num_clients(), 0.0);
        self.relayed_of_server.clear();
        self.relayed_of_server.resize(m, Vec::new());
        self.relayed_of_zone.clear();
        self.relayed_of_zone
            .resize(self.inst.num_zones(), Vec::new());
        self.unserved_of_zone.clear();
        self.unserved_of_zone
            .resize(self.inst.num_zones(), Vec::new());
        self.unserved_pos.clear();
        self.unserved_pos
            .resize(self.inst.num_clients(), usize::MAX);
        self.relay_pos_server.clear();
        self.relay_pos_server
            .resize(self.inst.num_clients(), usize::MAX);
        self.relay_pos_zone.clear();
        self.relay_pos_zone
            .resize(self.inst.num_clients(), usize::MAX);
        for c in 0..self.inst.num_clients() {
            let contact = self.contact_of_client[c];
            let z = self.inst.zone_of(c);
            let target = self.target_of_zone[z];
            if contact != target {
                let overhead = self.inst.client_forwarding_bps(c);
                self.forward_load[contact] += overhead;
                self.fwd_contrib[c] = overhead;
                self.relay_pos_server[c] = self.relayed_of_server[contact].len();
                self.relayed_of_server[contact].push(c);
                self.relay_pos_zone[c] = self.relayed_of_zone[z].len();
                self.relayed_of_zone[z].push(c);
            } else if self.inst.obs_cs(c, target) > self.inst.delay_bound() {
                self.unserved_pos[c] = self.unserved_of_zone[z].len();
                self.unserved_of_zone[z].push(c);
            }
        }
        self.capacity_ok = (0..m).all(|s| self.load(s) <= self.inst.capacity(s) + 1e-9);
    }
}

/// The seam a harness wraps around a [`ServeEngine`]: the mutating
/// entry points the ingest pull loop ([`IngestStream`](crate::IngestStream),
/// [`run_ingest_stream`](crate::run_ingest_stream)) drives, plus
/// read-only access to the engine underneath. [`ServeEngine`] implements
/// it directly; a measuring harness implements it on a wrapper that
/// times or counts each call and forwards it to the engine, without
/// the pull loop knowing the difference.
///
/// Read-only state goes through [`ServeSink::engine`]; only the
/// mutating entry points below change the engine.
pub trait ServeSink {
    /// The underlying engine, for read-only accessors (stats, metrics,
    /// id tables, feasibility).
    fn engine(&self) -> &ServeEngine;
    /// See [`ServeEngine::push_admitted`].
    fn push_admitted(
        &mut self,
        event: StreamEvent,
        at: Instant,
    ) -> Result<Option<ClientId>, ServeError>;
    /// See [`ServeEngine::push`].
    fn push(&mut self, event: StreamEvent) -> Result<Option<ClientId>, ServeError> {
        self.push_admitted(event, Instant::now())
    }
    /// See [`ServeEngine::tick`].
    fn tick(&mut self) -> Option<FlushReport>;
    /// See [`ServeEngine::flush_now`].
    fn flush_now(&mut self) -> Option<FlushReport>;
    /// See [`ServeEngine::fail_server`].
    fn fail_server(&mut self, server: usize) -> Result<FailoverReport, ServeError>;
    /// See [`ServeEngine::restore_server`].
    fn restore_server(&mut self, server: usize) -> Result<RestoreReport, ServeError>;
    /// See [`ServeEngine::begin_warmup`].
    fn begin_warmup(&mut self);
    /// See [`ServeEngine::end_warmup`].
    fn end_warmup(&mut self);
}

impl ServeSink for ServeEngine {
    fn engine(&self) -> &ServeEngine {
        self
    }
    fn push_admitted(
        &mut self,
        event: StreamEvent,
        at: Instant,
    ) -> Result<Option<ClientId>, ServeError> {
        ServeEngine::push_admitted(self, event, at)
    }
    fn tick(&mut self) -> Option<FlushReport> {
        ServeEngine::tick(self)
    }
    fn flush_now(&mut self) -> Option<FlushReport> {
        ServeEngine::flush_now(self)
    }
    fn fail_server(&mut self, server: usize) -> Result<FailoverReport, ServeError> {
        ServeEngine::fail_server(self, server)
    }
    fn restore_server(&mut self, server: usize) -> Result<RestoreReport, ServeError> {
        ServeEngine::restore_server(self, server)
    }
    fn begin_warmup(&mut self) {
        ServeEngine::begin_warmup(self)
    }
    fn end_warmup(&mut self) {
        ServeEngine::end_warmup(self)
    }
}

/// Per-epoch record of a [`run_stream`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamEpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Live population after the epoch's events.
    pub clients: usize,
    /// pQoS of the engine's assignment at the epoch boundary.
    pub pqos: f64,
    /// Zones migrated during this epoch's flushes.
    pub zones_migrated: u64,
    /// Full-repair fallbacks during this epoch's flushes.
    pub full_repairs: u64,
    /// Micro-batch flushes this epoch.
    pub flushes: u64,
}

/// Result of a [`run_stream`] run: per-epoch quality plus the engine's
/// lifetime counters (per-event latency included).
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// One record per epoch.
    pub records: Vec<StreamEpochRecord>,
    /// Engine counters at the end of the run.
    pub stats: ServeStats,
}

/// Runs the streaming engine on replication `index`: the same dynamics
/// trace as [`run_churn`](crate::run_churn) (identical RNG discipline),
/// decomposed into per-event [`StreamEvent`]s and pushed one at a time
/// under `config`'s micro-batching policy, with a forced flush at each
/// epoch boundary (where quality is sampled).
///
/// Under the perfect error model the engine's carried state is
/// bit-identical (up to the documented index permutation) to the batch
/// carry over the same events; with estimation error the engine samples
/// joiner estimates from its own seeded RNG.
///
/// Returns [`ServeError::Infeasible`] (instead of panicking) when the
/// initial assignment cannot be solved under `policy`.
pub fn run_stream(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    epochs: usize,
    policy: StuckPolicy,
    config: ServeConfig,
) -> Result<StreamReport, ServeError> {
    run_stream_with_warmup(setup, index, batch, 0, epochs, policy, config)
}

/// [`run_stream`] with `warmup_epochs` initial epochs streamed inside a
/// [`ServeEngine::begin_warmup`] window: their events are applied and
/// timed into [`ServeStats::warmup`], but produce no epoch records and
/// never touch the gated steady-state histogram. This is how the latency
/// benches separate cold-start/admission traffic from the serving SLO.
pub fn run_stream_with_warmup(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    warmup_epochs: usize,
    epochs: usize,
    policy: StuckPolicy,
    config: ServeConfig,
) -> Result<StreamReport, ServeError> {
    let rep = build_replication(setup, index);
    let error = ErrorModel::new(setup.error_factor);
    let engine_rng = StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ 0x5e4e);
    let mut engine = ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        error,
        policy,
        config,
        engine_rng,
    )?;
    let node_count = rep.topology.node_count();
    let mut world = rep.world;
    let mut rng = rep.rng;
    let mut ids: Vec<ClientId> = (0..world.clients.len() as ClientId).collect();
    let mut records = Vec::with_capacity(epochs);
    let mut seen = (0u64, 0u64, 0u64); // (migrated, full repairs, flushes)
    if warmup_epochs > 0 {
        engine.begin_warmup();
    }
    for epoch in 0..warmup_epochs + epochs {
        if epoch == warmup_epochs && engine.is_warming_up() {
            engine.end_warmup();
        }
        let outcome = apply_dynamics(&world, batch, node_count, &mut rng);
        let mut join_ids = Vec::with_capacity(outcome.delta.joins.len());
        for event in outcome.to_events() {
            match event {
                WorldEvent::Leave { client } => {
                    engine
                        .push(StreamEvent::Leave { id: ids[client] })
                        .expect("trace events are valid");
                }
                WorldEvent::Move { client, zone } => {
                    engine
                        .push(StreamEvent::Move {
                            id: ids[client],
                            zone,
                        })
                        .expect("trace events are valid");
                }
                WorldEvent::Join { node, zone } => {
                    let id = engine
                        .push(StreamEvent::Join { node, zone })
                        .expect("trace events are valid")
                        .expect("joins are assigned an id");
                    join_ids.push(id);
                }
                WorldEvent::ServerDown { .. } | WorldEvent::ServerUp { .. } => {
                    unreachable!("dynamics traces carry no infrastructure events")
                }
            }
        }
        engine.flush_now();

        // Re-key the trace world's indices to engine ids for next epoch.
        let mut joins = join_ids.into_iter();
        ids = outcome
            .carried_from
            .iter()
            .map(|prov| match prov {
                Some(old) => ids[*old],
                None => joins.next().expect("one id per join"),
            })
            .collect();
        world = outcome.world;

        let stats = engine.stats();
        if epoch >= warmup_epochs {
            records.push(StreamEpochRecord {
                epoch: epoch - warmup_epochs,
                clients: engine.num_clients(),
                pqos: engine.metrics().pqos,
                zones_migrated: stats.zones_migrated - seen.0,
                full_repairs: stats.full_repairs - seen.1,
                flushes: stats.flushes - seen.2,
            });
        }
        seen = (stats.zones_migrated, stats.full_repairs, stats.flushes);
    }
    Ok(StreamReport {
        records,
        stats: engine.stats().clone(),
    })
}

/// Drives a [`ServeEngine`] from a [`MobilityModel`] instead of Table 3
/// batch traces (the avatar-walk workload): each tick draws the model's
/// move events against a mirror world, pushes them as [`StreamEvent`]s,
/// heartbeats the engine, and samples quality at the tick boundary.
///
/// Mobility emits only moves, so engine client indices coincide with the
/// mirror world's and ids never retire. Ticks run inside the steady
/// phase; the caller's `config` controls micro-batching exactly as in
/// [`run_stream`].
pub fn run_mobility_stream(
    setup: &SimSetup,
    index: usize,
    model: &MobilityModel,
    ticks: usize,
    policy: StuckPolicy,
    config: ServeConfig,
) -> Result<StreamReport, ServeError> {
    run_mobility_stream_with(
        setup,
        index,
        model,
        ticks,
        policy,
        config,
        QualityEstimator::Exact,
    )
}

/// [`run_mobility_stream`] with an explicit [`QualityEstimator`] — the
/// form the million-tier mobility runs use, where the per-tick O(k)
/// exact evaluation (and a forced flush per tick) would swamp the
/// serving work. The two behaviors `config` selects:
///
/// * [`InterArrival::AtTick`] — the historical semantics, byte for
///   byte: every tick's moves are pushed at the boundary, the engine is
///   heartbeat once and then **force-flushed**, and quality is sampled
///   from fully applied state.
/// * [`InterArrival::Exponential`] — moves are stamped with in-tick
///   arrival offsets ([`MobilityModel::timed_events`]); an event is
///   delivered only once the wall-clock reaches its arrival time, so a
///   burst longer than the tick spills into later ticks, and there is
///   **no forced flush**: flushing is driven purely by `max_batch` and
///   the `max_staleness` heartbeat — staleness ticks now genuinely
///   model wall-clock deadlines. Anything still buffered flushes once
///   after the final tick.
pub fn run_mobility_stream_with(
    setup: &SimSetup,
    index: usize,
    model: &MobilityModel,
    ticks: usize,
    policy: StuckPolicy,
    config: ServeConfig,
    quality: QualityEstimator,
) -> Result<StreamReport, ServeError> {
    let rep = build_replication(setup, index);
    let error = ErrorModel::new(setup.error_factor);
    let engine_rng = StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ 0x306b);
    let mut engine = ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        error,
        policy,
        config,
        engine_rng,
    )?;

    let mut world = rep.world;
    let mut rng = rep.rng;
    let mut sample_rng = StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ 0x9a11);
    let timed = !matches!(config.arrival, InterArrival::AtTick);
    // Events drawn but not yet delivered (arrival time still in the
    // future), as (absolute arrival tick, mover id, zone). NOT sorted
    // globally: each tick's schedule is increasing, but a burst longer
    // than a tick makes its tail overlap the next tick's head — so
    // delivery drains every *due* entry per tick and orders the drained
    // set by arrival time (stable on ties, preserving draw order).
    let mut backlog: Vec<(f64, ClientId, usize)> = Vec::new();
    let mut records = Vec::with_capacity(ticks);
    let mut seen = (0u64, 0u64, 0u64);
    for tick in 0..ticks {
        if timed {
            for (at, event) in model.timed_events(&world, config.arrival, &mut rng) {
                let WorldEvent::Move { client, zone } = event else {
                    unreachable!("mobility emits only moves");
                };
                // The avatar moves in the virtual world now; only the
                // serving event's *delivery* is delayed.
                let id = engine.id_at(client);
                world.clients[client].zone = zone;
                backlog.push((tick as f64 + at, id, zone));
            }
            let deadline = (tick + 1) as f64;
            let mut due: Vec<(f64, ClientId, usize)> = Vec::new();
            backlog.retain(|&entry| {
                let is_due = entry.0 < deadline;
                if is_due {
                    due.push(entry);
                }
                !is_due
            });
            due.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (_, id, zone) in due {
                engine
                    .push(StreamEvent::Move { id, zone })
                    .expect("mobility events are valid");
            }
        } else {
            for event in model.events(&world, &mut rng) {
                let WorldEvent::Move { client, zone } = event else {
                    unreachable!("mobility emits only moves");
                };
                world.clients[client].zone = zone;
                engine
                    .push(StreamEvent::Move {
                        id: engine.id_at(client),
                        zone,
                    })
                    .expect("mobility events are valid");
            }
        }
        engine.tick();
        if !timed {
            engine.flush_now();
        }

        let stats = engine.stats();
        let pqos = match quality {
            QualityEstimator::Exact => engine.metrics().pqos,
            QualityEstimator::Sampled { sample } => engine.pqos_sampled(sample, &mut sample_rng),
        };
        records.push(StreamEpochRecord {
            epoch: tick,
            clients: engine.num_clients(),
            pqos,
            zones_migrated: stats.zones_migrated - seen.0,
            full_repairs: stats.full_repairs - seen.1,
            flushes: stats.flushes - seen.2,
        });
        seen = (stats.zones_migrated, stats.full_repairs, stats.flushes);
    }
    // Deliver and apply any spill-over (in arrival order) so the
    // report's final state covers every drawn event.
    backlog.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (_, id, zone) in backlog {
        engine
            .push(StreamEvent::Move { id, zone })
            .expect("mobility events are valid");
    }
    engine.flush_now();
    Ok(StreamReport {
        records,
        stats: engine.stats().clone(),
    })
}

/// The batch-equivalence harness: the same per-event stream as
/// [`run_stream`], but coalesced by a [`DeltaBuffer`] at epoch
/// granularity and applied through the *batch* carry
/// (`CapInstance::apply_delta`, two-phase matrix update, carried
/// assignment, full [`repair_assignment_with`](crate::repair_assignment_with))
/// — step for step the [`run_churn`](crate::run_churn) loop. Because
/// the buffer reconstructs each epoch's
/// [`WorldDelta`](dve_world::WorldDelta) bit-identically from the
/// events, every record this returns equals the corresponding
/// [`run_churn`](crate::run_churn) record exactly (modulo wall-clock
/// `update_ms`) — the property the stream equivalence tests pin.
pub fn run_stream_batch_compat(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    epochs: usize,
    policy: StuckPolicy,
) -> Vec<ChurnEpochRecord> {
    // One shared epoch loop with run_churn — only the routing differs,
    // so equivalence failures can only mean the event round-trip
    // diverged, never harness drift.
    let mut buffer: Option<DeltaBuffer> = None;
    crate::runner::run_churn_with(setup, index, batch, epochs, policy, move |world, trace| {
        let buffer = buffer.get_or_insert_with(|| DeltaBuffer::new(world));
        // Stream the epoch's events through the coalescer; the flush
        // reconstructs the batch delta against the same base world.
        for event in trace.to_events() {
            buffer.push(event).expect("trace events fit the base world");
        }
        buffer.flush(world)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_churn;
    use crate::setup::TopologySpec;
    use dve_topology::HierarchicalConfig;
    use dve_world::ScenarioConfig;

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

    fn boot_engine(setup: &SimSetup, config: ServeConfig) -> ServeEngine {
        let rep = build_replication(setup, 0);
        ServeEngine::new(
            rep.instance,
            &rep.world,
            rep.delays,
            ErrorModel::PERFECT,
            StuckPolicy::BestEffort,
            config,
            rep.rng,
        )
        .expect("small instances solve")
    }

    /// The engine's carried books — matrix, load accounting, id maps —
    /// stay consistent with ground truth after every flush.
    fn assert_engine_consistent(engine: &ServeEngine) {
        assert_eq!(
            engine.matrix(),
            &CostMatrix::build(engine.instance()),
            "carried matrix diverged from a fresh build"
        );
        let assignment = engine.assignment();
        let loads = assignment.server_loads(engine.instance());
        for s in 0..engine.instance().num_servers() {
            let booked = engine.zone_load[s] + engine.forward_load[s];
            assert!(
                (booked - loads[s]).abs() < 1e-6,
                "server {s}: booked load {booked} vs ground truth {}",
                loads[s]
            );
        }
        for (c, &id) in engine.id_of_client.iter().enumerate() {
            assert_eq!(engine.index_of(id), Some(c));
        }
        // Relay books: c is on its contact's shed list iff it carries a
        // forwarding contribution, exactly once.
        let mut listed = vec![0usize; engine.num_clients()];
        for (s, list) in engine.relayed_of_server.iter().enumerate() {
            for (pos, &c) in list.iter().enumerate() {
                assert_eq!(engine.contacts()[c], s, "shed list entry on wrong server");
                assert!(engine.fwd_contrib[c] > 0.0, "shed list entry not relayed");
                assert_eq!(
                    engine.relay_pos_server[c], pos,
                    "shed list position out of step"
                );
                listed[c] += 1;
            }
        }
        for c in 0..engine.num_clients() {
            assert_eq!(
                listed[c],
                usize::from(engine.fwd_contrib[c] > 0.0),
                "client {c}: shed list membership out of step"
            );
        }
        // Zone relay book: same relay set, keyed by the client's zone.
        let mut zone_listed = vec![0usize; engine.num_clients()];
        for (z, list) in engine.relayed_of_zone.iter().enumerate() {
            for (pos, &c) in list.iter().enumerate() {
                assert_eq!(
                    engine.instance().zone_of(c),
                    z,
                    "zone relay entry in wrong zone"
                );
                assert!(engine.fwd_contrib[c] > 0.0, "zone relay entry not relayed");
                assert_eq!(
                    engine.relay_pos_zone[c], pos,
                    "zone relay position out of step"
                );
                zone_listed[c] += 1;
            }
        }
        for c in 0..engine.num_clients() {
            assert_eq!(
                zone_listed[c],
                usize::from(engine.fwd_contrib[c] > 0.0),
                "client {c}: zone relay membership out of step"
            );
        }
        // Unserved lists: exactly the on-target violators, with the
        // position index in step.
        let inst = engine.instance();
        for (z, list) in engine.unserved_of_zone.iter().enumerate() {
            let mut expected: Vec<usize> =
                dve_assign::violating_clients_in(inst, &engine.assignment().target_of_zone, &[z])
                    .into_iter()
                    .filter(|&c| engine.contacts()[c] == engine.assignment().target_of_zone[z])
                    .collect();
            let mut got = list.clone();
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "zone {z}: unserved list out of step");
            for (pos, &c) in list.iter().enumerate() {
                assert_eq!(engine.unserved_pos[c], pos, "unserved position out of step");
            }
        }
        for c in 0..engine.num_clients() {
            if engine.unserved_pos[c] != usize::MAX {
                let z = inst.zone_of(c);
                assert_eq!(engine.unserved_of_zone[z][engine.unserved_pos[c]], c);
            }
        }
        // Hosted-zone book: exactly the inverse of the zone→server map.
        let mut hosted = vec![0usize; inst.num_zones()];
        for (s, list) in engine.zones_of_server.iter().enumerate() {
            for &z in list {
                assert_eq!(
                    engine.assignment().target_of_zone[z],
                    s,
                    "hosted-zone entry on wrong server"
                );
                hosted[z] += 1;
            }
        }
        assert!(
            hosted.iter().all(|&n| n == 1),
            "hosted-zone book must cover every zone exactly once"
        );
        assert_eq!(
            engine.index_of_id.len(),
            engine.num_clients(),
            "id map must cover exactly the live population"
        );
        let feasible = assignment
            .validate(engine.instance())
            .iter()
            .all(|v| matches!(v, dve_assign::Violation::OverCapacity { .. }));
        assert!(feasible, "assignment has structural violations");
    }

    #[test]
    fn engine_boots_with_identity_ids() {
        let engine = boot_engine(&small_setup(), ServeConfig::default());
        assert_eq!(engine.num_clients(), 120);
        for c in 0..120 {
            assert_eq!(engine.id_at(c), c as ClientId);
            assert_eq!(engine.index_of(c as ClientId), Some(c));
        }
        assert_eq!(engine.pending_events(), 0);
        assert_engine_consistent(&engine);
    }

    #[test]
    fn push_validates_events() {
        let mut engine = boot_engine(&small_setup(), ServeConfig::default());
        assert_eq!(
            engine.push(StreamEvent::Leave { id: 999 }),
            Err(ServeError::UnknownClient { id: 999 })
        );
        assert_eq!(
            engine.push(StreamEvent::Move { id: 0, zone: 15 }),
            Err(ServeError::ZoneOutOfRange {
                zone: 15,
                zones: 15
            })
        );
        assert_eq!(
            engine.push(StreamEvent::Join { node: 0, zone: 99 }),
            Err(ServeError::ZoneOutOfRange {
                zone: 99,
                zones: 15
            })
        );
        engine.push(StreamEvent::Leave { id: 3 }).unwrap();
        assert_eq!(
            engine.push(StreamEvent::Leave { id: 3 }),
            Err(ServeError::AlreadyLeaving { id: 3 })
        );
        assert_eq!(
            engine.push(StreamEvent::Move { id: 3, zone: 0 }),
            Err(ServeError::AlreadyLeaving { id: 3 })
        );
    }

    /// The engine's latency semantics are per **arrival**: it does not
    /// coalesce, so a move-then-move-back window is two accepted events
    /// and exactly two latency samples — sample counts always equal
    /// accepted-event counts, even when the pair nets out to a no-op
    /// placement-wise.
    #[test]
    fn move_then_move_back_records_one_sample_per_arrival() {
        let mut engine = boot_engine(&small_setup(), ServeConfig::default());
        let base = engine.instance().zone_of(6);
        let other = (base + 1) % engine.instance().num_zones();
        engine
            .push(StreamEvent::Move { id: 6, zone: other })
            .unwrap();
        engine
            .push(StreamEvent::Move { id: 6, zone: base })
            .unwrap();
        engine.flush_now();
        assert_eq!(engine.stats().events, 2);
        assert_eq!(
            engine.stats().latency.count(),
            2,
            "two arrivals, two samples"
        );
        assert_eq!(engine.instance().zone_of(engine.index_of(6).unwrap()), base);
    }

    /// `push_admitted` carries an upstream admission stamp into the
    /// histogram: the sample measures arrival-to-commit, queueing delay
    /// included.
    #[test]
    fn push_admitted_measures_from_the_given_stamp() {
        let mut engine = boot_engine(&small_setup(), ServeConfig::default());
        let at = Instant::now() - std::time::Duration::from_millis(250);
        engine
            .push_admitted(StreamEvent::Leave { id: 0 }, at)
            .unwrap();
        engine.flush_now();
        assert_eq!(engine.stats().latency.count(), 1);
        assert!(
            engine.stats().latency.mean_ns() >= 250_000_000.0,
            "the queueing delay before push is part of the sample"
        );
    }

    #[test]
    fn single_event_flushes_apply_immediately() {
        let mut engine = boot_engine(
            &small_setup(),
            ServeConfig {
                max_batch: 1,
                max_staleness: 1,
                ..Default::default()
            },
        );
        let id = engine
            .push(StreamEvent::Join { node: 2, zone: 7 })
            .unwrap()
            .unwrap();
        assert_eq!(engine.num_clients(), 121);
        assert_eq!(engine.pending_events(), 0);
        let c = engine.index_of(id).unwrap();
        assert_eq!(engine.instance().zone_of(c), 7);
        assert_engine_consistent(&engine);

        engine.push(StreamEvent::Move { id, zone: 2 }).unwrap();
        assert_eq!(engine.instance().zone_of(engine.index_of(id).unwrap()), 2);
        engine.push(StreamEvent::Leave { id }).unwrap();
        assert_eq!(engine.num_clients(), 120);
        assert_eq!(engine.index_of(id), None);
        assert_engine_consistent(&engine);
        assert_eq!(engine.stats().events, 3);
        assert_eq!(engine.stats().flushes, 3);
        assert_eq!(engine.stats().latency.count(), 3);
    }

    #[test]
    fn staleness_tick_flushes_partial_batches() {
        let mut engine = boot_engine(
            &small_setup(),
            ServeConfig {
                max_batch: 100,
                max_staleness: 2,
                ..Default::default()
            },
        );
        engine.push(StreamEvent::Leave { id: 0 }).unwrap();
        assert_eq!(engine.pending_events(), 1);
        assert!(engine.tick().is_none(), "first tick below the bound");
        let report = engine.tick().expect("second tick hits the bound");
        assert_eq!(report.events, 1);
        assert_eq!(engine.pending_events(), 0);
        assert_eq!(engine.num_clients(), 119);
        // Quiet ticks with nothing pending do not flush.
        assert!(engine.tick().is_none());
        assert_engine_consistent(&engine);
    }

    #[test]
    fn join_then_leave_in_one_batch_is_net_neutral() {
        let mut engine = boot_engine(
            &small_setup(),
            ServeConfig {
                max_batch: 100,
                max_staleness: 100,
                ..Default::default()
            },
        );
        let id = engine
            .push(StreamEvent::Join { node: 1, zone: 3 })
            .unwrap()
            .unwrap();
        engine.push(StreamEvent::Move { id, zone: 5 }).unwrap();
        engine.push(StreamEvent::Leave { id }).unwrap();
        engine.flush_now().unwrap();
        assert_eq!(engine.num_clients(), 120);
        assert_eq!(engine.index_of(id), None);
        assert_engine_consistent(&engine);
    }

    /// Random event streams at several micro-batch sizes keep every
    /// carried structure equivalent to a fresh build.
    #[test]
    fn micro_batched_stream_keeps_carried_state_exact() {
        use rand::Rng;
        for &max_batch in &[1usize, 3, 17, 64] {
            let setup = small_setup();
            let mut engine = boot_engine(
                &setup,
                ServeConfig {
                    max_batch,
                    max_staleness: 8,
                    ..Default::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(1000 + max_batch as u64);
            let mut live: Vec<ClientId> = (0..engine.num_clients() as ClientId).collect();
            for _ in 0..250 {
                match rng.gen_range(0..3) {
                    0 if live.len() > 5 => {
                        let pick = rng.gen_range(0..live.len());
                        let id = live.swap_remove(pick);
                        engine.push(StreamEvent::Leave { id }).unwrap();
                    }
                    1 => {
                        let node = rng.gen_range(0..40);
                        let zone = rng.gen_range(0..15);
                        let id = engine
                            .push(StreamEvent::Join { node, zone })
                            .unwrap()
                            .unwrap();
                        live.push(id);
                    }
                    _ => {
                        let pick = rng.gen_range(0..live.len());
                        let zone = rng.gen_range(0..15);
                        engine
                            .push(StreamEvent::Move {
                                id: live[pick],
                                zone,
                            })
                            .unwrap();
                    }
                }
            }
            engine.flush_now();
            assert_eq!(engine.num_clients(), live.len());
            assert_engine_consistent(&engine);
            let pqos = engine.metrics().pqos;
            assert!((0.0..=1.0).contains(&pqos));
            assert!(engine.stats().latency.count() >= 250);
        }
    }

    /// The streamed fast path holds quality next to the batch engine on
    /// the same trace (deterministic fixture, loose bound: contacts are
    /// repaired incrementally, not re-derived globally).
    #[test]
    fn stream_fast_path_tracks_batch_quality() {
        let setup = small_setup();
        let batch = DynamicsBatch {
            joins: 20,
            leaves: 20,
            moves: 15,
        };
        let churn = run_churn(&setup, 0, &batch, 5, StuckPolicy::BestEffort);
        let report = run_stream(
            &setup,
            0,
            &batch,
            5,
            StuckPolicy::BestEffort,
            ServeConfig {
                max_batch: 7,
                max_staleness: 4,
                ..Default::default()
            },
        )
        .expect("feasible seed");
        assert_eq!(report.records.len(), 5);
        for (s, b) in report.records.iter().zip(&churn) {
            assert_eq!(s.clients, b.clients, "populations must match");
            assert!(
                s.pqos >= b.pqos_repaired - 0.1,
                "epoch {}: stream pqos {} fell far below batch {}",
                s.epoch,
                s.pqos,
                b.pqos_repaired
            );
        }
        assert!(report.stats.latency.count() >= 5 * 55);
    }

    /// Warm-up pin (satellite): events flushed inside a warm-up window
    /// land in `stats.warmup` and never touch the gated steady-state
    /// histogram — so initial-population admission cannot pollute the
    /// per-event quantiles.
    #[test]
    fn warmup_phase_keeps_steady_quantiles_clean() {
        let mut engine = boot_engine(
            &small_setup(),
            ServeConfig {
                max_batch: 4,
                max_staleness: 4,
                ..Default::default()
            },
        );
        engine.begin_warmup();
        assert!(engine.is_warming_up());
        for node in 0..10 {
            engine
                .push(StreamEvent::Join {
                    node,
                    zone: node % 15,
                })
                .unwrap();
        }
        engine.end_warmup();
        assert!(!engine.is_warming_up());
        assert_eq!(engine.stats().warmup.count(), 10);
        assert_eq!(
            engine.stats().latency.count(),
            0,
            "warm-up admission leaked into the steady histogram"
        );
        // Steady traffic records into the gated histogram only.
        engine.push(StreamEvent::Leave { id: 0 }).unwrap();
        engine.push(StreamEvent::Move { id: 1, zone: 3 }).unwrap();
        engine.flush_now();
        assert_eq!(engine.stats().warmup.count(), 10);
        assert_eq!(engine.stats().latency.count(), 2);
        assert_engine_consistent(&engine);
    }

    /// `run_stream_with_warmup` applies warm-up epochs (same trace, same
    /// quality trajectory) but excludes them from records and the gated
    /// histogram: the steady records equal the plain run's tail.
    #[test]
    fn run_stream_warmup_epochs_shift_records_only() {
        let setup = small_setup();
        let batch = DynamicsBatch {
            joins: 15,
            leaves: 15,
            moves: 10,
        };
        let config = ServeConfig {
            max_batch: 8,
            max_staleness: 4,
            ..Default::default()
        };
        let plain =
            run_stream(&setup, 0, &batch, 3, StuckPolicy::BestEffort, config).expect("feasible");
        let warmed =
            run_stream_with_warmup(&setup, 0, &batch, 1, 2, StuckPolicy::BestEffort, config)
                .expect("feasible");
        assert_eq!(warmed.records.len(), 2);
        assert_eq!(warmed.stats.warmup.count(), 40);
        assert_eq!(warmed.stats.latency.count(), 80);
        assert_eq!(
            warmed.stats.latency.count() + warmed.stats.warmup.count(),
            plain.stats.latency.count()
        );
        for (w, p) in warmed.records.iter().zip(plain.records.iter().skip(1)) {
            assert_eq!(w.clients, p.clients);
            assert_eq!(w.pqos, p.pqos);
            assert_eq!(w.zones_migrated, p.zones_migrated);
            assert_eq!(w.epoch + 1, p.epoch);
        }
    }

    /// The mobility-model driver (ROADMAP "next candidate"): avatar
    /// walks stream through the engine, population stays fixed, quality
    /// holds, and the run is deterministic.
    #[test]
    fn mobility_stream_serves_avatar_walks() {
        use dve_world::MobilityModel;
        let setup = small_setup();
        let model = MobilityModel::new(15, 0.2);
        let config = ServeConfig {
            max_batch: 16,
            max_staleness: 2,
            ..Default::default()
        };
        let report = run_mobility_stream(&setup, 0, &model, 6, StuckPolicy::BestEffort, config)
            .expect("feasible");
        assert_eq!(report.records.len(), 6);
        for r in &report.records {
            assert_eq!(r.clients, 120, "mobility never changes population");
            assert!((0.0..=1.0).contains(&r.pqos));
        }
        // ~20% of 120 clients per tick actually move.
        assert!(
            report.stats.events >= 60,
            "only {} move events over 6 ticks",
            report.stats.events
        );
        assert_eq!(report.stats.events, report.stats.latency.count());
        let again = run_mobility_stream(&setup, 0, &model, 6, StuckPolicy::BestEffort, config)
            .expect("feasible");
        for (a, b) in report.records.iter().zip(&again.records) {
            assert_eq!(a.pqos, b.pqos);
            assert_eq!(a.zones_migrated, b.zones_migrated);
        }
    }

    /// The sampled estimator brackets the exact pQoS (unbiased; a
    /// whole-population "sample" of size >> k concentrates hard) and is
    /// deterministic given its RNG.
    #[test]
    fn sampled_pqos_tracks_exact_evaluation() {
        let engine = boot_engine(&small_setup(), ServeConfig::default());
        let exact = engine.metrics().pqos;
        let mut rng = StdRng::seed_from_u64(3);
        let sampled = engine.pqos_sampled(20_000, &mut rng);
        assert!(
            (sampled - exact).abs() < 0.02,
            "sampled {sampled} vs exact {exact}"
        );
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(engine.pqos_sampled(20_000, &mut rng), sampled);
    }

    /// Exponential arrivals (the wall-clock satellite): the timed
    /// mobility runner applies every drawn move by the end of the run,
    /// never force-flushes per tick (flushes are staleness/batch
    /// driven), and is deterministic. The mirror worlds of the timed and
    /// boundary paths coincide — only delivery timing differs.
    #[test]
    fn timed_mobility_stream_models_wall_clock_staleness() {
        use dve_world::MobilityModel;
        let setup = small_setup();
        let model = MobilityModel::new(15, 0.3);
        let timed_config = ServeConfig {
            max_batch: 1000, // flushes come from the staleness heartbeat
            max_staleness: 2,
            arrival: InterArrival::Exponential {
                mean_gap_ticks: 0.02,
            },
            ..Default::default()
        };
        let report = run_mobility_stream_with(
            &setup,
            0,
            &model,
            6,
            StuckPolicy::BestEffort,
            timed_config,
            QualityEstimator::Exact,
        )
        .expect("feasible");
        assert_eq!(report.records.len(), 6);
        for r in &report.records {
            assert_eq!(r.clients, 120, "mobility never changes population");
            assert!((0.0..=1.0).contains(&r.pqos));
        }
        // Every drawn event was eventually applied...
        assert!(report.stats.events >= 100, "only {}", report.stats.events);
        assert_eq!(report.stats.events, report.stats.latency.count());
        // ...but flushes were staleness-driven, not one-per-tick-forced:
        // with max_staleness=2 over 6 ticks plus the final drain, far
        // fewer than the event count.
        assert!(
            report.stats.flushes <= 7,
            "{} flushes for 6 ticks",
            report.stats.flushes
        );
        let again = run_mobility_stream_with(
            &setup,
            0,
            &model,
            6,
            StuckPolicy::BestEffort,
            timed_config,
            QualityEstimator::Exact,
        )
        .expect("feasible");
        for (a, b) in report.records.iter().zip(&again.records) {
            assert_eq!(a.pqos, b.pqos);
            assert_eq!(a.flushes, b.flushes);
        }
    }

    /// run_stream is deterministic given the setup and config.
    #[test]
    fn run_stream_is_deterministic() {
        let setup = small_setup();
        let batch = DynamicsBatch {
            joins: 10,
            leaves: 10,
            moves: 10,
        };
        let config = ServeConfig {
            max_batch: 5,
            max_staleness: 3,
            ..Default::default()
        };
        let a =
            run_stream(&setup, 0, &batch, 3, StuckPolicy::BestEffort, config).expect("feasible");
        let b =
            run_stream(&setup, 0, &batch, 3, StuckPolicy::BestEffort, config).expect("feasible");
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.clients, y.clients);
            assert_eq!(x.pqos, y.pqos);
            assert_eq!(x.zones_migrated, y.zones_migrated);
        }
    }

    /// The equivalence property of the PR: a streamed event sequence,
    /// coalesced at epoch granularity, reaches the exact executed
    /// pQoS/assignment state of the batch `run_churn` over the same
    /// events — across several seeds and batch mixes.
    #[test]
    fn epoch_coalesced_stream_equals_run_churn() {
        for (seed, joins, leaves, moves) in [
            (0, 20, 25, 10),
            (1, 0, 30, 20),
            (2, 35, 5, 0),
            (3, 15, 15, 15),
        ] {
            let mut setup = small_setup();
            setup.base_seed = 42 + seed;
            let batch = DynamicsBatch {
                joins,
                leaves,
                moves,
            };
            let churn = run_churn(&setup, 0, &batch, 4, StuckPolicy::BestEffort);
            let stream = run_stream_batch_compat(&setup, 0, &batch, 4, StuckPolicy::BestEffort);
            assert_eq!(churn.len(), stream.len());
            for (b, s) in churn.iter().zip(&stream) {
                assert_eq!(b.epoch, s.epoch, "seed {seed}");
                assert_eq!(b.clients, s.clients, "seed {seed}");
                assert_eq!(b.pqos_carried, s.pqos_carried, "seed {seed}");
                assert_eq!(b.pqos_repaired, s.pqos_repaired, "seed {seed}");
                assert_eq!(b.zones_migrated, s.zones_migrated, "seed {seed}");
            }
        }
    }

    /// Golden fixed-seed pin of the stream-vs-batch equivalence: the
    /// canonical seed-42 replication, Table 3-shaped mix. If either path
    /// drifts, this fails before the property test's loop does.
    #[test]
    fn golden_stream_vs_batch_fixed_seed() {
        let setup = small_setup();
        let batch = DynamicsBatch {
            joins: 30,
            leaves: 30,
            moves: 30,
        };
        let churn = run_churn(&setup, 0, &batch, 3, StuckPolicy::BestEffort);
        let stream = run_stream_batch_compat(&setup, 0, &batch, 3, StuckPolicy::BestEffort);
        for (b, s) in churn.iter().zip(&stream) {
            assert_eq!(b.pqos_carried, s.pqos_carried);
            assert_eq!(b.pqos_repaired, s.pqos_repaired);
            assert_eq!(b.zones_migrated, s.zones_migrated);
            assert_eq!(b.clients, s.clients);
        }
        // Population arithmetic is exact at fixed seed.
        assert_eq!(stream[2].clients, 120);
        assert!(stream
            .iter()
            .all(|r| (0.0..=1.0).contains(&r.pqos_repaired)));
    }

    /// Picks the most loaded server, one of its zones, and a headroom
    /// that puts that server strictly over the admission line — the
    /// deterministic fixture for the admission-control tests.
    fn blocked_fixture(setup: &SimSetup) -> (usize, usize, f64) {
        let probe = boot_engine(setup, ServeConfig::default());
        let loads = probe.assignment().server_loads(probe.instance());
        let s_max = (0..loads.len())
            .max_by(|&a, &b| {
                (loads[a] / probe.instance().capacity(a))
                    .total_cmp(&(loads[b] / probe.instance().capacity(b)))
            })
            .expect("servers exist");
        let zone = probe
            .targets()
            .iter()
            .position(|&s| s == s_max)
            .expect("the most loaded server hosts a zone");
        let frac = loads[s_max] / probe.instance().capacity(s_max);
        assert!(frac > 0.0, "fixture server carries load");
        // Admission line at half the current load fraction: blocked now,
        // unblocked once enough of the load drains.
        let headroom = (1.0 - frac / 2.0).clamp(0.0, 0.999);
        (s_max, zone, headroom)
    }

    /// Reject admission: a join into a zone whose target is over the
    /// headroom line is refused with `Shed` and counted, and the
    /// population is untouched.
    #[test]
    fn reject_admission_sheds_joins_over_the_headroom_line() {
        let setup = small_setup();
        let (_, zone, headroom) = blocked_fixture(&setup);
        let mut engine = boot_engine(
            &setup,
            ServeConfig {
                degradation: DegradationPolicy {
                    admission: AdmissionPolicy::Reject,
                    headroom,
                    max_pending: None,
                },
                ..Default::default()
            },
        );
        assert_eq!(
            engine.push(StreamEvent::Join { node: 0, zone }),
            Err(ServeError::Shed { zone })
        );
        assert_eq!(engine.stats().rejected_joins, 1);
        assert_eq!(engine.stats().shed_events, 1);
        assert_eq!(engine.num_clients(), 120);
        assert_eq!(engine.pending_events(), 0);
        // Shed decisions burn no ids: the next admitted client's id is
        // still dense.
        assert_engine_consistent(&engine);
    }

    /// Queue admission: a blocked join is deferred with a live id
    /// reservation; moves re-target it and a leave cancels it; once the
    /// blocking load drains, the flush re-admits it with its original
    /// arrival stamp.
    #[test]
    fn queue_admission_defers_and_readmits_when_load_drains() {
        let setup = small_setup();
        let (s_max, zone, headroom) = blocked_fixture(&setup);
        let mut engine = boot_engine(
            &setup,
            ServeConfig {
                max_batch: 1,
                max_staleness: 1,
                degradation: DegradationPolicy {
                    admission: AdmissionPolicy::Queue,
                    headroom,
                    max_pending: None,
                },
                ..Default::default()
            },
        );
        // Deferred, not live, not buffered.
        let id = engine
            .push(StreamEvent::Join { node: 0, zone })
            .unwrap()
            .expect("queued joins still get ids");
        assert_eq!(engine.deferred_joins(), 1);
        assert_eq!(engine.index_of(id), None);
        assert_eq!(engine.num_clients(), 120);
        // A queued joiner can move while waiting and leave while waiting.
        engine.push(StreamEvent::Move { id, zone: 0 }).unwrap();
        assert_eq!(engine.deferred_joins(), 1);
        engine.push(StreamEvent::Leave { id }).unwrap();
        assert_eq!(engine.deferred_joins(), 0);
        assert_eq!(engine.stats().queued_joins, 1);

        // Queue another, then drain the blocking server's load by
        // leaving its clients until the flush re-admits the joiner.
        let qid = engine
            .push(StreamEvent::Join { node: 0, zone })
            .unwrap()
            .expect("queued");
        let mut admitted = false;
        for _ in 0..200 {
            engine.flush_now();
            if engine.deferred_joins() == 0 {
                admitted = true;
                break;
            }
            let Some(c) = (0..engine.num_clients())
                .find(|&c| engine.targets()[engine.instance().zone_of(c)] == s_max)
            else {
                break;
            };
            let leaver = engine.id_at(c);
            engine.push(StreamEvent::Leave { id: leaver }).unwrap();
        }
        assert!(admitted, "the deferred join was never re-admitted");
        let c = engine.index_of(qid).expect("re-admitted join is live");
        assert_eq!(engine.instance().zone_of(c), zone);
        assert_engine_consistent(&engine);
    }

    /// The bounded ingest queue: pushes beyond `max_pending` are
    /// refused with `QueueFull` until a flush drains the buffer.
    #[test]
    fn bounded_ingest_queue_applies_backpressure() {
        let setup = small_setup();
        let mut engine = boot_engine(
            &setup,
            ServeConfig {
                max_batch: 100,
                max_staleness: 100,
                degradation: DegradationPolicy {
                    max_pending: Some(3),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        for id in 0..3 {
            engine.push(StreamEvent::Move { id, zone: 1 }).unwrap();
        }
        assert_eq!(
            engine.push(StreamEvent::Move { id: 3, zone: 1 }),
            Err(ServeError::QueueFull { bound: 3 })
        );
        assert_eq!(
            engine.pending_events(),
            3,
            "the refused event is not buffered"
        );
        engine.flush_now();
        engine.push(StreamEvent::Move { id: 3, zone: 1 }).unwrap();
        assert_eq!(engine.pending_events(), 1);
        engine.flush_now();
        assert_engine_consistent(&engine);
    }

    /// Mass evacuation: failing a server moves every hosted zone to a
    /// survivor and sheds every relay through it; restore brings the
    /// capacities back bit-identical and the whole cycle is
    /// deterministic.
    #[test]
    fn fail_then_restore_recovers_bit_identical_capacities() {
        let setup = small_setup();
        let run = || {
            let mut engine = boot_engine(&setup, ServeConfig::default());
            let victim = engine.targets()[0];
            let nominal = engine.instance().capacity(victim);
            let report = engine.fail_server(victim).expect("server in range");
            assert!(engine.is_server_down(victim));
            assert_eq!(engine.down_servers(), vec![victim]);
            assert_eq!(engine.instance().capacity(victim), 0.0);
            assert!(
                engine.targets().iter().all(|&s| s != victim),
                "every zone evacuated the failed server"
            );
            assert!(
                engine.contacts().iter().all(|&s| s != victim),
                "no client is served or relayed through the failed server"
            );
            assert!(report.zones_evacuated > 0, "the victim hosted zones");
            assert_engine_consistent(&engine);

            // Serving continues on the degraded engine.
            let id = engine
                .push(StreamEvent::Join { node: 1, zone: 2 })
                .unwrap()
                .unwrap();
            engine.push(StreamEvent::Move { id, zone: 4 }).unwrap();
            engine.flush_now();
            assert!(engine.contacts().iter().all(|&s| s != victim));

            let restore = engine.restore_server(victim).expect("server in range");
            assert!(!engine.is_server_down(victim));
            assert_eq!(engine.instance().capacity(victim), nominal);
            assert!(restore.feasible, "small tier refits after recovery");
            assert_engine_consistent(&engine);
            assert_eq!(engine.stats().failovers, 1);
            assert_eq!(engine.stats().recoveries, 1);
            assert_eq!(engine.stats().full_repairs, 0);
            // Idempotence: both directions are no-ops when already there.
            assert_eq!(engine.restore_server(victim).unwrap().zones_migrated, 0);
            (
                engine.targets().to_vec(),
                engine.contacts().to_vec(),
                engine.metrics().pqos,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "failure/recovery decisions are deterministic");
    }

    /// Forced evacuation when no survivor has room: with four of five
    /// servers failed, the last survivor absorbs every zone — feasible
    /// or not — because an overloaded survivor beats a dead host.
    #[test]
    fn evacuation_forces_placement_when_all_survivors_are_overloaded() {
        let setup = small_setup();
        let mut engine = boot_engine(&setup, ServeConfig::default());
        for s in 0..4 {
            engine.fail_server(s).expect("in range");
        }
        assert_eq!(engine.down_servers(), vec![0, 1, 2, 3]);
        assert!(
            engine.targets().iter().all(|&s| s == 4),
            "the sole survivor hosts every zone"
        );
        assert!(
            engine.contacts().iter().all(|&s| s == 4),
            "no contact can route anywhere else"
        );
        assert_engine_consistent(&engine);
        // The engine keeps serving and never escalates to a full repair
        // while degraded, even if the survivor is overloaded.
        let before = engine.num_clients();
        engine
            .push(StreamEvent::Join { node: 0, zone: 1 })
            .unwrap()
            .unwrap();
        engine.flush_now();
        assert_eq!(engine.num_clients(), before + 1);
        assert_eq!(engine.stats().full_repairs, 0);
        assert_engine_consistent(&engine);
    }

    /// Failing the last server of every zone's contact set — no
    /// survivors at all: zones stay pinned to their dead host, the
    /// engine reports infeasible, keeps its books, and never panics.
    #[test]
    fn failing_every_server_degrades_without_panic() {
        let setup = small_setup();
        let mut engine = boot_engine(&setup, ServeConfig::default());
        for s in 0..5 {
            engine.fail_server(s).expect("in range");
        }
        assert!(!engine.is_feasible(), "no capacity anywhere");
        assert_eq!(engine.num_clients(), 120, "population is retained");
        assert_engine_consistent(&engine);
        // Unknown servers are a typed refusal, not a panic.
        assert_eq!(
            engine.fail_server(99),
            Err(ServeError::UnknownServer {
                server: 99,
                servers: 5
            })
        );
        // Recovery from total loss works server by server.
        engine.restore_server(0).expect("in range");
        assert!(
            engine.targets().iter().all(|&s| s == 0),
            "the first recovered server re-hosts everything"
        );
        assert_engine_consistent(&engine);
    }

    /// Thread-count invariance of the degraded state (DVE_THREADS ∈
    /// {1, 2, 8}): the carried matrix and the violator scan agree with
    /// every parallel width after failure and after recovery — the
    /// propose-parallel/commit-serial seam is failure-transparent.
    #[test]
    fn degraded_state_is_thread_count_invariant() {
        use dve_assign::{violating_clients, violating_clients_threads};
        let setup = small_setup();
        let mut engine = boot_engine(&setup, ServeConfig::default());
        let victim = engine.targets()[3];
        engine.fail_server(victim).expect("in range");
        // Churn on the degraded engine.
        for i in 0..10 {
            engine
                .push(StreamEvent::Join {
                    node: i,
                    zone: i % 15,
                })
                .unwrap();
        }
        engine.flush_now();
        for phase in 0..2 {
            let serial = violating_clients(engine.instance(), engine.targets());
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    &CostMatrix::build_threads(engine.instance(), threads),
                    engine.matrix(),
                    "phase {phase}: carried matrix diverges at {threads} threads"
                );
                assert_eq!(
                    violating_clients_threads(engine.instance(), engine.targets(), threads),
                    serial,
                    "phase {phase}: violator scan diverges at {threads} threads"
                );
            }
            if phase == 0 {
                engine.restore_server(victim).expect("in range");
            }
        }
    }

    /// Recycled ranked buffers are invisible to contact planning: a
    /// snapshot plan written into a dirty buffer is bit-identical to
    /// one written into a fresh allocation, for every live client.
    #[test]
    fn plan_contact_with_recycled_buffer_matches_fresh() {
        let setup = small_setup();
        let mut engine = boot_engine(&setup, ServeConfig::default());
        // Churn a little so some clients sit out of bound.
        for i in 0..20 {
            engine
                .push(StreamEvent::Join {
                    node: i % 40,
                    zone: (7 * i) % 15,
                })
                .unwrap();
        }
        engine.flush_now();
        let snap = FlushSnapshot {
            inst: engine.inst.clone(),
            matrix: engine.matrix.clone(),
            targets: engine.target_of_zone.clone(),
            unserved: engine.unserved_of_zone.clone(),
        };
        let mut recycled = vec![(f64::NAN, usize::MAX); 11];
        for c in 0..engine.num_clients() {
            let (c_fresh, fresh) = snap.plan_contact_with(c, Vec::new());
            let (c_dirty, dirty) = snap.plan_contact_with(c, recycled);
            assert_eq!(c_fresh, c_dirty);
            assert_eq!(fresh.target, dirty.target);
            assert_eq!(fresh.ranked.len(), dirty.ranked.len(), "client {c}");
            for (a, b) in fresh.ranked.iter().zip(&dirty.ranked) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "client {c}: cost bytes");
                assert_eq!(a.1, b.1, "client {c}: server");
            }
            recycled = dirty.ranked;
        }
    }

    /// Fifty churn+fault flushes on one engine: the scratch pool
    /// recycles through every serial flush, evacuation, failover, and
    /// recovery sweep, and every carried book stays equivalent to a
    /// fresh build after each one.
    #[test]
    fn scratch_reuse_stays_consistent_across_churn_and_fault_flushes() {
        use rand::Rng;
        let setup = small_setup();
        let mut engine = boot_engine(
            &setup,
            ServeConfig {
                max_batch: 64,
                max_staleness: 64,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(0xa110c);
        let mut live: Vec<ClientId> = (0..engine.num_clients() as ClientId).collect();
        for flush in 0..50 {
            for _ in 0..8 {
                match rng.gen_range(0..3) {
                    0 if live.len() > 20 => {
                        let pick = rng.gen_range(0..live.len());
                        let id = live.swap_remove(pick);
                        engine.push(StreamEvent::Leave { id }).unwrap();
                    }
                    1 => {
                        let node = rng.gen_range(0..40);
                        let zone = rng.gen_range(0..15);
                        let id = engine
                            .push(StreamEvent::Join { node, zone })
                            .unwrap()
                            .unwrap();
                        live.push(id);
                    }
                    _ => {
                        let pick = rng.gen_range(0..live.len());
                        let zone = rng.gen_range(0..15);
                        engine
                            .push(StreamEvent::Move {
                                id: live[pick],
                                zone,
                            })
                            .unwrap();
                    }
                }
            }
            engine.flush_now();
            match flush {
                10 => drop(engine.fail_server(1).unwrap()),
                20 => drop(engine.restore_server(1).unwrap()),
                30 => drop(engine.fail_server(3).unwrap()),
                40 => drop(engine.restore_server(3).unwrap()),
                _ => {}
            }
            assert_engine_consistent(&engine);
        }
        assert_eq!(engine.num_clients(), live.len());
        assert!(engine.stats().flushes >= 50);
    }
}
