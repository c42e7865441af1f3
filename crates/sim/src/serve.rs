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
//!   [`ClientId`]s. Events are buffered into micro-batches (never
//!   coalesced: each accepted event is applied) under a [`ServeConfig`]
//!   policy (flush at `max_batch` buffered events, or after
//!   `max_staleness` idle [`ServeEngine::tick`]s), then applied **in
//!   place**: the carried [`CapInstance`] advances by slot-recycling
//!   swap-remove ops (`stream_leave`/`stream_join`/`stream_move`), the
//!   carried [`CostMatrix`] by per-client column updates with a deferred
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
//!   the touched zones' unserved violators (incrementally maintained
//!   per-zone lists, so no flush rescans a zone's membership). Every
//!   contact decision is GreC's per-client rule over one full `C^R` row
//!   from the relay kernel ([`CapInstance::relay_costs_into`]). A
//!   violator left unserved keeps that row's verdict as a **rescue
//!   certificate**: the servers cheaper than its target. The rescan
//!   ANDs it with the zone's live fit mask (the servers with room for
//!   one more relay) and skips the retry, without reading the delay
//!   row, when nothing is left; otherwise it picks over the
//!   intersection, which is exactly the server the full scan would
//!   pick (see `rescan_zone`). When
//!   an overload cannot be evacuated locally and the engine was feasible
//!   before the flush, it **falls back** to the global zone-level repair
//!   ([`repair_targets_with`](crate::repair_targets_with)), applying
//!   each changed target through the scoped zone migration — contact
//!   re-decisions stay bounded by the membership of zones that moved.
//! * **Exact books** — every rate of the paper's bandwidth model (§2.1)
//!   is a whole number of stream units f·S: a zone of `n` clients costs
//!   its target `n(n + 1)` units and a relayed member costs its contact
//!   `2(1 + n)`. So the load books, the capacities and the admission
//!   lines are `u64` unit counts, converted from bits/s once per
//!   capacity change, and their sums do not depend on order. Forwarding
//!   is booked as a relay count per (zone, contact) at a per-zone rate;
//!   a flush re-books each touched zone once, after its apply loop, in
//!   O(m) however many relays the zone has. Clients are found by id in a
//!   paged `u32` table ([`IdTable`]) that also holds the pending-join,
//!   deferred and leaving marks, and compacts pages whose ids have
//!   mostly departed. [`ServeEngine::check_invariants`]
//!   rebuilds every book from the targets and contacts and compares
//!   with `==`.
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

use crate::ids::{IdState, IdTable};
use crate::repair::repair_targets_with;
use crate::runner::ChurnEpochRecord;
use crate::setup::{build_replication, SimSetup};
use crate::stats::LatencyHistogram;
use dve_assign::{
    evaluate, grec, grez_with, Assignment, CapInstance, CostMatrix, IapError, Metrics, StuckPolicy,
};
use dve_world::{
    apply_dynamics, BandwidthModel, DeltaBuffer, DynamicsBatch, ErrorModel, InterArrival,
    MobilityModel, World, WorldDelays, WorldEvent,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::VecDeque;
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

/// A book of a [`ServeEngine`] that [`ServeEngine::check_invariants`]
/// found out of step with a rebuild from the engine's targets, contacts
/// and instance. Load books are in stream units (f·S) and compare with
/// `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A per-client book's length differs from the population, or a
    /// target or contact is out of range.
    Shape,
    /// The id table disagrees with the index → id map, the pending
    /// buffer or the deferred queue.
    IdTable,
    /// A server's capacity or admission line in stream units differs
    /// from a conversion of its capacity, or a failed server holds
    /// capacity.
    Capacity {
        /// The server.
        server: usize,
    },
    /// A zone's booked relay rate is not `2(1 + n_z)` units, or its
    /// `R_z` in the instance is not the bandwidth model's.
    ZoneRate {
        /// The zone.
        zone: usize,
    },
    /// A server's hosted-zone load differs from the rebuild, or in
    /// bits/s from the sum of its zones' `R_z`.
    ZoneLoad {
        /// The server.
        server: usize,
    },
    /// A server's forwarding load differs from the rebuild, or its
    /// whole load in bits/s from `Assignment::server_loads`.
    ForwardLoad {
        /// The server.
        server: usize,
    },
    /// A (zone, contact) relay count differs from the rebuild.
    RelayCount {
        /// The zone.
        zone: usize,
        /// The contact server.
        server: usize,
    },
    /// A shed-list entry or relay mark disagrees with the client's
    /// contact and target (`client` is the population size when the
    /// lists hold the wrong number of entries).
    RelayList {
        /// The client index.
        client: usize,
    },
    /// The hosted-zone book is not the inverse of the zone → server map.
    HostedZones {
        /// The zone.
        zone: usize,
    },
    /// A zone's unserved list is not exactly its on-target violators,
    /// or a position is out of step (`zone` is the zone count when the
    /// position book marks the wrong number of clients).
    UnservedList {
        /// The zone.
        zone: usize,
    },
    /// A written rescue certificate differs from a fresh one for the
    /// zone's current target.
    Certificate {
        /// The zone.
        zone: usize,
        /// The client index.
        client: usize,
    },
    /// The feasibility flag disagrees with the load books.
    Feasibility,
    /// The carried cost matrix differs from a fresh build.
    CostMatrix,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine book out of step with its rebuild: {self:?}")
    }
}

impl std::error::Error for InvariantViolation {}

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
    /// [`ServeError::QueueFull`] (backpressure). At least 1 when set
    /// ([`ServeEngine::new`] panics on `Some(0)`); `None` = unbounded;
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

/// Micro-batch flush policy of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Flush as soon as this many events are buffered (1 = apply every
    /// event immediately).
    pub max_batch: usize,
    /// Flush after this many [`ServeEngine::tick`]s with events pending —
    /// the staleness bound for quiet periods when `max_batch` is never
    /// reached. A driver that delivers events at their arrival times
    /// (the [`InterArrival::Exponential`] mode of
    /// [`run_mobility_stream_with`]) makes it a wall-clock deadline.
    pub max_staleness: usize,
    /// Graceful-degradation policy: admission control and ingest
    /// bounds. The default is fully open (historical behavior).
    pub degradation: DegradationPolicy,
}

impl Default for ServeConfig {
    /// 64-event micro-batches, flushed after at most 4 idle ticks, open
    /// admission.
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_staleness: 4,
            degradation: DegradationPolicy::default(),
        }
    }
}

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
    /// Relay retries of listed unserved violators by the violator
    /// rescan (the flush's, and the restore sweep's).
    pub rescan_retries: u64,
    /// Rescan retries decided by the rescue certificate alone: no
    /// server the certificate names fits, so the retry was skipped
    /// without reading the client's delay row.
    pub rescan_skipped: u64,
    /// Rescan retries that booked a relay.
    pub rescan_rescued: u64,
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
    /// The model's stream rate f·S in bits/s: the unit of every load
    /// book below.
    unit_bps: f64,
    /// Per-server load from hosted zones, in stream units: the sum of
    /// `n_z(n_z + 1)` over the hosted zones (`R_z`).
    zone_load: Vec<u64>,
    /// Per-server load from relayed clients, in stream units: the sum
    /// over zones of `relay_count[z][s] · relay_rate[z]`.
    forward_load: Vec<u64>,
    /// Relayed clients per (zone, contact), zone-major: entry `z·m + s`
    /// counts the members of zone `z` relayed through server `s`.
    relay_count: Vec<u32>,
    /// The forwarding rate booked per relayed member of each zone, in
    /// stream units: `2(1 + n_z)` (`R^C = 2R^T`). A population change
    /// leaves it stale until the flush re-books the zone
    /// ([`ServeEngine::rebook_forwarding`]) after its apply loop.
    relay_rate: Vec<u64>,
    /// Per-server capacity in stream units ([`capacity_units`]); 0 while
    /// the server is down.
    cap: Vec<u64>,
    /// Per-server admission line in stream units ([`admission_units`]):
    /// a join into a zone passes while its target's load is at most
    /// this.
    admit_cap: Vec<u64>,
    /// Clients currently relayed through each server — the shed list
    /// the scoped evacuation re-decides when forwarding growth overloads
    /// a server. Unordered; entries are swap-removed.
    relayed_of_server: Vec<Vec<usize>>,
    /// Per-zone **unserved violators**: members beyond the delay bound
    /// of their zone's target whose contact still *is* that target (no
    /// relay found yet) — exactly the set the flush-path violator rescan
    /// retries — each with its rescue certificate ([`UnservedLists`]).
    /// Maintained incrementally by the event appliers and
    /// [`ServeEngine::decide_contact_among`], so the rescan never sweeps
    /// a full zone membership. Unordered; entries are swap-removed.
    unserved: UnservedLists,
    /// Position of each client in its zone's unserved list
    /// ([`NOT_LISTED`] when not listed) — O(1) membership and removal.
    unserved_pos: Vec<u32>,
    /// Position of each client in its contact's
    /// [`ServeEngine::relayed_of_server`] list ([`NOT_LISTED`] when not
    /// relayed) — O(1) removal. Without it every unrelay scanned the
    /// list, and a flash crowd's hot zone can relay thousands of
    /// clients through the same few servers. It is also the relay mark:
    /// a client is relayed exactly when it is listed (`contact !=
    /// target` is briefly wrong inside [`ServeEngine::migrate_zone`]).
    relay_pos_server: Vec<u32>,
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
    /// every flush. Their ids are marked deferred in
    /// [`ServeEngine::ids`], so only a Leave or Move of a deferred id
    /// searches the queue.
    deferred: VecDeque<DeferredJoin>,
    /// The id of the client at each index.
    id_of_client: Vec<ClientId>,
    /// Each issued id's index, or its pending-join, deferred or leaving
    /// mark ([`IdTable`]): one `u32` per id, paged. A page is freed once
    /// all its ids have departed, and compacted once three quarters
    /// have.
    ids: IdTable,
    delays: WorldDelays,
    model: BandwidthModel,
    error: ErrorModel,
    rng: StdRng,
    pending: Vec<Pending>,
    staleness: usize,
    /// Whether flushes currently record into the warm-up histogram.
    warming_up: bool,
    /// Recycled flush-local buffers — see [`FlushScratch`].
    scratch: FlushScratch,
    config: ServeConfig,
    stats: ServeStats,
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
    /// The relay kernel's `C^R` row (length m).
    costs: Vec<f64>,
    /// The rescan's live fit mask of the zone being swept.
    fit: Vec<Word>,
    /// The rescan's per-entry candidate set: certificate ∩ fit mask.
    live: Vec<Word>,
    /// `evacuate`'s servers-with-headroom list.
    room: Vec<usize>,
    /// `evacuate`/`fail_server`'s sorted hosted-zone list.
    evac_zones: Vec<usize>,
}

/// The position books' "not listed" sentinel.
const NOT_LISTED: u32 = u32::MAX;

/// A list position as the `u32` position books store it. A population
/// never reaches 2^32 − 1 list entries; the conversion is checked so a
/// position can never alias the [`NOT_LISTED`] sentinel.
fn list_pos(pos: usize) -> u32 {
    match u32::try_from(pos) {
        Ok(p) if p != NOT_LISTED => p,
        _ => panic!("list position {pos} does not fit the u32 position books"),
    }
}

/// `R^C` of one relayed member of a zone of `n` clients in stream
/// units: `2(1 + n)`.
fn relay_units(n: usize) -> u64 {
    2 * (1 + n as u64)
}

/// The slack of a bits/s fit, `load ≤ capacity + 1e-9`. The two
/// capacity conversions below apply it once, so a unit verdict equals
/// that `f64` verdict for every capacity; for a capacity in whole bits/s
/// it changes nothing.
const SLACK_BPS: f64 = 1e-9;

/// The largest whole number of stream units `q` with `q · unit ≤ bps`,
/// by the `f64` product: an exact floor, where `bps / unit` alone can
/// round up across a boundary.
fn units_within(bps: f64, unit: f64) -> u64 {
    let mut q = (bps / unit).max(0.0) as u64;
    while q > 0 && q as f64 * unit > bps {
        q -= 1;
    }
    while (q + 1) as f64 * unit <= bps {
        q += 1;
    }
    q
}

/// A server's capacity in stream units: the largest load that fits.
fn capacity_units(capacity: f64, unit: f64) -> u64 {
    units_within(capacity + SLACK_BPS, unit)
}

/// A server's admission line in stream units: the largest load at which
/// a join still passes, `(1 − headroom) · capacity`.
fn admission_units(capacity: f64, headroom: f64, unit: f64) -> u64 {
    units_within((1.0 - headroom) * capacity + SLACK_BPS, unit)
}

/// One word of a server bitset (rescue certificates and fit masks):
/// server `s` is bit `s % WORD_BITS` of word `s / WORD_BITS`.
type Word = u32;

/// Servers per bitset [`Word`].
const WORD_BITS: usize = Word::BITS as usize;

/// Sets server `s`'s bit.
fn set_bit(bits: &mut [Word], s: usize) {
    bits[s / WORD_BITS] |= 1 << (s % WORD_BITS);
}

/// Clears server `s`'s bit.
fn clear_bit(bits: &mut [Word], s: usize) {
    bits[s / WORD_BITS] &= !(1 << (s % WORD_BITS));
}

/// The indices of the set bits of a server bitset, ascending.
fn set_bits(bits: &[Word]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * WORD_BITS + bit
            })
        })
    })
}

/// GreC's per-client pick (Fig. 3) over a client's `C^R` row `costs`
/// for zone target `target`: the minimum (`C^R`, index) among the
/// ascending `candidates` other than the target that `fits`, strictly
/// cheaper than staying on the target — `None` when none is.
fn cheapest_relay(
    costs: &[f64],
    target: usize,
    candidates: impl IntoIterator<Item = usize>,
    fits: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut best = (costs[target], target);
    for s in candidates {
        if s != target && costs[s] < best.0 && fits(s) {
            best = (costs[s], s);
        }
    }
    (best.1 != target).then_some(best.1)
}

/// The client word's flag: set once the entry's certificate is written.
const CERTIFIED: Word = 1 << (WORD_BITS - 1);

/// Every zone's unserved violators (see [`ServeEngine::unserved`]),
/// each entry carrying its **rescue certificate** `B_c`: the servers
/// `s ≠ t` with `C^R(c, s, t) < C^R(c, t, t)` for the zone's target
/// `t`, one bit per server. Only those servers can ever rescue `c`, and
/// which of them fits is a question about loads, not delays: `B_c`
/// depends only on `c`'s delay row and the target, so load and capacity
/// changes leave it valid, and it holds until the zone's target
/// changes.
///
/// The pass that leaves a client unserved writes its `B_c`; an entry
/// listed without one (at boot, or a joiner or mover on arrival) is
/// uncertified until its next full pass. An entry is `stride` words of
/// its zone's one vector: the client word (the client's index, with
/// [`CERTIFIED`] set once the certificate is written), then the
/// certificate's `stride - 1` words. Entries are unordered and
/// swap-removed whole, so a certificate moves with its entry. A list
/// grows by doubling from four entries, so it reallocates exactly when
/// a plain index list would.
#[derive(Debug, Clone, Default)]
struct UnservedLists {
    /// Words per entry: the client word, then `⌈m / 32⌉` certificate
    /// words.
    stride: usize,
    /// Per zone, its entries back to back.
    zones: Vec<Vec<Word>>,
}

impl UnservedLists {
    /// Empty lists for `zones` zones over `servers` servers.
    fn new(zones: usize, servers: usize) -> UnservedLists {
        UnservedLists {
            stride: 1 + servers.div_ceil(WORD_BITS),
            zones: vec![Vec::new(); zones],
        }
    }

    /// [`Word`]s per server bitset: `⌈m / 32⌉`.
    fn words(&self) -> usize {
        self.stride - 1
    }

    /// Entries listed for zone `z`.
    fn len(&self, z: usize) -> usize {
        self.zones[z].len() / self.stride
    }

    /// The client of zone `z`'s entry `pos`.
    fn client(&self, z: usize, pos: usize) -> usize {
        (self.zones[z][pos * self.stride] & !CERTIFIED) as usize
    }

    /// Re-points zone `z`'s entry `pos` at client index `c` (a relocated
    /// client), keeping its certificate.
    fn set_client(&mut self, z: usize, pos: usize, c: usize) {
        let word = &mut self.zones[z][pos * self.stride];
        *word = (*word & CERTIFIED) | client_word(c);
    }

    /// Appends `c` to zone `z`'s list, uncertified.
    fn push(&mut self, z: usize, c: usize) {
        let list = &mut self.zones[z];
        if list.len() == list.capacity() {
            list.reserve_exact(list.capacity().max(4 * self.stride));
        }
        list.push(client_word(c));
        list.resize(list.len() + self.stride - 1, 0);
    }

    /// Swap-removes zone `z`'s entry `pos`, moving the last entry
    /// (certificate included) into it. Returns the client now at `pos`,
    /// if any.
    fn swap_remove(&mut self, z: usize, pos: usize) -> Option<usize> {
        let list = &mut self.zones[z];
        let last = list.len() - self.stride;
        list.copy_within(last.., pos * self.stride);
        list.truncate(last);
        (pos * self.stride < last).then(|| self.client(z, pos))
    }

    /// The certificate of zone `z`'s entry `pos`, when written.
    fn cert(&self, z: usize, pos: usize) -> Option<&[Word]> {
        let entry = &self.zones[z][pos * self.stride..(pos + 1) * self.stride];
        (entry[0] & CERTIFIED != 0).then(|| &entry[1..])
    }

    /// Writes the certificate of zone `z`'s entry `pos` from its
    /// client's `C^R` row toward `target`.
    fn certify(&mut self, z: usize, pos: usize, costs: &[f64], target: usize) {
        let direct = costs[target];
        let entry = &mut self.zones[z][pos * self.stride..(pos + 1) * self.stride];
        for (word, chunk) in entry[1..].iter_mut().zip(costs.chunks(WORD_BITS)) {
            *word = chunk.iter().enumerate().fold(0, |acc, (bit, &cost)| {
                acc | (Word::from(cost < direct) << bit)
            });
        }
        // `C^R(t) < C^R(t)` never holds: the target's bit is 0.
        entry[0] |= CERTIFIED;
    }

    /// Bytes allocated for certificate words across every zone.
    fn cert_bytes(&self) -> usize {
        let entries: usize = self.zones.iter().map(|l| l.capacity() / self.stride).sum();
        entries * (self.stride - 1) * size_of::<Word>()
    }
}

/// Client index `c` as an unserved list's client word. The word's top
/// bit is the [`CERTIFIED`] flag, so an index must stay below it.
fn client_word(c: usize) -> Word {
    match Word::try_from(c) {
        Ok(word) if word & CERTIFIED == 0 => word,
        _ => panic!("client index {c} does not fit an unserved list's client word"),
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
        assert!(
            config.max_staleness >= 1,
            "max_staleness must be at least 1"
        );
        assert!(
            (0.0..1.0).contains(&config.degradation.headroom),
            "headroom must be in [0, 1)"
        );
        assert!(
            config.degradation.max_pending != Some(0),
            "max_pending must be at least 1"
        );
        assert_eq!(
            delays.num_servers(),
            instance.num_servers(),
            "delay handle covers the instance's servers"
        );
        let model = world.config.bandwidth;
        // The load books count whole stream units, which is exact only
        // when every zone's rate is the model's.
        for z in 0..instance.num_zones() {
            assert_eq!(
                instance.zone_bps(z),
                model.zone_bps(instance.clients_in_zone(z).len()),
                "zone {z}'s rate is not the bandwidth model's"
            );
        }
        let matrix = CostMatrix::build(&instance);
        let target_of_zone = grez_with(&instance, &matrix, policy)?;
        let contact_of_client = grec(&instance, &target_of_zone);
        let k = instance.num_clients();
        let m = instance.num_servers();
        // GreC sizes the contact book with the instance's spare capacity
        // for k/8 joiners; every other per-client book gets the same
        // (`boot_books` fills the empty ones within it). Growing a
        // population-sized book copies it inside a flush, so the first
        // joins after boot must grow none of them.
        let capacity = contact_of_client.capacity();
        let mut id_of_client = Vec::with_capacity(capacity);
        id_of_client.extend(0..k as ClientId);
        let mut engine = ServeEngine {
            unit_bps: model.stream_bps(),
            zone_load: Vec::new(),
            forward_load: Vec::new(),
            relay_count: Vec::new(),
            relay_rate: Vec::new(),
            cap: Vec::new(),
            admit_cap: Vec::new(),
            relayed_of_server: Vec::new(),
            unserved: UnservedLists::default(),
            unserved_pos: Vec::with_capacity(capacity),
            relay_pos_server: Vec::with_capacity(capacity),
            zones_of_server: Vec::new(),
            capacity_ok: false,
            down: vec![false; m],
            nominal_capacity: (0..m).map(|s| instance.capacity(s)).collect(),
            deferred: VecDeque::new(),
            id_of_client,
            ids: IdTable::with_live(k, capacity),
            model,
            delays,
            error,
            rng,
            pending: Vec::new(),
            staleness: 0,
            warming_up: false,
            scratch: FlushScratch::default(),
            config,
            stats: ServeStats::default(),
            inst: instance,
            matrix,
            target_of_zone,
            contact_of_client,
        };
        engine.boot_books();
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

    /// Bytes allocated for the rescue certificates of the unserved
    /// violator lists (diagnostics for the memory ceilings).
    pub fn certificate_bytes(&self) -> usize {
        self.unserved.cert_bytes()
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
        self.ids.index(id)
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
    /// accepted-event counts.
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
                            let id = self.ids.issue(true);
                            self.stats.queued_joins += 1;
                            self.deferred.push_back(DeferredJoin { node, zone, id, at });
                            return Ok(Some(id));
                        }
                    }
                }
                let id = self.ids.issue(false);
                self.pending.push(Pending::Join { node, zone, id, at });
                Some(id)
            }
            StreamEvent::Leave { id } => {
                // A queued joiner that leaves before being admitted just
                // departs the deferred queue: it was never live.
                if let Some(pos) = self.deferred_position(id) {
                    self.deferred.remove(pos);
                    self.ids.depart(id);
                    return Ok(None);
                }
                self.check_live(id)?;
                self.ids.set_leaving(id);
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
                if let Some(pos) = self.deferred_position(id) {
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

    /// Refuses a Leave or Move of `id` unless it is live or joining and
    /// has no buffered Leave.
    fn check_live(&self, id: ClientId) -> Result<(), ServeError> {
        match self.ids.state(id) {
            IdState::Joining { leaving: true } | IdState::Live { leaving: true, .. } => {
                Err(ServeError::AlreadyLeaving { id })
            }
            IdState::Joining { .. } | IdState::Live { .. } => Ok(()),
            IdState::Vacant | IdState::Deferred => Err(ServeError::UnknownClient { id }),
        }
    }

    /// The deferred queue position of `id`; the queue is searched only
    /// when the id table marks `id` deferred.
    fn deferred_position(&self, id: ClientId) -> Option<usize> {
        if self.ids.state(id) != IdState::Deferred {
            return None;
        }
        let pos = self.deferred.iter().position(|d| d.id == id);
        debug_assert!(pos.is_some(), "a deferred mark has its queue entry");
        pos
    }

    /// Applies every buffered event as one micro-batch and runs the
    /// incremental repair. Returns `None` when nothing was pending.
    /// Joins deferred by [`AdmissionPolicy::Queue`] are retried first
    /// (FIFO, stopping at the first still-blocked join so the queue
    /// order is preserved) and ride this flush when re-admitted.
    ///
    /// Every flush runs one body on the calling thread: apply the
    /// events, re-order the touched zones' server orders, repair the
    /// targets, repair the contacts. No stage consults `DVE_THREADS` or
    /// any other runtime width, and no flush spawns a thread.
    pub fn flush_now(&mut self) -> Option<FlushReport> {
        self.staleness = 0;
        self.readmit_deferred();
        if self.pending.is_empty() {
            return None;
        }
        let mut events = std::mem::take(&mut self.pending);

        // Flush-local accumulators recycle through the scratch pool:
        // cleared here, restored (with their grown capacity) before the
        // report so steady-state flushes stop allocating.
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.clear();
        // Joiners and effective movers need a contact decision by id
        // (indices shift under later leaves in the same batch).
        let mut redecide = std::mem::take(&mut self.scratch.redecide);
        redecide.clear();
        for ev in &events {
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
        for &z in &touched {
            self.rebook_forwarding(z);
        }
        self.matrix.refresh_zones_threads(&touched, 1);
        let (migrated, full_repair) = self.repair_targets(&touched);
        if !full_repair {
            self.repair_contacts(&touched, &migrated, &redecide);
        }
        self.capacity_ok = self.within_capacity();

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

    /// Total load of server `s` in stream units: hosted zones plus
    /// forwarding overheads.
    #[inline]
    fn load(&self, s: usize) -> u64 {
        self.zone_load[s] + self.forward_load[s]
    }

    /// Whether server `s` has room for `units` more stream units.
    #[inline]
    fn fits(&self, s: usize, units: u64) -> bool {
        self.load(s) + units <= self.cap[s]
    }

    /// Whether every server is within capacity.
    fn within_capacity(&self) -> bool {
        (0..self.inst.num_servers()).all(|s| self.fits(s, 0))
    }

    /// `R_z` of zone `z` in stream units, `n(n + 1)` for its population
    /// `n`.
    fn zone_demand(&self, z: usize) -> u64 {
        let n = self.inst.clients_in_zone(z).len() as u64;
        n * (n + 1)
    }

    /// Largest spare capacity on any server right now, in stream units
    /// (negative when every server is over). A demand above this fits
    /// nowhere, which lets the repair sweep skip whole zones without
    /// probing every server (recomputed after any migration, since
    /// moving a zone frees its old host).
    fn max_headroom(&self) -> i64 {
        (0..self.inst.num_servers())
            .map(|s| self.cap[s] as i64 - self.load(s) as i64)
            .max()
            .unwrap_or(i64::MIN)
    }

    /// The admission check: a join into `zone` passes while the zone's
    /// target server is at most `(1 - headroom) x capacity` booked.
    /// Reads only committed load books (as of the last flush), so the
    /// decision is deterministic and thread-count-invariant. Open
    /// admission always passes.
    fn admit_join(&self, zone: usize) -> bool {
        if matches!(self.config.degradation.admission, AdmissionPolicy::Open) {
            return true;
        }
        let target = self.target_of_zone[zone];
        self.load(target) <= self.admit_cap[target]
    }

    /// Sets server `s`'s capacity (failure, recovery) in the instance
    /// and in the unit books.
    fn set_capacity(&mut self, s: usize, capacity: f64) {
        self.inst.set_capacity(s, capacity);
        self.cap[s] = capacity_units(capacity, self.unit_bps);
        self.admit_cap[s] =
            admission_units(capacity, self.config.degradation.headroom, self.unit_bps);
    }

    /// Retries deferred joins in FIFO order, stopping at the first one
    /// still blocked (preserving queue order); re-admitted joins keep
    /// their original arrival stamp, so the latency histogram measures
    /// arrival-to-commit across the deferral.
    fn readmit_deferred(&mut self) {
        while let Some(&d) = self.deferred.front() {
            if !self.admit_join(d.zone) {
                break;
            }
            self.deferred.pop_front();
            self.ids.set_joining(d.id);
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
        self.set_capacity(server, 0.0);
        self.stats.failovers += 1;

        let mut zones = std::mem::take(&mut self.scratch.evac_zones);
        zones.clear();
        zones.extend_from_slice(&self.zones_of_server[server]);
        zones.sort_by_key(|&z| (Reverse(self.zone_demand(z)), z));
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
        self.capacity_ok = self.within_capacity();
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
        let demand = self.zone_demand(z);
        let fit = (0..m)
            .filter(|&d| d != from && !self.down[d] && self.fits(d, demand))
            .min_by(|&a, &b| {
                self.matrix
                    .cost(a, z)
                    .partial_cmp(&self.matrix.cost(b, z))
                    .expect("finite")
            });
        if fit.is_some() {
            return fit;
        }
        // Ranked in bits/s: floored units would tie fractional
        // capacities that differ.
        let mut best: Option<(f64, usize)> = None;
        for d in 0..m {
            if d == from || self.down[d] {
                continue;
            }
            let headroom = self.inst.capacity(d) - self.load(d) as f64 * self.unit_bps;
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
        self.set_capacity(server, self.nominal_capacity[server]);
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
        let (migrated, full) = self.repair_targets(&all);
        debug_assert!(!full, "restore sweep never escalates to full repair");
        if !full {
            self.repair_contacts(&all, &migrated, &[]);
        }
        self.scratch.touched = all;
        let moved = rescued + migrated.len();
        self.scratch.migrated = migrated;
        self.stats.zones_migrated += moved as u64;
        self.capacity_ok = self.within_capacity();
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
        let c = self.ids.index(id).expect("validated at push");
        self.ids.depart(id);
        let zone = self.inst.zone_of(c);
        self.matrix.retire_client(&self.inst, c, zone);
        self.clear_unserved(zone, c);
        self.unrelay(c);
        let before = self.zone_demand(zone);
        let departure = self.inst.stream_leave(c, &self.model);
        if let Some(last) = departure.relocated {
            self.contact_of_client[c] = self.contact_of_client[last];
            let moved_id = self.id_of_client[last];
            self.id_of_client[c] = moved_id;
            self.ids.set_index(moved_id, c);
            let pos = self.relay_pos_server[last];
            self.relay_pos_server[c] = pos;
            if pos != NOT_LISTED {
                // The relocated client keeps its relay; re-key its shed
                // list entry from its old index to its new one.
                self.relayed_of_server[self.contact_of_client[c]][pos as usize] = c;
            }
            // The relocated client's unserved entry, certificate
            // included, stays where it is; only its index changes.
            let pos = self.unserved_pos[last];
            self.unserved_pos[c] = pos;
            if pos != NOT_LISTED {
                let z = self.inst.zone_of(c);
                self.unserved.set_client(z, pos as usize, c);
            }
        }
        let k = self.inst.num_clients();
        self.contact_of_client.truncate(k);
        self.id_of_client.truncate(k);
        self.unserved_pos.truncate(k);
        self.relay_pos_server.truncate(k);
        self.rebook_zone_load(zone, before);
        touched.push(zone);
    }

    fn apply_join(&mut self, node: usize, zone: usize, id: ClientId, touched: &mut Vec<usize>) {
        let before = self.zone_demand(zone);
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
        self.id_of_client.push(id);
        self.ids.set_index(id, idx);
        self.unserved_pos.push(NOT_LISTED);
        self.relay_pos_server.push(NOT_LISTED);
        if self.inst.obs_cs(idx, target) > self.inst.delay_bound() {
            self.mark_unserved(zone, idx);
        }
        self.rebook_zone_load(zone, before);
        touched.push(zone);
    }

    /// Returns whether the move was effective (destination != current).
    fn apply_move(&mut self, id: ClientId, zone: usize, touched: &mut Vec<usize>) -> bool {
        let c = self.ids.index(id).expect("validated at push");
        let from = self.inst.zone_of(c);
        if from == zone {
            return false;
        }
        self.matrix.retire_client(&self.inst, c, from);
        self.clear_unserved(from, c);
        // The mover keeps its contact session (GreC-style forwarding)
        // and the contact repair re-decides it. A kept contact that hosts
        // the new zone ends a relay; unrelay while the books still hold
        // the mover in `from`.
        let contact = self.contact_of_client[c];
        let target = self.target_of_zone[zone];
        if contact == target {
            self.unrelay(c);
        }
        let before_from = self.zone_demand(from);
        let before_to = self.zone_demand(zone);
        self.inst.stream_move(c, zone, &self.model);
        self.matrix.admit_client(&self.inst, c, zone);
        self.rebook_zone_load(from, before_from);
        self.rebook_zone_load(zone, before_to);
        if self.relay_pos_server[c] != NOT_LISTED {
            // A relay travels with its mover, at the new zone's rate.
            self.unbook_forwarding(from, contact);
            self.book_forwarding(zone, contact);
        } else if contact != target {
            // A direct mover whose kept contact differs from the new
            // zone's target has just *become* relayed.
            self.book_relay(c, zone, contact);
        } else if self.inst.obs_cs(c, target) > self.inst.delay_bound() {
            // On its new target but beyond the bound: eligible for the
            // violator rescan until a relay is found.
            self.mark_unserved(zone, c);
        }
        touched.push(from);
        touched.push(zone);
        true
    }

    /// Moves zone `z`'s `R_z` on its target's books from `before` units
    /// to its current population's.
    fn rebook_zone_load(&mut self, z: usize, before: u64) {
        let target = self.target_of_zone[z];
        self.zone_load[target] = self.zone_load[target] + self.zone_demand(z) - before;
    }

    /// Re-books zone `z`'s relays at its current population's rate
    /// `2(1 + n_z)`: each contact's forwarding load moves by its relay
    /// count times the change in rate. O(m), whatever the number of
    /// relays. The flush runs it once per touched zone, after its apply
    /// loop; until then a population change leaves the rate stale, and
    /// a relay booked meanwhile books at the stale rate.
    fn rebook_forwarding(&mut self, z: usize) {
        let rate = relay_units(self.inst.clients_in_zone(z).len());
        let old = std::mem::replace(&mut self.relay_rate[z], rate);
        if rate == old {
            return;
        }
        let m = self.inst.num_servers();
        let counts = &self.relay_count[z * m..(z + 1) * m];
        for (load, &count) in self.forward_load.iter_mut().zip(counts) {
            let count = u64::from(count);
            *load = *load + count * rate - count * old;
        }
    }

    /// The zone-scoped target repair: quality shifts over touched zones,
    /// then scoped evacuation of any server pushed over capacity.
    /// Returns the migrated zones and whether it escalated to the full
    /// repair.
    fn repair_targets(&mut self, touched: &[usize]) -> (Vec<usize>, bool) {
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
            let demand = self.zone_demand(z);
            if demand as i64 > headroom {
                continue;
            }
            for i in 0..m {
                let s = self.matrix.order(z)[i] as usize;
                if self.matrix.count(s, z) >= cur_count {
                    break;
                }
                if self.fits(s, demand) {
                    self.migrate_zone(z, s);
                    migrated.push(z);
                    headroom = self.max_headroom();
                    break;
                }
            }
        }

        // Scoped capacity restoration: a flush can only add load via
        // touched-zone growth or forwarding growth, so overloads are
        // rare and local; evacuate them largest-zone-first.
        let mut restored = true;
        for s in 0..m {
            if !self.fits(s, 0) && !self.evacuate(s, &mut migrated) {
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
        let demand = self.zone_demand(z);
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
        room.extend((0..m).filter(|&d| d != s && self.load(d) < self.cap[d]));
        while !self.fits(s, 0) {
            let Some(&c) = self.relayed_of_server[s].last() else {
                break;
            };
            // Either the client relays elsewhere / returns to its target
            // (the list shrinks), or it re-picks `s` — which the fit
            // check only allows once `s` is back within capacity, ending
            // the loop either way.
            self.decide_contact_among(c, room.iter().copied());
        }
        self.scratch.room = room;
        if self.fits(s, 0) {
            // The sheds were enough: the zone pass below would stop at
            // its first check.
            return true;
        }
        // The hosted-zone book plus a (demand desc, zone asc) sort is
        // exactly the order the old full-table scan produced (ascending
        // zone indices through a stable sort on demand).
        let mut zones = std::mem::take(&mut self.scratch.evac_zones);
        zones.clear();
        zones.extend_from_slice(&self.zones_of_server[s]);
        zones.sort_by_key(|&z| (Reverse(self.zone_demand(z)), z));
        let mut headroom = self.max_headroom();
        for &z in &zones {
            if self.fits(s, 0) {
                break;
            }
            let demand = self.zone_demand(z);
            // No server can take this zone: the scan below could only
            // fail, so skip it (exact — the fit bound is the same).
            if demand as i64 > headroom {
                continue;
            }
            let dest = (0..m)
                .filter(|&d| d != s && self.fits(d, demand))
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
        self.fits(s, 0)
    }

    /// Contact re-decisions for the clients a flush may have affected
    /// beyond the migrated zones (whose members [`ServeEngine::migrate_zone`]
    /// already re-decided inline): joiners and movers, then the
    /// zone-scoped violator rescan of the touched zones (violating
    /// members still on their target get a relay retry).
    fn repair_contacts(&mut self, touched: &[usize], migrated: &[usize], redecide: &[ClientId]) {
        for &id in redecide {
            // A joiner/mover may have left later in the same batch.
            if let Some(c) = self.ids.index(id) {
                self.decide_contact(c);
            }
        }
        // Zone-scoped violator rescan: unserved violators in zones whose
        // columns this batch touched (their zone-mates changed the
        // forwarding economics, or they were never rescued) retry a
        // relay. Members of migrated zones were already fully re-decided,
        // which wrote fresh certificates for the new target. A certified
        // retry costs a bitset test against the zone's live fit mask
        // unless a server it names has room (`rescan_zone`).
        for &z in touched {
            if !migrated.contains(&z) {
                self.rescan_zone(z);
            }
        }
    }

    /// The violator rescan of one zone: every listed unserved member
    /// retries a relay, under GreC's rule.
    ///
    /// The relay overhead `R^C` is uniform across a zone's members, so
    /// which servers could host a relay at all is a per-zone question,
    /// answered once up front as the **live fit mask**: the servers
    /// other than the target with room for one more relay. An empty
    /// mask skips the whole sweep, and a mask that empties ends it,
    /// which keeps a saturated flash crowd (thousands of unrescuable
    /// violators in one zone, touched by every batch) from costing
    /// O(violators × servers) per flush. Loads only grow while the
    /// sweep books relays, so clearing a server's bit once a booking
    /// leaves it without room keeps the mask exact for the rest of the
    /// sweep.
    ///
    /// A certified entry ANDs its rescue certificate with the mask. An
    /// empty result means no fitting server beats staying on the
    /// target, so the retry would fail and change nothing: it is
    /// skipped without reading the delay row. Otherwise the pick runs
    /// over exactly that intersection and always rescues, choosing the
    /// server the full scan would. An uncertified entry takes one full
    /// pass over the mask, which certifies it if it fails.
    fn rescan_zone(&mut self, z: usize) {
        if self.unserved.len(z) == 0 {
            return;
        }
        let target = self.target_of_zone[z];
        let overhead = self.relay_rate[z];
        let words = self.unserved.words();
        let mut fit = std::mem::take(&mut self.scratch.fit);
        fit.clear();
        fit.resize(words, 0);
        for s in 0..self.inst.num_servers() {
            if s != target && self.fits(s, overhead) {
                set_bit(&mut fit, s);
            }
        }
        let mut live = std::mem::take(&mut self.scratch.live);
        live.clear();
        live.resize(words, 0);
        // A rescued entry is swap-removed from under the cursor
        // (revisit the slot); an unrescued one stays put (advance).
        let mut i = 0;
        while i < self.unserved.len(z) && fit.iter().any(|&w| w != 0) {
            let c = self.unserved.client(z, i);
            self.stats.rescan_retries += 1;
            let relayed = match self.unserved.cert(z, i) {
                Some(cert) => {
                    for ((l, &b), &f) in live.iter_mut().zip(cert).zip(&fit) {
                        *l = b & f;
                    }
                    if live.iter().all(|&w| w == 0) {
                        self.stats.rescan_skipped += 1;
                        i += 1;
                        continue;
                    }
                    self.decide_contact_among(c, set_bits(&live))
                }
                None => self.decide_contact_among(c, set_bits(&fit)),
            };
            if relayed {
                self.stats.rescan_rescued += 1;
                let s = self.contact_of_client[c];
                if !self.fits(s, overhead) {
                    clear_bit(&mut fit, s);
                }
            } else {
                i += 1;
            }
        }
        self.scratch.fit = fit;
        self.scratch.live = live;
    }

    /// GreC's per-client rule: stay on the target when within bound,
    /// otherwise route through the contact minimising `C^R` among
    /// servers with forwarding capacity (ties: lowest index; the target
    /// itself always fits at zero overhead).
    fn decide_contact(&mut self, c: usize) {
        self.decide_contact_among(c, 0..self.inst.num_servers());
    }

    /// [`ServeEngine::decide_contact`] with the relay pick restricted to
    /// `candidates`, in ascending server order ([`ServeEngine::decide_contact`]
    /// passes every server). The relay kernel always evaluates the full
    /// `C^R` row; the candidates only restrict which servers may be
    /// picked, and the fit check here stays authoritative against
    /// loads booked since the caller chose them. A client left unserved
    /// gets its rescue certificate from the same row. Returns whether
    /// `c` ended relayed.
    fn decide_contact_among(
        &mut self,
        c: usize,
        candidates: impl IntoIterator<Item = usize>,
    ) -> bool {
        let z = self.inst.zone_of(c);
        let target = self.target_of_zone[z];
        if self.release_to_target(c, z, target) {
            return false;
        }
        let overhead = self.relay_rate[z];
        let mut costs = std::mem::take(&mut self.scratch.costs);
        costs.resize(self.inst.num_servers(), 0.0);
        self.inst.relay_costs_into(c, target, &mut costs);
        let pick = cheapest_relay(&costs, target, candidates, |s| self.fits(s, overhead));
        match pick {
            Some(s) => {
                self.book_relay(c, z, s);
                self.clear_unserved(z, c);
            }
            None => {
                self.mark_unserved(z, c);
                let pos = self.unserved_pos[c] as usize;
                self.unserved.certify(z, pos, &costs, target);
            }
        }
        self.scratch.costs = costs;
        pick.is_some()
    }

    /// Takes `c`'s relay (if any) off the books and puts it back on
    /// `target`, its zone `z`'s target. Returns `true` when the target is
    /// within the delay bound (`c` is served directly and leaves the
    /// unserved list), `false` when `c` still needs a relay.
    #[inline]
    fn release_to_target(&mut self, c: usize, z: usize, target: usize) -> bool {
        self.unrelay(c);
        self.contact_of_client[c] = target;
        let direct = self.inst.obs_cs(c, target) <= self.inst.delay_bound();
        if direct {
            self.clear_unserved(z, c);
        }
        direct
    }

    /// Books `c`, a member of zone `z`, as relayed through `contact`:
    /// its contact, its shed-list entry with position, and one relay of
    /// `z` through `contact` at the zone's booked rate.
    #[inline]
    fn book_relay(&mut self, c: usize, z: usize, contact: usize) {
        self.contact_of_client[c] = contact;
        self.book_forwarding(z, contact);
        self.relay_pos_server[c] = list_pos(self.relayed_of_server[contact].len());
        self.relayed_of_server[contact].push(c);
    }

    /// Adds one relay of zone `z` through `contact` to the books, at the
    /// zone's booked rate.
    #[inline]
    fn book_forwarding(&mut self, z: usize, contact: usize) {
        self.relay_count[z * self.inst.num_servers() + contact] += 1;
        self.forward_load[contact] += self.relay_rate[z];
    }

    /// Takes one relay of zone `z` through `contact` off the books.
    #[inline]
    fn unbook_forwarding(&mut self, z: usize, contact: usize) {
        self.relay_count[z * self.inst.num_servers() + contact] -= 1;
        self.forward_load[contact] -= self.relay_rate[z];
    }

    /// Adds `c` to zone `z`'s unserved list, uncertified (no-op when
    /// already listed). `z` must be `c`'s current zone.
    fn mark_unserved(&mut self, z: usize, c: usize) {
        if self.unserved_pos[c] == NOT_LISTED {
            self.unserved_pos[c] = list_pos(self.unserved.len(z));
            self.unserved.push(z, c);
        }
    }

    /// Removes `c` from zone `z`'s unserved list (no-op when not
    /// listed). `z` must be the zone whose list holds `c`.
    fn clear_unserved(&mut self, z: usize, c: usize) {
        let pos = self.unserved_pos[c];
        if pos != NOT_LISTED {
            self.unserved_pos[c] = NOT_LISTED;
            if let Some(moved) = self.unserved.swap_remove(z, pos as usize) {
                self.unserved_pos[moved] = pos;
            }
        }
    }

    /// Takes `c`'s relay off the books when it is relayed: its
    /// shed-list entry, and one relay of its current zone through its
    /// contact.
    fn unrelay(&mut self, c: usize) {
        let pos = self.relay_pos_server[c];
        if pos == NOT_LISTED {
            return;
        }
        let contact = self.contact_of_client[c];
        let list = &mut self.relayed_of_server[contact];
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            self.relay_pos_server[moved] = pos;
        }
        self.relay_pos_server[c] = NOT_LISTED;
        self.unbook_forwarding(self.inst.zone_of(c), contact);
    }

    /// The load books a rebuild from the current targets and contacts
    /// gives: every relay booked at its zone's current rate. O(k + n·m).
    fn rebuilt_books(&self) -> LoadBooks {
        let inst = &self.inst;
        let m = inst.num_servers();
        let mut books = LoadBooks {
            zone_load: vec![0; m],
            forward_load: vec![0; m],
            relay_count: vec![0; inst.num_zones() * m],
            relay_rate: (0..inst.num_zones())
                .map(|z| relay_units(inst.clients_in_zone(z).len()))
                .collect(),
        };
        for (z, &s) in self.target_of_zone.iter().enumerate() {
            books.zone_load[s] += self.zone_demand(z);
        }
        for (c, &contact) in self.contact_of_client.iter().enumerate() {
            let z = inst.zone_of(c);
            if contact != self.target_of_zone[z] {
                books.relay_count[z * m + contact] += 1;
                books.forward_load[contact] += books.relay_rate[z];
            }
        }
        books
    }

    /// Books the boot assignment from scratch: loads, capacities, the
    /// hosted-zone, shed and unserved lists (each in index order).
    fn boot_books(&mut self) {
        let m = self.inst.num_servers();
        let books = self.rebuilt_books();
        self.zone_load = books.zone_load;
        self.forward_load = books.forward_load;
        self.relay_count = books.relay_count;
        self.relay_rate = books.relay_rate;
        let headroom = self.config.degradation.headroom;
        self.cap = (0..m)
            .map(|s| capacity_units(self.inst.capacity(s), self.unit_bps))
            .collect();
        self.admit_cap = (0..m)
            .map(|s| admission_units(self.inst.capacity(s), headroom, self.unit_bps))
            .collect();
        self.zones_of_server = vec![Vec::new(); m];
        for (z, &s) in self.target_of_zone.iter().enumerate() {
            self.zones_of_server[s].push(z);
        }
        self.relayed_of_server = vec![Vec::new(); m];
        self.unserved = UnservedLists::new(self.inst.num_zones(), m);
        let k = self.inst.num_clients();
        self.unserved_pos.resize(k, NOT_LISTED);
        self.relay_pos_server.resize(k, NOT_LISTED);
        for c in 0..k {
            let contact = self.contact_of_client[c];
            let z = self.inst.zone_of(c);
            let target = self.target_of_zone[z];
            if contact != target {
                self.relay_pos_server[c] = list_pos(self.relayed_of_server[contact].len());
                self.relayed_of_server[contact].push(c);
            } else if self.inst.obs_cs(c, target) > self.inst.delay_bound() {
                self.mark_unserved(z, c);
            }
        }
        self.capacity_ok = self.within_capacity();
    }

    /// Client `c`'s rescue certificate toward `target`, from a full
    /// `rap_cost` pass: bit `s` set iff `s != target` and `C^R(c, s,
    /// target) < C^R(c, target, target)`.
    fn fresh_certificate(&self, c: usize, target: usize) -> Vec<Word> {
        let m = self.inst.num_servers();
        let direct = self.inst.rap_cost(c, target, target);
        let mut cert = vec![0; m.div_ceil(WORD_BITS)];
        for s in (0..m).filter(|&s| s != target) {
            if self.inst.rap_cost(c, s, target) < direct {
                set_bit(&mut cert, s);
            }
        }
        cert
    }

    /// Checks every carried book against a rebuild from the targets,
    /// the contacts and the instance, comparing with `==`: the cost
    /// matrix, the capacities and admission lines in stream units, the
    /// per-zone rates, the zone and forwarding loads, the relay
    /// counts, the shed lists and relay marks, the hosted-zone book, the
    /// unserved lists and their certificates, the id table, and the
    /// feasibility flag. The loads are also compared in bits/s with
    /// `Assignment::server_loads`, the reference that shares no unit
    /// formula with the books. The error names the first book found out
    /// of step. O(k·m); a soak run or a live server can call it between
    /// flushes.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let inst = &self.inst;
        let (k, m, n) = (inst.num_clients(), inst.num_servers(), inst.num_zones());
        let lengths_match = [
            self.contact_of_client.len(),
            self.id_of_client.len(),
            self.unserved_pos.len(),
            self.relay_pos_server.len(),
        ]
        .iter()
        .all(|&len| len == k)
            && self.target_of_zone.len() == n;
        if !lengths_match
            || self.target_of_zone.iter().any(|&s| s >= m)
            || self.contact_of_client.iter().any(|&s| s >= m)
        {
            return Err(InvariantViolation::Shape);
        }
        self.check_ids()?;
        let headroom = self.config.degradation.headroom;
        for s in 0..m {
            let capacity = inst.capacity(s);
            if self.cap[s] != capacity_units(capacity, self.unit_bps)
                || self.admit_cap[s] != admission_units(capacity, headroom, self.unit_bps)
                || (self.down[s] && capacity != 0.0)
            {
                return Err(InvariantViolation::Capacity { server: s });
            }
        }
        let books = self.rebuilt_books();
        if let Some(zone) = (0..n).find(|&z| {
            self.relay_rate[z] != books.relay_rate[z]
                || inst.zone_bps(z) != self.model.zone_bps(inst.clients_in_zone(z).len())
        }) {
            return Err(InvariantViolation::ZoneRate { zone });
        }
        if let Some(server) = (0..m).find(|&s| self.zone_load[s] != books.zone_load[s]) {
            return Err(InvariantViolation::ZoneLoad { server });
        }
        if let Some(server) = (0..m).find(|&s| self.forward_load[s] != books.forward_load[s]) {
            return Err(InvariantViolation::ForwardLoad { server });
        }
        // The rebuild shares the unit formulas with the incremental
        // books, so the loads are also held to the bits/s reference,
        // `Assignment::server_loads` over the instance's `R_z` and
        // `R^C_c`. A whole-bps stream rate makes every term and sum
        // exact in f64 (below 2^53); otherwise the sums round, by about
        // 1e-10 of a load over a million terms.
        let exact = self.unit_bps.fract() == 0.0;
        let agrees = |units: u64, bps: f64| {
            let booked = units as f64 * self.unit_bps;
            booked == bps || (!exact && (booked - bps).abs() <= 1e-9 * bps.abs().max(1.0))
        };
        let mut hosted_bps = vec![0.0; m];
        for (z, &s) in self.target_of_zone.iter().enumerate() {
            hosted_bps[s] += inst.zone_bps(z);
        }
        let reference = self.assignment().server_loads(inst);
        for s in 0..m {
            if !agrees(self.zone_load[s], hosted_bps[s]) {
                return Err(InvariantViolation::ZoneLoad { server: s });
            }
            if !agrees(self.load(s), reference[s]) {
                return Err(InvariantViolation::ForwardLoad { server: s });
            }
        }
        if let Some(i) = (0..n * m).find(|&i| self.relay_count[i] != books.relay_count[i]) {
            return Err(InvariantViolation::RelayCount {
                zone: i / m,
                server: i % m,
            });
        }
        // Shed lists: exactly the relayed clients, each once, on its
        // contact's list at its recorded position.
        let mut listed = 0;
        for (s, list) in self.relayed_of_server.iter().enumerate() {
            for (pos, &c) in list.iter().enumerate() {
                if c >= k
                    || self.contact_of_client[c] != s
                    || self.relay_pos_server[c] as usize != pos
                {
                    return Err(InvariantViolation::RelayList { client: c });
                }
            }
            listed += list.len();
        }
        let mut relayed = 0;
        for c in 0..k {
            let marked = self.relay_pos_server[c] != NOT_LISTED;
            if marked != (self.contact_of_client[c] != self.target_of_zone[inst.zone_of(c)]) {
                return Err(InvariantViolation::RelayList { client: c });
            }
            relayed += usize::from(marked);
        }
        if listed != relayed {
            return Err(InvariantViolation::RelayList { client: k });
        }
        // Hosted-zone book: exactly the inverse of the zone → server map.
        let mut hosted = vec![0usize; n];
        for (s, list) in self.zones_of_server.iter().enumerate() {
            for &z in list {
                if z >= n || self.target_of_zone[z] != s {
                    return Err(InvariantViolation::HostedZones { zone: z });
                }
                hosted[z] += 1;
            }
        }
        if let Some(zone) = hosted.iter().position(|&h| h != 1) {
            return Err(InvariantViolation::HostedZones { zone });
        }
        self.check_unserved()?;
        if self.capacity_ok != self.within_capacity() {
            return Err(InvariantViolation::Feasibility);
        }
        if self.matrix != CostMatrix::build(inst) {
            return Err(InvariantViolation::CostMatrix);
        }
        Ok(())
    }

    /// The id table against the index → id map, the pending buffer and
    /// the deferred queue.
    fn check_ids(&self) -> Result<(), InvariantViolation> {
        let census = self.ids.census().ok_or(InvariantViolation::IdTable)?;
        let mut joins = 0;
        let mut leaves = 0;
        for ev in &self.pending {
            let ok = match *ev {
                Pending::Join { id, .. } => {
                    joins += 1;
                    matches!(self.ids.state(id), IdState::Joining { .. })
                }
                Pending::Leave { id, .. } => {
                    leaves += 1;
                    matches!(
                        self.ids.state(id),
                        IdState::Joining { leaving: true } | IdState::Live { leaving: true, .. }
                    )
                }
                Pending::Move { .. } => true,
            };
            if !ok {
                return Err(InvariantViolation::IdTable);
            }
        }
        let consistent = census.live == self.id_of_client.len()
            && census.joining == joins
            && census.leaving == leaves
            && census.deferred == self.deferred.len()
            && self
                .id_of_client
                .iter()
                .enumerate()
                .all(|(c, &id)| self.ids.index(id) == Some(c))
            && self
                .deferred
                .iter()
                .all(|d| self.ids.state(d.id) == IdState::Deferred);
        if consistent {
            Ok(())
        } else {
            Err(InvariantViolation::IdTable)
        }
    }

    /// The unserved lists against the on-target violators, with their
    /// positions and every written certificate.
    fn check_unserved(&self) -> Result<(), InvariantViolation> {
        let inst = &self.inst;
        let lists = &self.unserved;
        for z in 0..inst.num_zones() {
            let target = self.target_of_zone[z];
            let mut expected: Vec<usize> = inst
                .clients_in_zone(z)
                .iter()
                .copied()
                .filter(|&c| {
                    inst.obs_cs(c, target) > inst.delay_bound()
                        && self.contact_of_client[c] == target
                })
                .collect();
            let mut got: Vec<usize> = (0..lists.len(z)).map(|pos| lists.client(z, pos)).collect();
            expected.sort_unstable();
            got.sort_unstable();
            if got != expected || !lists.zones[z].len().is_multiple_of(lists.stride) {
                return Err(InvariantViolation::UnservedList { zone: z });
            }
            for pos in 0..lists.len(z) {
                let c = lists.client(z, pos);
                if self.unserved_pos[c] as usize != pos {
                    return Err(InvariantViolation::UnservedList { zone: z });
                }
                if let Some(cert) = lists.cert(z, pos) {
                    if cert != self.fresh_certificate(c, target).as_slice() {
                        return Err(InvariantViolation::Certificate { zone: z, client: c });
                    }
                }
            }
        }
        let listed = (0..inst.num_zones()).map(|z| lists.len(z)).sum::<usize>();
        let marked = self
            .unserved_pos
            .iter()
            .filter(|&&p| p != NOT_LISTED)
            .count();
        if listed != marked {
            return Err(InvariantViolation::UnservedList {
                zone: inst.num_zones(),
            });
        }
        Ok(())
    }
}

/// The load books of [`ServeEngine::rebuilt_books`], in stream units.
struct LoadBooks {
    zone_load: Vec<u64>,
    forward_load: Vec<u64>,
    relay_count: Vec<u32>,
    relay_rate: Vec<u64>,
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
/// [`run_stream`]. Every tick's moves arrive at its boundary
/// ([`InterArrival::AtTick`]) and quality is evaluated exactly.
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
        InterArrival::AtTick,
        QualityEstimator::Exact,
    )
}

/// [`run_mobility_stream`] with explicit event timing and
/// [`QualityEstimator`] — the form the million-tier mobility runs use,
/// where the per-tick O(k) exact evaluation (and a forced flush per
/// tick) would swamp the serving work. The two behaviors `arrival`
/// selects:
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
    arrival: InterArrival,
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
    let timed = !matches!(arrival, InterArrival::AtTick);
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
            for (at, event) in model.timed_events(&world, arrival, &mut rng) {
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

    /// Boots an engine on a random world whose delays are whole
    /// milliseconds. Server hops are halved by the provisioning factor,
    /// so every `C^R` is an exact multiple of 0.5 ms and ties between
    /// servers are common. Flushes run only when the test calls them.
    fn integer_delay_engine(seed: u64) -> ServeEngine {
        use dve_assign::DelayLayout;
        use dve_topology::DelayMatrix;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = 24;
        let mut rtt = vec![0.0; nodes * nodes];
        for a in 0..nodes {
            for b in a + 1..nodes {
                let d = f64::from(rng.gen_range(40u32..=320));
                rtt[a * nodes + b] = d;
                rtt[b * nodes + a] = d;
            }
        }
        let matrix = DelayMatrix::from_raw(nodes, rtt).expect("square matrix");
        let config = ScenarioConfig::from_notation("6s-10z-240c-110cp").unwrap();
        let world = World::generate(&config, nodes, &[0; 24], &mut rng).expect("world fits");
        let delays = WorldDelays::from_matrix(matrix, &world);
        let inst = CapInstance::from_world(
            &world,
            &delays,
            0.5,
            250.0,
            ErrorModel::PERFECT,
            DelayLayout::Dense64,
            &mut rng,
        );
        ServeEngine::new(
            inst,
            &world,
            delays,
            ErrorModel::PERFECT,
            StuckPolicy::BestEffort,
            ServeConfig {
                max_batch: 10_000,
                max_staleness: 10_000,
                ..Default::default()
            },
            rng,
        )
        .expect("best effort always boots")
    }

    /// Pushes a random batch of joins, leaves and moves (refusals, such
    /// as a second leave of one client, are dropped) and flushes it.
    fn random_flush(engine: &mut ServeEngine, rng: &mut StdRng) {
        use rand::Rng;
        let zones = engine.instance().num_zones();
        for _ in 0..rng.gen_range(1..24) {
            let k = engine.num_clients();
            let event = match rng.gen_range(0..3) {
                0 => StreamEvent::Join {
                    node: rng.gen_range(0..engine.nodes()),
                    zone: rng.gen_range(0..zones),
                },
                1 if k > 40 => StreamEvent::Leave {
                    id: engine.id_at(rng.gen_range(0..k)),
                },
                _ => StreamEvent::Move {
                    id: engine.id_at(rng.gen_range(0..k)),
                    zone: rng.gen_range(0..zones),
                },
            };
            let _ = engine.push(event);
        }
        engine.flush_now();
    }

    /// Fails or restores a random server.
    fn random_fault(engine: &mut ServeEngine, rng: &mut StdRng) {
        use rand::Rng;
        let s = rng.gen_range(0..engine.instance().num_servers());
        if engine.is_server_down(s) {
            engine.restore_server(s).expect("in range");
        } else {
            engine.fail_server(s).expect("in range");
        }
    }

    /// For every certified unserved entry, under the engine's live
    /// loads: the certificate ANDed with the zone's fit mask is empty
    /// exactly when GreC's full `rap_cost` scan finds no relay, and
    /// otherwise the pick over the intersection is the full scan's
    /// server. Returns how many entries (skipped, rescued) the
    /// certificates decided.
    fn check_certificates_against_full_scan(engine: &ServeEngine) -> (usize, usize) {
        let inst = engine.instance();
        let (m, words) = (inst.num_servers(), engine.unserved.words());
        let lists = &engine.unserved;
        let mut costs = vec![0.0; m];
        let (mut skipped, mut rescued) = (0, 0);
        for z in 0..inst.num_zones() {
            if lists.len(z) == 0 {
                continue;
            }
            let member = lists.client(z, 0);
            let target = engine.targets()[z];
            // The fit in bits/s, as the f64 books judged it: the unit
            // books must give the same verdicts.
            let overhead = inst.client_forwarding_bps(member);
            let fits = |s: usize| {
                let load = engine.load(s) as f64 * engine.unit_bps;
                let verdict = load + overhead <= inst.capacity(s) + 1e-9;
                assert_eq!(verdict, engine.fits(s, engine.relay_rate[z]));
                verdict
            };
            let mut fit = vec![0; words];
            for s in (0..m).filter(|&s| s != target && fits(s)) {
                set_bit(&mut fit, s);
            }
            for pos in 0..lists.len(z) {
                let c = lists.client(z, pos);
                let Some(cert) = lists.cert(z, pos) else {
                    continue;
                };
                let mut full = (inst.rap_cost(c, target, target), target);
                for s in (0..m).filter(|&s| s != target && fits(s)) {
                    let cost = inst.rap_cost(c, s, target);
                    if cost < full.0 {
                        full = (cost, s);
                    }
                }
                let live: Vec<Word> = cert.iter().zip(&fit).map(|(b, f)| b & f).collect();
                let skip = live.iter().all(|&w| w == 0);
                assert_eq!(
                    skip,
                    full.1 == target,
                    "zone {z}: client {c}'s certificate skips iff the full scan fails"
                );
                if skip {
                    skipped += 1;
                } else {
                    inst.relay_costs_into(c, target, &mut costs);
                    let pick = cheapest_relay(&costs, target, set_bits(&live), fits);
                    assert_eq!(pick, Some(full.1), "zone {z}: client {c} rescued elsewhere");
                    rescued += 1;
                }
            }
        }
        (skipped, rescued)
    }

    /// Property: on random integer-delay instances, through random
    /// population changes (joins, leaves, moves: loads and `R^C`
    /// change), server failures and restores, every rescue certificate
    /// stays exact for its zone's current target, skips exactly when
    /// the full `rap_cost` scan fails, and otherwise picks the full
    /// scan's server.
    #[test]
    fn certificates_skip_exactly_when_the_full_scan_fails() {
        use rand::Rng;
        let (mut skipped, mut rescued) = (0, 0);
        for seed in 0..12u64 {
            let mut engine = integer_delay_engine(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xce27);
            for _ in 0..40 {
                if rng.gen_bool(0.15) {
                    random_fault(&mut engine, &mut rng);
                } else {
                    random_flush(&mut engine, &mut rng);
                }
                engine.check_invariants().unwrap();
                let (s, r) = check_certificates_against_full_scan(&engine);
                skipped += s;
                rescued += r;
            }
        }
        assert!(
            skipped > 0 && rescued > 0,
            "the property must see both verdicts: {skipped} skips, {rescued} rescues"
        );
    }

    /// A certified rescan retry that the fit mask did not skip always
    /// rescues. Before each step every listed violator is certified by a
    /// full pass, so every retry of the step's rescans is certified, and
    /// the counters must split into skips and rescues exactly. Leaves,
    /// moves and restores free capacity between certification and
    /// retry, so certified retries do reach the pick; relays booked
    /// during a sweep fill servers, so the mask's updates are exercised.
    #[test]
    fn certified_retries_the_mask_keeps_always_rescue() {
        use rand::Rng;
        let (mut skipped, mut rescued) = (0, 0);
        for seed in 0..12u64 {
            let mut engine = integer_delay_engine(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7);
            for _ in 0..40 {
                let lists = &engine.unserved;
                let listed: Vec<usize> = (0..lists.zones.len())
                    .flat_map(|z| (0..lists.len(z)).map(move |pos| lists.client(z, pos)))
                    .collect();
                for c in listed {
                    if engine.unserved_pos[c] != NOT_LISTED {
                        engine.decide_contact(c);
                    }
                }
                let lists = &engine.unserved;
                assert!((0..lists.zones.len())
                    .all(|z| (0..lists.len(z)).all(|pos| lists.cert(z, pos).is_some())));
                let before = engine.stats().clone();
                if rng.gen_bool(0.15) {
                    random_fault(&mut engine, &mut rng);
                } else {
                    random_flush(&mut engine, &mut rng);
                }
                let stats = engine.stats();
                let retries = stats.rescan_retries - before.rescan_retries;
                let step_skipped = stats.rescan_skipped - before.rescan_skipped;
                let step_rescued = stats.rescan_rescued - before.rescan_rescued;
                assert_eq!(
                    retries,
                    step_skipped + step_rescued,
                    "seed {seed}: a certified retry the mask let through failed"
                );
                skipped += step_skipped;
                rescued += step_rescued;
                engine.check_invariants().unwrap();
            }
        }
        assert!(
            skipped > 0 && rescued > 0,
            "the rescans must both skip and rescue: {skipped} skips, {rescued} rescues"
        );
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
        engine.check_invariants().unwrap();
    }

    /// Boot leaves room for k/8 joiners in every per-client book, so
    /// the first k/8 joins after boot — here all in one flush — grow
    /// (and so copy) none of them. The two position books hold one
    /// `u32` per client, and the id table one `u32` per id in pages,
    /// whose page list has room for the joiners' pages.
    #[test]
    fn first_joins_after_boot_reallocate_no_population_array() {
        let mut engine = boot_engine(&small_setup(), ServeConfig::default());
        let k = engine.num_clients();
        for book in [&engine.unserved_pos, &engine.relay_pos_server] {
            assert_eq!(std::mem::size_of_val(book.as_slice()), 4 * k);
        }
        assert_eq!(engine.ids.resident_pages(), k.div_ceil(crate::ids::PAGE));
        let books = |e: &ServeEngine| {
            [
                (
                    e.contact_of_client.as_ptr() as usize,
                    e.contact_of_client.capacity(),
                ),
                (e.id_of_client.as_ptr() as usize, e.id_of_client.capacity()),
                (e.unserved_pos.as_ptr() as usize, e.unserved_pos.capacity()),
                (
                    e.relay_pos_server.as_ptr() as usize,
                    e.relay_pos_server.capacity(),
                ),
                e.ids.page_list(),
            ]
        };
        let before = books(&engine);
        let zones = engine.instance().num_zones();
        for i in 0..k / 8 {
            let joined = engine.push(StreamEvent::Join {
                node: i % engine.nodes(),
                zone: i % zones,
            });
            assert!(matches!(joined, Ok(Some(_))), "join {i} was admitted");
        }
        engine.flush_now();
        assert_eq!(engine.num_clients(), k + k / 8);
        assert_eq!(
            books(&engine),
            before,
            "a join reallocated a per-client book"
        );
        engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();

        engine.push(StreamEvent::Move { id, zone: 2 }).unwrap();
        assert_eq!(engine.instance().zone_of(engine.index_of(id).unwrap()), 2);
        engine.push(StreamEvent::Leave { id }).unwrap();
        assert_eq!(engine.num_clients(), 120);
        assert_eq!(engine.index_of(id), None);
        engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
        // The Join, the Move and the Leave of the one id all commit.
        assert_eq!(engine.flush_now().unwrap().events, 3);
        assert_eq!(engine.stats().events, 3);
        assert_eq!(engine.stats().latency.count(), 3);
        assert_eq!(engine.num_clients(), 120);
        assert_eq!(engine.index_of(id), None);
        engine.check_invariants().unwrap();
    }

    /// A departed id is gone for good: a Leave or Move of it reads
    /// `UnknownClient`, before and after its page is freed, and the
    /// engine never issues it again.
    #[test]
    fn departed_ids_read_unknown_and_are_never_issued_again() {
        let mut engine = boot_engine(&small_setup(), ServeConfig::default());
        let joined = engine
            .push(StreamEvent::Join { node: 0, zone: 1 })
            .unwrap()
            .unwrap();
        for id in [5, joined] {
            engine.push(StreamEvent::Leave { id }).unwrap();
        }
        engine.flush_now();
        engine.check_invariants().unwrap();
        for id in [5, joined] {
            assert_eq!(
                engine.push(StreamEvent::Leave { id }),
                Err(ServeError::UnknownClient { id })
            );
            assert_eq!(
                engine.push(StreamEvent::Move { id, zone: 0 }),
                Err(ServeError::UnknownClient { id })
            );
        }
        // Cycle more than a page of ids through the population, oldest
        // out first, so every id of the first page departs and the page
        // is freed.
        let mut live: VecDeque<ClientId> =
            (0..engine.num_clients()).map(|c| engine.id_at(c)).collect();
        let mut issued = vec![joined];
        for i in 0..crate::ids::PAGE + live.len() {
            let id = engine
                .push(StreamEvent::Join {
                    node: i % engine.nodes(),
                    zone: i % 15,
                })
                .unwrap()
                .unwrap();
            assert!(id > *issued.last().unwrap(), "ids are issued in sequence");
            issued.push(id);
            live.push_back(id);
            let oldest = live.pop_front().unwrap();
            engine.push(StreamEvent::Leave { id: oldest }).unwrap();
        }
        engine.flush_now();
        engine.check_invariants().unwrap();
        assert!(*live.front().unwrap() >= crate::ids::PAGE as ClientId);
        assert_eq!(engine.ids.resident_pages(), 1, "the first page was freed");
        for id in [0, 5, joined, issued[crate::ids::PAGE / 2]] {
            assert_eq!(
                engine.push(StreamEvent::Move { id, zone: 0 }),
                Err(ServeError::UnknownClient { id })
            );
        }
    }

    /// Property: the stream-unit verdicts equal the bits/s verdicts —
    /// a fit `load + overhead ≤ capacity + 1e-9` and an admission
    /// `load ≤ (1 − headroom)·capacity + 1e-9`,
    /// with loads that are whole multiples of f·S — at each converted
    /// boundary, one unit below it and one unit above it. Capacities:
    /// random whole and fractional bits/s, a `RandomHeterogeneous`
    /// world's, and 0; two bandwidth models.
    #[test]
    fn unit_verdicts_equal_the_f64_books_at_every_boundary() {
        use dve_world::CapacityPolicy;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x0c4b);
        let mut capacities = vec![0.0];
        for _ in 0..500 {
            capacities.push(rng.gen_range(0.0..1e9));
            capacities.push(rng.gen_range(0u64..1_000_000_000) as f64);
            capacities.push(rng.gen_range(0.0..1e5));
        }
        let mut config = ScenarioConfig::from_notation("100s-100z-1000c-65000cp").unwrap();
        config.capacity_policy = CapacityPolicy::RandomHeterogeneous;
        let world = World::generate(&config, 128, &[0; 128], &mut rng).expect("world fits");
        let heterogeneous: Vec<f64> = world.servers.iter().map(|s| s.capacity_bps).collect();
        assert!(heterogeneous.iter().any(|c| c.fract() != 0.0));
        capacities.extend(heterogeneous);
        let models = [
            BandwidthModel::default(),
            BandwidthModel {
                msgs_per_sec: 30.0,
                msg_bytes: 60.0,
            },
        ];
        for model in models {
            let unit = model.stream_bps();
            for &capacity in &capacities {
                let cap = capacity_units(capacity, unit);
                let n = rng.gen_range(1..300);
                let (relay, overhead) = (relay_units(n), model.client_forwarding_bps(n));
                for q in [cap.saturating_sub(1), cap, cap + 1] {
                    let load = q as f64 * unit;
                    assert_eq!(
                        q <= cap,
                        load <= capacity + 1e-9,
                        "capacity {capacity}, load {q} units"
                    );
                    if let Some(rest) = q.checked_sub(relay) {
                        assert_eq!(
                            rest + relay <= cap,
                            rest as f64 * unit + overhead <= capacity + 1e-9,
                            "capacity {capacity}, load {rest} units + a relay of {relay}"
                        );
                    }
                }
                let headroom = rng.gen_range(0.0..1.0);
                let admit = admission_units(capacity, headroom, unit);
                for q in [admit.saturating_sub(1), admit, admit + 1] {
                    assert_eq!(
                        q <= admit,
                        q as f64 * unit <= (1.0 - headroom) * capacity + 1e-9,
                        "capacity {capacity}, headroom {headroom}, load {q} units"
                    );
                }
            }
        }
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
            engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
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
            ..Default::default()
        };
        let arrival = InterArrival::Exponential {
            mean_gap_ticks: 0.02,
        };
        let report = run_mobility_stream_with(
            &setup,
            0,
            &model,
            6,
            StuckPolicy::BestEffort,
            timed_config,
            arrival,
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
            arrival,
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
        engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
    }

    /// A zero-event ingest bound would refuse every push, Leaves
    /// included, and a retry after a flush would be refused again: the
    /// engine rejects it at boot.
    #[test]
    #[should_panic(expected = "max_pending must be at least 1")]
    fn zero_max_pending_is_rejected_at_boot() {
        boot_engine(
            &small_setup(),
            ServeConfig {
                degradation: DegradationPolicy {
                    max_pending: Some(0),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
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
            engine.check_invariants().unwrap();

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
            engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
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
        engine.check_invariants().unwrap();
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
            engine.check_invariants().unwrap();
        }
        assert_eq!(engine.num_clients(), live.len());
        assert!(engine.stats().flushes >= 50);
    }
}
