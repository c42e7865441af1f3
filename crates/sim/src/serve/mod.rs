//! Always-on streaming serving engine: per-event churn with bounded
//! latency.
//!
//! A production DVE serves a continuous stream of joins, leaves, and
//! zone moves, and its operative SLO is *per-event latency*, not
//! per-epoch throughput. [`ServeEngine`] is that serving layer: an
//! online engine addressed by stable [`ClientId`]s. Events are buffered
//! into micro-batches (never coalesced: each accepted event is applied)
//! under a [`ServeConfig`] policy (flush at `max_batch` buffered events,
//! or after `max_staleness` idle [`ServeEngine::tick`]s), then applied
//! **in place**: the carried [`CapInstance`] advances by slot-recycling
//! swap-remove ops (`stream_leave`/`stream_join`/`stream_move`), the
//! carried [`CostMatrix`] by per-client column updates with a deferred
//! per-touched-zone refresh. No O(k) work happens anywhere in a flush.
//!
//! The engine is built in layers, one file each, with the paper's two
//! phases apart:
//!
//! * **Books** (`books.rs`) — the load books of the bandwidth model
//!   (§2.1) in whole stream units f·S, so their sums are exact and do
//!   not depend on order; converted from bits/s once per capacity
//!   change.
//! * **Targets** (`targets.rs`, the IAP phase) — after a flush the
//!   engine re-examines only the zones the micro-batch touched: a shift
//!   sweep (the rule of
//!   [`repair_assignment_with`](crate::repair_assignment_with)'s step
//!   2) over touched columns, and scoped evacuation of servers pushed
//!   over capacity.
//!   When an overload cannot be evacuated locally and the engine was
//!   feasible before the flush, it **falls back** to the global
//!   zone-level repair ([`repair_targets_with`](crate::repair_targets_with)),
//!   applying each changed target through the scoped zone migration.
//!   Server failure and recovery run the mass evacuation and the
//!   re-admission sweep.
//! * **Contacts** (`contacts.rs`, the RAP phase) — contact re-decisions
//!   for joiners, movers, migrated-zone members and the touched zones'
//!   unserved violators (incrementally maintained per-zone lists, so no
//!   flush rescans a zone's membership), each by GreC's per-client rule
//!   over one full `C^R` row, with rescue certificates that let a
//!   failed retry skip the delay row.
//! * **Check** (`check.rs`) — [`ServeEngine::check_invariants`]
//!   rebuilds every book from the targets and contacts and compares
//!   with `==`.
//!
//! Clients are found by id in a paged `u32` table ([`IdTable`]) that
//! also holds the pending-join, deferred and leaving marks.
//!
//! Divergence contract: the carried instance and cost matrix stay
//! bit-identical to fresh builds of the engine's state after every
//! flush (property-tested; `check_invariants` compares the matrix), but
//! client indices follow swap-remove rather than the batch world's
//! order-preserving compaction, and contacts are repaired incrementally
//! rather than re-derived by a global GreC. So served pQoS tracks a
//! fresh GreZ + GreC solve of the live instance closely without being
//! float-identical (`stream_fast_path_tracks_batch_quality` bounds the
//! gap). All capacity accounting is exact either way.

mod books;
mod check;
mod contacts;
mod targets;
#[cfg(test)]
mod test_support;
#[cfg(test)]
mod tests;

pub use check::InvariantViolation;
pub use targets::{FailoverReport, RestoreReport};

use crate::ids::{IdState, IdTable};
use crate::stats::LatencyHistogram;
use books::LoadBooks;
use contacts::Contacts;
use dve_assign::{
    evaluate, grec, grez_with, Assignment, CapInstance, CostMatrix, IapError, Metrics, StuckPolicy,
};
use dve_world::{BandwidthModel, ErrorModel, World, WorldDelays};
use rand::rngs::StdRng;
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
/// the trace drivers built on it) refused to do what was asked. Every
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
    /// trace drivers return instead of panicking on infeasible seeds.
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
    /// (the [`InterArrival::Exponential`](dve_world::InterArrival::Exponential)
    /// mode of [`run_mobility_stream`](crate::run_mobility_stream))
    /// makes it a wall-clock deadline.
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

/// Lifetime counters of a [`ServeEngine`].
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Events applied. A Move into the client's own zone is applied as
    /// a no-op and counted.
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
    /// The load books, in stream units.
    books: LoadBooks,
    /// The contact layer: contacts, shed and unserved lists.
    contacts: Contacts,
    /// Zones currently hosted by each server (the inverse of
    /// `target_of_zone`), so evacuations list a server's zones without
    /// scanning the whole zone table — under a flash crowd dozens of
    /// servers can sit overloaded on every flush. Unordered; entries are
    /// swap-removed.
    zones_of_server: Vec<Vec<usize>>,
    /// Whether every server was within capacity at the end of the last
    /// flush (initially: of the initial assignment).
    capacity_ok: bool,
    /// Per-server failure flags ([`ServeEngine::fail_server`]). A down
    /// server carries capacity 0, so every fit check in the repair path
    /// excludes it without special cases.
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
    /// mark ([`IdTable`]): one `u32` per id, paged.
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
/// lifecycle"). The contact layer keeps its own.
#[derive(Debug, Default)]
struct FlushScratch {
    /// `flush_now`'s touched-zone accumulator (also the all-zones list
    /// of the restore sweep).
    touched: Vec<usize>,
    /// `flush_now`'s redecide-id accumulator.
    redecide: Vec<ClientId>,
    /// `repair_targets`' migrated-zone accumulator.
    migrated: Vec<usize>,
    /// `evacuate`'s servers-with-headroom list.
    room: Vec<usize>,
    /// `evacuate`/`fail_server`'s sorted hosted-zone list.
    evac_zones: Vec<usize>,
}

impl ServeEngine {
    /// Boots an engine on an instance built from `world`: solves the
    /// initial assignment (GreZ + GreC), builds the carried
    /// [`CostMatrix`] and the incremental load books, and numbers the
    /// initial clients `0..k` in index order.
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
        // GreC sizes the contact book with the instance's spare capacity
        // for k/8 joiners; every other per-client book gets the same.
        // Growing a population-sized book copies it inside a flush, so
        // the first joins after boot must grow none of them.
        let contact_of_client = grec(&instance, &target_of_zone);
        let capacity = contact_of_client.capacity();
        let contacts = Contacts::boot(&instance, &target_of_zone, contact_of_client);
        let (k, m) = (instance.num_clients(), instance.num_servers());
        let mut id_of_client = Vec::with_capacity(capacity);
        id_of_client.extend(0..k as ClientId);
        let mut zones_of_server = vec![Vec::new(); m];
        for (z, &s) in target_of_zone.iter().enumerate() {
            zones_of_server[s].push(z);
        }
        let books = books_of(
            &instance,
            &model,
            config.degradation.headroom,
            &target_of_zone,
            contacts.as_slice(),
        );
        Ok(ServeEngine {
            capacity_ok: books.within_capacity(),
            books,
            contacts,
            zones_of_server,
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
        })
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
        self.contacts.as_slice()
    }

    /// Lifetime counters, including the per-event latency histogram.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Bytes allocated for the rescue certificates of the unserved
    /// violator lists (diagnostics for the memory ceilings).
    pub fn certificate_bytes(&self) -> usize {
        self.contacts.cert_bytes()
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
            contact_of_client: self.contacts.as_slice().to_vec(),
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
        let contacts = self.contacts.as_slice();
        let mut with_qos = 0usize;
        for _ in 0..sample {
            let c = rng.gen_range(0..k);
            let target = self.target_of_zone[self.inst.zone_of(c)];
            let delay = self.inst.true_path_delay(c, contacts[c], target);
            with_qos += usize::from(delay <= bound);
        }
        with_qos as f64 / sample as f64
    }

    /// Currently failed servers, ascending.
    pub fn down_servers(&self) -> Vec<usize> {
        (0..self.inst.num_servers())
            .filter(|&s| self.down[s])
            .collect()
    }

    /// Joins accepted by [`AdmissionPolicy::Queue`] and still deferred.
    pub fn deferred_joins(&self) -> usize {
        self.deferred.len()
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
                match self.config.degradation.admission {
                    AdmissionPolicy::Reject if !self.admits_join(zone) => {
                        self.stats.shed_events += 1;
                        self.stats.rejected_joins += 1;
                        return Err(ServeError::Shed { zone });
                    }
                    AdmissionPolicy::Queue if !self.admits_join(zone) => {
                        let id = self.ids.issue(true);
                        self.stats.queued_joins += 1;
                        self.deferred.push_back(DeferredJoin { node, zone, id, at });
                        return Ok(Some(id));
                    }
                    _ => {}
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

    /// The admission check of a gated policy: a join into `zone` passes
    /// while the zone's target server is at most `(1 - headroom) x
    /// capacity` booked. Reads only committed load books (as of the last
    /// flush), so the decision is deterministic and thread-count
    /// invariant. Open admission never asks.
    fn admits_join(&self, zone: usize) -> bool {
        self.books.admits(self.target_of_zone[zone])
    }

    /// Retries deferred joins in FIFO order, stopping at the first one
    /// still blocked (preserving queue order); re-admitted joins keep
    /// their original arrival stamp, so the latency histogram measures
    /// arrival-to-commit across the deferral. Only
    /// [`AdmissionPolicy::Queue`] defers joins.
    fn readmit_deferred(&mut self) {
        while let Some(&d) = self.deferred.front() {
            if !self.admits_join(d.zone) {
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

    /// Applies every buffered event as one micro-batch and runs the
    /// incremental repair. Returns `None` when nothing was pending.
    /// Joins deferred by [`AdmissionPolicy::Queue`] are retried first
    /// (FIFO, stopping at the first still-blocked join so the queue
    /// order is preserved) and ride this flush when re-admitted.
    ///
    /// Every flush runs one body on the calling thread: apply the
    /// events, re-book the touched zones' relays, re-order their server
    /// orders, repair the targets, repair the contacts. No stage
    /// consults `DVE_THREADS` or any other runtime width, and no flush
    /// spawns a thread.
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
            self.books
                .rebook_relays(z, self.inst.clients_in_zone(z).len());
        }
        self.matrix.refresh_zones_threads(&touched, 1);
        let (migrated, full_repair) = self.repair_targets(&touched);
        if !full_repair {
            self.repair_contacts(&touched, &migrated, &redecide);
        }
        self.capacity_ok = self.books.within_capacity();

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

    /// The index of `id`, whose buffered event a flush is applying.
    /// `push` admits a Leave or Move only of a live or joining id, and
    /// the flush applies events in order, so the id is live by now
    /// (`check_invariants`: `IdTable` holds every buffered Leave's and
    /// Move's id joining or live).
    fn pending_index(&self, id: ClientId) -> usize {
        self.ids.index(id).expect("validated at push")
    }

    fn apply_leave(&mut self, id: ClientId, touched: &mut Vec<usize>) {
        let c = self.pending_index(id);
        self.ids.depart(id);
        let zone = self.inst.zone_of(c);
        self.matrix.retire_client(&self.inst, c, zone);
        self.contacts.depart(c, zone, &mut self.books);
        let before = self.inst.clients_in_zone(zone).len();
        let departure = self.inst.stream_leave(c, &self.model);
        let relocated = departure.relocated.map(|last| {
            let moved_id = self.id_of_client[last];
            self.id_of_client[c] = moved_id;
            self.ids.set_index(moved_id, c);
            (last, self.inst.zone_of(c))
        });
        let k = self.inst.num_clients();
        self.contacts.backfill(c, relocated, k);
        self.id_of_client.truncate(k);
        self.rebook_zone(zone, before);
        touched.push(zone);
    }

    fn apply_join(&mut self, node: usize, zone: usize, id: ClientId, touched: &mut Vec<usize>) {
        let before = self.inst.clients_in_zone(zone).len();
        let idx = self.inst.stream_join(
            node,
            zone,
            &self.delays,
            &self.model,
            self.error,
            &mut self.rng,
        );
        self.matrix.admit_client(&self.inst, idx, zone);
        self.id_of_client.push(id);
        self.ids.set_index(id, idx);
        self.contacts
            .join(&self.inst, idx, zone, self.target_of_zone[zone]);
        self.rebook_zone(zone, before);
        touched.push(zone);
    }

    /// Returns whether the move was effective (destination != current).
    fn apply_move(&mut self, id: ClientId, zone: usize, touched: &mut Vec<usize>) -> bool {
        let c = self.pending_index(id);
        let from = self.inst.zone_of(c);
        if from == zone {
            return false;
        }
        self.matrix.retire_client(&self.inst, c, from);
        let target = self.target_of_zone[zone];
        self.contacts.leave_zone(c, from, target, &mut self.books);
        let before_from = self.inst.clients_in_zone(from).len();
        let before_to = self.inst.clients_in_zone(zone).len();
        self.inst.stream_move(c, zone, &self.model);
        self.matrix.admit_client(&self.inst, c, zone);
        self.rebook_zone(from, before_from);
        self.rebook_zone(zone, before_to);
        self.contacts
            .enter_zone(&self.inst, c, from, zone, target, &mut self.books);
        touched.push(from);
        touched.push(zone);
        true
    }

    /// Re-books zone `z`'s `R_z` on its target from a population of
    /// `before` clients to its current one.
    fn rebook_zone(&mut self, z: usize, before: usize) {
        let after = self.inst.clients_in_zone(z).len();
        self.books
            .rebook_zone(self.target_of_zone[z], before, after);
    }

    /// GreC's per-client rule for client `c`, over every server.
    fn decide_contact(&mut self, c: usize) {
        let servers = 0..self.inst.num_servers();
        self.contacts.decide_among(
            &self.inst,
            &self.target_of_zone,
            &mut self.books,
            c,
            servers,
        );
    }

    /// Contact re-decisions for the clients a flush may have affected
    /// beyond the migrated zones (whose members
    /// [`ServeEngine::migrate_zone`] already re-decided inline): joiners
    /// and movers, then the zone-scoped violator rescan of the touched
    /// zones (violating members still on their target get a relay
    /// retry).
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
        // unless a server it names has room.
        for &z in touched {
            if !migrated.contains(&z) {
                self.contacts.rescan_zone(
                    &self.inst,
                    &self.target_of_zone,
                    &mut self.books,
                    &mut self.stats,
                    z,
                );
            }
        }
    }
}

/// The load books of `targets` and `contacts` on `inst`, built from
/// scratch: every relay booked at its zone's current rate. O(k + n·m).
fn books_of(
    inst: &CapInstance,
    model: &BandwidthModel,
    headroom: f64,
    targets: &[usize],
    contacts: &[usize],
) -> LoadBooks {
    LoadBooks::rebuild(
        model.stream_bps(),
        headroom,
        (0..inst.num_servers()).map(|s| inst.capacity(s)),
        (0..inst.num_zones()).map(|z| inst.clients_in_zone(z).len()),
        targets,
        contacts.iter().enumerate().filter_map(|(c, &contact)| {
            let z = inst.zone_of(c);
            (contact != targets[z]).then_some((z, contact))
        }),
    )
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
