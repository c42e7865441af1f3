//! The Client Assignment Problem instance (Section 2 of the paper).
//!
//! A [`CapInstance`] snapshots everything the assignment algorithms and
//! the evaluator need:
//!
//! * client–server and server–server round-trip delays, in two flavours:
//!   **observed** (what algorithms see; possibly distorted by an
//!   [`ErrorModel`](dve_world::ErrorModel)) and **true** (what QoS is
//!   judged on);
//! * the zone membership of every client;
//! * per-client target-server bandwidth `R^T_c`, per-zone bandwidth `R_z`,
//!   and the `R^C_c = 2 R^T_c` forwarding overhead — all derived from the
//!   world's [`BandwidthModel`](dve_world::BandwidthModel);
//! * per-server capacities `C_s` and the delay bound `D`.
//!
//! Server–server delays are discounted by the *provisioning factor*
//! (paper: inter-server latency is "50% of the actual latency values", so
//! the default factor is 0.5), modelling the well-provisioned inter-server
//! mesh of the GDSA.

use dve_topology::DelayMatrix;
use dve_world::{BandwidthModel, DynamicsOutcome, ErrorModel, World, WorldDelays};
use rand::Rng;

/// Default inter-server provisioning factor from the paper.
pub const DEFAULT_PROVISIONING: f64 = 0.5;

/// Default delay bound (FPS-class interactivity, 250 ms).
pub const DEFAULT_DELAY_BOUND_MS: f64 = 250.0;

/// Population above which [`CapInstance::from_world_threads`] fills
/// per-client delay rows on the worker team; smaller populations fill
/// serially.
const BUILD_BLOCK: usize = 4096;

/// Capacity to allocate for a population-sized array of `k` clients:
/// `k` plus k/8 spare slots for joiners. The spare slots are allocated
/// but never written, so they cost no resident memory, and a serving
/// engine's first joins after boot grow no population-sized array
/// (growing one copies it, inside a latency-accounted flush).
pub(crate) const fn population_capacity(k: usize) -> usize {
    k + k / 8
}

/// Collects the `k` items of a population-sized array into a vector of
/// [`population_capacity`]`(k)`.
fn collect_population<T>(k: usize, items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::with_capacity(population_capacity(k));
    out.extend(items);
    out
}

/// How an instance stores its k×m client→server delay rows. The row-slot
/// indirection (`row_of_client`) decouples client identity from storage,
/// so both layouts serve the same accessor API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayLayout {
    /// Per-client `f64` rows — the historical layout; supports per-client
    /// observation error and churn carries. O(k·m·16) bytes.
    #[default]
    Dense64,
    /// Rows shared per topology node: `row_of_client` points at the
    /// world-level node→server gather table instead of per-client
    /// storage. Requires perfect observations (all clients at a node see
    /// the node's true delays). O(nodes·m·8) bytes — **independent of
    /// the client population**, the million-client layout.
    SharedByNode,
}

/// Layout-polymorphic storage behind the delay accessors; indexed by
/// `row_slot * servers + server`.
#[derive(Debug, Clone)]
enum DelayTable {
    /// Per-client rows. `tru` is `None` while every observation equals
    /// its true delay (the perfect error model): `obs` then answers for
    /// both, and the table costs one k×m copy instead of two. The first
    /// imperfect [`DelayTable::write_row`] materialises `tru` from `obs`.
    Dense {
        obs: Vec<f64>,
        tru: Option<Vec<f64>>,
    },
    /// One row per topology node, shared by every client at that node
    /// (observed == true by the layout's perfect-observation contract).
    /// The table itself is the [`WorldDelays`] gather table behind its
    /// `Arc` — instances, engines, and clones all reference the one
    /// substrate-sized copy.
    Shared { rtt: std::sync::Arc<Vec<f64>> },
}

impl Default for DelayTable {
    fn default() -> DelayTable {
        DelayTable::Dense {
            obs: Vec::new(),
            tru: None,
        }
    }
}

impl DelayTable {
    fn layout(&self) -> DelayLayout {
        match self {
            DelayTable::Dense { .. } => DelayLayout::Dense64,
            DelayTable::Shared { .. } => DelayLayout::SharedByNode,
        }
    }

    fn rows(&self, m: usize) -> usize {
        let cells = match self {
            DelayTable::Dense { obs, .. } => obs.len(),
            DelayTable::Shared { rtt } => rtt.len(),
        };
        cells.checked_div(m).unwrap_or(0)
    }

    /// Resident bytes of the delay rows (diagnostics for the memory
    /// gates of the million-client tier).
    fn bytes(&self) -> usize {
        match self {
            DelayTable::Dense { obs, tru } => (obs.len() + tru.as_ref().map_or(0, Vec::len)) * 8,
            DelayTable::Shared { rtt } => rtt.len() * 8,
        }
    }

    #[inline]
    fn obs(&self, i: usize) -> f64 {
        match self {
            DelayTable::Dense { obs, .. } => obs[i],
            DelayTable::Shared { rtt } => rtt[i],
        }
    }

    #[inline]
    fn tru(&self, i: usize) -> f64 {
        match self {
            DelayTable::Dense { obs, tru } => tru.as_ref().unwrap_or(obs)[i],
            DelayTable::Shared { rtt } => rtt[i],
        }
    }

    /// The observed row of `m` entries starting at `base`, with the
    /// layout dispatched once per row, not per entry.
    #[inline]
    fn obs_row(&self, base: usize, m: usize) -> &[f64] {
        match self {
            DelayTable::Dense { obs, .. } => &obs[base..base + m],
            DelayTable::Shared { rtt } => &rtt[base..base + m],
        }
    }

    /// Appends a fresh all-zero row, returning its slot. Per-client
    /// layouts only — shared rows are substrate-owned.
    fn alloc_row(&mut self, m: usize) -> u32 {
        let slot = self.rows(m) as u32;
        match self {
            DelayTable::Dense { obs, tru } => {
                obs.resize((slot as usize + 1) * m, 0.0);
                if let Some(tru) = tru {
                    tru.resize((slot as usize + 1) * m, 0.0);
                }
            }
            DelayTable::Shared { .. } => unreachable!("shared rows are never allocated"),
        }
        slot
    }

    /// Fills one row from true delays, drawing the observation error in
    /// server order (the same draw discipline as a fresh build). The
    /// first imperfect write gives the table its separate true copy;
    /// every earlier row's observations are still its true delays.
    fn write_row<R: Rng + ?Sized>(
        &mut self,
        slot: u32,
        m: usize,
        row: &[f64],
        error: ErrorModel,
        rng: &mut R,
    ) {
        let base = slot as usize * m;
        match self {
            DelayTable::Dense { obs, tru } => {
                if tru.is_none() && error.factor != 1.0 {
                    let mut copy = Vec::with_capacity(obs.capacity());
                    copy.extend_from_slice(obs);
                    *tru = Some(copy);
                }
                if let Some(tru) = tru {
                    tru[base..base + m].copy_from_slice(row);
                }
                for (j, &d) in row.iter().enumerate() {
                    // `observe` returns `d` untouched (no RNG draw)
                    // under the perfect model.
                    obs[base + j] = error.observe(d, rng);
                }
            }
            DelayTable::Shared { .. } => unreachable!("shared rows are never written"),
        }
    }
}

/// A fully materialised CAP instance.
#[derive(Debug, Clone)]
pub struct CapInstance {
    clients: usize,
    servers: usize,
    zones: usize,
    /// Row slot of each client in the delay table. A fresh per-client
    /// build is the identity map; [`CapInstance::apply_delta`] keeps
    /// survivor rows in place and points joiners at leavers' freed slots,
    /// which is what makes the churn carry O(k) instead of an O(k·m)
    /// table copy. Under [`DelayLayout::SharedByNode`] the slot is the
    /// client's topology node — many clients share one row, which is the
    /// whole point of the indirection. Per-client tables may hold more
    /// rows than there are clients (bounded by the peak population seen
    /// so far).
    row_of_client: Vec<u32>,
    /// Row slots currently unreferenced (freed by leavers and not yet
    /// recycled). Persisted across [`CapInstance::apply_delta`] calls so
    /// a leave-heavy epoch's slots survive for later join-heavy epochs —
    /// without this the tables would grow without bound under
    /// imbalanced churn. Always empty under the shared layout.
    free_rows: Vec<u32>,
    /// Client→server delay rows, layout-polymorphic: the observed rows,
    /// plus the true rows only when some observation differs from them.
    cs: DelayTable,
    /// Observed server-to-server RTTs (provisioning already applied),
    /// **target-major**: entry `b * m + a` is the RTT from `a` to `b`,
    /// so the column of every contact's hop to one target is one
    /// contiguous slice — what the relay kernel
    /// [`CapInstance::relay_costs_into`] streams.
    obs_ss: Vec<f64>,
    /// True server-to-server RTTs (provisioning already applied),
    /// row-major: entry `a * m + b` is the RTT from `a` to `b`.
    true_ss: Vec<f64>,
    /// Zone of each client.
    zone_of_client: Vec<usize>,
    /// Clients per zone (indices).
    clients_of_zone: Vec<Vec<usize>>,
    /// Position of each client in its zone's `clients_of_zone` list, so
    /// a streamed leave or move removes it in O(1) instead of scanning
    /// the list.
    slot_of_client: Vec<u32>,
    /// `R^T_c` per client, bits/s. Authoritative only for zones whose
    /// `uniform_target_bps` entry is `None`; once a zone goes through
    /// [`CapInstance::refresh_zone_bandwidth`] its members' entries here
    /// are stale and the per-zone override wins (see
    /// [`CapInstance::client_target_bps`]).
    client_target_bps: Vec<f64>,
    /// Per-zone lazy override of the members' `R^T_c`. The target rate is
    /// a pure function of the zone population, so a population change
    /// need only rewrite this one slot instead of every member's entry —
    /// that is what keeps `stream_move`/`stream_join`/`stream_leave` out
    /// of O(zone population) on the bandwidth side.
    uniform_target_bps: Vec<Option<f64>>,
    /// `R_z` per zone, bits/s.
    zone_bps: Vec<f64>,
    /// `C_s` per server, bits/s.
    capacity: Vec<f64>,
    /// Delay bound `D`, ms.
    delay_bound: f64,
}

/// Result of [`CapInstance::stream_leave`]: which zone lost a client and
/// which client index was swap-relocated into the freed index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDeparture {
    /// Zone the departed client was in.
    pub zone: usize,
    /// Former index of the client that now occupies the departed
    /// client's index (always the previous last index), or `None` if the
    /// departed client was itself last. Engine-side per-client state
    /// (contacts, ids) must apply the same relocation.
    pub relocated: Option<usize>,
}

impl Default for CapInstance {
    /// An **empty placeholder** — 0 clients, servers, and zones, delay
    /// bound 1.0. Exists so an engine can `std::mem::take` its instance
    /// into an `Arc` snapshot for a propose scatter and restore it
    /// afterwards; a defaulted instance is never solved against.
    fn default() -> CapInstance {
        CapInstance {
            clients: 0,
            servers: 0,
            zones: 0,
            row_of_client: Vec::new(),
            free_rows: Vec::new(),
            cs: DelayTable::default(),
            obs_ss: Vec::new(),
            true_ss: Vec::new(),
            zone_of_client: Vec::new(),
            clients_of_zone: Vec::new(),
            slot_of_client: Vec::new(),
            client_target_bps: Vec::new(),
            uniform_target_bps: Vec::new(),
            zone_bps: Vec::new(),
            capacity: Vec::new(),
            delay_bound: 1.0,
        }
    }
}

impl CapInstance {
    /// Builds an instance from a populated world and a node delay matrix.
    ///
    /// `provisioning` scales server–server delays (0.5 = paper default);
    /// `error` distorts the delays the algorithms observe (use
    /// [`ErrorModel::PERFECT`] for Table 1-style perfect information).
    pub fn build<R: Rng + ?Sized>(
        world: &World,
        delays: &DelayMatrix,
        provisioning: f64,
        delay_bound: f64,
        error: ErrorModel,
        rng: &mut R,
    ) -> CapInstance {
        assert!(
            (0.0..=1.0).contains(&provisioning),
            "provisioning factor {provisioning} outside [0,1]"
        );
        assert!(delay_bound > 0.0, "delay bound must be positive");
        let clients = world.clients.len();
        let servers = world.servers.len();
        let zones = world.zones;

        // The k×m delay table dominates construction at production scale
        // (50 000 clients × 100 servers); rows are independent, so
        // materialise them on the parallel runtime in input order.
        let server_nodes: Vec<usize> = world.servers.iter().map(|s| s.node).collect();
        let rows: Vec<Vec<f64>> = dve_par::par_map(&world.clients, |client| {
            server_nodes
                .iter()
                .map(|&node| delays.rtt(client.node, node))
                .collect()
        });
        let mut true_cs = Vec::with_capacity(population_capacity(clients) * servers);
        for row in rows {
            true_cs.extend_from_slice(&row);
        }
        let mut true_ss = vec![0.0; servers * servers];
        for (a, sa) in world.servers.iter().enumerate() {
            for (b, sb) in world.servers.iter().enumerate() {
                true_ss[a * servers + b] = provisioning * delays.rtt(sa.node, sb.node);
            }
        }

        // Observed = true + estimation error. Client-server estimates are
        // independent per pair; server-server pairs stay symmetric. Under
        // perfect observations the true rows are the observed ones.
        let cs = dense_table(true_cs, error, rng);
        let obs_ss = observed_ss(servers, &true_ss, error, rng);

        let (zone_of_client, clients_of_zone, slot_of_client, client_target_bps, zone_bps) =
            zone_bookkeeping(world);
        let capacity = world.servers.iter().map(|s| s.capacity_bps).collect();

        CapInstance {
            clients,
            servers,
            zones,
            row_of_client: collect_population(clients, 0..clients as u32),
            free_rows: Vec::new(),
            cs,
            obs_ss,
            true_ss,
            zone_of_client,
            clients_of_zone,
            slot_of_client,
            client_target_bps,
            uniform_target_bps: vec![None; zones],
            zone_bps,
            capacity,
            delay_bound,
        }
    }

    /// Builds an instance from a populated world over the delay
    /// **pipeline** — the builder of the million-client engine. Where
    /// [`CapInstance::build`] walks a dense node×node [`DelayMatrix`],
    /// this consumes a [`WorldDelays`] handle (any
    /// [`dve_topology::DelaySource`] behind a node→server gather) and
    /// takes each client's delay row from the gather, in the layout of
    /// your choice:
    ///
    /// * [`DelayLayout::Dense64`] — **bit-identical** to
    ///   [`CapInstance::build`] on the same matrix-backed delays (same
    ///   lookups, same error-draw order), property-tested;
    /// * [`DelayLayout::SharedByNode`] — no per-client rows at all
    ///   (requires the perfect error model): memory is bounded by the
    ///   substrate, not the population.
    ///
    /// Callers that need the IAP costs build them from the result with
    /// [`CostMatrix::build`](crate::CostMatrix::build).
    pub fn from_world<R: Rng + ?Sized>(
        world: &World,
        delays: &WorldDelays,
        provisioning: f64,
        delay_bound: f64,
        error: ErrorModel,
        layout: DelayLayout,
        rng: &mut R,
    ) -> CapInstance {
        Self::from_world_threads(
            world,
            delays,
            provisioning,
            delay_bound,
            error,
            layout,
            dve_par::default_threads(),
            rng,
        )
    }

    /// [`CapInstance::from_world`] with an explicit worker count (tests
    /// and benches pin widths; the default reads `DVE_THREADS`). The
    /// result is bit-identical at any width: true rows draw no RNG, so
    /// above `BUILD_BLOCK` (4096) clients the workers copy them in
    /// parallel, and the observation draws then follow serially in
    /// row-major order — the dense build's discipline.
    pub fn from_world_threads<R: Rng + ?Sized>(
        world: &World,
        delays: &WorldDelays,
        provisioning: f64,
        delay_bound: f64,
        error: ErrorModel,
        layout: DelayLayout,
        threads: usize,
        rng: &mut R,
    ) -> CapInstance {
        assert!(
            (0.0..=1.0).contains(&provisioning),
            "provisioning factor {provisioning} outside [0,1]"
        );
        assert!(delay_bound > 0.0, "delay bound must be positive");
        let clients = world.clients.len();
        let servers = world.servers.len();
        let zones = world.zones;
        assert_eq!(
            delays.num_servers(),
            servers,
            "delay handle gathered for a different server set"
        );
        for (s, server) in world.servers.iter().enumerate() {
            assert_eq!(
                delays.server_node(s),
                server.node,
                "delay handle gathered for a different server placement"
            );
        }

        let mut true_ss = vec![0.0; servers * servers];
        for a in 0..servers {
            for b in 0..servers {
                true_ss[a * servers + b] = provisioning * delays.server_rtt(a, b);
            }
        }

        let (zone_of_client, clients_of_zone, slot_of_client, client_target_bps, zone_bps) =
            zone_bookkeeping(world);

        // Per-client rows follow client order; the shared layout borrows
        // the world-level gather table outright and only maps clients
        // onto node rows.
        let (cs, row_of_client) = match layout {
            DelayLayout::Dense64 => {
                let tru = if threads > 1 && clients > BUILD_BLOCK {
                    // In-place parallel fill: the table is sized up front
                    // and workers copy gather rows straight into their
                    // chunks — no transient per-row allocations. The
                    // zeroed allocation's spare rows are truncated off,
                    // never touched, so they stay out of resident memory.
                    let mut tru = vec![0.0; population_capacity(clients) * servers];
                    tru.truncate(clients * servers);
                    let mut row_chunks: Vec<&mut [f64]> = tru.chunks_mut(servers).collect();
                    dve_par::par_for_each_mut_with(threads, &mut row_chunks, |i, row| {
                        row.copy_from_slice(delays.server_row(world.clients[i].node));
                    });
                    tru
                } else {
                    let mut tru = Vec::with_capacity(population_capacity(clients) * servers);
                    for client in &world.clients {
                        tru.extend_from_slice(delays.server_row(client.node));
                    }
                    tru
                };
                (
                    dense_table(tru, error, rng),
                    collect_population(clients, 0..clients as u32),
                )
            }
            DelayLayout::SharedByNode => {
                assert!(
                    error.factor == 1.0,
                    "SharedByNode requires perfect observations \
                     (per-client estimation error needs per-client rows)"
                );
                (
                    DelayTable::Shared {
                        rtt: delays.shared_table(),
                    },
                    collect_population(clients, world.clients.iter().map(|c| c.node as u32)),
                )
            }
        };

        let obs_ss = observed_ss(servers, &true_ss, error, rng);
        CapInstance {
            clients,
            servers,
            zones,
            row_of_client,
            free_rows: Vec::new(),
            cs,
            obs_ss,
            true_ss,
            zone_of_client,
            clients_of_zone,
            slot_of_client,
            client_target_bps,
            uniform_target_bps: vec![None; zones],
            zone_bps,
            capacity: world.servers.iter().map(|s| s.capacity_bps).collect(),
            delay_bound,
        }
    }

    /// Advances this instance across a churn step without rebuilding the
    /// k×m delay tables — the delta-aware path of the churn engine.
    ///
    /// Surviving clients keep both their true and their *observed* delay
    /// rows (a monitoring system's estimates persist across zone churn;
    /// nothing about a join elsewhere changes what this client measured).
    /// The rows never move: the carry rewrites only the client→row-slot
    /// map, hands leavers' freed slots to joiners (growing the tables
    /// only when an epoch joins more than it loses), and re-derives the
    /// zone membership, populations, and the population-dependent
    /// bandwidth terms (`R^T_c`, `R_z`) for the new world. Total work is
    /// O(k + joins·m) versus the O(k·m) delay-matrix lookups plus error
    /// sampling of a fresh [`CapInstance::build`] — which is why the
    /// method consumes `self` instead of copying the tables.
    ///
    /// Every accessor of the result is **bit-identical** to a fresh
    /// build on `outcome.world` under the perfect error model (survivor
    /// rows carry the very same values a rebuild would recompute), which
    /// is what makes the delta-path rewiring of the Table 3 protocol
    /// behavior-preserving. With an imperfect model the semantics
    /// deliberately differ: a fresh build would re-sample every
    /// estimate, the carried instance re-samples only the joiners'.
    ///
    /// The server set, provisioning, and delay bound must be unchanged —
    /// dynamics only touch the client population. When a
    /// [`CostMatrix`](crate::CostMatrix) rides along, call
    /// [`CostMatrix::retire_departures`](crate::CostMatrix::retire_departures)
    /// *before* this method (departed rows are gone afterwards) and
    /// [`CostMatrix::admit_arrivals`](crate::CostMatrix::admit_arrivals)
    /// after.
    pub fn apply_delta<R: Rng + ?Sized>(
        mut self,
        outcome: &DynamicsOutcome,
        delays: &WorldDelays,
        error: ErrorModel,
        rng: &mut R,
    ) -> CapInstance {
        let world = &outcome.world;
        let m = self.servers;
        assert_eq!(world.servers.len(), m, "dynamics must not change servers");
        assert_eq!(world.zones, self.zones, "dynamics must not change zones");
        assert_eq!(outcome.carried_from.len(), world.clients.len());
        assert_eq!(delays.num_servers(), m, "delay handle covers the servers");

        let clients = world.clients.len();
        let shared = matches!(self.cs, DelayTable::Shared { .. });
        assert!(
            !shared || error.factor == 1.0,
            "SharedByNode instances carry perfect observations only"
        );

        // Leavers' row slots join the persistent free list for joiners
        // (this epoch's or a later one's) to reuse. Shared rows belong
        // to the substrate and are never freed or written.
        let mut free = std::mem::take(&mut self.free_rows);
        if !shared {
            free.extend(
                outcome
                    .delta
                    .leaves
                    .iter()
                    .map(|l| self.row_of_client[l.client]),
            );
        }

        let mut row_of_client = Vec::with_capacity(clients);
        for (new_idx, prov) in outcome.carried_from.iter().enumerate() {
            match prov {
                Some(old) => row_of_client.push(self.row_of_client[*old]),
                None => {
                    let node = world.clients[new_idx].node;
                    let slot = if shared {
                        // Per-client layouts panic inside server_row on a
                        // bad node; fail just as loudly here instead of
                        // at some later accessor of the poisoned slot.
                        assert!(
                            node < self.cs.rows(m),
                            "joiner node {node} outside the shared delay table"
                        );
                        node as u32
                    } else {
                        let slot = free.pop().unwrap_or_else(|| self.cs.alloc_row(m));
                        self.cs
                            .write_row(slot, m, delays.server_row(node), error, rng);
                        slot
                    };
                    row_of_client.push(slot);
                }
            }
        }
        self.row_of_client = row_of_client;
        self.free_rows = free;
        self.clients = clients;

        // Zone bookkeeping and the population-dependent bandwidths are
        // O(k), reusing the existing buffers.
        self.zone_of_client.clear();
        self.zone_of_client
            .extend(world.clients.iter().map(|c| c.zone));
        fill_zone_lists(
            &self.zone_of_client,
            &mut self.clients_of_zone,
            &mut self.slot_of_client,
        );
        self.client_target_bps.clear();
        self.client_target_bps
            .extend(self.zone_of_client.iter().map(|&z| {
                world
                    .config
                    .bandwidth
                    .client_target_bps(self.clients_of_zone[z].len())
            }));
        // The per-client entries are authoritative again.
        self.uniform_target_bps.iter_mut().for_each(|o| *o = None);
        for (z, bps) in self.zone_bps.iter_mut().enumerate() {
            *bps = world
                .config
                .bandwidth
                .zone_bps(self.clients_of_zone[z].len());
        }
        self.capacity.clear();
        self.capacity
            .extend(world.servers.iter().map(|s| s.capacity_bps));
        self
    }

    /// Removes one client **in place** — the event-level counterpart of
    /// [`CapInstance::apply_delta`] for the streaming serving loop, where
    /// a per-flush O(k) rebuild of the zone bookkeeping would blow the
    /// per-event latency budget.
    ///
    /// The departed client's index is backfilled by **swap-remove**: the
    /// current last client is relocated into `client`'s index (returned
    /// so engine-side per-client state can follow), its delay row staying
    /// exactly where it was — only the row-slot map entry moves. The
    /// leaver's row slot joins `free_rows` for a later
    /// [`CapInstance::stream_join`] to recycle. Total work is O(m + zone
    /// population): the member-list edits, at the positions the instance
    /// keeps per client, plus the population-dependent bandwidth refresh
    /// of the one touched zone.
    ///
    /// Unlike the batch compaction of `apply_delta` (survivors keep their
    /// relative order), swap-remove *permutes* client indices; all
    /// aggregate views (zone populations, `zone_bps`,
    /// [`CostMatrix`](crate::CostMatrix) columns, pQoS) are permutation-invariant, which is what the stream
    /// engine's equivalence tests assert. `model` must be the bandwidth
    /// model the instance was built with (world-built instances; raw
    /// instances from [`CapInstance::from_raw`] have no model).
    pub fn stream_leave(&mut self, client: usize, model: &BandwidthModel) -> StreamDeparture {
        assert!(client < self.clients, "client {client} out of range");
        let zone = self.zone_of_client[client];
        if !matches!(self.cs, DelayTable::Shared { .. }) {
            self.free_rows.push(self.row_of_client[client]);
        }
        self.remove_from_zone_list(client, zone);

        let last = self.clients - 1;
        let relocated = if client != last {
            let last_zone = self.zone_of_client[last];
            self.row_of_client[client] = self.row_of_client[last];
            self.zone_of_client[client] = last_zone;
            self.client_target_bps[client] = self.client_target_bps[last];
            let last_pos = self.slot_of_client[last];
            self.clients_of_zone[last_zone][last_pos as usize] = client;
            self.slot_of_client[client] = last_pos;
            Some(last)
        } else {
            None
        };
        self.row_of_client.truncate(last);
        self.zone_of_client.truncate(last);
        self.slot_of_client.truncate(last);
        self.client_target_bps.truncate(last);
        self.clients = last;
        self.refresh_zone_bandwidth(zone, model);
        StreamDeparture { zone, relocated }
    }

    /// Adds one client **in place**, filling a recycled (or fresh) delay
    /// row from the world's delay handle exactly as
    /// [`CapInstance::apply_delta`] does for joiners — same lookups, same
    /// `error.observe` draw discipline, so a streamed join is
    /// bit-identical to its batch counterpart. Under the shared layout no
    /// row is written at all: the joiner is pointed at its node's row.
    /// Returns the new client's index (always `num_clients() - 1` before
    /// the call returns). O(m + zone population).
    pub fn stream_join<R: Rng + ?Sized>(
        &mut self,
        node: usize,
        zone: usize,
        delays: &WorldDelays,
        model: &BandwidthModel,
        error: ErrorModel,
        rng: &mut R,
    ) -> usize {
        assert!(zone < self.zones, "zone {zone} out of range");
        assert_eq!(
            delays.num_servers(),
            self.servers,
            "server set must be unchanged"
        );
        let idx = self.clients;
        let slot = if matches!(self.cs, DelayTable::Shared { .. }) {
            assert!(
                error.factor == 1.0,
                "SharedByNode instances carry perfect observations only"
            );
            assert!(
                node < self.cs.rows(self.servers),
                "joiner node {node} outside the shared delay table"
            );
            node as u32
        } else {
            let slot = self
                .free_rows
                .pop()
                .unwrap_or_else(|| self.cs.alloc_row(self.servers));
            self.cs
                .write_row(slot, self.servers, delays.server_row(node), error, rng);
            slot
        };
        self.row_of_client.push(slot);
        self.zone_of_client.push(zone);
        self.client_target_bps.push(0.0); // set by the refresh below
        self.slot_of_client
            .push(zone_list_slot(self.clients_of_zone[zone].len()));
        self.clients_of_zone[zone].push(idx);
        self.clients += 1;
        self.refresh_zone_bandwidth(zone, model);
        idx
    }

    /// Moves one client between zones **in place**: membership lists and
    /// the population-dependent bandwidths of both zones are updated, the
    /// delay row stays put (physical location is unchanged). A move to
    /// the client's current zone is a no-op. O(both zone populations).
    pub fn stream_move(&mut self, client: usize, zone: usize, model: &BandwidthModel) {
        assert!(client < self.clients, "client {client} out of range");
        assert!(zone < self.zones, "zone {zone} out of range");
        let from = self.zone_of_client[client];
        if from == zone {
            return;
        }
        self.remove_from_zone_list(client, from);
        self.slot_of_client[client] = zone_list_slot(self.clients_of_zone[zone].len());
        self.clients_of_zone[zone].push(client);
        self.zone_of_client[client] = zone;
        self.refresh_zone_bandwidth(from, model);
        self.refresh_zone_bandwidth(zone, model);
    }

    /// Swap-removes `client` from zone `zone`'s member list at its kept
    /// position and re-points the entry that backfills the slot.
    fn remove_from_zone_list(&mut self, client: usize, zone: usize) {
        let pos = self.slot_of_client[client];
        let list = &mut self.clients_of_zone[zone];
        debug_assert_eq!(list[pos as usize], client, "zone slot out of step");
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            self.slot_of_client[moved] = pos;
        }
    }

    /// Recomputes `zone_bps` and the members' `R^T_c` for one zone from
    /// its current population — the same formulas
    /// [`CapInstance::build`] evaluates, so incrementally maintained
    /// values are bit-identical to a fresh build's. O(1): the target rate
    /// is uniform across the zone, so it lands in the per-zone override
    /// slot instead of every member's `client_target_bps` entry.
    fn refresh_zone_bandwidth(&mut self, z: usize, model: &BandwidthModel) {
        let population = self.clients_of_zone[z].len();
        self.zone_bps[z] = model.zone_bps(population);
        self.uniform_target_bps[z] = Some(model.client_target_bps(population));
    }

    /// Builds an instance directly from raw parts (tests and synthetic
    /// scenarios). `cs`/`ss` are used as both observed and true delays.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        servers: usize,
        zones: usize,
        zone_of_client: Vec<usize>,
        cs: Vec<f64>,
        ss: Vec<f64>,
        client_target_bps: Vec<f64>,
        capacity: Vec<f64>,
        delay_bound: f64,
    ) -> CapInstance {
        let clients = zone_of_client.len();
        assert_eq!(cs.len(), clients * servers);
        assert_eq!(ss.len(), servers * servers);
        assert_eq!(client_target_bps.len(), clients);
        assert_eq!(capacity.len(), servers);
        for (c, &z) in zone_of_client.iter().enumerate() {
            assert!(z < zones, "client {c} in out-of-range zone {z}");
        }
        let mut clients_of_zone: Vec<Vec<usize>> = vec![Vec::new(); zones];
        let mut slot_of_client = Vec::with_capacity(clients);
        fill_zone_lists(&zone_of_client, &mut clients_of_zone, &mut slot_of_client);
        let zone_bps: Vec<f64> = clients_of_zone
            .iter()
            .map(|cs| cs.iter().map(|&c| client_target_bps[c]).sum())
            .collect();
        CapInstance {
            clients,
            servers,
            zones,
            row_of_client: (0..clients as u32).collect(),
            free_rows: Vec::new(),
            cs: DelayTable::Dense { obs: cs, tru: None },
            obs_ss: target_major(servers, &ss),
            true_ss: ss,
            zone_of_client,
            clients_of_zone,
            slot_of_client,
            client_target_bps,
            uniform_target_bps: vec![None; zones],
            zone_bps,
            capacity,
            delay_bound,
        }
    }

    /// Number of clients `k`.
    pub fn num_clients(&self) -> usize {
        self.clients
    }

    /// Number of row slots the delay tables currently hold (diagnostics:
    /// for per-client layouts `>= num_clients`, bounded by the peak
    /// population this instance chain has seen —
    /// [`CapInstance::apply_delta`] recycles leavers' slots instead of
    /// growing the tables; for [`DelayLayout::SharedByNode`] the
    /// substrate's node count, independent of the population).
    pub fn table_rows(&self) -> usize {
        self.cs.rows(self.servers)
    }

    /// The delay-row storage layout of this instance.
    pub fn layout(&self) -> DelayLayout {
        self.cs.layout()
    }

    /// Resident bytes of the delay rows — the structure the blocked
    /// pipeline exists to bound (diagnostics for the scale gates).
    pub fn delay_table_bytes(&self) -> usize {
        self.cs.bytes()
    }

    /// Number of servers `m`.
    pub fn num_servers(&self) -> usize {
        self.servers
    }

    /// Number of zones `n`.
    pub fn num_zones(&self) -> usize {
        self.zones
    }

    /// The delay bound `D` in ms.
    pub fn delay_bound(&self) -> f64 {
        self.delay_bound
    }

    /// Zone of client `c`.
    pub fn zone_of(&self, c: usize) -> usize {
        self.zone_of_client[c]
    }

    /// Clients in zone `z`.
    pub fn clients_in_zone(&self, z: usize) -> &[usize] {
        &self.clients_of_zone[z]
    }

    /// Row slot of client `c` in the delay tables (identity on a fresh
    /// build; [`CapInstance::apply_delta`] remaps it).
    #[inline]
    fn row(&self, c: usize) -> usize {
        self.row_of_client[c] as usize
    }

    /// Observed client→server RTT (what algorithms use).
    #[inline]
    pub fn obs_cs(&self, c: usize, s: usize) -> f64 {
        self.cs.obs(self.row(c) * self.servers + s)
    }

    /// Client `c`'s observed delay row, one entry per server —
    /// layout-dispatched once per row instead of per entry.
    #[inline]
    pub fn obs_row(&self, c: usize) -> &[f64] {
        self.cs.obs_row(self.row(c) * self.servers, self.servers)
    }

    /// Streams `f(server, observed_delay)` over client `c`'s delay row —
    /// the bulk accessor of the cost-matrix paths
    /// ([`CostMatrix::build`](crate::CostMatrix::build) and the per-event
    /// column updates).
    #[inline]
    pub fn fold_obs_row<F: FnMut(usize, f64)>(&self, c: usize, mut f: F) {
        for (j, &d) in self.obs_row(c).iter().enumerate() {
            f(j, d);
        }
    }

    /// True client→server RTT (what QoS is judged on).
    #[inline]
    pub fn true_cs(&self, c: usize, s: usize) -> f64 {
        self.cs.tru(self.row(c) * self.servers + s)
    }

    /// Observed server→server RTT (provisioned).
    #[inline]
    pub fn obs_ss(&self, a: usize, b: usize) -> f64 {
        self.obs_ss[b * self.servers + a]
    }

    /// True server→server RTT (provisioned).
    #[inline]
    pub fn true_ss(&self, a: usize, b: usize) -> f64 {
        self.true_ss[a * self.servers + b]
    }

    /// `R^T_c` for client `c` (bits/s).
    pub fn client_target_bps(&self, c: usize) -> f64 {
        match self.uniform_target_bps[self.zone_of_client[c]] {
            Some(bps) => bps,
            None => self.client_target_bps[c],
        }
    }

    /// `R^C_c = 2 R^T_c` forwarding overhead for client `c` (bits/s).
    pub fn client_forwarding_bps(&self, c: usize) -> f64 {
        2.0 * self.client_target_bps(c)
    }

    /// `R_z` for zone `z` (bits/s).
    pub fn zone_bps(&self, z: usize) -> f64 {
        self.zone_bps[z]
    }

    /// `C_s` for server `s` (bits/s).
    pub fn capacity(&self, s: usize) -> f64 {
        self.capacity[s]
    }

    /// Overwrites `C_s` for server `s` — the failure/recovery seam: a
    /// failed server's capacity is retired to 0 so every downstream
    /// fit check (repair, GreC, admission) excludes it without special
    /// cases, and restored to its nominal value on recovery. Delay rows
    /// and zone bookkeeping are untouched; only capacity changes.
    pub fn set_capacity(&mut self, s: usize, capacity: f64) {
        assert!(capacity >= 0.0, "capacity must be non-negative");
        self.capacity[s] = capacity;
    }

    /// Total capacity (bits/s).
    pub fn total_capacity(&self) -> f64 {
        self.capacity.iter().sum()
    }

    /// The IAP cost `C^I_ij` (eq. 3): number of clients in zone `j` whose
    /// *observed* delay to server `i` exceeds the bound.
    ///
    /// This is the **naive reference scan** — O(zone population) per
    /// call. The production algorithms all read the precomputed
    /// [`CostMatrix`](crate::CostMatrix) instead; this method remains the
    /// ground truth the matrix is verified against (property tests) and
    /// the baseline the `scale` bench compares the engine to.
    pub fn iap_cost(&self, server: usize, zone: usize) -> f64 {
        self.clients_of_zone[zone]
            .iter()
            .filter(|&&c| self.obs_cs(c, server) > self.delay_bound)
            .count() as f64
    }

    /// The RAP cost `C^R` (eq. 8) of selecting `contact` for client `c`
    /// whose target is `target`, using observed delays.
    pub fn rap_cost(&self, c: usize, contact: usize, target: usize) -> f64 {
        let total = self.observed_path_delay(c, contact, target);
        (total - self.delay_bound).max(0.0)
    }

    /// The relay kernel: writes `C^R(c, s, target)` (eq. 8) for every
    /// server `s` into `out` (length `m`), in one sequential pass over
    /// `c`'s observed delay row and the observed hop column into
    /// `target`. Every entry is the `f64` [`CapInstance::rap_cost`]
    /// returns — the same operations in the same order — so a solver
    /// that reads its costs here decides exactly as one that calls
    /// `rap_cost` per entry. Callers apply their own pick rule (fit
    /// checks, candidate masks) to the full row.
    pub fn relay_costs_into(&self, c: usize, target: usize, out: &mut [f64]) {
        let m = self.servers;
        assert_eq!(out.len(), m, "cost buffer must cover servers");
        let row = self.obs_row(c);
        let hops = &self.obs_ss[target * m..(target + 1) * m];
        let bound = self.delay_bound;
        for ((cost, &d), &hop) in out.iter_mut().zip(row).zip(hops) {
            *cost = (d + hop - bound).max(0.0);
        }
        // The direct path takes no server hop.
        out[target] = (row[target] - bound).max(0.0);
    }

    /// Observed end-to-end delay through `contact` to `target`.
    pub fn observed_path_delay(&self, c: usize, contact: usize, target: usize) -> f64 {
        if contact == target {
            self.obs_cs(c, target)
        } else {
            self.obs_cs(c, contact) + self.obs_ss(contact, target)
        }
    }

    /// True end-to-end delay through `contact` to `target`.
    pub fn true_path_delay(&self, c: usize, contact: usize, target: usize) -> f64 {
        if contact == target {
            self.true_cs(c, target)
        } else {
            self.true_cs(c, contact) + self.true_ss(contact, target)
        }
    }
}

/// The dense table over the true rows `tru`: observations drawn
/// row-major from `error`, or — under perfect observations — `tru`
/// itself as the observed rows, with no second copy.
fn dense_table<R: Rng + ?Sized>(tru: Vec<f64>, error: ErrorModel, rng: &mut R) -> DelayTable {
    if error.factor == 1.0 {
        DelayTable::Dense {
            obs: tru,
            tru: None,
        }
    } else {
        let mut obs = Vec::with_capacity(tru.capacity());
        obs.extend(tru.iter().map(|&d| error.observe(d, rng)));
        DelayTable::Dense {
            obs,
            tru: Some(tru),
        }
    }
}

/// The observed server→server table, target-major, over the row-major
/// true table: the true delays themselves under perfect observations,
/// symmetric estimates otherwise.
fn observed_ss<R: Rng + ?Sized>(
    m: usize,
    true_ss: &[f64],
    error: ErrorModel,
    rng: &mut R,
) -> Vec<f64> {
    if error.factor == 1.0 {
        target_major(m, true_ss)
    } else {
        target_major(m, &error.observe_matrix(m, true_ss, rng))
    }
}

/// Transposes a row-major m×m table (entry `a * m + b` is a→b) into the
/// target-major layout (entry `b * m + a`).
fn target_major(m: usize, row_major: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; m * m];
    for a in 0..m {
        for b in 0..m {
            out[b * m + a] = row_major[a * m + b];
        }
    }
    out
}

/// A position in a zone member list, as the instance stores it.
fn zone_list_slot(pos: usize) -> u32 {
    u32::try_from(pos).expect("zone list position fits u32")
}

/// Refills `lists` with each zone's members in ascending client order
/// and `slots` with each client's position in its list.
fn fill_zone_lists(zone_of_client: &[usize], lists: &mut [Vec<usize>], slots: &mut Vec<u32>) {
    for members in lists.iter_mut() {
        members.clear();
    }
    slots.clear();
    for (c, &z) in zone_of_client.iter().enumerate() {
        slots.push(zone_list_slot(lists[z].len()));
        lists[z].push(c);
    }
}

/// One O(k) pass deriving zone membership and the population-dependent
/// bandwidth terms — shared by the dense and the blocked builders so the
/// two paths can never disagree on the formulas.
#[allow(clippy::type_complexity)]
fn zone_bookkeeping(world: &World) -> (Vec<usize>, Vec<Vec<usize>>, Vec<u32>, Vec<f64>, Vec<f64>) {
    let k = world.clients.len();
    let zone_of_client = collect_population(k, world.clients.iter().map(|c| c.zone));
    let mut clients_of_zone: Vec<Vec<usize>> = vec![Vec::new(); world.zones];
    let mut slot_of_client = Vec::with_capacity(population_capacity(k));
    fill_zone_lists(&zone_of_client, &mut clients_of_zone, &mut slot_of_client);
    let populations: Vec<usize> = clients_of_zone.iter().map(|v| v.len()).collect();
    let client_target_bps = collect_population(
        k,
        zone_of_client
            .iter()
            .map(|&z| world.config.bandwidth.client_target_bps(populations[z])),
    );
    let zone_bps: Vec<f64> = populations
        .iter()
        .map(|&n| world.config.bandwidth.zone_bps(n))
        .collect();
    (
        zone_of_client,
        clients_of_zone,
        slot_of_client,
        client_target_bps,
        zone_bps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two servers, two zones, three clients; hand-computable delays.
    pub(crate) fn tiny() -> CapInstance {
        // clients: c0 z0, c1 z0, c2 z1
        // cs delays:      s0   s1
        //        c0      100  400
        //        c1      300  200
        //        c2      400  100
        // ss: 0 <-> 1: 80
        CapInstance::from_raw(
            2,
            2,
            vec![0, 0, 1],
            vec![100.0, 400.0, 300.0, 200.0, 400.0, 100.0],
            vec![0.0, 80.0, 80.0, 0.0],
            vec![1000.0, 1000.0, 1000.0],
            vec![5000.0, 5000.0],
            250.0,
        )
    }

    #[test]
    fn shape_accessors() {
        let inst = tiny();
        assert_eq!(inst.num_clients(), 3);
        assert_eq!(inst.num_servers(), 2);
        assert_eq!(inst.num_zones(), 2);
        assert_eq!(inst.zone_of(2), 1);
        assert_eq!(inst.clients_in_zone(0), &[0, 1]);
        assert_eq!(inst.clients_in_zone(1), &[2]);
    }

    #[test]
    fn zone_bandwidth_is_sum_of_members() {
        let inst = tiny();
        assert_eq!(inst.zone_bps(0), 2000.0);
        assert_eq!(inst.zone_bps(1), 1000.0);
        assert_eq!(inst.client_forwarding_bps(0), 2000.0);
    }

    #[test]
    fn iap_cost_counts_violators() {
        let inst = tiny();
        // zone 0 on s0: c0=100 ok, c1=300 > 250 -> 1
        assert_eq!(inst.iap_cost(0, 0), 1.0);
        // zone 0 on s1: c0=400 bad, c1=200 ok -> 1
        assert_eq!(inst.iap_cost(1, 0), 1.0);
        // zone 1 on s0: c2=400 -> 1 ; on s1: c2=100 -> 0
        assert_eq!(inst.iap_cost(0, 1), 1.0);
        assert_eq!(inst.iap_cost(1, 1), 0.0);
    }

    #[test]
    fn rap_cost_measures_distance_over_bound() {
        let inst = tiny();
        // c1 target s0 direct: 300 -> cost 50
        assert_eq!(inst.rap_cost(1, 0, 0), 50.0);
        // c1 via s1: 200 + 80 = 280 -> cost 30
        assert_eq!(inst.rap_cost(1, 1, 0), 30.0);
        // c0 direct to s0: 100 -> cost 0
        assert_eq!(inst.rap_cost(0, 0, 0), 0.0);
    }

    /// The relay kernel returns `rap_cost`'s exact `f64`s for every
    /// (client, contact, target), on a raw instance with asymmetric
    /// server hops and on built instances of both layouts, with and
    /// without observation error.
    #[test]
    fn relay_kernel_matches_rap_cost_bit_for_bit() {
        let asymmetric = CapInstance::from_raw(
            3,
            1,
            vec![0, 0],
            vec![300.0, 120.5, 260.0, 90.0, 410.0, 251.0],
            vec![0.0, 30.0, 70.0, 45.5, 0.0, 12.0, 80.0, 14.0, 0.0],
            vec![1000.0, 1000.0],
            vec![5000.0; 3],
            250.0,
        );
        // The target-major store still answers `obs_ss(a, b)` as a→b.
        assert_eq!(asymmetric.obs_ss(0, 1), 30.0);
        assert_eq!(asymmetric.obs_ss(1, 0), 45.5);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(asymmetric.obs_ss(a, b), asymmetric.true_ss(a, b));
            }
        }
        let (world, _delays, handle, mut rng) = blocked_fixture(79, "4s-8z-60c-100cp");
        let mut instances = vec![asymmetric];
        for (error, layout) in [
            (ErrorModel::PERFECT, DelayLayout::Dense64),
            (ErrorModel::KING, DelayLayout::Dense64),
            (ErrorModel::PERFECT, DelayLayout::SharedByNode),
        ] {
            instances.push(CapInstance::from_world(
                &world, &handle, 0.5, 250.0, error, layout, &mut rng,
            ));
        }
        for inst in &instances {
            let m = inst.num_servers();
            let mut costs = vec![f64::NAN; m];
            for c in 0..inst.num_clients() {
                for t in 0..m {
                    inst.relay_costs_into(c, t, &mut costs);
                    for (s, &cost) in costs.iter().enumerate() {
                        assert_eq!(cost.to_bits(), inst.rap_cost(c, s, t).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn path_delays() {
        let inst = tiny();
        assert_eq!(inst.true_path_delay(1, 0, 0), 300.0);
        assert_eq!(inst.true_path_delay(1, 1, 0), 280.0);
        assert_eq!(inst.observed_path_delay(2, 1, 1), 100.0);
    }

    #[test]
    fn build_from_world_uses_provisioning() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::ScenarioConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(1);
        let topo = flat_waxman(30, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("3s-6z-40c-100cp").unwrap();
        let world = dve_world::World::generate(&config, 30, &topo.as_of_node, &mut rng).unwrap();
        let inst = CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);
        assert_eq!(inst.num_clients(), 40);
        assert_eq!(inst.num_servers(), 3);
        // Server-server delays are exactly half the node RTTs.
        for a in 0..3 {
            for b in 0..3 {
                let raw = delays.rtt(world.servers[a].node, world.servers[b].node);
                assert!((inst.true_ss(a, b) - 0.5 * raw).abs() < 1e-9);
                // Perfect error: observed == true.
                assert_eq!(inst.obs_ss(a, b), inst.true_ss(a, b));
            }
        }
    }

    #[test]
    fn apply_delta_matches_fresh_build_under_perfect_error() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{apply_dynamics, DynamicsBatch, ScenarioConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(17);
        let topo = flat_waxman(40, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("4s-8z-60c-100cp").unwrap();
        let world = dve_world::World::generate(&config, 40, &topo.as_of_node, &mut rng).unwrap();
        let inst = CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);

        let batch = DynamicsBatch {
            joins: 15,
            leaves: 20,
            moves: 10,
        };
        let outcome = apply_dynamics(&world, &batch, 40, &mut rng);
        let handle = WorldDelays::from_matrix(delays.clone(), &world);
        let carried = inst
            .clone()
            .apply_delta(&outcome, &handle, ErrorModel::PERFECT, &mut rng);
        let fresh = CapInstance::build(
            &outcome.world,
            &delays,
            0.5,
            250.0,
            ErrorModel::PERFECT,
            &mut rng,
        );

        assert_eq!(carried.num_clients(), fresh.num_clients());
        assert_eq!(carried.num_zones(), fresh.num_zones());
        for c in 0..fresh.num_clients() {
            assert_eq!(carried.zone_of(c), fresh.zone_of(c));
            assert_eq!(carried.client_target_bps(c), fresh.client_target_bps(c));
            for s in 0..fresh.num_servers() {
                assert_eq!(carried.obs_cs(c, s), fresh.obs_cs(c, s), "c={c} s={s}");
                assert_eq!(carried.true_cs(c, s), fresh.true_cs(c, s));
            }
        }
        for z in 0..fresh.num_zones() {
            assert_eq!(carried.zone_bps(z), fresh.zone_bps(z));
            assert_eq!(carried.clients_in_zone(z), fresh.clients_in_zone(z));
        }
        for a in 0..fresh.num_servers() {
            assert_eq!(carried.capacity(a), fresh.capacity(a));
            for b in 0..fresh.num_servers() {
                assert_eq!(carried.obs_ss(a, b), fresh.obs_ss(a, b));
            }
        }
    }

    #[test]
    fn apply_delta_recycles_slots_under_imbalanced_churn() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{apply_dynamics, DynamicsBatch, ScenarioConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(23);
        let topo = flat_waxman(40, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("4s-8z-80c-100cp").unwrap();
        let mut world =
            dve_world::World::generate(&config, 40, &topo.as_of_node, &mut rng).unwrap();
        let mut inst =
            CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);
        let handle = WorldDelays::from_matrix(delays.clone(), &world);
        assert_eq!(inst.table_rows(), 80);

        // Alternate leave-heavy and join-heavy epochs: slots freed in one
        // epoch must be recycled by a *later* epoch's joiners, so the
        // tables stay bounded by the peak population instead of growing
        // by 30 rows per cycle.
        let drain = DynamicsBatch {
            joins: 0,
            leaves: 30,
            moves: 5,
        };
        let refill = DynamicsBatch {
            joins: 30,
            leaves: 0,
            moves: 5,
        };
        for cycle in 0..5 {
            for batch in [&drain, &refill] {
                let outcome = apply_dynamics(&world, batch, 40, &mut rng);
                inst = inst.apply_delta(&outcome, &handle, ErrorModel::PERFECT, &mut rng);
                world = outcome.world;
                assert!(
                    inst.table_rows() <= 80,
                    "cycle {cycle}: tables grew to {} rows for {} clients",
                    inst.table_rows(),
                    inst.num_clients()
                );
            }
            assert_eq!(inst.num_clients(), 80);
        }
    }

    #[test]
    fn apply_delta_keeps_survivor_estimates_under_error() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{apply_dynamics, DynamicsBatch, ScenarioConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(19);
        let topo = flat_waxman(40, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("4s-8z-60c-100cp").unwrap();
        let world = dve_world::World::generate(&config, 40, &topo.as_of_node, &mut rng).unwrap();
        let inst = CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::IDMAPS, &mut rng);

        let batch = DynamicsBatch {
            joins: 5,
            leaves: 5,
            moves: 5,
        };
        let outcome = apply_dynamics(&world, &batch, 40, &mut rng);
        let handle = WorldDelays::from_matrix(delays.clone(), &world);
        let carried = inst
            .clone()
            .apply_delta(&outcome, &handle, ErrorModel::IDMAPS, &mut rng);
        for (new_idx, prov) in outcome.carried_from.iter().enumerate() {
            if let Some(old) = prov {
                for s in 0..inst.num_servers() {
                    // Survivors keep the very estimates they already had.
                    assert_eq!(carried.obs_cs(new_idx, s), inst.obs_cs(*old, s));
                }
            } else {
                for s in 0..inst.num_servers() {
                    // Joiners' estimates stay within the error envelope.
                    let t = carried.true_cs(new_idx, s);
                    let o = carried.obs_cs(new_idx, s);
                    assert!(o >= t / 2.0 - 1e-9 && o <= t * 2.0 + 1e-9);
                }
            }
        }
    }

    /// Drives a random stream-op sequence against a mirror world that
    /// applies the same swap-remove semantics, then asserts every
    /// accessor of the in-place instance is bit-identical to a fresh
    /// build of the mirror world.
    #[test]
    fn stream_ops_match_fresh_build_of_mirror_world() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{Client, ScenarioConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(23);
        let topo = flat_waxman(40, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("4s-8z-60c-100cp").unwrap();
        let world = dve_world::World::generate(&config, 40, &topo.as_of_node, &mut rng).unwrap();
        let mut inst =
            CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);
        let handle = WorldDelays::from_matrix(delays.clone(), &world);
        let model = world.config.bandwidth;
        let mut mirror: Vec<Client> = world.clients.clone();

        for step in 0..300 {
            match rng.gen_range(0..3) {
                0 if !mirror.is_empty() => {
                    let c = rng.gen_range(0..mirror.len());
                    let dep = inst.stream_leave(c, &model);
                    assert_eq!(dep.zone, mirror[c].zone);
                    let last = mirror.len() - 1;
                    assert_eq!(dep.relocated, (c != last).then_some(last));
                    mirror.swap_remove(c);
                }
                1 => {
                    let node = rng.gen_range(0..40);
                    let zone = rng.gen_range(0..world.zones);
                    let idx = inst.stream_join(
                        node,
                        zone,
                        &handle,
                        &model,
                        ErrorModel::PERFECT,
                        &mut rng,
                    );
                    assert_eq!(idx, mirror.len());
                    mirror.push(Client { node, zone });
                }
                _ if !mirror.is_empty() => {
                    let c = rng.gen_range(0..mirror.len());
                    let zone = rng.gen_range(0..world.zones);
                    inst.stream_move(c, zone, &model);
                    mirror[c].zone = zone;
                }
                _ => {}
            }

            if step % 50 != 49 {
                continue;
            }
            let mut mirror_world = world.clone();
            mirror_world.clients = mirror.clone();
            let fresh = CapInstance::build(
                &mirror_world,
                &delays,
                0.5,
                250.0,
                ErrorModel::PERFECT,
                &mut rng,
            );
            assert_eq!(inst.num_clients(), fresh.num_clients());
            for c in 0..fresh.num_clients() {
                assert_eq!(inst.zone_of(c), fresh.zone_of(c), "step {step} c={c}");
                assert_eq!(inst.client_target_bps(c), fresh.client_target_bps(c));
                for s in 0..fresh.num_servers() {
                    assert_eq!(inst.obs_cs(c, s), fresh.obs_cs(c, s), "step {step}");
                    assert_eq!(inst.true_cs(c, s), fresh.true_cs(c, s));
                }
            }
            for z in 0..fresh.num_zones() {
                assert_eq!(inst.zone_bps(z), fresh.zone_bps(z), "step {step} z={z}");
                for (pos, &c) in inst.clients_in_zone(z).iter().enumerate() {
                    assert_eq!(
                        inst.slot_of_client[c] as usize, pos,
                        "step {step} z={z}: zone slot of client {c} out of step"
                    );
                }
                let mut a: Vec<usize> = inst.clients_in_zone(z).to_vec();
                let mut b: Vec<usize> = fresh.clients_in_zone(z).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "step {step} z={z}");
                for s in 0..fresh.num_servers() {
                    assert_eq!(inst.iap_cost(s, z), fresh.iap_cost(s, z));
                }
            }
        }
    }

    /// Leave-heavy streams recycle row slots: the tables never grow past
    /// the peak population.
    #[test]
    fn stream_ops_recycle_row_slots() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::ScenarioConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(29);
        let topo = flat_waxman(30, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("3s-6z-50c-100cp").unwrap();
        let world = dve_world::World::generate(&config, 30, &topo.as_of_node, &mut rng).unwrap();
        let mut inst =
            CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);
        let handle = WorldDelays::from_matrix(delays.clone(), &world);
        let model = world.config.bandwidth;

        for round in 0..20 {
            // Churn one out, one in, forever: population and table size
            // must both stay pinned at 50 rows.
            inst.stream_leave(round % inst.num_clients(), &model);
            inst.stream_join(
                round % 30,
                round % 6,
                &handle,
                &model,
                ErrorModel::PERFECT,
                &mut rng,
            );
            assert_eq!(inst.num_clients(), 50);
            assert_eq!(inst.table_rows(), 50);
        }
    }

    /// Fixture for the blocked-builder tests: a generated world, its
    /// dense matrix, and the matching pipeline handle.
    fn blocked_fixture(
        seed: u64,
        notation: &str,
    ) -> (
        dve_world::World,
        DelayMatrix,
        WorldDelays,
        rand::rngs::StdRng,
    ) {
        use dve_topology::{flat_waxman, WaxmanParams};
        use dve_world::ScenarioConfig;
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = flat_waxman(40, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation(notation).unwrap();
        let world = dve_world::World::generate(&config, 40, &topo.as_of_node, &mut rng).unwrap();
        let handle = WorldDelays::from_matrix(delays.clone(), &world);
        (world, delays, handle, rng)
    }

    /// The blocked f64 build is bit-identical to the dense reference —
    /// including under an error model (the blocked path draws the same
    /// RNG sequence in the same order).
    #[test]
    fn from_world_dense_is_bit_identical_to_build() {
        for error in [ErrorModel::PERFECT, ErrorModel::KING] {
            let (world, delays, handle, rng) = blocked_fixture(41, "4s-8z-70c-100cp");
            let mut rng_a = rng.clone();
            let mut rng_b = rng;
            let dense = CapInstance::build(&world, &delays, 0.5, 250.0, error, &mut rng_a);
            let blocked = CapInstance::from_world(
                &world,
                &handle,
                0.5,
                250.0,
                error,
                DelayLayout::Dense64,
                &mut rng_b,
            );
            assert_eq!(blocked.layout(), DelayLayout::Dense64);
            assert_eq!(dense.num_clients(), blocked.num_clients());
            for c in 0..dense.num_clients() {
                assert_eq!(dense.zone_of(c), blocked.zone_of(c));
                assert_eq!(dense.client_target_bps(c), blocked.client_target_bps(c));
                for s in 0..dense.num_servers() {
                    assert_eq!(dense.obs_cs(c, s), blocked.obs_cs(c, s), "c={c} s={s}");
                    assert_eq!(dense.true_cs(c, s), blocked.true_cs(c, s));
                }
            }
            for a in 0..dense.num_servers() {
                for b in 0..dense.num_servers() {
                    assert_eq!(dense.obs_ss(a, b), blocked.obs_ss(a, b));
                    assert_eq!(dense.true_ss(a, b), blocked.true_ss(a, b));
                }
            }
            // The two builders leave the RNG in the same state.
            assert_eq!(
                rand::Rng::gen::<u64>(&mut rng_a),
                rand::Rng::gen::<u64>(&mut rng_b),
                "builders must consume identical draw sequences"
            );
        }
    }

    /// SharedByNode is accessor-identical to the dense build under
    /// perfect observations, with memory bounded by the substrate.
    #[test]
    fn shared_layout_matches_dense_under_perfect() {
        let (world, delays, handle, rng) = blocked_fixture(47, "4s-8z-120c-100cp");
        let mut rng_a = rng.clone();
        let mut rng_b = rng;
        let dense =
            CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng_a);
        let shared = CapInstance::from_world(
            &world,
            &handle,
            0.5,
            250.0,
            ErrorModel::PERFECT,
            DelayLayout::SharedByNode,
            &mut rng_b,
        );
        for c in 0..dense.num_clients() {
            for s in 0..dense.num_servers() {
                assert_eq!(dense.obs_cs(c, s), shared.obs_cs(c, s));
                assert_eq!(dense.true_cs(c, s), shared.true_cs(c, s));
            }
        }
        // 40 nodes x 4 servers x 8 bytes, regardless of the 120 clients.
        assert_eq!(shared.delay_table_bytes(), 40 * 4 * 8);
        assert!(dense.delay_table_bytes() > shared.delay_table_bytes());
        assert_eq!(shared.table_rows(), 40);
    }

    /// Shared-layout stream ops stay accessor-identical to a dense
    /// mirror instance driven by the same events, and never grow the
    /// table or the free list.
    #[test]
    fn shared_layout_stream_ops_match_dense_mirror() {
        use rand::Rng;
        let (world, delays, handle, rng) = blocked_fixture(53, "4s-8z-60c-100cp");
        let mut rng_a = rng.clone();
        let mut rng_b = rng;
        let mut dense =
            CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng_a);
        let mut shared = CapInstance::from_world(
            &world,
            &handle,
            0.5,
            250.0,
            ErrorModel::PERFECT,
            DelayLayout::SharedByNode,
            &mut rng_b,
        );
        let model = world.config.bandwidth;
        for step in 0..200 {
            match rng_a.gen_range(0..3) {
                0 if dense.num_clients() > 1 => {
                    let c = rng_a.gen_range(0..dense.num_clients());
                    let a = dense.stream_leave(c, &model);
                    let b = shared.stream_leave(c, &model);
                    assert_eq!(a, b);
                }
                1 => {
                    let node = rng_a.gen_range(0..40);
                    let zone = rng_a.gen_range(0..world.zones);
                    let ia = dense.stream_join(
                        node,
                        zone,
                        &handle,
                        &model,
                        ErrorModel::PERFECT,
                        &mut rng_b,
                    );
                    let ib = shared.stream_join(
                        node,
                        zone,
                        &handle,
                        &model,
                        ErrorModel::PERFECT,
                        &mut rng_b,
                    );
                    assert_eq!(ia, ib);
                }
                _ => {
                    let c = rng_a.gen_range(0..dense.num_clients());
                    let zone = rng_a.gen_range(0..world.zones);
                    dense.stream_move(c, zone, &model);
                    shared.stream_move(c, zone, &model);
                }
            }
            if step % 40 == 39 {
                assert_eq!(dense.num_clients(), shared.num_clients());
                for c in 0..dense.num_clients() {
                    assert_eq!(dense.zone_of(c), shared.zone_of(c));
                    for s in 0..dense.num_servers() {
                        assert_eq!(dense.obs_cs(c, s), shared.obs_cs(c, s), "step {step}");
                    }
                }
                assert_eq!(shared.table_rows(), 40, "shared table never grows");
                assert!(shared.free_rows.is_empty(), "shared rows are never freed");
            }
        }
    }

    /// The worker-parallel row fill (engaged above `BUILD_BLOCK`
    /// clients) is bit-identical to the serial fill — the
    /// thread-count-invariance the pipeline builder promises — and so is
    /// the cost matrix built from it.
    #[test]
    fn par_fill_matches_serial_fill_above_block_size() {
        let (world, _delays, handle, rng) = blocked_fixture(67, "4s-8z-5000c-200cp");
        assert!(world.clients.len() > BUILD_BLOCK);
        for error in [ErrorModel::PERFECT, ErrorModel::KING] {
            let mut rng_a = rng.clone();
            let mut rng_b = rng.clone();
            let build = |threads, rng: &mut rand::rngs::StdRng| {
                CapInstance::from_world_threads(
                    &world,
                    &handle,
                    0.5,
                    250.0,
                    error,
                    DelayLayout::Dense64,
                    threads,
                    rng,
                )
            };
            let serial = build(1, &mut rng_a);
            let par = build(4, &mut rng_b);
            assert_eq!(
                crate::CostMatrix::build_threads(&serial, 1),
                crate::CostMatrix::build_threads(&par, 4)
            );
            for c in 0..serial.num_clients() {
                for s in 0..serial.num_servers() {
                    assert_eq!(serial.obs_cs(c, s), par.obs_cs(c, s), "c={c} s={s}");
                    assert_eq!(serial.true_cs(c, s), par.true_cs(c, s));
                }
            }
        }
    }

    /// Perfect observations keep one dense delay table, which answers
    /// for the true delays too; an imperfect build keeps two. The first
    /// imperfect write into a perfect instance — a streamed join or a
    /// churn carry's joiner — creates the true table and leaves every
    /// earlier row as it was.
    #[test]
    fn perfect_observations_keep_one_delay_table() {
        use dve_world::{apply_dynamics, DynamicsBatch};
        use rand::Rng;

        let (world, delays, handle, mut rng) = blocked_fixture(71, "4s-8z-60c-100cp");
        let m = world.servers.len();
        let model = world.config.bandwidth;
        let dense = |error, rng: &mut rand::rngs::StdRng| {
            CapInstance::from_world(
                &world,
                &handle,
                0.5,
                250.0,
                error,
                DelayLayout::Dense64,
                rng,
            )
        };
        let one_table = |inst: &CapInstance| inst.table_rows() * m * 8;
        let same_rows = |a: &CapInstance, b: &CapInstance, pairs: &[(usize, usize)]| {
            for &(ca, cb) in pairs {
                for s in 0..m {
                    assert_eq!(a.obs_cs(ca, s).to_bits(), b.obs_cs(cb, s).to_bits());
                    assert_eq!(a.true_cs(ca, s).to_bits(), b.true_cs(cb, s).to_bits());
                }
            }
        };

        let perfect = dense(ErrorModel::PERFECT, &mut rng.clone());
        let built = CapInstance::build(
            &world,
            &delays,
            0.5,
            250.0,
            ErrorModel::PERFECT,
            &mut rng.clone(),
        );
        for inst in [&perfect, &built] {
            assert_eq!(inst.delay_table_bytes(), one_table(inst));
            for c in 0..inst.num_clients() {
                for s in 0..m {
                    assert_eq!(inst.true_cs(c, s).to_bits(), inst.obs_cs(c, s).to_bits());
                }
            }
        }
        let imperfect = dense(ErrorModel::KING, &mut rng.clone());
        assert_eq!(imperfect.delay_table_bytes(), 2 * one_table(&imperfect));

        let everyone: Vec<(usize, usize)> = (0..perfect.num_clients()).map(|c| (c, c)).collect();
        let mut joined = perfect.clone();
        let node = rng.gen_range(0..40);
        let idx = joined.stream_join(node, 3, &handle, &model, ErrorModel::KING, &mut rng);
        assert_eq!(joined.delay_table_bytes(), 2 * one_table(&joined));
        same_rows(&joined, &perfect, &everyone);
        for (s, &d) in handle.server_row(node).iter().enumerate() {
            assert_eq!(joined.true_cs(idx, s), d);
        }
        assert!((0..m).any(|s| joined.obs_cs(idx, s) != joined.true_cs(idx, s)));

        let batch = DynamicsBatch {
            joins: 12,
            leaves: 10,
            moves: 8,
        };
        let outcome = apply_dynamics(&world, &batch, 40, &mut rng);
        let carried = perfect
            .clone()
            .apply_delta(&outcome, &handle, ErrorModel::KING, &mut rng);
        assert_eq!(carried.delay_table_bytes(), 2 * one_table(&carried));
        let survivors: Vec<(usize, usize)> = outcome
            .carried_from
            .iter()
            .enumerate()
            .filter_map(|(new, old)| old.map(|old| (new, old)))
            .collect();
        assert!(
            survivors.len() < carried.num_clients(),
            "the carry admits joiners"
        );
        same_rows(&carried, &perfect, &survivors);
    }

    /// An instance built from a world leaves k/8 spare slots in every
    /// per-client array and in the dense delay table, so its first k/8
    /// streamed joins reallocate none of them.
    #[test]
    fn first_joins_after_build_reallocate_no_population_array() {
        let (world, _delays, handle, mut rng) = blocked_fixture(73, "4s-8z-800c-100cp");
        let model = world.config.bandwidth;
        let k = world.clients.len();
        for layout in [DelayLayout::Dense64, DelayLayout::SharedByNode] {
            let mut inst = CapInstance::from_world(
                &world,
                &handle,
                0.5,
                250.0,
                ErrorModel::PERFECT,
                layout,
                &mut rng,
            );
            let buffers = |inst: &CapInstance| {
                let mut out = vec![
                    (
                        inst.row_of_client.as_ptr() as usize,
                        inst.row_of_client.capacity(),
                    ),
                    (
                        inst.zone_of_client.as_ptr() as usize,
                        inst.zone_of_client.capacity(),
                    ),
                    (
                        inst.client_target_bps.as_ptr() as usize,
                        inst.client_target_bps.capacity(),
                    ),
                    (
                        inst.slot_of_client.as_ptr() as usize,
                        inst.slot_of_client.capacity(),
                    ),
                ];
                if let DelayTable::Dense { obs, tru } = &inst.cs {
                    assert!(tru.is_none(), "perfect observations keep one table");
                    out.push((obs.as_ptr() as usize, obs.capacity()));
                }
                out
            };
            let before = buffers(&inst);
            for i in 0..k / 8 {
                inst.stream_join(
                    i % 40,
                    i % 8,
                    &handle,
                    &model,
                    ErrorModel::PERFECT,
                    &mut rng,
                );
            }
            assert_eq!(inst.num_clients(), k + k / 8);
            assert_eq!(buffers(&inst), before, "{layout:?}: a join reallocated");
        }
    }

    #[test]
    #[should_panic(expected = "SharedByNode requires perfect observations")]
    fn shared_layout_rejects_error_models() {
        let (world, _delays, handle, mut rng) = blocked_fixture(61, "4s-8z-30c-100cp");
        let _ = CapInstance::from_world(
            &world,
            &handle,
            0.5,
            250.0,
            ErrorModel::KING,
            DelayLayout::SharedByNode,
            &mut rng,
        );
    }

    #[test]
    fn error_model_distorts_observations_only() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::ScenarioConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(2);
        let topo = flat_waxman(30, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("3s-6z-40c-100cp").unwrap();
        let world = dve_world::World::generate(&config, 30, &topo.as_of_node, &mut rng).unwrap();
        let inst = CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::IDMAPS, &mut rng);
        let mut distorted = 0;
        for c in 0..inst.num_clients() {
            for s in 0..inst.num_servers() {
                let t = inst.true_cs(c, s);
                let o = inst.obs_cs(c, s);
                assert!(o >= t / 2.0 - 1e-9 && o <= t * 2.0 + 1e-9);
                if (o - t).abs() > 1e-9 {
                    distorted += 1;
                }
            }
        }
        assert!(distorted > 0, "error model must actually distort");
    }
}
