//! Replicated experiment execution, parallelised over runs, and the
//! trace drivers of the serving engine.
//!
//! The three drivers boot one [`ServeEngine`] on a replication and
//! serve it a trace, recording one [`StreamEpochRecord`] per epoch:
//!
//! * [`run_stream`] — Table 3 churn (joins, leaves, moves), decomposed
//!   into per-event [`StreamEvent`]s, with a forced flush at each epoch
//!   boundary, where quality is sampled;
//! * [`run_recovery_stream`] — the same churn under a seeded
//!   [`FaultSchedule`], measuring how fast quality recovers from server
//!   failures (the `recover` bench's harness);
//! * [`run_mobility_stream`] — avatar walks of a [`MobilityModel`]
//!   instead of Table 3 batches.
//!
//! The two Table 3 drivers share one epoch step: draw the epoch's
//! trace, decompose it with `DynamicsOutcome::to_events`, translate
//! trace-world indices to engine ids, push with backpressure, flush, and
//! re-key the ids for the next epoch.

use crate::serve::{ClientId, ServeConfig, ServeEngine, ServeError, ServeStats, StreamEvent};
use crate::setup::{build_replication, SimSetup};
use crate::stats::{Accumulator, Summary};
use dve_assign::{evaluate, solve, CapAlgorithm, Metrics, StuckPolicy};
use dve_world::{
    apply_dynamics, DynamicsBatch, ErrorModel, FaultSchedule, InterArrival, MobilityModel, World,
    WorldEvent,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Metrics of one algorithm on one replication.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Algorithm display name.
    pub algorithm: String,
    /// Replication index.
    pub run: usize,
    /// Fraction of clients with QoS.
    pub pqos: f64,
    /// Resource utilisation.
    pub utilization: f64,
    /// Clients forwarded through a foreign contact.
    pub forwarded: usize,
    /// Wall-clock solve time, milliseconds.
    pub exec_ms: f64,
    /// Whether the assignment satisfied all capacities.
    pub feasible: bool,
    /// Per-client true delays (for CDF pooling).
    pub delays: Vec<f64>,
}

/// Aggregated statistics of one algorithm across replications.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgoStats {
    /// Algorithm display name.
    pub algorithm: String,
    /// pQoS across runs.
    pub pqos: Summary,
    /// Utilisation across runs.
    pub utilization: Summary,
    /// Solve time (ms) across runs.
    pub exec_ms: Summary,
    /// Pooled per-client delays across all runs.
    pub pooled_delays: Vec<f64>,
    /// Number of runs whose assignment was capacity-feasible.
    pub feasible_runs: usize,
    /// Total runs.
    pub runs: usize,
}

/// Runs `algorithms` on replication `index` of `setup`.
pub fn run_replication(
    setup: &SimSetup,
    index: usize,
    algorithms: &[CapAlgorithm],
    policy: StuckPolicy,
) -> Vec<RunRecord> {
    let mut rep = build_replication(setup, index);
    algorithms
        .iter()
        .map(|&algo| {
            let started = Instant::now();
            let assignment = solve(&rep.instance, algo, policy, &mut rep.rng)
                .unwrap_or_else(|e| panic!("{algo} failed on run {index}: {e}"));
            let exec_ms = started.elapsed().as_secs_f64() * 1e3;
            let metrics: Metrics = evaluate(&rep.instance, &assignment);
            RunRecord {
                algorithm: algo.name().to_string(),
                run: index,
                pqos: metrics.pqos,
                utilization: metrics.utilization,
                forwarded: metrics.forwarded_clients,
                exec_ms,
                feasible: assignment.is_feasible(&rep.instance),
                delays: metrics.delays,
            }
        })
        .collect()
}

/// Runs the full replicated experiment, parallelised over runs, and
/// aggregates per algorithm (order follows `algorithms`).
pub fn run_experiment(
    setup: &SimSetup,
    algorithms: &[CapAlgorithm],
    policy: StuckPolicy,
) -> Vec<AlgoStats> {
    let indices: Vec<usize> = (0..setup.runs).collect();
    let per_run: Vec<Vec<RunRecord>> =
        dve_par::par_map(&indices, |&i| run_replication(setup, i, algorithms, policy));
    aggregate(algorithms, per_run)
}

/// Aggregates per-run records into per-algorithm statistics.
pub fn aggregate(algorithms: &[CapAlgorithm], per_run: Vec<Vec<RunRecord>>) -> Vec<AlgoStats> {
    let mut out: Vec<AlgoStats> = algorithms
        .iter()
        .map(|a| AlgoStats {
            algorithm: a.name().to_string(),
            pqos: Summary::of(&[]),
            utilization: Summary::of(&[]),
            exec_ms: Summary::of(&[]),
            pooled_delays: Vec::new(),
            feasible_runs: 0,
            runs: 0,
        })
        .collect();
    let mut pqos_acc: Vec<Accumulator> = vec![Accumulator::new(); algorithms.len()];
    let mut util_acc: Vec<Accumulator> = vec![Accumulator::new(); algorithms.len()];
    let mut time_acc: Vec<Accumulator> = vec![Accumulator::new(); algorithms.len()];
    for records in per_run {
        for (k, r) in records.into_iter().enumerate() {
            debug_assert_eq!(r.algorithm, out[k].algorithm);
            pqos_acc[k].push(r.pqos);
            util_acc[k].push(r.utilization);
            time_acc[k].push(r.exec_ms);
            out[k].pooled_delays.extend(r.delays);
            out[k].feasible_runs += usize::from(r.feasible);
            out[k].runs += 1;
        }
    }
    for (k, stats) in out.iter_mut().enumerate() {
        stats.pqos = pqos_acc[k].summary();
        stats.utilization = util_acc[k].summary();
        stats.exec_ms = time_acc[k].summary();
    }
    out
}

/// How [`run_mobility_stream`] samples serving quality at tick
/// boundaries.
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

/// Per-epoch record of a trace driver (one per tick of
/// [`run_mobility_stream`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamEpochRecord {
    /// Epoch index (0-based; the schedule tick of
    /// [`run_recovery_stream`]).
    pub epoch: usize,
    /// Live population after the epoch's events.
    pub clients: usize,
    /// pQoS of the engine's assignment at the epoch boundary.
    pub pqos: f64,
    /// Servers down at the epoch boundary.
    pub down_servers: usize,
    /// Joins still deferred by admission control at the boundary.
    pub deferred_joins: usize,
    /// Zones migrated during this epoch (evacuations and re-admission
    /// sweeps included).
    pub zones_migrated: u64,
    /// Full-repair fallbacks during this epoch.
    pub full_repairs: u64,
    /// Micro-batch flushes this epoch.
    pub flushes: u64,
}

/// Result of a [`run_stream`] or [`run_mobility_stream`] run: per-epoch
/// quality plus the engine's lifetime counters (per-event latency
/// included).
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// One record per epoch.
    pub records: Vec<StreamEpochRecord>,
    /// Engine counters at the end of the run.
    pub stats: ServeStats,
}

/// Result of a [`run_recovery_stream`] replay: the quality trajectory
/// around the schedule's failures, plus the engine's lifetime counters.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// One record per schedule tick (= churn epoch).
    pub records: Vec<StreamEpochRecord>,
    /// pQoS at the epoch boundary just before the first failure — the
    /// baseline recovery is measured against.
    pub pre_pqos: f64,
    /// The worst pQoS observed at or after the first failure.
    pub trough_pqos: f64,
    /// The first epoch at/after the failure whose pQoS reached
    /// `recover_factor x pre_pqos`, if any.
    pub recovered_at: Option<usize>,
    /// Serving events applied between the first failure and the
    /// recovery epoch — the event-budget the CI gate bounds.
    pub events_to_recover: Option<u64>,
    /// Leaves/moves addressed to clients that were shed at admission
    /// and therefore never existed (dropped, not errors).
    pub dropped_events: u64,
    /// Engine counters at the end of the run (failovers, recoveries,
    /// shed counts, latency histograms).
    pub stats: ServeStats,
}

/// A replication booted for a trace driver: the engine, the trace world
/// and RNG the driver draws its events from, and the engine counters at
/// the last epoch record.
#[derive(Debug)]
pub(crate) struct Driver {
    engine: ServeEngine,
    world: World,
    rng: StdRng,
    nodes: usize,
    /// (zones migrated, full repairs, flushes) at the last record.
    seen: (u64, u64, u64),
}

/// Pushes one event, reacting to bounded-queue backpressure the way an
/// ingest frontend would: flush, then retry once (a freshly drained
/// buffer always has room for one event).
fn push_with_backpressure(
    engine: &mut ServeEngine,
    event: StreamEvent,
) -> Result<Option<ClientId>, ServeError> {
    match engine.push(event) {
        Err(ServeError::QueueFull { .. }) => {
            engine.flush_now();
            engine.push(event)
        }
        other => other,
    }
}

impl Driver {
    /// Boots the engine on replication `index` of `setup`. `salt` seeds
    /// the engine's RNG (drawn only under estimation error), one per
    /// driver, so each driver's runs reproduce.
    pub(crate) fn boot(
        setup: &SimSetup,
        index: usize,
        salt: u64,
        policy: StuckPolicy,
        config: ServeConfig,
    ) -> Result<Driver, ServeError> {
        let rep = build_replication(setup, index);
        let engine = ServeEngine::new(
            rep.instance,
            &rep.world,
            rep.delays,
            ErrorModel::new(setup.error_factor),
            policy,
            config,
            StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ salt),
        )?;
        Ok(Driver {
            engine,
            nodes: rep.topology.node_count(),
            world: rep.world,
            rng: rep.rng,
            seen: (0, 0, 0),
        })
    }

    /// The engine being driven.
    #[cfg(test)]
    pub(crate) fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// The engine id of each trace-world client at boot: the identity.
    pub(crate) fn boot_ids(&self) -> Vec<Option<ClientId>> {
        (0..self.world.clients.len())
            .map(|c| Some(c as ClientId))
            .collect()
    }

    /// Serves one epoch of `batch` churn: draws the Table 3 trace
    /// against the trace world, pushes its events (leaves, then moves,
    /// then joins) through the engine by id, flushes, and re-keys `ids`
    /// (trace-world client → engine id; `None` marks a join shed at
    /// admission) to the epoch's world. Returns the leaves and moves
    /// dropped because they address a shed client.
    pub(crate) fn serve_epoch(
        &mut self,
        batch: &DynamicsBatch,
        ids: &mut Vec<Option<ClientId>>,
    ) -> Result<u64, ServeError> {
        let outcome = apply_dynamics(&self.world, batch, self.nodes, &mut self.rng);
        let mut join_ids: Vec<Option<ClientId>> = Vec::with_capacity(outcome.delta.joins.len());
        let mut dropped = 0u64;
        for event in outcome.to_events() {
            let event = match event {
                WorldEvent::Leave { client } => ids[client].map(|id| StreamEvent::Leave { id }),
                WorldEvent::Move { client, zone } => {
                    ids[client].map(|id| StreamEvent::Move { id, zone })
                }
                WorldEvent::Join { node, zone } => Some(StreamEvent::Join { node, zone }),
                WorldEvent::ServerDown { .. } | WorldEvent::ServerUp { .. } => {
                    unreachable!("dynamics traces carry no infrastructure events")
                }
            };
            let Some(event) = event else {
                dropped += 1;
                continue;
            };
            let joins = matches!(event, StreamEvent::Join { .. });
            match push_with_backpressure(&mut self.engine, event) {
                Ok(id) if joins => join_ids.push(id),
                Err(ServeError::Shed { .. }) if joins => join_ids.push(None),
                Ok(_) => {}
                Err(ServeError::UnknownClient { .. }) if !joins => dropped += 1,
                Err(e) => return Err(e),
            }
        }
        self.engine.flush_now();
        let mut joins = join_ids.into_iter();
        *ids = outcome
            .carried_from
            .iter()
            .map(|prov| match prov {
                Some(old) => ids[*old],
                None => joins.next().expect("one id slot per join"),
            })
            .collect();
        self.world = outcome.world;
        Ok(dropped)
    }

    /// The engine's (zones migrated, full repairs, flushes) counters.
    fn counters(&self) -> (u64, u64, u64) {
        let stats = self.engine.stats();
        (stats.zones_migrated, stats.full_repairs, stats.flushes)
    }

    /// The record of epoch `epoch` at quality `pqos`, counting what the
    /// engine did since the last record.
    fn record(&mut self, epoch: usize, pqos: f64) -> StreamEpochRecord {
        let now = self.counters();
        let record = StreamEpochRecord {
            epoch,
            clients: self.engine.num_clients(),
            pqos,
            down_servers: self.engine.down_servers().len(),
            deferred_joins: self.engine.deferred_joins(),
            zones_migrated: now.0 - self.seen.0,
            full_repairs: now.1 - self.seen.1,
            flushes: now.2 - self.seen.2,
        };
        self.seen = now;
        record
    }
}

/// Runs the streaming engine on replication `index`: Table 3 dynamics
/// traces decomposed into per-event [`StreamEvent`]s and pushed one at a
/// time under `config`'s micro-batching policy, with a forced flush at
/// each epoch boundary (where quality is sampled).
///
/// The first `warmup_epochs` epochs are streamed inside a
/// [`ServeEngine::begin_warmup`] window: their events are applied and
/// timed into [`ServeStats::warmup`], but produce no epoch records and
/// never touch the gated steady-state histogram. This is how the latency
/// benches separate cold-start traffic from the serving SLO. Then
/// `epochs` epochs are recorded, numbered from 0.
///
/// Joins shed by admission control never materialise: later events
/// addressed to them are dropped, and a bounded ingest queue is honoured
/// by flushing and retrying once on [`ServeError::QueueFull`]. With
/// estimation error the engine samples joiner estimates from its own
/// seeded RNG.
///
/// Returns [`ServeError::Infeasible`] (instead of panicking) when the
/// initial assignment cannot be solved under `policy`.
pub fn run_stream(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    warmup_epochs: usize,
    epochs: usize,
    policy: StuckPolicy,
    config: ServeConfig,
) -> Result<StreamReport, ServeError> {
    let mut driver = Driver::boot(setup, index, 0x5e4e, policy, config)?;
    let mut ids = driver.boot_ids();
    let mut records = Vec::with_capacity(epochs);
    if warmup_epochs > 0 {
        driver.engine.begin_warmup();
    }
    for epoch in 0..warmup_epochs + epochs {
        if epoch == warmup_epochs && driver.engine.is_warming_up() {
            driver.engine.end_warmup();
        }
        driver.serve_epoch(batch, &mut ids)?;
        if epoch < warmup_epochs {
            driver.seen = driver.counters();
        } else {
            let pqos = driver.engine.metrics().pqos;
            records.push(driver.record(epoch - warmup_epochs, pqos));
        }
    }
    Ok(StreamReport {
        records,
        stats: driver.engine.stats().clone(),
    })
}

/// Replays `schedule` against a streaming engine under churn: each tick
/// first applies the tick's fault events (down → mass evacuation, up →
/// re-admission sweep), then serves one epoch of `batch` churn exactly
/// as [`run_stream`] does, and samples quality exactly. Deterministic
/// for a given setup, schedule, and config.
///
/// `recover_factor` defines recovery: the first epoch at/after the
/// first failure whose pQoS is at least `recover_factor x` the
/// pre-failure baseline; the report counts the serving events applied
/// between the first failure and that epoch.
///
/// Errors with [`ServeError::Infeasible`] when the initial assignment
/// cannot be solved, or [`ServeError::UnknownServer`] when the schedule
/// names a server the instance does not have.
pub fn run_recovery_stream(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    schedule: &FaultSchedule,
    policy: StuckPolicy,
    config: ServeConfig,
    recover_factor: f64,
) -> Result<RecoveryReport, ServeError> {
    let mut driver = Driver::boot(setup, index, 0xf417, policy, config)?;
    let mut ids = driver.boot_ids();
    let mut records: Vec<StreamEpochRecord> = Vec::with_capacity(schedule.ticks());
    let mut dropped_events = 0u64;
    let mut pre_pqos = f64::NAN;
    let mut trough_pqos = f64::INFINITY;
    let mut events_at_failure = None;
    let mut recovered_at: Option<usize> = None;
    let mut events_to_recover: Option<u64> = None;

    for epoch in 0..schedule.ticks() {
        // Fault events first: the failure hits a quiet boundary, and
        // the epoch's churn then lands on the degraded engine.
        for fault in schedule.events_at(epoch) {
            match fault {
                WorldEvent::ServerDown { server } => {
                    if events_at_failure.is_none() {
                        events_at_failure = Some(driver.engine.stats().events);
                        // Baseline: the last quiet-boundary quality, or
                        // the boot state when the schedule fails at 0.
                        pre_pqos = records
                            .last()
                            .map_or_else(|| driver.engine.metrics().pqos, |r| r.pqos);
                    }
                    driver.engine.fail_server(server)?;
                }
                WorldEvent::ServerUp { server } => {
                    driver.engine.restore_server(server)?;
                }
                _ => unreachable!("fault schedules carry only infrastructure events"),
            }
        }
        dropped_events += driver.serve_epoch(batch, &mut ids)?;
        let pqos = driver.engine.metrics().pqos;
        records.push(driver.record(epoch, pqos));
        if let Some(at_failure) = events_at_failure {
            trough_pqos = trough_pqos.min(pqos);
            if recovered_at.is_none() && pqos >= recover_factor * pre_pqos {
                recovered_at = Some(epoch);
                events_to_recover = Some(driver.engine.stats().events - at_failure);
            }
        }
    }

    Ok(RecoveryReport {
        records,
        pre_pqos,
        trough_pqos: if trough_pqos.is_finite() {
            trough_pqos
        } else {
            f64::NAN
        },
        recovered_at,
        events_to_recover,
        dropped_events,
        stats: driver.engine.stats().clone(),
    })
}

/// Drives a [`ServeEngine`] from a [`MobilityModel`] instead of Table 3
/// batch traces (the avatar-walk workload): each tick draws the model's
/// move events against a mirror world, pushes them as [`StreamEvent`]s,
/// heartbeats the engine, and samples quality at the tick boundary with
/// `quality`.
///
/// Mobility emits only moves, so engine client indices coincide with the
/// mirror world's and ids never retire. `config` controls
/// micro-batching exactly as in [`run_stream`]. `arrival` selects the
/// event timing:
///
/// * [`InterArrival::AtTick`] — every tick's moves are pushed at the
///   boundary, the engine is heartbeat once and then **force-flushed**,
///   and quality is sampled from fully applied state.
/// * [`InterArrival::Exponential`] — moves are stamped with in-tick
///   arrival offsets ([`MobilityModel::timed_events`]); an event is
///   delivered only once the wall-clock reaches its arrival time, so a
///   burst longer than the tick spills into later ticks, and there is
///   **no forced flush**: flushing is driven purely by `max_batch` and
///   the `max_staleness` heartbeat — staleness ticks genuinely model
///   wall-clock deadlines. Anything still buffered flushes once after
///   the final tick.
pub fn run_mobility_stream(
    setup: &SimSetup,
    index: usize,
    model: &MobilityModel,
    ticks: usize,
    policy: StuckPolicy,
    config: ServeConfig,
    arrival: InterArrival,
    quality: QualityEstimator,
) -> Result<StreamReport, ServeError> {
    let mut driver = Driver::boot(setup, index, 0x306b, policy, config)?;
    let mut sample_rng = StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ 0x9a11);
    let timed = !matches!(arrival, InterArrival::AtTick);
    // Events drawn but not yet delivered (arrival time still in the
    // future), as (absolute arrival tick, mover id, zone). NOT sorted
    // globally: each tick's schedule is increasing, but a burst longer
    // than a tick makes its tail overlap the next tick's head — so
    // delivery drains every *due* entry per tick and orders the drained
    // set by arrival time (stable on ties, preserving draw order).
    // `AtTick` stamps every event 0 within its tick: all are due at once,
    // in draw order.
    let mut backlog: Vec<(f64, ClientId, usize)> = Vec::new();
    let mut records = Vec::with_capacity(ticks);
    for tick in 0..ticks {
        let Driver {
            engine, world, rng, ..
        } = &mut driver;
        for (at, event) in model.timed_events(world, arrival, rng) {
            let WorldEvent::Move { client, zone } = event else {
                unreachable!("mobility emits only moves");
            };
            // The avatar moves in the virtual world now; only the
            // serving event's *delivery* waits for its arrival time.
            world.clients[client].zone = zone;
            backlog.push((tick as f64 + at, engine.id_at(client), zone));
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
        engine.tick();
        if !timed {
            engine.flush_now();
        }
        let pqos = match quality {
            QualityEstimator::Exact => engine.metrics().pqos,
            QualityEstimator::Sampled { sample } => engine.pqos_sampled(sample, &mut sample_rng),
        };
        records.push(driver.record(tick, pqos));
    }
    // Deliver and apply any spill-over (in arrival order) so the
    // report's final state covers every drawn event.
    backlog.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (_, id, zone) in backlog {
        driver
            .engine
            .push(StreamEvent::Move { id, zone })
            .expect("mobility events are valid");
    }
    driver.engine.flush_now();
    Ok(StreamReport {
        records,
        stats: driver.engine.stats().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{AdmissionPolicy, DegradationPolicy};
    use crate::setup::TopologySpec;
    use dve_topology::HierarchicalConfig;
    use dve_world::{FaultKind, ScenarioConfig};

    fn setup_of(notation: &str, runs: usize) -> SimSetup {
        SimSetup {
            scenario: ScenarioConfig::from_notation(notation).unwrap(),
            topology: TopologySpec::Hierarchical(HierarchicalConfig {
                as_count: 5,
                routers_per_as: 8,
                ..Default::default()
            }),
            runs,
            ..Default::default()
        }
    }

    fn small_setup(runs: usize) -> SimSetup {
        setup_of("5s-15z-100c-100cp", runs)
    }

    /// The fault-schedule fixture tier.
    fn fault_setup() -> SimSetup {
        setup_of("5s-15z-120c-100cp", 1)
    }

    #[test]
    fn experiment_aggregates_all_runs() {
        let setup = small_setup(4);
        let stats = run_experiment(&setup, &CapAlgorithm::HEURISTICS, StuckPolicy::BestEffort);
        assert_eq!(stats.len(), 4);
        for s in &stats {
            assert_eq!(s.runs, 4);
            assert_eq!(s.pqos.n, 4);
            assert_eq!(s.pooled_delays.len(), 400); // 100 clients x 4 runs
            assert!(s.pqos.mean >= 0.0 && s.pqos.mean <= 1.0);
        }
    }

    #[test]
    fn greedy_initial_beats_random_initial() {
        let setup = small_setup(6);
        let stats = run_experiment(&setup, &CapAlgorithm::HEURISTICS, StuckPolicy::BestEffort);
        let by_name = |n: &str| stats.iter().find(|s| s.algorithm == n).unwrap();
        // The paper's headline finding: GreZ-* dominates RanZ-*.
        assert!(
            by_name("GreZ-VirC").pqos.mean > by_name("RanZ-VirC").pqos.mean,
            "GreZ-VirC {} vs RanZ-VirC {}",
            by_name("GreZ-VirC").pqos.mean,
            by_name("RanZ-VirC").pqos.mean
        );
        assert!(by_name("GreZ-GreC").pqos.mean > by_name("RanZ-GreC").pqos.mean);
    }

    #[test]
    fn replication_records_are_deterministic() {
        let setup = small_setup(1);
        let a = run_replication(&setup, 0, &[CapAlgorithm::GreZVirC], StuckPolicy::Strict);
        let b = run_replication(&setup, 0, &[CapAlgorithm::GreZVirC], StuckPolicy::Strict);
        assert_eq!(a[0].pqos, b[0].pqos);
        assert_eq!(a[0].delays, b[0].delays);
    }

    /// A batch that drains the whole population (leaves >= clients, so
    /// every zone passes through an emptied state) and repopulates it.
    fn drain_and_refill() -> DynamicsBatch {
        DynamicsBatch {
            joins: 80,
            leaves: 1000,
            moves: 10,
        }
    }

    /// The stream driver through emptied zones, one flush per epoch:
    /// population arithmetic is exact, quality stays a fraction, Strict
    /// serves drained epochs when capacity allows and refuses an
    /// infeasible world with a typed error, and under total overload
    /// (any populated zone overloads any server) the repair migrates
    /// nothing: it cannot place a populated zone, and moving an emptied
    /// one would free nothing.
    #[test]
    fn stream_survives_emptied_zones_and_total_overload() {
        let config = ServeConfig {
            max_batch: 256,
            ..Default::default()
        };
        let mut overloaded = small_setup(1);
        overloaded.scenario.total_capacity_bps = 1000.0;
        overloaded.scenario.min_capacity_bps = 100.0;
        let runs = [
            (small_setup(1), StuckPolicy::Strict),
            (overloaded.clone(), StuckPolicy::BestEffort),
        ];
        for (setup, policy) in runs {
            let report = run_stream(&setup, 0, &drain_and_refill(), 0, 4, policy, config)
                .expect("the world boots");
            assert_eq!(report.records.len(), 4);
            for (i, r) in report.records.iter().enumerate() {
                assert_eq!(r.epoch, i);
                // Epoch 0 drains all 100 and admits 80; afterwards the
                // population is fully replaced every epoch.
                assert_eq!(r.clients, 80);
                assert!((0.0..=1.0).contains(&r.pqos));
            }
            if policy == StuckPolicy::BestEffort {
                assert!(report.records.iter().all(|r| r.zones_migrated == 0));
                assert_eq!(report.stats.full_repairs, 0);
            }
        }
        let refused = run_stream(
            &overloaded,
            0,
            &drain_and_refill(),
            0,
            1,
            StuckPolicy::Strict,
            config,
        );
        assert!(matches!(refused, Err(ServeError::Infeasible { .. })));
    }

    #[test]
    fn virc_algorithms_never_forward() {
        let setup = small_setup(2);
        let stats = run_experiment(
            &setup,
            &[CapAlgorithm::RanZVirC, CapAlgorithm::GreZVirC],
            StuckPolicy::BestEffort,
        );
        // Utilisation of VirC variants equals zone load / capacity, which
        // is the same for both (zone loads don't depend on placement).
        let diff = (stats[0].utilization.mean - stats[1].utilization.mean).abs();
        assert!(diff < 1e-9, "VirC utilisations should coincide: {diff}");
    }

    #[test]
    fn single_failure_recovers_and_counts_events() {
        let setup = fault_setup();
        let batch = DynamicsBatch {
            joins: 10,
            leaves: 10,
            moves: 10,
        };
        let schedule = FaultSchedule::generate(FaultKind::Single, 5, 8, 7);
        let report = run_recovery_stream(
            &setup,
            0,
            &batch,
            &schedule,
            StuckPolicy::BestEffort,
            ServeConfig::default(),
            0.9,
        )
        .expect("feasible seed");
        assert_eq!(report.records.len(), 8);
        assert_eq!(report.stats.failovers, 1);
        assert_eq!(report.stats.recoveries, 0);
        assert!(report.pre_pqos.is_finite(), "baseline was measured");
        assert!(report.trough_pqos <= report.records[3].pqos.max(report.pre_pqos));
        // One server of five lost on a generously provisioned small
        // tier: the scoped repair must claw quality back without ever
        // escalating to a full repair.
        assert_eq!(report.stats.full_repairs, 0, "failure path never escalates");
        assert!(
            report.recovered_at.is_some(),
            "pQoS never recovered: pre {} trough {} tail {:?}",
            report.pre_pqos,
            report.trough_pqos,
            report.records.last().map(|r| r.pqos)
        );
        assert!(report.events_to_recover.is_some());
        // Down-server bookkeeping reaches the records.
        assert!(report.records[4].down_servers == 1);
        assert!(report.records[3].down_servers == 0);
    }

    #[test]
    fn fail_recover_schedule_is_deterministic_and_recovers() {
        let setup = fault_setup();
        let batch = DynamicsBatch {
            joins: 8,
            leaves: 8,
            moves: 12,
        };
        let schedule = FaultSchedule::generate(FaultKind::FailRecover { down_for: 2 }, 5, 10, 3);
        let config = ServeConfig {
            max_batch: 16,
            max_staleness: 2,
            ..Default::default()
        };
        let run = || {
            run_recovery_stream(
                &setup,
                0,
                &batch,
                &schedule,
                StuckPolicy::BestEffort,
                config,
                0.9,
            )
            .expect("feasible seed")
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.stats.failovers, 1);
        assert_eq!(a.stats.recoveries, 1, "the ServerUp was applied");
        assert_eq!(a.stats.full_repairs, 0);
        // After the recovery tick the down-server count returns to 0.
        assert_eq!(a.records.last().unwrap().down_servers, 0);
        assert!(a.recovered_at.is_some(), "m -> m-1 -> m recovers quality");
    }

    #[test]
    fn correlated_failures_with_admission_control_degrade_gracefully() {
        let setup = fault_setup();
        let batch = DynamicsBatch {
            joins: 20,
            leaves: 5,
            moves: 10,
        };
        let schedule = FaultSchedule::generate(FaultKind::Correlated { failures: 3 }, 5, 8, 11);
        let config = ServeConfig {
            max_batch: 16,
            max_staleness: 2,
            degradation: DegradationPolicy {
                admission: AdmissionPolicy::Reject,
                headroom: 0.05,
                max_pending: Some(64),
            },
        };
        let report = run_recovery_stream(
            &setup,
            0,
            &batch,
            &schedule,
            StuckPolicy::BestEffort,
            config,
            0.9,
        )
        .expect("feasible seed");
        // Three of five servers die at once under join pressure: the
        // engine must keep serving (no panics, every epoch recorded)
        // and any refusals must be counted, never silent.
        assert_eq!(report.records.len(), 8);
        assert_eq!(report.stats.failovers, 3);
        assert_eq!(report.stats.full_repairs, 0);
        // Shed accounting: every rejected join is a counted shed, and
        // events addressed to shed clients were dropped, not applied.
        assert!(report.stats.shed_events >= report.stats.rejected_joins);
        let after = &report.records[4];
        assert_eq!(after.down_servers, 3);
        assert!(after.clients > 0, "population survives the rack loss");
    }
}
