//! Failure-schedule replay: drives a [`ServeEngine`] through a
//! [`FaultSchedule`] while churn keeps streaming, and measures how fast
//! serving quality recovers.
//!
//! This is the harness behind the `recover` bench and its CI gate: a
//! seeded [`FaultSchedule`] names which servers fail (and recover) at
//! which epoch; [`run_recovery_stream`] replays the schedule through
//! [`ServeEngine::fail_server`] / [`ServeEngine::restore_server`] while
//! the same Table 3 churn mix as [`run_stream`](crate::run_stream)
//! keeps arriving, and the [`RecoveryReport`] records the quality
//! trajectory: the pre-failure baseline, the post-failure trough, and
//! the **events-to-recover** count — how many serving events the engine
//! processed between the first failure and the epoch where pQoS climbed
//! back above `recover_factor x` the baseline.
//!
//! Degradation composes: under an [`AdmissionPolicy`] the runner keeps
//! going when joins are shed or deferred (shed clients simply never
//! materialise; later events addressed to them are dropped and
//! counted), and a bounded ingest queue is honoured by flushing and
//! retrying once on [`ServeError::QueueFull`] — the backpressure
//! reaction a real ingest frontend would have.

use crate::serve::{
    QualityEstimator, ServeConfig, ServeEngine, ServeError, ServeStats, StreamEvent,
};
use crate::setup::{build_replication, SimSetup};
use crate::ClientId;
use dve_assign::StuckPolicy;
use dve_world::{apply_dynamics, DynamicsBatch, ErrorModel, FaultSchedule, WorldEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-epoch record of a [`run_recovery_stream`] replay — the stream
/// epoch record plus the failure-state columns the recovery gate reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEpochRecord {
    /// Epoch index (0-based; = schedule tick).
    pub epoch: usize,
    /// Live population after the epoch's events.
    pub clients: usize,
    /// pQoS of the engine's assignment at the epoch boundary.
    pub pqos: f64,
    /// Servers down at the epoch boundary.
    pub down_servers: usize,
    /// Joins still deferred by admission control at the boundary.
    pub deferred_joins: usize,
    /// Zones migrated during this epoch's flushes (evacuations and
    /// re-admission sweeps included).
    pub zones_migrated: u64,
    /// Full-repair fallbacks during this epoch (the gate demands 0 on
    /// the failure path).
    pub full_repairs: u64,
    /// Micro-batch flushes this epoch.
    pub flushes: u64,
}

/// Result of a [`run_recovery_stream`] replay: the quality trajectory
/// around the schedule's failures, plus the engine's lifetime counters.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// One record per schedule tick (= churn epoch).
    pub records: Vec<RecoveryEpochRecord>,
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

/// Replays `schedule` against a streaming engine under churn: each tick
/// first applies the tick's fault events (down → mass evacuation, up →
/// re-admission sweep), then streams one epoch of `batch` churn (the
/// same trace and RNG discipline as [`run_stream`](crate::run_stream)),
/// flushes, and samples quality. Deterministic for a given setup,
/// schedule, and config.
///
/// `recover_factor` defines recovery: the first epoch at/after the
/// first failure whose pQoS is at least `recover_factor x` the
/// pre-failure baseline.
///
/// Errors with [`ServeError::Infeasible`] when the initial assignment
/// cannot be solved, or [`ServeError::UnknownServer`] when the schedule
/// names a server the instance does not have.
#[allow(clippy::too_many_arguments)]
pub fn run_recovery_stream(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    schedule: &FaultSchedule,
    policy: StuckPolicy,
    config: ServeConfig,
    quality: QualityEstimator,
    recover_factor: f64,
) -> Result<RecoveryReport, ServeError> {
    let rep = build_replication(setup, index);
    let error = ErrorModel::new(setup.error_factor);
    let engine_rng = StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ 0xf417);
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
    let mut sample_rng = StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ 0xfa11);
    // Trace-world client → engine id; None marks a client shed at
    // admission (it exists in the trace world but never joined).
    let mut ids: Vec<Option<ClientId>> = (0..world.clients.len())
        .map(|c| Some(c as ClientId))
        .collect();

    let mut records: Vec<RecoveryEpochRecord> = Vec::with_capacity(schedule.ticks());
    let mut seen = (0u64, 0u64, 0u64); // (migrated, full repairs, flushes)
    let mut dropped_events = 0u64;
    let mut pre_pqos = f64::NAN;
    let mut trough_pqos = f64::INFINITY;
    let mut failure_seen = false;
    let mut events_at_failure = 0u64;
    let mut recovered_at: Option<usize> = None;
    let mut events_to_recover: Option<u64> = None;

    for epoch in 0..schedule.ticks() {
        // Fault events first: the failure hits a quiet boundary, and
        // the epoch's churn then lands on the degraded engine.
        for fault in schedule.events_at(epoch) {
            match fault {
                WorldEvent::ServerDown { server } => {
                    if !failure_seen {
                        failure_seen = true;
                        events_at_failure = engine.stats().events;
                        // Baseline: the last quiet-boundary quality, or
                        // the boot state when the schedule fails at 0.
                        pre_pqos =
                            records
                                .last()
                                .map(|r| r.pqos)
                                .unwrap_or_else(|| match quality {
                                    QualityEstimator::Exact => engine.metrics().pqos,
                                    QualityEstimator::Sampled { sample } => {
                                        engine.pqos_sampled(sample, &mut sample_rng)
                                    }
                                });
                    }
                    engine.fail_server(server)?;
                }
                WorldEvent::ServerUp { server } => {
                    engine.restore_server(server)?;
                }
                _ => unreachable!("fault schedules carry only infrastructure events"),
            }
        }

        let outcome = apply_dynamics(&world, batch, node_count, &mut rng);
        let mut join_ids: Vec<Option<ClientId>> = Vec::with_capacity(outcome.delta.joins.len());
        for event in outcome.to_events() {
            match event {
                WorldEvent::Leave { client } => match ids[client] {
                    Some(id) => {
                        match push_with_backpressure(&mut engine, StreamEvent::Leave { id }) {
                            Ok(_) => {}
                            Err(ServeError::UnknownClient { .. }) => dropped_events += 1,
                            Err(e) => return Err(e),
                        }
                    }
                    None => dropped_events += 1,
                },
                WorldEvent::Move { client, zone } => match ids[client] {
                    Some(id) => {
                        match push_with_backpressure(&mut engine, StreamEvent::Move { id, zone }) {
                            Ok(_) => {}
                            Err(ServeError::UnknownClient { .. }) => dropped_events += 1,
                            Err(e) => return Err(e),
                        }
                    }
                    None => dropped_events += 1,
                },
                WorldEvent::Join { node, zone } => {
                    match push_with_backpressure(&mut engine, StreamEvent::Join { node, zone }) {
                        Ok(assigned) => join_ids.push(assigned),
                        Err(ServeError::Shed { .. }) => join_ids.push(None),
                        Err(e) => return Err(e),
                    }
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
                None => joins.next().expect("one id slot per join"),
            })
            .collect();
        world = outcome.world;

        let pqos = match quality {
            QualityEstimator::Exact => engine.metrics().pqos,
            QualityEstimator::Sampled { sample } => engine.pqos_sampled(sample, &mut sample_rng),
        };
        let stats = engine.stats();
        records.push(RecoveryEpochRecord {
            epoch,
            clients: engine.num_clients(),
            pqos,
            down_servers: engine.down_servers().len(),
            deferred_joins: engine.deferred_joins(),
            zones_migrated: stats.zones_migrated - seen.0,
            full_repairs: stats.full_repairs - seen.1,
            flushes: stats.flushes - seen.2,
        });
        seen = (stats.zones_migrated, stats.full_repairs, stats.flushes);

        if failure_seen {
            trough_pqos = trough_pqos.min(pqos);
            if recovered_at.is_none() && pqos >= recover_factor * pre_pqos {
                recovered_at = Some(epoch);
                events_to_recover = Some(engine.stats().events - events_at_failure);
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
        stats: engine.stats().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::TopologySpec;
    use crate::{AdmissionPolicy, DegradationPolicy};
    use dve_topology::HierarchicalConfig;
    use dve_world::{FaultKind, ScenarioConfig};

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

    #[test]
    fn single_failure_recovers_and_counts_events() {
        let setup = small_setup();
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
            QualityEstimator::Exact,
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
        let setup = small_setup();
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
                QualityEstimator::Exact,
                0.9,
            )
            .expect("feasible seed")
        };
        let a = run();
        let b = run();
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.pqos, y.pqos, "epoch {}", x.epoch);
            assert_eq!(x.clients, y.clients);
            assert_eq!(x.zones_migrated, y.zones_migrated);
            assert_eq!(x.down_servers, y.down_servers);
        }
        assert_eq!(a.stats.failovers, 1);
        assert_eq!(a.stats.recoveries, 1, "the ServerUp was applied");
        assert_eq!(a.stats.full_repairs, 0);
        // After the recovery tick the down-server count returns to 0.
        assert_eq!(a.records.last().unwrap().down_servers, 0);
        assert!(a.recovered_at.is_some(), "m -> m-1 -> m recovers quality");
    }

    #[test]
    fn correlated_failures_with_admission_control_degrade_gracefully() {
        let setup = small_setup();
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
            QualityEstimator::Exact,
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
