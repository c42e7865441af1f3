//! Replicated experiment execution, parallelised over runs, and the
//! delta-aware churn engine: a long-running loop that carries the
//! [`CostMatrix`] across join/leave/move epochs instead of rebuilding
//! the world per epoch.
//!
//! The churn loop here is the *batch* ancestor of the serving path:
//! [`run_stream`](crate::run_stream) serves the same trace event by
//! event (proven bit-identical to the carry), at any
//! [`ServeConfig::shards`](crate::ServeConfig::shards) width.

use crate::dynamics::{carry_assignment, CarryPolicy};
use crate::repair::repair_assignment_with;
use crate::setup::{build_replication, SimSetup};
use crate::stats::{Accumulator, Summary};
use dve_assign::{
    evaluate, grec, grez_with, solve, Assignment, CapAlgorithm, CostMatrix, Metrics, StuckPolicy,
};
use dve_world::{apply_dynamics, DynamicsBatch, DynamicsOutcome, ErrorModel, World};
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

/// One epoch of the delta-aware churn engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnEpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Client population after this epoch's batch.
    pub clients: usize,
    /// pQoS with the carried assignment, before repair.
    pub pqos_carried: f64,
    /// pQoS after the incremental repair.
    pub pqos_repaired: f64,
    /// Zones the repair migrated this epoch.
    pub zones_migrated: usize,
    /// Wall-clock of the delta update + repair (instance carry, matrix
    /// delta, assignment carry, repair), milliseconds — the per-epoch
    /// serving cost the engine exists to minimise.
    pub update_ms: f64,
}

/// Runs the churn engine on replication `index`: GreZ-GreC once up
/// front, then `epochs` rounds of `batch` dynamics where the
/// [`CapInstance`](dve_assign::CapInstance) and [`CostMatrix`] are
/// carried across each [`WorldDelta`](dve_world::WorldDelta) (never
/// rebuilt) and the assignment is fixed by the incremental repair on the
/// delta-updated matrix.
pub fn run_churn(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    epochs: usize,
    policy: StuckPolicy,
) -> Vec<ChurnEpochRecord> {
    run_churn_with(setup, index, batch, epochs, policy, |_, outcome| outcome)
}

/// [`run_churn`] with a hook between the dynamics draw and the carry:
/// `route` receives the pre-churn world and the drawn
/// [`DynamicsOutcome`] and returns the outcome the engine consumes.
/// The batch path routes it through unchanged;
/// [`run_stream_batch_compat`](crate::run_stream_batch_compat) replays
/// it as a per-event stream through a `DeltaBuffer` — one shared loop,
/// so the stream-vs-batch equivalence tests can never drift on harness
/// details.
pub(crate) fn run_churn_with<F>(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    epochs: usize,
    policy: StuckPolicy,
    mut route: F,
) -> Vec<ChurnEpochRecord>
where
    F: FnMut(&World, DynamicsOutcome) -> DynamicsOutcome,
{
    let mut rep = build_replication(setup, index);
    let error = ErrorModel::new(setup.error_factor);
    let mut matrix = CostMatrix::build(&rep.instance);
    let targets = grez_with(&rep.instance, &matrix, policy)
        .unwrap_or_else(|e| panic!("initial GreZ failed on run {index}: {e}"));
    let mut assignment = Assignment {
        contact_of_client: grec(&rep.instance, &targets),
        target_of_zone: targets,
    };
    let mut world = rep.world;
    let mut inst = rep.instance;

    let mut records = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let old_zone_of: Vec<usize> = (0..inst.num_clients()).map(|c| inst.zone_of(c)).collect();
        let outcome = apply_dynamics(&world, batch, rep.topology.node_count(), &mut rep.rng);
        let outcome = route(&world, outcome);

        let started = Instant::now();
        // Two-phase matrix update around the consuming instance carry:
        // departures read the pre-churn rows, arrivals the carried ones.
        matrix.retire_departures(&inst, &outcome.delta);
        let new_inst = inst.apply_delta(&outcome, &rep.delays, error, &mut rep.rng);
        matrix.admit_arrivals(&new_inst, &outcome.delta);
        let carried = carry_assignment(
            &assignment,
            &outcome.carried_from,
            &old_zone_of,
            &new_inst,
            CarryPolicy::KeepContact,
        );
        let repaired = repair_assignment_with(&new_inst, &matrix, &carried.target_of_zone);
        let update_ms = started.elapsed().as_secs_f64() * 1e3;

        records.push(ChurnEpochRecord {
            epoch,
            clients: new_inst.num_clients(),
            pqos_carried: evaluate(&new_inst, &carried).pqos,
            pqos_repaired: evaluate(&new_inst, &repaired.assignment).pqos,
            zones_migrated: repaired.zones_migrated,
            update_ms,
        });
        assignment = repaired.assignment;
        world = outcome.world;
        inst = new_inst;
    }
    records
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::TopologySpec;
    use dve_topology::HierarchicalConfig;
    use dve_world::ScenarioConfig;

    fn small_setup(runs: usize) -> SimSetup {
        SimSetup {
            scenario: ScenarioConfig::from_notation("5s-15z-100c-100cp").unwrap(),
            topology: TopologySpec::Hierarchical(HierarchicalConfig {
                as_count: 5,
                routers_per_as: 8,
                ..Default::default()
            }),
            runs,
            ..Default::default()
        }
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

    #[test]
    fn churn_engine_tracks_population_and_quality() {
        let setup = small_setup(1);
        let batch = DynamicsBatch {
            joins: 20,
            leaves: 15,
            moves: 10,
        };
        let records = run_churn(&setup, 0, &batch, 5, StuckPolicy::BestEffort);
        assert_eq!(records.len(), 5);
        let mut expected_clients = 100usize;
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.epoch, i);
            expected_clients = expected_clients - 15 + 20;
            assert_eq!(r.clients, expected_clients);
            assert!((0.0..=1.0).contains(&r.pqos_carried));
            assert!((0.0..=1.0).contains(&r.pqos_repaired));
            assert!(r.zones_migrated <= 15);
            assert!(r.update_ms >= 0.0);
        }
        // Repair never loses much on the carried state and usually wins.
        let carried: f64 = records.iter().map(|r| r.pqos_carried).sum();
        let repaired: f64 = records.iter().map(|r| r.pqos_repaired).sum();
        assert!(
            repaired >= carried - 1e-9,
            "repair should not degrade pQoS overall: {repaired} vs {carried}"
        );
    }

    #[test]
    fn churn_engine_is_deterministic() {
        let setup = small_setup(1);
        let batch = DynamicsBatch {
            joins: 10,
            leaves: 10,
            moves: 10,
        };
        let a = run_churn(&setup, 0, &batch, 3, StuckPolicy::BestEffort);
        let b = run_churn(&setup, 0, &batch, 3, StuckPolicy::BestEffort);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pqos_carried, y.pqos_carried);
            assert_eq!(x.pqos_repaired, y.pqos_repaired);
            assert_eq!(x.zones_migrated, y.zones_migrated);
            assert_eq!(x.clients, y.clients);
        }
    }

    /// Capacity-starved setup: every server's capacity is below any
    /// populated zone's demand, so every placement is overloaded no
    /// matter what the solver or the repair does.
    fn overloaded_setup() -> SimSetup {
        let mut setup = small_setup(1);
        setup.scenario.total_capacity_bps = 1000.0;
        setup.scenario.min_capacity_bps = 100.0;
        setup
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

    #[test]
    fn churn_best_effort_survives_emptied_zones_and_total_overload() {
        let setup = overloaded_setup();
        let rep = build_replication(&setup, 0);
        let max_cap = (0..rep.instance.num_servers())
            .map(|s| rep.instance.capacity(s))
            .fold(0.0, f64::max);
        let min_zone = (0..rep.instance.num_zones())
            .map(|z| rep.instance.zone_bps(z))
            .filter(|&b| b > 0.0)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max_cap < min_zone,
            "precondition: any populated zone overloads any server ({max_cap} vs {min_zone})"
        );

        let records = run_churn(&setup, 0, &drain_and_refill(), 4, StuckPolicy::BestEffort);
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.epoch, i);
            // Epoch 0 drains all 100 and admits 80; afterwards the
            // population is fully replaced every epoch.
            assert_eq!(r.clients, 80);
            assert!((0.0..=1.0).contains(&r.pqos_carried));
            assert!((0.0..=1.0).contains(&r.pqos_repaired));
            // Nothing fits anywhere: the best-effort repair must not
            // thrash zones it cannot place.
            assert_eq!(
                r.zones_migrated, 0,
                "epoch {i} migrated under total overload"
            );
            assert!(r.update_ms >= 0.0);
        }
    }

    #[test]
    fn churn_strict_survives_emptied_zones_when_capacity_allows() {
        // Feasible capacities: Strict must carry the engine through
        // epochs that empty zones outright (a zero-demand zone fits any
        // server, so strict placement never gets stuck on it).
        let setup = small_setup(1);
        let records = run_churn(&setup, 0, &drain_and_refill(), 3, StuckPolicy::Strict);
        assert_eq!(records.len(), 3);
        for r in &records {
            assert_eq!(r.clients, 80);
            assert!((0.0..=1.0).contains(&r.pqos_repaired));
        }
        // Deterministic under Strict too.
        let again = run_churn(&setup, 0, &drain_and_refill(), 3, StuckPolicy::Strict);
        for (a, b) in records.iter().zip(&again) {
            assert_eq!(a.pqos_repaired, b.pqos_repaired);
            assert_eq!(a.zones_migrated, b.zones_migrated);
        }
    }

    #[test]
    #[should_panic(expected = "initial GreZ failed")]
    fn churn_strict_refuses_infeasible_initial_world() {
        // With every server overloaded from the start, Strict fails the
        // initial solve loudly instead of serving an infeasible world.
        run_churn(
            &overloaded_setup(),
            0,
            &drain_and_refill(),
            1,
            StuckPolicy::Strict,
        );
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
}
