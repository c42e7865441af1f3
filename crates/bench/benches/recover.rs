//! The recovery benchmark (fault-tolerance acceptance for the serving
//! layer).
//!
//! Claim checked in release mode on every run: at the production
//! `100s-1000z-50000c` tier, a seeded [`FaultSchedule`] replayed through
//! the live stream path (mass evacuation on `ServerDown`, re-admission
//! sweep on `ServerUp`, Table 3 churn arriving throughout) must
//!
//! * restore pQoS to at least **0.9x the pre-failure baseline** within
//!   a bounded serving-event budget after the first failure,
//! * never fall back to the full repair (the failure path promises
//!   bounded zone-scoped work per flush), and
//! * keep the trough above collapse (the degraded window still serves).
//!
//! Three schedule shapes are gated: a single permanent failure
//! (m→m−1), a correlated multi-server loss under Queue admission
//! control (the degraded-mode drill), and fail-then-recover (m→m−1→m,
//! the re-admission path). The trajectories land in
//! `BENCH_recover.json`, whose `metrics` declare what `bench_diff`
//! gates against the committed copy, per scenario: `events_to_recover`
//! may grow at most +25% (floored at one epoch), `full_repairs` must
//! stay zero, and `pre_pqos` and `trough_pqos` may not fall at all
//! (`rel 0`): the replay is seed-deterministic and flushes by event
//! count, so any drift is a changed serving decision.
//!
//! ```bash
//! cargo bench -p dve-bench --bench recover
//! ```

use dve_assign::StuckPolicy;
use dve_bench::diff::{metric, Rule};
use dve_sim::experiments::scaling::LARGE_TIER;
use dve_sim::{
    run_recovery_stream, AdmissionPolicy, DegradationPolicy, RecoveryReport, ServeConfig, SimSetup,
    TopologySpec,
};
use dve_topology::HierarchicalConfig;
use dve_world::{DynamicsBatch, FaultKind, FaultSchedule, ScenarioConfig};

/// Schedule length: the failure lands at tick 4, leaving a pre-failure
/// window to baseline against and a post-failure window to recover in.
const TICKS: usize = 8;

/// Recovery definition: pQoS back to at least this fraction of the
/// pre-failure baseline.
const RECOVER_FACTOR: f64 = 0.9;

/// Serving-event budget between the first failure and recovery: four
/// epochs of the Table 3 churn mix (600 events each).
const EVENT_BUDGET: u64 = 2_400;

/// Floor below which the trough counts as quality collapse.
const TROUGH_FLOOR: f64 = 0.5;

/// Noise floor of the `events_to_recover` gate: one 600-event churn
/// epoch. Recovery is observed at epoch boundaries, so deltas inside
/// one epoch are quantization.
const RECOVER_FLOOR_EVENTS: f64 = 600.0;

/// One gated schedule shape.
struct Scenario {
    name: &'static str,
    kind: FaultKind,
    degradation: DegradationPolicy,
    /// Expected (failovers, recoveries) engine counters.
    expected: (u64, u64),
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "single",
            kind: FaultKind::Single,
            degradation: DegradationPolicy::default(),
            expected: (1, 0),
        },
        Scenario {
            name: "correlated",
            kind: FaultKind::Correlated { failures: 5 },
            // The degraded-mode drill: 5% of capacity vanishes at once,
            // so joins over the headroom line wait in the deferred
            // queue instead of piling onto survivors.
            degradation: DegradationPolicy {
                admission: AdmissionPolicy::Queue,
                headroom: 0.02,
                max_pending: Some(4096),
            },
            expected: (5, 0),
        },
        Scenario {
            name: "fail_recover",
            kind: FaultKind::FailRecover { down_for: 2 },
            degradation: DegradationPolicy::default(),
            expected: (1, 1),
        },
    ]
}

fn run_scenario(scenario: &Scenario) -> RecoveryReport {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        runs: 1,
        ..Default::default()
    };
    let servers = setup.scenario.servers;
    let schedule = FaultSchedule::generate(scenario.kind, servers, TICKS, 0xfa11);
    let config = ServeConfig {
        degradation: scenario.degradation,
        ..Default::default()
    };
    let report = run_recovery_stream(
        &setup,
        0,
        &DynamicsBatch::paper_default(),
        &schedule,
        StuckPolicy::BestEffort,
        config,
        RECOVER_FACTOR,
    )
    .expect("tier solves");

    println!(
        "recover/{}: {TICKS} ticks of 200j/200l/200m on {LARGE_TIER}, failure at tick {}",
        scenario.name,
        schedule.first_failure_tick().expect("schedule fails"),
    );
    for r in &report.records {
        println!(
            "recover/{}/epoch {}: clients {} pqos {:.4} down {} deferred {} migrated {} \
             full_repairs {}",
            scenario.name,
            r.epoch,
            r.clients,
            r.pqos,
            r.down_servers,
            r.deferred_joins,
            r.zones_migrated,
            r.full_repairs,
        );
    }
    println!(
        "recover/{}: pre {:.4} trough {:.4} recovered_at {:?} events_to_recover {:?} shed {} \
         deferred(queued) {} failovers {} recoveries {}",
        scenario.name,
        report.pre_pqos,
        report.trough_pqos,
        report.recovered_at,
        report.events_to_recover,
        report.stats.shed_events,
        report.stats.queued_joins,
        report.stats.failovers,
        report.stats.recoveries,
    );

    // --- The gates. ---
    assert_eq!(
        report.stats.full_repairs, 0,
        "recover/{}: the failure path escalated to a full repair",
        scenario.name
    );
    assert_eq!(
        (report.stats.failovers, report.stats.recoveries),
        scenario.expected,
        "recover/{}: schedule replay miscounted fail/restore",
        scenario.name
    );
    let events = report
        .events_to_recover
        .unwrap_or_else(|| panic!("recover/{}: pQoS never recovered", scenario.name));
    assert!(
        events <= EVENT_BUDGET,
        "recover/{}: took {events} events to restore {RECOVER_FACTOR}x pQoS, budget {EVENT_BUDGET}",
        scenario.name
    );
    assert!(
        report.trough_pqos >= TROUGH_FLOOR,
        "recover/{}: trough pQoS {:.3} collapsed below {TROUGH_FLOOR}",
        scenario.name,
        report.trough_pqos
    );
    report
}

fn main() {
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for scenario in scenarios() {
        let report = run_scenario(&scenario);
        let events = report.events_to_recover.expect("gated above");
        metrics.push(metric(
            format!("{}/events_to_recover", scenario.name),
            events as f64,
            Rule::Lower {
                rel: 0.25,
                floor: RECOVER_FLOOR_EVENTS,
            },
        ));
        metrics.push(metric(
            format!("{}/full_repairs", scenario.name),
            report.stats.full_repairs as f64,
            Rule::Max(0.0),
        ));
        for (field, pqos) in [
            ("pre_pqos", report.pre_pqos),
            ("trough_pqos", report.trough_pqos),
        ] {
            metrics.push(metric(
                format!("{}/{field}", scenario.name),
                pqos,
                Rule::Higher { rel: 0.0 },
            ));
        }
        rows.push(format!(
            "{{\"scenario\": \"{}\", \"pre_pqos\": {:.6}, \"trough_pqos\": {:.6}, \
             \"recovered_epoch\": {}, \"events_to_recover\": {}, \"full_repairs\": {}, \
             \"shed_events\": {}, \"queued_joins\": {}, \"zones_migrated\": {}}}",
            scenario.name,
            report.pre_pqos,
            report.trough_pqos,
            report.recovered_at.expect("gated above"),
            events,
            report.stats.full_repairs,
            report.stats.shed_events,
            report.stats.queued_joins,
            report.stats.zones_migrated,
        ));
    }
    let path = dve_bench::write_bench_record(
        "recover",
        &[
            ("tier", format!("\"{LARGE_TIER}\"")),
            ("ticks", format!("{TICKS}")),
            ("recover_factor", format!("{RECOVER_FACTOR}")),
            ("event_budget", format!("{EVENT_BUDGET}")),
            ("scenarios", format!("[{}]", rows.join(", "))),
        ],
        &metrics,
    );
    println!("recover: record written to {path}");
}
