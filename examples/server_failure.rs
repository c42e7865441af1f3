//! Server-failure drill: a server dies mid-stream (m→m−1), its zones
//! and relays are mass-evacuated through the live serve path, and two
//! epochs later it comes back (m→m−1→m) — the inverse of the flash
//! crowd, measured as a recovery trajectory instead of a re-solve.
//!
//! Protocol:
//! 1. steady streaming: the paper's Table 3 churn mix per epoch;
//! 2. at the schedule midpoint one seeded server fails — capacity
//!    retired, hosted zones evacuated largest-first, relays shed;
//! 3. churn keeps arriving on the degraded engine (admission control
//!    defers joins over the headroom line instead of overloading
//!    survivors);
//! 4. the server recovers — the re-admission sweep pulls zones back
//!    and the deferred joins drain;
//! 5. the report says how deep quality dipped and how many serving
//!    events it took to climb back to 0.9x the pre-failure baseline.
//!
//! ```bash
//! cargo run --release --example server_failure
//! ```

use dve::assign::StuckPolicy;
use dve::sim::{run_recovery_stream, AdmissionPolicy, DegradationPolicy, ServeConfig, SimSetup};
use dve::world::{DynamicsBatch, FaultKind, FaultSchedule};

fn main() {
    let setup = SimSetup {
        base_seed: 7,
        runs: 1,
        ..Default::default() // 20s-80z-1000c-500cp
    };
    let ticks = 10;
    let schedule = FaultSchedule::generate(
        FaultKind::FailRecover { down_for: 2 },
        setup.scenario.servers,
        ticks,
        7,
    );
    let victim = schedule.downed_servers()[0];
    let down_at = schedule.first_failure_tick().expect("schedule fails");
    println!(
        "schedule: server {victim} fails at epoch {down_at}, recovers at epoch {} \
         ({} servers, {ticks} epochs of 200j/200l/200m churn)\n",
        down_at + 2,
        setup.scenario.servers,
    );

    let config = ServeConfig {
        degradation: DegradationPolicy {
            admission: AdmissionPolicy::Queue,
            headroom: 0.05,
            max_pending: Some(256),
        },
        ..Default::default()
    };
    let report = run_recovery_stream(
        &setup,
        0,
        &DynamicsBatch::paper_default(),
        &schedule,
        StuckPolicy::BestEffort,
        config,
        0.9,
    )
    .expect("default tier solves");

    println!(
        "{:<7}{:>9}{:>9}{:>7}{:>10}{:>10}{:>9}",
        "epoch", "clients", "pQoS", "down", "deferred", "migrated", "repairs"
    );
    for r in &report.records {
        let marker = match (r.epoch == down_at, r.down_servers > 0) {
            (true, _) => "  <- failure",
            (false, true) => "  (degraded)",
            _ if r.epoch > down_at => "  (recovered)",
            _ => "",
        };
        println!(
            "{:<7}{:>9}{:>9.4}{:>7}{:>10}{:>10}{:>9}{marker}",
            r.epoch,
            r.clients,
            r.pqos,
            r.down_servers,
            r.deferred_joins,
            r.zones_migrated,
            r.full_repairs
        );
    }

    println!(
        "\npre-failure pQoS {:.4}, trough {:.4}, recovered at epoch {:?} \
         ({:?} serving events after the failure)",
        report.pre_pqos, report.trough_pqos, report.recovered_at, report.events_to_recover,
    );
    println!(
        "engine counters: {} failover(s), {} recovery(ies), {} zones migrated, \
         {} joins deferred, {} events shed, {} full repairs",
        report.stats.failovers,
        report.stats.recoveries,
        report.stats.zones_migrated,
        report.stats.queued_joins,
        report.stats.shed_events,
        report.stats.full_repairs,
    );
}
