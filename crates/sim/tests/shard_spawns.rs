//! The "no per-flush spawns" property: a serving engine creates no
//! thread after boot — no flush, failover or recovery — even with
//! `DVE_THREADS` asking for a wide runtime and a flush touching enough
//! zones for the cost matrix's own parallel refresh to fan out.
//!
//! The observable is [`dve_par::threads_spawned`]: dve-par's
//! process-global count of every thread it has ever spawned, not the
//! OS thread count. This file must stay a **single-test binary**: any
//! concurrently running test that touches a parallel path would corrupt
//! the deltas, and the test sets `DVE_THREADS` for the whole process.

use dve_assign::StuckPolicy;
use dve_sim::{build_replication, ServeConfig, ServeEngine, SimSetup, StreamEvent, TopologySpec};
use dve_topology::HierarchicalConfig;
use dve_world::{ErrorModel, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Zones of the scenario: above the cost matrix's 64-zone parallel
/// refresh knee, so a flush touching every zone would fan out on a
/// runtime that consulted `DVE_THREADS`.
const ZONES: usize = 80;

#[test]
fn serving_never_spawns_after_boot() {
    std::env::set_var("DVE_THREADS", "4");
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation("8s-80z-600c-100cp").unwrap(),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 8,
            ..Default::default()
        }),
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    let mut engine = ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig {
            max_batch: 256,
            ..ServeConfig::default()
        },
        StdRng::seed_from_u64(7),
    )
    .expect("engine solves");

    // Serve hard: one batch moving a client into every zone (a flush
    // touching all of them), rounds of churn, plus a failover and a
    // recovery. The spawn counter must not move at all.
    let after_boot = dve_par::threads_spawned();
    for zone in 0..ZONES {
        engine
            .push(StreamEvent::Move {
                id: (zone * 7) as u64,
                zone,
            })
            .expect("move admitted");
    }
    let wide = engine.flush_now().expect("the batch was pending");
    assert!(
        wide.touched_zones >= 64,
        "the wide flush touches {} zones",
        wide.touched_zones
    );
    for round in 0..20usize {
        for step in 0..30usize {
            let id = (round * 30 + step) as u64 % 500;
            engine
                .push(StreamEvent::Move {
                    id,
                    zone: (id as usize * 13 + round) % ZONES,
                })
                .expect("move admitted");
        }
        engine.flush_now();
        if round == 7 {
            engine.fail_server(1).expect("fail");
        }
        if round == 11 {
            engine.restore_server(1).expect("restore");
        }
    }
    assert_eq!(
        dve_par::threads_spawned(),
        after_boot,
        "the engine must never spawn a thread after boot"
    );
}
