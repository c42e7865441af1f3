//! The serving engine's books stay exact over long seeded serves. After
//! 30 000 joins, leaves and moves, with one server failure and its
//! recovery on the way, every carried book — the stream-unit loads, the
//! relay counts and rates, the id table, the relay and unserved lists,
//! the certificates and the cost matrix — equals a rebuild from the
//! engine's targets and contacts, compared with `==`
//! ([`ServeEngine::check_invariants`]).

use dve_assign::StuckPolicy;
use dve_sim::{build_replication, ServeConfig, ServeEngine, SimSetup, StreamEvent};
use dve_world::{ErrorModel, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Events of each serve.
const EVENTS: usize = 30_000;

/// Serves [`EVENTS`] seeded events on replication 0 of `notation`,
/// biased toward a few hot zones, failing the first zone's host after a
/// third of them and restoring it after two thirds, and checks the
/// books at boot, after the failure, after the recovery and at the end.
fn serve_and_check(notation: &str) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(notation).expect("valid notation"),
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
        ServeConfig::default(),
        StdRng::seed_from_u64(0xb00c),
    )
    .expect("the tier boots");
    engine.check_invariants().expect("boot books are exact");
    let zones = engine.targets().len();
    let hot = (zones / 40).max(2);
    let nodes = engine.nodes();
    let victim = engine.targets()[0];
    let mut rng = StdRng::seed_from_u64(0xe7ac7);
    let mut live: Vec<u64> = (0..engine.num_clients()).map(|i| engine.id_at(i)).collect();
    for sent in 0..EVENTS {
        if sent == EVENTS / 3 {
            engine.fail_server(victim).expect("in range");
            engine
                .check_invariants()
                .expect("books exact after the failure");
        }
        if sent == 2 * EVENTS / 3 {
            engine.restore_server(victim).expect("in range");
            engine
                .check_invariants()
                .expect("books exact after the recovery");
        }
        let zone = if rng.gen_bool(0.5) {
            rng.gen_range(0..hot)
        } else {
            rng.gen_range(0..zones)
        };
        match rng.gen_range(0..3) {
            0 => {
                let node = rng.gen_range(0..nodes);
                let id = engine
                    .push(StreamEvent::Join { node, zone })
                    .expect("open admission")
                    .expect("joins get ids");
                live.push(id);
            }
            1 => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                engine.push(StreamEvent::Leave { id }).expect("live leave");
            }
            _ => {
                let id = live[rng.gen_range(0..live.len())];
                engine
                    .push(StreamEvent::Move { id, zone })
                    .expect("live move");
            }
        }
        // Short windows too, not only the 64-event auto-flush.
        if rng.gen_bool(0.02) {
            engine.flush_now();
        }
    }
    engine.flush_now();
    assert_eq!(engine.num_clients(), live.len());
    engine
        .check_invariants()
        .expect("books exact after 30 000 events");
    let inst = engine.instance();
    let relayed = (0..engine.num_clients())
        .filter(|&c| engine.contacts()[c] != engine.targets()[inst.zone_of(c)])
        .count();
    assert!(relayed > 0, "the serve must exercise the forwarding books");
}

#[test]
fn books_stay_exact_on_the_2000_client_tier() {
    serve_and_check("30s-160z-2000c-1000cp");
}

#[test]
fn books_stay_exact_on_the_50000_client_tier() {
    serve_and_check("100s-1000z-50000c-65000cp");
}
