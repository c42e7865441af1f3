//! The decision digest: a seeded churn script with a server failure
//! and recovery, folded after every flush, failover and recovery into
//! one FNV-1a hash of the engine's targets, contacts, ids and zone
//! orders, with the engine's books checked against a rebuild at each
//! of those points. A change that alters any serving decision changes
//! the hash.

use dve_assign::StuckPolicy;
use dve_sim::{build_replication, ServeConfig, ServeEngine, SimSetup, StreamEvent, TopologySpec};
use dve_topology::HierarchicalConfig;
use dve_world::{ErrorModel, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup() -> SimSetup {
    SimSetup {
        scenario: ScenarioConfig::from_notation("8s-40z-600c-100cp").unwrap(),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 8,
            ..Default::default()
        }),
        runs: 1,
        ..Default::default()
    }
}

/// Events of the digest script.
const DIGEST_EVENTS: usize = 3_000;

/// Zones `0..HOT_ZONES` draw 60% of the digest script's joins and moves.
const HOT_ZONES: usize = 4;

/// The digest of [`digest_script`] on the 8s-40z-600c tier. A change
/// that alters any serving decision changes it, and must re-pin it and
/// say why in CHANGES.md.
const PINNED_DIGEST: u64 = 0xb46c_0452_4a72_248a;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one word into an FNV-1a hash, byte by byte.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds an engine's targets, contacts, index → id map and every zone's
/// server order and regret into `hash`.
fn fold_decisions(hash: u64, e: &ServeEngine) -> u64 {
    let hash = e.targets().iter().fold(hash, |h, &s| fnv1a(h, s as u64));
    let hash = e.contacts().iter().fold(hash, |h, &s| fnv1a(h, s as u64));
    let hash = (0..e.num_clients()).fold(hash, |h, i| fnv1a(h, e.id_at(i)));
    let matrix = e.matrix();
    (0..matrix.num_zones()).fold(hash, |h, z| {
        let h = matrix
            .order(z)
            .iter()
            .fold(h, |h, &s| fnv1a(h, u64::from(s)));
        fnv1a(h, matrix.regret(z).to_bits())
    })
}

/// Folds `e`'s decisions into `hash` after checking its books: every
/// book must equal a rebuild from the targets and contacts.
fn checked_fold(hash: u64, e: &ServeEngine) -> u64 {
    if let Err(violation) = e.check_invariants() {
        panic!("the engine's books diverged from a rebuild: {violation}");
    }
    fold_decisions(hash, e)
}

/// Drives a seeded script of [`DIGEST_EVENTS`] joins, leaves and moves,
/// biased toward [`HOT_ZONES`], in batches of 1–400. Server 1 fails
/// after the first third and recovers after the second. Returns the
/// FNV-1a digest of the decisions and zone orders after every flush,
/// failover and recovery, and panics if the books diverge from a
/// rebuild at any of those points.
fn digest_script(engine: &mut ServeEngine) -> u64 {
    let zones = engine.targets().len();
    let nodes = engine.nodes();
    let mut rng = StdRng::seed_from_u64(0xd16e);
    let mut live: Vec<u64> = (0..engine.num_clients()).map(|i| engine.id_at(i)).collect();
    let mut hash = FNV_OFFSET;
    let mut sent = 0;
    while sent < DIGEST_EVENTS {
        let cap: usize = [1, 4, 16, 64, 400][rng.gen_range(0..5usize)];
        let batch = rng.gen_range(1..=cap).min(DIGEST_EVENTS - sent);
        for _ in 0..batch {
            let zone = if rng.gen_bool(0.6) {
                rng.gen_range(0..HOT_ZONES)
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
        }
        let before = sent;
        sent += batch;
        engine.flush_now();
        hash = checked_fold(hash, engine);
        if before < DIGEST_EVENTS / 3 && sent >= DIGEST_EVENTS / 3 {
            engine.fail_server(1).expect("fail");
            hash = checked_fold(hash, engine);
        }
        if before < 2 * DIGEST_EVENTS / 3 && sent >= 2 * DIGEST_EVENTS / 3 {
            engine.restore_server(1).expect("restore");
            hash = checked_fold(hash, engine);
        }
    }
    hash
}

/// The decision digest: the engine serves the seeded script to the
/// pinned digest with its books intact throughout, and ends with
/// relayed clients, so both the target and the contact repair are
/// covered.
#[test]
fn decision_digest_is_pinned() {
    let rep = build_replication(&setup(), 0);
    let mut engine = ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        // Above the largest batch: every flush is the script's own.
        ServeConfig {
            max_batch: 512,
            ..ServeConfig::default()
        },
        StdRng::seed_from_u64(0xd16e),
    )
    .expect("engine solves");
    let digest = digest_script(&mut engine);
    println!("decision digest: {digest:#018x}");
    assert_eq!(digest, PINNED_DIGEST, "decisions changed");
    let inst = engine.instance();
    let relayed = (0..engine.num_clients())
        .filter(|&c| engine.contacts()[c] != engine.targets()[inst.zone_of(c)])
        .count();
    assert!(relayed > 0, "the script must end with relayed clients");
}
