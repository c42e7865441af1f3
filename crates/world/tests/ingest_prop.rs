//! Property tests for the ingest ring: the SPSC ring preserves arrival
//! order, never loses an admitted event, and counts every refusal. How
//! its backpressure composes with the serving layer's window bound is
//! property-tested in `dve-sim` (`crates/sim/tests/ingest_prop.rs`).

use dve_world::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Draws a random churn event against a fixed population/zone range.
fn draw_event(rng: &mut StdRng, clients: usize, zones: usize) -> WorldEvent {
    match rng.gen_range(0..3) {
        0 => WorldEvent::Join {
            node: rng.gen_range(0..50),
            zone: rng.gen_range(0..zones),
        },
        1 => WorldEvent::Leave {
            client: rng.gen_range(0..clients),
        },
        _ => WorldEvent::Move {
            client: rng.gen_range(0..clients),
            zone: rng.gen_range(0..zones),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-threaded interleavings of pushes and pops: FIFO order is
    /// exact, nothing admitted is lost, admission stamps are monotone
    /// in arrival order, and the shed counter accounts for every
    /// refused event.
    #[test]
    fn ring_preserves_order_and_loses_nothing(seed in any::<u64>(),
                                              capacity in 1usize..32,
                                              ops in 1usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = IngestRing::with_capacity(capacity);
        let mut pushed: Vec<WorldEvent> = Vec::new();
        let mut popped: Vec<Admitted> = Vec::new();
        let mut attempts = 0u64;
        for _ in 0..ops {
            if rng.gen_bool(0.6) {
                let ev = draw_event(&mut rng, 100, 10);
                attempts += 1;
                if ring.push_or_shed(ev).unwrap() {
                    pushed.push(ev);
                }
            } else if let Some(adm) = ring.pop() {
                popped.push(adm);
            }
            prop_assert!(ring.len() <= capacity);
        }
        while let Some(adm) = ring.pop() {
            popped.push(adm);
        }
        // Nothing admitted is lost, order is exact.
        let drained: Vec<WorldEvent> = popped.iter().map(|a| a.event).collect();
        prop_assert_eq!(&drained, &pushed);
        // Stamps are monotone in arrival order.
        for pair in popped.windows(2) {
            prop_assert!(pair[0].admitted <= pair[1].admitted);
        }
        // Every attempt is accounted for: admitted or shed.
        prop_assert_eq!(pushed.len() as u64 + ring.shed_events(), attempts);
    }
}

/// Cross-thread SPSC smoke test: a real producer thread and this
/// consumer thread agree on order and content through the atomics (the
/// release/acquire publication protocol, exercised with contention).
#[test]
fn threaded_producer_consumer_agree() {
    let ring = Arc::new(IngestRing::with_capacity(8));
    let producer_ring = Arc::clone(&ring);
    let producer = std::thread::spawn(move || {
        for i in 0..5_000usize {
            producer_ring
                .push_blocking(WorldEvent::Move {
                    client: i,
                    zone: i % 7,
                })
                .unwrap();
        }
        producer_ring.close();
    });
    let mut expected = 0usize;
    let mut last_stamp = None;
    loop {
        match ring.pop() {
            Some(adm) => {
                assert_eq!(
                    adm.event,
                    WorldEvent::Move {
                        client: expected,
                        zone: expected % 7
                    }
                );
                if let Some(last) = last_stamp {
                    assert!(adm.admitted >= last, "stamps are monotone");
                }
                last_stamp = Some(adm.admitted);
                expected += 1;
            }
            None if ring.is_closed() && ring.is_empty() => break,
            None => std::thread::yield_now(),
        }
    }
    assert_eq!(expected, 5_000);
    producer.join().unwrap();
}
