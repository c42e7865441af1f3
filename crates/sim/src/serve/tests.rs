//! Tests of the serving engine, through its public API and its
//! drivers.

use super::test_support::{
    boot_engine, integer_delay_engine, random_fault, random_flush, small_setup,
};
use super::*;
use crate::runner::{run_mobility_stream, run_stream, Driver, QualityEstimator};
use crate::setup::SimSetup;
use dve_assign::{grec, CostMatrix};
use dve_world::{DynamicsBatch, InterArrival};
use rand::{Rng, SeedableRng};

/// Property: on random integer-delay instances, through random
/// population changes (joins, leaves, moves: loads and `R^C`
/// change), server failures and restores, every rescue certificate
/// stays exact for its zone's current target, skips exactly when
/// the full `rap_cost` scan fails, and otherwise picks the full
/// scan's server.
#[test]
fn certificates_skip_exactly_when_the_full_scan_fails() {
    let (mut skipped, mut rescued) = (0, 0);
    for seed in 0..12u64 {
        let mut engine = integer_delay_engine(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xce27);
        for _ in 0..40 {
            if rng.gen_bool(0.15) {
                random_fault(&mut engine, &mut rng);
            } else {
                random_flush(&mut engine, &mut rng);
            }
            engine.check_invariants().unwrap();
            let (s, r) = engine.contacts.check_certificates_against_full_scan(
                &engine.inst,
                &engine.target_of_zone,
                &engine.books,
            );
            skipped += s;
            rescued += r;
        }
    }
    assert!(
        skipped > 0 && rescued > 0,
        "the property must see both verdicts: {skipped} skips, {rescued} rescues"
    );
}

/// A certified rescan retry that the fit mask did not skip always
/// rescues. Before each step every listed violator is certified by a
/// full pass, so every retry of the step's rescans is certified, and
/// the counters must split into skips and rescues exactly. Leaves,
/// moves and restores free capacity between certification and
/// retry, so certified retries do reach the pick; relays booked
/// during a sweep fill servers, so the mask's updates are exercised.
#[test]
fn certified_retries_the_mask_keeps_always_rescue() {
    let (mut skipped, mut rescued) = (0, 0);
    for seed in 0..12u64 {
        let mut engine = integer_delay_engine(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7);
        for _ in 0..40 {
            for c in engine.contacts.listed_unserved() {
                if engine.contacts.is_unserved(c) {
                    engine.decide_contact(c);
                }
            }
            assert!(engine.contacts.all_certified());
            let before = engine.stats().clone();
            if rng.gen_bool(0.15) {
                random_fault(&mut engine, &mut rng);
            } else {
                random_flush(&mut engine, &mut rng);
            }
            let stats = engine.stats();
            let retries = stats.rescan_retries - before.rescan_retries;
            let step_skipped = stats.rescan_skipped - before.rescan_skipped;
            let step_rescued = stats.rescan_rescued - before.rescan_rescued;
            assert_eq!(
                retries,
                step_skipped + step_rescued,
                "seed {seed}: a certified retry the mask let through failed"
            );
            skipped += step_skipped;
            rescued += step_rescued;
            engine.check_invariants().unwrap();
        }
    }
    assert!(
        skipped > 0 && rescued > 0,
        "the rescans must both skip and rescue: {skipped} skips, {rescued} rescues"
    );
}

#[test]
fn engine_boots_with_identity_ids() {
    let engine = boot_engine(&small_setup(), ServeConfig::default());
    assert_eq!(engine.num_clients(), 120);
    for c in 0..120 {
        assert_eq!(engine.id_at(c), c as ClientId);
        assert_eq!(engine.index_of(c as ClientId), Some(c));
    }
    assert_eq!(engine.pending_events(), 0);
    engine.check_invariants().unwrap();
}

/// Boot leaves room for k/8 joiners in every per-client book, so
/// the first k/8 joins after boot — here all in one flush — grow
/// (and so copy) none of them. The two position books hold one
/// `u32` per client, and the id table one `u32` per id in pages,
/// whose page list has room for the joiners' pages.
#[test]
fn first_joins_after_boot_reallocate_no_population_array() {
    let mut engine = boot_engine(&small_setup(), ServeConfig::default());
    let k = engine.num_clients();
    assert_eq!(engine.contacts.population_books().1, [4 * k; 2]);
    assert_eq!(engine.ids.resident_pages(), k.div_ceil(crate::ids::PAGE));
    let books = |e: &ServeEngine| {
        let ([contacts, unserved, relayed], _) = e.contacts.population_books();
        [
            contacts,
            (e.id_of_client.as_ptr() as usize, e.id_of_client.capacity()),
            unserved,
            relayed,
            e.ids.page_list(),
        ]
    };
    let before = books(&engine);
    let zones = engine.instance().num_zones();
    for i in 0..k / 8 {
        let joined = engine.push(StreamEvent::Join {
            node: i % engine.nodes(),
            zone: i % zones,
        });
        assert!(matches!(joined, Ok(Some(_))), "join {i} was admitted");
    }
    engine.flush_now();
    assert_eq!(engine.num_clients(), k + k / 8);
    assert_eq!(
        books(&engine),
        before,
        "a join reallocated a per-client book"
    );
    engine.check_invariants().unwrap();
}

#[test]
fn push_validates_events() {
    let mut engine = boot_engine(&small_setup(), ServeConfig::default());
    assert_eq!(
        engine.push(StreamEvent::Leave { id: 999 }),
        Err(ServeError::UnknownClient { id: 999 })
    );
    assert_eq!(
        engine.push(StreamEvent::Move { id: 0, zone: 15 }),
        Err(ServeError::ZoneOutOfRange {
            zone: 15,
            zones: 15
        })
    );
    assert_eq!(
        engine.push(StreamEvent::Join { node: 0, zone: 99 }),
        Err(ServeError::ZoneOutOfRange {
            zone: 99,
            zones: 15
        })
    );
    engine.push(StreamEvent::Leave { id: 3 }).unwrap();
    assert_eq!(
        engine.push(StreamEvent::Leave { id: 3 }),
        Err(ServeError::AlreadyLeaving { id: 3 })
    );
    assert_eq!(
        engine.push(StreamEvent::Move { id: 3, zone: 0 }),
        Err(ServeError::AlreadyLeaving { id: 3 })
    );
}

/// The engine's latency semantics are per **arrival**: it does not
/// coalesce, so a move-then-move-back window is two accepted events
/// and exactly two latency samples — sample counts always equal
/// accepted-event counts, even when the pair nets out to a no-op
/// placement-wise.
#[test]
fn move_then_move_back_records_one_sample_per_arrival() {
    let mut engine = boot_engine(&small_setup(), ServeConfig::default());
    let base = engine.instance().zone_of(6);
    let other = (base + 1) % engine.instance().num_zones();
    engine
        .push(StreamEvent::Move { id: 6, zone: other })
        .unwrap();
    engine
        .push(StreamEvent::Move { id: 6, zone: base })
        .unwrap();
    engine.flush_now();
    assert_eq!(engine.stats().events, 2);
    assert_eq!(
        engine.stats().latency.count(),
        2,
        "two arrivals, two samples"
    );
    assert_eq!(engine.instance().zone_of(engine.index_of(6).unwrap()), base);
}

/// `push_admitted` carries an upstream admission stamp into the
/// histogram: the sample measures arrival-to-commit, queueing delay
/// included.
#[test]
fn push_admitted_measures_from_the_given_stamp() {
    let mut engine = boot_engine(&small_setup(), ServeConfig::default());
    let at = Instant::now() - std::time::Duration::from_millis(250);
    engine
        .push_admitted(StreamEvent::Leave { id: 0 }, at)
        .unwrap();
    engine.flush_now();
    assert_eq!(engine.stats().latency.count(), 1);
    assert!(
        engine.stats().latency.mean_ns() >= 250_000_000.0,
        "the queueing delay before push is part of the sample"
    );
}

#[test]
fn single_event_flushes_apply_immediately() {
    let mut engine = boot_engine(
        &small_setup(),
        ServeConfig {
            max_batch: 1,
            max_staleness: 1,
            ..Default::default()
        },
    );
    let id = engine
        .push(StreamEvent::Join { node: 2, zone: 7 })
        .unwrap()
        .unwrap();
    assert_eq!(engine.num_clients(), 121);
    assert_eq!(engine.pending_events(), 0);
    let c = engine.index_of(id).unwrap();
    assert_eq!(engine.instance().zone_of(c), 7);
    engine.check_invariants().unwrap();

    engine.push(StreamEvent::Move { id, zone: 2 }).unwrap();
    assert_eq!(engine.instance().zone_of(engine.index_of(id).unwrap()), 2);
    engine.push(StreamEvent::Leave { id }).unwrap();
    assert_eq!(engine.num_clients(), 120);
    assert_eq!(engine.index_of(id), None);
    engine.check_invariants().unwrap();
    assert_eq!(engine.stats().events, 3);
    assert_eq!(engine.stats().flushes, 3);
    assert_eq!(engine.stats().latency.count(), 3);
}

#[test]
fn staleness_tick_flushes_partial_batches() {
    let mut engine = boot_engine(
        &small_setup(),
        ServeConfig {
            max_batch: 100,
            max_staleness: 2,
            ..Default::default()
        },
    );
    engine.push(StreamEvent::Leave { id: 0 }).unwrap();
    assert_eq!(engine.pending_events(), 1);
    assert!(engine.tick().is_none(), "first tick below the bound");
    let report = engine.tick().expect("second tick hits the bound");
    assert_eq!(report.events, 1);
    assert_eq!(engine.pending_events(), 0);
    assert_eq!(engine.num_clients(), 119);
    // Quiet ticks with nothing pending do not flush.
    assert!(engine.tick().is_none());
    engine.check_invariants().unwrap();
}

#[test]
fn join_then_leave_in_one_batch_is_net_neutral() {
    let mut engine = boot_engine(
        &small_setup(),
        ServeConfig {
            max_batch: 100,
            max_staleness: 100,
            ..Default::default()
        },
    );
    let id = engine
        .push(StreamEvent::Join { node: 1, zone: 3 })
        .unwrap()
        .unwrap();
    engine.push(StreamEvent::Move { id, zone: 5 }).unwrap();
    engine.push(StreamEvent::Leave { id }).unwrap();
    engine.check_invariants().unwrap();
    // The Join, the Move and the Leave of the one id all commit.
    assert_eq!(engine.flush_now().unwrap().events, 3);
    assert_eq!(engine.stats().events, 3);
    assert_eq!(engine.stats().latency.count(), 3);
    assert_eq!(engine.num_clients(), 120);
    assert_eq!(engine.index_of(id), None);
    engine.check_invariants().unwrap();
}

/// A departed id is gone for good: a Leave or Move of it reads
/// `UnknownClient`, before and after its page is freed, and the
/// engine never issues it again.
#[test]
fn departed_ids_read_unknown_and_are_never_issued_again() {
    let mut engine = boot_engine(&small_setup(), ServeConfig::default());
    let joined = engine
        .push(StreamEvent::Join { node: 0, zone: 1 })
        .unwrap()
        .unwrap();
    for id in [5, joined] {
        engine.push(StreamEvent::Leave { id }).unwrap();
    }
    engine.flush_now();
    engine.check_invariants().unwrap();
    for id in [5, joined] {
        assert_eq!(
            engine.push(StreamEvent::Leave { id }),
            Err(ServeError::UnknownClient { id })
        );
        assert_eq!(
            engine.push(StreamEvent::Move { id, zone: 0 }),
            Err(ServeError::UnknownClient { id })
        );
    }
    // Cycle more than a page of ids through the population, oldest
    // out first, so every id of the first page departs and the page
    // is freed.
    let mut live: VecDeque<ClientId> = (0..engine.num_clients()).map(|c| engine.id_at(c)).collect();
    let mut issued = vec![joined];
    for i in 0..crate::ids::PAGE + live.len() {
        let id = engine
            .push(StreamEvent::Join {
                node: i % engine.nodes(),
                zone: i % 15,
            })
            .unwrap()
            .unwrap();
        assert!(id > *issued.last().unwrap(), "ids are issued in sequence");
        issued.push(id);
        live.push_back(id);
        let oldest = live.pop_front().unwrap();
        engine.push(StreamEvent::Leave { id: oldest }).unwrap();
    }
    engine.flush_now();
    engine.check_invariants().unwrap();
    assert!(*live.front().unwrap() >= crate::ids::PAGE as ClientId);
    assert_eq!(engine.ids.resident_pages(), 1, "the first page was freed");
    for id in [0, 5, joined, issued[crate::ids::PAGE / 2]] {
        assert_eq!(
            engine.push(StreamEvent::Move { id, zone: 0 }),
            Err(ServeError::UnknownClient { id })
        );
    }
}

/// Random event streams at several micro-batch sizes keep every
/// carried structure equivalent to a fresh build.
#[test]
fn micro_batched_stream_keeps_carried_state_exact() {
    for &max_batch in &[1usize, 3, 17, 64] {
        let setup = small_setup();
        let mut engine = boot_engine(
            &setup,
            ServeConfig {
                max_batch,
                max_staleness: 8,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1000 + max_batch as u64);
        let mut live: Vec<ClientId> = (0..engine.num_clients() as ClientId).collect();
        for _ in 0..250 {
            match rng.gen_range(0..3) {
                0 if live.len() > 5 => {
                    let pick = rng.gen_range(0..live.len());
                    let id = live.swap_remove(pick);
                    engine.push(StreamEvent::Leave { id }).unwrap();
                }
                1 => {
                    let node = rng.gen_range(0..40);
                    let zone = rng.gen_range(0..15);
                    let id = engine
                        .push(StreamEvent::Join { node, zone })
                        .unwrap()
                        .unwrap();
                    live.push(id);
                }
                _ => {
                    let pick = rng.gen_range(0..live.len());
                    let zone = rng.gen_range(0..15);
                    engine
                        .push(StreamEvent::Move {
                            id: live[pick],
                            zone,
                        })
                        .unwrap();
                }
            }
        }
        engine.flush_now();
        assert_eq!(engine.num_clients(), live.len());
        engine.check_invariants().unwrap();
        let pqos = engine.metrics().pqos;
        assert!((0.0..=1.0).contains(&pqos));
        assert!(engine.stats().latency.count() >= 250);
    }
}

/// The streamed fast path holds quality next to a fresh solve: after
/// every epoch of the stream driver, served pQoS is within 0.1 of a
/// fresh GreZ + GreC solve of the engine's live instance (contacts are
/// repaired incrementally, not re-derived globally).
#[test]
fn stream_fast_path_tracks_batch_quality() {
    let batch = DynamicsBatch {
        joins: 20,
        leaves: 20,
        moves: 15,
    };
    let config = ServeConfig {
        max_batch: 7,
        max_staleness: 4,
        ..Default::default()
    };
    let mut driver = Driver::boot(&small_setup(), 0, 0x5e4e, StuckPolicy::BestEffort, config)
        .expect("feasible seed");
    let mut ids = driver.boot_ids();
    for epoch in 0..5 {
        assert_eq!(driver.serve_epoch(&batch, &mut ids), Ok(0));
        let engine = driver.engine();
        let inst = engine.instance();
        assert_eq!(inst.num_clients(), 120, "joins and leaves balance");
        let targets = grez_with(inst, &CostMatrix::build(inst), StuckPolicy::BestEffort)
            .expect("best effort always places");
        let fresh = Assignment {
            contact_of_client: grec(inst, &targets),
            target_of_zone: targets,
        };
        let (served, fresh) = (engine.metrics().pqos, evaluate(inst, &fresh).pqos);
        assert!(
            served >= fresh - 0.1,
            "epoch {epoch}: served pqos {served} fell far below a fresh solve's {fresh}"
        );
        engine.check_invariants().unwrap();
    }
    assert!(driver.engine().stats().latency.count() >= 5 * 55);
}

/// Warm-up pin: events flushed inside a warm-up window
/// land in `stats.warmup` and never touch the gated steady-state
/// histogram — so initial-population admission cannot pollute the
/// per-event quantiles.
#[test]
fn warmup_phase_keeps_steady_quantiles_clean() {
    let mut engine = boot_engine(
        &small_setup(),
        ServeConfig {
            max_batch: 4,
            max_staleness: 4,
            ..Default::default()
        },
    );
    engine.begin_warmup();
    assert!(engine.is_warming_up());
    for node in 0..10 {
        engine
            .push(StreamEvent::Join {
                node,
                zone: node % 15,
            })
            .unwrap();
    }
    engine.end_warmup();
    assert!(!engine.is_warming_up());
    assert_eq!(engine.stats().warmup.count(), 10);
    assert_eq!(
        engine.stats().latency.count(),
        0,
        "warm-up admission leaked into the steady histogram"
    );
    // Steady traffic records into the gated histogram only.
    engine.push(StreamEvent::Leave { id: 0 }).unwrap();
    engine.push(StreamEvent::Move { id: 1, zone: 3 }).unwrap();
    engine.flush_now();
    assert_eq!(engine.stats().warmup.count(), 10);
    assert_eq!(engine.stats().latency.count(), 2);
    engine.check_invariants().unwrap();
}

/// `run_stream`'s warm-up epochs are applied (same trace, same
/// quality trajectory) but excludes them from records and the gated
/// histogram: the steady records equal the plain run's tail.
#[test]
fn run_stream_warmup_epochs_shift_records_only() {
    let setup = small_setup();
    let batch = DynamicsBatch {
        joins: 15,
        leaves: 15,
        moves: 10,
    };
    let config = ServeConfig {
        max_batch: 8,
        max_staleness: 4,
        ..Default::default()
    };
    let plain =
        run_stream(&setup, 0, &batch, 0, 3, StuckPolicy::BestEffort, config).expect("feasible");
    let warmed =
        run_stream(&setup, 0, &batch, 1, 2, StuckPolicy::BestEffort, config).expect("feasible");
    assert_eq!(warmed.records.len(), 2);
    assert_eq!(warmed.stats.warmup.count(), 40);
    assert_eq!(warmed.stats.latency.count(), 80);
    assert_eq!(
        warmed.stats.latency.count() + warmed.stats.warmup.count(),
        plain.stats.latency.count()
    );
    for (w, p) in warmed.records.iter().zip(plain.records.iter().skip(1)) {
        assert_eq!(w.clients, p.clients);
        assert_eq!(w.pqos, p.pqos);
        assert_eq!(w.zones_migrated, p.zones_migrated);
        assert_eq!(w.epoch + 1, p.epoch);
    }
}

/// The mobility-model driver: avatar walks stream through the
/// engine, population stays fixed, quality
/// holds, and the run is deterministic.
#[test]
fn mobility_stream_serves_avatar_walks() {
    use dve_world::MobilityModel;
    let setup = small_setup();
    let model = MobilityModel::new(15, 0.2);
    let config = ServeConfig {
        max_batch: 16,
        max_staleness: 2,
        ..Default::default()
    };
    let run = || {
        run_mobility_stream(
            &setup,
            0,
            &model,
            6,
            StuckPolicy::BestEffort,
            config,
            InterArrival::AtTick,
            QualityEstimator::Exact,
        )
        .expect("feasible")
    };
    let report = run();
    assert_eq!(report.records.len(), 6);
    for r in &report.records {
        assert_eq!(r.clients, 120, "mobility never changes population");
        assert!((0.0..=1.0).contains(&r.pqos));
    }
    // ~20% of 120 clients per tick actually move.
    assert!(
        report.stats.events >= 60,
        "only {} move events over 6 ticks",
        report.stats.events
    );
    assert_eq!(report.stats.events, report.stats.latency.count());
    let again = run();
    for (a, b) in report.records.iter().zip(&again.records) {
        assert_eq!(a.pqos, b.pqos);
        assert_eq!(a.zones_migrated, b.zones_migrated);
    }
}

/// The sampled estimator brackets the exact pQoS (unbiased; a
/// whole-population "sample" of size >> k concentrates hard) and is
/// deterministic given its RNG.
#[test]
fn sampled_pqos_tracks_exact_evaluation() {
    let engine = boot_engine(&small_setup(), ServeConfig::default());
    let exact = engine.metrics().pqos;
    let mut rng = StdRng::seed_from_u64(3);
    let sampled = engine.pqos_sampled(20_000, &mut rng);
    assert!(
        (sampled - exact).abs() < 0.02,
        "sampled {sampled} vs exact {exact}"
    );
    let mut rng = StdRng::seed_from_u64(3);
    assert_eq!(engine.pqos_sampled(20_000, &mut rng), sampled);
}

/// Exponential arrivals: the timed
/// mobility runner applies every drawn move by the end of the run,
/// never force-flushes per tick (flushes are staleness/batch
/// driven), and is deterministic. The mirror worlds of the timed and
/// boundary paths coincide — only delivery timing differs.
#[test]
fn timed_mobility_stream_models_wall_clock_staleness() {
    use dve_world::MobilityModel;
    let setup = small_setup();
    let model = MobilityModel::new(15, 0.3);
    let timed_config = ServeConfig {
        max_batch: 1000, // flushes come from the staleness heartbeat
        max_staleness: 2,
        ..Default::default()
    };
    let arrival = InterArrival::Exponential {
        mean_gap_ticks: 0.02,
    };
    let run = || {
        run_mobility_stream(
            &setup,
            0,
            &model,
            6,
            StuckPolicy::BestEffort,
            timed_config,
            arrival,
            QualityEstimator::Exact,
        )
        .expect("feasible")
    };
    let report = run();
    assert_eq!(report.records.len(), 6);
    for r in &report.records {
        assert_eq!(r.clients, 120, "mobility never changes population");
        assert!((0.0..=1.0).contains(&r.pqos));
    }
    // Every drawn event was eventually applied...
    assert!(report.stats.events >= 100, "only {}", report.stats.events);
    assert_eq!(report.stats.events, report.stats.latency.count());
    // ...but flushes were staleness-driven, not one-per-tick-forced:
    // with max_staleness=2 over 6 ticks plus the final drain, far
    // fewer than the event count.
    assert!(
        report.stats.flushes <= 7,
        "{} flushes for 6 ticks",
        report.stats.flushes
    );
    let again = run();
    for (a, b) in report.records.iter().zip(&again.records) {
        assert_eq!(a.pqos, b.pqos);
        assert_eq!(a.flushes, b.flushes);
    }
}

/// run_stream is deterministic given the setup and config.
#[test]
fn run_stream_is_deterministic() {
    let setup = small_setup();
    let batch = DynamicsBatch {
        joins: 10,
        leaves: 10,
        moves: 10,
    };
    let config = ServeConfig {
        max_batch: 5,
        max_staleness: 3,
        ..Default::default()
    };
    let run =
        || run_stream(&setup, 0, &batch, 0, 3, StuckPolicy::BestEffort, config).expect("feasible");
    assert_eq!(run().records, run().records);
}

/// Picks the most loaded server, one of its zones, and a headroom
/// that puts that server strictly over the admission line — the
/// deterministic fixture for the admission-control tests.
fn blocked_fixture(setup: &SimSetup) -> (usize, usize, f64) {
    let probe = boot_engine(setup, ServeConfig::default());
    let loads = probe.assignment().server_loads(probe.instance());
    let s_max = (0..loads.len())
        .max_by(|&a, &b| {
            (loads[a] / probe.instance().capacity(a))
                .total_cmp(&(loads[b] / probe.instance().capacity(b)))
        })
        .expect("servers exist");
    let zone = probe
        .targets()
        .iter()
        .position(|&s| s == s_max)
        .expect("the most loaded server hosts a zone");
    let frac = loads[s_max] / probe.instance().capacity(s_max);
    assert!(frac > 0.0, "fixture server carries load");
    // Admission line at half the current load fraction: blocked now,
    // unblocked once enough of the load drains.
    let headroom = (1.0 - frac / 2.0).clamp(0.0, 0.999);
    (s_max, zone, headroom)
}

/// Reject admission: a join into a zone whose target is over the
/// headroom line is refused with `Shed` and counted, and the
/// population is untouched.
#[test]
fn reject_admission_sheds_joins_over_the_headroom_line() {
    let setup = small_setup();
    let (_, zone, headroom) = blocked_fixture(&setup);
    let mut engine = boot_engine(
        &setup,
        ServeConfig {
            degradation: DegradationPolicy {
                admission: AdmissionPolicy::Reject,
                headroom,
                max_pending: None,
            },
            ..Default::default()
        },
    );
    assert_eq!(
        engine.push(StreamEvent::Join { node: 0, zone }),
        Err(ServeError::Shed { zone })
    );
    assert_eq!(engine.stats().rejected_joins, 1);
    assert_eq!(engine.stats().shed_events, 1);
    assert_eq!(engine.num_clients(), 120);
    assert_eq!(engine.pending_events(), 0);
    // Shed decisions burn no ids: the next admitted client's id is
    // still dense.
    engine.check_invariants().unwrap();
}

/// Queue admission: a blocked join is deferred with a live id
/// reservation; moves re-target it and a leave cancels it; once the
/// blocking load drains, the flush re-admits it with its original
/// arrival stamp.
#[test]
fn queue_admission_defers_and_readmits_when_load_drains() {
    let setup = small_setup();
    let (s_max, zone, headroom) = blocked_fixture(&setup);
    let mut engine = boot_engine(
        &setup,
        ServeConfig {
            max_batch: 1,
            max_staleness: 1,
            degradation: DegradationPolicy {
                admission: AdmissionPolicy::Queue,
                headroom,
                max_pending: None,
            },
        },
    );
    // Deferred, not live, not buffered.
    let id = engine
        .push(StreamEvent::Join { node: 0, zone })
        .unwrap()
        .expect("queued joins still get ids");
    assert_eq!(engine.deferred_joins(), 1);
    assert_eq!(engine.index_of(id), None);
    assert_eq!(engine.num_clients(), 120);
    // A queued joiner can move while waiting and leave while waiting.
    engine.push(StreamEvent::Move { id, zone: 0 }).unwrap();
    assert_eq!(engine.deferred_joins(), 1);
    engine.push(StreamEvent::Leave { id }).unwrap();
    assert_eq!(engine.deferred_joins(), 0);
    assert_eq!(engine.stats().queued_joins, 1);

    // Queue another, then drain the blocking server's load by
    // leaving its clients until the flush re-admits the joiner.
    let qid = engine
        .push(StreamEvent::Join { node: 0, zone })
        .unwrap()
        .expect("queued");
    let mut admitted = false;
    for _ in 0..200 {
        engine.flush_now();
        if engine.deferred_joins() == 0 {
            admitted = true;
            break;
        }
        let Some(c) = (0..engine.num_clients())
            .find(|&c| engine.targets()[engine.instance().zone_of(c)] == s_max)
        else {
            break;
        };
        let leaver = engine.id_at(c);
        engine.push(StreamEvent::Leave { id: leaver }).unwrap();
    }
    assert!(admitted, "the deferred join was never re-admitted");
    let c = engine.index_of(qid).expect("re-admitted join is live");
    assert_eq!(engine.instance().zone_of(c), zone);
    engine.check_invariants().unwrap();
}

/// The bounded ingest queue: pushes beyond `max_pending` are
/// refused with `QueueFull` until a flush drains the buffer.
#[test]
fn bounded_ingest_queue_applies_backpressure() {
    let setup = small_setup();
    let mut engine = boot_engine(
        &setup,
        ServeConfig {
            max_batch: 100,
            max_staleness: 100,
            degradation: DegradationPolicy {
                max_pending: Some(3),
                ..Default::default()
            },
        },
    );
    for id in 0..3 {
        engine.push(StreamEvent::Move { id, zone: 1 }).unwrap();
    }
    assert_eq!(
        engine.push(StreamEvent::Move { id: 3, zone: 1 }),
        Err(ServeError::QueueFull { bound: 3 })
    );
    assert_eq!(
        engine.pending_events(),
        3,
        "the refused event is not buffered"
    );
    engine.flush_now();
    engine.push(StreamEvent::Move { id: 3, zone: 1 }).unwrap();
    assert_eq!(engine.pending_events(), 1);
    engine.flush_now();
    engine.check_invariants().unwrap();
}

/// A zero-event ingest bound would refuse every push, Leaves
/// included, and a retry after a flush would be refused again: the
/// engine rejects it at boot.
#[test]
#[should_panic(expected = "max_pending must be at least 1")]
fn zero_max_pending_is_rejected_at_boot() {
    boot_engine(
        &small_setup(),
        ServeConfig {
            degradation: DegradationPolicy {
                max_pending: Some(0),
                ..Default::default()
            },
            ..Default::default()
        },
    );
}

/// Mass evacuation: failing a server moves every hosted zone to a
/// survivor and sheds every relay through it; restore brings the
/// capacities back bit-identical and the whole cycle is
/// deterministic.
#[test]
fn fail_then_restore_recovers_bit_identical_capacities() {
    let setup = small_setup();
    let run = || {
        let mut engine = boot_engine(&setup, ServeConfig::default());
        let victim = engine.targets()[0];
        let nominal = engine.instance().capacity(victim);
        let report = engine.fail_server(victim).expect("server in range");
        assert!(engine.down_servers().contains(&victim));
        assert_eq!(engine.down_servers(), vec![victim]);
        assert_eq!(engine.instance().capacity(victim), 0.0);
        assert!(
            engine.targets().iter().all(|&s| s != victim),
            "every zone evacuated the failed server"
        );
        assert!(
            engine.contacts().iter().all(|&s| s != victim),
            "no client is served or relayed through the failed server"
        );
        assert!(report.zones_evacuated > 0, "the victim hosted zones");
        engine.check_invariants().unwrap();

        // Serving continues on the degraded engine.
        let id = engine
            .push(StreamEvent::Join { node: 1, zone: 2 })
            .unwrap()
            .unwrap();
        engine.push(StreamEvent::Move { id, zone: 4 }).unwrap();
        engine.flush_now();
        assert!(engine.contacts().iter().all(|&s| s != victim));

        let restore = engine.restore_server(victim).expect("server in range");
        assert!(!engine.down_servers().contains(&victim));
        assert_eq!(engine.instance().capacity(victim), nominal);
        assert!(restore.feasible, "small tier refits after recovery");
        engine.check_invariants().unwrap();
        assert_eq!(engine.stats().failovers, 1);
        assert_eq!(engine.stats().recoveries, 1);
        assert_eq!(engine.stats().full_repairs, 0);
        // Idempotence: both directions are no-ops when already there.
        assert_eq!(engine.restore_server(victim).unwrap().zones_migrated, 0);
        (
            engine.targets().to_vec(),
            engine.contacts().to_vec(),
            engine.metrics().pqos,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "failure/recovery decisions are deterministic");
}

/// Forced evacuation when no survivor has room: with four of five
/// servers failed, the last survivor absorbs every zone — feasible
/// or not — because an overloaded survivor beats a dead host.
#[test]
fn evacuation_forces_placement_when_all_survivors_are_overloaded() {
    let setup = small_setup();
    let mut engine = boot_engine(&setup, ServeConfig::default());
    for s in 0..4 {
        engine.fail_server(s).expect("in range");
    }
    assert_eq!(engine.down_servers(), vec![0, 1, 2, 3]);
    assert!(
        engine.targets().iter().all(|&s| s == 4),
        "the sole survivor hosts every zone"
    );
    assert!(
        engine.contacts().iter().all(|&s| s == 4),
        "no contact can route anywhere else"
    );
    engine.check_invariants().unwrap();
    // The engine keeps serving and never escalates to a full repair
    // while degraded, even if the survivor is overloaded.
    let before = engine.num_clients();
    engine
        .push(StreamEvent::Join { node: 0, zone: 1 })
        .unwrap()
        .unwrap();
    engine.flush_now();
    assert_eq!(engine.num_clients(), before + 1);
    assert_eq!(engine.stats().full_repairs, 0);
    engine.check_invariants().unwrap();
}

/// Failing the last server of every zone's contact set — no
/// survivors at all: zones stay pinned to their dead host, the
/// engine reports infeasible, keeps its books, and never panics.
#[test]
fn failing_every_server_degrades_without_panic() {
    let setup = small_setup();
    let mut engine = boot_engine(&setup, ServeConfig::default());
    for s in 0..5 {
        engine.fail_server(s).expect("in range");
    }
    assert!(!engine.is_feasible(), "no capacity anywhere");
    assert_eq!(engine.num_clients(), 120, "population is retained");
    engine.check_invariants().unwrap();
    // Unknown servers are a typed refusal, not a panic.
    assert_eq!(
        engine.fail_server(99),
        Err(ServeError::UnknownServer {
            server: 99,
            servers: 5
        })
    );
    // Recovery from total loss works server by server.
    engine.restore_server(0).expect("in range");
    assert!(
        engine.targets().iter().all(|&s| s == 0),
        "the first recovered server re-hosts everything"
    );
    engine.check_invariants().unwrap();
}

/// Leaves every member of a random zone, then flushes.
fn drain_zone(engine: &mut ServeEngine, rng: &mut StdRng) {
    let z = rng.gen_range(0..engine.instance().num_zones());
    let members: Vec<ClientId> = engine
        .instance()
        .clients_in_zone(z)
        .iter()
        .map(|&c| engine.id_at(c))
        .collect();
    for id in members {
        engine.push(StreamEvent::Leave { id }).expect("live leave");
    }
    engine.flush_now();
}

/// Joins a crowd of 20–60 clients into one random zone, then flushes.
fn flash_crowd(engine: &mut ServeEngine, rng: &mut StdRng) {
    let zone = rng.gen_range(0..engine.instance().num_zones());
    for _ in 0..rng.gen_range(20..60) {
        let node = rng.gen_range(0..engine.nodes());
        engine
            .push(StreamEvent::Join { node, zone })
            .expect("open admission");
    }
    engine.flush_now();
}

/// Regression: the scoped evacuation of an overloaded server moved
/// zones of demand 0, which frees nothing, to the cheapest server
/// whose load was within capacity — a failed server (capacity 0, load
/// 0) among them — so zones came to target a failed server while
/// others were up. Over drains of whole zones, flash crowds, random
/// flushes, and failures and restores, no zone targets a failed server
/// while one is up.
#[test]
fn no_zone_targets_a_failed_server_while_one_is_up() {
    for seed in 0..40u64 {
        let mut engine = integer_delay_engine(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe7ac);
        let m = engine.instance().num_servers();
        for step in 0..60 {
            match rng.gen_range(0..4) {
                0 => drain_zone(&mut engine, &mut rng),
                1 => flash_crowd(&mut engine, &mut rng),
                2 => random_flush(&mut engine, &mut rng),
                _ => random_fault(&mut engine, &mut rng),
            }
            if (0..m).any(|s| !engine.down_servers().contains(&s)) {
                for (z, &s) in engine.targets().iter().enumerate() {
                    assert!(
                        !engine.down_servers().contains(&s),
                        "seed {seed}, step {step}: zone {z} targets failed server {s}"
                    );
                }
            }
            engine.check_invariants().unwrap();
        }
    }
}

/// Thread-count invariance of the degraded state (DVE_THREADS ∈
/// {1, 2, 8}): the carried matrix and the violator scan agree with
/// every parallel width after failure and after recovery — the
/// propose-parallel/commit-serial seam is failure-transparent.
#[test]
fn degraded_state_is_thread_count_invariant() {
    use dve_assign::{violating_clients, violating_clients_threads};
    let setup = small_setup();
    let mut engine = boot_engine(&setup, ServeConfig::default());
    let victim = engine.targets()[3];
    engine.fail_server(victim).expect("in range");
    // Churn on the degraded engine.
    for i in 0..10 {
        engine
            .push(StreamEvent::Join {
                node: i,
                zone: i % 15,
            })
            .unwrap();
    }
    engine.flush_now();
    for phase in 0..2 {
        let serial = violating_clients(engine.instance(), engine.targets());
        for threads in [1usize, 2, 8] {
            assert_eq!(
                &CostMatrix::build_threads(engine.instance(), threads),
                engine.matrix(),
                "phase {phase}: carried matrix diverges at {threads} threads"
            );
            assert_eq!(
                violating_clients_threads(engine.instance(), engine.targets(), threads),
                serial,
                "phase {phase}: violator scan diverges at {threads} threads"
            );
        }
        if phase == 0 {
            engine.restore_server(victim).expect("in range");
        }
    }
}

/// Fifty churn+fault flushes on one engine: the scratch pool
/// recycles through every serial flush, evacuation, failover, and
/// recovery sweep, and every carried book stays equivalent to a
/// fresh build after each one.
#[test]
fn scratch_reuse_stays_consistent_across_churn_and_fault_flushes() {
    let setup = small_setup();
    let mut engine = boot_engine(
        &setup,
        ServeConfig {
            max_batch: 64,
            max_staleness: 64,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(0xa110c);
    let mut live: Vec<ClientId> = (0..engine.num_clients() as ClientId).collect();
    for flush in 0..50 {
        for _ in 0..8 {
            match rng.gen_range(0..3) {
                0 if live.len() > 20 => {
                    let pick = rng.gen_range(0..live.len());
                    let id = live.swap_remove(pick);
                    engine.push(StreamEvent::Leave { id }).unwrap();
                }
                1 => {
                    let node = rng.gen_range(0..40);
                    let zone = rng.gen_range(0..15);
                    let id = engine
                        .push(StreamEvent::Join { node, zone })
                        .unwrap()
                        .unwrap();
                    live.push(id);
                }
                _ => {
                    let pick = rng.gen_range(0..live.len());
                    let zone = rng.gen_range(0..15);
                    engine
                        .push(StreamEvent::Move {
                            id: live[pick],
                            zone,
                        })
                        .unwrap();
                }
            }
        }
        engine.flush_now();
        match flush {
            10 => drop(engine.fail_server(1).unwrap()),
            20 => drop(engine.restore_server(1).unwrap()),
            30 => drop(engine.fail_server(3).unwrap()),
            40 => drop(engine.restore_server(3).unwrap()),
            _ => {}
        }
        engine.check_invariants().unwrap();
    }
    assert_eq!(engine.num_clients(), live.len());
    assert!(engine.stats().flushes >= 50);
}
