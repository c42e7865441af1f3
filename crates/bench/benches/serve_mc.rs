//! The zone-sharded *serving* acceptance run (`scale-mc` CI gate).
//!
//! Claim checked in release mode **on a multi-core runner** (the run
//! degrades to a report-only SKIP below four workers, so single-core
//! boxes and tier-1 CI stay green): a [`ServeEngine`] booted with
//! [`ServeConfig::shards`] workers serves churn at the production
//! [`LARGE_TIER`] (`100s-1000z-50000c`) at least **3×** the
//! single-shard event throughput, while committing **bit-identical
//! decisions** to the single-shard engine (asserted in-process, per
//! client, before and after timing). Only the touched zones' re-order
//! runs on the team; target and contact repair run on the calling
//! thread at every width. The re-order is about 12% of a one-shard
//! flush, so Amdahl's law caps the speedup near 1.10× at four workers
//! and the 3× gate is not expected to pass.
//!
//! The timed span is pure serving: push + micro-batch flush over rounds
//! `1..=RUNS` of a fixed move trace. Round 0 is the untimed
//! bit-identity pass; every timed round sends each client to a zone
//! it does not occupy (asserted for client 0 before each round), so no
//! timed flush is a replay of moves that change nothing. Engine boot
//! (world generation, initial solve) happens once per width outside
//! the clock.
//!
//! Besides the headline width, the run measures the **speedup curve**
//! at every [`CURVE_WIDTHS`] width the machine can host and records it
//! as a `curve` array of `{threads, events_per_s}` points, so the
//! scale trajectory of the serving path is machine-readable.
//!
//! Results land in `BENCH_serve_mc.json` keyed by `threads` +
//! `peak_rss_bytes`, so committed baselines are compared like for like.
//! Its `metrics` declare `events_per_s` and every curve width's
//! `curve/<threads>/events_per_s` as throughputs that may fall to no
//! less than 1/1.25 of the committed value; `bench_diff` refuses a
//! committed record of another width (exit 3).
//!
//! ```bash
//! cargo bench -p dve-bench --bench serve_mc
//! ```

use dve_assign::StuckPolicy;
use dve_bench::diff::{metric, Rule};
use dve_sim::experiments::scaling::LARGE_TIER;
use dve_sim::{
    build_replication, LatencyHistogram, ServeConfig, ServeEngine, SimSetup, StreamEvent,
    TopologySpec,
};
use dve_topology::HierarchicalConfig;
use dve_world::{ErrorModel, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Timed repetitions per width (rounds `1..=RUNS`); the gated
/// statistic is the minimum.
const RUNS: usize = 3;

/// Move events per round. A live id can move forever, so every round
/// moves the same population without rebooting the engine.
const EVENTS: usize = 24_000;

/// Events per micro-batch flush: large enough that a flush touches
/// hundreds of the tier's 1000 zones, which is the span the team
/// parallelises.
const BATCH: usize = 512;

/// The gate arms at this many workers: below it the re-order share of a
/// flush (Amdahl) cannot reach 3× end-to-end, and the run reports SKIP
/// like the `mc` bench does on one core.
const MIN_GATE_WIDTH: usize = 4;

/// Serving throughput at this many workers must clear the single-shard
/// run by this factor.
const GATE_SPEEDUP: f64 = 3.0;

/// Widths the speedup curve samples (capped at the machine's worker
/// count): each one is a gated metric of the record.
const CURVE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn boot(setup: &SimSetup, shards: usize) -> ServeEngine {
    let rep = build_replication(setup, 0);
    ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig {
            max_batch: BATCH,
            shards,
            ..ServeConfig::default()
        },
        StdRng::seed_from_u64(0x5eac),
    )
    .expect("the large tier solves")
}

/// The zone event `i` of `round` moves client `i % clients` to: derived
/// from the event index and the round, spread across the full zone
/// space.
fn destination(i: usize, round: usize, clients: usize, zones: usize) -> usize {
    (i * 31 + round * 7 + i / clients) % zones
}

/// The deterministic move trace of one round.
fn drive(engine: &mut ServeEngine, clients: usize, zones: usize, round: usize) {
    for i in 0..EVENTS {
        let id = (i % clients) as u64;
        let zone = destination(i, round, clients, zones);
        engine
            .push(StreamEvent::Move { id, zone })
            .expect("moves of live clients are always admitted");
    }
    engine.flush_now();
}

/// Minimum wall-clock over the timed rounds `1..=RUNS`, ms. Each round
/// must move clients: client 0's destination differs from its zone.
fn min_serve_ms(engine: &mut ServeEngine, clients: usize, zones: usize) -> f64 {
    (1..=RUNS)
        .map(|round| {
            let at = engine.index_of(0).expect("client 0 stays live");
            assert_ne!(
                engine.instance().zone_of(at),
                destination(0, round, clients, zones),
                "timed round {round} must move clients"
            );
            let t = Instant::now();
            drive(engine, clients, zones, round);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Asserts that the sharded engine committed the single-shard engine's
/// per-client decisions.
fn assert_same_decisions(serial: &ServeEngine, wide: &ServeEngine) {
    assert_eq!(
        serial.targets(),
        wide.targets(),
        "sharded serving diverged from the single-shard target decisions"
    );
    assert_eq!(
        serial.contacts(),
        wide.contacts(),
        "sharded serving diverged from the single-shard contact decisions"
    );
}

fn main() {
    let threads = dve_par::default_threads();
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        runs: 1,
        ..Default::default()
    };
    let scenario = ScenarioConfig::from_notation(LARGE_TIER).expect("static notation");
    let (clients, zones) = (scenario.clients, scenario.zones);

    // Correctness first: the sharded engine must commit the single-shard
    // run's per-client decisions bit for bit before its speed means
    // anything. One full trace replay on each, then compare everything.
    let mut serial = boot(&setup, 1);
    let mut wide = boot(&setup, threads);
    drive(&mut serial, clients, zones, 0);
    drive(&mut wide, clients, zones, 0);
    assert_same_decisions(&serial, &wide);
    assert_eq!(serial.stats().events, wide.stats().events);
    assert_eq!(serial.stats().zones_migrated, wide.stats().zones_migrated);
    assert_eq!(
        serial.stats().full_repairs,
        wide.stats().full_repairs,
        "sharding must not change when the engine falls back to a full repair"
    );
    if threads > 1 {
        let routed: u64 = wide.stats().shards.iter().map(|b| b.events).sum();
        assert_eq!(routed, wide.stats().events);
    }

    let serial_ms = min_serve_ms(&mut serial, clients, zones);
    let wide_ms = min_serve_ms(&mut wide, clients, zones);
    assert_same_decisions(&serial, &wide);
    let serial_eps = EVENTS as f64 / (serial_ms / 1e3);
    let wide_eps = EVENTS as f64 / (wide_ms / 1e3);
    let speedup = serial_ms / wide_ms;
    println!(
        "serve_mc/acceptance: {EVENTS} moves on {LARGE_TIER} at {threads} shard(s): \
         min {wide_ms:.1} ms ({wide_eps:.0} events/s; 1-shard {serial_ms:.1} ms, \
         {serial_eps:.0} events/s -> {speedup:.2}x)"
    );

    // Shard-health telemetry from the headline engine: the on-worker
    // zone re-order span per concurrent flush, and how evenly the z % S zone
    // routing spread the event stream. A one-shard engine keeps no
    // shard books: every flush is serial and all events are its own.
    let books = &wide.stats().shards;
    let mut flush = LatencyHistogram::new();
    for book in books {
        flush.merge(&book.propose);
    }
    let events = wide.stats().events;
    let ev_max = books.iter().map(|b| b.events).max().unwrap_or(events);
    let ev_min = books.iter().map(|b| b.events).min().unwrap_or(events);
    println!(
        "serve_mc/shards: {} concurrent-flush re-order samples [{}], \
         event imbalance max {ev_max} / min {ev_min} per shard",
        flush.count(),
        flush.render_us()
    );

    // The speedup curve: every width the machine can host, reusing the
    // already-timed width-1 and headline engines.
    let mut curve: Vec<(usize, f64)> = Vec::new();
    for &w in CURVE_WIDTHS.iter().filter(|&&w| w <= threads.max(1)) {
        let eps = if w == 1 {
            serial_eps
        } else if w == threads {
            wide_eps
        } else {
            let mut engine = boot(&setup, w);
            drive(&mut engine, clients, zones, 0); // warm like the gated widths
            let ms = min_serve_ms(&mut engine, clients, zones);
            EVENTS as f64 / (ms / 1e3)
        };
        println!("serve_mc/curve: {w} worker(s): {eps:.0} events/s");
        curve.push((w, eps));
    }
    let curve_json = format!(
        "[{}]",
        curve
            .iter()
            .map(|(w, eps)| format!("{{\"threads\": {w}, \"events_per_s\": {eps:.1}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Throughput: lower is the regression, so each number may lose at
    // most a factor of 1.25 against the committed record.
    let throughput = Rule::Higher { rel: 0.25 };
    let mut metrics = vec![metric("events_per_s", wide_eps, throughput)];
    for &(w, eps) in &curve {
        metrics.push(metric(format!("curve/{w}/events_per_s"), eps, throughput));
    }
    dve_bench::write_bench_record(
        "serve_mc",
        &[
            ("tier", format!("\"{LARGE_TIER}\"")),
            ("runs", format!("{RUNS}")),
            ("events", format!("{EVENTS}")),
            ("batch", format!("{BATCH}")),
            ("serve_min_ms", format!("{wide_ms:.3}")),
            ("serve_min_ms_1shard", format!("{serial_ms:.3}")),
            ("events_per_s", format!("{wide_eps:.1}")),
            ("events_per_s_1shard", format!("{serial_eps:.1}")),
            ("speedup_in_process", format!("{speedup:.3}")),
            ("curve", curve_json),
            ("flush_samples", format!("{}", flush.count())),
            ("flush_p99_ns", format!("{}", flush.quantile_upper_ns(0.99))),
            ("event_imbalance_max", format!("{ev_max}")),
            ("event_imbalance_min", format!("{ev_min}")),
        ],
        &metrics,
    );

    if threads < MIN_GATE_WIDTH {
        println!(
            "serve_mc: SKIP ({threads} worker(s) available — the >={GATE_SPEEDUP}x serving \
             gate needs at least {MIN_GATE_WIDTH}; measurements recorded in \
             BENCH_serve_mc.json)"
        );
        return;
    }
    assert!(
        speedup >= GATE_SPEEDUP,
        "sharded serving at {threads} shards is only {speedup:.2}x the single-shard \
         throughput ({wide_eps:.0} vs {serial_eps:.0} events/s; gate: >= {GATE_SPEEDUP}x)"
    );
    println!("serve_mc: PASS ({speedup:.2}x single-shard serving throughput at {threads} shards)");
}
