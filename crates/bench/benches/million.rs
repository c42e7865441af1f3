//! The million-client acceptance run (`scale-1m` CI gate).
//!
//! Claim checked in release mode: the blocked `DelaySource` pipeline
//! builds, solves, and serves the [`MILLION_TIER`]
//! (`200s-4000z-1000000c`) **end-to-end on one core in bounded memory**:
//!
//! * topology delays come from [`OnDemandDelays`] — the node×node matrix
//!   is never materialised;
//! * the instance + cost matrix come out of one blocked pass of
//!   [`CapInstance::from_world_with_matrix`] in the shared-by-node
//!   layout — **no dense k×m table of any width exists at any point**
//!   (asserted: the delay rows are substrate-sized);
//! * GreZ + incremental local search + GreC solve the tier, and the
//!   [`ServeEngine`] streams join/leave/move events over it, with the
//!   initial admission recorded in the separate warm-up phase;
//! * peak RSS stays under a fixed ceiling and the run completes within
//!   a wall-clock budget.
//!
//! Build throughput, peak RSS, thread count, and serve latencies are
//! written to `BENCH_million.json` (uploaded as a CI artifact) so the
//! scale trajectory is machine-readable like `BENCH_table1.json`.
//!
//! Environment knobs (all optional):
//! * `DVE_MILLION_CLIENTS` — reduced-size variant for slow runners
//!   (capacity is re-derived from the bandwidth model at the same
//!   ~1.3× head-room);
//! * `DVE_MILLION_RSS_CEILING_MB` — memory ceiling, default 1024;
//! * `DVE_MILLION_BUDGET_S` — wall-clock budget, default 900;
//! * `DVE_MILLION_SHARDS` — when > 1, replays the same warm-up +
//!   steady trace through a [`ServeEngine`] booted with that many
//!   [`ServeConfig::shards`] (concurrent disjoint-shard flushes on a
//!   persistent worker team),
//!   asserts its decisions bit-identical to the single-core engine,
//!   and — at >= 4 workers — gates the sharded steady p99 **below**
//!   the committed width-1 `steady_p99_ns` in `BENCH_million.json`
//!   (default 1: the phase is skipped and the headline run stays the
//!   single-core claim);
//! * `DVE_MILLION_JSON` — output path, default `BENCH_million.json`.
//!
//! ```bash
//! cargo bench -p dve-bench --bench million
//! ```

use dve_assign::{
    evaluate, grec, grez_with, improve_iap_with, Assignment, CapInstance, CostMatrix, DelayLayout,
    StuckPolicy,
};
use dve_sim::experiments::scaling::MILLION_TIER;
use dve_sim::{
    peak_rss_bytes, run_mobility_stream_with, DelayMode, QualityEstimator, ServeConfig,
    ServeEngine, SimSetup, StreamEvent,
};
use dve_topology::{hierarchical, HierarchicalConfig, OnDemandDelays};
use dve_world::{ErrorModel, InterArrival, MobilityModel, ScenarioConfig, World, WorldDelays};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Join events streamed through the warm-up window (initial-admission
/// phase) before the gated steady phase.
const WARMUP_EVENTS: usize = 2_000;

/// Steady join/leave/move events streamed after warm-up.
const STEADY_EVENTS: usize = 6_000;

/// Ticks of the gated mobility epoch loop (avatar walks served through
/// a fresh engine at the same tier).
const MOBILITY_TICKS: usize = 3;

/// Per-tick move probability of the mobility phase: ~2 000 movers per
/// tick at the full tier — enough to exercise the zone-sharded repair
/// scan and the streaming path without dominating the wall budget.
const MOBILITY_PROB: f64 = 0.002;

/// Clients sampled per tick by the streaming quality estimator (the
/// O(k) exact evaluation is precisely what mobility-at-the-million-tier
/// must avoid; 10 000 samples put the standard error at ~0.005).
const MOBILITY_SAMPLE: usize = 10_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Streams the seeded serve trace through an engine: [`WARMUP_EVENTS`]
/// joins inside the warm-up window, then [`STEADY_EVENTS`] mixed
/// join/leave/move events and one final flush. The event stream is
/// derived from its own `StdRng::seed_from_u64(44)`, so every engine
/// fed by this function sees the identical trace — which is what lets
/// the sharded phase assert bit-identity against the single-core run.
/// Returns `(warmup_ms, steady_ms)`.
fn serve_trace(engine: &mut ServeEngine, nodes: usize, zones: usize) -> (f64, f64) {
    let mut event_rng = StdRng::seed_from_u64(44);

    let t = Instant::now();
    engine.begin_warmup();
    let mut live: Vec<dve_sim::ClientId> = Vec::with_capacity(WARMUP_EVENTS);
    for _ in 0..WARMUP_EVENTS {
        let id = engine
            .push(StreamEvent::Join {
                node: event_rng.gen_range(0..nodes),
                zone: event_rng.gen_range(0..zones),
            })
            .expect("valid join")
            .expect("joins get ids");
        live.push(id);
    }
    engine.end_warmup();
    let warmup_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    for _ in 0..STEADY_EVENTS {
        match event_rng.gen_range(0..3) {
            0 if live.len() > 100 => {
                let pick = event_rng.gen_range(0..live.len());
                let id = live.swap_remove(pick);
                engine.push(StreamEvent::Leave { id }).expect("valid leave");
            }
            1 => {
                let id = engine
                    .push(StreamEvent::Join {
                        node: event_rng.gen_range(0..nodes),
                        zone: event_rng.gen_range(0..zones),
                    })
                    .expect("valid join")
                    .expect("joins get ids");
                live.push(id);
            }
            _ => {
                let pick = event_rng.gen_range(0..live.len());
                engine
                    .push(StreamEvent::Move {
                        id: live[pick],
                        zone: event_rng.gen_range(0..zones),
                    })
                    .expect("valid move");
            }
        }
    }
    engine.flush_now();
    let steady_ms = t.elapsed().as_secs_f64() * 1e3;
    (warmup_ms, steady_ms)
}

/// The committed width-1 steady-serve p99 from `BENCH_million.json` —
/// the bound the sharded phase must beat at >= 4 workers. `None` when
/// the committed record is absent or was not measured at width 1.
fn committed_steady_p99_ns() -> Option<u64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_million.json");
    let text = std::fs::read_to_string(path).ok()?;
    let doc = dve_bench::diff::parse(&text).ok()?;
    if dve_bench::diff::doc_threads(&doc) != Some(1) {
        return None;
    }
    doc.get("steady_p99_ns")
        .and_then(dve_bench::diff::Json::as_num)
        .map(|x| x as u64)
}

/// The tier to run: the canonical [`MILLION_TIER`], or a reduced-size
/// variant with capacity re-derived for the same head-room.
fn tier_notation(clients: usize) -> String {
    if clients == 1_000_000 {
        return MILLION_TIER.to_string();
    }
    let base = ScenarioConfig::from_notation(MILLION_TIER).expect("static notation");
    let mean_pop = (clients / base.zones).max(1);
    let demand = base.zones as f64 * base.bandwidth.zone_bps(mean_pop);
    let cap_mbps = (demand * 1.3 / 1e6).ceil() as u64;
    format!("{}s-{}z-{clients}c-{cap_mbps}cp", base.servers, base.zones)
}

fn main() {
    // The claim is single-core; respect an explicit override but pin to
    // one worker by default so CI and laptops measure the same thing.
    if std::env::var("DVE_THREADS").is_err() {
        std::env::set_var("DVE_THREADS", "1");
    }
    let clients = env_u64("DVE_MILLION_CLIENTS", 1_000_000) as usize;
    let rss_ceiling = env_u64("DVE_MILLION_RSS_CEILING_MB", 1024) * 1024 * 1024;
    let budget_s = env_u64("DVE_MILLION_BUDGET_S", 900);
    let notation = tier_notation(clients);
    let started = Instant::now();

    // --- Substrate: graph + on-demand delays, no node matrix. ---
    let mut rng = StdRng::seed_from_u64(42);
    let t = Instant::now();
    let topo = hierarchical(&HierarchicalConfig::default(), &mut rng);
    let source = OnDemandDelays::from_graph(&topo.graph, 500.0, 8).expect("connected");
    let topo_ms = t.elapsed().as_secs_f64() * 1e3;

    // --- World + gather table. ---
    let config = ScenarioConfig::from_notation(&notation).expect("tier notation");
    let t = Instant::now();
    let world = World::generate(&config, topo.node_count(), &topo.as_of_node, &mut rng)
        .expect("tier fits the substrate");
    let delays = WorldDelays::for_world(Arc::new(source), &world);
    let world_ms = t.elapsed().as_secs_f64() * 1e3;

    // --- Blocked one-pass instance + cost matrix, shared rows. ---
    let t = Instant::now();
    let (inst, matrix) = CapInstance::from_world_with_matrix(
        &world,
        &delays,
        0.5,
        250.0,
        ErrorModel::PERFECT,
        DelayLayout::SharedByNode,
        &mut rng,
    );
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let build_rate = clients as f64 / (build_ms / 1e3);
    let table_bytes = inst.delay_table_bytes();
    // The tentpole's structural claim: delay rows are substrate-sized —
    // a dense k×m table (f64: k*m*16 bytes for obs+true) never exists.
    assert_eq!(
        table_bytes,
        delays.nodes() * config.servers * 8,
        "delay rows must be shared per node, not per client"
    );
    println!(
        "million/build: {notation} in {build_ms:.0} ms ({build_rate:.0} clients/s), \
         delay rows {table_bytes} bytes ({} nodes x {} servers)",
        delays.nodes(),
        config.servers
    );

    // --- Solve: GreZ + incremental local search + GreC. ---
    let t = Instant::now();
    let mut targets = grez_with(&inst, &matrix, StuckPolicy::BestEffort).expect("tier solves");
    let ls = improve_iap_with(&inst, &matrix, &mut targets, 2);
    let contact_of_client = grec(&inst, &targets);
    let solve_ms = t.elapsed().as_secs_f64() * 1e3;
    let assignment = Assignment {
        target_of_zone: targets,
        contact_of_client,
    };
    let pqos_initial = evaluate(&inst, &assignment).pqos;
    println!(
        "million/solve: GreZ+LS+GreC in {solve_ms:.0} ms \
         (LS cost {} -> {} in {} sweeps), pQoS {pqos_initial:.4}",
        ls.initial_cost, ls.final_cost, ls.sweeps
    );
    assert!(
        pqos_initial >= 0.7,
        "million-tier pQoS {pqos_initial:.3} collapsed"
    );

    // --- Serve: warm-up admission, then steady join/leave/move. ---
    let engine_rng = StdRng::seed_from_u64(43);
    let mut engine = ServeEngine::new(
        inst,
        &world,
        delays.clone(),
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig {
            max_batch: 64,
            max_staleness: 4,
            ..Default::default()
        },
        engine_rng,
    )
    .expect("tier solves");
    let nodes = delays.nodes();
    let zones = config.zones;
    let (warmup_ms, steady_ms) = serve_trace(&mut engine, nodes, zones);

    let stats = engine.stats();
    assert_eq!(stats.warmup.count(), WARMUP_EVENTS as u64);
    assert_eq!(stats.latency.count(), STEADY_EVENTS as u64);
    let pqos_served = engine.metrics().pqos;
    println!(
        "million/serve: warmup {WARMUP_EVENTS} joins in {warmup_ms:.0} ms [{}], \
         steady {STEADY_EVENTS} events in {steady_ms:.0} ms [{}], \
         full_repairs {}, pQoS {pqos_served:.4}",
        stats.warmup.render_us(),
        stats.latency.render_us(),
        stats.full_repairs
    );
    assert!(
        pqos_served >= 0.7,
        "served pQoS {pqos_served:.3} collapsed under streaming"
    );

    // The carried books survive a million-client streaming session.
    assert_eq!(
        engine.matrix(),
        &CostMatrix::build(engine.instance()),
        "carried matrix diverged from a fresh build"
    );

    // --- Sharded steady serve: the concurrent-flush path at width. ---
    // Opt-in (DVE_MILLION_SHARDS > 1): the identical warm-up + steady
    // trace replayed through a multi-shard engine whose flushes propose
    // on its persistent worker team and commit serially. Decisions must
    // be bit-identical to the single-core engine above; at >= 4 workers
    // the steady p99 must beat the committed width-1 record. Read the
    // committed bound *before* the record below overwrites the file.
    let shards = env_u64("DVE_MILLION_SHARDS", 1) as usize;
    let committed_p99 = committed_steady_p99_ns();
    let mut sharded_steady_ms = None;
    let mut sharded_p99 = None;
    if shards > 1 {
        // The single-core engine consumed the first instance; rebuild it
        // with the same blocked pass (PERFECT error never draws from the
        // rng, so the rebuild is bit-identical).
        let mut inst_rng = StdRng::seed_from_u64(45);
        let (inst2, _) = CapInstance::from_world_with_matrix(
            &world,
            &delays,
            0.5,
            250.0,
            ErrorModel::PERFECT,
            DelayLayout::SharedByNode,
            &mut inst_rng,
        );
        let mut sharded = ServeEngine::new(
            inst2,
            &world,
            delays.clone(),
            ErrorModel::PERFECT,
            StuckPolicy::BestEffort,
            ServeConfig {
                max_batch: 64,
                max_staleness: 4,
                shards,
                ..Default::default()
            },
            StdRng::seed_from_u64(43),
        )
        .expect("tier solves");
        let (_, s_steady_ms) = serve_trace(&mut sharded, nodes, zones);
        assert_eq!(
            sharded.targets(),
            engine.targets(),
            "sharded steady serve diverged from the single-core target decisions"
        );
        assert_eq!(
            sharded.contacts(),
            engine.contacts(),
            "sharded steady serve diverged from the single-core contact decisions"
        );
        let sstats = sharded.stats();
        assert_eq!(sstats.latency.count(), STEADY_EVENTS as u64);
        let p99 = sstats.latency.quantile_upper_ns(0.99);
        println!(
            "million/sharded: {shards} shards, steady {STEADY_EVENTS} events in \
             {s_steady_ms:.0} ms [{}] (committed width-1 steady p99 {})",
            sstats.latency.render_us(),
            committed_p99.map_or("absent".to_string(), |ns| format!("{ns} ns")),
        );
        if shards >= 4 {
            let committed = committed_p99.expect(
                "BENCH_million.json must carry a committed width-1 steady_p99_ns \
                 for the sharded p99 gate",
            );
            assert!(
                p99 < committed,
                "sharded steady p99 {p99} ns at {shards} workers does not beat the \
                 committed width-1 steady p99 {committed} ns"
            );
            println!("million/sharded: PASS (p99 {p99} ns < committed width-1 {committed} ns)");
        }
        sharded_steady_ms = Some(s_steady_ms);
        sharded_p99 = Some(p99);
    }

    // --- Mobility: avatar-walk epochs at the same tier. ---
    // A fresh million-tier replication (on-demand delays, shared rows)
    // driven by the mobility model through the streaming engine, with
    // exponential inter-arrival offsets and the **sampled** quality
    // estimator — the O(k)-free path that makes per-tick quality
    // affordable at this population.
    let t = Instant::now();
    let mobility_setup = SimSetup {
        scenario: config.clone(),
        topology: dve_sim::TopologySpec::Hierarchical(HierarchicalConfig::default()),
        delay_mode: DelayMode::OnDemand { landmarks: 8 },
        delay_layout: DelayLayout::SharedByNode,
        runs: 1,
        ..Default::default()
    };
    let model = MobilityModel::new(config.zones, MOBILITY_PROB);
    let mobility = run_mobility_stream_with(
        &mobility_setup,
        0,
        &model,
        MOBILITY_TICKS,
        StuckPolicy::BestEffort,
        ServeConfig {
            max_batch: 64,
            max_staleness: 2,
            arrival: InterArrival::Exponential {
                mean_gap_ticks: 1.0 / (clients as f64 * MOBILITY_PROB).max(1.0),
            },
            ..Default::default()
        },
        QualityEstimator::Sampled {
            sample: MOBILITY_SAMPLE,
        },
    )
    .expect("tier solves");
    let mobility_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(mobility.records.len(), MOBILITY_TICKS);
    let pqos_mobility = mobility.records.last().expect("ticks ran").pqos;
    println!(
        "million/mobility: {MOBILITY_TICKS} ticks x ~{:.0} movers in {mobility_ms:.0} ms \
         ({} events, {} flushes, full_repairs {}), sampled pQoS {pqos_mobility:.4}",
        clients as f64 * MOBILITY_PROB,
        mobility.stats.events,
        mobility.stats.flushes,
        mobility.stats.full_repairs,
    );
    assert!(mobility.stats.events > 0, "mobility phase served no events");
    assert!(
        pqos_mobility >= 0.7,
        "million-tier mobility pQoS {pqos_mobility:.3} collapsed"
    );

    // --- Resource gates. ---
    let elapsed_s = started.elapsed().as_secs_f64();
    let rss = peak_rss_bytes().unwrap_or(0);
    let threads = dve_par::default_threads();
    println!(
        "million/resources: peak RSS {:.0} MiB (ceiling {:.0} MiB), \
         {elapsed_s:.1} s wall (budget {budget_s} s), {threads} thread(s)",
        rss as f64 / (1024.0 * 1024.0),
        rss_ceiling as f64 / (1024.0 * 1024.0),
    );
    if rss > 0 {
        assert!(
            rss <= rss_ceiling,
            "peak RSS {rss} bytes over the {rss_ceiling}-byte ceiling"
        );
    }
    assert!(
        elapsed_s <= budget_s as f64,
        "run took {elapsed_s:.0} s, over the {budget_s} s budget"
    );

    // --- Machine-readable record. ---
    // The shared writer stamps experiment/threads/peak_rss_bytes and
    // anchors the file at the workspace root, next to BENCH_table1.json.
    let json_path = dve_bench::write_bench_record(
        "million",
        &[
            ("tier", format!("\"{notation}\"")),
            ("clients", format!("{clients}")),
            ("delay_table_bytes", format!("{table_bytes}")),
            ("topology_ms", format!("{topo_ms:.3}")),
            ("world_ms", format!("{world_ms:.3}")),
            ("build_ms", format!("{build_ms:.3}")),
            ("build_clients_per_sec", format!("{build_rate:.0}")),
            ("solve_ms", format!("{solve_ms:.3}")),
            ("pqos_initial", format!("{pqos_initial:.6}")),
            ("pqos_served", format!("{pqos_served:.6}")),
            ("warmup_events", format!("{WARMUP_EVENTS}")),
            ("warmup_ms", format!("{warmup_ms:.3}")),
            (
                "warmup_p99_ns",
                format!("{}", stats.warmup.quantile_upper_ns(0.99)),
            ),
            ("steady_events", format!("{STEADY_EVENTS}")),
            ("steady_ms", format!("{steady_ms:.3}")),
            ("steady_mean_ns", format!("{:.0}", stats.latency.mean_ns())),
            (
                "steady_p99_ns",
                format!("{}", stats.latency.quantile_upper_ns(0.99)),
            ),
            ("full_repairs", format!("{}", stats.full_repairs)),
            ("sharded_shards", format!("{shards}")),
            (
                "sharded_steady_ms",
                sharded_steady_ms.map_or("null".to_string(), |x: f64| format!("{x:.3}")),
            ),
            (
                "sharded_steady_p99_ns",
                sharded_p99.map_or("null".to_string(), |x: u64| format!("{x}")),
            ),
            ("mobility_ticks", format!("{MOBILITY_TICKS}")),
            ("mobility_events", format!("{}", mobility.stats.events)),
            ("mobility_ms", format!("{mobility_ms:.3}")),
            ("pqos_mobility", format!("{pqos_mobility:.6}")),
            ("wall_s", format!("{elapsed_s:.3}")),
        ],
    );
    // Legacy override: mirror the record wherever the operator asked.
    if let Ok(extra) = std::env::var("DVE_MILLION_JSON") {
        std::fs::copy(&json_path, &extra)
            .unwrap_or_else(|e| panic!("could not copy record to {extra}: {e}"));
    }
    println!("million: PASS ({json_path} written)");
}
