//! The streaming-engine benchmark (latency acceptance for the always-on
//! serving layer).
//!
//! Claim checked in release mode on every run: serving the paper's
//! Table 3 churn mix (200 joins / 200 leaves / 200 moves per epoch) as a
//! per-event stream at the production `100s-1000z-50000c` tier, with the
//! default 64-event micro-batch policy, the engine's **per-event latency**
//! (event push → end of the flush that applied it, incremental repair
//! included) must satisfy
//!
//! * p99 ≤ 1 ms (histogram upper bound, i.e. conservative), and
//! * mean ≤ 250 µs,
//!
//! and the carried instance + cost matrix must still be bit-identical to
//! a fresh `CostMatrix::build` of the engine's state after the run.
//!
//! The record also carries the violator rescan's counters over the whole
//! run (warm-up included) and gates `rescan_skip_share`, the share of
//! rescan retries that a rescue certificate decided without reading the
//! client's delay row, and `pqos`, the served quality at the last epoch:
//! higher is better, `rel 0`, for both. Decisions are seed-deterministic
//! and flushes are triggered by event counts, so both repeat exactly on
//! any machine: a change that stops the certificates from skipping, or
//! that moves a serving decision, fails the gate.
//!
//! ```bash
//! cargo bench -p dve-bench --bench stream
//! ```

use criterion::{black_box, criterion_group, Criterion};
use dve_assign::{CostMatrix, StuckPolicy};
use dve_bench::diff::{metric, Rule};
use dve_sim::experiments::scaling::LARGE_TIER;
use dve_sim::{
    build_replication, run_stream, ServeConfig, ServeEngine, ServeStats, SimSetup, StreamEvent,
    TopologySpec,
};
use dve_topology::HierarchicalConfig;
use dve_world::{DynamicsBatch, ErrorModel, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Under `count-allocs` the run doubles as an attribution aid: the
// counting allocator is installed and the whole-run totals are printed,
// so an alloc-gate regression can be localised without a profiler.
#[cfg(feature = "count-allocs")]
#[path = "support/alloc_count.rs"]
mod alloc_count;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTER: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// The paper's largest Table 1 configuration (criterion micro tier).
const TABLE1_LARGEST: &str = "30s-160z-2000c-1000cp";

/// Churn epochs the acceptance run streams (steady phase, gated).
const EPOCHS: usize = 5;

/// Warm-up epochs streamed before the gated phase: the engine's first
/// flushes run on cold caches and land in the separate warm-up
/// histogram, so the per-event quantiles measure steady serving, not
/// boot (see `ServeEngine::begin_warmup`).
const WARMUP_EPOCHS: usize = 1;

/// Per-event latency gates at the production tier.
const P99_BUDGET_NS: u64 = 1_000_000;
const MEAN_BUDGET_NS: f64 = 250_000.0;

/// Criterion micro-benchmark: single-event serve cost (push + immediate
/// flush + incremental repair) at the Table 1 tier.
fn bench_event_serve(c: &mut Criterion) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(TABLE1_LARGEST).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 10,
            ..Default::default()
        }),
        base_seed: 7,
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    let nodes = rep.topology.node_count();
    let zones = rep.instance.num_zones();
    let mut engine = ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig {
            max_batch: 1,
            max_staleness: 1,
            ..Default::default()
        },
        rep.rng,
    )
    .expect("tier solves");
    let mut rng = StdRng::seed_from_u64(11);

    let mut group = c.benchmark_group("stream_event/30s-160z-2000c");
    group.sample_size(20);
    group.bench_function("per_event_flush", |b| {
        b.iter(|| {
            // Keep the population steady: join one, bounce one, drop one.
            let id = engine
                .push(StreamEvent::Join {
                    node: rng.gen_range(0..nodes),
                    zone: rng.gen_range(0..zones),
                })
                .expect("valid join")
                .expect("joins get ids");
            engine
                .push(StreamEvent::Move {
                    id,
                    zone: rng.gen_range(0..zones),
                })
                .expect("valid move");
            engine.push(StreamEvent::Leave { id }).expect("valid leave");
            black_box(engine.num_clients())
        })
    });
    group.finish();
}

/// Acceptance: per-event latency SLO at the production tier, plus the
/// carried-state bit-identity check. Returns (mean_ns, p99_ns, pqos) and
/// the engine's lifetime counters.
fn check_stream_latency() -> (f64, u64, f64, ServeStats) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        runs: 1,
        ..Default::default()
    };
    // Latency-lean micro-batches: the coalescing knob exists precisely to
    // trade amortisation for bounded per-event latency, and 16 events
    // keeps every flush phase (column updates, zone reorders, scoped
    // repair) comfortably inside the budget at this tier.
    let config = ServeConfig {
        max_batch: 16,
        max_staleness: 4,
        ..Default::default()
    };
    let batch = DynamicsBatch::paper_default();
    let report = run_stream(
        &setup,
        0,
        &batch,
        WARMUP_EPOCHS,
        EPOCHS,
        StuckPolicy::BestEffort,
        config,
    )
    .expect("tier solves");

    let latency = &report.stats.latency;
    let p99 = latency.quantile_upper_ns(0.99);
    let mean = latency.mean_ns();
    println!(
        "stream/acceptance: {WARMUP_EPOCHS}+{EPOCHS} epochs of 200j/200l/200m on {LARGE_TIER} \
         (max_batch={}): steady {} | warmup {} | flushes {} migrations {} full_repairs {}",
        config.max_batch,
        latency.render_us(),
        report.stats.warmup.render_us(),
        report.stats.flushes,
        report.stats.zones_migrated,
        report.stats.full_repairs,
    );
    println!(
        "stream/rescan: retries {} skipped {} rescued {}",
        report.stats.rescan_retries, report.stats.rescan_skipped, report.stats.rescan_rescued
    );
    for r in &report.records {
        println!(
            "stream/epoch {}: clients {} pqos {:.4} migrated {} flushes {}",
            r.epoch, r.clients, r.pqos, r.zones_migrated, r.flushes
        );
    }
    assert_eq!(
        latency.count(),
        (EPOCHS * 600) as u64,
        "every steady streamed event must be measured"
    );
    assert_eq!(
        report.stats.warmup.count(),
        (WARMUP_EPOCHS * 600) as u64,
        "warm-up admission must be recorded in its own phase"
    );
    assert!(
        p99 <= P99_BUDGET_NS,
        "p99 per-event latency {:.1}us over the {:.1}us budget",
        p99 as f64 / 1e3,
        P99_BUDGET_NS as f64 / 1e3
    );
    assert!(
        mean <= MEAN_BUDGET_NS,
        "mean per-event latency {:.1}us over the {:.1}us budget",
        mean / 1e3,
        MEAN_BUDGET_NS / 1e3
    );

    // The serving loop must keep quality intact, not just be fast.
    let last = report.records.last().expect("epochs ran");
    assert!(
        last.pqos >= 0.85,
        "streamed pQoS {:.3} collapsed at the production tier",
        last.pqos
    );
    (mean, p99, last.pqos, report.stats)
}

/// The carried matrix stays bit-identical to a fresh build under
/// micro-batched streaming at a mid tier (cheap enough to assert here;
/// the property tests cover it exhaustively at small tiers).
fn check_carried_state_identity() {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(TABLE1_LARGEST).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 10,
            ..Default::default()
        }),
        base_seed: 3,
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    let nodes = rep.topology.node_count();
    let zones = rep.instance.num_zones();
    let mut engine = ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
        rep.rng,
    )
    .expect("tier solves");
    let mut rng = StdRng::seed_from_u64(13);
    let mut live: Vec<dve_sim::ClientId> = (0..engine.num_clients() as dve_sim::ClientId).collect();
    for _ in 0..600 {
        match rng.gen_range(0..3) {
            0 if live.len() > 100 => {
                let pick = rng.gen_range(0..live.len());
                let id = live.swap_remove(pick);
                engine.push(StreamEvent::Leave { id }).expect("valid");
            }
            1 => {
                let id = engine
                    .push(StreamEvent::Join {
                        node: rng.gen_range(0..nodes),
                        zone: rng.gen_range(0..zones),
                    })
                    .expect("valid")
                    .expect("id");
                live.push(id);
            }
            _ => {
                let pick = rng.gen_range(0..live.len());
                engine
                    .push(StreamEvent::Move {
                        id: live[pick],
                        zone: rng.gen_range(0..zones),
                    })
                    .expect("valid");
            }
        }
    }
    engine.flush_now();
    assert_eq!(
        engine.matrix(),
        &CostMatrix::build(engine.instance()),
        "carried matrix diverged from a fresh build after streaming"
    );
    println!("stream/state-identity: 600 events on {TABLE1_LARGEST}: carried matrix bit-identical");
}

criterion_group!(benches, bench_event_serve);

fn main() {
    benches();
    check_carried_state_identity();
    let (mean_ns, p99_ns, pqos, stats) = check_stream_latency();
    assert!(stats.rescan_retries > 0, "the run must exercise the rescan");
    let skip_share = stats.rescan_skipped as f64 / stats.rescan_retries as f64;
    let path = dve_bench::write_bench_record(
        "stream",
        &[
            ("tier", format!("\"{LARGE_TIER}\"")),
            ("epochs", format!("{EPOCHS}")),
            ("steady_mean_ns", format!("{mean_ns:.0}")),
            ("steady_p99_ns", format!("{p99_ns}")),
            ("pqos", format!("{pqos:.6}")),
            ("rescan_retries", format!("{}", stats.rescan_retries)),
            ("rescan_skipped", format!("{}", stats.rescan_skipped)),
            ("rescan_rescued", format!("{}", stats.rescan_rescued)),
        ],
        &[
            metric("rescan_skip_share", skip_share, Rule::Higher { rel: 0.0 }),
            metric("pqos", pqos, Rule::Higher { rel: 0.0 }),
        ],
    );
    println!("stream: record written to {path}");
    #[cfg(feature = "count-allocs")]
    {
        let (allocs, bytes) = alloc_count::totals();
        println!("stream/allocs: {allocs} allocations / {bytes} bytes over the whole run");
    }
}
