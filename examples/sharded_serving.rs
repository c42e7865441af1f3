//! Zone-sharded serving: the same churn trace served by a one-shard
//! engine and by a four-shard engine (`ServeConfig { shards: 4, .. }`),
//! to show the two properties the shard width guarantees:
//!
//! 1. **Bit-identical decisions at any width** — every epoch record
//!    (population, pQoS, migrations, repairs, flushes) matches the
//!    one-shard run exactly, because shards only *propose* in parallel
//!    from a frozen snapshot and one serial pass commits in canonical
//!    zone order;
//! 2. **Per-shard observability** — `ServeStats::shards` books each
//!    shard's applied events (zone `z` lives on shard `z % shards`) and
//!    the on-worker propose time of every concurrent flush.
//!
//! Wall-clock speedup is *not* visible here: it needs real cores (the
//! `serve_mc` bench and the `scale-mc` CI job gate it at width >= 4).
//! What this example demonstrates is that width is free of decision
//! risk — you can turn it up without changing a single assignment.
//!
//! ```bash
//! cargo run --release --example sharded_serving
//! ```

use dve::assign::StuckPolicy;
use dve::sim::{run_stream, ServeConfig, SimSetup};
use dve::world::DynamicsBatch;

fn main() {
    let setup = SimSetup {
        base_seed: 11,
        runs: 1,
        ..Default::default() // 20s-80z-1000c-500cp
    };
    let batch = DynamicsBatch::paper_default();
    let epochs = 6;
    let shards = 4;

    let run = |shards: usize| {
        let config = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        run_stream(&setup, 0, &batch, epochs, StuckPolicy::BestEffort, config)
            .expect("default tier solves")
    };
    let single = run(1);
    let sharded = run(shards);

    println!(
        "{:<7}{:>9}{:>9}{:>10}{:>9}{:>9}   identical?",
        "epoch", "clients", "pQoS", "migrated", "repairs", "flushes"
    );
    for (s, w) in single.records.iter().zip(&sharded.records) {
        println!(
            "{:<7}{:>9}{:>9.4}{:>10}{:>9}{:>9}   {}",
            w.epoch,
            w.clients,
            w.pqos,
            w.zones_migrated,
            w.full_repairs,
            w.flushes,
            if s == w { "yes" } else { "NO" },
        );
        assert_eq!(s, w, "sharded serving must be decision-identical");
    }

    let books = &sharded.stats.shards;
    println!("\nper-shard books (zone z -> shard z % {shards}):");
    for (i, book) in books.iter().enumerate() {
        println!(
            "  shard {i}: {:>6} events, propose p99 {:>8.1} us ({} concurrent flushes)",
            book.events,
            book.propose.quantile_upper_ns(0.99) as f64 / 1e3,
            book.propose.count(),
        );
    }
    let routed: u64 = books.iter().map(|b| b.events).sum();
    assert_eq!(routed, sharded.stats.events, "every event routed");

    println!(
        "\nlifetime: {} events, {} flushes, {} zones migrated, {} full repairs \
         -- identical across widths by construction",
        sharded.stats.events,
        sharded.stats.flushes,
        sharded.stats.zones_migrated,
        sharded.stats.full_repairs,
    );
}
