//! `dvecap` — command-line front end to the dve-cap workspace.
//!
//! ```text
//! dvecap topology  [--kind hierarchical|transit-stub|waxman|backbone] [--seed S]
//! dvecap solve     <notation> [--algo NAME] [--delay-bound MS] [--correlation D]
//!                  [--error E] [--seed S]
//! dvecap bounds    <notation> [--seed S]
//! dvecap experiment <table1|fig4|fig5|fig6|table3|table4|ablation|repair|topologies>
//!                  [--runs N] [--exact-runs N] [--seed S] [--quick]
//! dvecap serve     <notation> [--port P] [--ring N] [--bound N] [--max-batch N]
//!                  [--max-staleness-ms F] [--shards N] [--connections N] [--seed S]
//! ```
//!
//! `serve` boots the streaming engine on the scenario, listens on
//! 127.0.0.1 for connections speaking the `dve_world::wire`
//! length-prefixed protocol (specified in `docs/WIRE.md`), and drains
//! decoded events through the ingest ring into the engine — the
//! line-rate front end. `--connections N` (default 1) accepts N
//! sequential connections against the same serve loop: each producer's
//! events land in the same ring and engine, and the session summary
//! covers the whole sequence. `--shards N` (default 1) sets the
//! engine's `dve_sim::ServeConfig::shards`: above 1 the engine serves
//! on a persistent N-worker team with decisions bit-identical to one
//! shard, and the session summary adds per-shard event books,
//! concurrent-flush propose latencies, and the max/min shard-event
//! imbalance. `--max-batch` and `--max-staleness-ms` mirror the fields
//! of `dve_sim::IngestConfig` and default to its `Default` values (1024
//! arrivals, 1 ms), which is the single source of truth for the flush
//! policy: a window commits at `--max-batch` arrivals, when the ring
//! runs dry, or `--max-staleness-ms` after the window's first event was
//! popped off the ring. That clock starts at the pop, not at enqueue,
//! so under a backlog each window grows up to `--max-batch` arrivals.
//! Every flag value is checked before the engine boots: a
//! value that does not parse, a zero count (`--ring`, `--bound`,
//! `--max-batch`, `--shards`, `--connections`) or a staleness that is
//! negative or not finite is rejected with exit code 2 and a message
//! naming the flag. On the wire,
//! clients are addressed by stable id (the engine's discipline: the
//! initial population is `0..k`); joiner ids are not echoed back in
//! this version, so a connection can address only the initial
//! population. The session summary (arrival-to-commit latency
//! quantiles, shed counters, final pQoS) prints when the producer hangs
//! up.

use dve::assign::{
    evaluate, iap_lower_bound, iap_lp_bound, iap_total_cost, solve, CapAlgorithm, CapInstance,
    StuckPolicy,
};
use dve::sim::experiments::{
    ablation, fig4, fig5, fig6, repair_study, table1, table3, table4, topologies, ExpOptions,
};
use dve::sim::{
    build_replication, run_ingest_stream, IngestConfig, ServeConfig, ServeEngine, SimSetup,
    TopologySpec,
};
use dve::topology::{
    hierarchical, transit_stub, us_backbone, waxman_incremental, HierarchicalConfig, Topology,
    TopologyKind, TopologyStats, TransitStubConfig, WaxmanParams,
};
use dve::world::wire::FrameReader;
use dve::world::{ErrorModel, IngestRing, ScenarioConfig, WorldEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::Read;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dvecap topology [--kind hierarchical|transit-stub|waxman|backbone] [--seed S]\n  \
         dvecap solve <notation> [--algo NAME] [--delay-bound MS] [--correlation D] [--error E] [--seed S]\n  \
         dvecap bounds <notation> [--seed S]\n  \
         dvecap experiment <table1|fig4|fig5|fig6|table3|table4|ablation|repair|topologies> [--runs N] [--quick]\n  \
         dvecap serve <notation> [--port P] [--ring N] [--bound N] [--max-batch N] [--max-staleness-ms F] [--shards N] [--connections N] [--seed S]"
    );
    ExitCode::from(2)
}

/// Splits argv into positional arguments and `--flag value` pairs
/// (`--quick` is a bare flag).
fn parse(args: &[String]) -> Option<(Vec<String>, HashMap<String, String>)> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name == "quick" {
                flags.insert("quick".to_string(), "1".to_string());
            } else {
                let value = it.next()?;
                flags.insert(name.to_string(), value.clone());
            }
        } else {
            positional.push(a.clone());
        }
    }
    Some((positional, flags))
}

/// The value of `--name`, or `default` when absent. A value that does
/// not parse is rejected: the process exits 2 naming the flag.
fn flag_parse<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    match flags.get(name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: rejected --{name} {v:?}: not a valid value");
            std::process::exit(2)
        }),
        None => default,
    }
}

/// [`flag_parse`] for a count that must be at least 1: zero is
/// rejected with a message naming the flag (`None`).
fn flag_count(flags: &HashMap<String, String>, name: &str, default: usize) -> Option<usize> {
    let n = flag_parse(flags, name, default);
    if n == 0 {
        eprintln!("error: rejected --{name} 0: must be >= 1");
        return None;
    }
    Some(n)
}

fn cmd_topology(flags: &HashMap<String, String>) -> ExitCode {
    let seed: u64 = flag_parse(flags, "seed", 42);
    let kind = flags
        .get("kind")
        .map(String::as_str)
        .unwrap_or("hierarchical");
    let mut rng = StdRng::seed_from_u64(seed);
    let topo: Topology = match kind {
        "hierarchical" => hierarchical(&HierarchicalConfig::default(), &mut rng),
        "transit-stub" => transit_stub(&TransitStubConfig::default(), &mut rng),
        "waxman" => dve::topology::Topology {
            graph: waxman_incremental(500, 2, 1000.0, WaxmanParams::default(), &mut rng),
            as_of_node: vec![0; 500],
            kind: TopologyKind::FlatWaxman,
        },
        "backbone" => us_backbone(),
        other => {
            eprintln!("unknown topology kind {other:?}");
            return usage();
        }
    };
    let stats = TopologyStats::compute(&topo.graph);
    println!("kind:                 {kind}");
    println!("nodes:                {}", stats.nodes);
    println!("edges:                {}", stats.edges);
    println!("AS domains:           {}", topo.as_count());
    println!(
        "degree (min/mean/max): {} / {:.2} / {}",
        stats.min_degree, stats.mean_degree, stats.max_degree
    );
    println!("clustering:           {:.3}", stats.clustering);
    println!("top-decile degree:    {:.3}", stats.top_decile_degree_share);
    println!(
        "distance (mean/diam):  {:.1} / {:.1} (plane units)",
        stats.mean_distance, stats.diameter
    );
    ExitCode::SUCCESS
}

fn build_instance(
    notation: &str,
    flags: &HashMap<String, String>,
) -> Option<(CapInstance, StdRng)> {
    let mut scenario = match ScenarioConfig::from_notation(notation) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return None;
        }
    };
    scenario.correlation = flag_parse(flags, "correlation", scenario.correlation);
    let setup = SimSetup {
        scenario,
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        delay_bound_ms: flag_parse(flags, "delay-bound", 250.0),
        error_factor: flag_parse(flags, "error", 1.0),
        base_seed: flag_parse(flags, "seed", 42),
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    Some((rep.instance, rep.rng))
}

fn cmd_solve(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(notation) = positional.first() else {
        return usage();
    };
    let Some((inst, mut rng)) = build_instance(notation, flags) else {
        return ExitCode::from(2);
    };
    let wanted = flags.get("algo").map(String::as_str);
    let algos: Vec<CapAlgorithm> = match wanted {
        None => CapAlgorithm::HEURISTICS.to_vec(),
        Some(name) => {
            let all: Vec<CapAlgorithm> = CapAlgorithm::HEURISTICS
                .into_iter()
                .chain([CapAlgorithm::Exact])
                .collect();
            match all
                .into_iter()
                .find(|a| a.name().eq_ignore_ascii_case(name) || name == "exact")
            {
                Some(a) => vec![a],
                None => {
                    eprintln!("unknown algorithm {name:?}; use RanZ-VirC, RanZ-GreC, GreZ-VirC, GreZ-GreC or exact");
                    return ExitCode::from(2);
                }
            }
        }
    };
    println!(
        "{:<12}{:>8}{:>8}{:>12}{:>12}",
        "algorithm", "pQoS", "R", "forwarded", "feasible"
    );
    for algo in algos {
        match solve(&inst, algo, StuckPolicy::BestEffort, &mut rng) {
            Ok(a) => {
                let m = evaluate(&inst, &a);
                println!(
                    "{:<12}{:>8.3}{:>8.3}{:>12}{:>12}",
                    algo.name(),
                    m.pqos,
                    m.utilization,
                    m.forwarded_clients,
                    a.is_feasible(&inst)
                );
            }
            Err(e) => println!("{:<12}failed: {e}", algo.name()),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_bounds(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(notation) = positional.first() else {
        return usage();
    };
    let Some((inst, _)) = build_instance(notation, flags) else {
        return ExitCode::from(2);
    };
    let grez_cost = dve::assign::grez(&inst, StuckPolicy::BestEffort)
        .map(|t| iap_total_cost(&inst, &t))
        .unwrap_or(f64::NAN);
    println!("IAP cost bounds for {notation} (clients without QoS after phase 1):");
    println!("  capacity-free bound: {:.1}", iap_lower_bound(&inst));
    match iap_lp_bound(&inst) {
        Some(b) => println!("  LP relaxation bound: {b:.1}"),
        None => println!("  LP relaxation bound: infeasible"),
    }
    println!("  GreZ heuristic:      {grez_cost:.1}");
    ExitCode::SUCCESS
}

fn cmd_experiment(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(which) = positional.first() else {
        return usage();
    };
    let mut options = ExpOptions::default();
    if flags.contains_key("quick") {
        options = ExpOptions::quick();
    }
    options.runs = flag_parse(flags, "runs", options.runs);
    options.exact_runs = flag_parse(flags, "exact-runs", options.exact_runs);
    options.base_seed = flag_parse(flags, "seed", options.base_seed);
    let rendered = match which.as_str() {
        "table1" => table1::run(&options, 2).render(),
        "fig4" => fig4::run(&options).render(),
        "fig5" => fig5::run(&options).render(),
        "fig6" => fig6::run(&options).render(),
        "table3" => table3::run(&options).render(),
        "table4" => table4::run(&options).render(),
        "ablation" => ablation::run(&options).render(),
        "repair" => repair_study::run(&options).render(),
        "topologies" => topologies::run(&options).render(),
        other => {
            eprintln!("unknown experiment {other:?}");
            return usage();
        }
    };
    println!("{rendered}");
    ExitCode::SUCCESS
}

/// Socket reader: pulls bytes off one connection, decodes frames, and
/// feeds the ring. Leaves and server faults use the blocking push (they
/// must never shed); joins and moves shed under pressure, counted on
/// the ring. Closes the ring when the producer hangs up or framing is
/// lost, so the consumer loop drains and stops.
fn read_connection(mut conn: impl Read, ring: &IngestRing) {
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                eprintln!("serve: read error: {e}");
                break;
            }
        };
        frames.feed(&buf[..n]);
        loop {
            match frames.next_event() {
                Ok(Some(event)) => {
                    let must_deliver = matches!(
                        event,
                        WorldEvent::Leave { .. }
                            | WorldEvent::ServerDown { .. }
                            | WorldEvent::ServerUp { .. }
                    );
                    let refused = if must_deliver {
                        ring.push_blocking(event).is_err()
                    } else {
                        ring.push_or_shed(event).is_err()
                    };
                    if refused {
                        // Only a closed ring refuses here: shut down.
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("serve: wire error: {e}; dropping connection");
                    return;
                }
            }
        }
    }
    if frames.pending_bytes() > 0 {
        eprintln!(
            "serve: connection closed mid-frame ({} bytes pending)",
            frames.pending_bytes()
        );
    }
}

fn cmd_serve(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(notation) = positional.first() else {
        return usage();
    };
    let mut scenario = match ScenarioConfig::from_notation(notation) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    scenario.correlation = flag_parse(flags, "correlation", scenario.correlation);
    let setup = SimSetup {
        scenario,
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        delay_bound_ms: flag_parse(flags, "delay-bound", 250.0),
        error_factor: flag_parse(flags, "error", 1.0),
        base_seed: flag_parse(flags, "seed", 42),
        runs: 1,
        ..Default::default()
    };
    let port: u16 = flag_parse(flags, "port", 0);
    // Flag names and defaults mirror `IngestConfig` — the one source of
    // truth for the flush policy (`--max-batch` also sizes the engine's
    // own micro-batch so the two layers flush in step).
    let ingest_defaults = IngestConfig::default();
    let staleness_ms: f64 = flag_parse(
        flags,
        "max-staleness-ms",
        ingest_defaults.max_staleness.as_secs_f64() * 1e3,
    );
    let Ok(max_staleness) = Duration::try_from_secs_f64(staleness_ms / 1e3) else {
        eprintln!("error: rejected --max-staleness-ms {staleness_ms}: must be finite and >= 0");
        return ExitCode::from(2);
    };
    let Some(ring_slots) = flag_count(flags, "ring", 4_096) else {
        return ExitCode::from(2);
    };
    let Some(bound) = flag_count(flags, "bound", 1_024) else {
        return ExitCode::from(2);
    };
    let Some(max_batch) = flag_count(flags, "max-batch", ingest_defaults.max_batch) else {
        return ExitCode::from(2);
    };
    let Some(shards) = flag_count(flags, "shards", 1) else {
        return ExitCode::from(2);
    };
    let Some(connections) = flag_count(flags, "connections", 1) else {
        return ExitCode::from(2);
    };

    let rep = build_replication(&setup, 0);
    let world = rep.world;
    let serve_config = ServeConfig {
        max_batch,
        shards,
        ..Default::default()
    };
    let mut engine = match ServeEngine::new(
        rep.instance,
        &world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        serve_config,
        rep.rng,
    ) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("serve: cannot boot the engine: {e}");
            return ExitCode::FAILURE;
        }
    };

    let listener = match TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot bind 127.0.0.1:{port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("serve: listening on {addr} ({notation})"),
        Err(e) => eprintln!("serve: local_addr: {e}"),
    }

    // The reader thread owns the listener and serves `connections`
    // producers back to back against the one ring; the engine-side pull
    // loop below never sees the connection boundaries. The ring closes
    // only after the last producer hangs up.
    let ring = Arc::new(IngestRing::with_capacity(ring_slots));
    let reader_ring = Arc::clone(&ring);
    let reader = std::thread::spawn(move || {
        for n in 1..=connections {
            let (conn, peer) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    break;
                }
            };
            println!("serve: client {n}/{connections} connected from {peer}");
            read_connection(conn, &reader_ring);
            println!("serve: client {n}/{connections} disconnected");
        }
        reader_ring.close();
    });

    let ingest_config = IngestConfig {
        max_batch,
        max_staleness,
    };
    let report = run_ingest_stream(&mut engine, &ring, &world, bound, ingest_config);
    if reader.join().is_err() {
        eprintln!("serve: reader thread panicked");
    }

    let stats = engine.stats();
    println!("serve: connection closed; session summary");
    println!(
        "  arrivals {}  committed {}  flushes {}  dropped {}  server events {}",
        report.arrivals, report.committed, report.flushes, report.dropped, report.server_events
    );
    println!(
        "  shed: ring {} + buffer {} (leaves shed: {})  coalesced {}  ineffective {}",
        ring.shed_events(),
        report.shed,
        report.shed_leaves,
        report.coalesced,
        report.ineffective
    );
    println!(
        "  arrival-to-commit: mean {:.3} ms  p99 {:.3} ms  p99.9 {:.3} ms ({} samples)",
        stats.latency.mean_ns() / 1e6,
        stats.latency.quantile_upper_ns(0.99) as f64 / 1e6,
        stats.latency.quantile_upper_ns(0.999) as f64 / 1e6,
        stats.latency.count()
    );
    println!(
        "  population {}  pQoS {:.3}  feasible {}",
        engine.num_clients(),
        engine.metrics().pqos,
        engine.is_feasible()
    );
    if !stats.shards.is_empty() {
        let ev_max = stats.shards.iter().map(|b| b.events).max().unwrap_or(0);
        let ev_min = stats.shards.iter().map(|b| b.events).min().unwrap_or(0);
        println!(
            "  shards: {}  event imbalance max {ev_max} / min {ev_min}",
            stats.shards.len()
        );
        for (shard, book) in stats.shards.iter().enumerate() {
            println!(
                "    shard {shard}: {} events  flush propose p99 {:.3} ms ({} samples)",
                book.events,
                book.propose.quantile_upper_ns(0.99) as f64 / 1e6,
                book.propose.count()
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((positional, flags)) = parse(&args) else {
        return usage();
    };
    let Some(command) = positional.first() else {
        return usage();
    };
    let rest = &positional[1..];
    match command.as_str() {
        "topology" => cmd_topology(&flags),
        "solve" => cmd_solve(rest, &flags),
        "bounds" => cmd_bounds(rest, &flags),
        "experiment" => cmd_experiment(rest, &flags),
        "serve" => cmd_serve(rest, &flags),
        _ => usage(),
    }
}
