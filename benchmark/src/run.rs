//! One workload run: rounds of set-up, a solve and open-loop serving,
//! the correctness checks, and the metrics the run reports.

use crate::pipeline::{self, Session, RING_SLOTS};
use crate::setup;
use crate::stats::{median, percentile, window_percentiles};
use crate::trace::Tracer;
use crate::workload::{self, Workload};
use dve_assign::{evaluate, Assignment, CostMatrix};
use dve_sim::{peak_rss_bytes, LatencyHistogram};
use dve_world::IngestRing;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Leading seconds of each round's traffic left out of the latency
/// percentiles (at most a quarter of the round).
pub const WARMUP_S: f64 = 1.0;

/// Share of the consumer's busy time a traced run's top-level spans
/// must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Latency percentiles are taken per 100 ms of due times. On
/// `burst-50k` (a burst every 200 ms, warm-up a whole number of bursts)
/// that is one window per burst.
const WINDOW_NS: u64 = 100_000_000;

/// A run reports the 10th percentile, across windows, of the per-window
/// percentile. A change that slows at least nine windows in ten moves
/// it; one that slows fewer (intermittent stalls, rare full repairs)
/// does not. The machine's other tenants slow stretches of a run, and
/// the lower quartile or the median across windows followed them past
/// the bound (README.md).
const ACROSS_WINDOWS: f64 = 0.10;

/// Lowest pQoS a stand-alone solve may reach.
const MIN_SOLVE_PQOS: f64 = 0.7;

/// A reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The end-to-end metrics (untraced runs) or the per-layer metrics
    /// (traced runs): the ones the result line carries.
    pub metrics: Vec<Metric>,
    /// Printed, not part of the result line.
    pub info: Vec<Metric>,
    /// Frames sent.
    pub attempted: u64,
    /// Frames shed, dropped or refused anywhere in the pipeline.
    pub failed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Traced runs: per span name `(busy ns, self ns, count)`.
    pub layers: Vec<(&'static str, u64, u64, u64)>,
    pub trace_file: Option<PathBuf>,
}

/// Everything a run gathers over its rounds.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    /// Each round's solve time.
    solve_s: Vec<f64>,
    /// The first round's solved assignment; every later round's must
    /// equal it.
    solved: Option<Assignment>,
    solve_pqos: f64,
    /// Final pQoS of each round's engine.
    pqos: Vec<f64>,
    /// `(window, latency ns)` of every event committed in a whole
    /// post-warm-up window, windows in order.
    windows: Vec<(u64, u64)>,
    /// Generator lateness of every frame, ns.
    late: Vec<u64>,
    committed: u64,
    flushes: u64,
    full_repairs: u64,
    zones_migrated: u64,
    touched_zones: u64,
    failovers: u64,
    ring_shed: u64,
    /// Ingest counters.
    arrivals: u64,
    ingest_flushes: u64,
    coalesced: u64,
    /// Reader counters (decode and push times are traced runs only).
    decoded: u64,
    decode_ns: u64,
    push_ns: u64,
    commit: LatencyHistogram,
    /// Consumer busy time, and the ring depth at each commit stamp
    /// (traced runs only).
    busy_ns: u64,
    depth: Vec<u64>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `workload` once: `seconds` of traffic split evenly over its
/// rounds.
pub fn run(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let round_s = seconds / workload.rounds as f64;
    let round_ns = (round_s * 1e9) as u64;
    let warmup_ns = (WARMUP_S.min(round_s / 4.0) * 1e9) as u64;
    let mut tracer = trace.then(|| Tracer::new(Instant::now()));
    let mut tally = Tally::default();
    let mut out = Outcome::default();
    let mut rss_mb = 0.0;

    for round in 0..workload.rounds {
        let (booted, setup_s) = match tracer.as_mut() {
            Some(t) => setup::traced_setup(workload, t, round == 0)?,
            None => {
                let started = Instant::now();
                let booted = setup::setup(workload);
                (booted, started.elapsed().as_secs_f64())
            }
        };
        tally.setup_s.push(setup_s);
        let (assignment, solve_s) = setup::solve(&booted.engine);
        tally.solve_s.push(solve_s);
        match &tally.solved {
            Some(first) if *first != assignment => out.failures.push(format!(
                "round {round}: the solve gave a different assignment than round 0"
            )),
            Some(_) => {}
            None => {
                let inst = booted.engine.instance();
                tally.solve_pqos = evaluate(inst, &assignment).pqos;
                if !assignment.is_feasible(inst) {
                    out.failures
                        .push("the solved assignment is infeasible".into());
                }
                if tally.solve_pqos < MIN_SOLVE_PQOS {
                    out.failures.push(format!(
                        "solved pQoS {:.4} is below {MIN_SOLVE_PQOS}",
                        tally.solve_pqos
                    ));
                }
                tally.solved = Some(assignment);
            }
        }

        let schedule = workload::generate(
            workload,
            &booted.view(),
            workload::round_seed(seed, round),
            round_s,
        );
        let initial = booted.engine.num_clients() as u64;
        let ring = IngestRing::with_capacity(RING_SLOTS);
        let pushed = AtomicU64::new(0);
        let mut session = pipeline::serve(
            booted.engine,
            booted.stream,
            &ring,
            &pushed,
            &schedule,
            tracer.take(),
        )
        .map_err(|e| format!("round {round}: serving session failed: {e}"))?;
        if round == 0 {
            // One boot and one serving phase, as a `dvecap serve` process
            // has; later rounds would add what the allocator kept from
            // the stacks before them.
            rss_mb = peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        }
        for failure in check(&session, initial, schedule.len() as u64) {
            out.failures.push(format!("round {round}: {failure}"));
        }

        out.attempted += session.gen.sent;
        out.failed += session.ring_shed
            + session.report.shed
            + session.report.dropped
            + session.report.refused_joins;
        for (&due, commit) in schedule.due_ns.iter().zip(&session.commit_ns) {
            let (Some(commit), true) = (commit, due >= warmup_ns) else {
                continue;
            };
            let window = (due - warmup_ns) / WINDOW_NS;
            if warmup_ns + (window + 1) * WINDOW_NS <= round_ns {
                let key = ((round as u64) << 32) | window;
                tally.windows.push((key, commit.saturating_sub(due)));
            }
        }
        tally.late.extend_from_slice(&session.gen.late_ns);
        let engine = &session.sink.engine;
        let stats = engine.stats();
        tally.pqos.push(engine.metrics().pqos);
        tally.committed += session.report.committed;
        tally.flushes += stats.flushes;
        tally.full_repairs += stats.full_repairs;
        tally.zones_migrated += stats.zones_migrated;
        tally.failovers += stats.failovers;
        tally.commit.merge(&stats.latency);
        tally.touched_zones += session.sink.touched_zones;
        tally.ring_shed += session.ring_shed;
        tally.arrivals += session.report.arrivals;
        tally.ingest_flushes += session.report.flushes;
        tally.coalesced += session.report.coalesced;
        tally.decoded += session.reader.decoded;
        tally.decode_ns += session.reader.decode_ns;
        tally.push_ns += session.reader.push_ns;
        tally.busy_ns += session.consumer_busy_ns;
        tracer = session.sink.tracer.take();
        if tracer.is_some() {
            tally
                .depth
                .extend(session.sink.stamps.iter().map(|s| u64::from(s.depth)));
        }
    }

    let mut latency: Vec<u64> = tally.windows.iter().map(|&(_, l)| l).collect();
    latency.sort_unstable();
    if latency.is_empty() {
        out.failures
            .push("no whole latency window after the warm-up: the rounds are too short".into());
    }
    tally.late.sort_unstable();
    let q = |v: &[u64], p: f64| percentile(v, p).unwrap_or(0);
    let windowed = |p: f64| ms(q(&window_percentiles(&tally.windows, p), ACROSS_WINDOWS));
    let end_to_end = vec![
        metric("latency_p50_ms", windowed(0.50), "ms"),
        metric("latency_p90_ms", windowed(0.90), "ms"),
        metric("pqos", median(&tally.pqos), "fraction"),
        metric("setup_s", median(&tally.setup_s), "s"),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ];
    let windows = tally.windows.chunk_by(|a, b| a.0 == b.0).count();
    out.info = vec![
        metric("latency_all_p50_ms", ms(q(&latency, 0.50)), "ms"),
        metric("latency_all_p99_ms", ms(q(&latency, 0.99)), "ms"),
        metric("latency_all_p999_ms", ms(q(&latency, 0.999)), "ms"),
        metric(
            "latency_all_max_ms",
            ms(latency.last().copied().unwrap_or(0)),
            "ms",
        ),
        metric("latency_samples", latency.len() as f64, "count"),
        metric("latency_windows", windows as f64, "count"),
        metric("gen.late_p50_ms", ms(q(&tally.late, 0.50)), "ms"),
        metric("solve_s", median(&tally.solve_s), "s"),
        metric("frames_sent", out.attempted as f64, "count"),
        metric("committed", tally.committed as f64, "count"),
        metric("flushes", tally.flushes as f64, "count"),
        metric("full_repairs", tally.full_repairs as f64, "count"),
        metric("failovers", tally.failovers as f64, "count"),
        metric("ring_shed", tally.ring_shed as f64, "count"),
        metric("solve_pqos", tally.solve_pqos, "fraction"),
        metric("rounds", workload.rounds as f64, "count"),
        metric("threads", dve_par::default_threads() as f64, "count"),
    ];

    let Some(t) = &tracer else {
        out.metrics = end_to_end;
        return Ok(out);
    };
    // A traced run reports per-layer metrics; its own end-to-end values
    // are printed so the tracing overhead shows.
    for m in end_to_end {
        out.info.push(Metric {
            name: format!("traced.{}", m.name),
            ..m
        });
    }
    let layers = t.layers();
    out.metrics = layer_metrics(t, &layers, &tally);
    let busy = |name: &str| layers.iter().find(|l| l.0 == name).map_or(0, |l| l.1);
    let coverage =
        (busy("ingest.pump") + busy("ingest.finish")) as f64 / tally.busy_ns.max(1) as f64;
    if coverage < MIN_COVERAGE {
        out.failures.push(format!(
            "spans cover {coverage:.4} of the consumer's busy time (< {MIN_COVERAGE})"
        ));
    }
    out.metrics
        .push(metric("trace.coverage", coverage, "fraction"));
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("{}.trace.jsonl", workload.name));
    t.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.trace_file = Some(path);
    out.layers = layers;
    Ok(out)
}

/// The per-layer metrics of a traced run. Set-up steps are the median
/// over rounds; serving totals are summed over the whole run.
fn layer_metrics(
    t: &Tracer,
    layers: &[(&'static str, u64, u64, u64)],
    tally: &Tally,
) -> Vec<Metric> {
    let row = |name: &str| layers.iter().find(|l| l.0 == name).copied();
    let busy_s = |name: &str| row(name).map_or(0, |l| l.1) as f64 / 1e9;
    let self_s = |name: &str| row(name).map_or(0, |l| l.2) as f64 / 1e9;
    let median_s = |name: &str| {
        let ns: Vec<f64> = t
            .sorted_ns(name)
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        if ns.is_empty() {
            0.0
        } else {
            median(&ns)
        }
    };
    let per = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let flush = t.sorted_ns("engine.flush_now");
    let q_us = |p: f64| percentile(&flush, p).unwrap_or(0) as f64 / 1e3;
    let (push_ns, pushes) = row("engine.push_admitted").map_or((0, 0), |l| (l.1, l.3));
    let mut depth = tally.depth.clone();
    depth.sort_unstable();
    vec![
        metric(
            "gen.late_p99_ms",
            ms(percentile(&tally.late, 0.99).unwrap_or(0)),
            "ms",
        ),
        metric(
            "wire.decode_ns_per_frame",
            per(tally.decode_ns as f64, tally.decoded),
            "ns",
        ),
        metric(
            "ring.push_ns_per_event",
            per(tally.push_ns as f64, tally.decoded),
            "ns",
        ),
        metric(
            "ring.depth_p99",
            percentile(&depth, 0.99).unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "ingest.busy_s",
            busy_s("ingest.pump") + busy_s("ingest.finish"),
            "s",
        ),
        metric(
            "ingest.self_s",
            self_s("ingest.pump") + self_s("ingest.finish"),
            "s",
        ),
        metric(
            "ingest.events_per_flush",
            per(tally.arrivals as f64, tally.ingest_flushes),
            "count",
        ),
        metric("ingest.coalesced", tally.coalesced as f64, "count"),
        metric("ingest.new_s", median_s("ingest.new"), "s"),
        metric(
            "engine.push_ns_per_event",
            per(push_ns as f64, pushes),
            "ns",
        ),
        metric("engine.flush_p50_us", q_us(0.50), "us"),
        metric("engine.flush_p99_us", q_us(0.99), "us"),
        metric("engine.flushes", tally.flushes as f64, "count"),
        metric("engine.flush_busy_s", busy_s("engine.flush_now"), "s"),
        metric(
            "engine.touched_zones_per_flush",
            per(tally.touched_zones as f64, tally.flushes),
            "count",
        ),
        metric("engine.full_repairs", tally.full_repairs as f64, "count"),
        metric(
            "engine.zones_migrated",
            tally.zones_migrated as f64,
            "count",
        ),
        metric("engine.boot_s", median_s("engine.boot"), "s"),
        metric(
            "engine.commit_p99_ms",
            ms(tally.commit.quantile_upper_ns(0.99)),
            "ms",
        ),
        metric("assign.build_s", median_s("assign.build"), "s"),
        metric("assign.matrix_s", median_s("assign.matrix"), "s"),
        metric("assign.grez_s", median_s("assign.grez"), "s"),
        metric("assign.grec_s", median_s("assign.grec"), "s"),
        metric("topology.gen_s", median_s("topology.gen"), "s"),
        metric("world.gen_s", median_s("world.gen"), "s"),
    ]
}

/// The correctness checks on one serving session; returns what failed.
fn check(s: &Session, initial: u64, sent: u64) -> Vec<String> {
    let engine = &s.sink.engine;
    let mut failures = Vec::new();
    let mut fail = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    fail(
        engine.matrix() == &CostMatrix::build(engine.instance()),
        "the engine's carried cost matrix differs from a fresh build".into(),
    );
    fail(
        s.report.shed_leaves == 0,
        format!("{} leaves were shed", s.report.shed_leaves),
    );
    fail(
        s.report.dropped == 0,
        format!("{} events were dropped as invalid", s.report.dropped),
    );
    let pushed = s.reader.pushed_sched.len() as u64;
    fail(
        s.gen.sent == sent && s.reader.decoded == sent && pushed + s.ring_shed == sent,
        format!(
            "frames sent {} / decoded {} / ring pushed {} + shed {} disagree (schedule {sent})",
            s.gen.sent, s.reader.decoded, pushed, s.ring_shed
        ),
    );
    fail(
        s.reader.error.is_none(),
        format!("reader: {}", s.reader.error.as_deref().unwrap_or("")),
    );
    fail(
        s.report.arrivals == pushed,
        format!(
            "consumer popped {} of {pushed} pushed events",
            s.report.arrivals
        ),
    );
    let expect = initial + s.sink.joins - s.sink.leaves;
    fail(
        engine.num_clients() as u64 == expect,
        format!(
            "population {} != initial {initial} + joins {} - leaves {}",
            engine.num_clients(),
            s.sink.joins,
            s.sink.leaves
        ),
    );
    let uncommitted = s
        .reader
        .pushed_sched
        .iter()
        .filter(|&&i| s.commit_ns[i as usize].is_none())
        .count();
    fail(
        uncommitted == 0,
        format!("{uncommitted} pushed events have no commit stamp"),
    );
    failures
}
