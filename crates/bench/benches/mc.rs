//! The multi-core solve acceptance run (`scale-mc` CI gate).
//!
//! Claim checked in release mode **on a multi-core runner** (the run
//! degrades to a report-only SKIP on one core, so single-core boxes and
//! tier-1 CI stay green): the sharded execution engine — parallel
//! `CostMatrix` count fold, sharded ordering derivation, zone-sharded
//! local-search sweep, sharded violator scan inside GreC — solves the
//! production [`LARGE_TIER`] (`100s-1000z-50000c`) pipeline
//! (matrix build + GreZ + 2-sweep local search + GreC) at least
//! [`GATE_SPEEDUP`]× faster than the 1-thread solve of the **same
//! instance, timed in the same process**, while committing
//! **bit-identical decisions** to the 1-thread run (asserted before
//! timing anything).
//!
//! Both sides of the ratio are minima over [`RUNS`] solves of one
//! instance by one harness, so the gate measures the engine's scaling
//! and nothing else: no record from another box, and no minimum over
//! other replication instances, enters it. Each width also prints the
//! minimum time of each phase ([`PHASES`]), so a ratio that falls short
//! names the phase that does not scale.
//!
//! Width is taken from `DVE_THREADS` / the machine: the `scale-mc` job
//! runs with the variable unpinned. Results, with the solve-time curve
//! over [`CURVE_WIDTHS`] and its phase split, land in `BENCH_mc.json`
//! keyed by `threads`.
//!
//! ```bash
//! cargo bench -p dve-bench --bench mc
//! ```

use dve_assign::{
    evaluate, grec, grez_with, improve_iap_with_threads, Assignment, CostMatrix, StuckPolicy,
};
use dve_sim::experiments::scaling::LARGE_TIER;
use dve_sim::experiments::table1::GREZ_LS_GREC;
use dve_sim::{build_replication, SimSetup, TopologySpec};
use dve_topology::HierarchicalConfig;
use dve_world::ScenarioConfig;
use std::time::Instant;

/// Timed repetitions per width; the gated statistic is the minimum.
const RUNS: usize = 5;

/// Local-search sweeps of the measured pipeline (matches Table 1's
/// `GreZ-LS-GreC` row and the million-tier solve).
const LS_SWEEPS: usize = 2;

/// The headline width must solve this many times faster than width 1.
const GATE_SPEEDUP: f64 = 2.0;

/// Widths the solve-time curve samples (capped at the machine's worker
/// count).
const CURVE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The solve's phases, in order; [`solve_once`] times each one.
const PHASES: [&str; 4] = ["matrix", "GreZ", "LS", "GreC"];

/// Pins `DVE_THREADS` so *every* internal width read (GreC's violator
/// scan has no explicit-width entry point) matches the measurement's
/// nominal width. Bench `main` is single-threaded, so the mutation is
/// race-free (same discipline as the million bench).
fn pin_width(threads: usize) {
    std::env::set_var("DVE_THREADS", threads.to_string());
}

/// One solve of the span Table 1's `GreZ-LS-GreC` row times
/// (`grez_ls_grec_stats`): matrix build + GreZ + LS + GreC, **no
/// evaluation**. Returns the solved assignment and each phase's
/// wall-clock in ms, in [`PHASES`] order; the caller pins the width
/// first.
fn solve_once(inst: &dve_assign::CapInstance, threads: usize) -> (Assignment, [f64; 4]) {
    let mut phase_ms = [0.0; 4];
    let mut lap = Instant::now();
    let mut split = |phase: usize| {
        phase_ms[phase] = lap.elapsed().as_secs_f64() * 1e3;
        lap = Instant::now();
    };
    let matrix = CostMatrix::build_threads(inst, threads);
    split(0);
    let mut targets = grez_with(inst, &matrix, StuckPolicy::BestEffort).expect("tier solves");
    split(1);
    improve_iap_with_threads(inst, &matrix, &mut targets, LS_SWEEPS, threads);
    split(2);
    let contact_of_client = grec(inst, &targets);
    split(3);
    let assignment = Assignment {
        target_of_zone: targets,
        contact_of_client,
    };
    (assignment, phase_ms)
}

/// Minimum wall-clock over [`RUNS`] solves at an explicit width, ms,
/// with the minimum of each phase over the same runs.
fn min_solve_ms(inst: &dve_assign::CapInstance, threads: usize) -> (f64, [f64; 4]) {
    pin_width(threads);
    let mut phase_min = [f64::INFINITY; 4];
    let mut total_min = f64::INFINITY;
    for _ in 0..RUNS {
        let t = Instant::now();
        let phase_ms = std::hint::black_box(solve_once(inst, threads)).1;
        total_min = total_min.min(t.elapsed().as_secs_f64() * 1e3);
        for (min, ms) in phase_min.iter_mut().zip(phase_ms) {
            *min = min.min(ms);
        }
    }
    (total_min, phase_min)
}

fn main() {
    let threads = dve_par::default_threads();
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);

    // Correctness first: the sharded engine must commit the 1-thread
    // run's decisions bit for bit before its speed means anything.
    pin_width(1);
    let (serial, _) = solve_once(&rep.instance, 1);
    pin_width(threads);
    let (wide, _) = solve_once(&rep.instance, threads);
    assert_eq!(
        serial.target_of_zone, wide.target_of_zone,
        "sharded solve diverged from the 1-thread target decisions"
    );
    assert_eq!(
        serial.contact_of_client, wide.contact_of_client,
        "sharded GreC diverged from the 1-thread contact decisions"
    );
    let serial_pqos = evaluate(&rep.instance, &serial).pqos;

    let (serial_ms, serial_phases) = min_solve_ms(&rep.instance, 1);
    let (wide_ms, wide_phases) = min_solve_ms(&rep.instance, threads);

    // The solve-time curve: every width the machine can host, reusing
    // the already-timed width-1 and headline measurements.
    let mut curve: Vec<(usize, f64, [f64; 4])> = Vec::new();
    for &w in CURVE_WIDTHS.iter().filter(|&&w| w <= threads.max(1)) {
        let (ms, phases) = if w == 1 {
            (serial_ms, serial_phases)
        } else if w == threads {
            (wide_ms, wide_phases)
        } else {
            min_solve_ms(&rep.instance, w)
        };
        let split = PHASES
            .iter()
            .zip(phases)
            .map(|(name, p)| format!("{name} {p:.1}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!("mc/curve: {w} thread(s): min {ms:.1} ms (phase minima, ms: {split})");
        curve.push((w, ms, phases));
    }
    let curve_json = format!(
        "[{}]",
        curve
            .iter()
            .map(|(w, ms, phases)| {
                let split = PHASES
                    .iter()
                    .zip(phases)
                    .map(|(name, p)| format!("\"{}_min_ms\": {p:.3}", name.to_lowercase()))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{{\"threads\": {w}, \"solve_min_ms\": {ms:.3}, {split}}}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    );

    pin_width(threads); // restore: the record stamps the nominal width
    let speedup = serial_ms / wide_ms;
    println!(
        "mc/acceptance: {GREZ_LS_GREC} on {LARGE_TIER} at {threads} thread(s): \
         min {wide_ms:.1} ms (1-thread {serial_ms:.1} ms -> {speedup:.2}x)"
    );

    dve_bench::write_bench_record(
        "mc",
        &[
            ("tier", format!("\"{LARGE_TIER}\"")),
            ("algorithm", format!("\"{GREZ_LS_GREC}\"")),
            ("runs", format!("{RUNS}")),
            ("solve_min_ms", format!("{wide_ms:.3}")),
            ("solve_min_ms_1thread", format!("{serial_ms:.3}")),
            ("speedup_in_process", format!("{speedup:.3}")),
            ("curve", curve_json),
            ("pqos", format!("{serial_pqos:.6}")),
        ],
        &[],
    );

    if threads <= 1 {
        println!(
            "mc: SKIP (one worker available — the >={GATE_SPEEDUP}x multi-core gate needs a \
             wider runner; measurements recorded in BENCH_mc.json)"
        );
        return;
    }
    assert!(
        speedup >= GATE_SPEEDUP,
        "multi-core solve {wide_ms:.1} ms is only {speedup:.2}x the 1-thread solve of the \
         same instance ({serial_ms:.1} ms; gate: >= {GATE_SPEEDUP}x at {threads} threads)"
    );
    println!("mc: PASS ({speedup:.2}x over the 1-thread solve of the same instance)");
}
