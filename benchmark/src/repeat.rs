//! `--repeat N`: runs each workload N times, each in a fresh process
//! with seeds `seed, seed+1, ...`, and summarises every end-to-end
//! metric across the runs, flagging spreads wider than the metric's
//! bound in `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use crate::workload::Workload;
use dve_bench::diff::{parse, Json};
use std::process::{Command, ExitCode, Stdio};

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit, bound)` of each end-to-end metric in `BENCHMARK.json`.
fn end_to_end() -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
    let doc = parse(&text).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok((
                field("name")?.as_str().unwrap_or_default().to_string(),
                field("unit")?.as_str().unwrap_or_default().to_string(),
                field("bound")?.as_num().unwrap_or(0.0),
            ))
        })
        .collect()
}

/// Runs one workload in a child process; returns its result line's
/// metric values.
fn run_child(w: &Workload, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} seed {seed} exited with {}", w.name, out.status));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = parse(last).map_err(|e| e.to_string())?;
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| "result line without metrics".to_string())
}

pub fn repeat(n: usize, workloads: &[Workload], seed: u64, seconds: f64) -> ExitCode {
    let metrics = match end_to_end() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("repeat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in workloads {
        let mut runs = Vec::with_capacity(n);
        for i in 0..n as u64 {
            match run_child(w, seed + i, seconds) {
                Ok(m) => runs.push(m),
                Err(e) => {
                    eprintln!("repeat: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "{:<12} {:<16} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "workload", "metric", "median", "q1", "q3", "min", "max", "spread", "bound"
        );
        for (name, unit, bound) in &metrics {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|m| {
                    m.get(name)
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_num)
                })
                .collect();
            if values.len() != n {
                eprintln!("repeat: {} did not report {name} on every run", w.name);
                ok = false;
                continue;
            }
            let mid = median(&values);
            let (q1, q3) = quartiles(&values);
            let spread = (q3 - q1) / mid;
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let wide = spread > *bound;
            println!(
                "{:<12} {:<16} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>8.4} {:>6} {unit}{}",
                w.name,
                name,
                mid,
                q1,
                q3,
                min,
                max,
                spread,
                bound,
                if wide { "  WIDE" } else { "" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
