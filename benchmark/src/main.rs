//! The repository benchmark: open-loop socket-to-commit serving through
//! the `dvecap serve` pipeline, and the paper's solvers, timed end to
//! end and (with `--trace 1`) layer by layer. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//!     --repeat [N] [--workload <name>] [--seed N] [--seconds S]
//!     --parity [--dvecap PATH] [--seed N]
//! ```
//!
//! A run prints `<workload> <metric> <value> <unit>` lines and, last, one
//! JSON result line; it exits non-zero when a correctness check fails.

mod parity;
mod pipeline;
mod repeat;
mod run;
mod setup;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: dve-benchmark --workload <{}> [--seed N] [--seconds S] [--trace [0|1]]\n       \
         dve-benchmark --repeat [N] [--workload <name>] [--seed N] [--seconds S]\n       \
         dve-benchmark --parity [--dvecap PATH] [--seed N]",
        names.join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs. `--parity` takes no value; a bare `--trace`
/// means `--trace 1` and a bare `--repeat` means `--repeat 5`.
fn parse(args: &[String]) -> Option<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let name = arg.strip_prefix("--")?;
        let value = match name {
            "parity" => String::new(),
            "trace" | "repeat" => match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => v.clone(),
                None if name == "trace" => "1".to_string(),
                None => "5".to_string(),
            },
            "workload" | "seed" | "seconds" | "dvecap" => it.next()?.clone(),
            _ => return None,
        };
        flags.insert(name.to_string(), value);
    }
    Some(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(flags) = parse(&args) else {
        return usage();
    };
    let seed: u64 = match flags.get("seed").map_or(Ok(1), |s| s.parse()) {
        Ok(s) => s,
        Err(_) => return usage(),
    };
    let seconds: f64 = match flags.get("seconds").map_or(Ok(30.0), |s| s.parse()) {
        Ok(s) if s >= 1.0 => s,
        _ => return usage(),
    };
    let workload = match flags.get("workload").map(|n| workload::by_name(n)) {
        Some(None) => return usage(),
        Some(Some(w)) => Some(w),
        None => None,
    };
    if flags.contains_key("parity") {
        let dvecap = flags
            .get("dvecap")
            .map_or_else(|| PathBuf::from("target/release/dvecap"), PathBuf::from);
        return parity::parity(&dvecap, seed);
    }
    if let Some(n) = flags.get("repeat") {
        let Ok(n) = n.parse::<usize>() else {
            return usage();
        };
        if n < 2 {
            return usage();
        }
        let workloads = match workload {
            Some(w) => vec![w],
            None => workload::WORKLOADS.to_vec(),
        };
        return repeat::repeat(n, &workloads, seed, seconds);
    }
    let Some(workload) = workload else {
        return usage();
    };
    let trace = match flags.get("trace").map_or("0", String::as_str) {
        "0" => false,
        "1" => true,
        _ => return usage(),
    };

    let outcome = match run::run(&workload, seed, seconds, trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let name = workload.name;
    for m in outcome.metrics.iter().chain(&outcome.info) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    if !outcome.layers.is_empty() {
        println!("{name} layer busy_s self_s count");
        for (layer, busy, own, count) in &outcome.layers {
            println!(
                "{name} {layer} {:.6} {:.6} {count}",
                *busy as f64 / 1e9,
                *own as f64 / 1e9
            );
        }
    }
    if let Some(path) = &outcome.trace_file {
        println!("{name} trace {}", path.display());
    }
    for failure in &outcome.failures {
        eprintln!("{name}: check failed: {failure}");
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("{name}: a metric is not a finite number");
    }
    let correct = outcome.failures.is_empty() && finite;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
