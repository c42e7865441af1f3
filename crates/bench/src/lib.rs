//! # dve-bench — benchmark harness
//!
//! Two halves:
//!
//! * **Criterion benches** (`benches/`) — wall-clock timing of every
//!   algorithm and substrate, one bench file per paper table/figure plus
//!   substrate micro-benches and the ablation comparison.
//! * **Regenerator binaries** (`src/bin/`) — `table1`, `fig4_cdf`,
//!   `fig5_correlation`, `fig6_distribution`, `table3_dynamics`,
//!   `table4_error`, `ablations`, `run_all`: each re-runs the paper's
//!   experiment and prints the corresponding rows/series.
//!
//! Benches and `table1`/`run_all` write their `BENCH_*.json` records
//! through [`write_bench_record`]; the `bench_diff` binary gates a
//! re-measured record against its committed copy ([`diff`]).
//!
//! Binaries accept `--runs N`, `--exact-runs N`, `--seed S`, `--quick`
//! (3 runs / 1 exact run) and `--large` (append the beyond-paper
//! 50 000-client scale where supported).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;

use diff::{metric, Metric, Rule};
use dve_assign::CapInstance;
use dve_sim::experiments::table1::Table1;
use dve_sim::experiments::ExpOptions;
use dve_sim::{build_replication, SimSetup, TopologySpec};
use dve_topology::HierarchicalConfig;
use dve_world::ScenarioConfig;
use rand::rngs::StdRng;

/// Builds a CAP instance for a scenario notation on the paper's default
/// 500-node hierarchical topology, deterministically from `seed`.
pub fn instance_for(notation: &str, seed: u64) -> (CapInstance, StdRng) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(notation).expect("valid notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        base_seed: seed,
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    (rep.instance, rep.rng)
}

/// Builds a CAP instance on a scaled-down topology (5 AS x 10 routers)
/// for micro-benchmarks that should not be dominated by APSP time.
pub fn small_instance_for(notation: &str, seed: u64) -> (CapInstance, StdRng) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(notation).expect("valid notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 10,
            ..Default::default()
        }),
        base_seed: seed,
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    (rep.instance, rep.rng)
}

/// Writes a bench record to `BENCH_<name>.json` at the workspace root:
/// the only writer of bench records, so each record has one path. It
/// stamps the experiment, the worker width and the peak RSS, so records
/// are compared like for like (`bench_diff` refuses mismatched
/// `threads`). `fields` are appended verbatim as JSON members (pass
/// numbers pre-formatted). `metrics` become the record's `metrics`
/// object: the numbers `bench_diff` gates, each with its rule (see
/// [`diff`]); a record without metrics gates nothing. Returns the path
/// written.
pub fn write_bench_record(name: &str, fields: &[(&str, String)], metrics: &[Metric]) -> String {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"experiment\": \"{name}\",\n"));
    json.push_str(&format!("  \"threads\": {},\n", dve_par::default_threads()));
    json.push_str(&format!(
        "  \"peak_rss_bytes\": {}",
        dve_sim::peak_rss_bytes().unwrap_or(0)
    ));
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    if !metrics.is_empty() {
        let members: Vec<String> = metrics
            .iter()
            .map(|m| format!("    {}", m.to_json()))
            .collect();
        json.push_str(&format!(
            ",\n  \"metrics\": {{\n{}\n  }}",
            members.join(",\n")
        ));
    }
    json.push_str("\n}\n");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    path
}

/// The gate of one Table 1 pair's minimum solve time over its
/// replications (timing noise is additive, so minima are the stable
/// signal): at most +25% over the committed minimum, held to a 0.05 ms
/// floor (sub-floor timings are scheduler noise). A pair with fewer
/// than 2 replications (the exact solver in CI) gets +50%: one sample
/// of a long solve amortises noise, but has no minimum-of-N protection.
pub fn table1_exec_rule(replications: u64) -> Rule {
    Rule::Lower {
        rel: if replications < 2 { 0.5 } else { 0.25 },
        floor: 0.05,
    }
}

/// Writes `BENCH_table1.json` from a Table 1 run (the `table1 --json`
/// and `run_all` binaries), gating every (configuration, algorithm)
/// pair's minimum solve time as `<config>/<algorithm>/exec_ms` under
/// [`table1_exec_rule`]. Returns the path written.
pub fn write_table1_record(result: &Table1, options: &ExpOptions) -> String {
    let mut metrics = Vec::new();
    for row in result.rows.iter().chain(&result.extended) {
        for stats in row.heuristics.iter().chain(&row.exact) {
            metrics.push(metric(
                format!("{}/{}/exec_ms", row.config, stats.algorithm),
                stats.exec_ms.min,
                table1_exec_rule(stats.exec_ms.n),
            ));
        }
    }
    write_bench_record(
        "table1",
        &[
            ("runs", format!("{}", options.runs)),
            ("exact_runs", format!("{}", options.exact_runs)),
            ("base_seed", format!("{}", options.base_seed)),
            ("rows", result.to_json()),
        ],
        &metrics,
    )
}

/// Parses the shared experiment flags out of `args`, returning the
/// options and the arguments it did not consume (binary-specific flags
/// like `table1`'s `--json`).
pub fn parse_options(args: &[String]) -> (ExpOptions, Vec<String>) {
    let mut options = ExpOptions::default();
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => options = ExpOptions::quick(),
            "--large" => options.large_scale = true,
            "--runs" => {
                let v = iter.next().expect("--runs needs a value");
                options.runs = v.parse().expect("--runs must be an integer");
            }
            "--exact-runs" => {
                let v = iter.next().expect("--exact-runs needs a value");
                options.exact_runs = v.parse().expect("--exact-runs must be an integer");
            }
            "--seed" => {
                let v = iter.next().expect("--seed needs a value");
                options.base_seed = v.parse().expect("--seed must be an integer");
            }
            other => rest.push(other.to_string()),
        }
    }
    (options, rest)
}

/// Parses the shared binary CLI flags into experiment options, rejecting
/// anything a binary did not consume itself.
pub fn options_from_args() -> ExpOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, rest) = parse_options(&args);
    if let Some(other) = rest.first() {
        eprintln!(
            "unknown flag {other}; supported: --quick --large --runs N --exact-runs N --seed S"
        );
        std::process::exit(2);
    }
    options
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_requested_shapes() {
        let (inst, _) = small_instance_for("5s-15z-100c-100cp", 1);
        assert_eq!(inst.num_servers(), 5);
        assert_eq!(inst.num_zones(), 15);
        assert_eq!(inst.num_clients(), 100);
    }

    #[test]
    fn builders_are_deterministic() {
        let (a, _) = small_instance_for("5s-15z-100c-100cp", 9);
        let (b, _) = small_instance_for("5s-15z-100c-100cp", 9);
        assert_eq!(a.obs_cs(0, 0), b.obs_cs(0, 0));
        assert_eq!(a.zone_of(42), b.zone_of(42));
    }
}
