//! Regenerates Table 1: `pQoS (R)` for the four DVE configurations, all
//! heuristics plus the exact solver on the two small configurations.
//! `--json` additionally rewrites `BENCH_table1.json` at the workspace
//! root (the record `run_all` writes too), which `bench_diff` then
//! gates against its committed copy.
//!
//! ```bash
//! cargo run --release -p dve-bench --bin table1            # paper scale (50 runs)
//! cargo run --release -p dve-bench --bin table1 -- --quick # CI scale
//! cargo run --release -p dve-bench --bin table1 -- --quick --json
//! ```

use dve_sim::experiments::table1;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, rest) = dve_bench::parse_options(&args);
    let mut json = false;
    for arg in &rest {
        match arg.as_str() {
            "--json" => json = true,
            other => {
                eprintln!(
                    "unknown flag {other}; supported: --quick --large --runs N --exact-runs N \
                     --seed S --json"
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "table1: {} runs/config, {} exact runs (this can take a while at paper scale)",
        options.runs, options.exact_runs
    );
    let result = table1::run(&options, 2);
    println!("{}", result.render());
    if json {
        eprintln!(
            "wrote {}",
            dve_bench::write_table1_record(&result, &options)
        );
    }
}
