//! Gates a re-measured bench record against its committed copy — CI's
//! bench-regression gate.
//!
//! ```bash
//! DVE_THREADS=1 cargo bench -p dve-bench --bench burst   # rewrites BENCH_burst.json
//! cargo run --release -p dve-bench --bin bench_diff -- BENCH_burst.json
//! ```
//!
//! The one argument is a record path, relative to the current directory
//! inside the checkout. The fresh record is the working-tree file; the
//! baseline is the same path at `HEAD` (`git show HEAD:./<path>`). Every
//! number gated, and its rule, is declared by the record itself in its
//! `metrics` object (see `dve_bench::diff`).
//!
//! Exit status: 0 when the gate passes; 1 when a metric regressed or is
//! missing, or the tier changed; 2 on a usage error, an unreadable or
//! malformed record, or records of different experiments; 3 when the
//! records were measured at different widths.

use dve_bench::diff::{compare, exit_code, parse, DiffError, DiffError::Invalid, Json, Report};
use std::process::Command;

fn load(text: &str, source: &str) -> Result<Json, DiffError> {
    parse(text).map_err(|e| Invalid(format!("{source}: {e}")))
}

/// The committed record at `spec` (`HEAD:./<path>`).
fn committed(spec: &str) -> Result<String, DiffError> {
    let out = Command::new("git")
        .args(["show", spec])
        .output()
        .map_err(|e| Invalid(format!("cannot run git: {e}")))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(Invalid(format!(
            "no committed record at {spec}: {}",
            stderr.trim()
        )));
    }
    String::from_utf8(out.stdout).map_err(|_| Invalid(format!("{spec} is not UTF-8")))
}

fn diff(args: &[String]) -> Result<Report, DiffError> {
    let [path] = args else {
        return Err(Invalid("usage: bench_diff <BENCH_x.json>".to_string()));
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| Invalid(format!("cannot read {path}: {e}")))?;
    let spec = format!("HEAD:./{path}");
    let fresh = load(&text, path)?;
    let baseline = load(&committed(&spec)?, &spec)?;
    println!("bench_diff: {path} vs {spec}");
    compare(&fresh, &baseline)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = diff(&args);
    match &outcome {
        Ok(report) => print!("{report}"),
        Err(e) => eprintln!("bench_diff: {e}"),
    }
    std::process::exit(exit_code(&outcome));
}
