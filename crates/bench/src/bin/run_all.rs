//! Regenerates every table and figure in one go and writes the rendered
//! outputs to `results/` (plus stdout), and the Table 1 record to
//! `BENCH_table1.json` at the workspace root. The EXPERIMENTS.md numbers
//! were produced by this binary.
//!
//! ```bash
//! cargo run --release -p dve-bench --bin run_all            # paper scale
//! cargo run --release -p dve-bench --bin run_all -- --quick # smoke test
//! ```

use dve_sim::experiments::{
    ablation, fig4, fig5, fig6, repair_study, table1, table3, table4, topologies,
};
use std::fs;
use std::path::Path;
use std::time::Instant;

fn emit(dir: &Path, name: &str, rendered: &str) {
    println!("{rendered}");
    let path = dir.join(format!("{name}.txt"));
    if let Err(e) = fs::write(&path, rendered) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    let options = dve_bench::options_from_args();
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
    }
    eprintln!(
        "run_all: {} runs, {} exact runs -> writing results/ ...",
        options.runs, options.exact_runs
    );

    let t = Instant::now();
    let table1_result = table1::run(&options, 2);
    emit(dir, "table1", &table1_result.render());
    // Machine-readable per-algorithm solve-time record, gated by
    // `bench_diff BENCH_table1.json` against its committed copy.
    let json_path = dve_bench::write_table1_record(&table1_result, &options);
    eprintln!("wrote {json_path}");
    eprintln!("table1 done in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    emit(dir, "fig4", &fig4::run(&options).render());
    eprintln!("fig4 done in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    emit(dir, "fig5", &fig5::run(&options).render());
    eprintln!("fig5 done in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    emit(dir, "fig6", &fig6::run(&options).render());
    eprintln!("fig6 done in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    emit(dir, "table3", &table3::run(&options).render());
    eprintln!("table3 done in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    emit(dir, "table4", &table4::run(&options).render());
    eprintln!("table4 done in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    emit(dir, "ablation", &ablation::run(&options).render());
    eprintln!("ablation done in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    emit(dir, "repair_study", &repair_study::run(&options).render());
    eprintln!("repair_study done in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    emit(dir, "topology_study", &topologies::run(&options).render());
    eprintln!("topology_study done in {:.1}s", t.elapsed().as_secs_f64());
}
