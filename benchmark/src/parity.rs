//! `--parity`: shows the benchmark measures the shipped pipeline. Ten
//! seconds of steady-50k traffic (the schedule of a run's first round,
//! made 10 s long) are served twice — once by the benchmark's own
//! pipeline, once by a real `dvecap serve` process over TCP — and the
//! two session summaries must agree on arrivals, shed counts and
//! population, with pQoS within 0.01.

use crate::pipeline::{self, RING_SLOTS};
use crate::setup;
use crate::workload::{self, round_seed};
use dve_world::IngestRing;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

const REPLAY_S: f64 = 10.0;
const PQOS_TOLERANCE: f64 = 0.01;

/// The numbers both sides report.
#[derive(Debug, PartialEq)]
struct Summary {
    arrivals: u64,
    ring_shed: u64,
    buffer_shed: u64,
    leaves_shed: u64,
    population: u64,
    pqos: f64,
}

/// The whitespace-separated token after the first `key` in `text`,
/// stripped of parentheses.
fn after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = &text[text.find(key)? + key.len()..];
    rest.split_whitespace()
        .next()
        .map(|t| t.trim_matches(|c| c == '(' || c == ')'))
}

/// Parses `dvecap serve`'s session summary.
fn parse_summary(text: &str) -> Option<Summary> {
    let num = |key: &str| after(text, key)?.parse::<u64>().ok();
    Some(Summary {
        arrivals: num("arrivals")?,
        ring_shed: num("shed: ring")?,
        buffer_shed: num("+ buffer")?,
        leaves_shed: num("leaves shed:")?,
        population: num("population")?,
        pqos: after(text, "pQoS")?.parse().ok()?,
    })
}

pub fn parity(dvecap: &Path, seed: u64) -> ExitCode {
    match check(dvecap, seed) {
        Ok(()) => {
            println!("parity: PASS");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("parity: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn check(dvecap: &Path, seed: u64) -> Result<(), String> {
    let w = workload::by_name("steady-50k").expect("steady-50k exists");
    let booted = setup::setup(&w);
    let schedule = workload::generate(&w, &booted.view(), round_seed(seed, 0), REPLAY_S);

    let ring = IngestRing::with_capacity(RING_SLOTS);
    let pushed = AtomicU64::new(0);
    let s = pipeline::serve(
        booted.engine,
        booted.stream,
        &ring,
        &pushed,
        &schedule,
        None,
    )
    .map_err(|e| format!("benchmark session: {e}"))?;
    let ours = Summary {
        arrivals: s.report.arrivals,
        ring_shed: s.ring_shed,
        buffer_shed: s.report.shed,
        leaves_shed: s.report.shed_leaves,
        population: s.sink.engine.num_clients() as u64,
        pqos: s.sink.engine.metrics().pqos,
    };
    drop(s);
    println!("parity: benchmark {ours:?}");

    let mut child = Command::new(dvecap)
        .args(["serve", w.notation, "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", dvecap.display()))?;
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr: Option<SocketAddr> = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|line| after(&line, "listening on")?.parse().ok());
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("dvecap never printed its listening address".into());
    };
    let start = Instant::now() + Duration::from_millis(100);
    let sent = pipeline::generate_load(addr, &schedule, start);
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child.wait().map_err(|e| e.to_string())?;
    sent.map_err(|e| format!("replay to dvecap: {e}"))?;
    if !status.success() {
        return Err(format!("dvecap exited with {status}"));
    }
    let text = rest.join("\n");
    let theirs = parse_summary(&text).ok_or(format!("unparsable dvecap summary:\n{text}"))?;
    println!("parity: dvecap    {theirs:?}");

    let same_counts = Summary {
        pqos: ours.pqos,
        ..theirs
    } == ours;
    if !same_counts {
        return Err("arrivals, shed counts or population differ".into());
    }
    if (ours.pqos - theirs.pqos).abs() > PQOS_TOLERANCE {
        return Err(format!(
            "pQoS {} vs {} differs by more than {PQOS_TOLERANCE}",
            ours.pqos, theirs.pqos
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_dvecap_session_summary() {
        let text = "serve: connection closed; session summary\n  \
            arrivals 99873  committed 99800  flushes 95000  dropped 0  server events 0\n  \
            shed: ring 3 + buffer 4 (leaves shed: 0)  coalesced 7  ineffective 2\n  \
            arrival-to-commit: mean 0.100 ms  p99 1.000 ms  p99.9 2.000 ms (99873 samples)\n  \
            population 50012  pQoS 0.887  feasible true";
        assert_eq!(
            parse_summary(text),
            Some(Summary {
                arrivals: 99873,
                ring_shed: 3,
                buffer_shed: 4,
                leaves_shed: 0,
                population: 50012,
                pqos: 0.887,
            })
        );
        assert_eq!(
            after("serve: listening on 127.0.0.1:4242 (x)", "listening on"),
            Some("127.0.0.1:4242")
        );
    }
}
