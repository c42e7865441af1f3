//! # dve-sim — simulation harness
//!
//! Reproduces the paper's simulation study end to end: seeded, replicated
//! experiments (the paper averages 50 runs), the DVE dynamics protocol of
//! Table 3, and one regenerator per table/figure.
//!
//! * [`SimSetup`] / [`TopologySpec`] — what to simulate;
//! * [`run_experiment`] — replicated, parallelised execution with
//!   per-algorithm aggregation ([`AlgoStats`]);
//! * [`run_dynamics`] — the Before/After/Executed protocol, on the
//!   delta path (instances carried across churn, not rebuilt);
//! * [`ServeEngine`] — the always-on streaming serving layer:
//!   per-event joins/leaves/moves batched into micro-batches, applied
//!   in place with a zone-scoped incremental repair and a per-event
//!   latency histogram. It is built in layers: the load books in
//!   stream units, the target layer (the paper's IAP: quality shifts,
//!   evacuation, failover), the contact layer (RAP: GreC's per-client
//!   rule with rescue certificates) and the invariant check;
//! * [`run_stream`], [`run_recovery_stream`], [`run_mobility_stream`] —
//!   the trace drivers that serve Table 3 churn, churn under a fault
//!   schedule, and avatar walks through the engine;
//! * [`run_ingest_stream`] / [`IngestStream`] — the line-rate ingest
//!   front end: drains a `dve_world::IngestRing` (fed in-process or by
//!   the `dvecap serve` wire protocol) straight into the engine's
//!   pending buffer by stable client id, behind a window bound that
//!   sheds Joins and Moves but never a Leave, and decides when the
//!   engine flushes; it carries ring-enqueue admission stamps so
//!   latency is arrival-to-commit end to end (the wire frames the ring
//!   speaks are specified in `docs/WIRE.md` at the repository root);
//! * [`experiments`] — Table 1, Fig. 4, Fig. 5, Fig. 6, Table 3, Table 4
//!   and the ablation study, each with a paper-style `render()`;
//! * [`stats`] — replication statistics (mean, std, CI95).
//!
//! ## Failure handling
//!
//! The serving layer survives server failure and recovery through the
//! same stream path that serves churn, with a small state machine per
//! server — **up → down → up** — driven by
//! [`ServeEngine::fail_server`] and [`ServeEngine::restore_server`]:
//!
//! * **Down** retires the server's capacity to zero on the carried
//!   instance, so every fit check in the repair pipeline (quality
//!   shifts, evacuation, GreC relays, even the full-repair fallback)
//!   excludes it with no special cases — then runs the *mass
//!   evacuation*: every hosted zone leaves largest-first for the
//!   cheapest survivor with room (or, degraded, the one with most
//!   headroom: an overloaded survivor beats a dead host), and every
//!   relay routed through the server is shed and counted.
//! * **Up** restores the nominal capacity and runs the *re-admission
//!   sweep*: the zone-scoped repair over all zones, pulling zones back
//!   onto the recovered capacity and draining survivors still
//!   overloaded from the degraded window. Neither direction ever
//!   escalates to the full repair or panics; an engine with every
//!   server down simply reports infeasible and keeps its books.
//! * **Degraded mode** is governed by [`DegradationPolicy`]: admission
//!   control sheds ([`AdmissionPolicy::Reject`]) or defers
//!   ([`AdmissionPolicy::Queue`]) joins whose target is over the
//!   headroom line, and a bounded ingest queue pushes back with
//!   [`ServeError::QueueFull`]. All decisions read only committed
//!   load books, so they are bit-identical across repeated runs and
//!   thread counts.
//! * [`run_recovery_stream`] replays a seeded
//!   [`FaultSchedule`](dve_world::FaultSchedule) under live churn and
//!   reports the recovery trajectory ([`RecoveryReport`]): pre-failure
//!   baseline, trough, and events-to-recover — the numbers the
//!   `recover` bench gates in CI.
//!
//! ```no_run
//! use dve_sim::experiments::{table1, ExpOptions};
//!
//! let result = table1::run(&ExpOptions::default(), 2);
//! println!("{}", result.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamics;
pub mod experiments;
mod ids;
mod ingest;
mod repair;
mod runner;
mod serve;
mod setup;
pub mod stats;

pub use dynamics::{
    carry_assignment, run_dynamics, run_dynamics_once, CarryPolicy, DynamicsRecord,
};
pub use ingest::{run_ingest_stream, IngestConfig, IngestReport, IngestStream};
pub use repair::{
    repair_assignment, repair_assignment_with, repair_targets_with, zone_migrations, RepairOutcome,
};
pub use runner::{
    aggregate, run_experiment, run_mobility_stream, run_recovery_stream, run_replication,
    run_stream, AlgoStats, QualityEstimator, RecoveryReport, RunRecord, StreamEpochRecord,
    StreamReport,
};
pub use serve::{
    AdmissionPolicy, ClientId, DegradationPolicy, FailoverReport, FlushReport, InvariantViolation,
    RestoreReport, ServeConfig, ServeEngine, ServeError, ServeSink, ServeStats, StreamEvent,
};
pub use setup::{build_replication, DelayMode, Replication, SimSetup, TopologySpec};
pub use stats::{peak_rss_bytes, Accumulator, LatencyHistogram, Summary};
