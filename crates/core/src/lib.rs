//! # dve-assign — the paper's contribution: client-to-server assignment
//!
//! Implements the Client Assignment Problem (CAP) of Ta & Zhou (IPDPS
//! 2006) and every algorithm the paper evaluates:
//!
//! * [`CapInstance`] — the problem snapshot: observed/true delays,
//!   zone membership, the bandwidth model's `R^T`, `R^C`, `R_z`, server
//!   capacities, and the delay bound `D`;
//! * IAP phase ([`ranz`], [`grez`], [`exact_iap`]) — zones → servers;
//! * RAP phase ([`virc`], [`grec`], [`exact_rap`]) — clients → contacts;
//! * [`solve`] / [`CapAlgorithm`] — the named two-phase combinations
//!   (RanZ-VirC, RanZ-GreC, GreZ-VirC, GreZ-GreC, and the exact
//!   "lp_solve" reference);
//! * [`evaluate`] / [`Metrics`] — pQoS, utilisation, delay CDFs;
//! * extensions: [`improve_iap`] (local search) and [`anneal_iap`]
//!   (simulated annealing), used by the ablation benches.
//!
//! ## Performance architecture
//!
//! Every IAP algorithm is driven by the cost `C^I_ij` (eq. 3), and at
//! production scale the cost of *evaluating* that cost dominates solve
//! time. The crate therefore separates cost evaluation from search:
//!
//! * [`CostMatrix`] precomputes the dense m×n violator-count table —
//!   plus the per-zone server orderings and regrets GreZ consumes, each
//!   ordering one counting sort over the zone's small-integer counts —
//!   in one parallel O(k·m) pass over `dve_par::par_map`. Counts are small
//!   integers stored exactly, so matrix reads are bit-identical to the
//!   naive [`CapInstance::iap_cost`] scan (which remains the verified
//!   ground truth).
//! * [`IncrementalEval`] maintains per-server loads and the total cost
//!   (eq. 4) of a candidate assignment under shift/swap moves with O(1)
//!   delta evaluation — a local-search sweep is O(n·m + n²) instead of
//!   O(k·m + n²·k/n), and an annealing step is O(1) instead of O(k).
//! * Consumers share one matrix per solve: [`grez_with`],
//!   [`improve_iap_with`], [`anneal_iap_with`], [`exact_iap_with`] and
//!   [`iap_gap_with`] take a prebuilt matrix; the plain-named variants
//!   build one internally.
//! * [`CapInstance::build`] materialises the k×m delay table in
//!   parallel, so instance construction scales with cores too.
//! * Every hot path past the row fill is **sharded** on the `dve-par`
//!   execution seam: the cost fold and the ordering/regret derivations
//!   run as per-worker exact accumulators merged in worker-index order,
//!   the local-search sweep as parallel zone-shard proposals with a
//!   serial canonical commit, and the violator scans as concatenated
//!   shard hit-lists. All of it is **bit-identical to the serial path
//!   at any thread count** (property-tested across
//!   `DVE_THREADS ∈ {1, 2, 8}` via the explicit `*_threads` variants).
//!
//! The pre-refactor implementations survive in [`mod@reference`] solely for
//! equivalence tests and the `scale` bench's speedup measurement.
//!
//! ```
//! use dve_assign::{solve, CapAlgorithm, CapInstance, StuckPolicy, evaluate};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 2 servers, 1 zone, 2 clients; client 0 is far from the zone's best
//! // host but can be rescued through the other server.
//! let inst = CapInstance::from_raw(
//!     2, 1, vec![0, 0],
//!     vec![300.0, 100.0, 120.0, 400.0],
//!     vec![0.0, 60.0, 60.0, 0.0],
//!     vec![1000.0, 1000.0],
//!     vec![10_000.0, 10_000.0],
//!     250.0,
//! );
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = solve(&inst, CapAlgorithm::GreZGreC, StuckPolicy::Strict, &mut rng).unwrap();
//! let m = evaluate(&inst, &a);
//! assert_eq!(m.pqos, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod assignment;
mod cost;
mod iap;
mod instance;
mod joint;
mod local_search;
mod lp_round;
mod metrics;
mod rap;
#[doc(hidden)]
pub mod reference;
#[cfg(test)]
mod test_support;
mod two_phase;

pub use anneal::{anneal_iap, anneal_iap_with, AnnealConfig, AnnealOutcome};
pub use assignment::{Assignment, Violation};
pub use cost::{CostMatrix, IncrementalEval};
pub use iap::{
    exact_iap, exact_iap_with, grez, grez_with, iap_gap, iap_gap_with, iap_total_cost, ranz,
    IapError, StuckPolicy,
};
pub use instance::{
    CapInstance, DelayLayout, StreamDeparture, DEFAULT_DELAY_BOUND_MS, DEFAULT_PROVISIONING,
};
pub use joint::{exact_joint_cap, joint_milp, JointError, JointOutcome};
pub use local_search::{improve_iap, improve_iap_with, improve_iap_with_threads, LocalSearchStats};
pub use lp_round::{iap_lower_bound, iap_lp_bound, lp_round_iap};
pub use metrics::{cdf_at, evaluate, fig4_grid, Metrics};
pub use rap::{
    exact_rap, exact_rap_with, grec, grec_with, rap_gap, rap_gap_with, rap_total_cost,
    violating_clients, violating_clients_threads, virc, RapError, RelayTable,
};
pub use two_phase::{
    solve, solve_iap, solve_rap, solve_with, CapAlgorithm, IapMethod, RapMethod, SolveError,
};

// Re-export the solver config type used by the exact methods so callers
// don't need a direct dve-milp dependency.
pub use dve_milp::BbConfig;
