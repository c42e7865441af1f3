//! # dve-milp — exact-solver substrate (lp_solve replacement)
//!
//! The paper compares its heuristics against optimal solutions "obtained
//! by the branch-and-bound algorithm implemented in the MILP solver
//! lp_solve". That solver is not available here, so this crate implements
//! the required machinery from scratch:
//!
//! * [`LinearProgram`] / [`Constraint`] — sparse LP models,
//! * [`solve_lp`] — dense two-phase primal simplex,
//! * [`BinaryMilp`] / [`solve_milp`] — best-first branch-and-bound over
//!   0/1 variables with LP-relaxation bounds and warm starts,
//! * [`GapInstance`] — the Generalised Assignment Problem form shared by
//!   both phases of the client assignment problem, with an exact solver,
//!   a regret greedy, and a brute-force test oracle.
//!
//! ```
//! use dve_milp::{BbConfig, GapInstance, GapOutcome};
//!
//! let gap = GapInstance {
//!     cost: vec![vec![4.0, 1.0], vec![2.0, 5.0]],
//!     demand: vec![vec![1.0, 1.0], vec![1.0, 1.0]],
//!     capacity: vec![1.0, 1.0],
//! };
//! match gap.solve_exact(&BbConfig::default()).unwrap() {
//!     GapOutcome::Optimal(sol) => assert_eq!(sol.agent_of_task, vec![1, 0]),
//!     other => panic!("{other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod gap;
mod model;
mod simplex;

pub use branch_bound::{solve_milp, BbConfig, BinaryMilp, MilpOutcome, MilpSolution};
pub use gap::{GapInstance, GapOutcome, GapSolution};
pub use model::{Constraint, LinearProgram, ModelError, Relation};
pub use simplex::{solve_lp, LpError, LpOutcome, LpSolution};
