//! Initial Assignment Problem (IAP) algorithms: assign zones to servers,
//! determining every client's *target* server (Section 3.1 of the paper).
//!
//! * [`ranz`] — **RanZ**: zones in decreasing population order, each to a
//!   random server with sufficient capacity (delay-oblivious baseline);
//! * [`grez`] — **GreZ**: regret-based greedy on the cost `C^I_ij` (eq. 3),
//!   the number of zone-`j` clients without QoS on server `i`;
//! * [`exact_iap`] — optimal solution of Definition 2.2 via the
//!   branch-and-bound MILP substrate (the paper's lp_solve role).
//!
//! Note on the regret `rho_j`: the paper's Fig. 2 literally reads
//! `rho_j = max_{s != i_j} mu_sj - mu_{i_j j}` which is (second-best -
//! best) <= 0 and would invert the ordering; following the cited
//! Romeijn–Morales greedy we use `rho_j = mu_best - mu_second >= 0` and
//! process zones in decreasing `rho` order ("most to lose" first).

use crate::cost::CostMatrix;
use crate::instance::CapInstance;
use dve_milp::{BbConfig, GapInstance, GapOutcome, LpError};
use rand::Rng;

/// What to do when a greedy step finds no server with enough capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StuckPolicy {
    /// Fail with [`IapError::NoFeasibleServer`].
    #[default]
    Strict,
    /// Assign to the server with the most remaining capacity and carry on
    /// (the resulting assignment will fail capacity validation, but every
    /// zone has a target — what a live DVE would need).
    BestEffort,
}

/// Errors from the IAP solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum IapError {
    /// A zone could not be placed within capacities (Strict policy).
    NoFeasibleServer {
        /// The zone that could not be placed.
        zone: usize,
    },
    /// The exact formulation is infeasible.
    Infeasible,
    /// The exact solver hit its limits before finding any solution.
    SolverLimit,
    /// LP substrate failure.
    Lp(LpError),
}

impl std::fmt::Display for IapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IapError::NoFeasibleServer { zone } => {
                write!(f, "no server has capacity for zone {zone}")
            }
            IapError::Infeasible => write!(f, "IAP is infeasible"),
            IapError::SolverLimit => write!(f, "exact IAP solver hit limits with no solution"),
            IapError::Lp(e) => write!(f, "LP error: {e}"),
        }
    }
}

impl std::error::Error for IapError {}

/// Picks a fallback server for a zone of load `demand` (bits/s).
///
/// Prefers a server that can actually absorb the zone — the *best fit*:
/// the smallest slack still ≥ `demand`, so large holes stay available
/// for later zones. When no server can absorb it (the usual case when a
/// greedy falls through its whole candidate list), degrades to the
/// server with the most remaining capacity, minimising the overload.
/// Ties break on the lower server index, so the fallback is
/// deterministic.
pub(crate) fn best_effort_server(loads: &[f64], inst: &CapInstance, demand: f64) -> usize {
    let mut fit: Option<(f64, usize)> = None; // (slack, server), slack >= demand
    let mut widest = (f64::NEG_INFINITY, 0usize);
    for (s, &load) in loads.iter().enumerate() {
        let slack = inst.capacity(s) - load;
        if slack + 1e-9 >= demand && fit.is_none_or(|(best, _)| slack < best) {
            fit = Some((slack, s));
        }
        if slack > widest.0 {
            widest = (slack, s);
        }
    }
    fit.map_or(widest.1, |(_, s)| s)
}

/// **RanZ** — random assignment of zones.
///
/// Repeats until all zones are assigned: take the unassigned zone with the
/// most clients, give it to a uniformly random server whose remaining
/// capacity fits the zone's load `R_z`.
pub fn ranz<R: Rng + ?Sized>(
    inst: &CapInstance,
    policy: StuckPolicy,
    rng: &mut R,
) -> Result<Vec<usize>, IapError> {
    let m = inst.num_servers();
    let mut order: Vec<usize> = (0..inst.num_zones()).collect();
    // Largest population first; stable tie-break on zone index.
    order.sort_by_key(|&z| std::cmp::Reverse(inst.clients_in_zone(z).len()));
    let mut target = vec![usize::MAX; inst.num_zones()];
    let mut loads = vec![0.0; m];
    let mut candidates = Vec::with_capacity(m);
    for z in order {
        let demand = inst.zone_bps(z);
        candidates.clear();
        candidates.extend((0..m).filter(|&s| loads[s] + demand <= inst.capacity(s) + 1e-9));
        let s = match candidates.as_slice() {
            [] => match policy {
                StuckPolicy::Strict => return Err(IapError::NoFeasibleServer { zone: z }),
                StuckPolicy::BestEffort => best_effort_server(&loads, inst, demand),
            },
            c => c[rng.gen_range(0..c.len())],
        };
        target[z] = s;
        loads[s] += demand;
    }
    Ok(target)
}

/// **GreZ** — greedy assignment of zones (Fig. 2 of the paper).
///
/// For every zone, rank servers by desirability `mu_ij = -C^I_ij`; process
/// zones in decreasing regret order, assigning each to its most desirable
/// server with sufficient remaining capacity.
///
/// Builds a fresh [`CostMatrix`]; callers that already hold one (the
/// two-phase driver, the exact solver's warm start) use [`grez_with`]
/// to share it.
pub fn grez(inst: &CapInstance, policy: StuckPolicy) -> Result<Vec<usize>, IapError> {
    grez_with(inst, &CostMatrix::build(inst), policy)
}

/// [`grez`] on a prebuilt [`CostMatrix`]: the orderings and regrets are
/// already materialised, so this is a straight O(n·m) placement sweep
/// with no cost recomputation. Zones are placed one at a time in regret
/// order, each on the first server of its ordering that still fits the
/// loads the earlier placements booked.
pub fn grez_with(
    inst: &CapInstance,
    matrix: &CostMatrix,
    policy: StuckPolicy,
) -> Result<Vec<usize>, IapError> {
    let mut target = vec![usize::MAX; inst.num_zones()];
    let mut loads = vec![0.0; inst.num_servers()];
    for z in matrix.zones_by_regret() {
        let demand = inst.zone_bps(z);
        let fit = matrix
            .order(z)
            .iter()
            .map(|&s| s as usize)
            .find(|&s| loads[s] + demand <= inst.capacity(s) + 1e-9);
        let s = match (fit, policy) {
            (Some(s), _) => s,
            (None, StuckPolicy::Strict) => return Err(IapError::NoFeasibleServer { zone: z }),
            (None, StuckPolicy::BestEffort) => best_effort_server(&loads, inst, demand),
        };
        target[z] = s;
        loads[s] += demand;
    }
    Ok(target)
}

/// Builds the GAP form of Definition 2.2 (servers = agents, zones =
/// tasks, cost `C^I`, demand `R_z`, capacity `C_s`).
pub fn iap_gap(inst: &CapInstance) -> GapInstance {
    iap_gap_with(inst, &CostMatrix::build(inst))
}

/// [`iap_gap`] on a prebuilt [`CostMatrix`]: one table clone instead of
/// m·n naive cost scans.
pub fn iap_gap_with(inst: &CapInstance, matrix: &CostMatrix) -> GapInstance {
    let m = inst.num_servers();
    let n = inst.num_zones();
    GapInstance {
        cost: matrix.server_major_rows(),
        demand: (0..m)
            .map(|_| (0..n).map(|z| inst.zone_bps(z)).collect())
            .collect(),
        capacity: (0..m).map(|s| inst.capacity(s)).collect(),
    }
}

/// Exact IAP via branch-and-bound; warm-started with [`grez`] when it
/// produces a feasible assignment.
pub fn exact_iap(inst: &CapInstance, config: &BbConfig) -> Result<Vec<usize>, IapError> {
    exact_iap_with(inst, &CostMatrix::build(inst), config)
}

/// [`exact_iap`] on a prebuilt [`CostMatrix`], shared by the GAP
/// construction, the warm start and the incumbent costing.
pub fn exact_iap_with(
    inst: &CapInstance,
    matrix: &CostMatrix,
    config: &BbConfig,
) -> Result<Vec<usize>, IapError> {
    let gap = iap_gap_with(inst, matrix);
    let mut config = config.clone();
    if config.initial_incumbent.is_none() {
        if let Ok(seed) = grez_with(inst, matrix, StuckPolicy::Strict) {
            let mut values = vec![0.0; inst.num_servers() * inst.num_zones()];
            for (z, &s) in seed.iter().enumerate() {
                values[gap.var(s, z)] = 1.0;
            }
            let cost = matrix.total_cost(&seed);
            config.initial_incumbent = Some((cost, values));
        }
    }
    match gap.solve_exact(&config).map_err(IapError::Lp)? {
        GapOutcome::Optimal(sol) | GapOutcome::Feasible(sol) => Ok(sol.agent_of_task),
        GapOutcome::Infeasible => Err(IapError::Infeasible),
        GapOutcome::Unknown => Err(IapError::SolverLimit),
    }
}

/// Total IAP cost (eq. 4) of a target vector: the number of clients whose
/// observed delay to their zone's server exceeds the bound.
pub fn iap_total_cost(inst: &CapInstance, target_of_zone: &[usize]) -> f64 {
    target_of_zone
        .iter()
        .enumerate()
        .map(|(z, &s)| inst.iap_cost(s, z))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2 servers / 3 zones / 6 clients; server 0 close to zones 0-1,
    /// server 1 close to zone 2.
    fn inst() -> CapInstance {
        crate::test_support::two_servers_three_zones()
    }

    #[test]
    fn grez_places_zones_near_their_clients() {
        let t = grez(&inst(), StuckPolicy::Strict).unwrap();
        assert_eq!(t, vec![0, 0, 1]);
        assert_eq!(iap_total_cost(&inst(), &t), 0.0);
    }

    #[test]
    fn ranz_respects_capacity_and_assigns_all() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = inst();
        for _ in 0..50 {
            let t = ranz(&inst, StuckPolicy::Strict, &mut rng).unwrap();
            assert_eq!(t.len(), 3);
            assert!(t.iter().all(|&s| s < 2));
            let mut loads = [0.0f64; 2];
            for (z, &s) in t.iter().enumerate() {
                loads[s] += inst.zone_bps(z);
            }
            assert!(loads[0] <= 10_000.0 && loads[1] <= 10_000.0);
        }
    }

    #[test]
    fn ranz_is_delay_oblivious_on_average_worse_than_grez() {
        let mut rng = StdRng::seed_from_u64(12);
        let inst = inst();
        let grez_cost = iap_total_cost(&inst, &grez(&inst, StuckPolicy::Strict).unwrap());
        let mut ranz_total = 0.0;
        let runs = 200;
        for _ in 0..runs {
            let t = ranz(&inst, StuckPolicy::Strict, &mut rng).unwrap();
            ranz_total += iap_total_cost(&inst, &t);
        }
        assert!(ranz_total / runs as f64 > grez_cost);
    }

    #[test]
    fn exact_matches_or_beats_grez() {
        let inst = inst();
        let exact = exact_iap(&inst, &BbConfig::default()).unwrap();
        let grez_t = grez(&inst, StuckPolicy::Strict).unwrap();
        assert!(iap_total_cost(&inst, &exact) <= iap_total_cost(&inst, &grez_t) + 1e-9);
    }

    #[test]
    fn capacity_forces_spill_to_second_server() {
        // Server 0 is closest for both zones but can hold only one
        // (each zone loads 1000 bps, s0 capacity 1500): the greedy must
        // spread them.
        let inst = CapInstance::from_raw(
            2,
            2,
            vec![0, 1],
            vec![100.0, 400.0, 100.0, 400.0],
            vec![0.0, 60.0, 60.0, 0.0],
            vec![1000.0, 1000.0],
            vec![1500.0, 9000.0],
            250.0,
        );
        let t = grez(&inst, StuckPolicy::Strict).unwrap();
        assert_ne!(t[0], t[1], "zones must split across servers");
    }

    #[test]
    fn strict_policy_errors_when_nothing_fits() {
        let inst = CapInstance::from_raw(
            1,
            1,
            vec![0],
            vec![100.0],
            vec![0.0],
            vec![1000.0],
            vec![500.0], // zone load 1000 > capacity 500
            250.0,
        );
        assert_eq!(
            grez(&inst, StuckPolicy::Strict),
            Err(IapError::NoFeasibleServer { zone: 0 })
        );
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            ranz(&inst, StuckPolicy::Strict, &mut rng),
            Err(IapError::NoFeasibleServer { zone: 0 })
        ));
    }

    #[test]
    fn best_effort_policy_always_assigns() {
        let inst = CapInstance::from_raw(
            1,
            1,
            vec![0],
            vec![100.0],
            vec![0.0],
            vec![1000.0],
            vec![500.0],
            250.0,
        );
        assert_eq!(grez(&inst, StuckPolicy::BestEffort).unwrap(), vec![0]);
    }

    #[test]
    fn exact_detects_infeasibility() {
        let inst = CapInstance::from_raw(
            1,
            1,
            vec![0],
            vec![100.0],
            vec![0.0],
            vec![1000.0],
            vec![500.0],
            250.0,
        );
        assert_eq!(
            exact_iap(&inst, &BbConfig::default()),
            Err(IapError::Infeasible)
        );
    }

    #[test]
    fn empty_zones_are_assigned_somewhere() {
        // Zone 1 has no clients; all algorithms must still give it a target.
        let inst = CapInstance::from_raw(
            2,
            2,
            vec![0],
            vec![100.0, 400.0],
            vec![0.0, 60.0, 60.0, 0.0],
            vec![1000.0],
            vec![10_000.0, 10_000.0],
            250.0,
        );
        let t = grez(&inst, StuckPolicy::Strict).unwrap();
        assert!(t[1] < 2);
        let mut rng = StdRng::seed_from_u64(2);
        let t = ranz(&inst, StuckPolicy::Strict, &mut rng).unwrap();
        assert!(t[1] < 2);
        let t = exact_iap(&inst, &BbConfig::default()).unwrap();
        assert!(t[1] < 2);
    }
}
