//! Refined Assignment Problem (RAP) algorithms: given zone targets, pick
//! every client's *contact* server (Section 3.2 of the paper).
//!
//! * [`virc`] — **VirC**: contact = target (virtual-location based; no
//!   forwarding, no extra resource);
//! * [`grec`] — **GreC**: clients within the bound keep contact = target;
//!   the violating list `L_E` is served by a regret greedy on the cost
//!   `C^R` (eq. 8) under the residual-capacity constraint, with the
//!   forwarding overhead `R^C_c = 2 R^T_c`;
//! * [`exact_rap`] — optimal solution of Definition 2.3 via
//!   branch-and-bound, using the exact reduction to the violating list
//!   (clients already within the bound optimally stay on their target at
//!   zero cost and zero extra resource).
//!
//! ## The relay table
//!
//! Both cost-driven RAP solvers are driven by `C^R_cs` — the residual
//! delay over the bound of reaching client `c`'s target through contact
//! `s` (eq. 8). [`RelayTable`] evaluates that cost **once** per
//! (violating client, contact) pair — what [`CostMatrix`](crate::CostMatrix)
//! is to the IAP phase, this is to the RAP phase: the exact solver's
//! GreC warm start and its GAP build read the same precomputed row
//! instead of re-evaluating the path-delay formula in their inner loops.
//! [`exact_rap_with`] and [`grec_with`] consume a prebuilt table;
//! [`exact_rap`] builds one internally. Entries are the identical `f64`s
//! the naive evaluation produces, so decisions are bit-identical
//! (property-tested against [`crate::reference`]).
//!
//! [`grec`] itself builds no table: it reads each violator's costs twice,
//! once for its regret and once in a live scan at commit, and keeps O(1)
//! extra memory per client, which is what the million-client solve needs.

use crate::instance::CapInstance;
use dve_milp::{BbConfig, GapInstance, GapOutcome, LpError};

/// Clients per shard of the parallel violator scans.
const SCAN_BLOCK: usize = 4096;

/// Errors from the exact RAP solver (the greedy variants cannot fail: the
/// contact = target fallback consumes no extra resource).
#[derive(Debug, Clone, PartialEq)]
pub enum RapError {
    /// LP substrate failure.
    Lp(LpError),
    /// The exact solver hit its limits with no solution (cannot happen for
    /// well-formed instances since contact = target is always feasible,
    /// but surfaced rather than hidden).
    SolverLimit,
}

impl std::fmt::Display for RapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RapError::Lp(e) => write!(f, "LP error: {e}"),
            RapError::SolverLimit => write!(f, "exact RAP hit limits with no solution"),
        }
    }
}

impl std::error::Error for RapError {}

/// **VirC** — contact server equals target server for every client.
pub fn virc(inst: &CapInstance, target_of_zone: &[usize]) -> Vec<usize> {
    (0..inst.num_clients())
        .map(|c| target_of_zone[inst.zone_of(c)])
        .collect()
}

/// Per-server load from hosted zones only (the starting point for RAP
/// capacity accounting, constraint (10) of the paper).
fn zone_loads(inst: &CapInstance, target_of_zone: &[usize]) -> Vec<f64> {
    let mut loads = vec![0.0; inst.num_servers()];
    for (z, &s) in target_of_zone.iter().enumerate() {
        loads[s] += inst.zone_bps(z);
    }
    loads
}

/// Precomputed `C^R` relay costs for one (instance, target vector) pair.
///
/// Row `r` holds, for violating client `violating()[r]`, the cost of
/// routing through every candidate contact server — eq. 8 evaluated once
/// per pair, in a parallel pass, instead of inside every consumer's
/// inner loop. Entries are bit-identical to
/// [`CapInstance::rap_cost`], so table-driven solvers make exactly the
/// decisions the naive ones made.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayTable {
    servers: usize,
    /// The violating list `L_E`, ascending client index.
    le: Vec<usize>,
    /// `C^R` costs, `L_E`-major: row `r` belongs to client `le[r]`.
    cost: Vec<f64>,
}

impl RelayTable {
    /// Builds the table for a target vector: finds the violating list and
    /// evaluates its full m-wide cost rows, on
    /// [`dve_par::par_map`] when more than one worker is available.
    pub fn build(inst: &CapInstance, target_of_zone: &[usize]) -> RelayTable {
        let m = inst.num_servers();
        let le = violating_clients(inst, target_of_zone);
        let cost: Vec<f64> = if dve_par::default_threads() <= 1 || le.len() <= 1 {
            let mut cost = Vec::with_capacity(le.len() * m);
            for &c in &le {
                let t = target_of_zone[inst.zone_of(c)];
                cost.extend((0..m).map(|s| inst.rap_cost(c, s, t)));
            }
            cost
        } else {
            let rows: Vec<Vec<f64>> = dve_par::par_map(&le, |&c| {
                let t = target_of_zone[inst.zone_of(c)];
                (0..m).map(|s| inst.rap_cost(c, s, t)).collect()
            });
            let mut cost = Vec::with_capacity(le.len() * m);
            for row in rows {
                cost.extend_from_slice(&row);
            }
            cost
        };
        RelayTable {
            servers: m,
            le,
            cost,
        }
    }

    /// The violating list `L_E` (ascending client index).
    pub fn violating(&self) -> &[usize] {
        &self.le
    }

    /// Whether no client violates its target-delay bound.
    pub fn is_empty(&self) -> bool {
        self.le.is_empty()
    }

    /// `C^R` of routing `violating()[row]` through contact `server`.
    #[inline]
    pub fn cost(&self, row: usize, server: usize) -> f64 {
        self.cost[row * self.servers + server]
    }

    /// The full cost row of `violating()[row]`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.cost[row * self.servers..(row + 1) * self.servers]
    }
}

/// **GreC** — greedy assignment of clients (Fig. 3 of the paper).
///
/// Deterministic given the instance and targets. The regret `rho` follows
/// the same sign-fixed Romeijn–Morales convention as
/// [`grez`](crate::iap::grez). Evaluates eq. 8 inline — the single-shot
/// path has no table to amortise; use [`grec_with`] when a
/// [`RelayTable`] is shared with another consumer (as [`exact_rap_with`]
/// shares it with its GAP build).
pub fn grec(inst: &CapInstance, target_of_zone: &[usize]) -> Vec<usize> {
    let le = violating_clients(inst, target_of_zone);
    grec_impl(inst, target_of_zone, &le, |k, s| {
        let c = le[k];
        inst.rap_cost(c, s, target_of_zone[inst.zone_of(c)])
    })
}

/// [`grec`] on a prebuilt [`RelayTable`] (which must describe the same
/// instance and target vector).
pub fn grec_with(inst: &CapInstance, target_of_zone: &[usize], table: &RelayTable) -> Vec<usize> {
    grec_impl(inst, target_of_zone, table.violating(), |k, s| {
        table.cost(k, s)
    })
}

/// The one GreC implementation, generic over where `C^R` of
/// (violating-row `k`, server `s`) comes from — the inline eq. 8
/// evaluation or a [`RelayTable`] row. Both sources produce the same
/// `f64`s, so the two public entry points are bit-identical.
///
/// Fig. 3 ranks each violator's servers by `C^R` ascending (ties to the
/// lower index) and commits the first one that still fits. Neither step
/// needs the ranked list itself: the regret reads only its two cheapest
/// entries, and the first fitting entry of the list is the minimum
/// (cost, index) over the servers that fit when the client commits. So
/// each violator costs one O(m) regret pass and one O(m) live scan, with
/// O(1) extra memory per client.
fn grec_impl<F: Fn(usize, usize) -> f64>(
    inst: &CapInstance,
    target_of_zone: &[usize],
    le: &[usize],
    cost: F,
) -> Vec<usize> {
    let m = inst.num_servers();
    // Clients off the violating list keep the natural connection.
    let mut contact: Vec<usize> = (0..inst.num_clients())
        .map(|c| target_of_zone[inst.zone_of(c)])
        .collect();
    let mut loads = zone_loads(inst, target_of_zone);

    let mut regret: Vec<(f64, usize)> = (0..le.len())
        .map(|k| (regret_of(m, |s| cost(k, s)), k))
        .collect();
    regret.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));

    for &(_, k) in &regret {
        let c = le[k];
        let t = target_of_zone[inst.zone_of(c)];
        let fwd = inst.client_forwarding_bps(c);
        let mut best: Option<(f64, usize)> = None;
        for s in 0..m {
            let rc = if s == t { 0.0 } else { fwd };
            let fits = loads[s] + rc <= inst.capacity(s) + 1e-9;
            if !fits {
                continue;
            }
            let cr = cost(k, s);
            if best.is_none_or(|(b, _)| cr < b) {
                best = Some((cr, s));
                // `C^R >= 0`: no later (higher-index) server can beat it.
                if cr == 0.0 {
                    break;
                }
            }
        }
        // If nothing fit, `contact[c]` still holds the target: zero extra
        // load, always available — the explicit fallback of Fig. 3.
        if let Some((_, s)) = best {
            contact[c] = s;
            if s != t {
                loads[s] += fwd;
            }
        }
    }
    contact
}

/// GreC's regret `rho` for one violator: the gap between its two
/// smallest `C^R` over `m` servers (0 when `m < 2`) — the sign-fixed
/// `mu[0] - mu[1]` of the desirability list `mu = -C^R`, as the same
/// `f64`. One pass; since `C^R >= 0` it stops at the second zero.
fn regret_of(m: usize, cost: impl Fn(usize) -> f64) -> f64 {
    if m < 2 {
        return 0.0;
    }
    let (mut lo1, mut lo2) = (f64::INFINITY, f64::INFINITY);
    for s in 0..m {
        let c = cost(s);
        if c < lo1 {
            lo2 = lo1;
            lo1 = c;
        } else if c < lo2 {
            lo2 = c;
            if lo2 == 0.0 {
                break;
            }
        }
    }
    lo2 - lo1
}

/// Clients whose observed delay to their target exceeds the bound (the
/// list `L_E` of Fig. 3), scanned on [`dve_par::default_threads`]
/// workers: see [`violating_clients_threads`].
pub fn violating_clients(inst: &CapInstance, target_of_zone: &[usize]) -> Vec<usize> {
    violating_clients_threads(inst, target_of_zone, dve_par::default_threads())
}

/// [`violating_clients`] with an explicit worker count. The O(k) scan
/// shards into contiguous client blocks on the reduce seam; per-worker
/// hit lists concatenate in worker-index order, which *is* ascending
/// client order — bit-identical to the serial scan at any width.
pub fn violating_clients_threads(
    inst: &CapInstance,
    target_of_zone: &[usize],
    threads: usize,
) -> Vec<usize> {
    let k = inst.num_clients();
    let blocks: Vec<std::ops::Range<usize>> = (0..k)
        .step_by(SCAN_BLOCK)
        .map(|lo| lo..(lo + SCAN_BLOCK).min(k))
        .collect();
    dve_par::par_map_reduce_with(
        threads,
        &blocks,
        Vec::new,
        |acc: &mut Vec<usize>, _, block| {
            for c in block.clone() {
                let t = target_of_zone[inst.zone_of(c)];
                if inst.obs_cs(c, t) > inst.delay_bound() {
                    acc.push(c);
                }
            }
        },
        |mut a, b| {
            a.extend(b);
            a
        },
    )
}

/// [`violating_clients`] restricted to the members of `zones` — the
/// zone-scoped violator rescan of the streaming serving loop. A churn
/// event only changes the violating status of clients in the zones it
/// touches (a member's target delay depends on its zone's target server
/// alone), so after a micro-batch the engine rescans O(touched-zone
/// members) clients instead of all k. Ascending client index, deduplicated
/// across overlapping zones.
pub fn violating_clients_in(
    inst: &CapInstance,
    target_of_zone: &[usize],
    zones: &[usize],
) -> Vec<usize> {
    violating_clients_in_threads(inst, target_of_zone, zones, dve_par::default_threads())
}

/// [`violating_clients_in`] with an explicit worker count — the sharded
/// form of the incremental repair's touched-zone rescan. Zones shard
/// across the team (each worker scans whole zones, read-only), the
/// per-worker hit lists concatenate in worker-index order, and the
/// final sort + dedup normalises exactly as the serial path does —
/// bit-identical output at any width.
pub fn violating_clients_in_threads(
    inst: &CapInstance,
    target_of_zone: &[usize],
    zones: &[usize],
    threads: usize,
) -> Vec<usize> {
    let mut out: Vec<usize> = dve_par::par_map_reduce_with(
        threads,
        zones,
        Vec::new,
        |acc: &mut Vec<usize>, _, &z| {
            let t = target_of_zone[z];
            acc.extend(
                inst.clients_in_zone(z)
                    .iter()
                    .copied()
                    .filter(|&c| inst.obs_cs(c, t) > inst.delay_bound()),
            );
        },
        |mut a, b| {
            a.extend(b);
            a
        },
    );
    out.sort_unstable();
    out.dedup();
    out
}

/// The GAP reduction's constraint side, shared by both cost-row sources:
/// demand rows (forwarding overhead off-target, zero on-target) and the
/// residual capacities — clamped at zero so an (infeasible) overfull
/// zone assignment still admits the contact = target column.
fn gap_constraints(
    inst: &CapInstance,
    target_of_zone: &[usize],
    le: &[usize],
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let m = inst.num_servers();
    let loads = zone_loads(inst, target_of_zone);
    let demand = (0..m)
        .map(|s| {
            le.iter()
                .map(|&c| {
                    if s == target_of_zone[inst.zone_of(c)] {
                        0.0
                    } else {
                        inst.client_forwarding_bps(c)
                    }
                })
                .collect()
        })
        .collect();
    let capacity = (0..m)
        .map(|s| (inst.capacity(s) - loads[s]).max(0.0))
        .collect();
    (demand, capacity)
}

/// Builds the GAP form of Definition 2.3 restricted to the violating list
/// (exact reduction: within-bound clients stay at cost 0 / demand 0).
pub fn rap_gap(inst: &CapInstance, target_of_zone: &[usize], le: &[usize]) -> GapInstance {
    let m = inst.num_servers();
    let (demand, capacity) = gap_constraints(inst, target_of_zone, le);
    GapInstance {
        cost: (0..m)
            .map(|s| {
                le.iter()
                    .map(|&c| inst.rap_cost(c, s, target_of_zone[inst.zone_of(c)]))
                    .collect()
            })
            .collect(),
        demand,
        capacity,
    }
}

/// [`rap_gap`] reading the precomputed costs of a [`RelayTable`] instead
/// of re-evaluating eq. 8 per (server, client) cell.
pub fn rap_gap_with(
    inst: &CapInstance,
    target_of_zone: &[usize],
    table: &RelayTable,
) -> GapInstance {
    let m = inst.num_servers();
    let le = table.violating();
    let (demand, capacity) = gap_constraints(inst, target_of_zone, le);
    GapInstance {
        cost: (0..m)
            .map(|s| (0..le.len()).map(|k| table.cost(k, s)).collect())
            .collect(),
        demand,
        capacity,
    }
}

/// Exact RAP via branch-and-bound, warm-started with [`grec`]. Builds a
/// [`RelayTable`] internally; use [`exact_rap_with`] to share one.
pub fn exact_rap(
    inst: &CapInstance,
    target_of_zone: &[usize],
    config: &BbConfig,
) -> Result<Vec<usize>, RapError> {
    exact_rap_with(
        inst,
        target_of_zone,
        &RelayTable::build(inst, target_of_zone),
        config,
    )
}

/// [`exact_rap`] on a prebuilt [`RelayTable`]: the violating list, the
/// GreC warm start, and the GAP cost rows all come from the one table.
pub fn exact_rap_with(
    inst: &CapInstance,
    target_of_zone: &[usize],
    table: &RelayTable,
    config: &BbConfig,
) -> Result<Vec<usize>, RapError> {
    let le = table.violating();
    let mut contact = virc(inst, target_of_zone);
    if le.is_empty() {
        return Ok(contact);
    }
    let gap = rap_gap_with(inst, target_of_zone, table);
    let mut config = config.clone();
    if config.initial_incumbent.is_none() {
        let greedy = grec_with(inst, target_of_zone, table);
        let mut values = vec![0.0; inst.num_servers() * le.len()];
        let mut cost = 0.0;
        let mut feasible_seed = true;
        for (task, &c) in le.iter().enumerate() {
            let s = greedy[c];
            values[gap.var(s, task)] = 1.0;
            cost += gap.cost[s][task];
            // The greedy may have relied on already-placed zone loads in a
            // way that matches gap capacities; verify quickly below.
            if gap.demand[s][task] > gap.capacity[s] + 1e-9 {
                feasible_seed = false;
            }
        }
        if feasible_seed {
            config.initial_incumbent = Some((cost, values));
        }
    }
    match gap.solve_exact(&config).map_err(RapError::Lp)? {
        GapOutcome::Optimal(sol) | GapOutcome::Feasible(sol) => {
            for (task, &c) in le.iter().enumerate() {
                contact[c] = sol.agent_of_task[task];
            }
            Ok(contact)
        }
        // contact = target always fits (demand 0), so the GAP cannot be
        // infeasible; treat it as a solver limit if it ever surfaces.
        GapOutcome::Infeasible | GapOutcome::Unknown => Err(RapError::SolverLimit),
    }
}

/// Total RAP cost (eq. 9) of a contact vector, using observed delays.
pub fn rap_total_cost(
    inst: &CapInstance,
    target_of_zone: &[usize],
    contact_of_client: &[usize],
) -> f64 {
    contact_of_client
        .iter()
        .enumerate()
        .map(|(c, &s)| inst.rap_cost(c, s, target_of_zone[inst.zone_of(c)]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One zone on a far server; a nearby relay server can rescue QoS.
    /// c0: d(c0,s0)=300 (violates 250), d(c0,s1)=100, d(s1,s0)=60
    /// -> via s1: 160 <= 250.
    fn relay_inst() -> CapInstance {
        CapInstance::from_raw(
            2,
            1,
            vec![0, 0],
            vec![300.0, 100.0, 120.0, 400.0],
            vec![0.0, 60.0, 60.0, 0.0],
            vec![1000.0, 1000.0],
            vec![10_000.0, 10_000.0],
            250.0,
        )
    }

    #[test]
    fn virc_mirrors_targets() {
        let inst = relay_inst();
        let contacts = virc(&inst, &[0]);
        assert_eq!(contacts, vec![0, 0]);
    }

    #[test]
    fn grec_reroutes_violating_client_through_relay() {
        let inst = relay_inst();
        // zone 0 hosted on s0; c0 violates (300 > 250) and is rescued via
        // s1 (100 + 60 = 160); c1 is fine directly (120).
        let contacts = grec(&inst, &[0]);
        assert_eq!(contacts[0], 1);
        assert_eq!(contacts[1], 0);
    }

    #[test]
    fn grec_leaves_satisfied_clients_alone() {
        let inst = relay_inst();
        let contacts = grec(&inst, &[0]);
        // c1 already within bound: contact must be its target.
        assert_eq!(contacts[1], 0);
    }

    #[test]
    fn grec_respects_contact_capacity() {
        // Relay server has no spare capacity: violating client must stay
        // on its target.
        let inst = CapInstance::from_raw(
            2,
            1,
            vec![0],
            vec![300.0, 100.0],
            vec![0.0, 60.0, 60.0, 0.0],
            vec![1000.0],
            vec![10_000.0, 1000.0], // RC = 2000 > 1000 residual on s1
            250.0,
        );
        let contacts = grec(&inst, &[0]);
        assert_eq!(contacts[0], 0, "no capacity on relay: stay on target");
    }

    #[test]
    fn grec_takes_the_next_cheapest_server_when_the_cheapest_fills() {
        // One zone on s0; every server hop is 50 ms. c0's costs are
        // (150, 0, 100, 100), regret 100; c1's are (80, 0, 60, 60),
        // regret 60. c0 commits first and takes s1, whose capacity holds
        // one relay (2000 of 3000 bps). s1 still fits c1 under the
        // initial loads but not live, so c1 takes the next (cost, index)
        // server: s2, which beats s3 at equal cost by index.
        let mut ss = vec![50.0; 16];
        for s in 0..4 {
            ss[s * 4 + s] = 0.0;
        }
        let inst = CapInstance::from_raw(
            4,
            1,
            vec![0, 0],
            vec![400.0, 100.0, 300.0, 300.0, 330.0, 120.0, 260.0, 260.0],
            ss,
            vec![1000.0, 1000.0],
            vec![10_000.0, 3000.0, 10_000.0, 10_000.0],
            250.0,
        );
        let contacts = grec(&inst, &[0]);
        assert_eq!(contacts, vec![1, 2]);
        assert_eq!(contacts, crate::reference::grec_reference(&inst, &[0]));
    }

    #[test]
    fn exact_rap_matches_or_beats_grec() {
        let inst = relay_inst();
        let targets = vec![0];
        let greedy = grec(&inst, &targets);
        let exact = exact_rap(&inst, &targets, &BbConfig::default()).unwrap();
        assert!(
            rap_total_cost(&inst, &targets, &exact)
                <= rap_total_cost(&inst, &targets, &greedy) + 1e-9
        );
    }

    #[test]
    fn exact_rap_with_no_violations_is_virc() {
        let inst = CapInstance::from_raw(
            2,
            1,
            vec![0],
            vec![100.0, 200.0],
            vec![0.0, 60.0, 60.0, 0.0],
            vec![1000.0],
            vec![10_000.0, 10_000.0],
            250.0,
        );
        let targets = vec![0];
        assert!(violating_clients(&inst, &targets).is_empty());
        let exact = exact_rap(&inst, &targets, &BbConfig::default()).unwrap();
        assert_eq!(exact, virc(&inst, &targets));
    }

    #[test]
    fn violating_list_uses_observed_target_delay() {
        let inst = relay_inst();
        assert_eq!(violating_clients(&inst, &[0]), vec![0]);
        // Hosting the zone on s1 instead: c0 at 100 fine, c1 at 400 bad.
        assert_eq!(violating_clients(&inst, &[1]), vec![1]);
    }

    #[test]
    fn zone_scoped_violator_rescan_matches_full_scan() {
        // 2 servers, 3 zones, 5 clients spread over the zones; targets
        // chosen so both zones 0 and 2 have violators.
        let inst = CapInstance::from_raw(
            2,
            3,
            vec![0, 0, 1, 2, 2],
            vec![
                300.0, 100.0, // c0: violates s0
                100.0, 400.0, // c1: fine on s0
                100.0, 100.0, // c2: fine anywhere
                400.0, 100.0, // c3: violates s0
                300.0, 100.0, // c4: violates s0
            ],
            vec![0.0, 60.0, 60.0, 0.0],
            vec![1000.0; 5],
            vec![10_000.0; 2],
            250.0,
        );
        let targets = vec![0, 0, 0];
        let full = violating_clients(&inst, &targets);
        assert_eq!(full, vec![0, 3, 4]);
        // Scoped to every zone = the full scan.
        assert_eq!(violating_clients_in(&inst, &targets, &[0, 1, 2]), full);
        // Scoped to one zone = the full scan filtered to that zone.
        assert_eq!(violating_clients_in(&inst, &targets, &[2]), vec![3, 4]);
        assert_eq!(
            violating_clients_in(&inst, &targets, &[1]),
            Vec::<usize>::new()
        );
        // Duplicate zones do not duplicate clients.
        assert_eq!(violating_clients_in(&inst, &targets, &[0, 0]), vec![0]);
    }

    #[test]
    fn rap_cost_totals() {
        let inst = relay_inst();
        let targets = vec![0];
        // All on target: c0 cost 50, c1 cost 0.
        assert_eq!(rap_total_cost(&inst, &targets, &[0, 0]), 50.0);
        // c0 via relay: 160 under bound -> cost 0.
        assert_eq!(rap_total_cost(&inst, &targets, &[1, 0]), 0.0);
    }

    #[test]
    fn relay_table_matches_naive_costs() {
        let inst = relay_inst();
        let targets = vec![0];
        let table = RelayTable::build(&inst, &targets);
        assert_eq!(table.violating(), &[0]);
        assert!(!table.is_empty());
        for (k, &c) in table.violating().iter().enumerate() {
            for s in 0..inst.num_servers() {
                assert_eq!(table.cost(k, s), inst.rap_cost(c, s, targets[0]));
            }
            assert_eq!(table.row(k).len(), inst.num_servers());
        }
    }

    #[test]
    fn table_driven_solvers_match_plain_ones() {
        let inst = relay_inst();
        let targets = vec![0];
        let table = RelayTable::build(&inst, &targets);
        assert_eq!(grec_with(&inst, &targets, &table), grec(&inst, &targets));
        let plain = exact_rap(&inst, &targets, &BbConfig::default()).unwrap();
        let shared = exact_rap_with(&inst, &targets, &table, &BbConfig::default()).unwrap();
        assert_eq!(plain, shared);
        // The GAP built from the table is the GAP built naively.
        let le = violating_clients(&inst, &targets);
        let naive_gap = rap_gap(&inst, &targets, &le);
        let table_gap = rap_gap_with(&inst, &targets, &table);
        assert_eq!(naive_gap.cost, table_gap.cost);
        assert_eq!(naive_gap.demand, table_gap.demand);
        assert_eq!(naive_gap.capacity, table_gap.capacity);
    }

    #[test]
    fn empty_relay_table_when_all_within_bound() {
        let inst = CapInstance::from_raw(
            2,
            1,
            vec![0],
            vec![100.0, 200.0],
            vec![0.0, 60.0, 60.0, 0.0],
            vec![1000.0],
            vec![10_000.0; 2],
            250.0,
        );
        let table = RelayTable::build(&inst, &[0]);
        assert!(table.is_empty());
        assert_eq!(grec_with(&inst, &[0], &table), virc(&inst, &[0]));
    }

    #[test]
    fn grec_prefers_forwarding_even_when_over_bound_if_closer() {
        // No server brings the client under the bound; GreC should pick
        // the one minimising the distance over the bound.
        let inst = CapInstance::from_raw(
            2,
            1,
            vec![0],
            vec![480.0, 400.0],
            vec![0.0, 20.0, 20.0, 0.0],
            vec![1000.0],
            vec![10_000.0, 10_000.0],
            250.0,
        );
        let contacts = grec(&inst, &[0]);
        // direct: 480 (cost 230); via s1: 400 + 20 = 420 (cost 170).
        assert_eq!(contacts[0], 1);
    }
}
