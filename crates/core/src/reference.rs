//! Naive reference implementations of the cost-driven assignment
//! algorithms.
//!
//! These are the pre-[`CostMatrix`](crate::CostMatrix) versions of
//! [`grez`](crate::grez) and [`improve_iap`](crate::improve_iap)
//! (evaluating every cost through the O(zone population)
//! [`CapInstance::iap_cost`] scan), and the
//! pre-[`RelayTable`](crate::RelayTable) version of [`grec`](crate::grec)
//! with its from-first-principles `C^R` evaluation. They exist for two
//! reasons only:
//!
//! * the property tests assert the rewritten algorithms reach
//!   **bit-identical** results;
//! * the `scale` bench measures the speedup of the precomputed engine
//!   against them.
//!
//! Production code must never call them; they are `#[doc(hidden)]` and
//! deliberately kept byte-for-byte equivalent in **cost-driven decision
//! order** to the originals. One deliberate exception: both reference
//! and engine call the current demand-aware `best_effort_server` —
//! the fallback was changed on its own merits (it used to ignore the
//! zone's demand), so the `BestEffort` stuck-path is compared against
//! the *new* fallback, not the pre-refactor one.

use crate::iap::{best_effort_server, iap_total_cost, IapError, StuckPolicy};
use crate::instance::CapInstance;
use crate::local_search::LocalSearchStats;

/// The naive `C^R` evaluation (eq. 8) written out from first principles:
/// observed path delay through the contact, residual over the bound. The
/// ground truth [`RelayTable`](crate::RelayTable) entries are verified
/// against.
#[doc(hidden)]
pub fn rap_cost_reference(inst: &CapInstance, c: usize, contact: usize, target: usize) -> f64 {
    let total = if contact == target {
        inst.obs_cs(c, target)
    } else {
        inst.obs_cs(c, contact) + inst.obs_ss(contact, target)
    };
    (total - inst.delay_bound()).max(0.0)
}

/// The pre-[`RelayTable`](crate::RelayTable) GreC: desirability lists
/// built by evaluating eq. 8 inside the loop, one call per
/// (violating client, server) pair, plus a second evaluation pass for the
/// within-bound partition. It keeps the sorted per-violator lists of
/// Fig. 3 that [`grec`](crate::grec)'s regret pass and live scan do
/// without.
#[doc(hidden)]
pub fn grec_reference(inst: &CapInstance, target_of_zone: &[usize]) -> Vec<usize> {
    let m = inst.num_servers();
    let mut contact = vec![usize::MAX; inst.num_clients()];
    let mut loads = vec![0.0; m];
    for (z, &s) in target_of_zone.iter().enumerate() {
        loads[s] += inst.zone_bps(z);
    }
    let mut le: Vec<usize> = Vec::new();
    for c in 0..inst.num_clients() {
        let t = target_of_zone[inst.zone_of(c)];
        if inst.obs_cs(c, t) <= inst.delay_bound() {
            contact[c] = t;
        } else {
            le.push(c);
        }
    }

    let mut lists: Vec<Vec<(f64, usize)>> = Vec::with_capacity(le.len());
    let mut regret: Vec<(f64, usize)> = Vec::with_capacity(le.len());
    for (k, &c) in le.iter().enumerate() {
        let t = target_of_zone[inst.zone_of(c)];
        let mut mu: Vec<(f64, usize)> = (0..m)
            .map(|s| (-rap_cost_reference(inst, c, s, t), s))
            .collect();
        mu.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
        let rho = if m >= 2 { mu[0].0 - mu[1].0 } else { 0.0 };
        regret.push((rho, k));
        lists.push(mu);
    }
    regret.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));

    for &(_, k) in &regret {
        let c = le[k];
        let t = target_of_zone[inst.zone_of(c)];
        let mut placed = false;
        for &(_, s) in &lists[k] {
            let rc = if s == t {
                0.0
            } else {
                inst.client_forwarding_bps(c)
            };
            if loads[s] + rc <= inst.capacity(s) + 1e-9 {
                contact[c] = s;
                loads[s] += rc;
                placed = true;
                break;
            }
        }
        if !placed {
            contact[c] = t;
        }
    }
    contact
}

/// The pre-refactor GreZ: per-zone desirability lists built by sorting
/// naive cost scans.
#[doc(hidden)]
pub fn grez_reference(inst: &CapInstance, policy: StuckPolicy) -> Result<Vec<usize>, IapError> {
    let m = inst.num_servers();
    let n = inst.num_zones();
    let mut lists: Vec<Vec<(f64, usize)>> = Vec::with_capacity(n);
    let mut regret: Vec<(f64, usize)> = Vec::with_capacity(n);
    for z in 0..n {
        let mut mu: Vec<(f64, usize)> = (0..m).map(|s| (-inst.iap_cost(s, z), s)).collect();
        mu.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
        let rho = if m >= 2 { mu[0].0 - mu[1].0 } else { 0.0 };
        regret.push((rho, z));
        lists.push(mu);
    }
    regret.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));

    let mut target = vec![usize::MAX; n];
    let mut loads = vec![0.0; m];
    for &(_, z) in &regret {
        let demand = inst.zone_bps(z);
        let mut placed = false;
        for &(_, s) in &lists[z] {
            if loads[s] + demand <= inst.capacity(s) + 1e-9 {
                target[z] = s;
                loads[s] += demand;
                placed = true;
                break;
            }
        }
        if !placed {
            match policy {
                StuckPolicy::Strict => return Err(IapError::NoFeasibleServer { zone: z }),
                StuckPolicy::BestEffort => {
                    let s = best_effort_server(&loads, inst, demand);
                    target[z] = s;
                    loads[s] += demand;
                }
            }
        }
    }
    Ok(target)
}

/// The pre-refactor first-improvement local search, recomputing every
/// move cost through the naive scan.
#[doc(hidden)]
pub fn improve_iap_reference(
    inst: &CapInstance,
    target_of_zone: &mut [usize],
    max_sweeps: usize,
) -> LocalSearchStats {
    let m = inst.num_servers();
    let n = inst.num_zones();
    let initial_cost = iap_total_cost(inst, target_of_zone);
    let mut loads = vec![0.0; m];
    for (z, &s) in target_of_zone.iter().enumerate() {
        loads[s] += inst.zone_bps(z);
    }
    let mut stats = LocalSearchStats {
        initial_cost,
        final_cost: initial_cost,
        shifts: 0,
        swaps: 0,
        sweeps: 0,
    };
    for _ in 0..max_sweeps {
        let mut improved = false;
        stats.sweeps += 1;
        for z in 0..n {
            let cur = target_of_zone[z];
            let cur_cost = inst.iap_cost(cur, z);
            let demand = inst.zone_bps(z);
            for s in 0..m {
                if s == cur {
                    continue;
                }
                if loads[s] + demand > inst.capacity(s) + 1e-9 {
                    continue;
                }
                let new_cost = inst.iap_cost(s, z);
                if new_cost < cur_cost - 1e-12 {
                    loads[cur] -= demand;
                    loads[s] += demand;
                    target_of_zone[z] = s;
                    stats.shifts += 1;
                    improved = true;
                    break;
                }
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                let (sa, sb) = (target_of_zone[a], target_of_zone[b]);
                if sa == sb {
                    continue;
                }
                let (da, db) = (inst.zone_bps(a), inst.zone_bps(b));
                if loads[sb] - db + da > inst.capacity(sb) + 1e-9
                    || loads[sa] - da + db > inst.capacity(sa) + 1e-9
                {
                    continue;
                }
                let before = inst.iap_cost(sa, a) + inst.iap_cost(sb, b);
                let after = inst.iap_cost(sb, a) + inst.iap_cost(sa, b);
                if after < before - 1e-12 {
                    loads[sa] = loads[sa] - da + db;
                    loads[sb] = loads[sb] - db + da;
                    target_of_zone.swap(a, b);
                    stats.swaps += 1;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    stats.final_cost = iap_total_cost(inst, target_of_zone);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iap::grez;
    use crate::local_search::improve_iap;

    fn inst() -> CapInstance {
        crate::test_support::two_servers_three_zones()
    }

    #[test]
    fn fast_grez_matches_reference() {
        let inst = inst();
        assert_eq!(
            grez(&inst, StuckPolicy::Strict).unwrap(),
            grez_reference(&inst, StuckPolicy::Strict).unwrap()
        );
    }

    #[test]
    fn fast_grec_matches_reference() {
        let inst = inst();
        let targets = vec![0, 1, 0];
        assert_eq!(
            crate::rap::grec(&inst, &targets),
            grec_reference(&inst, &targets)
        );
    }

    #[test]
    fn fast_local_search_matches_reference() {
        let inst = inst();
        let mut fast = vec![1, 1, 0];
        let mut naive = fast.clone();
        let fast_stats = improve_iap(&inst, &mut fast, 50);
        let naive_stats = improve_iap_reference(&inst, &mut naive, 50);
        assert_eq!(fast, naive);
        assert_eq!(fast_stats, naive_stats);
    }
}
