//! Precomputed cost-matrix engine for the IAP hot paths.
//!
//! Every IAP algorithm in this crate is driven by the cost `C^I_ij`
//! (eq. 3) — the number of zone-`j` clients whose observed delay to
//! server `i` exceeds the bound. The naive
//! [`CapInstance::iap_cost`] rescans the zone's clients on every call,
//! which puts an O(k/n) factor inside every inner loop: a local-search
//! sweep pays O(k·m) instead of O(n·m), and a single annealing step pays
//! O(k) instead of O(1).
//!
//! [`CostMatrix`] materialises the full m×n table (plus the per-zone
//! server orderings and regrets the greedy needs) in one parallel
//! O(k·m) pass, and [`IncrementalEval`] maintains server loads and the
//! total cost (eq. 4) under shift/swap moves with O(1) delta
//! evaluation. Under churn the matrix is **carried, not rebuilt**:
//! [`CostMatrix::apply_delta`] consumes the structured
//! [`WorldDelta`](dve_world::WorldDelta) of a join/leave/move batch and
//! touches only the affected zone columns (each event changes at most
//! two), and [`IncrementalEval::rebase`] re-syncs a carried target
//! vector onto the updated instance in O(n + m). All counts are small integers stored exactly in `f64`, so
//! every consumer sees **bit-identical costs** to the naive scan, and
//! the deterministic searches (GreZ, [`improve_iap`](crate::improve_iap))
//! make exactly the decisions the originals made, only faster — the
//! property tests assert this against [`crate::reference`]. The one
//! consumer outside that guarantee is the annealer: its capacity
//! *penalty* delta is computed from the two touched servers instead of a
//! full resummation, which is algebraically equal but not float-identical,
//! so its stochastic walk is equivalent in distribution rather than
//! step-for-step (see [`anneal_iap_with`](crate::anneal_iap_with)).

use crate::instance::CapInstance;
use dve_world::WorldDelta;
use std::cell::RefCell;

/// Dense precomputation of the IAP cost `C^I` with the per-zone
/// structures the greedy and local-search algorithms consume.
///
/// `PartialEq` compares the full precomputed state (counts, orderings,
/// regrets) — the equivalence the churn property tests assert between a
/// delta-updated matrix and a fresh build.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    servers: usize,
    zones: usize,
    /// `C^I_sz` violator counts, zone-major (`z * servers + s`).
    cost: Vec<u32>,
    /// Per-zone desirability order: row `z` lists every server sorted by
    /// (cost ascending, index ascending) — the order GreZ probes.
    order: Vec<u32>,
    /// Regret `rho_z` = second-best cost − best cost (≥ 0), the
    /// Romeijn–Morales priority GreZ processes zones by.
    regret: Vec<f64>,
}

impl CostMatrix {
    /// Builds the matrix in a single parallel O(k·m) pass on
    /// [`dve_par::default_threads`] workers: see
    /// [`CostMatrix::build_threads`].
    pub fn build(inst: &CapInstance) -> CostMatrix {
        Self::build_threads(inst, dve_par::default_threads())
    }

    /// [`CostMatrix::build`] with an explicit worker count (tests and
    /// benches pin widths; the default reads `DVE_THREADS`).
    ///
    /// The client population is split into contiguous shards on the
    /// [`dve_par::par_map_reduce_with`] seam: each worker streams its
    /// clients' delay rows in memory order into a private count
    /// accumulator, and the accumulators merge element-wise in
    /// worker-index order. `u32` additions commute exactly, so the
    /// counts are **bit-identical at any thread count** — equal to
    /// calling [`CapInstance::iap_cost`] for all (server, zone) pairs —
    /// and the per-zone orderings/regrets derive from them
    /// deterministically (each zone independent). The orderings add
    /// O(n·m) through a counting sort per zone, sharded across the team
    /// too.
    pub fn build_threads(inst: &CapInstance, threads: usize) -> CostMatrix {
        let m = inst.num_servers();
        let n = inst.num_zones();
        let bound = inst.delay_bound();
        let k = inst.num_clients();
        // Shard over client blocks, not single clients: the reduce seam
        // then hands each worker long contiguous row runs (cache-order
        // streaming) and the work list stays tiny.
        let blocks: Vec<std::ops::Range<usize>> = (0..k)
            .step_by(COUNT_BLOCK)
            .map(|lo| lo..(lo + COUNT_BLOCK).min(k))
            .collect();

        let cost: Vec<u32> = dve_par::par_map_reduce_with(
            threads,
            &blocks,
            || vec![0u32; n * m],
            |acc, _, block| {
                for c in block.clone() {
                    let z = inst.zone_of(c);
                    let counts = &mut acc[z * m..(z + 1) * m];
                    inst.fold_obs_row(c, |j, delay| counts[j] += u32::from(delay > bound));
                }
            },
            merge_counts,
        );
        CostMatrix::from_counts_threads(m, n, cost, threads)
    }

    /// Assembles a matrix from the folded violator counts (zone-major):
    /// derives the per-zone orderings and regrets — independent rows, so
    /// they are derived on disjoint mutable shards of the worker team;
    /// result identical at any width (each zone's sort reads only its
    /// own counts).
    fn from_counts_threads(
        servers: usize,
        zones: usize,
        cost: Vec<u32>,
        threads: usize,
    ) -> CostMatrix {
        assert_eq!(cost.len(), zones * servers, "counts must be zone-major");
        // Identity rows: the permutation `order_zone` starts from.
        let mut order = Vec::with_capacity(zones * servers);
        for _ in 0..zones {
            order.extend(0..servers as u32);
        }
        let mut regret = vec![0.0; zones];
        if threads <= 1 || zones < PAR_ZONE_MIN || servers == 0 {
            for z in 0..zones {
                regret[z] = order_zone(
                    &cost[z * servers..(z + 1) * servers],
                    &mut order[z * servers..(z + 1) * servers],
                );
            }
        } else {
            let mut rows: Vec<(&mut [u32], &mut f64)> =
                order.chunks_mut(servers).zip(regret.iter_mut()).collect();
            dve_par::par_for_each_mut_with(threads, &mut rows, |z, (row, rho)| {
                **rho = order_zone(&cost[z * servers..(z + 1) * servers], row);
            });
        }
        CostMatrix {
            servers,
            zones,
            cost,
            order,
            regret,
        }
    }

    /// Updates the matrix across a churn step by touching only the
    /// affected zone columns, instead of rebuilding from all k clients.
    ///
    /// `old` is the instance the matrix currently describes, `new` the
    /// post-delta instance (built by [`CapInstance::apply_delta`], so
    /// survivor rows are carried): a leave subtracts the leaver's
    /// violator indicators from its old zone (read from `old`), a join
    /// adds the joiner's (read from `new`), and a move does one of each —
    /// at most two columns per event. The per-zone orderings and regrets
    /// are then re-derived for the touched zones only. Total work is
    /// O(|delta|·m + t·m) for t touched zones, versus the O(k·m)
    /// full [`CostMatrix::build`]; the result is **bit-identical** to a
    /// fresh build on `new` (integer counts, same sort keys).
    ///
    /// This is the convenience form for when both instances are alive at
    /// once. The churn engine carries the instance by value
    /// ([`CapInstance::apply_delta`] consumes it), so it calls the two
    /// phases directly: [`CostMatrix::retire_departures`] on the
    /// pre-churn instance, then [`CostMatrix::admit_arrivals`] on the
    /// carried one.
    pub fn apply_delta(&mut self, old: &CapInstance, new: &CapInstance, delta: &WorldDelta) {
        assert_eq!(
            old.delay_bound(),
            new.delay_bound(),
            "delay bound must be unchanged"
        );
        self.retire_departures(old, delta);
        self.admit_arrivals(new, delta);
    }

    /// Phase 1 of a churn update: subtract every departing row — leavers
    /// from their zone, movers from their *from* zone — reading the rows
    /// from the pre-churn instance (they may be recycled afterwards).
    /// Orderings are not touched; [`CostMatrix::admit_arrivals`] must
    /// follow with the same delta.
    pub fn retire_departures(&mut self, pre: &CapInstance, delta: &WorldDelta) {
        assert_eq!(
            pre.num_servers(),
            self.servers,
            "server set must be unchanged"
        );
        assert_eq!(pre.num_zones(), self.zones, "zone count must be unchanged");
        for leave in &delta.leaves {
            self.retire_client(pre, leave.client, leave.zone);
        }
        for mv in &delta.moves {
            self.retire_client(pre, mv.old_index, mv.from);
        }
    }

    /// Phase 2 of a churn update: add every arriving row — joiners to
    /// their zone, movers to their *to* zone — reading the rows from the
    /// post-churn instance, then re-derive the ordering and regret of
    /// every touched zone.
    pub fn admit_arrivals(&mut self, post: &CapInstance, delta: &WorldDelta) {
        assert_eq!(
            post.num_servers(),
            self.servers,
            "server set must be unchanged"
        );
        assert_eq!(post.num_zones(), self.zones, "zone count must be unchanged");
        for mv in &delta.moves {
            self.admit_client(post, mv.new_index, mv.to);
        }
        for join in &delta.joins {
            self.admit_client(post, join.client, join.zone);
        }
        self.refresh_zones(&delta.touched_zones());
    }

    /// Subtracts one client's violator indicators from `zone`'s column —
    /// the event-level half of [`CostMatrix::retire_departures`], used by
    /// the streaming engine where churn arrives one event at a time. The
    /// row is read from `pre`, the instance that still holds it; the
    /// zone's ordering/regret go stale until [`CostMatrix::refresh_zones`]
    /// runs. O(m).
    #[inline]
    pub fn retire_client(&mut self, pre: &CapInstance, client: usize, zone: usize) {
        let m = self.servers;
        let bound = pre.delay_bound();
        let counts = &mut self.cost[zone * m..(zone + 1) * m];
        pre.fold_obs_row(client, |j, delay| counts[j] -= u32::from(delay > bound));
    }

    /// Adds one client's violator indicators to `zone`'s column — the
    /// event-level half of [`CostMatrix::admit_arrivals`]. The row is
    /// read from `post`, the instance that admitted the client; the
    /// zone's ordering/regret go stale until [`CostMatrix::refresh_zones`]
    /// runs. O(m).
    #[inline]
    pub fn admit_client(&mut self, post: &CapInstance, client: usize, zone: usize) {
        let m = self.servers;
        let bound = post.delay_bound();
        let counts = &mut self.cost[zone * m..(zone + 1) * m];
        post.fold_obs_row(client, |j, delay| counts[j] += u32::from(delay > bound));
    }

    /// Re-derives the desirability ordering and regret of each listed
    /// zone from its current counts — the deferred tail of a run of
    /// [`CostMatrix::retire_client`]/[`CostMatrix::admit_client`] calls.
    /// After refreshing every touched zone the matrix is bit-identical to
    /// a fresh [`CostMatrix::build`] of the updated instance. O(zones·m):
    /// each zone is one counting sort over its column.
    pub fn refresh_zones(&mut self, zones: &[usize]) {
        self.refresh_zones_threads(zones, dve_par::default_threads());
    }

    /// [`CostMatrix::refresh_zones`] on an explicit worker team. Zones
    /// are refreshed independently (each order is a function of the
    /// zone's own counts alone), so each worker sorts its zones' order
    /// rows **in place** — per-shard owned column installs, no proposal
    /// buffers and no serial copy-back pass. The zone list is sorted and
    /// deduplicated first (required to carve the storage into disjoint
    /// mutable rows; exact, because re-sorting a zone reproduces its row
    /// and regret), so the result is bit-identical to the serial loop at
    /// any width.
    pub fn refresh_zones_threads(&mut self, zones: &[usize], threads: usize) {
        let m = self.servers;
        if threads <= 1 || zones.len() < PAR_ZONE_MIN {
            for &z in zones {
                self.regret[z] = order_zone(
                    &self.cost[z * m..(z + 1) * m],
                    &mut self.order[z * m..(z + 1) * m],
                );
            }
            return;
        }
        let mut zs: Vec<usize> = zones.to_vec();
        zs.sort_unstable();
        zs.dedup();
        // Carve `order`/`regret` into one disjoint mutable row per zone
        // by walking the sorted list with successive splits; `cost` stays
        // a shared read-only borrow of a different field.
        let cost = &self.cost;
        let mut rows: Vec<(usize, &mut [u32], &mut f64)> = Vec::with_capacity(zs.len());
        let mut order_tail: &mut [u32] = &mut self.order;
        let mut regret_tail: &mut [f64] = &mut self.regret;
        let mut consumed = 0usize; // zones already carved off the tails
        for &z in &zs {
            let tail = std::mem::take(&mut order_tail);
            let (_, tail) = tail.split_at_mut((z - consumed) * m);
            let (row, rest) = tail.split_at_mut(m);
            order_tail = rest;
            let rtail = std::mem::take(&mut regret_tail);
            let (_, rtail) = rtail.split_at_mut(z - consumed);
            let (rho, rrest) = rtail.split_at_mut(1);
            regret_tail = rrest;
            consumed = z + 1;
            rows.push((z, row, &mut rho[0]));
        }
        dve_par::par_for_each_mut_with(threads, &mut rows, |_, (z, row, rho)| {
            **rho = order_zone(&cost[*z * m..(*z + 1) * m], row);
        });
    }

    /// Number of servers `m`.
    pub fn num_servers(&self) -> usize {
        self.servers
    }

    /// Number of zones `n`.
    pub fn num_zones(&self) -> usize {
        self.zones
    }

    /// `C^I_sz` as an exact small-integer `f64`, bit-identical to
    /// [`CapInstance::iap_cost`].
    #[inline]
    pub fn cost(&self, server: usize, zone: usize) -> f64 {
        f64::from(self.cost[zone * self.servers + server])
    }

    /// `C^I_sz` as the underlying integer count.
    #[inline]
    pub fn count(&self, server: usize, zone: usize) -> u32 {
        self.cost[zone * self.servers + server]
    }

    /// Servers in the order GreZ probes them for `zone`: cost ascending,
    /// ties broken by server index.
    #[inline]
    pub fn order(&self, zone: usize) -> &[u32] {
        &self.order[zone * self.servers..(zone + 1) * self.servers]
    }

    /// The zone's regret `rho_z` (second-best cost − best cost, ≥ 0).
    #[inline]
    pub fn regret(&self, zone: usize) -> f64 {
        self.regret[zone]
    }

    /// Zones in decreasing-regret order (ties by zone index), the
    /// processing order of GreZ.
    pub fn zones_by_regret(&self) -> Vec<usize> {
        let mut zones: Vec<usize> = (0..self.zones).collect();
        zones.sort_by(|&a, &b| {
            self.regret[b]
                .partial_cmp(&self.regret[a])
                .expect("regrets are finite")
                .then(a.cmp(&b))
        });
        zones
    }

    /// Total IAP cost (eq. 4) of a target vector.
    pub fn total_cost(&self, target_of_zone: &[usize]) -> f64 {
        target_of_zone
            .iter()
            .enumerate()
            .map(|(z, &s)| self.cost(s, z))
            .sum()
    }

    /// The m×n cost table as row-major rows per *server* (the GAP layout
    /// used by the exact solvers), cloned once instead of m·n closure
    /// calls.
    pub fn server_major_rows(&self) -> Vec<Vec<f64>> {
        (0..self.servers)
            .map(|s| (0..self.zones).map(|z| self.cost(s, z)).collect())
            .collect()
    }
}

/// Clients per shard of the parallel count fold
/// ([`CostMatrix::build_threads`]).
const COUNT_BLOCK: usize = 4096;

/// Minimum zone count before the ordering/refresh paths bother spinning
/// up the worker team (below it the per-zone sorts are cheaper than the
/// scope setup).
const PAR_ZONE_MIN: usize = 64;

/// Element-wise sum of two per-worker count accumulators — the exact
/// (commutative, associative) merge of the reduce seam: the folded
/// counts are bit-identical at any thread count.
fn merge_counts(mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Widest count span, as a multiple of the server count, that
/// [`order_zone`] counting-sorts. A wider column (a flash-crowd zone
/// with thousands of members spread over few servers) takes the
/// comparison sort instead, so no zone costs more than O(m log m).
const SPAN_PER_SERVER: usize = 4;

thread_local! {
    /// Per-thread bucket table of [`order_zone`]'s counting sort. It
    /// grows to the widest span the thread has sorted and is reused, so
    /// after warm-up the kernel allocates nothing.
    static BUCKETS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The one order kernel: sorts `row`, a permutation of the zone's
/// servers, by (count ascending, index ascending) — the order GreZ
/// probes — and returns the zone's regret, second-best − best count (0
/// with fewer than two servers).
///
/// `C^I` counts are small integers, at most the zone's population, so
/// the kernel is a counting sort over the column's *span* (largest −
/// smallest count + 1): one pass finds the bounds, one fills the
/// buckets, one places each server at its bucket's next slot. Servers
/// are placed in index order, so tied counts keep ascending indices and
/// the row is exactly the comparison sort's, whatever permutation it
/// held before. Work is O(m + span). A column whose span exceeds
/// `SPAN_PER_SERVER · m` is comparison-sorted from its previous
/// permutation instead (the key is a strict total order, so the result
/// is the same).
fn order_zone(counts: &[u32], row: &mut [u32]) -> f64 {
    debug_assert_eq!(counts.len(), row.len());
    let Some((&first, rest)) = counts.split_first() else {
        return 0.0;
    };
    let (lo, hi) = rest
        .iter()
        .fold((first, first), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    let span = (hi - lo) as usize + 1;
    if span <= SPAN_PER_SERVER * counts.len() {
        BUCKETS.with(|buckets| {
            let mut next = buckets.borrow_mut();
            next.clear();
            next.resize(span, 0);
            for &c in counts {
                next[(c - lo) as usize] += 1;
            }
            // Exclusive prefix sums: each bucket's first slot.
            let mut start = 0;
            for slot in next.iter_mut() {
                let size = *slot;
                *slot = start;
                start += size;
            }
            for (s, &c) in counts.iter().enumerate() {
                let slot = &mut next[(c - lo) as usize];
                row[*slot as usize] = s as u32;
                *slot += 1;
            }
        });
    } else {
        row.sort_unstable_by_key(|&s| (counts[s as usize], s));
    }
    if row.len() >= 2 {
        f64::from(counts[row[1] as usize]) - f64::from(counts[row[0] as usize])
    } else {
        0.0
    }
}

/// Incremental evaluation state for IAP move-based search: maintains
/// per-server loads and the total cost (eq. 4) of a target vector, with
/// O(1) evaluation and application of shift and swap moves.
///
/// Invariant: `total_cost()` equals `CostMatrix::total_cost(target())`
/// and `loads()` equals the per-server zone-load sums of `target()` at
/// every point. Cost deltas are exact (integer-valued `f64`); loads
/// follow the same `-=`/`+=` update sequence the pre-refactor algorithms
/// used, so capacity decisions are bit-identical too.
#[derive(Debug, Clone)]
pub struct IncrementalEval<'a> {
    inst: &'a CapInstance,
    matrix: &'a CostMatrix,
    target: Vec<usize>,
    loads: Vec<f64>,
    total_cost: f64,
}

impl<'a> IncrementalEval<'a> {
    /// Builds the evaluation state of `target_of_zone` in O(n + m).
    pub fn new(
        inst: &'a CapInstance,
        matrix: &'a CostMatrix,
        target_of_zone: &[usize],
    ) -> IncrementalEval<'a> {
        assert_eq!(target_of_zone.len(), inst.num_zones());
        let mut loads = vec![0.0; inst.num_servers()];
        for (z, &s) in target_of_zone.iter().enumerate() {
            loads[s] += inst.zone_bps(z);
        }
        IncrementalEval {
            inst,
            matrix,
            total_cost: matrix.total_cost(target_of_zone),
            target: target_of_zone.to_vec(),
            loads,
        }
    }

    /// Re-syncs the state onto a post-churn instance and delta-updated
    /// matrix, carrying the target vector (the zone count is
    /// churn-invariant, so a zone→server map survives any
    /// [`WorldDelta`]). Loads and the total cost are recomputed against
    /// the new zone bandwidths in O(n + m), reusing both buffers —
    /// no O(k·m) work anywhere in the churn epoch.
    pub fn rebase<'b>(self, inst: &'b CapInstance, matrix: &'b CostMatrix) -> IncrementalEval<'b> {
        assert_eq!(self.target.len(), inst.num_zones());
        assert_eq!(matrix.num_zones(), inst.num_zones());
        let mut loads = self.loads;
        loads.clear();
        loads.resize(inst.num_servers(), 0.0);
        for (z, &s) in self.target.iter().enumerate() {
            loads[s] += inst.zone_bps(z);
        }
        IncrementalEval {
            inst,
            matrix,
            total_cost: matrix.total_cost(&self.target),
            target: self.target,
            loads,
        }
    }

    /// Current target vector.
    pub fn target(&self) -> &[usize] {
        &self.target
    }

    /// Current per-server loads (zone loads only, bits/s).
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Current total IAP cost (eq. 4).
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Consumes the state, returning the target vector.
    pub fn into_target(self) -> Vec<usize> {
        self.target
    }

    /// Cost change of moving zone `z` to server `s` (exact, O(1)).
    #[inline]
    pub fn shift_delta(&self, z: usize, s: usize) -> f64 {
        self.matrix.cost(s, z) - self.matrix.cost(self.target[z], z)
    }

    /// Whether moving zone `z` to server `s` strictly lowers the cost.
    ///
    /// Pure integer comparison; because `C^I` is integer-valued this is
    /// exactly the float test `new_cost < cur_cost - 1e-12` the naive
    /// path applies.
    #[inline]
    pub fn shift_improves(&self, z: usize, s: usize) -> bool {
        self.matrix.count(s, z) < self.matrix.count(self.target[z], z)
    }

    /// The current `C^I` count of zone `z` on its assigned server. A
    /// zone at zero violators can never be improved by any move (costs
    /// are non-negative), which lets search loops prune it outright.
    #[inline]
    pub fn current_count(&self, z: usize) -> u32 {
        self.matrix.count(self.target[z], z)
    }

    /// Whether moving zone `z` onto server `s` respects `s`'s capacity
    /// (the zone's current server only gains slack).
    #[inline]
    pub fn shift_fits(&self, z: usize, s: usize) -> bool {
        self.loads[s] + self.inst.zone_bps(z) <= self.inst.capacity(s) + 1e-9
    }

    /// Applies the shift of zone `z` to server `s`.
    pub fn apply_shift(&mut self, z: usize, s: usize) {
        let old = self.target[z];
        if old == s {
            return;
        }
        let demand = self.inst.zone_bps(z);
        self.total_cost += self.shift_delta(z, s);
        self.loads[old] -= demand;
        self.loads[s] += demand;
        self.target[z] = s;
    }

    /// Cost change of exchanging the servers of zones `a` and `b`
    /// (exact, O(1)).
    #[inline]
    pub fn swap_delta(&self, a: usize, b: usize) -> f64 {
        let (sa, sb) = (self.target[a], self.target[b]);
        self.matrix.cost(sb, a) + self.matrix.cost(sa, b)
            - self.matrix.cost(sa, a)
            - self.matrix.cost(sb, b)
    }

    /// Whether exchanging the servers of zones `a` and `b` strictly
    /// lowers the cost (integer-exact, see [`Self::shift_improves`]).
    #[inline]
    pub fn swap_improves(&self, a: usize, b: usize) -> bool {
        let (sa, sb) = (self.target[a], self.target[b]);
        self.matrix.count(sb, a) + self.matrix.count(sa, b)
            < self.matrix.count(sa, a) + self.matrix.count(sb, b)
    }

    /// Whether swapping zones `a` and `b` respects both capacities.
    #[inline]
    pub fn swap_fits(&self, a: usize, b: usize) -> bool {
        let (sa, sb) = (self.target[a], self.target[b]);
        let (da, db) = (self.inst.zone_bps(a), self.inst.zone_bps(b));
        self.loads[sb] - db + da <= self.inst.capacity(sb) + 1e-9
            && self.loads[sa] - da + db <= self.inst.capacity(sa) + 1e-9
    }

    /// Applies the swap of zones `a` and `b`.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        let (sa, sb) = (self.target[a], self.target[b]);
        if sa == sb {
            return;
        }
        let (da, db) = (self.inst.zone_bps(a), self.inst.zone_bps(b));
        self.total_cost += self.swap_delta(a, b);
        self.loads[sa] = self.loads[sa] - da + db;
        self.loads[sb] = self.loads[sb] - db + da;
        self.target.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn inst() -> CapInstance {
        crate::test_support::two_servers_three_zones()
    }

    #[test]
    fn matrix_matches_naive_scan() {
        let inst = inst();
        let cm = CostMatrix::build(&inst);
        for s in 0..inst.num_servers() {
            for z in 0..inst.num_zones() {
                assert_eq!(cm.cost(s, z), inst.iap_cost(s, z), "s={s} z={z}");
            }
        }
    }

    #[test]
    fn order_is_cost_then_index() {
        let inst = inst();
        let cm = CostMatrix::build(&inst);
        for z in 0..inst.num_zones() {
            let order = cm.order(z);
            assert_eq!(order.len(), 2);
            for w in order.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                assert!(
                    (cm.count(a, z), a) < (cm.count(b, z), b),
                    "zone {z}: order not strictly (cost, index) sorted"
                );
            }
        }
    }

    #[test]
    fn regret_is_second_minus_best() {
        let inst = inst();
        let cm = CostMatrix::build(&inst);
        for z in 0..inst.num_zones() {
            let mut costs: Vec<f64> = (0..2).map(|s| cm.cost(s, z)).collect();
            costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(cm.regret(z), costs[1] - costs[0]);
            assert!(cm.regret(z) >= 0.0);
        }
    }

    #[test]
    fn total_cost_matches_sum() {
        let inst = inst();
        let cm = CostMatrix::build(&inst);
        let target = vec![0, 1, 1];
        let naive: f64 = (0..3).map(|z| inst.iap_cost(target[z], z)).sum();
        assert_eq!(cm.total_cost(&target), naive);
    }

    #[test]
    fn incremental_tracks_moves_exactly() {
        let inst = inst();
        let cm = CostMatrix::build(&inst);
        let mut rng = StdRng::seed_from_u64(5);
        let mut eval = IncrementalEval::new(&inst, &cm, &[0, 0, 1]);
        for _ in 0..500 {
            if rng.gen::<f64>() < 0.5 {
                let z = rng.gen_range(0..3);
                let s = rng.gen_range(0..2);
                eval.apply_shift(z, s);
            } else {
                let a = rng.gen_range(0..3);
                let b = rng.gen_range(0..3);
                if a != b {
                    eval.apply_swap(a, b);
                }
            }
            // Exact agreement with the naive recomputation.
            assert_eq!(eval.total_cost(), cm.total_cost(eval.target()));
            let mut loads = [0.0; 2];
            for (z, &s) in eval.target().iter().enumerate() {
                loads[s] += inst.zone_bps(z);
            }
            assert_eq!(eval.loads(), &loads[..]);
        }
    }

    #[test]
    fn deltas_predict_applied_costs() {
        let inst = inst();
        let cm = CostMatrix::build(&inst);
        let mut eval = IncrementalEval::new(&inst, &cm, &[1, 1, 0]);
        let before = eval.total_cost();
        let delta = eval.shift_delta(0, 0);
        eval.apply_shift(0, 0);
        assert_eq!(eval.total_cost(), before + delta);

        let before = eval.total_cost();
        let delta = eval.swap_delta(1, 2);
        eval.apply_swap(1, 2);
        assert_eq!(eval.total_cost(), before + delta);
    }

    /// Churn fixture: a generated world, its instance/matrix, and a
    /// dynamics outcome with the carried post-delta instance.
    fn churn_fixture(
        seed: u64,
        joins: usize,
        leaves: usize,
        moves: usize,
    ) -> (CapInstance, CapInstance, dve_world::DynamicsOutcome) {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{apply_dynamics, DynamicsBatch, ErrorModel, ScenarioConfig, World};

        let mut rng = StdRng::seed_from_u64(seed);
        let topo = flat_waxman(40, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("4s-8z-80c-100cp").unwrap();
        let world = World::generate(&config, 40, &topo.as_of_node, &mut rng).unwrap();
        let inst = CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);
        let handle = dve_world::WorldDelays::from_matrix(delays, &world);
        let batch = DynamicsBatch {
            joins,
            leaves,
            moves,
        };
        let outcome = apply_dynamics(&world, &batch, 40, &mut rng);
        let carried = inst
            .clone()
            .apply_delta(&outcome, &handle, ErrorModel::PERFECT, &mut rng);
        (inst, carried, outcome)
    }

    #[test]
    fn delta_update_matches_fresh_build() {
        let (old, new, outcome) = churn_fixture(3, 20, 25, 15);
        let mut matrix = CostMatrix::build(&old);
        matrix.apply_delta(&old, &new, &outcome.delta);
        assert_eq!(matrix, CostMatrix::build(&new));
    }

    #[test]
    fn empty_delta_update_is_identity() {
        let (old, new, outcome) = churn_fixture(5, 0, 0, 0);
        let mut matrix = CostMatrix::build(&old);
        let before = matrix.clone();
        matrix.apply_delta(&old, &new, &outcome.delta);
        assert_eq!(matrix, before);
    }

    #[test]
    fn delta_update_chains_across_epochs() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{apply_dynamics, DynamicsBatch, ErrorModel, ScenarioConfig, World};

        let mut rng = StdRng::seed_from_u64(21);
        let topo = flat_waxman(40, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("4s-8z-80c-100cp").unwrap();
        let mut world = World::generate(&config, 40, &topo.as_of_node, &mut rng).unwrap();
        let mut inst =
            CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);
        let handle = dve_world::WorldDelays::from_matrix(delays, &world);
        let mut matrix = CostMatrix::build(&inst);
        let batch = DynamicsBatch {
            joins: 10,
            leaves: 12,
            moves: 8,
        };
        for epoch in 0..5 {
            let outcome = apply_dynamics(&world, &batch, 40, &mut rng);
            // Alternate between the convenience form and the two-phase
            // form the engine uses around the consuming instance carry.
            let new_inst = if epoch % 2 == 0 {
                let new_inst =
                    inst.clone()
                        .apply_delta(&outcome, &handle, ErrorModel::PERFECT, &mut rng);
                matrix.apply_delta(&inst, &new_inst, &outcome.delta);
                new_inst
            } else {
                matrix.retire_departures(&inst, &outcome.delta);
                let new_inst = inst.apply_delta(&outcome, &handle, ErrorModel::PERFECT, &mut rng);
                matrix.admit_arrivals(&new_inst, &outcome.delta);
                new_inst
            };
            assert_eq!(matrix, CostMatrix::build(&new_inst));
            world = outcome.world;
            inst = new_inst;
        }
    }

    /// Event-level matrix maintenance (retire/admit per client + deferred
    /// zone refresh) tracks a fresh build across a random stream of
    /// in-place instance ops.
    #[test]
    fn per_client_updates_match_fresh_build() {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{ErrorModel, ScenarioConfig, World};
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(31);
        let topo = flat_waxman(40, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("4s-8z-80c-100cp").unwrap();
        let world = World::generate(&config, 40, &topo.as_of_node, &mut rng).unwrap();
        let mut inst =
            CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);
        let handle = dve_world::WorldDelays::from_matrix(delays, &world);
        let model = world.config.bandwidth;
        let mut matrix = CostMatrix::build(&inst);

        for round in 0..40 {
            let mut touched: Vec<usize> = Vec::new();
            // A micro-batch of a few random events, maintained per event.
            for _ in 0..3 {
                match rng.gen_range(0..3) {
                    0 if inst.num_clients() > 0 => {
                        let c = rng.gen_range(0..inst.num_clients());
                        let z = inst.zone_of(c);
                        matrix.retire_client(&inst, c, z);
                        inst.stream_leave(c, &model);
                        touched.push(z);
                    }
                    1 => {
                        let node = rng.gen_range(0..40);
                        let z = rng.gen_range(0..world.zones);
                        let idx = inst.stream_join(
                            node,
                            z,
                            &handle,
                            &model,
                            ErrorModel::PERFECT,
                            &mut rng,
                        );
                        matrix.admit_client(&inst, idx, z);
                        touched.push(z);
                    }
                    _ if inst.num_clients() > 0 => {
                        let c = rng.gen_range(0..inst.num_clients());
                        let from = inst.zone_of(c);
                        let to = rng.gen_range(0..world.zones);
                        if from != to {
                            matrix.retire_client(&inst, c, from);
                            inst.stream_move(c, to, &model);
                            matrix.admit_client(&inst, c, to);
                            touched.push(from);
                            touched.push(to);
                        }
                    }
                    _ => {}
                }
            }
            touched.sort_unstable();
            touched.dedup();
            matrix.refresh_zones(&touched);
            assert_eq!(matrix, CostMatrix::build(&inst), "round {round}");
        }
    }

    #[test]
    fn rebase_carries_target_and_resyncs_state() {
        let (old, new, outcome) = churn_fixture(7, 15, 20, 10);
        let old_matrix = CostMatrix::build(&old);
        let target: Vec<usize> = (0..old.num_zones())
            .map(|z| z % old.num_servers())
            .collect();
        let eval = IncrementalEval::new(&old, &old_matrix, &target);

        let mut new_matrix = old_matrix.clone();
        new_matrix.apply_delta(&old, &new, &outcome.delta);
        let rebased = eval.rebase(&new, &new_matrix);
        assert_eq!(rebased.target(), &target[..]);
        let fresh = IncrementalEval::new(&new, &new_matrix, &target);
        assert_eq!(rebased.total_cost(), fresh.total_cost());
        assert_eq!(rebased.loads(), fresh.loads());
    }

    /// The reference the order kernel must reproduce: the comparison
    /// sort by (count, index) from the identity, and its regret.
    fn reference_order(counts: &[u32]) -> (Vec<u32>, u64) {
        let mut row: Vec<u32> = (0..counts.len() as u32).collect();
        row.sort_by_key(|&s| (counts[s as usize], s));
        let rho = if row.len() >= 2 {
            f64::from(counts[row[1] as usize]) - f64::from(counts[row[0] as usize])
        } else {
            0.0
        };
        (row, rho.to_bits())
    }

    /// A column of `m` counts in `lo..lo + span` whose span is exactly
    /// `span` (both ends present) once `m >= 2`.
    fn column(rng: &mut StdRng, m: usize, lo: u32, span: u32) -> Vec<u32> {
        let span = if m >= 2 { span.max(1) } else { 1 };
        let mut counts: Vec<u32> = (0..m).map(|_| lo + rng.gen_range(0..span)).collect();
        if m >= 2 {
            let i = rng.gen_range(0..m);
            let j = (i + rng.gen_range(1..m)) % m;
            counts[i] = lo;
            counts[j] = lo + span - 1;
        }
        counts
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The counting-sort kernel and its comparison-sort fallback are
        /// bit-identical to the (count, index) sort on arbitrary columns:
        /// all-equal, narrow spans thick with ties, spans either side of
        /// the fallback threshold, and spans up to 10^6 — through both
        /// callers (the build, and the serial refresh from a scrambled
        /// previous row).
        #[test]
        fn order_kernel_matches_comparison_sort(seed in proptest::prelude::any::<u64>()) {
            use rand::seq::SliceRandom;
            let mut rng = StdRng::seed_from_u64(seed);
            for m in [0usize, 1, 2, 3, 63, 64, 65, 200] {
                let threshold = (SPAN_PER_SERVER * m) as u32;
                let mut spans = vec![1, rng.gen_range(2..=8), rng.gen_range(1..=1_000_000)];
                spans.extend([threshold.saturating_sub(1), threshold, threshold + 1]);
                for span in spans {
                    let lo = if rng.gen::<bool>() { 0 } else { rng.gen_range(0..1_000_000) };
                    let counts = column(&mut rng, m, lo, span);
                    let (want_row, want_rho) = reference_order(&counts);

                    let built = CostMatrix::from_counts_threads(m, 1, counts.clone(), 1);
                    assert_eq!(built.order(0), &want_row[..], "build m={m} span={span}");
                    assert_eq!(built.regret(0).to_bits(), want_rho, "build m={m} span={span}");

                    let mut scrambled = want_row.clone();
                    scrambled.shuffle(&mut rng);
                    let stale = CostMatrix {
                        servers: m,
                        zones: 1,
                        cost: counts.clone(),
                        order: scrambled,
                        regret: vec![f64::NAN],
                    };
                    let mut refreshed = stale;
                    refreshed.refresh_zones_threads(&[0], 1);
                    assert_eq!(refreshed.order(0), &want_row[..], "refresh m={m} span={span}");
                    assert_eq!(refreshed.regret(0).to_bits(), want_rho, "refresh m={m} span={span}");
                }
            }
        }
    }

    #[test]
    fn empty_instance_shapes() {
        let inst =
            CapInstance::from_raw(1, 0, vec![], vec![], vec![0.0], vec![], vec![1000.0], 250.0);
        let cm = CostMatrix::build(&inst);
        assert_eq!(cm.num_zones(), 0);
        assert_eq!(cm.total_cost(&[]), 0.0);
        assert!(cm.zones_by_regret().is_empty());
    }
}
