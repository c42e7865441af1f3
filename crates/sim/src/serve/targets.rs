//! The target layer (the paper's IAP): where each zone is hosted. The
//! flush's zone-scoped repair — quality shifts over the touched zones,
//! scoped evacuation of overloaded servers, and the escalation to the
//! global zone-level repair — plus zone migration, and the mass
//! evacuation and re-admission sweep of a server failure and recovery.
//!
//! Every destination pick is one rule, [`ServeEngine::cheapest_fit`]:
//! the server of least `C^I` that is up and has room, ties to the
//! lowest index.

use super::books::LoadBooks;
use super::{ServeEngine, ServeError};
use crate::repair::repair_targets_with;
use std::cmp::Reverse;

/// What a [`ServeEngine::fail_server`] mass evacuation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// The failed server.
    pub server: usize,
    /// Zones evacuated off the failed server (every hosted zone, when
    /// at least one survivor exists).
    pub zones_evacuated: usize,
    /// Relayed clients shed off the failed server's forwarding books.
    pub relays_shed: usize,
    /// Whether every surviving server ended within capacity — `false`
    /// is the degraded-mode signal: the survivors absorbed more than
    /// they fit and admission control should start pushing back.
    pub feasible: bool,
}

/// What a [`ServeEngine::restore_server`] re-admission sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// The recovered server.
    pub server: usize,
    /// Zones migrated by the sweep (pulled onto the recovered capacity
    /// or drained off overloaded survivors).
    pub zones_migrated: usize,
    /// Whether every server ended within capacity.
    pub feasible: bool,
}

impl ServeEngine {
    /// `R_z` of zone `z` in stream units.
    fn zone_demand(&self, z: usize) -> u64 {
        LoadBooks::zone_units(self.inst.clients_in_zone(z).len())
    }

    /// The cheapest destination for zone `z` other than `except`: the
    /// least `C^I` among servers that are up and fit `demand` more
    /// units, ties to the lowest index.
    fn cheapest_fit(&self, z: usize, except: usize, demand: u64) -> Option<usize> {
        (0..self.inst.num_servers())
            .filter(|&d| d != except && !self.down[d] && self.books.fits(d, demand))
            .min_by_key(|&d| self.matrix.count(d, z))
    }

    /// The zone-scoped target repair: quality shifts over touched zones,
    /// then scoped evacuation of any server pushed over capacity.
    /// Returns the migrated zones and whether it escalated to the full
    /// repair.
    pub(super) fn repair_targets(&mut self, touched: &[usize]) -> (Vec<usize>, bool) {
        let m = self.inst.num_servers();
        // The accumulator recycles through the scratch pool; callers
        // restore it (`self.scratch.migrated = migrated`) once the
        // returned list has been consumed.
        let mut migrated = std::mem::take(&mut self.scratch.migrated);
        migrated.clear();

        // Quality shifts (the same rule as `repair_assignment_with`'s
        // improvement sweep, restricted to touched columns). Two exact
        // prunes keep the sweep O(1) per settled zone where the naive
        // form pays O(m) for every touched zone:
        // * a zone whose demand exceeds the best headroom on any server
        //   cannot fit anywhere, so no scan can move it (the saturated
        //   regime, where every server a flash crowd filled would be
        //   probed and rejected);
        // * otherwise, walking the matrix's (cost, index)-sorted order —
        //   refreshed for exactly these zones just before this runs —
        //   picks the same server a full scan's `min_by` over fitting
        //   servers would, and a zone already on its cheapest server
        //   exits at the first entry (the quiet regime).
        let mut headroom = self.books.max_headroom();
        for &z in touched {
            let cur = self.target_of_zone[z];
            let cur_count = self.matrix.count(cur, z);
            if cur_count == 0 {
                continue;
            }
            let demand = self.zone_demand(z);
            if demand as i64 > headroom {
                continue;
            }
            for i in 0..m {
                let s = self.matrix.order(z)[i] as usize;
                if self.matrix.count(s, z) >= cur_count {
                    break;
                }
                if self.books.fits(s, demand) {
                    self.migrate_zone(z, s);
                    migrated.push(z);
                    headroom = self.books.max_headroom();
                    break;
                }
            }
        }

        // Scoped capacity restoration: a flush can only add load via
        // touched-zone growth or forwarding growth, so overloads are
        // rare and local; evacuate them largest-zone-first.
        let mut restored = true;
        for s in 0..m {
            if !self.books.fits(s, 0) && !self.evacuate(s, &mut migrated) {
                restored = false;
            }
        }
        let mut full = false;
        if !restored && self.capacity_ok && !self.down.iter().any(|&d| d) {
            // The engine was feasible and a local evacuation cannot keep
            // it so: escalate to the global zone-level repair. Only the
            // zone→server map is recomputed (O(zones × servers)); each
            // changed target is then applied through `migrate_zone`, so
            // contact re-decisions stay scoped to the members of zones
            // that actually moved — where a full `repair_assignment_with`
            // would re-run GreC over the entire population inside one
            // latency-accounted flush. The fast path's own migrations
            // already sit in `migrated`; the escalation's go on top so
            // the counters cover everything this flush moved. With any
            // server down the escalation stays disarmed: a global
            // repair cannot conjure the missing capacity, and degraded
            // mode promises bounded (zone-scoped) work per flush.
            let plan = repair_targets_with(&self.inst, &self.matrix, &self.target_of_zone);
            for (z, &dest) in plan.iter().enumerate() {
                if dest != self.target_of_zone[z] {
                    self.migrate_zone(z, dest);
                    migrated.push(z);
                }
            }
            self.stats.full_repairs += 1;
            full = true;
        }
        migrated.sort_unstable();
        migrated.dedup();
        (migrated, full)
    }

    /// Moves zone `z` to server `s` and re-decides every member's
    /// contact immediately: a migration invalidates the members' contact
    /// choices (a direct client's old contact becomes a forwarding relay
    /// against the new target), and leaving the stale choices booked
    /// would show the repair loop a transient overload that is not real.
    fn migrate_zone(&mut self, z: usize, s: usize) {
        let old = self.target_of_zone[z];
        self.books
            .move_zone(old, s, self.inst.clients_in_zone(z).len());
        self.target_of_zone[z] = s;
        // `check_invariants` holds the hosted-zone book to the inverse of
        // the zone → server map (`HostedZones`), so `old` lists `z`.
        let pos = self.zones_of_server[old]
            .iter()
            .position(|&x| x == z)
            .expect("hosted-zone book is consistent");
        self.zones_of_server[old].swap_remove(pos);
        self.zones_of_server[s].push(z);
        for i in 0..self.inst.clients_in_zone(z).len() {
            let c = self.inst.clients_in_zone(z)[i];
            self.decide_contact(c);
        }
    }

    /// Evacuates overloaded server `s`: first sheds relayed clients
    /// (re-deciding their contacts; the capacity fit steers them off `s`
    /// while it is over — the local counterpart of what the full GreC
    /// pass does globally), then migrates hosted zones largest-first to
    /// their [`ServeEngine::cheapest_fit`] (the same rule as
    /// `repair_assignment_with`'s step 1, for one server). Returns
    /// whether `s` ended within capacity.
    fn evacuate(&mut self, s: usize, migrated: &mut Vec<usize>) -> bool {
        let m = self.inst.num_servers();
        // Restricting each shed re-decision to servers with *any*
        // headroom right now is exact: a relay fit needs
        // `load + overhead <= capacity` with `overhead > 0`, so a server
        // already at or over capacity can never win, and during this
        // loop every other server's load only grows (a shed client
        // re-relays elsewhere or goes unserved) while `s` itself stays
        // over capacity for as long as the loop runs — the fit check
        // inside `Contacts::decide_among` remains authoritative. Under a
        // flash crowd almost every server is saturated, so this turns
        // thousands of full-width scans into a handful of probes.
        let mut room = std::mem::take(&mut self.scratch.room);
        room.clear();
        room.extend((0..m).filter(|&d| d != s && self.books.fits(d, 1)));
        while !self.books.fits(s, 0) {
            let Some(c) = self.contacts.last_relayed(s) else {
                break;
            };
            // Either the client relays elsewhere / returns to its target
            // (the list shrinks), or it re-picks `s` — which the fit
            // check only allows once `s` is back within capacity, ending
            // the loop either way.
            self.contacts.decide_among(
                &self.inst,
                &self.target_of_zone,
                &mut self.books,
                c,
                room.iter().copied(),
            );
        }
        self.scratch.room = room;
        if self.books.fits(s, 0) {
            // The sheds were enough: the zone pass below would stop at
            // its first check.
            return true;
        }
        // The hosted-zone book plus a (demand desc, zone asc) sort is
        // exactly the order of a full-table scan (ascending zone indices
        // through a stable sort on demand).
        let mut zones = std::mem::take(&mut self.scratch.evac_zones);
        zones.clear();
        zones.extend_from_slice(&self.zones_of_server[s]);
        zones.sort_by_key(|&z| (Reverse(self.zone_demand(z)), z));
        let mut headroom = self.books.max_headroom();
        for &z in &zones {
            let demand = self.zone_demand(z);
            // Moving an empty zone frees nothing, and every server of
            // load within capacity would take it, a failed one too. The
            // zones are sorted largest first, so the rest are empty.
            if self.books.fits(s, 0) || demand == 0 {
                break;
            }
            // No server can take this zone: the scan below could only
            // fail, so skip it (exact — the fit bound is the same).
            if demand as i64 > headroom {
                continue;
            }
            if let Some(dest) = self.cheapest_fit(z, s, demand) {
                self.migrate_zone(z, dest);
                migrated.push(z);
                headroom = self.books.max_headroom();
            }
        }
        self.scratch.evac_zones = zones;
        self.books.fits(s, 0)
    }

    /// Fails server `server` through the live stream path: flushes
    /// pending work, retires the server's capacity to zero (so every
    /// downstream fit check excludes it with no special cases), then
    /// runs the **mass evacuation** — every hosted zone leaves,
    /// largest-demand first, to the cheapest `C^I` survivor with room,
    /// or (degraded mode) to the survivor with the most headroom when
    /// none fits: a deliberately overloaded survivor beats a dead host.
    /// Every relay still routed through the server is then shed
    /// (counted in [`ServeStats::shed_events`](super::ServeStats::shed_events)).
    ///
    /// Never escalates to a full repair and never panics: if no
    /// survivor exists at all, hosted zones stay pinned to the dead
    /// server and the engine simply reports infeasible. Idempotent on
    /// an already-down server.
    pub fn fail_server(&mut self, server: usize) -> Result<FailoverReport, ServeError> {
        let m = self.inst.num_servers();
        if server >= m {
            return Err(ServeError::UnknownServer { server, servers: m });
        }
        self.flush_now();
        if self.down[server] {
            return Ok(FailoverReport {
                server,
                zones_evacuated: 0,
                relays_shed: 0,
                feasible: self.capacity_ok,
            });
        }
        self.down[server] = true;
        self.set_capacity(server, 0.0);
        self.stats.failovers += 1;

        let mut zones = std::mem::take(&mut self.scratch.evac_zones);
        zones.clear();
        zones.extend_from_slice(&self.zones_of_server[server]);
        zones.sort_by_key(|&z| (Reverse(self.zone_demand(z)), z));
        let mut evacuated = 0usize;
        for &z in &zones {
            if let Some(dest) = self.evacuation_dest(server, z) {
                self.migrate_zone(z, dest);
                evacuated += 1;
            }
        }
        self.scratch.evac_zones = zones;
        // Relays from zones hosted elsewhere may still route through
        // the dead server; shed them all (each re-decision shrinks the
        // list — capacity 0 keeps re-picking it impossible).
        let mut shed = 0usize;
        while let Some(c) = self.contacts.last_relayed(server) {
            self.decide_contact(c);
            shed += 1;
        }
        self.stats.zones_migrated += evacuated as u64;
        self.stats.shed_events += shed as u64;
        self.capacity_ok = self.books.within_capacity();
        Ok(FailoverReport {
            server,
            zones_evacuated: evacuated,
            relays_shed: shed,
            feasible: self.capacity_ok,
        })
    }

    /// Where zone `z` evacuates to when `from` fails: its
    /// [`ServeEngine::cheapest_fit`], else the survivor with the most
    /// capacity headroom (ties: lowest index — deterministic). `None`
    /// only when every other server is down too.
    fn evacuation_dest(&self, from: usize, z: usize) -> Option<usize> {
        let fit = self.cheapest_fit(z, from, self.zone_demand(z));
        if fit.is_some() {
            return fit;
        }
        // Ranked in bits/s: floored units would tie fractional
        // capacities that differ.
        let mut best: Option<(f64, usize)> = None;
        for d in 0..self.inst.num_servers() {
            if d == from || self.down[d] {
                continue;
            }
            let headroom = self.inst.capacity(d) - self.books.load_bps(d);
            if best.is_none_or(|(h, _)| headroom > h) {
                best = Some((headroom, d));
            }
        }
        best.map(|(_, d)| d)
    }

    /// Recovers server `server`: flushes pending work, restores the
    /// nominal capacity, and runs the **re-admission sweep** — the same
    /// zone-scoped repair the flush path uses, over every zone: quality
    /// shifts pull zones onto the recovered capacity where that wins,
    /// and the evacuation loop drains any survivor still overloaded
    /// from the degraded window. Deterministic, and never escalates to
    /// the full-repair fallback (the sweep either restores feasibility
    /// locally or the engine was already infeasible before the flush,
    /// which disarms the escalation guard). Idempotent on an up server.
    pub fn restore_server(&mut self, server: usize) -> Result<RestoreReport, ServeError> {
        let m = self.inst.num_servers();
        if server >= m {
            return Err(ServeError::UnknownServer { server, servers: m });
        }
        self.flush_now();
        if !self.down[server] {
            return Ok(RestoreReport {
                server,
                zones_migrated: 0,
                feasible: self.capacity_ok,
            });
        }
        self.down[server] = false;
        self.set_capacity(server, self.nominal_capacity[server]);
        self.stats.recoveries += 1;
        // Zones still pinned to a dead host (stranded by a window with
        // no survivors) force-move onto live capacity first — same
        // forced-placement rule as the failover evacuation.
        let mut rescued = 0usize;
        for z in 0..self.inst.num_zones() {
            let pinned = self.target_of_zone[z];
            if self.down[pinned] {
                if let Some(dest) = self.evacuation_dest(pinned, z) {
                    self.migrate_zone(z, dest);
                    rescued += 1;
                }
            }
        }
        let mut all = std::mem::take(&mut self.scratch.touched);
        all.clear();
        all.extend(0..self.inst.num_zones());
        let (migrated, full) = self.repair_targets(&all);
        debug_assert!(!full, "restore sweep never escalates to full repair");
        if !full {
            self.repair_contacts(&all, &migrated, &[]);
        }
        self.scratch.touched = all;
        let moved = rescued + migrated.len();
        self.scratch.migrated = migrated;
        self.stats.zones_migrated += moved as u64;
        self.capacity_ok = self.books.within_capacity();
        Ok(RestoreReport {
            server,
            zones_migrated: moved,
            feasible: self.capacity_ok,
        })
    }

    /// Sets server `s`'s capacity (failure, recovery) in the instance
    /// and in the load books.
    fn set_capacity(&mut self, s: usize, capacity: f64) {
        self.inst.set_capacity(s, capacity);
        self.books.set_capacity(s, capacity);
    }
}
