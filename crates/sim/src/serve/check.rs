//! The engine's invariant check: every carried book against a rebuild
//! from the targets, the contacts and the instance.

use super::{books_of, Pending, ServeEngine};
use crate::ids::IdState;
use dve_assign::CostMatrix;

/// A book of a [`ServeEngine`] that [`ServeEngine::check_invariants`]
/// found out of step with a rebuild from the engine's targets, contacts
/// and instance. Load books are in stream units (f·S) and compare with
/// `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A per-client book's length differs from the population, or a
    /// target or contact is out of range.
    Shape,
    /// The id table disagrees with the index → id map, the pending
    /// buffer or the deferred queue.
    IdTable,
    /// A server's capacity or admission line in stream units differs
    /// from a conversion of its capacity, or a failed server holds
    /// capacity.
    Capacity {
        /// The server.
        server: usize,
    },
    /// A zone targets a failed server while a server is up.
    TargetDown {
        /// The zone.
        zone: usize,
    },
    /// A zone's booked relay rate is not `2(1 + n_z)` units, or its
    /// `R_z` in the instance is not the bandwidth model's.
    ZoneRate {
        /// The zone.
        zone: usize,
    },
    /// A server's hosted-zone load differs from the rebuild, or in
    /// bits/s from the sum of its zones' `R_z`.
    ZoneLoad {
        /// The server.
        server: usize,
    },
    /// A server's forwarding load differs from the rebuild, or its
    /// whole load in bits/s from `Assignment::server_loads`.
    ForwardLoad {
        /// The server.
        server: usize,
    },
    /// A (zone, contact) relay count differs from the rebuild.
    RelayCount {
        /// The zone.
        zone: usize,
        /// The contact server.
        server: usize,
    },
    /// A shed-list entry or relay mark disagrees with the client's
    /// contact and target (`client` is the population size when the
    /// lists hold the wrong number of entries).
    RelayList {
        /// The client index.
        client: usize,
    },
    /// The hosted-zone book is not the inverse of the zone → server map.
    HostedZones {
        /// The zone.
        zone: usize,
    },
    /// A zone's unserved list is not exactly its on-target violators,
    /// or a position is out of step (`zone` is the zone count when the
    /// position book marks the wrong number of clients).
    UnservedList {
        /// The zone.
        zone: usize,
    },
    /// A written rescue certificate differs from a fresh one for the
    /// zone's current target.
    Certificate {
        /// The zone.
        zone: usize,
        /// The client index.
        client: usize,
    },
    /// The feasibility flag disagrees with the load books.
    Feasibility,
    /// The carried cost matrix differs from a fresh build.
    CostMatrix,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine book out of step with its rebuild: {self:?}")
    }
}

impl std::error::Error for InvariantViolation {}

impl ServeEngine {
    /// Checks every carried book against a rebuild from the targets,
    /// the contacts and the instance, comparing with `==`: the cost
    /// matrix, the capacities and admission lines in stream units, the
    /// per-zone rates, the zone and forwarding loads, the relay
    /// counts, the shed lists and relay marks, the hosted-zone book, the
    /// unserved lists and their certificates, the id table, and the
    /// feasibility flag. The loads are also compared in bits/s with
    /// `Assignment::server_loads`, the reference that shares no unit
    /// formula with the books. No zone may target a failed server while
    /// a server is up. The error names the first book found out of
    /// step. O(k·m); a soak run or a live server can call it between
    /// flushes.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let inst = &self.inst;
        let (k, m, n) = (inst.num_clients(), inst.num_servers(), inst.num_zones());
        if self.id_of_client.len() != k
            || self.target_of_zone.len() != n
            || self.target_of_zone.iter().any(|&s| s >= m)
        {
            return Err(InvariantViolation::Shape);
        }
        self.contacts.check_shape(k, m)?;
        self.check_ids()?;
        if let Some(server) = (0..m).find(|&s| self.down[s] && inst.capacity(s) != 0.0) {
            return Err(InvariantViolation::Capacity { server });
        }
        if self.down.contains(&false) {
            if let Some(zone) = self.target_of_zone.iter().position(|&s| self.down[s]) {
                return Err(InvariantViolation::TargetDown { zone });
            }
        }
        if let Some(zone) =
            (0..n).find(|&z| inst.zone_bps(z) != self.model.zone_bps(inst.clients_in_zone(z).len()))
        {
            return Err(InvariantViolation::ZoneRate { zone });
        }
        let mut hosted_bps = vec![0.0; m];
        for (z, &s) in self.target_of_zone.iter().enumerate() {
            hosted_bps[s] += inst.zone_bps(z);
        }
        let reference = self.assignment().server_loads(inst);
        let rebuilt = books_of(
            inst,
            &self.model,
            self.config.degradation.headroom,
            &self.target_of_zone,
            self.contacts.as_slice(),
        );
        self.books.check(&rebuilt, &hosted_bps, &reference)?;
        self.contacts.check(inst, &self.target_of_zone)?;
        // Hosted-zone book: exactly the inverse of the zone → server map.
        let mut hosted = vec![0usize; n];
        for (s, list) in self.zones_of_server.iter().enumerate() {
            for &z in list {
                if z >= n || self.target_of_zone[z] != s {
                    return Err(InvariantViolation::HostedZones { zone: z });
                }
                hosted[z] += 1;
            }
        }
        if let Some(zone) = hosted.iter().position(|&h| h != 1) {
            return Err(InvariantViolation::HostedZones { zone });
        }
        if self.capacity_ok != self.books.within_capacity() {
            return Err(InvariantViolation::Feasibility);
        }
        if self.matrix != CostMatrix::build(inst) {
            return Err(InvariantViolation::CostMatrix);
        }
        Ok(())
    }

    /// The id table against the index → id map, the pending buffer and
    /// the deferred queue: every buffered Join's id is joining, every
    /// buffered Leave's id is flagged leaving, and every buffered
    /// Move's id is joining or live.
    fn check_ids(&self) -> Result<(), InvariantViolation> {
        let census = self.ids.census().ok_or(InvariantViolation::IdTable)?;
        let mut joins = 0;
        let mut leaves = 0;
        for ev in &self.pending {
            let ok = match *ev {
                Pending::Join { id, .. } => {
                    joins += 1;
                    matches!(self.ids.state(id), IdState::Joining { .. })
                }
                Pending::Leave { id, .. } => {
                    leaves += 1;
                    matches!(
                        self.ids.state(id),
                        IdState::Joining { leaving: true } | IdState::Live { leaving: true, .. }
                    )
                }
                Pending::Move { id, .. } => matches!(
                    self.ids.state(id),
                    IdState::Joining { .. } | IdState::Live { .. }
                ),
            };
            if !ok {
                return Err(InvariantViolation::IdTable);
            }
        }
        let consistent = census.live == self.id_of_client.len()
            && census.joining == joins
            && census.leaving == leaves
            && census.deferred == self.deferred.len()
            && self
                .id_of_client
                .iter()
                .enumerate()
                .all(|(c, &id)| self.ids.index(id) == Some(c))
            && self
                .deferred
                .iter()
                .all(|d| self.ids.state(d.id) == IdState::Deferred);
        if consistent {
            Ok(())
        } else {
            Err(InvariantViolation::IdTable)
        }
    }
}
