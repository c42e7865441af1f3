//! The load books of the paper's bandwidth model (§2.1), in stream
//! units.
//!
//! Every rate of the model is a whole number of stream units f·S: a zone
//! of `n` clients costs its target `n(n + 1)` units and a relayed member
//! costs its contact `2(1 + n)`. So the loads, the capacities and the
//! admission lines are `u64` unit counts, converted from bits/s once per
//! capacity change, and their sums do not depend on order. Forwarding is
//! booked as a relay count per (zone, contact) at a per-zone rate; a
//! population change is re-booked for the whole zone in O(m), however
//! many relays it has. This is the only file that knows the units.

use super::InvariantViolation;

/// The slack of a bits/s fit, `load ≤ capacity + 1e-9`. The two
/// capacity conversions below apply it once, so a unit verdict equals
/// that `f64` verdict for every capacity; for a capacity in whole bits/s
/// it changes nothing.
const SLACK_BPS: f64 = 1e-9;

/// The largest whole number of stream units `q` with `q · unit ≤ bps`,
/// by the `f64` product: an exact floor, where `bps / unit` alone can
/// round up across a boundary.
fn units_within(bps: f64, unit: f64) -> u64 {
    let mut q = (bps / unit).max(0.0) as u64;
    while q > 0 && q as f64 * unit > bps {
        q -= 1;
    }
    while (q + 1) as f64 * unit <= bps {
        q += 1;
    }
    q
}

/// A server's capacity in stream units: the largest load that fits.
fn capacity_units(capacity: f64, unit: f64) -> u64 {
    units_within(capacity + SLACK_BPS, unit)
}

/// A server's admission line in stream units: the largest load at which
/// a join still passes, `(1 − headroom) · capacity`.
fn admission_units(capacity: f64, headroom: f64, unit: f64) -> u64 {
    units_within((1.0 - headroom) * capacity + SLACK_BPS, unit)
}

/// `R^C` of one relayed member of a zone of `n` clients in stream
/// units: `2(1 + n)`.
fn relay_units(n: usize) -> u64 {
    2 * (1 + n as u64)
}

/// Per-server loads, capacities and admission lines, and per-zone relay
/// counts and rates, all in stream units.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct LoadBooks {
    /// The model's stream rate f·S in bits/s: the unit of every book.
    unit_bps: f64,
    /// The admission headroom fraction the admission lines apply.
    headroom: f64,
    /// Per-server load from hosted zones: the sum of `n_z(n_z + 1)`
    /// over the hosted zones (`R_z`).
    zone_load: Vec<u64>,
    /// Per-server load from relayed clients: the sum over zones of
    /// `relay_count[z][s] · relay_rate[z]`.
    forward_load: Vec<u64>,
    /// Relayed clients per (zone, contact), zone-major: entry `z·m + s`
    /// counts the members of zone `z` relayed through server `s`.
    relay_count: Vec<u32>,
    /// The forwarding rate booked per relayed member of each zone,
    /// `2(1 + n_z)` (`R^C = 2R^T`). A population change leaves it stale
    /// until [`LoadBooks::rebook_relays`] runs for the zone.
    relay_rate: Vec<u64>,
    /// Per-server capacity; 0 while the server is down.
    cap: Vec<u64>,
    /// Per-server admission line: a join into a zone passes while its
    /// target's load is at most this.
    admit_cap: Vec<u64>,
}

impl LoadBooks {
    /// `R_z` of a zone of `n` clients in stream units, `n(n + 1)`.
    pub(super) fn zone_units(n: usize) -> u64 {
        let n = n as u64;
        n * (n + 1)
    }

    /// The books of an assignment, built from scratch: `capacities` per
    /// server in bits/s, `populations` and `targets` per zone, and one
    /// `(zone, contact)` pair per relayed client, every relay booked at
    /// its zone's current rate. O(k + n·m).
    pub(super) fn rebuild(
        unit_bps: f64,
        headroom: f64,
        capacities: impl IntoIterator<Item = f64>,
        populations: impl IntoIterator<Item = usize>,
        targets: &[usize],
        relays: impl IntoIterator<Item = (usize, usize)>,
    ) -> LoadBooks {
        let (cap, admit_cap) = capacities
            .into_iter()
            .map(|c| {
                (
                    capacity_units(c, unit_bps),
                    admission_units(c, headroom, unit_bps),
                )
            })
            .unzip::<_, _, Vec<u64>, Vec<u64>>();
        let m = cap.len();
        let mut books = LoadBooks {
            unit_bps,
            headroom,
            zone_load: vec![0; m],
            forward_load: vec![0; m],
            relay_count: vec![0; targets.len() * m],
            relay_rate: Vec::with_capacity(targets.len()),
            cap,
            admit_cap,
        };
        for (&s, n) in targets.iter().zip(populations) {
            books.zone_load[s] += LoadBooks::zone_units(n);
            books.relay_rate.push(relay_units(n));
        }
        assert_eq!(
            books.relay_rate.len(),
            targets.len(),
            "one population per zone"
        );
        for (z, s) in relays {
            books.relay_count[z * m + s] += 1;
            books.forward_load[s] += books.relay_rate[z];
        }
        books
    }

    /// Total load of server `s`: hosted zones plus forwarding.
    #[inline]
    pub(super) fn load(&self, s: usize) -> u64 {
        self.zone_load[s] + self.forward_load[s]
    }

    /// Server `s`'s load in bits/s.
    pub(super) fn load_bps(&self, s: usize) -> f64 {
        self.load(s) as f64 * self.unit_bps
    }

    /// Whether server `s` has room for `units` more stream units.
    #[inline]
    pub(super) fn fits(&self, s: usize, units: u64) -> bool {
        self.load(s) + units <= self.cap[s]
    }

    /// Whether a join into a zone hosted by `s` passes admission: `s`
    /// is at most `(1 − headroom)` of its capacity booked.
    pub(super) fn admits(&self, s: usize) -> bool {
        self.load(s) <= self.admit_cap[s]
    }

    /// Whether every server is within capacity.
    pub(super) fn within_capacity(&self) -> bool {
        (0..self.cap.len()).all(|s| self.fits(s, 0))
    }

    /// Largest spare capacity on any server right now (negative when
    /// every server is over). A demand above it fits nowhere.
    pub(super) fn max_headroom(&self) -> i64 {
        (0..self.cap.len())
            .map(|s| self.cap[s] as i64 - self.load(s) as i64)
            .max()
            .unwrap_or(i64::MIN)
    }

    /// The forwarding rate booked per relayed member of zone `z`.
    #[inline]
    pub(super) fn relay_rate(&self, z: usize) -> u64 {
        self.relay_rate[z]
    }

    /// Re-books a zone hosted by `s` whose population went from
    /// `before` to `after` clients.
    pub(super) fn rebook_zone(&mut self, s: usize, before: usize, after: usize) {
        self.zone_load[s] =
            self.zone_load[s] + LoadBooks::zone_units(after) - LoadBooks::zone_units(before);
    }

    /// Moves a zone of `n` clients from host `from` to host `to`.
    pub(super) fn move_zone(&mut self, from: usize, to: usize, n: usize) {
        let units = LoadBooks::zone_units(n);
        self.zone_load[from] -= units;
        self.zone_load[to] += units;
    }

    /// Adds one relay of zone `z` through `contact`, at the zone's
    /// booked rate.
    #[inline]
    pub(super) fn book_relay(&mut self, z: usize, contact: usize) {
        self.relay_count[z * self.cap.len() + contact] += 1;
        self.forward_load[contact] += self.relay_rate[z];
    }

    /// Takes one relay of zone `z` through `contact` off the books.
    #[inline]
    pub(super) fn unbook_relay(&mut self, z: usize, contact: usize) {
        self.relay_count[z * self.cap.len() + contact] -= 1;
        self.forward_load[contact] -= self.relay_rate[z];
    }

    /// Re-books zone `z`'s relays at the rate of its population `n`:
    /// each contact's forwarding load moves by its relay count times the
    /// change in rate. O(m), whatever the number of relays. Until this
    /// runs after a population change, the rate is stale, and a relay
    /// booked meanwhile books at the stale rate.
    pub(super) fn rebook_relays(&mut self, z: usize, n: usize) {
        let rate = relay_units(n);
        let old = std::mem::replace(&mut self.relay_rate[z], rate);
        if rate == old {
            return;
        }
        let m = self.cap.len();
        let counts = &self.relay_count[z * m..(z + 1) * m];
        for (load, &count) in self.forward_load.iter_mut().zip(counts) {
            let count = u64::from(count);
            *load = *load + count * rate - count * old;
        }
    }

    /// Sets server `s`'s capacity (failure, recovery) from bits/s.
    pub(super) fn set_capacity(&mut self, s: usize, capacity: f64) {
        self.cap[s] = capacity_units(capacity, self.unit_bps);
        self.admit_cap[s] = admission_units(capacity, self.headroom, self.unit_bps);
    }

    /// Compares these books with `rebuilt`, a [`LoadBooks::rebuild`] of
    /// the same assignment, by `==`, and holds the loads in bits/s to
    /// `hosted_bps` (each server's sum of its zones' `R_z`) and
    /// `server_loads` (`Assignment::server_loads`), references that
    /// share no unit formula with the books. A whole-bps stream rate
    /// makes every term and sum exact in `f64` (below 2^53); otherwise
    /// the sums round, by about 1e-10 of a load over a million terms.
    pub(super) fn check(
        &self,
        rebuilt: &LoadBooks,
        hosted_bps: &[f64],
        server_loads: &[f64],
    ) -> Result<(), InvariantViolation> {
        let m = self.cap.len();
        if let Some(server) = (0..m)
            .find(|&s| self.cap[s] != rebuilt.cap[s] || self.admit_cap[s] != rebuilt.admit_cap[s])
        {
            return Err(InvariantViolation::Capacity { server });
        }
        if let Some(zone) =
            (0..self.relay_rate.len()).find(|&z| self.relay_rate[z] != rebuilt.relay_rate[z])
        {
            return Err(InvariantViolation::ZoneRate { zone });
        }
        if let Some(server) = (0..m).find(|&s| self.zone_load[s] != rebuilt.zone_load[s]) {
            return Err(InvariantViolation::ZoneLoad { server });
        }
        if let Some(server) = (0..m).find(|&s| self.forward_load[s] != rebuilt.forward_load[s]) {
            return Err(InvariantViolation::ForwardLoad { server });
        }
        let exact = self.unit_bps.fract() == 0.0;
        let agrees = |units: u64, bps: f64| {
            let booked = units as f64 * self.unit_bps;
            booked == bps || (!exact && (booked - bps).abs() <= 1e-9 * bps.abs().max(1.0))
        };
        for s in 0..m {
            if !agrees(self.zone_load[s], hosted_bps[s]) {
                return Err(InvariantViolation::ZoneLoad { server: s });
            }
            if !agrees(self.load(s), server_loads[s]) {
                return Err(InvariantViolation::ForwardLoad { server: s });
            }
        }
        if let Some(i) =
            (0..self.relay_count.len()).find(|&i| self.relay_count[i] != rebuilt.relay_count[i])
        {
            return Err(InvariantViolation::RelayCount {
                zone: i / m,
                server: i % m,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_world::{BandwidthModel, CapacityPolicy, ScenarioConfig, World};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Property: the stream-unit verdicts equal the bits/s verdicts —
    /// a fit `load + overhead ≤ capacity + 1e-9` and an admission
    /// `load ≤ (1 − headroom)·capacity + 1e-9`,
    /// with loads that are whole multiples of f·S — at each converted
    /// boundary, one unit below it and one unit above it. Capacities:
    /// random whole and fractional bits/s, a `RandomHeterogeneous`
    /// world's, and 0; two bandwidth models.
    #[test]
    fn unit_verdicts_equal_the_f64_books_at_every_boundary() {
        let mut rng = StdRng::seed_from_u64(0x0c4b);
        let mut capacities = vec![0.0];
        for _ in 0..500 {
            capacities.push(rng.gen_range(0.0..1e9));
            capacities.push(rng.gen_range(0u64..1_000_000_000) as f64);
            capacities.push(rng.gen_range(0.0..1e5));
        }
        let mut config = ScenarioConfig::from_notation("100s-100z-1000c-65000cp").unwrap();
        config.capacity_policy = CapacityPolicy::RandomHeterogeneous;
        let world = World::generate(&config, 128, &[0; 128], &mut rng).expect("world fits");
        let heterogeneous: Vec<f64> = world.servers.iter().map(|s| s.capacity_bps).collect();
        assert!(heterogeneous.iter().any(|c| c.fract() != 0.0));
        capacities.extend(heterogeneous);
        let models = [
            BandwidthModel::default(),
            BandwidthModel {
                msgs_per_sec: 30.0,
                msg_bytes: 60.0,
            },
        ];
        for model in models {
            let unit = model.stream_bps();
            for &capacity in &capacities {
                let cap = capacity_units(capacity, unit);
                let n = rng.gen_range(1..300);
                let (relay, overhead) = (relay_units(n), model.client_forwarding_bps(n));
                for q in [cap.saturating_sub(1), cap, cap + 1] {
                    let load = q as f64 * unit;
                    assert_eq!(
                        q <= cap,
                        load <= capacity + 1e-9,
                        "capacity {capacity}, load {q} units"
                    );
                    if let Some(rest) = q.checked_sub(relay) {
                        assert_eq!(
                            rest + relay <= cap,
                            rest as f64 * unit + overhead <= capacity + 1e-9,
                            "capacity {capacity}, load {rest} units + a relay of {relay}"
                        );
                    }
                }
                let headroom = rng.gen_range(0.0..1.0);
                let admit = admission_units(capacity, headroom, unit);
                for q in [admit.saturating_sub(1), admit, admit + 1] {
                    assert_eq!(
                        q <= admit,
                        q as f64 * unit <= (1.0 - headroom) * capacity + 1e-9,
                        "capacity {capacity}, headroom {headroom}, load {q} units"
                    );
                }
            }
        }
    }

    /// The reference model of [`books_match_a_naive_bps_model`]: zones
    /// with a host and a population, relays as (zone, contact) pairs,
    /// capacities in bits/s.
    struct Naive {
        model: BandwidthModel,
        headroom: f64,
        capacity: Vec<f64>,
        host: Vec<usize>,
        population: Vec<usize>,
        relays: Vec<(usize, usize)>,
    }

    impl Naive {
        /// The unit books of the model's state, from scratch.
        fn rebuild(&self) -> LoadBooks {
            LoadBooks::rebuild(
                self.model.stream_bps(),
                self.headroom,
                self.capacity.iter().copied(),
                self.population.iter().copied(),
                &self.host,
                self.relays.iter().copied(),
            )
        }

        /// Each server's (hosted, forwarding) load in bits/s, from the
        /// bandwidth model's own formulas.
        fn loads_bps(&self) -> Vec<(f64, f64)> {
            let mut loads = vec![(0.0, 0.0); self.capacity.len()];
            for (z, &s) in self.host.iter().enumerate() {
                loads[s].0 += self.model.zone_bps(self.population[z]);
            }
            for &(z, s) in &self.relays {
                loads[s].1 += self.model.client_forwarding_bps(self.population[z]);
            }
            loads
        }

        /// Holds `books` to the model: `==` with a rebuild, each load in
        /// bits/s `==` with the naive sums, and the fit and admission
        /// verdicts equal to the bits/s ones.
        fn assert_matches(&self, books: &LoadBooks, step: usize) {
            assert_eq!(
                books,
                &self.rebuild(),
                "step {step}: books differ from a rebuild"
            );
            let unit = self.model.stream_bps();
            for (s, &(hosted, forwarded)) in self.loads_bps().iter().enumerate() {
                assert_eq!(
                    books.zone_load[s] as f64 * unit,
                    hosted,
                    "step {step}, server {s}"
                );
                assert_eq!(
                    books.forward_load[s] as f64 * unit,
                    forwarded,
                    "step {step}, server {s}"
                );
                let capacity = self.capacity[s];
                assert_eq!(books.fits(s, 0), hosted + forwarded <= capacity + 1e-9);
                assert_eq!(
                    books.admits(s),
                    hosted + forwarded <= (1.0 - self.headroom) * capacity + 1e-9
                );
                for (z, &n) in self.population.iter().enumerate() {
                    let overhead = self.model.client_forwarding_bps(n);
                    assert_eq!(
                        books.fits(s, books.relay_rate(z)),
                        hosted + forwarded + overhead <= capacity + 1e-9,
                        "step {step}: a relay of zone {z} on server {s}"
                    );
                }
            }
        }
    }

    /// Reference model of the books: random sequences of relay
    /// bookings, unbookings, population changes (the zone and its
    /// relays re-booked, with relays booked at the stale rate in
    /// between), zone moves and capacity changes. After every op the
    /// books equal a rebuild and a naive recomputation in bits/s, and
    /// give the bits/s fit and admission verdicts.
    #[test]
    fn books_match_a_naive_bps_model() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0xb00c5 ^ seed);
            let (m, zones) = (rng.gen_range(1..7), rng.gen_range(1..9));
            let capacity = |rng: &mut StdRng| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => rng.gen_range(0.0..4e6),
                _ => f64::from(rng.gen_range(0u32..4_000_000)),
            };
            let mut naive = Naive {
                model: BandwidthModel::default(),
                headroom: rng.gen_range(0.0..0.5),
                capacity: (0..m).map(|_| capacity(&mut rng)).collect(),
                host: (0..zones).map(|_| rng.gen_range(0..m)).collect(),
                population: (0..zones).map(|_| rng.gen_range(0..20)).collect(),
                relays: Vec::new(),
            };
            let mut books = naive.rebuild();
            for step in 0..200 {
                let z = rng.gen_range(0..zones);
                let s = rng.gen_range(0..m);
                match rng.gen_range(0..5) {
                    0 => {
                        naive.relays.push((z, s));
                        books.book_relay(z, s);
                    }
                    1 if !naive.relays.is_empty() => {
                        let (z, s) = naive
                            .relays
                            .swap_remove(rng.gen_range(0..naive.relays.len()));
                        books.unbook_relay(z, s);
                    }
                    2 => {
                        let before = naive.population[z];
                        let after = rng.gen_range(0..40);
                        naive.population[z] = after;
                        books.rebook_zone(naive.host[z], before, after);
                        for _ in 0..rng.gen_range(0..3) {
                            let contact = rng.gen_range(0..m);
                            naive.relays.push((z, contact));
                            books.book_relay(z, contact);
                        }
                        books.rebook_relays(z, after);
                    }
                    3 => {
                        books.move_zone(naive.host[z], s, naive.population[z]);
                        naive.host[z] = s;
                    }
                    _ => {
                        naive.capacity[s] = capacity(&mut rng);
                        books.set_capacity(s, naive.capacity[s]);
                    }
                }
                naive.assert_matches(&books, step);
            }
        }
    }
}
