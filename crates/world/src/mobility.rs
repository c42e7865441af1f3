//! Avatar mobility between adjacent zones (extension beyond the paper).
//!
//! The paper's Table 3 teleports movers to uniformly random zones. Real
//! DVE avatars walk: they cross into *adjacent* zones of the virtual
//! world. This module lays the zones out on a wrap-around grid (the
//! standard MMOG zoning scheme) and moves avatars to random neighbours,
//! giving churn experiments a spatially correlated alternative to the
//! paper's uniform moves.

use crate::arrival::InterArrival;
use crate::stream::WorldEvent;
use crate::world::World;
use rand::Rng;

/// A wrap-around (toroidal) rectangular grid of zones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneGrid {
    width: usize,
    height: usize,
}

impl ZoneGrid {
    /// Creates a `width x height` grid; both sides must be positive.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid sides must be positive");
        ZoneGrid { width, height }
    }

    /// Builds the most-square grid covering at least `zones` cells (extra
    /// cells are simply unused zone ids >= `zones` and never returned by
    /// [`ZoneGrid::neighbors_clamped`]).
    pub fn covering(zones: usize) -> Self {
        assert!(zones > 0, "need at least one zone");
        let width = (zones as f64).sqrt().ceil() as usize;
        let height = zones.div_ceil(width);
        ZoneGrid { width, height }
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total cells (may exceed the world's zone count for `covering`).
    pub fn cells(&self) -> usize {
        self.width * self.height
    }

    /// The four toroidal neighbours of `zone` (fewer when the grid side
    /// is 1, since duplicates collapse).
    pub fn neighbors(&self, zone: usize) -> Vec<usize> {
        assert!(zone < self.cells(), "zone {zone} outside grid");
        let (x, y) = (zone % self.width, zone / self.width);
        let mut out = Vec::with_capacity(4);
        let left = (x + self.width - 1) % self.width + y * self.width;
        let right = (x + 1) % self.width + y * self.width;
        let up = x + ((y + self.height - 1) % self.height) * self.width;
        let down = x + ((y + 1) % self.height) * self.width;
        for n in [left, right, up, down] {
            if n != zone && !out.contains(&n) {
                out.push(n);
            }
        }
        out
    }

    /// Neighbours restricted to ids below `zones` (for worlds whose zone
    /// count is not a perfect grid).
    pub fn neighbors_clamped(&self, zone: usize, zones: usize) -> Vec<usize> {
        self.neighbors(zone)
            .into_iter()
            .filter(|&z| z < zones)
            .collect()
    }
}

/// Per-tick avatar mobility: each client crosses to a random adjacent
/// zone with probability `move_prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityModel {
    /// Probability a client changes zone each tick.
    pub move_prob: f64,
    /// Zone adjacency.
    pub grid: ZoneGrid,
}

impl MobilityModel {
    /// Creates a model over a grid covering the given zone count.
    pub fn new(zones: usize, move_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&move_prob), "move_prob outside [0,1]");
        MobilityModel {
            move_prob,
            grid: ZoneGrid::covering(zones),
        }
    }

    /// Draws one tick's moves as a [`WorldEvent`] stream against `world`
    /// **without mutating it** — the generator that drives the streaming
    /// serving engine from mobility instead of Table 3 batch traces.
    ///
    /// Event client fields are indices into `world.clients` (the base
    /// world of the tick). The RNG discipline is identical to
    /// [`MobilityModel::tick`]: one uniform draw per client, plus one
    /// neighbour draw per mover, in client order — ticking a world and
    /// applying the same seed's events produce the same populations bit
    /// for bit.
    pub fn events<R: Rng + ?Sized>(&self, world: &World, rng: &mut R) -> Vec<WorldEvent> {
        let zones = world.zones;
        let mut events = Vec::new();
        for (i, client) in world.clients.iter().enumerate() {
            if rng.gen::<f64>() >= self.move_prob {
                continue;
            }
            let neighbors = self.grid.neighbors_clamped(client.zone, zones);
            if neighbors.is_empty() {
                continue;
            }
            events.push(WorldEvent::Move {
                client: i,
                zone: neighbors[rng.gen_range(0..neighbors.len())],
            });
        }
        events
    }

    /// [`MobilityModel::events`] with wall-clock arrival offsets: each
    /// event is stamped with its arrival time **within the tick**,
    /// starting at the tick boundary (time 0) and advancing by one
    /// [`InterArrival`] gap per event, in event order.
    ///
    /// The move draws happen first, with exactly the RNG discipline of
    /// [`MobilityModel::events`] (the fixed-seed pins hold); the gap
    /// draws follow as a separate suffix of the stream, so
    /// [`InterArrival::AtTick`] — which draws nothing — makes this
    /// byte-identical to `events` zipped with zeros. Offsets may exceed
    /// 1.0: a burst longer than the tick simply spills into the next
    /// one, exactly as a real arrival process would.
    pub fn timed_events<R: Rng + ?Sized>(
        &self,
        world: &World,
        arrival: InterArrival,
        rng: &mut R,
    ) -> Vec<(f64, WorldEvent)> {
        let events = self.events(world, rng);
        let mut at = 0.0f64;
        events
            .into_iter()
            .map(|event| {
                at += arrival.sample_gap(rng);
                (at, event)
            })
            .collect()
    }

    /// Advances the world one tick in place; returns the indices of
    /// clients that moved. Defined as [`MobilityModel::events`] applied
    /// to the world, so the two paths can never drift.
    pub fn tick<R: Rng + ?Sized>(&self, world: &mut World, rng: &mut R) -> Vec<usize> {
        self.events(world, rng)
            .into_iter()
            .map(|event| match event {
                WorldEvent::Move { client, zone } => {
                    world.clients[client].zone = zone;
                    client
                }
                _ => unreachable!("mobility emits only moves"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_neighbors_wrap() {
        let g = ZoneGrid::new(4, 3);
        // corner cell 0 = (0,0): left wraps to 3, up wraps to 8.
        let n = g.neighbors(0);
        assert!(n.contains(&3));
        assert!(n.contains(&1));
        assert!(n.contains(&8));
        assert!(n.contains(&4));
        assert_eq!(n.len(), 4);
    }

    #[test]
    fn degenerate_grids_collapse_duplicates() {
        let g = ZoneGrid::new(1, 1);
        assert!(g.neighbors(0).is_empty());
        let g = ZoneGrid::new(2, 1);
        assert_eq!(g.neighbors(0), vec![1]);
    }

    #[test]
    fn covering_grid_spans_zone_count() {
        for zones in [1usize, 2, 5, 80, 81, 160] {
            let g = ZoneGrid::covering(zones);
            assert!(g.cells() >= zones, "zones={zones}");
            assert!(g.cells() < zones + g.width() + g.height());
        }
    }

    #[test]
    fn neighbors_clamped_respects_world_size() {
        // 5 zones on a 3x2 grid: ids 5 is a phantom cell.
        let g = ZoneGrid::covering(5);
        for z in 0..5 {
            for n in g.neighbors_clamped(z, 5) {
                assert!(n < 5);
            }
        }
    }

    #[test]
    fn mobility_moves_expected_fraction_to_adjacent_zones() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = ScenarioConfig::from_notation("5s-16z-400c-100cp").unwrap();
        let labels: Vec<u16> = (0..100).map(|n| (n % 5) as u16).collect();
        let mut world = crate::world::World::generate(&config, 100, &labels, &mut rng).unwrap();
        let before = world.clients.clone();
        let model = MobilityModel::new(16, 0.25);
        let moved = model.tick(&mut world, &mut rng);
        let frac = moved.len() as f64 / 400.0;
        assert!((0.15..0.35).contains(&frac), "moved fraction {frac}");
        for &i in &moved {
            let old = before[i].zone;
            let new = world.clients[i].zone;
            assert_ne!(old, new);
            assert!(
                model.grid.neighbors_clamped(old, 16).contains(&new),
                "client {i} jumped {old}->{new} non-adjacently"
            );
        }
        // Non-movers untouched.
        for i in 0..400 {
            if !moved.contains(&i) {
                assert_eq!(before[i], world.clients[i]);
            }
        }
    }

    /// Fixed-seed pin of the generator satellite: a mobility tick's
    /// event stream, routed through a [`DeltaBuffer`], reproduces the
    /// directly ticked world bit for bit (and the buffer's delta lists
    /// exactly the effective movers).
    #[test]
    fn event_stream_round_trips_through_delta_buffer() {
        use crate::stream::DeltaBuffer;

        let config = ScenarioConfig::from_notation("5s-16z-400c-100cp").unwrap();
        let labels: Vec<u16> = (0..100).map(|n| (n % 5) as u16).collect();
        let model = MobilityModel::new(16, 0.3);
        for seed in [11u64, 12, 13] {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = crate::world::World::generate(&config, 100, &labels, &mut rng).unwrap();

            // Path A: draw the event stream (same RNG state as a tick).
            let mut events_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let events = model.events(&base, &mut events_rng);

            // Path B: tick a clone directly with the same draw sequence.
            let mut ticked = base.clone();
            let mut tick_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let moved = model.tick(&mut ticked, &mut tick_rng);
            assert_eq!(events.len(), moved.len());

            // The stream through the coalescer reaches the same world.
            let mut buffer = DeltaBuffer::new(&base);
            for &event in &events {
                buffer.push(event).unwrap();
            }
            let outcome = buffer.flush(&base);
            assert_eq!(outcome.world.clients, ticked.clients, "seed {seed}");
            assert!(outcome.delta.joins.is_empty());
            assert!(outcome.delta.leaves.is_empty());
            // Effective moves only: every delta move names a client whose
            // zone actually changed, and all zone changes are covered.
            let changed: Vec<usize> = (0..400)
                .filter(|&c| base.clients[c].zone != ticked.clients[c].zone)
                .collect();
            let mut delta_movers: Vec<usize> =
                outcome.delta.moves.iter().map(|m| m.old_index).collect();
            delta_movers.sort_unstable();
            assert_eq!(delta_movers, changed, "seed {seed}");
        }
    }

    /// Fixed-seed pin of the arrival-time satellite: the timed stream's
    /// *events* are exactly `events()`'s (the gap draws are a strict
    /// suffix of the RNG stream), `AtTick` stamps zeros without touching
    /// the RNG, and the exponential schedule is reproducible bit for bit.
    #[test]
    fn timed_events_pin_schedule_at_fixed_seed() {
        let config = ScenarioConfig::from_notation("5s-16z-400c-100cp").unwrap();
        let labels: Vec<u16> = (0..100).map(|n| (n % 5) as u16).collect();
        let mut rng = StdRng::seed_from_u64(31);
        let world = crate::world::World::generate(&config, 100, &labels, &mut rng).unwrap();
        let model = MobilityModel::new(16, 0.25);
        let arrival = crate::InterArrival::Exponential {
            mean_gap_ticks: 0.01,
        };

        let mut rng_a = StdRng::seed_from_u64(0xabc1);
        let plain = model.events(&world, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(0xabc1);
        let timed = model.timed_events(&world, arrival, &mut rng_b);
        assert_eq!(timed.len(), plain.len());
        let stamped: Vec<WorldEvent> = timed.iter().map(|&(_, e)| e).collect();
        assert_eq!(stamped, plain, "gap draws must not disturb the moves");
        // Arrival times are strictly increasing (exponential gaps are
        // almost surely positive) and start after the tick boundary.
        for w in timed.windows(2) {
            assert!(w[0].0 < w[1].0, "schedule must be increasing");
        }
        assert!(timed.first().unwrap().0 > 0.0);

        // Bit-reproducible schedule at the same seed.
        let mut rng_c = StdRng::seed_from_u64(0xabc1);
        assert_eq!(model.timed_events(&world, arrival, &mut rng_c), timed);

        // AtTick: all zeros, RNG untouched beyond the move draws.
        let mut rng_d = StdRng::seed_from_u64(0xabc1);
        let at_tick = model.timed_events(&world, crate::InterArrival::AtTick, &mut rng_d);
        assert!(at_tick.iter().all(|&(t, _)| t == 0.0));
        assert_eq!(rng_d.gen::<u64>(), rng_a.gen::<u64>());
    }

    #[test]
    fn zero_probability_never_moves() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = ScenarioConfig::from_notation("5s-16z-100c-100cp").unwrap();
        let labels: Vec<u16> = (0..50).map(|n| (n % 5) as u16).collect();
        let mut world = crate::world::World::generate(&config, 50, &labels, &mut rng).unwrap();
        let before = world.clients.clone();
        let moved = MobilityModel::new(16, 0.0).tick(&mut world, &mut rng);
        assert!(moved.is_empty());
        assert_eq!(before, world.clients);
    }
}
