//! The benchmark's workloads and their seeded event schedules.
//!
//! A schedule is an open-loop list of `(due time, wire event)` pairs.
//! The workload seed drives only the schedule; the world it addresses is
//! the fixed-seed world `dvecap serve` boots, and the system under test
//! sees nothing but the encoded frames.
//!
//! Clients are addressed by stable id. Only the initial population
//! (`0..k`) is ever addressed: joiner ids are not echoed over the wire,
//! so a remote producer cannot know them (docs/WIRE.md). A departed id is
//! never addressed again, so no event the schedule sends is invalid.
//!
//! The rates, burst sizes and mixes below are assumptions, not measured
//! traffic: no figure in the repository backs them. They follow the
//! shape *Avatar Mobility in NVEs* (PAPERS.md) describes, walks between
//! neighbouring zones with hotspots, but the numbers were chosen to
//! size the benchmark, and the steady workloads model neither hotspot
//! skew nor dwell times.

use dve_assign::DelayLayout;
use dve_sim::{DelayMode, SimSetup, TopologySpec};
use dve_topology::HierarchicalConfig;
use dve_world::{wire, ScenarioConfig, WorldEvent, ZoneGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How due times are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Poisson arrivals at `rate` events per second.
    Poisson { rate: f64 },
    /// `size` events due at the same instant, every `period_ms`.
    Bursts { size: usize, period_ms: u64 },
}

/// Event mix, as fractions of the churn events (they sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Moves to a random grid neighbour of the client's zone.
    pub walk: f64,
    /// Moves into one of the [`HOTSPOTS`] most-populated boot zones.
    pub hotspot: f64,
    /// Joins from a random node into a random zone.
    pub join: f64,
    /// Leaves of a random live initial client (capped, see
    /// [`leave_cap`]); past the cap they become neighbour walks.
    pub leave: f64,
}

/// Hotspot zones a [`Mix::hotspot`] move may target.
pub const HOTSPOTS: usize = 5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Scenario notation of the served world.
    pub notation: &'static str,
    /// Million-tier delay configuration (on-demand delays, rows shared
    /// by node) instead of `dvecap serve`'s dense default.
    pub million: bool,
    pub pattern: Pattern,
    pub mix: Mix,
    /// Fail the top hotspot's boot server at 1/3 of each round's events
    /// and restore it at 2/3.
    pub server_fault: bool,
    /// A run is this many rounds, each a fresh set-up, one solve and an
    /// equal share of the serving time. Spreading every metric's samples
    /// over the whole run keeps a few seconds of interference from the
    /// machine's other tenants out of the medians.
    pub rounds: usize,
}

const STEADY_MIX: Mix = Mix {
    walk: 0.90,
    hotspot: 0.0,
    join: 0.05,
    leave: 0.05,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // The everyday trickle on the repository's large tier: the ring runs
    // dry after almost every event, so per-event wire/ring/ingest cost
    // and per-flush engine cost set the latency; the tier runs near
    // capacity, so full repairs fire a few times a second.
    Workload {
        name: "steady-50k",
        notation: "100s-1000z-50000c-65000cp",
        million: false,
        pattern: Pattern::Poisson { rate: 10_000.0 },
        mix: STEADY_MIX,
        server_fault: false,
        rounds: 6,
    },
    // The same path used in bulk: each burst lands on the ring at once
    // and drains through the ingest batching policy, so a batching
    // change moves this workload's latency while steady-50k guards the
    // trickle. Bursts fit the ring, so nothing is shed. Also exercises
    // the failover/evacuation path.
    Workload {
        name: "burst-50k",
        notation: "100s-1000z-50000c-65000cp",
        million: false,
        pattern: Pattern::Bursts {
            size: 2_000,
            period_ms: 200,
        },
        mix: Mix {
            walk: 0.88,
            hotspot: 0.10,
            join: 0.01,
            leave: 0.01,
        },
        server_fault: true,
        rounds: 6,
    },
    // Population-sized state: set-up, engine boot, zones 4x larger,
    // peak RSS including the ingest mirror world, and the solvers at the
    // million tier.
    Workload {
        name: "serve-1m",
        notation: "200s-4000z-1000000c-6500000cp",
        million: true,
        pattern: Pattern::Poisson { rate: 5_000.0 },
        mix: STEADY_MIX,
        server_fault: false,
        rounds: 3,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The simulation setup `dvecap serve` would boot for this world
    /// (world seed 42), with the million-tier delay configuration where
    /// the dense default would need a table of about 3.2 GB.
    pub fn sim_setup(&self) -> SimSetup {
        let mut setup = SimSetup {
            scenario: ScenarioConfig::from_notation(self.notation).expect("static notation"),
            topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
            delay_bound_ms: 250.0,
            error_factor: 1.0,
            base_seed: 42,
            runs: 1,
            ..Default::default()
        };
        if self.million {
            setup.delay_mode = DelayMode::OnDemand { landmarks: 8 };
            setup.delay_layout = DelayLayout::SharedByNode;
        }
        setup
    }
}

/// The schedule seed of one round of a run with workload seed `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(round as u64)
}

/// What a schedule needs to know about the booted world.
#[derive(Debug, Clone)]
pub struct WorldView {
    /// Boot zone of each initial client (its index is its stable id).
    pub zone_of_client: Vec<usize>,
    pub zones: usize,
    pub nodes: usize,
    /// Server a fault workload fails and restores.
    pub fault_server: usize,
}

/// At most this many initial clients leave: the population never drains.
pub fn leave_cap(initial: usize) -> usize {
    initial / 2
}

/// An open-loop schedule: encoded frames with their due times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Due time of each event, nanoseconds after the run start;
    /// non-decreasing.
    pub due_ns: Vec<u64>,
    pub events: Vec<WorldEvent>,
    /// Every frame, concatenated in schedule order.
    pub bytes: Vec<u8>,
    /// `bytes[ends[i-1]..ends[i]]` is event `i`'s frame.
    pub ends: Vec<usize>,
}

impl Schedule {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Frames of events `from..to`, contiguous.
    pub fn frames(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }

    pub fn is_server_event(&self, i: usize) -> bool {
        matches!(
            self.events[i],
            WorldEvent::ServerDown { .. } | WorldEvent::ServerUp { .. }
        )
    }
}

/// The `HOTSPOTS` most-populated zones, most-populated first (ties to
/// the lower zone id).
pub fn hotspots(zone_of_client: &[usize], zones: usize) -> Vec<usize> {
    let mut population = vec![0usize; zones];
    for &z in zone_of_client {
        population[z] += 1;
    }
    let mut order: Vec<usize> = (0..zones).collect();
    order.sort_by_key(|&z| (std::cmp::Reverse(population[z]), z));
    order.truncate(HOTSPOTS);
    order
}

/// Live initial clients with O(1) uniform pick and removal.
struct LiveSet {
    ids: Vec<u32>,
    pos: Vec<u32>,
}

impl LiveSet {
    fn new(k: usize) -> LiveSet {
        LiveSet {
            ids: (0..k as u32).collect(),
            pos: (0..k as u32).collect(),
        }
    }

    fn pick(&self, rng: &mut StdRng) -> u32 {
        self.ids[rng.gen_range(0..self.ids.len())]
    }

    fn remove(&mut self, id: u32) {
        let at = self.pos[id as usize] as usize;
        self.ids.swap_remove(at);
        if let Some(&moved) = self.ids.get(at) {
            self.pos[moved as usize] = at as u32;
        }
    }
}

/// Generates `workload`'s schedule over `seconds` seconds from `seed`.
pub fn generate(workload: &Workload, view: &WorldView, seed: u64, seconds: f64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = (seconds * 1e9) as u64;
    let mut due_ns = Vec::new();
    match workload.pattern {
        Pattern::Poisson { rate } => {
            let mut t = 0.0f64;
            loop {
                t += -(1.0 - rng.gen::<f64>()).ln() / rate;
                let ns = (t * 1e9) as u64;
                if ns >= horizon {
                    break;
                }
                due_ns.push(ns);
            }
        }
        Pattern::Bursts { size, period_ms } => {
            let period = period_ms * 1_000_000;
            let mut t = 0;
            while t < horizon {
                due_ns.extend(std::iter::repeat_n(t, size));
                t += period;
            }
        }
    }

    let k = view.zone_of_client.len();
    let grid = ZoneGrid::covering(view.zones);
    let hot = hotspots(&view.zone_of_client, view.zones);
    let mut zone_of: Vec<usize> = view.zone_of_client.clone();
    let mut live = LiveSet::new(k);
    let mut leaves = 0usize;
    let cap = leave_cap(k);
    let mix = workload.mix;
    let mut events = Vec::with_capacity(due_ns.len() + 2);
    for _ in 0..due_ns.len() {
        let u: f64 = rng.gen();
        let leave = (mix.join..mix.join + mix.leave).contains(&u);
        let event = if u < mix.join {
            WorldEvent::Join {
                node: rng.gen_range(0..view.nodes),
                zone: rng.gen_range(0..view.zones),
            }
        } else if leave && leaves < cap {
            let id = live.pick(&mut rng);
            live.remove(id);
            leaves += 1;
            WorldEvent::Leave {
                client: id as usize,
            }
        } else if !leave && u < mix.join + mix.leave + mix.hotspot {
            let id = live.pick(&mut rng) as usize;
            let mut zone = hot[rng.gen_range(0..hot.len())];
            if zone == zone_of[id] {
                zone = hot.iter().copied().find(|&z| z != zone).unwrap_or(zone);
            }
            zone_of[id] = zone;
            WorldEvent::Move { client: id, zone }
        } else {
            let id = live.pick(&mut rng) as usize;
            let neighbours = grid.neighbors_clamped(zone_of[id], view.zones);
            let zone = neighbours[rng.gen_range(0..neighbours.len())];
            zone_of[id] = zone;
            WorldEvent::Move { client: id, zone }
        };
        events.push(event);
    }
    if workload.server_fault && !events.is_empty() {
        // Inserted back to front so the 1/3 position stays put; each
        // fault is due with the event it precedes.
        let n = events.len();
        for (at, event) in [
            (
                2 * n / 3,
                WorldEvent::ServerUp {
                    server: view.fault_server,
                },
            ),
            (
                n / 3,
                WorldEvent::ServerDown {
                    server: view.fault_server,
                },
            ),
        ] {
            events.insert(at, event);
            due_ns.insert(at, due_ns[at]);
        }
    }

    let mut bytes = Vec::with_capacity(events.len() * 21);
    let mut ends = Vec::with_capacity(events.len());
    for event in &events {
        wire::encode_event(event, &mut bytes);
        ends.push(bytes.len());
    }
    Schedule {
        due_ns,
        events,
        bytes,
        ends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> WorldView {
        WorldView {
            zone_of_client: (0..400).map(|c| (c * 7) % 30).collect(),
            zones: 30,
            nodes: 50,
            fault_server: 3,
        }
    }

    fn small(workload: &Workload) -> Workload {
        Workload {
            pattern: match workload.pattern {
                Pattern::Poisson { .. } => Pattern::Poisson { rate: 2_000.0 },
                Pattern::Bursts { .. } => Pattern::Bursts {
                    size: 150,
                    period_ms: 100,
                },
            },
            ..*workload
        }
    }

    #[test]
    fn a_seed_gives_byte_identical_schedules_and_seeds_differ() {
        for w in &WORKLOADS {
            let w = small(w);
            let a = generate(&w, &view(), 7, 1.0);
            let b = generate(&w, &view(), 7, 1.0);
            assert_eq!(a, b, "{}", w.name);
            let c = generate(&w, &view(), 8, 1.0);
            assert_ne!(a.bytes, c.bytes, "{}", w.name);
        }
        let rounds: Vec<u64> = (0..4).map(|r| round_seed(7, r)).collect();
        assert!(rounds
            .iter()
            .all(|&s| rounds.iter().filter(|&&t| t == s).count() == 1));
        assert_ne!(round_seed(7, 1), round_seed(8, 1));
    }

    /// Replays each schedule against the live set: no event names a
    /// departed or unknown id, moves change zone, due times never
    /// decrease, the leave cap holds (leaves past it become neighbour
    /// walks), and faults sit at 1/3 and 2/3.
    #[test]
    fn schedules_are_valid() {
        let view = view();
        let k = view.zone_of_client.len();
        let grid = ZoneGrid::covering(view.zones);
        for w in &WORKLOADS {
            // A leave-heavy variant drives the cap.
            let leave_heavy = Mix {
                leave: 0.6,
                join: 0.0,
                walk: 0.4,
                hotspot: 0.0,
            };
            for mix in [w.mix, leave_heavy] {
                let w = Workload { mix, ..small(w) };
                let s = generate(&w, &view, 3, 2.0);
                assert!(s.len() > 100, "{}", w.name);
                assert!(s.due_ns.windows(2).all(|p| p[0] <= p[1]), "{}", w.name);
                assert_eq!(s.ends.len(), s.len());
                let mut departed = vec![false; k];
                let mut zone_of = view.zone_of_client.clone();
                let mut leaves = 0;
                let mut faults = Vec::new();
                for (i, event) in s.events.iter().enumerate() {
                    match *event {
                        WorldEvent::Leave { client } => {
                            assert!(client < k && !departed[client], "{}", w.name);
                            departed[client] = true;
                            leaves += 1;
                        }
                        WorldEvent::Move { client, zone } => {
                            assert!(client < k && !departed[client], "{}", w.name);
                            assert!(zone < view.zones && zone != zone_of[client]);
                            if mix.hotspot == 0.0 {
                                let near = grid.neighbors_clamped(zone_of[client], view.zones);
                                assert!(near.contains(&zone), "{}: a walk jumped", w.name);
                            }
                            zone_of[client] = zone;
                        }
                        WorldEvent::Join { node, zone } => {
                            assert!(node < view.nodes && zone < view.zones);
                        }
                        WorldEvent::ServerDown { server } | WorldEvent::ServerUp { server } => {
                            assert_eq!(server, view.fault_server);
                            faults.push(i);
                        }
                    }
                }
                if mix == leave_heavy {
                    assert_eq!(leaves, leave_cap(k), "{}: the cap binds", w.name);
                }
                assert!(leaves <= leave_cap(k), "{}", w.name);
                if w.server_fault {
                    let n = s.len() - 2;
                    assert_eq!(faults, vec![n / 3, 2 * n / 3 + 1], "{}", w.name);
                    assert!(matches!(s.events[n / 3], WorldEvent::ServerDown { .. }));
                } else {
                    assert!(faults.is_empty());
                }
            }
        }
    }

    #[test]
    fn frames_decode_back_to_the_schedule() {
        let w = small(&WORKLOADS[1]);
        let s = generate(&w, &view(), 11, 0.5);
        let mut reader = wire::FrameReader::new();
        reader.feed(s.frames(0, s.len()));
        let mut decoded = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            decoded.push(e);
        }
        assert_eq!(decoded, s.events);
        assert_eq!(s.frames(2, 4), &s.bytes[s.ends[1]..s.ends[3]]);
    }

    #[test]
    fn hotspots_are_the_most_populated_zones() {
        let zones = [2, 2, 2, 1, 1, 0, 3, 3, 3, 3, 4, 5, 6];
        assert_eq!(hotspots(&zones, 7), vec![3, 2, 1, 0, 4]);
    }
}
