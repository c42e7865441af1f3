//! The populated DVE world: servers placed on topology nodes with
//! capacities, clients placed on topology nodes with a virtual-world zone
//! each, generated from a [`ScenarioConfig`](crate::ScenarioConfig) over a
//! topology.

use crate::correlation::CorrelationModel;
use crate::distribution::{hot_weights, WeightedIndex};
use crate::scenario::{CapacityPolicy, ScenarioConfig};
use rand::Rng;

/// A server: its topology node and bandwidth capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Server {
    /// Topology node hosting the server.
    pub node: usize,
    /// Bandwidth capacity in bits per second.
    pub capacity_bps: f64,
}

/// A client: its topology node (physical location) and current zone
/// (virtual location).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Client {
    /// Topology node the client connects from.
    pub node: usize,
    /// Virtual-world zone the client's avatar is in.
    pub zone: usize,
}

/// A fully instantiated DVE scenario.
#[derive(Debug, Clone)]
pub struct World {
    /// Number of virtual-world zones.
    pub zones: usize,
    /// The servers.
    pub servers: Vec<Server>,
    /// The clients.
    pub clients: Vec<Client>,
    /// The scenario this world was generated from.
    pub config: ScenarioConfig,
    /// Zones marked "hot" during generation (empty when uniform).
    pub hot_zones: Vec<usize>,
    /// Physical nodes marked "hot" during generation (empty when uniform).
    pub hot_nodes: Vec<usize>,
}

/// Errors raised during world generation.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldError {
    /// Scenario config failed validation.
    BadConfig(String),
    /// The topology has fewer nodes than requested servers.
    NotEnoughNodes {
        /// Nodes available in the topology.
        nodes: usize,
        /// Servers requested.
        servers: usize,
    },
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::BadConfig(msg) => write!(f, "bad scenario config: {msg}"),
            WorldError::NotEnoughNodes { nodes, servers } => {
                write!(
                    f,
                    "{servers} servers need distinct nodes, topology has {nodes}"
                )
            }
        }
    }
}

impl std::error::Error for WorldError {}

impl World {
    /// Generates a world over a topology described by its node count and
    /// per-node region labels (see
    /// [`Topology::as_of_node`](dve_topology::Topology)).
    pub fn generate<R: Rng + ?Sized>(
        config: &ScenarioConfig,
        num_nodes: usize,
        as_of_node: &[u16],
        rng: &mut R,
    ) -> Result<World, WorldError> {
        config.validate().map_err(WorldError::BadConfig)?;
        assert_eq!(
            as_of_node.len(),
            num_nodes,
            "region labels must cover nodes"
        );
        if num_nodes < config.servers {
            return Err(WorldError::NotEnoughNodes {
                nodes: num_nodes,
                servers: config.servers,
            });
        }
        let regions = as_of_node
            .iter()
            .copied()
            .max()
            .map_or(1, |m| m as usize + 1);

        // --- Servers: distinct random nodes, capacities per policy. ---
        let server_nodes = sample_distinct(num_nodes, config.servers, rng);
        let capacities = allocate_capacities(config, rng);
        let servers = server_nodes
            .into_iter()
            .zip(capacities)
            .map(|(node, capacity_bps)| Server { node, capacity_bps })
            .collect();

        // --- Physical placement weights (hot nodes). ---
        let (node_weights, hot_nodes) = if config.distribution.clustered_physical() {
            hot_weights(num_nodes, config.hot_nodes, config.hot_node_factor, rng)
        } else {
            (vec![1.0; num_nodes], vec![])
        };
        let node_table = WeightedIndex::new(&node_weights);

        // --- Virtual placement weights (hot zones) + correlation. ---
        let (zone_weights, hot_zones) = if config.distribution.clustered_virtual() {
            hot_weights(config.zones, config.hot_zones, config.hot_zone_factor, rng)
        } else {
            (vec![1.0; config.zones], vec![])
        };
        let zone_table = WeightedIndex::new(&zone_weights);
        let correlation = CorrelationModel::new(config.zones, regions, config.correlation);
        let block_tables = correlation.block_tables(&zone_weights);

        let clients = (0..config.clients)
            .map(|_| {
                let node = node_table.sample(rng);
                let region = as_of_node[node] as usize;
                let zone = correlation.sample_zone_weighted(
                    region,
                    &block_tables[region],
                    &zone_table,
                    rng,
                );
                Client { node, zone }
            })
            .collect();

        Ok(World {
            zones: config.zones,
            servers,
            clients,
            config: config.clone(),
            hot_zones,
            hot_nodes,
        })
    }

    /// Number of clients currently in each zone.
    pub fn zone_populations(&self) -> Vec<usize> {
        let mut pop = vec![0usize; self.zones];
        for c in &self.clients {
            pop[c.zone] += 1;
        }
        pop
    }

    /// Indices of clients in `zone`.
    pub fn clients_in_zone(&self, zone: usize) -> Vec<usize> {
        self.clients
            .iter()
            .enumerate()
            .filter(|(_, c)| c.zone == zone)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total offered zone load under the world's bandwidth model, in bps
    /// (the `sum R_z` of the paper; excludes forwarding overheads).
    pub fn total_zone_load_bps(&self) -> f64 {
        self.zone_populations()
            .iter()
            .map(|&n| self.config.bandwidth.zone_bps(n))
            .sum()
    }

    /// Total server capacity in bps.
    pub fn total_capacity_bps(&self) -> f64 {
        self.servers.iter().map(|s| s.capacity_bps).sum()
    }
}

/// Samples `k` distinct values from `0..n` (partial Fisher–Yates).
fn sample_distinct<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k <= n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let pick = rng.gen_range(i..n);
        pool.swap(i, pick);
    }
    pool.truncate(k);
    pool
}

/// Splits total capacity across servers per the configured policy,
/// guaranteeing every server at least the minimum.
fn allocate_capacities<R: Rng + ?Sized>(config: &ScenarioConfig, rng: &mut R) -> Vec<f64> {
    let m = config.servers;
    match config.capacity_policy {
        CapacityPolicy::Uniform => vec![config.total_capacity_bps / m as f64; m],
        CapacityPolicy::RandomHeterogeneous => {
            let spare = config.total_capacity_bps - config.min_capacity_bps * m as f64;
            let mut shares: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
            let total_share: f64 = shares.iter().sum();
            if total_share <= 0.0 {
                shares = vec![1.0; m];
            }
            let total_share: f64 = shares.iter().sum();
            shares
                .into_iter()
                .map(|s| config.min_capacity_bps + spare * s / total_share)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionType;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn region_labels(nodes: usize, regions: usize) -> Vec<u16> {
        (0..nodes).map(|n| (n % regions) as u16).collect()
    }

    #[test]
    fn generates_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = ScenarioConfig::default();
        let labels = region_labels(500, 20);
        let w = World::generate(&config, 500, &labels, &mut rng).unwrap();
        assert_eq!(w.servers.len(), 20);
        assert_eq!(w.clients.len(), 1000);
        assert_eq!(w.zones, 80);
        // Uniform capacity: 25 Mbps each.
        for s in &w.servers {
            assert!((s.capacity_bps - 25e6).abs() < 1.0);
            assert!(s.node < 500);
        }
        for c in &w.clients {
            assert!(c.node < 500);
            assert!(c.zone < 80);
        }
        assert!((w.total_capacity_bps() - 500e6).abs() < 1.0);
    }

    #[test]
    fn server_nodes_are_distinct() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = ScenarioConfig::default();
        let labels = region_labels(500, 20);
        let w = World::generate(&config, 500, &labels, &mut rng).unwrap();
        let mut nodes: Vec<usize> = w.servers.iter().map(|s| s.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 20);
    }

    #[test]
    fn rejects_too_few_nodes() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = ScenarioConfig::default(); // 20 servers
        let labels = region_labels(10, 2);
        assert!(matches!(
            World::generate(&config, 10, &labels, &mut rng),
            Err(WorldError::NotEnoughNodes { .. })
        ));
    }

    #[test]
    fn clustered_virtual_inflates_hot_zone_population() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut config = ScenarioConfig::default();
        config.distribution = DistributionType::ClusteredVirtual;
        config.correlation = 0.0;
        config.hot_zones = 2;
        let labels = region_labels(500, 20);
        let w = World::generate(&config, 500, &labels, &mut rng).unwrap();
        assert_eq!(w.hot_zones.len(), 2);
        let pops = w.zone_populations();
        let hot_avg: f64 =
            w.hot_zones.iter().map(|&z| pops[z] as f64).sum::<f64>() / w.hot_zones.len() as f64;
        let normal_avg: f64 = pops
            .iter()
            .enumerate()
            .filter(|(z, _)| !w.hot_zones.contains(z))
            .map(|(_, &p)| p as f64)
            .sum::<f64>()
            / (80 - 2) as f64;
        assert!(
            hot_avg > 5.0 * normal_avg,
            "hot {hot_avg} vs normal {normal_avg}"
        );
    }

    #[test]
    fn clustered_physical_inflates_hot_node_population() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut config = ScenarioConfig::default();
        config.distribution = DistributionType::ClusteredPhysical;
        config.hot_nodes = 5;
        let labels = region_labels(500, 20);
        let w = World::generate(&config, 500, &labels, &mut rng).unwrap();
        assert_eq!(w.hot_nodes.len(), 5);
        let mut node_pop = vec![0usize; 500];
        for c in &w.clients {
            node_pop[c.node] += 1;
        }
        let hot: usize = w.hot_nodes.iter().map(|&n| node_pop[n]).sum();
        // 5 hot nodes with weight 10 against 495 normal: expected share
        // 50/545 of 1000 clients ~ 92; demand far above the uniform ~10.
        assert!(hot > 40, "hot node clients {hot}");
    }

    #[test]
    fn uniform_distribution_has_no_hot_sets() {
        let mut rng = StdRng::seed_from_u64(6);
        let config = ScenarioConfig::default();
        let labels = region_labels(500, 20);
        let w = World::generate(&config, 500, &labels, &mut rng).unwrap();
        assert!(w.hot_zones.is_empty());
        assert!(w.hot_nodes.is_empty());
    }

    #[test]
    fn zone_populations_sum_to_clients() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = ScenarioConfig::from_notation("5s-15z-200c-100cp").unwrap();
        let labels = region_labels(100, 5);
        let w = World::generate(&config, 100, &labels, &mut rng).unwrap();
        assert_eq!(w.zone_populations().iter().sum::<usize>(), 200);
        let z0 = w.clients_in_zone(0);
        for i in z0 {
            assert_eq!(w.clients[i].zone, 0);
        }
    }

    #[test]
    fn heterogeneous_capacity_respects_min_and_total() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut config = ScenarioConfig::default();
        config.capacity_policy = CapacityPolicy::RandomHeterogeneous;
        let labels = region_labels(500, 20);
        let w = World::generate(&config, 500, &labels, &mut rng).unwrap();
        for s in &w.servers {
            assert!(s.capacity_bps >= config.min_capacity_bps - 1.0);
        }
        assert!((w.total_capacity_bps() - 500e6).abs() < 1e3);
    }

    #[test]
    fn total_zone_load_matches_bandwidth_model() {
        let mut rng = StdRng::seed_from_u64(9);
        let config = ScenarioConfig::default();
        let labels = region_labels(500, 20);
        let w = World::generate(&config, 500, &labels, &mut rng).unwrap();
        let expected: f64 = w
            .zone_populations()
            .iter()
            .map(|&n| config.bandwidth.zone_bps(n))
            .sum();
        assert!((w.total_zone_load_bps() - expected).abs() < 1e-6);
        // Default scenario must be comfortably feasible in aggregate.
        assert!(w.total_zone_load_bps() < w.total_capacity_bps());
    }

    /// The per-draw zone sampling `World::generate` replaced: a fresh
    /// weight vector and table for every correlated draw. Kept only as
    /// the reference the prebuilt region tables are checked against.
    fn sample_zone_per_draw<R: Rng + ?Sized>(
        model: &CorrelationModel,
        region: usize,
        raw_weights: &[f64],
        full_table: &WeightedIndex,
        rng: &mut R,
    ) -> usize {
        if rng.gen::<f64>() < model.delta() {
            let block = model.preferred_zones(region);
            let weights: Vec<f64> = block.iter().map(|&z| raw_weights[z]).collect();
            block[WeightedIndex::new(&weights).sample(rng)]
        } else {
            full_table.sample(rng)
        }
    }

    /// `World::generate`'s draws, in its order, with per-draw zone
    /// sampling; returns the clients.
    fn clients_per_draw<R: Rng + ?Sized>(
        config: &ScenarioConfig,
        as_of_node: &[u16],
        rng: &mut R,
    ) -> Vec<Client> {
        let nodes = as_of_node.len();
        let regions = as_of_node
            .iter()
            .copied()
            .max()
            .map_or(1, |m| m as usize + 1);
        sample_distinct(nodes, config.servers, rng);
        allocate_capacities(config, rng);
        let node_weights = if config.distribution.clustered_physical() {
            hot_weights(nodes, config.hot_nodes, config.hot_node_factor, rng).0
        } else {
            vec![1.0; nodes]
        };
        let node_table = WeightedIndex::new(&node_weights);
        let zone_weights = if config.distribution.clustered_virtual() {
            hot_weights(config.zones, config.hot_zones, config.hot_zone_factor, rng).0
        } else {
            vec![1.0; config.zones]
        };
        let zone_table = WeightedIndex::new(&zone_weights);
        let model = CorrelationModel::new(config.zones, regions, config.correlation);
        (0..config.clients)
            .map(|_| {
                let node = node_table.sample(rng);
                let region = as_of_node[node] as usize;
                let zone = sample_zone_per_draw(&model, region, &zone_weights, &zone_table, rng);
                Client { node, zone }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Region tables built once per world draw exactly the clients
        /// the per-draw tables drew, and leave the RNG where they left it.
        #[test]
        fn prebuilt_block_tables_match_per_draw_sampling(
            seed in any::<u64>(),
            zones in 1usize..200,
            regions in 1usize..30,
            delta in 0usize..3,
            distribution in 0usize..4,
            hot_zones in 1usize..8,
        ) {
            let mut config = ScenarioConfig::default();
            config.servers = 4;
            config.zones = zones;
            config.clients = 400;
            config.correlation = [0.0, 0.5, 1.0][delta];
            config.distribution = DistributionType::ALL[distribution];
            config.hot_zones = hot_zones;
            let mut label_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let labels: Vec<u16> =
                (0..90).map(|_| label_rng.gen_range(0..regions) as u16).collect();
            let mut fast = StdRng::seed_from_u64(seed);
            let mut naive = fast.clone();
            let w = World::generate(&config, 90, &labels, &mut fast).unwrap();
            prop_assert_eq!(&w.clients, &clients_per_draw(&config, &labels, &mut naive));
            prop_assert_eq!(fast.gen::<u64>(), naive.gen::<u64>());
        }
    }

    #[test]
    fn correlated_world_places_region_clients_in_preferred_zones() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut config = ScenarioConfig::default();
        config.correlation = 1.0;
        let labels = region_labels(500, 20);
        let w = World::generate(&config, 500, &labels, &mut rng).unwrap();
        let model = CorrelationModel::new(80, 20, 1.0);
        for c in &w.clients {
            let region = labels[c.node] as usize;
            assert!(model.preferred_zones(region).contains(&c.zone));
        }
    }
}
