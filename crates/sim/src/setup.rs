//! Simulation setup: which topology to generate, which scenario to
//! populate, and the global experiment knobs (delay bound, provisioning,
//! error factor, replication count, seeding).

use dve_assign::{CapInstance, DelayLayout, DEFAULT_DELAY_BOUND_MS, DEFAULT_PROVISIONING};
use dve_topology::{
    hierarchical, transit_stub, us_backbone, DelayMatrix, DelaySource, HierarchicalConfig,
    OnDemandDelays, Topology, TransitStubConfig, WaxmanParams,
};
use dve_world::{ErrorModel, ScenarioConfig, World, WorldDelays};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which topology family a simulation uses.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// BRITE-style hierarchical (the paper's default, 20 AS x 25 routers).
    Hierarchical(HierarchicalConfig),
    /// The embedded US PoP backbone (25 nodes; for small scenarios).
    UsBackbone,
    /// Flat incremental Waxman over `nodes` with `links_per_node`.
    FlatWaxman {
        /// Node count.
        nodes: usize,
        /// Links per new node.
        links_per_node: usize,
        /// Waxman parameters.
        params: WaxmanParams,
        /// Plane side length.
        plane: f64,
    },
    /// GT-ITM-style transit-stub (extension).
    TransitStub(TransitStubConfig),
}

impl TopologySpec {
    /// Generates a topology with the given RNG.
    pub fn generate(&self, rng: &mut StdRng) -> Topology {
        match self {
            TopologySpec::Hierarchical(config) => hierarchical(config, rng),
            TopologySpec::UsBackbone => us_backbone(),
            TopologySpec::FlatWaxman {
                nodes,
                links_per_node,
                params,
                plane,
            } => dve_topology::flat_waxman(*nodes, *links_per_node, *plane, *params, rng),
            TopologySpec::TransitStub(config) => transit_stub(config, rng),
        }
    }
}

/// How replication delays are sourced — the topology end of the
/// pluggable delay pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayMode {
    /// Dense all-pairs [`DelayMatrix`]: exact diameter scaling, O(V²)
    /// memory — the paper-fidelity default.
    #[default]
    Dense,
    /// [`OnDemandDelays`]: landmark-estimated scaling, O(V+E) memory,
    /// per-query Dijkstra — the million-client mode (the node matrix is
    /// never materialised).
    OnDemand {
        /// Extra farthest-first eccentricity probes beyond the double
        /// sweep (see [`OnDemandDelays::from_graph`]).
        landmarks: usize,
    },
}

/// Complete experiment setup.
#[derive(Debug, Clone)]
pub struct SimSetup {
    /// The DVE scenario to populate.
    pub scenario: ScenarioConfig,
    /// The topology family.
    pub topology: TopologySpec,
    /// How node delays are sourced (dense matrix vs on-demand graph).
    pub delay_mode: DelayMode,
    /// Delay-row storage layout of the built instances.
    pub delay_layout: DelayLayout,
    /// Maximum pairwise RTT after scaling, ms (paper: 500).
    pub max_rtt_ms: f64,
    /// Inter-server provisioning factor (paper: 0.5).
    pub provisioning: f64,
    /// Delay bound `D`, ms (paper default: 250; Fig. 5 uses 200).
    pub delay_bound_ms: f64,
    /// Delay estimation error factor `e` (1.0 = perfect; Table 4 uses
    /// 1.2 and 2.0).
    pub error_factor: f64,
    /// Number of replications to average (paper: 50).
    pub runs: usize,
    /// Base RNG seed; replication `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl Default for SimSetup {
    /// The paper's default setup: hierarchical 20x25 topology, max RTT
    /// 500 ms, provisioning 0.5, `D` = 250 ms, perfect delay knowledge,
    /// 50 runs.
    fn default() -> Self {
        SimSetup {
            scenario: ScenarioConfig::default(),
            topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
            delay_mode: DelayMode::default(),
            delay_layout: DelayLayout::default(),
            max_rtt_ms: 500.0,
            provisioning: DEFAULT_PROVISIONING,
            delay_bound_ms: DEFAULT_DELAY_BOUND_MS,
            error_factor: 1.0,
            runs: 50,
            base_seed: 42,
        }
    }
}

/// One fully materialised replication: the world and the CAP instance.
pub struct Replication {
    /// The generated topology.
    pub topology: Topology,
    /// The delay pipeline handle: the node delay source behind the
    /// node→server gather table (replaces the dense node-to-node matrix
    /// previous versions carried here).
    pub delays: WorldDelays,
    /// The populated world.
    pub world: World,
    /// The CAP instance handed to the algorithms.
    pub instance: CapInstance,
    /// RNG carrying on from instance construction (for algorithm
    /// randomness, dynamics, etc. — keeps a replication fully determined
    /// by its seed).
    pub rng: StdRng,
}

/// Builds replication `index` of a setup deterministically.
///
/// The whole pipeline runs behind [`DelaySource`]: the topology's delays
/// are wrapped per [`SimSetup::delay_mode`], gathered into a
/// [`WorldDelays`] handle for the world's servers, and the instance is
/// built by [`CapInstance::from_world`] in the configured
/// [`SimSetup::delay_layout`]. With the defaults (dense
/// matrix source, `Dense64` rows) every value is bit-identical to the
/// historical `CapInstance::build` path — property-tested in
/// `dve-assign` — so seeded experiments reproduce exactly.
pub fn build_replication(setup: &SimSetup, index: usize) -> Replication {
    let seed = setup.base_seed.wrapping_add(index as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = setup.topology.generate(&mut rng);
    let source: Arc<dyn DelaySource> = match setup.delay_mode {
        DelayMode::Dense => Arc::new(
            DelayMatrix::from_graph(&topology.graph, setup.max_rtt_ms)
                .expect("generated topologies are connected"),
        ),
        DelayMode::OnDemand { landmarks } => Arc::new(
            OnDemandDelays::from_graph(&topology.graph, setup.max_rtt_ms, landmarks)
                .expect("generated topologies are connected"),
        ),
    };
    let world = World::generate(
        &setup.scenario,
        topology.node_count(),
        &topology.as_of_node,
        &mut rng,
    )
    .expect("scenario must fit the topology");
    let delays = WorldDelays::for_world(source, &world);
    let instance = CapInstance::from_world(
        &world,
        &delays,
        setup.provisioning,
        setup.delay_bound_ms,
        ErrorModel::new(setup.error_factor),
        setup.delay_layout,
        &mut rng,
    );
    Replication {
        topology,
        delays,
        world,
        instance,
        rng,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_setup() -> SimSetup {
        SimSetup {
            scenario: ScenarioConfig::from_notation("5s-15z-200c-100cp").unwrap(),
            topology: TopologySpec::Hierarchical(HierarchicalConfig {
                as_count: 5,
                routers_per_as: 10,
                ..Default::default()
            }),
            runs: 2,
            ..Default::default()
        }
    }

    #[test]
    fn replication_is_deterministic() {
        let setup = small_setup();
        let a = build_replication(&setup, 3);
        let b = build_replication(&setup, 3);
        assert_eq!(a.world.clients, b.world.clients);
        assert_eq!(
            a.world.servers.iter().map(|s| s.node).collect::<Vec<_>>(),
            b.world.servers.iter().map(|s| s.node).collect::<Vec<_>>()
        );
        for c in 0..a.instance.num_clients() {
            for s in 0..a.instance.num_servers() {
                assert_eq!(a.instance.obs_cs(c, s), b.instance.obs_cs(c, s));
            }
        }
    }

    #[test]
    fn different_indices_differ() {
        let setup = small_setup();
        let a = build_replication(&setup, 0);
        let b = build_replication(&setup, 1);
        assert_ne!(a.world.clients, b.world.clients);
    }

    #[test]
    fn replication_shapes_match_scenario() {
        let setup = small_setup();
        let r = build_replication(&setup, 0);
        assert_eq!(r.instance.num_clients(), 200);
        assert_eq!(r.instance.num_servers(), 5);
        assert_eq!(r.instance.num_zones(), 15);
        assert_eq!(r.topology.node_count(), 50);
        assert_eq!(r.delays.nodes(), 50);
        assert_eq!(r.delays.num_servers(), 5);
        // Gathered RTTs live inside the configured 500 ms scale.
        assert!(r
            .delays
            .table()
            .iter()
            .all(|&d| d.is_finite() && (0.0..=500.0 + 1e-9).contains(&d)));
    }

    /// The on-demand source and the compact/shared layouts plug into the
    /// same replication path; under perfect observations the shared
    /// layout's instance is accessor-identical to the dense default.
    #[test]
    fn delay_modes_and_layouts_compose() {
        let mut dense_setup = small_setup();
        dense_setup.runs = 1;
        let dense = build_replication(&dense_setup, 0);

        let mut shared_setup = dense_setup.clone();
        shared_setup.delay_layout = dve_assign::DelayLayout::SharedByNode;
        let shared = build_replication(&shared_setup, 0);
        assert_eq!(
            shared.instance.layout(),
            dve_assign::DelayLayout::SharedByNode
        );
        for c in 0..dense.instance.num_clients() {
            for s in 0..dense.instance.num_servers() {
                assert_eq!(dense.instance.obs_cs(c, s), shared.instance.obs_cs(c, s));
            }
        }

        let mut lazy_setup = dense_setup.clone();
        lazy_setup.delay_mode = DelayMode::OnDemand { landmarks: 2 };
        lazy_setup.delay_layout = dve_assign::DelayLayout::SharedByNode;
        let lazy = build_replication(&lazy_setup, 0);
        // Same world (delay sourcing draws no world RNG), different
        // delay model: on-demand RTTs upper-bound the dense ones.
        assert_eq!(lazy.world.clients, dense.world.clients);
        for node in 0..lazy.delays.nodes() {
            for s in 0..lazy.delays.num_servers() {
                assert!(
                    lazy.delays.client_rtt(node, s) >= dense.delays.client_rtt(node, s) - 1e-6,
                    "node {node} server {s}"
                );
            }
        }
    }

    #[test]
    fn backbone_spec_generates_fixed_graph() {
        let setup = SimSetup {
            scenario: ScenarioConfig::from_notation("5s-15z-100c-100cp").unwrap(),
            topology: TopologySpec::UsBackbone,
            ..Default::default()
        };
        let r = build_replication(&setup, 0);
        assert_eq!(r.topology.node_count(), 25);
    }
}
