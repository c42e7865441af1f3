//! Set-up (world, instance, engine boot, ingest stream), untraced and
//! traced, and the stand-alone solve.

use crate::pipeline::BUFFER_BOUND;
use crate::trace::Tracer;
use crate::workload::{hotspots, Workload, WorldView};
use dve_assign::{
    grec, grez_with, improve_iap_with, Assignment, CapInstance, CostMatrix, StuckPolicy,
};
use dve_sim::{build_replication, DelayMode, IngestConfig, IngestStream, ServeConfig, ServeEngine};
use dve_topology::{DelayMatrix, DelaySource, OnDemandDelays};
use dve_world::{ErrorModel, World, WorldDelays};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// A booted serving stack, ready to take traffic.
pub struct Booted {
    pub world: World,
    pub engine: ServeEngine,
    pub stream: IngestStream,
}

impl Booted {
    /// What a schedule needs to know about this stack's world.
    pub fn view(&self) -> WorldView {
        let zone_of_client: Vec<usize> = self.world.clients.iter().map(|c| c.zone).collect();
        let hottest = hotspots(&zone_of_client, self.world.zones)[0];
        WorldView {
            fault_server: self.engine.targets()[hottest],
            zones: self.world.zones,
            nodes: self.engine.nodes(),
            zone_of_client,
        }
    }
}

/// `dvecap serve`'s engine configuration: the ingest flush policy's
/// batch size also sizes the engine's own micro-batch.
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: IngestConfig::default().max_batch,
        ..Default::default()
    }
}

fn boot_engine(
    instance: CapInstance,
    world: &World,
    delays: WorldDelays,
    rng: StdRng,
) -> ServeEngine {
    ServeEngine::new(
        instance,
        world,
        delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        serve_config(),
        rng,
    )
    .expect("the benchmark worlds boot")
}

fn attach(engine: &ServeEngine, world: &World) -> IngestStream {
    IngestStream::new(engine, world, BUFFER_BOUND, IngestConfig::default())
}

/// Sets the stack up from scratch, as `dvecap serve` does.
pub fn setup(workload: &Workload) -> Booted {
    let rep = build_replication(&workload.sim_setup(), 0);
    let engine = boot_engine(rep.instance, &rep.world, rep.delays, rep.rng);
    let stream = attach(&engine, &rep.world);
    Booted {
        world: rep.world,
        engine,
        stream,
    }
}

/// FNV-1a over everything an instance answers for each client and
/// server, plus the world's clients.
fn digest(world: &World, inst: &CapInstance) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
    for c in &world.clients {
        mix(c.node as u64);
        mix(c.zone as u64);
    }
    let (k, m) = (inst.num_clients(), inst.num_servers());
    mix(k as u64);
    mix(m as u64);
    mix(inst.num_zones() as u64);
    mix(inst.delay_bound().to_bits());
    for c in 0..k {
        mix(inst.zone_of(c) as u64);
        mix(inst.client_target_bps(c).to_bits());
        mix(inst.client_forwarding_bps(c).to_bits());
        inst.fold_obs_row(c, |_, d| mix(d.to_bits()));
        for s in 0..m {
            mix(inst.true_cs(c, s).to_bits());
        }
    }
    for a in 0..m {
        mix(inst.capacity(a).to_bits());
        for b in 0..m {
            mix(inst.obs_ss(a, b).to_bits());
            mix(inst.true_ss(a, b).to_bits());
        }
    }
    h
}

/// One set-up through the public steps `build_replication` is made of,
/// in its RNG order, each timed as a span. With `verify`, checks that
/// the result equals `build_replication`'s. Then re-times the engine
/// boot's matrix build, GreZ and GreC on the booted instance to split
/// `engine.boot`. Returns the stack and the set-up's wall time (spans
/// only).
pub fn traced_setup(
    workload: &Workload,
    t: &mut Tracer,
    verify: bool,
) -> Result<(Booted, f64), String> {
    let setup = workload.sim_setup();
    let reference = verify.then(|| {
        let rep = build_replication(&setup, 0);
        digest(&rep.world, &rep.instance)
    });

    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(setup.base_seed);
    let (topology, source) = t.time("topology.gen", || {
        let topology = setup.topology.generate(&mut rng);
        let source: Arc<dyn DelaySource> = match setup.delay_mode {
            DelayMode::Dense => Arc::new(
                DelayMatrix::from_graph(&topology.graph, setup.max_rtt_ms).expect("connected"),
            ),
            DelayMode::OnDemand { landmarks } => Arc::new(
                OnDemandDelays::from_graph(&topology.graph, setup.max_rtt_ms, landmarks)
                    .expect("connected"),
            ),
        };
        (topology, source)
    });
    let (world, delays) = t.time("world.gen", || {
        let world = World::generate(
            &setup.scenario,
            topology.node_count(),
            &topology.as_of_node,
            &mut rng,
        )
        .expect("scenario fits the topology");
        let delays = WorldDelays::for_world(source, &world);
        (world, delays)
    });
    let instance = t.time("assign.build", || {
        CapInstance::from_world(
            &world,
            &delays,
            setup.provisioning,
            setup.delay_bound_ms,
            ErrorModel::new(setup.error_factor),
            setup.delay_layout,
            &mut rng,
        )
    });
    let mut elapsed = started.elapsed().as_secs_f64();
    if reference.is_some_and(|r| r != digest(&world, &instance)) {
        return Err("traced set-up built a different instance than build_replication".into());
    }

    let started = Instant::now();
    let engine = t.time("engine.boot", || boot_engine(instance, &world, delays, rng));
    let stream = t.time("ingest.new", || attach(&engine, &world));
    elapsed += started.elapsed().as_secs_f64();

    let inst = engine.instance();
    let matrix = t.time("assign.matrix", || CostMatrix::build(inst));
    let targets = t.time("assign.grez", || {
        grez_with(inst, &matrix, StuckPolicy::BestEffort).expect("boots")
    });
    t.time("assign.grec", || std::hint::black_box(grec(inst, &targets)));
    if targets != engine.targets() {
        return Err("re-timed GreZ disagrees with the engine's boot targets".into());
    }
    Ok((
        Booted {
            world,
            engine,
            stream,
        },
        elapsed,
    ))
}

/// Local-search sweeps per solve, as the million bench runs it.
const LS_SWEEPS: usize = 2;

/// Runs GreZ + `improve_iap_with` + GreC on the booted instance and cost
/// matrix (read-only; the engine is untouched). Returns the assignment
/// and its wall time in seconds.
pub fn solve(engine: &ServeEngine) -> (Assignment, f64) {
    let inst = engine.instance();
    let matrix = engine.matrix();
    let started = Instant::now();
    let mut targets = grez_with(inst, matrix, StuckPolicy::BestEffort).expect("boots");
    improve_iap_with(inst, matrix, &mut targets, LS_SWEEPS);
    let contacts = grec(inst, &targets);
    let secs = started.elapsed().as_secs_f64();
    let assignment = Assignment {
        target_of_zone: targets,
        contact_of_client: contacts,
    };
    (assignment, secs)
}
