//! Property tests for the assignment core: algorithm invariants over
//! randomly generated CAP instances.

use dve_assign::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random small instance. `slack` scales capacities: >= 2 is comfortably
/// feasible, ~1 is tight.
fn random_instance(
    seed: u64,
    servers: usize,
    zones: usize,
    clients: usize,
    slack: f64,
) -> CapInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let zone_of_client: Vec<usize> = (0..clients).map(|_| rng.gen_range(0..zones)).collect();
    let cs: Vec<f64> = (0..clients * servers)
        .map(|_| rng.gen_range(10.0..500.0))
        .collect();
    let mut ss = vec![0.0; servers * servers];
    for a in 0..servers {
        for b in (a + 1)..servers {
            let d = rng.gen_range(5.0..250.0);
            ss[a * servers + b] = d;
            ss[b * servers + a] = d;
        }
    }
    // Per-client RT proportional to zone population, like the real model.
    let mut pop = vec![0usize; zones];
    for &z in &zone_of_client {
        pop[z] += 1;
    }
    let rt: Vec<f64> = zone_of_client
        .iter()
        .map(|&z| 20.0 * (1.0 + pop[z] as f64))
        .collect();
    let total_demand: f64 = rt.iter().sum::<f64>();
    // Zone load = sum of member RTs; per-server capacity covers both the
    // average load and the largest single zone, so any greedy that falls
    // through its candidate list finds a feasible server when slack >= 2.
    let mut zone_load = vec![0.0f64; zones];
    for (c, &z) in zone_of_client.iter().enumerate() {
        zone_load[z] += rt[c];
    }
    let max_zone = zone_load.iter().copied().fold(0.0, f64::max);
    let capacity = vec![(slack * (total_demand / servers as f64).max(max_zone)).max(1.0); servers];
    CapInstance::from_raw(servers, zones, zone_of_client, cs, ss, rt, capacity, 250.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn heuristics_always_feasible_with_generous_capacity(
        seed in any::<u64>(),
        servers in 2usize..5,
        zones in 1usize..8,
        clients in 0usize..30,
    ) {
        let inst = random_instance(seed, servers, zones, clients, 3.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        for algo in CapAlgorithm::HEURISTICS {
            let a = solve(&inst, algo, StuckPolicy::Strict, &mut rng).unwrap();
            prop_assert!(a.is_feasible(&inst), "{algo} infeasible");
            let m = evaluate(&inst, &a);
            prop_assert!((0.0..=1.0).contains(&m.pqos));
            prop_assert!(m.utilization >= 0.0);
            prop_assert!(m.delays.len() == clients);
        }
    }

    #[test]
    fn exact_iap_cost_never_above_grez(seed in any::<u64>(),
                                       servers in 2usize..4,
                                       zones in 1usize..6,
                                       clients in 0usize..20) {
        let inst = random_instance(seed, servers, zones, clients, 3.0);
        let grez_t = grez(&inst, StuckPolicy::Strict).unwrap();
        let exact_t = exact_iap(&inst, &BbConfig::default()).unwrap();
        prop_assert!(iap_total_cost(&inst, &exact_t) <= iap_total_cost(&inst, &grez_t) + 1e-9);
    }

    #[test]
    fn exact_rap_cost_never_above_grec(seed in any::<u64>(),
                                       servers in 2usize..4,
                                       zones in 1usize..5,
                                       clients in 0usize..16) {
        let inst = random_instance(seed, servers, zones, clients, 3.0);
        let targets = grez(&inst, StuckPolicy::Strict).unwrap();
        let grec_c = grec(&inst, &targets);
        let exact_c = exact_rap(&inst, &targets, &BbConfig::default()).unwrap();
        prop_assert!(
            rap_total_cost(&inst, &targets, &exact_c)
                <= rap_total_cost(&inst, &targets, &grec_c) + 1e-9
        );
    }

    #[test]
    fn virc_never_forwards_and_costs_only_zone_loads(seed in any::<u64>(),
                                                     clients in 0usize..25) {
        let inst = random_instance(seed, 3, 5, clients, 3.0);
        let targets = grez(&inst, StuckPolicy::Strict).unwrap();
        let a = Assignment {
            contact_of_client: virc(&inst, &targets),
            target_of_zone: targets,
        };
        prop_assert_eq!(a.forwarded_clients(&inst), 0);
        let loads = a.server_loads(&inst);
        let total: f64 = loads.iter().sum();
        let zone_total: f64 = (0..inst.num_zones()).map(|z| inst.zone_bps(z)).sum();
        prop_assert!((total - zone_total).abs() < 1e-6);
    }

    #[test]
    fn grec_never_worsens_rap_cost_vs_virc(seed in any::<u64>(), clients in 0usize..25) {
        let inst = random_instance(seed, 3, 5, clients, 3.0);
        let targets = grez(&inst, StuckPolicy::Strict).unwrap();
        let virc_cost = rap_total_cost(&inst, &targets, &virc(&inst, &targets));
        let grec_cost = rap_total_cost(&inst, &targets, &grec(&inst, &targets));
        prop_assert!(grec_cost <= virc_cost + 1e-9);
    }

    #[test]
    fn local_search_never_worsens_and_stays_feasible(seed in any::<u64>(),
                                                     clients in 0usize..25) {
        let inst = random_instance(seed, 3, 6, clients, 2.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1e);
        let mut t = ranz(&inst, StuckPolicy::Strict, &mut rng).unwrap();
        let before = iap_total_cost(&inst, &t);
        let stats = improve_iap(&inst, &mut t, 30);
        prop_assert!(stats.final_cost <= before + 1e-9);
        let a = Assignment {
            contact_of_client: virc(&inst, &t),
            target_of_zone: t,
        };
        prop_assert!(a.is_feasible(&inst));
    }

    #[test]
    fn annealing_result_feasible_and_no_worse_than_start(seed in any::<u64>(),
                                                         clients in 0usize..20) {
        let inst = random_instance(seed, 3, 5, clients, 2.5);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa77);
        let start = grez(&inst, StuckPolicy::Strict).unwrap();
        let start_cost = iap_total_cost(&inst, &start);
        let config = AnnealConfig { steps: 2000, ..Default::default() };
        let out = anneal_iap(&inst, &start, &config, &mut rng);
        prop_assert!(out.feasible);
        prop_assert!(out.cost <= start_cost + 1e-9);
    }

    #[test]
    fn best_effort_always_completes(seed in any::<u64>(), clients in 1usize..25) {
        // Deliberately starved capacities: strict fails or succeeds, but
        // best-effort must always produce a complete target vector.
        let inst = random_instance(seed, 2, 6, clients, 0.4);
        let t = grez(&inst, StuckPolicy::BestEffort).unwrap();
        prop_assert_eq!(t.len(), inst.num_zones());
        prop_assert!(t.iter().all(|&s| s < inst.num_servers()));
        // GreC on top never adds load beyond what fits.
        let contacts = grec(&inst, &t);
        prop_assert_eq!(contacts.len(), inst.num_clients());
    }

    #[test]
    fn evaluation_delays_are_true_path_delays(seed in any::<u64>(), clients in 1usize..20) {
        let inst = random_instance(seed, 3, 4, clients, 3.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = solve(&inst, CapAlgorithm::GreZGreC, StuckPolicy::Strict, &mut rng).unwrap();
        let m = evaluate(&inst, &a);
        for c in 0..clients {
            let t = a.target_of_client(&inst, c);
            let expect = inst.true_path_delay(c, a.contact_of_client[c], t);
            prop_assert!((m.delays[c] - expect).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cost_matrix_equals_naive_scan(seed in any::<u64>(),
                                     servers in 1usize..6,
                                     zones in 1usize..10,
                                     clients in 0usize..40) {
        let inst = random_instance(seed, servers, zones, clients, 2.0);
        let cm = CostMatrix::build(&inst);
        for s in 0..servers {
            for z in 0..zones {
                prop_assert_eq!(cm.cost(s, z), inst.iap_cost(s, z),
                    "C^I mismatch at server {} zone {}", s, z);
            }
        }
        // The per-zone order is a permutation sorted by (cost, index).
        for z in 0..zones {
            let order = cm.order(z);
            prop_assert_eq!(order.len(), servers);
            for w in order.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                prop_assert!((cm.count(a, z), a) < (cm.count(b, z), b));
            }
        }
    }

    #[test]
    fn incremental_eval_tracks_total_cost_over_random_moves(
        seed in any::<u64>(),
        servers in 2usize..5,
        zones in 1usize..8,
        clients in 0usize..30,
        moves in 1usize..120,
    ) {
        let inst = random_instance(seed, servers, zones, clients, 2.0);
        let cm = CostMatrix::build(&inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe7a1);
        let target: Vec<usize> = (0..zones).map(|_| rng.gen_range(0..servers)).collect();
        let mut eval = IncrementalEval::new(&inst, &cm, &target);
        for _ in 0..moves {
            if rng.gen::<f64>() < 0.5 {
                let z = rng.gen_range(0..zones);
                let s = rng.gen_range(0..servers);
                let predicted = eval.total_cost() + eval.shift_delta(z, s);
                eval.apply_shift(z, s);
                prop_assert_eq!(eval.total_cost(), predicted);
            } else {
                let a = rng.gen_range(0..zones);
                let b = rng.gen_range(0..zones);
                if a == b { continue; }
                let predicted = eval.total_cost() + eval.swap_delta(a, b);
                eval.apply_swap(a, b);
                prop_assert_eq!(eval.total_cost(), predicted);
            }
            // The invariant of the engine: incremental total == naive
            // resummation (exactly — counts are integers).
            prop_assert_eq!(eval.total_cost(), iap_total_cost(&inst, eval.target()));
            let mut loads = vec![0.0; servers];
            for (z, &s) in eval.target().iter().enumerate() {
                loads[s] += inst.zone_bps(z);
            }
            prop_assert_eq!(eval.loads(), &loads[..]);
        }
    }

    #[test]
    fn grez_bit_identical_to_reference(seed in any::<u64>(),
                                       servers in 1usize..6,
                                       zones in 1usize..10,
                                       clients in 0usize..40) {
        let inst = random_instance(seed, servers, zones, clients, 2.0);
        prop_assert_eq!(
            grez(&inst, StuckPolicy::BestEffort).unwrap(),
            reference::grez_reference(&inst, StuckPolicy::BestEffort).unwrap()
        );
    }

    #[test]
    fn improve_iap_bit_identical_to_reference(seed in any::<u64>(),
                                              servers in 2usize..5,
                                              zones in 1usize..9,
                                              clients in 0usize..35) {
        // The perf refactor must cause no behavioural drift: from the
        // same (random, feasible) start the engine path and the naive
        // path must walk to the same local optimum with the same stats.
        let inst = random_instance(seed, servers, zones, clients, 2.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb17);
        let start = ranz(&inst, StuckPolicy::Strict, &mut rng).unwrap();
        let mut fast = start.clone();
        let mut naive = start;
        let fast_stats = improve_iap(&inst, &mut fast, 40);
        let naive_stats = reference::improve_iap_reference(&inst, &mut naive, 40);
        prop_assert_eq!(&fast, &naive, "assignments diverged");
        prop_assert_eq!(fast_stats, naive_stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn joint_exact_dominates_two_phase_exact(seed in any::<u64>(), clients in 1usize..8) {
        // Definition 2.1 solved jointly can never be worse (in observed
        // QoS count) than the paper's sequential exact decomposition.
        let inst = random_instance(seed, 2, 2, clients, 3.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let joint = exact_joint_cap(&inst, &BbConfig::default()).unwrap();
        let seq = solve(&inst, CapAlgorithm::Exact, StuckPolicy::Strict, &mut rng).unwrap();
        let joint_m = evaluate(&inst, &joint.assignment);
        let seq_m = evaluate(&inst, &seq);
        prop_assert!(joint_m.pqos >= seq_m.pqos - 1e-9,
            "joint {} vs sequential {}", joint_m.pqos, seq_m.pqos);
        prop_assert!(joint.assignment.is_feasible(&inst));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tentpole churn property: over any random sequence of
    /// join/leave/move deltas, the carried instance and the
    /// delta-updated `CostMatrix` are bit-identical to fresh rebuilds on
    /// the post-delta world — same counts, same orderings, same regrets,
    /// hence identical solver decisions.
    #[test]
    fn cost_matrix_delta_bit_identical_to_fresh_build_over_churn(
        seed in any::<u64>(),
        epochs in 1usize..4,
        joins in 0usize..25,
        leaves in 0usize..25,
        moves in 0usize..25,
    ) {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{apply_dynamics, DynamicsBatch, ErrorModel, ScenarioConfig, World};

        let mut rng = StdRng::seed_from_u64(seed);
        let topo = flat_waxman(30, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let config = ScenarioConfig::from_notation("3s-6z-40c-100cp").unwrap();
        let mut world = World::generate(&config, 30, &topo.as_of_node, &mut rng).unwrap();
        let mut inst =
            CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng);
        let handle = dve_world::WorldDelays::from_matrix(delays.clone(), &world);
        let mut matrix = CostMatrix::build(&inst);
        let batch = DynamicsBatch { joins, leaves, moves };
        for _ in 0..epochs {
            let outcome = apply_dynamics(&world, &batch, 30, &mut rng);
            matrix.retire_departures(&inst, &outcome.delta);
            inst = inst.apply_delta(&outcome, &handle, ErrorModel::PERFECT, &mut rng);
            matrix.admit_arrivals(&inst, &outcome.delta);

            let fresh = CapInstance::build(
                &outcome.world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng,
            );
            prop_assert_eq!(&matrix, &CostMatrix::build(&fresh));
            prop_assert_eq!(&matrix, &CostMatrix::build(&inst));
            // The carried instance is accessor-identical to a fresh build
            // (rows live in recycled slots, values must not differ).
            prop_assert_eq!(inst.num_clients(), fresh.num_clients());
            for c in 0..fresh.num_clients() {
                prop_assert_eq!(inst.zone_of(c), fresh.zone_of(c));
                prop_assert_eq!(inst.client_target_bps(c), fresh.client_target_bps(c));
                for s in 0..fresh.num_servers() {
                    prop_assert_eq!(inst.obs_cs(c, s), fresh.obs_cs(c, s));
                    prop_assert_eq!(inst.true_cs(c, s), fresh.true_cs(c, s));
                }
            }
            for z in 0..fresh.num_zones() {
                prop_assert_eq!(inst.zone_bps(z), fresh.zone_bps(z));
            }
            world = outcome.world;
        }
    }

    /// The blocked `DelaySource` pipeline (satellite of the million-client
    /// engine): on random worlds, the blocked one-pass f64 build of both
    /// `CapInstance` and `CostMatrix` is **bit-identical** to the dense
    /// reference builds; the shared-by-node layout is accessor-identical
    /// under perfect observations; and the f32 layout stays within one
    /// f32 ulp of relative error per delay.
    #[test]
    fn blocked_builds_match_dense_reference_on_random_worlds(
        seed in any::<u64>(),
        servers in 2usize..6,
        zones in 1usize..10,
        clients in 1usize..80,
        error_factor in 1u8..3,
    ) {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{ErrorModel, ScenarioConfig, World, WorldDelays};

        let mut rng = StdRng::seed_from_u64(seed);
        let topo = flat_waxman(35, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let notation = format!("{servers}s-{zones}z-{clients}c-100cp");
        let config = ScenarioConfig::from_notation(&notation).unwrap();
        let world = World::generate(&config, 35, &topo.as_of_node, &mut rng).unwrap();
        let handle = WorldDelays::from_matrix(delays.clone(), &world);
        let error = ErrorModel::new(f64::from(error_factor));

        // Dense reference and blocked f64 path, fed identical RNG clones.
        let mut rng_a = rng.clone();
        let mut rng_b = rng.clone();
        let dense = CapInstance::build(&world, &delays, 0.5, 250.0, error, &mut rng_a);
        let dense_matrix = CostMatrix::build(&dense);
        let (blocked, blocked_matrix) = CapInstance::from_world_with_matrix(
            &world, &handle, 0.5, 250.0, error, DelayLayout::Dense64, &mut rng_b,
        );
        prop_assert_eq!(&blocked_matrix, &dense_matrix);
        prop_assert_eq!(dense.num_clients(), blocked.num_clients());
        for c in 0..dense.num_clients() {
            prop_assert_eq!(dense.zone_of(c), blocked.zone_of(c));
            prop_assert_eq!(dense.client_target_bps(c), blocked.client_target_bps(c));
            for s in 0..servers {
                prop_assert_eq!(dense.obs_cs(c, s), blocked.obs_cs(c, s));
                prop_assert_eq!(dense.true_cs(c, s), blocked.true_cs(c, s));
            }
        }
        for a in 0..servers {
            for b in 0..servers {
                prop_assert_eq!(dense.obs_ss(a, b), blocked.obs_ss(a, b));
                prop_assert_eq!(dense.true_ss(a, b), blocked.true_ss(a, b));
            }
        }

        // Compact f32: bounded relative error on every delay, and a
        // matrix that matches its own (rounded) instance exactly.
        let mut rng_c = rng.clone();
        let (compact, compact_matrix) = CapInstance::from_world_with_matrix(
            &world, &handle, 0.5, 250.0, error, DelayLayout::Compact32, &mut rng_c,
        );
        prop_assert_eq!(&compact_matrix, &CostMatrix::build(&compact));
        let tol = f64::from(f32::EPSILON);
        for c in 0..dense.num_clients() {
            for s in 0..servers {
                let d = dense.obs_cs(c, s);
                let q = compact.obs_cs(c, s);
                prop_assert!((d - q).abs() <= d.abs() * tol, "obs c={} s={}: {} vs {}", c, s, q, d);
            }
        }

        // Shared-by-node: identical to dense under perfect observations.
        let mut rng_d = rng.clone();
        let mut rng_e = rng;
        let perfect = CapInstance::build(&world, &delays, 0.5, 250.0, ErrorModel::PERFECT, &mut rng_d);
        let (shared, shared_matrix) = CapInstance::from_world_with_matrix(
            &world, &handle, 0.5, 250.0, ErrorModel::PERFECT, DelayLayout::SharedByNode, &mut rng_e,
        );
        prop_assert_eq!(&shared_matrix, &CostMatrix::build(&perfect));
        for c in 0..perfect.num_clients() {
            for s in 0..servers {
                prop_assert_eq!(perfect.obs_cs(c, s), shared.obs_cs(c, s));
                prop_assert_eq!(perfect.true_cs(c, s), shared.true_cs(c, s));
            }
        }
        // Shared memory is substrate-bounded: 35 nodes x m x 8 bytes.
        prop_assert_eq!(shared.delay_table_bytes(), 35 * servers * 8);
    }

    /// `RelayTable` entries equal the naive eq. 8 evaluation kept in
    /// `dve_assign::reference`, and the table-driven GreC makes exactly
    /// the decisions the naive GreC makes.
    #[test]
    fn relay_table_matches_naive_cr_evaluation(
        seed in any::<u64>(),
        servers in 2usize..5,
        zones in 1usize..8,
        clients in 0usize..30,
        slack in 1usize..3,
    ) {
        let inst = random_instance(seed, servers, zones, clients, slack as f64);
        let targets = grez(&inst, StuckPolicy::BestEffort).unwrap();
        let table = RelayTable::build(&inst, &targets);
        prop_assert_eq!(table.violating(), &violating_clients(&inst, &targets)[..]);
        for (k, &c) in table.violating().iter().enumerate() {
            let t = targets[inst.zone_of(c)];
            for s in 0..servers {
                prop_assert_eq!(
                    table.cost(k, s),
                    reference::rap_cost_reference(&inst, c, s, t),
                    "C^R mismatch at client {} server {}", c, s
                );
            }
        }
        let fast = grec_with(&inst, &targets, &table);
        let naive = reference::grec_reference(&inst, &targets);
        prop_assert_eq!(&fast, &naive, "GreC decisions diverged");
        prop_assert_eq!(&grec(&inst, &targets), &naive);
    }
}

/// A GreC instance whose violators compete for relay capacity. `regime`
/// sets the delays against the bound:
/// * 0 — loose: a 300 ms bound and server hops under 20 ms, so most
///   relay costs `C^R` are 0;
/// * 1 — `random_instance`'s delays and 250 ms bound;
/// * 2 — tight: a 5 ms bound, below every delay, so no `C^R` is 0.
///
/// Delays are whole milliseconds, so positive costs tie too. Each
/// server's capacity is `slack` × the mean load per server. With
/// `slack < 1` and arbitrary targets some targets are overfull, and
/// relays fill the lowest-index zero-cost servers first.
fn grec_instance(
    seed: u64,
    servers: usize,
    zones: usize,
    clients: usize,
    slack: f64,
    regime: usize,
) -> CapInstance {
    let (bound, hop) = [(300.0, 20u32), (250.0, 250), (5.0, 250)][regime];
    let mut rng = StdRng::seed_from_u64(seed);
    let zone_of_client: Vec<usize> = (0..clients).map(|_| rng.gen_range(0..zones)).collect();
    let cs: Vec<f64> = (0..clients * servers)
        .map(|_| rng.gen_range(10u32..500) as f64)
        .collect();
    let mut ss = vec![0.0; servers * servers];
    for a in 0..servers {
        for b in (a + 1)..servers {
            let d = rng.gen_range(1..hop) as f64;
            ss[a * servers + b] = d;
            ss[b * servers + a] = d;
        }
    }
    let mut pop = vec![0usize; zones];
    for &z in &zone_of_client {
        pop[z] += 1;
    }
    let rt: Vec<f64> = zone_of_client
        .iter()
        .map(|&z| 20.0 * (1.0 + pop[z] as f64))
        .collect();
    let capacity = vec![slack * rt.iter().sum::<f64>() / servers as f64; servers];
    CapInstance::from_raw(servers, zones, zone_of_client, cs, ss, rt, capacity, bound)
}

/// Targets drawn uniformly, not by GreZ: zones pile onto servers with no
/// regard for capacity.
fn random_targets(seed: u64, servers: usize, zones: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a26);
    (0..zones).map(|_| rng.gen_range(0..servers)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GreC's regret pass and live-scan commit make exactly the list-based
    /// reference's decisions, with or without a `RelayTable`, on every
    /// delay regime, at one server and at several, with hundreds of
    /// violators filling relays under tight capacity and arbitrary,
    /// possibly overfull, targets.
    #[test]
    fn grec_matches_reference_on_crowded_instances(
        seed in any::<u64>(),
        servers in 2usize..9,
        zones in 1usize..16,
        clients in 800usize..1000,
        slack in 0.2f64..1.0,
    ) {
        for regime in 0..3 {
            for m in [1, servers] {
                let inst = grec_instance(seed, m, zones, clients, slack, regime);
                let targets = random_targets(seed, m, zones);
                let violators = violating_clients(&inst, &targets).len();
                prop_assert!(violators >= 256, "regime {} m {}: {} violators", regime, m, violators);
                let naive = reference::grec_reference(&inst, &targets);
                prop_assert_eq!(&grec(&inst, &targets), &naive, "grec: regime {} m {}", regime, m);
                let table = RelayTable::build(&inst, &targets);
                prop_assert_eq!(
                    &grec_with(&inst, &targets, &table),
                    &naive,
                    "grec_with: regime {} m {}", regime, m
                );
            }
        }
    }
}

/// The crowded instances above reach every branch of GreC's commit: a
/// violator whose cheapest server no longer fits, a violator left on an
/// overfull target because nothing fits, and picks at zero and at
/// positive cost.
#[test]
fn crowded_grec_instances_reach_every_commit_branch() {
    let (m, zones) = (6, 5);
    let (mut skipped, mut fallback, mut zero, mut positive) = (0, 0, 0, 0);
    for seed in 0..4u64 {
        for regime in 0..3 {
            let inst = grec_instance(seed, m, zones, 900, 0.5, regime);
            let targets = random_targets(seed, m, zones);
            let contact = grec(&inst, &targets);
            let mut zone_load = vec![0.0; m];
            for (z, &s) in targets.iter().enumerate() {
                zone_load[s] += inst.zone_bps(z);
            }
            for c in violating_clients(&inst, &targets) {
                let t = targets[inst.zone_of(c)];
                let cost = |s: usize| inst.rap_cost(c, s, t);
                let cheapest = (0..m)
                    .min_by(|&a, &b| cost(a).partial_cmp(&cost(b)).unwrap())
                    .unwrap();
                let s = contact[c];
                skipped += usize::from(s != cheapest);
                fallback += usize::from(s == t && zone_load[t] > inst.capacity(t) + 1e-9);
                if cost(s) == 0.0 {
                    zero += 1;
                } else {
                    positive += 1;
                }
            }
        }
    }
    assert!(
        skipped > 0 && fallback > 0 && zero > 0 && positive > 0,
        "skipped {skipped}, fallback {fallback}, zero {zero}, positive {positive}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Thread-count invariance of the sharded count fold: the matrix
    /// built on 1, 2, and 8 workers is bit-identical (per-worker `u32`
    /// accumulators merged in worker-index order commute exactly).
    #[test]
    fn cost_matrix_build_is_thread_count_invariant(
        seed in any::<u64>(),
        servers in 2usize..6,
        zones in 1usize..80,
        clients in 0usize..400,
    ) {
        let inst = random_instance(seed, servers, zones, clients, 2.0);
        let serial = CostMatrix::build_threads(&inst, 1);
        for threads in [2usize, 8] {
            prop_assert_eq!(
                &CostMatrix::build_threads(&inst, threads),
                &serial,
                "threads={}", threads
            );
        }
    }

    /// Thread-count invariance of the sharded `refresh_zones`: after a
    /// run of per-client retirements leaves orderings stale, refreshing
    /// on any width reaches the same matrix bit for bit (duplicate zone
    /// entries included).
    #[test]
    fn refresh_zones_is_thread_count_invariant(
        seed in any::<u64>(),
        servers in 2usize..6,
        zones in 64usize..90,
        clients in 200usize..400,
        retire in 1usize..40,
    ) {
        let inst = random_instance(seed, servers, zones, clients, 2.0);
        let stale = {
            let mut matrix = CostMatrix::build(&inst);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            // Retire a distinct random subset (a client can leave once).
            let mut pool: Vec<usize> = (0..inst.num_clients()).collect();
            for _ in 0..retire.min(inst.num_clients()) {
                let c = pool.swap_remove(rng.gen_range(0..pool.len()));
                matrix.retire_client(&inst, c, inst.zone_of(c));
            }
            matrix
        };
        let mut touched: Vec<usize> = (0..zones).collect();
        touched.extend(0..zones / 2); // duplicates must be harmless
        let mut serial = stale.clone();
        serial.refresh_zones_threads(&touched, 1);
        for threads in [2usize, 8] {
            let mut sharded = stale.clone();
            sharded.refresh_zones_threads(&touched, threads);
            prop_assert_eq!(&sharded, &serial, "threads={}", threads);
        }
    }

    /// Thread-count invariance of the sharded violator scans (full and
    /// zone-scoped — the incremental repair's rescan path).
    #[test]
    fn violator_scans_are_thread_count_invariant(
        seed in any::<u64>(),
        servers in 2usize..6,
        zones in 1usize..80,
        clients in 0usize..400,
    ) {
        let inst = random_instance(seed, servers, zones, clients, 2.0);
        let targets = grez(&inst, StuckPolicy::BestEffort).unwrap();
        let full = violating_clients_threads(&inst, &targets, 1);
        let scoped_zones: Vec<usize> = (0..zones).filter(|z| z % 3 != 1).collect();
        let scoped = violating_clients_in_threads(&inst, &targets, &scoped_zones, 1);
        for threads in [2usize, 8] {
            prop_assert_eq!(
                &violating_clients_threads(&inst, &targets, threads),
                &full, "threads={}", threads
            );
            prop_assert_eq!(
                &violating_clients_in_threads(&inst, &targets, &scoped_zones, threads),
                &scoped, "threads={}", threads
            );
        }
    }

    /// Thread-count invariance of the sharded local-search sweep on
    /// zone counts that engage the propose/commit machinery.
    #[test]
    fn sharded_sweep_is_thread_count_invariant(
        seed in any::<u64>(),
        servers in 3usize..6,
        zones in 64usize..100,
        clients in 200usize..400,
    ) {
        let inst = random_instance(seed, servers, zones, clients, 1.3);
        let matrix = CostMatrix::build(&inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1005);
        let start: Vec<usize> = (0..zones).map(|_| rng.gen_range(0..servers)).collect();
        let mut serial = start.clone();
        let serial_stats = improve_iap_with_threads(&inst, &matrix, &mut serial, 25, 1);
        for threads in [2usize, 8] {
            let mut sharded = start.clone();
            let sharded_stats =
                improve_iap_with_threads(&inst, &matrix, &mut sharded, 25, threads);
            prop_assert_eq!(&sharded, &serial, "threads={}", threads);
            prop_assert_eq!(sharded_stats, serial_stats, "threads={}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Thread-count invariance of the blocked one-pass builder at a
    /// population that engages the parallel row fill *and* the parallel
    /// cost fold (> one build block): instance accessors and the folded
    /// matrix are bit-identical on 1, 2, and 8 workers, for the dense
    /// and the shared layouts.
    #[test]
    fn blocked_build_fold_is_thread_count_invariant(
        seed in any::<u64>(),
        extra in 0usize..1500,
    ) {
        use dve_topology::{flat_waxman, DelayMatrix, WaxmanParams};
        use dve_world::{ErrorModel, ScenarioConfig, World, WorldDelays};

        let clients = 4200 + extra; // > BUILD_BLOCK so the fold shards
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = flat_waxman(35, 2, 100.0, WaxmanParams::default(), &mut rng);
        let delays = DelayMatrix::from_graph(&topo.graph, 500.0).unwrap();
        let notation = format!("3s-12z-{clients}c-200cp");
        let config = ScenarioConfig::from_notation(&notation).unwrap();
        let world = World::generate(&config, 35, &topo.as_of_node, &mut rng).unwrap();
        let handle = WorldDelays::from_matrix(delays, &world);

        for (layout, error) in [
            (DelayLayout::Dense64, ErrorModel::new(1.2)),
            (DelayLayout::Dense64, ErrorModel::PERFECT),
            (DelayLayout::SharedByNode, ErrorModel::PERFECT),
        ] {
            let mut rng_a = rng.clone();
            let (base_inst, base_matrix) = CapInstance::from_world_with_matrix_threads(
                &world, &handle, 0.5, 250.0, error, layout, 1, &mut rng_a,
            );
            for threads in [2usize, 8] {
                let mut rng_b = rng.clone();
                let (inst, matrix) = CapInstance::from_world_with_matrix_threads(
                    &world, &handle, 0.5, 250.0, error, layout, threads, &mut rng_b,
                );
                prop_assert_eq!(&matrix, &base_matrix, "threads={}", threads);
                prop_assert_eq!(inst.num_clients(), base_inst.num_clients());
                for c in (0..inst.num_clients()).step_by(97) {
                    for s in 0..inst.num_servers() {
                        prop_assert_eq!(inst.obs_cs(c, s), base_inst.obs_cs(c, s));
                        prop_assert_eq!(inst.true_cs(c, s), base_inst.true_cs(c, s));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The write-into proposal API is byte-identical to its allocating
    /// wrapper, even when handed a dirty recycled buffer — the serving
    /// layer's flush pool threads exactly such buffers through every
    /// flush, so reuse must be invisible in the proposed bytes.
    #[test]
    fn propose_zone_order_into_matches_allocating(
        seed in any::<u64>(),
        servers in 2usize..6,
        zones in 1usize..8,
        clients in 0usize..30,
        rot in 0usize..6,
        junk in proptest::collection::vec(any::<u32>(), 0..12),
    ) {
        let inst = random_instance(seed, servers, zones, clients, 2.0);
        let mut matrix = CostMatrix::build(&inst);
        // Scramble the starting orders so the proposal sorts a genuinely
        // arbitrary permutation, not an already-sorted row.
        for z in 0..zones {
            let mut row: Vec<u32> = matrix.order(z).to_vec();
            row.rotate_left(rot % servers);
            let rho = matrix.regret(z);
            matrix.commit_zone_order(z, &row, rho);
        }
        let mut recycled = junk;
        for z in 0..zones {
            let (fresh_row, fresh_rho) = matrix.propose_zone_order(z);
            let rho = matrix.propose_zone_order_into(z, &mut recycled);
            prop_assert_eq!(&fresh_row, &recycled);
            prop_assert_eq!(fresh_rho.to_bits(), rho.to_bits());
        }
    }
}
