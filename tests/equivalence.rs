//! Centralized engine vs. distributed simulator equivalence.
//!
//! The figures are produced by the centralized engine, whose message
//! accounting is *modeled* (Lemma 8 accounting). Here the same DASH
//! algorithm runs as a real message-passing protocol on the discrete
//! event simulator, against the same victim sequence, and we assert the
//! two implementations agree **exactly**: topology, healing forest,
//! component IDs, ID-change counts, and per-node message counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::attack::RackPartition;
use selfheal_core::batch::delete_independent_batch;
use selfheal_core::dash::Dash;
use selfheal_core::distributed::DistributedDash;
use selfheal_core::scenario::{EventSource, NetworkEvent, ScenarioEngine, ScriptedEvents};
use selfheal_core::sdash::Sdash;
use selfheal_core::state::{HealingNetwork, PropagationReport};
use selfheal_core::strategy::Healer;
use selfheal_graph::generators::{barabasi_albert, star_graph};
use selfheal_graph::{Graph, NodeId};
use selfheal_sim::{Simulator, Topology};

fn mirror_topology(g: &Graph) -> Topology {
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.lo().0, e.hi().0)).collect();
    Topology::from_edges(g.node_bound(), &edges)
}

/// Drive both implementations with the same (max-degree) victim sequence
/// and compare all observable state after every round.
fn assert_equivalent_run(g: Graph, seed: u64, kills: usize) {
    assert_equivalent_run_with(g, seed, kills, false)
}

fn assert_equivalent_run_with(g: Graph, seed: u64, kills: usize, sdash: bool) {
    let n = g.node_bound();
    let topo = mirror_topology(&g);
    let degrees: Vec<u32> = (0..n as u32)
        .map(|v| topo.neighbors(v).len() as u32)
        .collect();
    let mut net = HealingNetwork::new(g, seed);
    let protocol = if sdash {
        DistributedDash::sdash(degrees, seed)
    } else {
        DistributedDash::new(degrees, seed)
    };
    let mut sim = Simulator::new(topo, protocol);
    let mut dash_healer = Dash;
    let mut sdash_healer = Sdash;

    // Sanity: both assigned the same initial IDs.
    for v in 0..n as u32 {
        assert_eq!(
            net.initial_id(NodeId(v)),
            sim.protocol.initial_id(v),
            "initial id of {v}"
        );
    }

    for round in 0..kills {
        let Some(victim) = net.graph().max_degree_node() else {
            break;
        };
        // Both sides see the same topology, so the same victim.
        let sim_victim = sim
            .topology
            .live_nodes()
            .max_by_key(|&v| (sim.topology.neighbors(v).len(), std::cmp::Reverse(v)))
            .unwrap();
        assert_eq!(victim.0, sim_victim, "round {round}: victim mismatch");

        // Centralized round.
        let ctx = net.delete_node(victim).unwrap();
        let outcome = if sdash {
            sdash_healer.heal(&mut net, &ctx)
        } else {
            dash_healer.heal(&mut net, &ctx)
        };
        net.propagate_min_id(&outcome.rt_members);

        // Distributed round.
        sim.delete_node(victim.0);
        sim.run_to_quiescence();

        // Compare every live node's observable state.
        let live: Vec<u32> = sim.topology.live_nodes().collect();
        assert_eq!(
            live,
            net.graph().live_nodes().map(|v| v.0).collect::<Vec<_>>(),
            "round {round}: live sets differ"
        );
        for &v in &live {
            let nv = NodeId(v);
            assert_eq!(
                net.graph()
                    .neighbors(nv)
                    .iter()
                    .map(|u| u.0)
                    .collect::<Vec<_>>(),
                sim.topology.neighbors(v),
                "round {round}: G adjacency of {v}"
            );
            assert_eq!(
                net.healing_graph()
                    .neighbors(nv)
                    .iter()
                    .map(|u| u.0)
                    .collect::<Vec<_>>(),
                sim.protocol
                    .gprime_neighbors(v)
                    .iter()
                    .copied()
                    .collect::<Vec<_>>(),
                "round {round}: G' adjacency of {v}"
            );
            assert_eq!(
                net.comp_id(nv),
                sim.protocol.comp_id(v),
                "round {round}: component id of {v}"
            );
            assert_eq!(
                net.id_changes(nv) as u64,
                sim.protocol.id_changes(v) as u64,
                "round {round}: id-change count of {v}"
            );
            assert_eq!(
                net.messages_sent(nv),
                sim.metrics.sent(v),
                "round {round}: sent count of {v}"
            );
            assert_eq!(
                net.messages_received(nv),
                sim.metrics.received(v),
                "round {round}: received count of {v}"
            );
        }
    }
}

#[test]
fn star_equivalence() {
    assert_equivalent_run(star_graph(12), 3, 12);
}

#[test]
fn ba_equivalence_full_sweep() {
    let g = barabasi_albert(64, 3, &mut StdRng::seed_from_u64(11));
    assert_equivalent_run(g, 11, 64);
}

#[test]
fn ba_equivalence_across_seeds() {
    for seed in [1u64, 2, 5, 9] {
        let g = barabasi_albert(40, 2, &mut StdRng::seed_from_u64(seed));
        assert_equivalent_run(g, seed, 40);
    }
}

#[test]
fn path_equivalence() {
    assert_equivalent_run(selfheal_graph::generators::path_graph(20), 7, 20);
}

#[test]
fn kary_tree_equivalence() {
    let tree = selfheal_graph::generators::KaryTree::new(3, 3);
    assert_equivalent_run(tree.graph, 13, 40);
}

#[test]
fn sdash_equivalence_full_sweep() {
    let g = barabasi_albert(64, 3, &mut StdRng::seed_from_u64(23));
    assert_equivalent_run_with(g, 23, 64, true);
}

#[test]
fn sdash_equivalence_on_star() {
    // Stars exercise the surrogation branch heavily (large δ spread
    // develops after the first hub deletion).
    assert_equivalent_run_with(star_graph(16), 29, 16, true);
}

/// Uniform-component broadcast vs. the exact BFS. The engine and
/// `heal_batch_into` route every post-heal broadcast through
/// [`HealingNetwork::propagate_min_id_uniform`], which is exact only
/// under the invariant that every `G'` component is ID-uniform when the
/// broadcast starts. These sweeps drive twin networks — one broadcasting
/// exactly, one through the restricted fast path — across healers, victim
/// policies and seeds, and require *identical* reports and identical
/// per-node observable state after every round.
fn assert_uniform_propagation_equivalent(
    g: Graph,
    seed: u64,
    sdash: bool,
    pick: impl Fn(&HealingNetwork, usize) -> Option<NodeId>,
) {
    let mut exact = HealingNetwork::new(g.clone(), seed);
    let mut fast = HealingNetwork::new(g, seed);
    let mut dash = Dash;
    let mut sd = Sdash;
    for round in 0.. {
        let Some(victim) = pick(&exact, round) else {
            break;
        };
        let ctx_e = exact.delete_node(victim).unwrap();
        let ctx_f = fast.delete_node(victim).unwrap();
        let (out_e, out_f) = if sdash {
            (sd.heal(&mut exact, &ctx_e), sd.heal(&mut fast, &ctx_f))
        } else {
            (dash.heal(&mut exact, &ctx_e), dash.heal(&mut fast, &ctx_f))
        };
        assert_eq!(out_e.rt_members, out_f.rt_members, "round {round}: RT");
        assert_eq!(out_e.edges_added, out_f.edges_added, "round {round}: edges");
        let rep_e = exact.propagate_min_id(&out_e.rt_members);
        let rep_f = fast.propagate_min_id_uniform(&out_f.rt_members);
        assert_eq!(rep_e, rep_f, "round {round}: propagation reports differ");
        for v in exact.graph().live_nodes() {
            assert_eq!(
                exact.comp_id(v),
                fast.comp_id(v),
                "round {round}: comp of {v}"
            );
            assert_eq!(
                exact.id_changes(v),
                fast.id_changes(v),
                "round {round}: id changes of {v}"
            );
            assert_eq!(
                exact.messages_sent(v),
                fast.messages_sent(v),
                "round {round}: messages of {v}"
            );
        }
    }
}

fn max_degree_pick(net: &HealingNetwork, _round: usize) -> Option<NodeId> {
    net.graph().max_degree_node()
}

#[test]
fn uniform_propagation_equivalent_on_max_degree_sweeps() {
    for seed in [3u64, 11, 41] {
        let g = barabasi_albert(72, 3, &mut StdRng::seed_from_u64(seed));
        assert_uniform_propagation_equivalent(g, seed, false, max_degree_pick);
    }
}

#[test]
fn uniform_propagation_equivalent_for_sdash() {
    for seed in [5u64, 19] {
        let g = barabasi_albert(64, 3, &mut StdRng::seed_from_u64(seed));
        assert_uniform_propagation_equivalent(g, seed, true, max_degree_pick);
    }
    assert_uniform_propagation_equivalent(star_graph(24), 7, true, max_degree_pick);
}

#[test]
fn uniform_propagation_equivalent_under_random_victims() {
    // Pseudo-random victim order (deterministic hash of the round), which
    // exercises mid-graph merges rather than hub-first cascades.
    for seed in [2u64, 13] {
        let g = barabasi_albert(56, 2, &mut StdRng::seed_from_u64(seed));
        assert_uniform_propagation_equivalent(g, seed, false, |net, round| {
            let live: Vec<NodeId> = net.graph().live_nodes().collect();
            if live.is_empty() {
                None
            } else {
                let idx = (round.wrapping_mul(2654435761) ^ round >> 3) % live.len();
                Some(live[idx])
            }
        });
    }
}

#[test]
fn uniform_propagation_equivalent_on_paths_and_trees() {
    assert_uniform_propagation_equivalent(
        selfheal_graph::generators::path_graph(30),
        9,
        false,
        max_degree_pick,
    );
    let tree = selfheal_graph::generators::KaryTree::new(3, 4);
    assert_uniform_propagation_equivalent(tree.graph, 15, false, max_degree_pick);
}

/// Asynchrony robustness: under adversarial per-message jitter the ID
/// broadcast may take different routes (and more adoptions), but the
/// *fixed point* — topology, healing forest and final component IDs — is
/// identical to the synchronous run. Message counts may legitimately
/// differ, so only state is compared.
#[test]
fn async_delivery_reaches_the_same_fixed_point() {
    let n = 48;
    let seed = 17u64;
    let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
    let topo_sync = mirror_topology(&g);
    let degrees: Vec<u32> = (0..n as u32)
        .map(|v| topo_sync.neighbors(v).len() as u32)
        .collect();

    let mut sync = Simulator::new(topo_sync, DistributedDash::new(degrees.clone(), seed));
    let mut jittered = Simulator::new(mirror_topology(&g), DistributedDash::new(degrees, seed));
    jittered.set_latency_jitter(777, 5);

    for _ in 0..n / 2 {
        let victim = sync
            .topology
            .live_nodes()
            .max_by_key(|&v| (sync.topology.neighbors(v).len(), std::cmp::Reverse(v)))
            .unwrap();
        sync.delete_node(victim);
        sync.run_to_quiescence();
        jittered.delete_node(victim);
        jittered.run_to_quiescence();

        for v in sync.topology.live_nodes() {
            assert_eq!(
                sync.topology.neighbors(v),
                jittered.topology.neighbors(v),
                "topology diverged at {v}"
            );
            assert_eq!(
                sync.protocol.comp_id(v),
                jittered.protocol.comp_id(v),
                "component id diverged at {v}"
            );
            assert_eq!(
                sync.protocol.gprime_neighbors(v),
                jittered.protocol.gprime_neighbors(v),
                "healing forest diverged at {v}"
            );
        }
    }
}

/// The engine's batch arm heals on per-victim contexts and outcomes it
/// reuses across events. Hold it to the owned reference path: sanitize
/// by the engine's rule (keep each live victim that neither repeats nor
/// neighbours an earlier kept one), `delete_independent_batch`, then
/// `Healer::heal` and `propagate_min_id_uniform` per victim. After every
/// rack the event record, `G`, `G'` and every component ID must agree,
/// and at the end the run report's totals.
fn assert_batch_arm_matches_reference<H: Healer + Clone>(healer: H, g: Graph, seed: u64) {
    let mut engine = ScenarioEngine::new(
        HealingNetwork::new(g.clone(), seed),
        healer.clone(),
        ScriptedEvents::default(),
    );
    let mut reference = HealingNetwork::new(g, seed);
    let mut ref_healer = healer;
    let mut source = RackPartition::new(seed, 8);
    let mut kept: Vec<NodeId> = Vec::new();
    let (mut rounds, mut messages, mut edges_total, mut latency, mut max_delta) =
        (0u64, 0u64, 0u64, 0u64, 0i64);
    while let Some(event) = source.next_event(&engine.net) {
        let NetworkEvent::DeleteBatch(victims) = &event else {
            panic!("rack partition emits batches only, got {event:?}");
        };
        kept.clear();
        for &v in victims {
            if reference.is_alive(v)
                && !kept.contains(&v)
                && kept.iter().all(|&u| !reference.graph().has_edge(u, v))
            {
                kept.push(v);
            }
        }
        let record = engine.apply(event.clone());
        assert_eq!(record.victims, kept.len(), "batch {event:?}: victims");
        if kept.is_empty() {
            continue;
        }
        rounds += 1;
        let contexts = delete_independent_batch(&mut reference, &kept).unwrap();
        let mut propagation = PropagationReport::default();
        let (mut rt_size, mut edges) = (0, 0);
        let mut members = Vec::new();
        for ctx in &contexts {
            let outcome = ref_healer.heal(&mut reference, ctx);
            if ref_healer.needs_id_propagation() {
                propagation.merge(reference.propagate_min_id_uniform(&outcome.rt_members));
            }
            rt_size += outcome.rt_members.len();
            edges += outcome.edges_added.len();
            members.extend(outcome.rt_members);
        }
        let round_max_delta = members.iter().map(|&m| reference.delta(m)).max();
        assert_eq!(
            (
                record.rt_size,
                record.edges_added,
                record.propagation,
                record.round_max_delta
            ),
            (rt_size, edges, propagation, round_max_delta),
            "round {rounds}: record"
        );
        messages += propagation.messages;
        edges_total += edges as u64;
        latency += propagation.latency;
        max_delta = max_delta.max(round_max_delta.unwrap_or(0));
        for i in 0..reference.graph().node_bound() {
            let v = NodeId::from_index(i);
            assert_eq!(
                engine.net.is_alive(v),
                reference.is_alive(v),
                "round {rounds}: {v} alive"
            );
            if !reference.is_alive(v) {
                continue;
            }
            assert_eq!(
                engine.net.graph().neighbors(v),
                reference.graph().neighbors(v),
                "round {rounds}: G neighbours of {v}"
            );
            assert_eq!(
                engine.net.healing_graph().neighbors(v),
                reference.healing_graph().neighbors(v),
                "round {rounds}: G' neighbours of {v}"
            );
            assert_eq!(
                engine.net.comp_id(v),
                reference.comp_id(v),
                "round {rounds}: comp of {v}"
            );
        }
    }
    let report = engine.finish();
    assert_eq!(
        reference.graph().live_node_count(),
        0,
        "racks heal to empty"
    );
    assert_eq!(
        (
            report.rounds,
            report.total_messages,
            report.total_edges_added,
            report.total_propagation_latency,
            report.max_delta_ever
        ),
        (rounds, messages, edges_total, latency, max_delta),
        "run report totals"
    );
}

#[test]
fn engine_batch_arm_matches_the_owned_reference_path() {
    for seed in [4u64, 9, 31] {
        let g = barabasi_albert(160, 3, &mut StdRng::seed_from_u64(seed));
        assert_batch_arm_matches_reference(Dash, g.clone(), seed);
        assert_batch_arm_matches_reference(Sdash, g, seed);
    }
    assert_batch_arm_matches_reference(Sdash, star_graph(40), 12);
}
