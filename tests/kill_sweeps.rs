//! Exhaustive kill-sweeps: every healing strategy × every attack ×
//! several topologies, auditing connectivity and the forest invariant
//! after every single deletion.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::scenario::{AuditLevel, ScenarioEngine};
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators;
use selfheal_graph::Graph;

fn topologies(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        ("ba", generators::barabasi_albert(48, 3, &mut rng)),
        ("ws", generators::watts_strogatz(48, 4, 0.2, &mut rng)),
        ("tree", generators::random_recursive_tree(48, &mut rng)),
        ("kary", generators::KaryTree::new(3, 3).graph),
        ("star", generators::star_graph(48)),
        ("path", generators::path_graph(48)),
        ("cycle", generators::cycle_graph(48)),
        ("grid", generators::grid_graph(6, 8)),
        ("complete", generators::complete_graph(16)),
    ]
}

#[test]
fn every_healer_and_attack_on_every_topology() {
    let attacks = [
        AdversarySpec::MaxNode,
        AdversarySpec::NeighborOfMax,
        AdversarySpec::Random,
        AdversarySpec::MinDegree,
    ];
    for (name, g) in topologies(42) {
        for healer in HealerSpec::figure_set() {
            for attack in attacks {
                let net = HealingNetwork::new(g.clone(), 42);
                let mut engine = ScenarioEngine::new(net, healer.build(), attack.build(7))
                    .with_audit(AuditLevel::Cheap);
                let report = engine.run_to_empty();
                assert_eq!(
                    report.rounds,
                    g.live_node_count() as u64,
                    "{name}/{}/{}: did not run to empty",
                    healer.name(),
                    attack.name()
                );
                assert!(
                    report.violations.is_empty(),
                    "{name}/{}/{}: {:?}",
                    healer.name(),
                    attack.name(),
                    report.violations
                );
            }
        }
    }
}

#[test]
fn full_audit_including_rem_potential_on_small_graphs() {
    // The O(n^2)-per-round Lemma 4/5 potential check, on DASH only (the
    // potential argument is DASH's proof; other healers have no claim).
    for (name, g) in topologies(7) {
        if g.live_node_count() > 30 {
            continue;
        }
        let net = HealingNetwork::new(g, 7);
        let mut engine = ScenarioEngine::new(
            net,
            HealerSpec::Dash.build(),
            AdversarySpec::MaxNode.build(1),
        )
        .with_audit(AuditLevel::Full);
        let report = engine.run_to_empty();
        assert!(
            report.violations.is_empty(),
            "{name}: {:?}",
            report.violations
        );
    }
}

#[test]
fn dash_rem_potential_on_ba_graph() {
    let g = generators::barabasi_albert(28, 3, &mut StdRng::seed_from_u64(5));
    let net = HealingNetwork::new(g, 5);
    let mut engine = ScenarioEngine::new(
        net,
        HealerSpec::Dash.build(),
        AdversarySpec::NeighborOfMax.build(5),
    )
    .with_audit(AuditLevel::Full);
    let report = engine.run_to_empty();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn isolated_and_tiny_graphs_are_handled() {
    for n in 1..=4 {
        let g = Graph::new(n); // all isolated
        let net = HealingNetwork::new(g, 1);
        let mut engine = ScenarioEngine::new(
            net,
            HealerSpec::Dash.build(),
            AdversarySpec::Random.build(3),
        );
        let report = engine.run_to_empty();
        assert_eq!(report.rounds, n as u64);
        assert_eq!(report.max_delta_ever, 0);
    }
}

#[test]
fn sdash_surrogates_at_least_once_on_big_star_sweep() {
    // A star forces an early binary tree; later deletions leave RT sets
    // with large delta spread, where surrogation should fire.
    let net = HealingNetwork::new(generators::star_graph(64), 9);
    let mut engine = ScenarioEngine::new(
        net,
        HealerSpec::Sdash.build(),
        AdversarySpec::MaxNode.build(1),
    );
    let mut surrogated = 0;
    while let Some(rec) = engine.step() {
        if rec.surrogate.is_some() {
            surrogated += 1;
        }
    }
    assert!(
        surrogated > 0,
        "SDASH never surrogated over a 64-node star sweep"
    );
}

#[test]
fn healing_edges_are_local_to_deleted_neighborhood() {
    // Audit the locality contract: every healing edge must connect two
    // former neighbors of the deleted node.
    let g = generators::barabasi_albert(40, 3, &mut StdRng::seed_from_u64(21));
    let net = HealingNetwork::new(g, 21);
    let mut engine = ScenarioEngine::new(
        net,
        HealerSpec::Dash.build(),
        AdversarySpec::NeighborOfMax.build(2),
    );
    // Drive manually so we can see each round's context.
    loop {
        let before = engine.net.clone();
        let Some(rec) = engine.step() else { break };
        let deleted = rec.deleted.expect("adversary events are single deletions");
        let former = before.graph().neighbors(deleted).to_vec();
        // Edges added this round exist in the new G' but not the old one.
        for v in engine.net.graph().live_nodes() {
            for &u in engine.net.healing_graph().neighbors(v) {
                if u < v {
                    continue;
                }
                if !before.healing_graph().has_edge(v, u) {
                    assert!(
                        former.contains(&v) && former.contains(&u),
                        "non-local healing edge ({v}, {u}) after deleting {deleted}"
                    );
                }
            }
        }
    }
}
