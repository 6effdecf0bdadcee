//! The paper's theorems and lemmas as cross-crate integration tests.
//!
//! Theorem 1's four bullets are enforced by the engine's
//! `AuditLevel::Theorems` audit — the same theorem auditor every
//! sweep-fleet run carries — so these tests both validate the theorem
//! *and* pin the auditor to the strict per-bullet assertions this file
//! used to hand-roll.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::attack::{Adversary, MaxNode, NeighborOfMax};
use selfheal_core::dash::Dash;
use selfheal_core::levelattack::run_level_attack;
use selfheal_core::naive::LineHeal;
use selfheal_core::scenario::{AuditLevel, ScenarioEngine, ScenarioReport};
use selfheal_core::state::HealingNetwork;
use selfheal_core::strategy::Healer;
use selfheal_graph::generators;
use selfheal_graph::NodeId;

/// Run DASH against `adversary` to empty under the engine's Theorem 1
/// audit and return the report for bullet-specific assertions.
fn audited_sweep<A: Adversary>(n: usize, seed: u64, adversary: A) -> ScenarioReport {
    let g = generators::barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
    ScenarioEngine::new(HealingNetwork::new(g, seed), Dash, adversary)
        .with_audit(AuditLevel::Theorems)
        .run_to_empty()
}

/// Theorem 1, bullet 1: degree increase at most 2 log₂ n — across sizes
/// and seeds, under the strongest attack. The auditor enforces the bound
/// after *every* event, strictly stronger than the old end-of-run check.
#[test]
fn theorem1_degree_bound_across_sizes() {
    for n in [32usize, 64, 128, 256] {
        for seed in [1u64, 2, 3] {
            let report = audited_sweep(n, seed, NeighborOfMax::new(seed));
            let found = &report.violations;
            assert!(found.is_empty(), "n={n} seed={seed}: {found:?}");
            assert!((report.max_delta_ever as f64) <= 2.0 * (n as f64).log2());
        }
    }
}

/// Theorem 1, bullet 2 (record-breaking): no node changes ID more than
/// 2 ln n times, w.h.p. — tested over many seeds, after every event.
#[test]
fn theorem1_id_changes_bound() {
    for seed in 0..10u64 {
        let found = audited_sweep(128, seed, MaxNode).violations;
        assert!(found.is_empty(), "seed={seed}: {found:?}");
    }
}

/// Theorem 1, bullet 3: messages per node ≤ 2 (d + 2 log n) ln n, where d
/// is the node's initial degree. The *sent* side of the claim is rigorous
/// per node (each of ≤ 2 ln n ID changes broadcasts to ≤ d + 2 log n
/// current neighbors) and is checked strictly by the auditor; the
/// received side is amortized in the paper (neighbor turnover), so the
/// auditor's traffic bound carries a 2x allowance.
#[test]
fn theorem1_message_bound_per_node() {
    for seed in [5u64, 6, 7] {
        let n = 128;
        let g = generators::barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
        let initial_degrees: Vec<usize> = (0..n).map(|i| g.degree(NodeId::from_index(i))).collect();
        let mut engine =
            ScenarioEngine::new(HealingNetwork::new(g, seed), Dash, NeighborOfMax::new(seed))
                .with_audit(AuditLevel::Theorems);
        let found = engine.run_to_empty().violations;
        assert!(found.is_empty(), "seed={seed}: {found:?}");
        // Spot-check the raw quantities against the bound the auditor
        // applied, so the auditor itself stays honest.
        let logn = (n as f64).log2();
        let lnn = (n as f64).ln();
        for (i, &d) in initial_degrees.iter().enumerate() {
            let v = NodeId::from_index(i);
            let bound = 2.0 * (d as f64 + 2.0 * logn) * lnn;
            assert!((engine.net.messages_sent(v) as f64) <= bound);
            assert!((engine.net.traffic(v) as f64) <= 2.0 * bound);
        }
    }
}

/// Theorem 1, bullet 4: amortized ID-propagation latency O(log n) over
/// Θ(n) deletions — the auditor's `finish` check.
#[test]
fn theorem1_amortized_latency() {
    for seed in [1u64, 4] {
        let found = audited_sweep(256, seed, MaxNode).violations;
        assert!(found.is_empty(), "seed={seed}: {found:?}");
    }
}

/// Theorem 2: LEVELATTACK forces ≥ D degree increase on M-bounded
/// healers; combined with Theorem 1 the damage is squeezed into
/// [D, 2 log₂ n].
#[test]
fn theorem2_squeeze() {
    for depth in 2..=5u32 {
        let r = run_level_attack(Dash, 2, depth, 99);
        assert!(
            r.max_delta_ever >= depth as i64,
            "depth {depth}: {}",
            r.max_delta_ever
        );
        assert!(
            (r.max_delta_ever as f64) <= 2.0 * (r.n as f64).log2(),
            "depth {depth}: exceeded upper bound"
        );
    }
}

/// Lemma 10: on a tree, the *first* deletion of a degree-d node raises
/// the neighbors' total degree by exactly d - 2 (all neighbors are
/// singleton G' components, so the reconstruction tree spans all d).
#[test]
fn lemma10_degree_sum_on_trees() {
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..10 {
        let g = generators::random_recursive_tree(40, &mut rng);
        // Find an internal node (degree >= 2).
        let v = g
            .live_nodes()
            .find(|&v| g.degree(v) >= 2)
            .expect("tree of 40 nodes has an internal node");
        let d = g.degree(v);
        let neighbors: Vec<NodeId> = g.neighbors(v).to_vec();
        let before: usize = neighbors.iter().map(|&u| g.degree(u)).sum();
        let mut net = HealingNetwork::new(g, 1);
        let ctx = net.delete_node(v).unwrap();
        Dash.heal(&mut net, &ctx);
        let after: usize = neighbors.iter().map(|&u| net.graph().degree(u)).sum();
        assert_eq!(
            after as i64 - before as i64,
            d as i64 - 2,
            "degree-{d} node"
        );
    }
}

/// Lemma 11: deleting a node of degree ≥ 3 increases some node's degree,
/// no matter which healing strategy runs.
#[test]
fn lemma11_degree_three_forces_increase() {
    let healers: Vec<Box<dyn Healer>> = vec![
        Box::new(Dash),
        Box::new(selfheal_core::sdash::Sdash),
        Box::new(selfheal_core::naive::BinaryTreeHeal),
        Box::new(LineHeal),
    ];
    for mut healer in healers {
        // Fresh star with 3 spokes: deleting the hub leaves 3 singletons.
        let g = generators::star_graph(4);
        let mut net = HealingNetwork::new(g, 2);
        let before: Vec<i64> = (1..4).map(|v| net.delta(NodeId(v))).collect();
        let ctx = net.delete_node(NodeId(0)).unwrap();
        healer.heal(&mut net, &ctx);
        let gained = (1..4).any(|v| {
            // Degree delta relative to pre-deletion state: the node lost
            // its hub edge (-1), so a net gain means healing added >= 2.
            net.delta(NodeId(v)) > before[(v - 1) as usize]
        });
        assert!(gained, "{}: no node's degree increased", healer.name());
    }
}

/// The Lemma 9 claim in aggregate: total ID-propagation work over a full
/// sweep is O(n log n) messages.
#[test]
fn total_messages_are_quasilinear() {
    let n = 512;
    let g = generators::barabasi_albert(n, 3, &mut StdRng::seed_from_u64(3));
    let net = HealingNetwork::new(g, 3);
    let mut engine = ScenarioEngine::new(net, Dash, MaxNode);
    let report = engine.run_to_empty();
    // Generous constant: the paper's analysis gives O(n log n) message
    // *transmissions*; each transmission is sent once and received once.
    let bound = 16.0 * (n as f64) * (n as f64).ln();
    assert!(
        (report.total_messages as f64) <= bound,
        "{} messages > {bound}",
        report.total_messages
    );
}
