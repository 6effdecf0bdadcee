//! Property-based tests (proptest) over random graphs, random seeds and
//! random attack interleavings.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::invariants;
use selfheal_core::scenario::{AuditLevel, ScenarioEngine};
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_core::state::HealingNetwork;
use selfheal_core::strategy::Healer;
use selfheal_graph::components::{connected_components, UnionFind};
use selfheal_graph::forest::is_forest;
use selfheal_graph::generators;
use selfheal_graph::{Csr, NodeId};
use selfheal_metrics::StretchBaseline;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Connectivity and the G' forest invariant survive arbitrary-seed BA
    /// graphs, any component-aware healer, any attack, to empty.
    #[test]
    fn healing_invariants_hold(
        n in 8usize..48,
        graph_seed in 0u64..1000,
        attack_seed in 0u64..1000,
        healer_idx in 0usize..4,
        attack_idx in 0usize..4,
    ) {
        let healers = [
            HealerSpec::Dash,
            HealerSpec::Sdash,
            HealerSpec::BinaryTreeHeal,
            HealerSpec::LineHeal,
        ];
        let attacks = [
            AdversarySpec::MaxNode,
            AdversarySpec::NeighborOfMax,
            AdversarySpec::Random,
            AdversarySpec::MinDegree,
        ];
        let g = generators::barabasi_albert(n, 2, &mut StdRng::seed_from_u64(graph_seed));
        let net = HealingNetwork::new(g, graph_seed);
        let mut engine = ScenarioEngine::new(
            net,
            healers[healer_idx].build(),
            attacks[attack_idx].build(attack_seed),
        ).with_audit(AuditLevel::Cheap);
        let report = engine.run_to_empty();
        prop_assert_eq!(report.rounds, n as u64);
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// DASH's degree bound holds for every (graph, attack) seed pair.
    #[test]
    fn dash_degree_bound(graph_seed in 0u64..500, attack_seed in 0u64..500) {
        let n = 64;
        let g = generators::barabasi_albert(n, 3, &mut StdRng::seed_from_u64(graph_seed));
        let net = HealingNetwork::new(g, graph_seed);
        let mut engine = ScenarioEngine::new(
            net,
            selfheal_core::dash::Dash,
            selfheal_core::attack::NeighborOfMax::new(attack_seed),
        );
        let report = engine.run_to_empty();
        prop_assert!((report.max_delta_ever as f64) <= 2.0 * (n as f64).log2());
    }

    /// The rem potential (Lemmas 4 & 5) holds at every prefix of a sweep.
    #[test]
    fn rem_potential_at_random_prefix(seed in 0u64..200, kills in 1usize..24) {
        let n = 24;
        let g = generators::barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
        let net = HealingNetwork::new(g, seed);
        let mut engine = ScenarioEngine::new(
            net,
            selfheal_core::dash::Dash,
            selfheal_core::attack::RandomAttack::new(seed),
        );
        for _ in 0..kills {
            if engine.step().is_none() {
                break;
            }
        }
        prop_assert!(invariants::rem_potential_ok(&engine.net));
        prop_assert!(invariants::weight_conservation_ok(&engine.net));
    }

    /// Union-find agrees with BFS component labeling on random graphs.
    #[test]
    fn dsu_matches_bfs_components(n in 2usize..40, p in 0.0f64..0.3, seed in 0u64..1000) {
        let g = generators::erdos_renyi_gnp(n, p, &mut StdRng::seed_from_u64(seed));
        let mut uf = UnionFind::new(g.node_bound());
        for e in g.edges() {
            uf.union(e.lo().index(), e.hi().index());
        }
        let cc = connected_components(&g);
        for u in g.live_nodes() {
            for v in g.live_nodes() {
                prop_assert_eq!(
                    uf.same(u.index(), v.index()),
                    cc.same_component(u, v),
                    "{} vs {}", u, v
                );
            }
        }
        prop_assert_eq!(uf.set_count(), cc.count);
    }

    /// Healing graphs are always subgraphs of the real graph: E' ⊆ E.
    #[test]
    fn gprime_subset_of_g(seed in 0u64..300, kills in 1usize..32) {
        let n = 32;
        let g = generators::barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
        let net = HealingNetwork::new(g, seed);
        let mut engine = ScenarioEngine::new(
            net,
            selfheal_core::sdash::Sdash,
            selfheal_core::attack::RandomAttack::new(seed),
        );
        for _ in 0..kills {
            if engine.step().is_none() {
                break;
            }
        }
        for e in engine.net.healing_graph().edges() {
            prop_assert!(
                engine.net.graph().has_edge(e.lo(), e.hi()),
                "G' edge {:?} missing from G", e
            );
        }
    }

    /// Stretch is always >= 1 and finite for connectivity-preserving heals.
    #[test]
    fn stretch_at_least_one(seed in 0u64..100, kills in 1usize..20) {
        let n = 24;
        let g = generators::barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
        let baseline = StretchBaseline::new(&g, 1);
        let net = HealingNetwork::new(g, seed);
        let mut engine = ScenarioEngine::new(
            net,
            selfheal_core::dash::Dash,
            selfheal_core::attack::RandomAttack::new(seed),
        );
        for _ in 0..kills {
            if engine.step().is_none() {
                break;
            }
        }
        if engine.net.graph().live_node_count() >= 2 {
            let r = baseline.stretch_of(engine.net.graph(), 1);
            let r = r.expect("DASH preserves connectivity");
            prop_assert!(r.stretch >= 1.0);
            prop_assert!(r.stretch.is_finite());
        }
    }

    /// BA generator: connected, right node/edge counts, min degree >= m.
    #[test]
    fn ba_generator_structure(n in 5usize..80, m in 1usize..4, seed in 0u64..1000) {
        prop_assume!(n > m + 1);
        let g = generators::barabasi_albert(n, m, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(g.live_node_count(), n);
        prop_assert_eq!(g.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
        prop_assert!(selfheal_graph::components::is_connected(&g));
        let stats = selfheal_graph::properties::degree_stats(&g).unwrap();
        prop_assert!(stats.min >= m);
    }

    /// Complete-binary-tree wiring always yields a tree with max degree 3
    /// in G', whatever the member multiset.
    #[test]
    fn binary_tree_shape(k in 1usize..64) {
        let mut net = HealingNetwork::new(selfheal_graph::Graph::new(k), 0);
        let nodes: Vec<NodeId> = (0..k).map(NodeId::from_index).collect();
        selfheal_core::rt::connect_binary_tree(&mut net, &nodes);
        prop_assert!(is_forest(net.healing_graph()));
        prop_assert_eq!(net.healing_graph().edge_count(), k - 1);
        for &v in &nodes {
            prop_assert!(net.healing_graph().degree(v) <= 3);
        }
    }

    /// Component IDs only ever decrease (they adopt minima).
    #[test]
    fn comp_ids_monotone_nonincreasing(seed in 0u64..200) {
        let n = 24;
        let g = generators::barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
        let net = HealingNetwork::new(g, seed);
        let mut engine = ScenarioEngine::new(
            net,
            selfheal_core::dash::Dash,
            selfheal_core::attack::MaxNode,
        );
        let mut last: Vec<u64> = (0..n as u32).map(|v| engine.net.comp_id(NodeId(v))).collect();
        while engine.step().is_some() {
            for v in 0..n as u32 {
                let now = engine.net.comp_id(NodeId(v));
                prop_assert!(now <= last[v as usize], "id of {v} increased");
                last[v as usize] = now;
            }
        }
    }

    /// Articulation points match their definition: removing an AP splits
    /// its component; removing a non-AP does not.
    #[test]
    fn articulation_points_match_bruteforce(n in 3usize..22, p in 0.08f64..0.5, seed in 0u64..500) {
        let g = generators::erdos_renyi_gnp(n, p, &mut StdRng::seed_from_u64(seed));
        let aps = selfheal_graph::cuts::articulation_points(&g);
        let base = connected_components(&g).count;
        for v in g.live_nodes() {
            let mut h = g.clone();
            h.remove_node(v).unwrap();
            let after = connected_components(&h).count;
            // v's component splits into k parts: after = base - 1 + k,
            // so v is an AP (k >= 2) exactly when after > base. An
            // isolated v gives after = base - 1, correctly not an AP.
            let splits = after > base;
            prop_assert_eq!(
                aps.contains(&v),
                splits,
                "node {} (degree {}): base {} after {}",
                v, g.degree(v), base, after
            );
        }
    }

    /// Bridges match their definition: removing a bridge splits a
    /// component, removing a non-bridge edge does not.
    #[test]
    fn bridges_match_bruteforce(n in 3usize..20, p in 0.1f64..0.5, seed in 0u64..300) {
        let g = generators::erdos_renyi_gnp(n, p, &mut StdRng::seed_from_u64(seed));
        let bridges = selfheal_graph::cuts::bridges(&g);
        let base = connected_components(&g).count;
        for e in g.edges() {
            let mut h = g.clone();
            h.remove_edge(e.lo(), e.hi()).unwrap();
            let splits = connected_components(&h).count > base;
            prop_assert_eq!(bridges.contains(&e), splits, "edge {:?}", e);
        }
    }

    /// Complete k-ary trees have the advertised size and level structure.
    #[test]
    fn kary_tree_structure(arity in 1usize..5, depth in 0u32..5) {
        let t = generators::KaryTree::new(arity, depth);
        prop_assert_eq!(t.node_count(), generators::KaryTree::size_for(arity, depth));
        prop_assert!(selfheal_graph::forest::is_tree(&t.graph));
        // Level populations: arity^level.
        let mut expected = 1usize;
        for level in 0..=depth {
            prop_assert_eq!(t.nodes_at_level(level).len(), expected);
            expected *= arity;
        }
        // Every non-root's parent is one level up.
        for i in 1..t.node_count() {
            let v = NodeId::from_index(i);
            let p = t.parent(v).unwrap();
            prop_assert_eq!(t.level(p) + 1, t.level(v));
            prop_assert!(t.graph.has_edge(p, v));
        }
    }

    /// The pooled-adjacency `Graph` is observationally identical to a
    /// naive `Vec<Vec<NodeId>>` reference model under arbitrary
    /// interleavings of edge insertions/removals, node deaths and node
    /// births — same neighbor slices (sorted), same degree extremes
    /// (lowest-id tie-break), same live-rank order, same NoN sets. The
    /// degree and live-rank side indexes are built by their first query,
    /// so each is first asked at a random step: the mutations before it
    /// run with the index unbuilt.
    #[test]
    fn pooled_graph_matches_reference_model(
        n in 1usize..20,
        ops in prop::collection::vec((0u8..6, 0usize..64, 0usize..64), 1..120),
        degrees_from in 0usize..120,
        ranks_from in 0usize..120,
    ) {
        let mut g = selfheal_graph::Graph::new(n);
        let mut model = ReferenceGraph::new(n);
        for (step, (op, a, b)) in ops.into_iter().enumerate() {
            let bound = g.node_bound();
            let (u, v) = (NodeId::from_index(a % bound), NodeId::from_index(b % bound));
            match op {
                0 | 1 => {
                    let model_added = model.ensure_edge(u, v);
                    match g.ensure_edge(u, v) {
                        Ok(added) => prop_assert_eq!(Some(added), model_added, "ensure {u}-{v}"),
                        Err(_) => prop_assert_eq!(None, model_added, "ensure {u}-{v} errored"),
                    }
                }
                2 => {
                    // A real edge whenever `u` has one, else an error case.
                    let v = match g.neighbors(u) {
                        [] => v,
                        nbrs => nbrs[b % nbrs.len()],
                    };
                    let model_ok = model.remove_edge(u, v);
                    prop_assert_eq!(g.remove_edge(u, v).is_ok(), model_ok, "remove {u}-{v}");
                }
                3 => {
                    let model_nbrs = model.remove_node(u);
                    match g.remove_node(u) {
                        Ok(nbrs) => prop_assert_eq!(Some(nbrs), model_nbrs, "kill {u}"),
                        Err(_) => prop_assert_eq!(None, model_nbrs, "kill {u} errored"),
                    }
                }
                4 => {
                    prop_assert_eq!(g.add_node(), model.add_node());
                }
                _ => {
                    // Churn: kill then immediately re-add, the join pattern
                    // the million-node experiment leans on.
                    if model.remove_node(u).is_some() {
                        g.remove_node(u).unwrap();
                        prop_assert_eq!(g.add_node(), model.add_node());
                    }
                }
            }
            model.assert_matches(&g, step >= degrees_from, step >= ranks_from)?;
        }
        g.validate().unwrap();
    }

    /// Satellite: every ForgivingTree heal, under a random deletion
    /// schedule on random BA graphs, is byte-identical to the naive
    /// reference — [`order_heir_first`] over the reconstruction set plus
    /// the `(i-1)/2` complete-binary-tree parent rule — and keeps the
    /// family's promises per event: the reconnection touches only the
    /// victim's former neighbors, is acyclic on its own edges, and no
    /// survivor gains more than 3 edges.
    #[test]
    fn ftree_heals_match_heir_first_reference(
        n in 8usize..40,
        seed in 0u64..1_000,
        picks in prop::collection::vec(0usize..64, 1..16),
    ) {
        let g = generators::barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
        let mut net = HealingNetwork::new(g, seed);
        let mut healer = selfheal_core::ftree::ForgivingTree;
        for pick in picks {
            let live = net.graph().live_node_count();
            if live <= 1 {
                break;
            }
            let victim = net.graph().nth_live(pick % live).unwrap();
            let former: Vec<NodeId> = net.graph().neighbors(victim).to_vec();
            let before: Vec<usize> = (0..net.graph().node_bound())
                .map(|i| net.graph().degree(NodeId::from_index(i)))
                .collect();
            let ctx = net.delete_node(victim).unwrap();

            // Naive reference, computed on the same post-deletion,
            // pre-heal state the strategy sees.
            let mut members = Vec::new();
            selfheal_core::rt::reconstruction_set_into(
                &net, &ctx, &mut Vec::new(), &mut members,
            );
            let mut order = Vec::new();
            selfheal_core::ftree::order_heir_first(&net, &members, &mut order);
            let mut expect: Vec<(NodeId, NodeId)> = (1..order.len())
                .map(|i| (order[(i - 1) / 2], order[i]))
                .filter(|&(p, c)| !net.healing_graph().has_edge(p, c))
                .map(|(p, c)| (p.min(c), p.max(c)))
                .collect();
            expect.sort_unstable();

            let outcome = healer.heal(&mut net, &ctx);
            net.propagate_min_id(&outcome.rt_members);
            prop_assert_eq!(&outcome.rt_members, &members);
            let mut got: Vec<(NodeId, NodeId)> = outcome
                .edges_added
                .iter()
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "victim {}", victim);

            // Locality + acyclicity of the reconnection itself.
            let mut uf = UnionFind::new(net.graph().node_bound());
            for &(a, b) in &got {
                prop_assert!(
                    former.contains(&a) && former.contains(&b),
                    "edge {a}-{b} leaves the victim's former neighborhood"
                );
                prop_assert!(!uf.same(a.index(), b.index()), "reconnection cycles at {a}-{b}");
                uf.union(a.index(), b.index());
            }
            // O(1) degree gain: ≤ 3 per member per adjacent deletion.
            for &m in &outcome.rt_members {
                let lost = usize::from(former.contains(&m));
                let gained = (net.graph().degree(m) + lost).saturating_sub(before[m.index()]);
                prop_assert!(gained <= 3, "member {m} gained {gained}");
            }
        }
    }

    /// Satellite: every RingForgiving heal matches its exposed naive
    /// reference plan ([`ring_plan`]) exactly — members in initial-ID
    /// order, a single cycle, then the halving-stride chord rounds — and
    /// each survivor gains at most `2 + budget` edges per adjacent
    /// deletion.
    #[test]
    fn ring_heals_match_ring_plan_reference(
        n in 8usize..40,
        seed in 0u64..1_000,
        budget in 0usize..4,
        picks in prop::collection::vec(0usize..64, 1..16),
    ) {
        use selfheal_core::ring::{ring_plan, RingForgiving};
        let g = generators::barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
        let mut net = HealingNetwork::new(g, seed);
        let mut healer = RingForgiving { budget };
        for pick in picks {
            let live = net.graph().live_node_count();
            if live <= 1 {
                break;
            }
            let victim = net.graph().nth_live(pick % live).unwrap();
            let former: Vec<NodeId> = net.graph().neighbors(victim).to_vec();
            let before: Vec<usize> = (0..net.graph().node_bound())
                .map(|i| net.graph().degree(NodeId::from_index(i)))
                .collect();
            let ctx = net.delete_node(victim).unwrap();

            let mut members = Vec::new();
            selfheal_core::rt::reconstruction_set_into(
                &net, &ctx, &mut Vec::new(), &mut members,
            );
            let mut order = members.clone();
            order.sort_unstable_by_key(|&v| net.initial_id(v));
            let mut expect: Vec<(NodeId, NodeId)> = ring_plan(order.len(), budget)
                .into_iter()
                .map(|(i, j)| (order[i], order[j]))
                .filter(|&(a, b)| !net.healing_graph().has_edge(a, b))
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            expect.sort_unstable();
            expect.dedup();

            let outcome = healer.heal(&mut net, &ctx);
            net.propagate_min_id(&outcome.rt_members);
            prop_assert_eq!(&outcome.rt_members, &members);
            let mut got: Vec<(NodeId, NodeId)> = outcome
                .edges_added
                .iter()
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "victim {}", victim);

            // The single cycle is present in G' after the heal…
            let m = order.len();
            if m >= 2 {
                for i in 0..m {
                    let (a, b) = (order[i], order[(i + 1) % m]);
                    if a != b {
                        prop_assert!(
                            net.healing_graph().has_edge(a, b),
                            "cycle edge {a}-{b} missing"
                        );
                    }
                }
            }
            // …and the budget caps every survivor's gain.
            for &mem in &outcome.rt_members {
                let lost = usize::from(former.contains(&mem));
                let gained =
                    (net.graph().degree(mem) + lost).saturating_sub(before[mem.index()]);
                prop_assert!(
                    gained <= 2 + budget,
                    "member {mem} gained {gained} with budget {budget}"
                );
            }
        }
    }

    /// CSR snapshots preserve BFS distances from the dynamic graph.
    #[test]
    fn csr_distances_match_graph(n in 2usize..40, p in 0.05f64..0.4, seed in 0u64..500) {
        let g = generators::erdos_renyi_gnp(n, p, &mut StdRng::seed_from_u64(seed));
        let csr = Csr::from_graph(&g);
        let src = NodeId(0);
        let gd = selfheal_graph::paths::bfs_distances(&g, src);
        let cd = csr.bfs(csr.dense_index(src).unwrap());
        for v in g.live_nodes() {
            let dense = csr.dense_index(v).unwrap();
            prop_assert_eq!(gd[v.index()], cd[dense]);
        }
    }
}

/// Naive `Vec<Vec<NodeId>>` adjacency model the pooled `Graph` is judged
/// against in `pooled_graph_matches_reference_model`. Mutators return
/// `None`/`false` exactly when the real API reports an error, so the
/// proptest also locks the error surface.
struct ReferenceGraph {
    adj: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
}

impl ReferenceGraph {
    fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
        }
    }

    fn live(&self, v: NodeId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }

    /// `Some(added)` when the edge insert is legal, `None` when it errors.
    fn ensure_edge(&mut self, u: NodeId, v: NodeId) -> Option<bool> {
        if u == v || !self.live(u) || !self.live(v) {
            return None;
        }
        if self.adj[u.index()].contains(&v) {
            return Some(false);
        }
        for (a, b) in [(u, v), (v, u)] {
            let pos = self.adj[a.index()].partition_point(|&w| w < b);
            self.adj[a.index()].insert(pos, b);
        }
        Some(true)
    }

    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.live(u) || !self.live(v) || !self.adj[u.index()].contains(&v) {
            return false;
        }
        self.adj[u.index()].retain(|&w| w != v);
        self.adj[v.index()].retain(|&w| w != u);
        true
    }

    fn remove_node(&mut self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.live(v) {
            return None;
        }
        let nbrs = std::mem::take(&mut self.adj[v.index()]);
        for &u in &nbrs {
            self.adj[u.index()].retain(|&w| w != v);
        }
        self.alive[v.index()] = false;
        Some(nbrs)
    }

    fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.alive.push(true);
        NodeId::from_index(self.adj.len() - 1)
    }

    /// Compare everything but the side-index queries, and those too when
    /// `degrees` / `ranks` ask for them.
    fn assert_matches(
        &self,
        g: &selfheal_graph::Graph,
        degrees: bool,
        ranks: bool,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(g.node_bound(), self.adj.len());
        let live: Vec<NodeId> = (0..self.adj.len())
            .map(NodeId::from_index)
            .filter(|&v| self.live(v))
            .collect();
        prop_assert_eq!(g.live_node_count(), live.len());
        let degree_sum: usize = live.iter().map(|&v| self.adj[v.index()].len()).sum();
        prop_assert_eq!(g.edge_count(), degree_sum / 2);
        prop_assert_eq!(g.live_nodes().collect::<Vec<_>>(), live.clone());
        let mut non = Vec::new();
        for (i, &v) in live.iter().enumerate() {
            if ranks {
                prop_assert_eq!(g.nth_live(i), Some(v), "live rank {}", i);
            }
            prop_assert_eq!(g.degree(v), self.adj[v.index()].len(), "degree {}", v);
            prop_assert_eq!(g.neighbors(v), &self.adj[v.index()][..], "adjacency {}", v);
            g.neighbors_of_neighbors_into(v, &mut non);
            let mut expect: Vec<NodeId> = self.adj[v.index()]
                .iter()
                .flat_map(|&u| {
                    std::iter::once(u)
                        .chain(self.adj[u.index()].iter().copied().filter(|&w| w != v))
                })
                .collect();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(&non, &expect, "NoN set of {}", v);
        }
        if ranks {
            prop_assert_eq!(g.nth_live(live.len()), None);
        }
        if !degrees {
            return Ok(());
        }
        // Degree extremes: lowest-id winner of an ascending scan.
        let max = live
            .iter()
            .copied()
            .max_by_key(|&v| (self.adj[v.index()].len(), std::cmp::Reverse(v)));
        let min = live
            .iter()
            .copied()
            .min_by_key(|&v| (self.adj[v.index()].len(), v));
        prop_assert_eq!(g.max_degree_node(), max);
        prop_assert_eq!(g.min_degree_node(), min);
        Ok(())
    }
}

/// Non-proptest regression: a healer driven manually matches the engine.
#[test]
fn manual_rounds_match_engine() {
    let n = 32;
    let g = generators::barabasi_albert(n, 3, &mut StdRng::seed_from_u64(4));
    // Engine path.
    let mut engine = ScenarioEngine::new(
        HealingNetwork::new(g.clone(), 4),
        selfheal_core::dash::Dash,
        selfheal_core::attack::MaxNode,
    );
    engine.run_to_empty();
    // Manual path.
    let mut net = HealingNetwork::new(g, 4);
    let mut dash = selfheal_core::dash::Dash;
    while let Some(v) = net.graph().max_degree_node() {
        let ctx = net.delete_node(v).unwrap();
        let outcome = dash.heal(&mut net, &ctx);
        net.propagate_min_id(&outcome.rt_members);
    }
    for v in 0..n as u32 {
        assert_eq!(engine.net.id_changes(NodeId(v)), net.id_changes(NodeId(v)));
        assert_eq!(
            engine.net.messages_sent(NodeId(v)),
            net.messages_sent(NodeId(v))
        );
    }
}
