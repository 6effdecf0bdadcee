//! Proofs-as-checks: executable versions of the paper's lemmas.
//!
//! Every guarantee the paper proves about DASH is implemented here as a
//! runtime check so tests (and the engine's audit mode) can validate the
//! implementation against the theory after every round:
//!
//! - Theorem 1 / connectivity — `G` stays connected,
//! - Lemma 1 — `G'` is a forest,
//! - Lemma 4 — the potential `rem(v) ≥ 2^{δ(v)/2}`,
//! - Lemma 5 — `rem(v) ≤ n`,
//! - Lemma 6 — `δ(v) ≤ 2 log₂ n`,
//! - weight conservation — `W* + lost = n` (used by Lemma 5's proof).
//!
//! The function-level checks are composed two ways: [`check_all`] (one
//! state, all lemmas) and [`TheoremAuditor`] — an [`Observer`] enforcing
//! the *whole* of Theorem 1 (including the per-node ID-change, message
//! and amortized latency bounds that previously lived only in the
//! integration tests) after every event of a run, so a sweep over thousands of seeds can
//! report the exact seed and event of any bound violation.

use crate::scenario::{EventKind, EventRecord, Observer, ScenarioReport};
use crate::state::HealingNetwork;
use selfheal_graph::components::is_connected;
use selfheal_graph::forest::is_forest;
use selfheal_graph::NodeId;

/// Whether the real network `G` is connected (the paper's core guarantee).
pub fn connectivity_ok(net: &HealingNetwork) -> bool {
    is_connected(net.graph())
}

/// Whether the healing graph `G'` is a forest (Lemma 1).
pub fn forest_ok(net: &HealingNetwork) -> bool {
    is_forest(net.healing_graph())
}

/// Result of checking the Lemma 6 degree bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaBound {
    /// Maximum observed `δ(v)` over live nodes.
    pub max_delta: i64,
    /// The theoretical bound `2 log₂ n` for the initial `n`.
    pub bound: f64,
    /// Whether the bound holds.
    pub ok: bool,
}

/// Check `δ(v) ≤ 2 log₂ n` for every live node (Lemma 6).
///
/// `n` is the total number of nodes ever created, so the bound remains
/// meaningful under churn (joins).
pub fn delta_bound(net: &HealingNetwork) -> DeltaBound {
    let n = net.total_created().max(1) as f64;
    let bound = 2.0 * n.log2();
    let max_delta = net.max_delta_alive();
    DeltaBound {
        max_delta,
        bound,
        ok: (max_delta as f64) <= bound + 1e-9,
    }
}

/// Total weight of the `G'` tree containing `u` when `v` is removed:
/// `W(T(u, v))` in the paper's notation. Returns 0 if `u` is dead.
pub fn subtree_weight(net: &HealingNetwork, u: NodeId, v: NodeId) -> u64 {
    if !net.is_alive(u) || u == v {
        return 0;
    }
    let gp = net.healing_graph();
    let mut seen = vec![false; gp.node_bound()];
    seen[u.index()] = true;
    if v.index() < seen.len() {
        seen[v.index()] = true; // exclude v from the traversal
    }
    let mut stack = vec![u];
    let mut total = 0u64;
    while let Some(x) = stack.pop() {
        total += net.weight(x);
        for &y in gp.neighbors(x) {
            if !seen[y.index()] {
                seen[y.index()] = true;
                stack.push(y);
            }
        }
    }
    total
}

/// The paper's potential function:
/// `rem(v) = Σ_u W(T(u,v)) − max_u W(T(u,v)) + w(v)` over
/// `u ∈ N(v, G')`. Intuitively: the weight that would remain attached to
/// `v`'s share if its heaviest branch were cut away.
pub fn rem(net: &HealingNetwork, v: NodeId) -> u64 {
    let gp = net.healing_graph();
    let mut sum = 0u64;
    let mut max = 0u64;
    for &u in gp.neighbors(v) {
        let w = subtree_weight(net, u, v);
        sum += w;
        max = max.max(w);
    }
    sum - max + net.weight(v)
}

/// Check Lemma 4 (`rem(v) ≥ 2^{δ(v)/2}`) and Lemma 5 (`rem(v) ≤ n`) for
/// every live node. O(n²) in the worst case — intended for tests and
/// audit runs, not hot loops.
pub fn rem_potential_ok(net: &HealingNetwork) -> bool {
    let n = net.total_created() as u64;
    net.graph().live_nodes().all(|v| {
        let r = rem(net, v);
        let needed = 2f64.powf(net.delta(v) as f64 / 2.0);
        r as f64 + 1e-9 >= needed && r <= n
    })
}

/// Check weight conservation: live weight plus recorded losses equals the
/// number of nodes ever created (each node is born with weight 1).
pub fn weight_conservation_ok(net: &HealingNetwork) -> bool {
    let live: u64 = net.graph().live_nodes().map(|v| net.weight(v)).sum();
    live + net.weight_lost() == net.total_created() as u64
}

/// Outcome of running every check at once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Human-readable descriptions of each violated invariant.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// Whether all checked invariants held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run all checks applicable to the given strategy.
///
/// `expect_forest` should be false for GraphHeal (which deliberately
/// allows cycles in `G'`); `check_rem` enables the O(n²) potential check.
pub fn check_all(net: &HealingNetwork, expect_forest: bool, check_rem: bool) -> InvariantReport {
    let mut violations = Vec::new();
    if !connectivity_ok(net) {
        violations.push("G is disconnected".to_string());
    }
    if expect_forest && !forest_ok(net) {
        violations.push("G' contains a cycle".to_string());
    }
    let db = delta_bound(net);
    if !db.ok {
        violations.push(format!(
            "max delta {} exceeds 2 log2 n = {:.2}",
            db.max_delta, db.bound
        ));
    }
    if !weight_conservation_ok(net) {
        violations.push("weight not conserved".to_string());
    }
    if check_rem && !rem_potential_ok(net) {
        violations.push("rem potential below 2^(delta/2) or above n".to_string());
    }
    InvariantReport { violations }
}

/// The numeric constants of Theorem 1's four bullets, expressed as
/// multiplicative factors so a caller can tighten or relax individual
/// bounds (e.g. give a with-high-probability claim slack on tiny
/// networks).
///
/// With the default factors the auditor checks exactly what the paper
/// states and the integration tests pin:
///
/// - `δ(v) ≤ 2 log₂ n` (Lemma 6 / bullet 1) — deterministic,
/// - ID changes per node `≤ 2 ln n` (bullet 2) — w.h.p.,
/// - messages sent per node `≤ 2 (d + 2 log₂ n) ln n` (bullet 3, the
///   rigorous sent side) and traffic `≤ 2×` that (the amortized received
///   side),
/// - amortized ID-propagation latency `≤ log₂ n` over the run's healing
///   rounds (bullet 4), checked at [`TheoremAuditor::finish`] once the
///   run has amortized over enough rounds,
///
/// where `n` counts nodes *ever created*, so the bounds stay meaningful
/// under churn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TheoremBounds {
    /// Factor on `log₂ n` for the degree bound (paper: 2).
    pub delta_factor: f64,
    /// Factor on `ln n` for per-node ID changes (paper: 2, w.h.p.).
    pub id_change_factor: f64,
    /// Factor on `(d + 2 log₂ n) ln n` for per-node sent messages
    /// (paper: 2).
    pub message_factor: f64,
    /// Factor on the sent-message bound for total traffic (received is
    /// amortized in the paper, hence the 2× allowance).
    pub traffic_factor: f64,
    /// Factor on `log₂ n` for amortized propagation latency (paper: O(·);
    /// 1 matches the integration tests).
    pub latency_factor: f64,
    /// Healing rounds a run must complete before the amortized latency
    /// claim is checked (amortization needs Θ(n) deletions to kick in).
    pub latency_min_rounds: u64,
}

impl Default for TheoremBounds {
    fn default() -> Self {
        TheoremBounds {
            delta_factor: 2.0,
            id_change_factor: 2.0,
            message_factor: 2.0,
            traffic_factor: 2.0,
            latency_factor: 1.0,
            latency_min_rounds: 8,
        }
    }
}

/// Cap on collected violations per auditor: a broken invariant usually
/// re-fires every subsequent event, and the first few findings (with
/// their event numbers) are what a replay needs.
const MAX_VIOLATIONS: usize = 16;

/// Theorem 1 as an [`Observer`]: every bound of the paper's headline
/// theorem, enforced after every event of a scenario run.
///
/// The structural invariants (connectivity, `G'` forest, weight
/// conservation, Lemma 6's degree bound) come from [`check_all`]; on top
/// of that the auditor scans every node slot for the per-node ID-change
/// and message bounds — the assertions that previously lived only in
/// `tests/theorems.rs` — and [`TheoremAuditor::finish`] closes the run
/// with the amortized latency claim. Each violation records the event
/// number, so together with the run seed it pinpoints an exact replay.
#[derive(Clone, Debug)]
pub struct TheoremAuditor {
    bounds: TheoremBounds,
    expect_forest: bool,
    /// Set once a multi-victim batch lands: Lemma 1's forest claim is
    /// made for *sequential* deletions only — a batch killing several
    /// victims of one component can legitimately cycle `G'` (the known
    /// batch-model caveat, shared byte-for-byte by the distributed
    /// runner) — so from that point the forest check is waived while
    /// every other bound stays enforced.
    forest_waived: bool,
    check_rem: bool,
    /// Connectivity is checked by default; healers that make no
    /// connectivity claim at all (`no-heal`, the do-nothing baseline the
    /// exhaustive prover audits for weight conservation only) opt out via
    /// [`with_connectivity_check`](Self::with_connectivity_check).
    check_connectivity: bool,
    /// Violations found, prefixed with the event number (capped at
    /// `MAX_VIOLATIONS`; `truncated` records overflow).
    pub violations: Vec<String>,
    /// Whether findings were dropped after the cap.
    pub truncated: bool,
}

impl TheoremAuditor {
    /// Auditor with the paper's default bounds. `expect_forest` mirrors
    /// [`Healer::preserves_forest`](crate::strategy::Healer) for the
    /// strategy under test.
    pub fn new(expect_forest: bool) -> Self {
        TheoremAuditor {
            bounds: TheoremBounds::default(),
            expect_forest,
            forest_waived: false,
            check_rem: false,
            check_connectivity: true,
            violations: Vec::new(),
            truncated: false,
        }
    }

    /// Override the bound constants.
    pub fn with_bounds(mut self, bounds: TheoremBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Enable or disable the per-event connectivity check (on by
    /// default). Only healers that never claim to reconnect the graph —
    /// the `no-heal` baseline — should turn it off.
    pub fn with_connectivity_check(mut self, on: bool) -> Self {
        self.check_connectivity = on;
        self
    }

    /// Also check the O(n²) `rem` potential of Lemmas 4–5 every event.
    pub fn with_rem_check(mut self) -> Self {
        self.check_rem = true;
        self
    }

    /// Whether every checked bound held so far.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn record(&mut self, label: &str, finding: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(format!("{label}: {finding}"));
        } else {
            self.truncated = true;
        }
    }

    /// End-of-run checks: Theorem 1 bullet 4 (amortized ID-propagation
    /// latency over the run's healing rounds). Call once after the run;
    /// per-event checks alone never see the amortized quantity.
    pub fn finish(&mut self, net: &HealingNetwork, report: &ScenarioReport) {
        if report.rounds < self.bounds.latency_min_rounds {
            return;
        }
        let n = net.total_created().max(2) as f64;
        let bound = self.bounds.latency_factor * n.log2();
        let amortized = report.amortized_latency();
        if amortized > bound + 1e-9 {
            self.record(
                "finish",
                format!("amortized latency {amortized:.3} exceeds {bound:.3} (theorem 1.4)"),
            );
        }
    }
}

impl Observer for TheoremAuditor {
    fn on_event(&mut self, net: &HealingNetwork, record: &EventRecord) {
        let label = if record.kind != EventKind::Join && record.victims > 0 {
            format!("event {} (round {})", record.event, record.round)
        } else {
            format!("event {}", record.event)
        };
        if record.kind == EventKind::DeleteBatch && record.victims > 1 {
            self.forest_waived = true;
        }
        // Structural lemmas, invoked individually (not via `check_all`)
        // because the degree bound below carries a configurable factor.
        if self.check_connectivity && !connectivity_ok(net) {
            self.record(&label, "G is disconnected".to_string());
        }
        if self.expect_forest && !self.forest_waived && !forest_ok(net) {
            self.record(&label, "G' contains a cycle".to_string());
        }
        if !weight_conservation_ok(net) {
            self.record(&label, "weight not conserved".to_string());
        }
        if self.check_rem && !rem_potential_ok(net) {
            self.record(
                &label,
                "rem potential below 2^(delta/2) or above n".to_string(),
            );
        }
        let n = net.total_created().max(2) as f64;
        let delta_bound = self.bounds.delta_factor * n.log2();
        let max_delta = net.max_delta_alive();
        if (max_delta as f64) > delta_bound + 1e-9 {
            self.record(
                &label,
                format!("max delta {max_delta} exceeds {delta_bound:.2} (theorem 1.1)"),
            );
        }
        // Per-node bounds over every slot ever created: dead nodes'
        // counters froze at death and must also satisfy the bounds.
        let id_bound = self.bounds.id_change_factor * n.ln();
        let lnn = n.ln();
        let two_logn = 2.0 * n.log2();
        for i in 0..net.graph().node_bound() {
            let v = NodeId::from_index(i);
            let changes = net.id_changes(v) as f64;
            if changes > id_bound + 1e-9 {
                self.record(
                    &label,
                    format!("node {v}: {changes} id changes exceed {id_bound:.2} (theorem 1.2)"),
                );
                break; // one offender per event is enough for replay
            }
            let msg_bound =
                self.bounds.message_factor * (net.initial_degree(v) as f64 + two_logn) * lnn;
            let sent = net.messages_sent(v) as f64;
            if sent > msg_bound + 1e-9 {
                self.record(
                    &label,
                    format!("node {v}: sent {sent} messages, bound {msg_bound:.2} (theorem 1.3)"),
                );
                break;
            }
            let traffic = net.traffic(v) as f64;
            let traffic_bound = self.bounds.traffic_factor * msg_bound;
            if traffic > traffic_bound + 1e-9 {
                self.record(
                    &label,
                    format!("node {v}: traffic {traffic} exceeds {traffic_bound:.2} (theorem 1.3)"),
                );
                break;
            }
        }
    }
}

/// Per-family bound profile for [`FamilyAuditor`]: how many edges a
/// survivor may gain per adjacent victim, and whether the family also
/// promises logarithmic stretch across each victim's former neighbors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FamilyBounds {
    /// Healer name, used in violation messages.
    family: &'static str,
    /// Maximum degree gain per adjacent victim (ForgivingTree: 3 — one
    /// parent plus two children; RingForgiving: 2 + budget — two cycle
    /// edges plus one chord per round).
    gain_per_victim: usize,
    /// Whether each pair of a victim's surviving former neighbors must
    /// stay within `2 log₂ n` hops of each other (ForgivingTree's
    /// stretch claim; implies they stay connected at all).
    check_stretch: bool,
}

/// The new healer families' *own* theorems as an [`Observer`],
/// complementing [`TheoremAuditor`] (whose numeric bounds are Theorem
/// 1's and are waived for families that legitimately break them):
///
/// - **degree**: after every deletion event, each survivor's degree gain
///   is at most `gain_per_victim ×` the number of victims it was
///   adjacent to (ForgivingTree promises ≤ 3 per victim, RingForgiving
///   ≤ 2 + budget);
/// - **stretch** (ForgivingTree only): every pair of a victim's
///   surviving former neighbors remains connected within
///   `2 log₂ n` hops, `n` counting nodes ever created.
///
/// The auditor keeps a clone of the pre-event graph, so the bounds
/// compose over multi-victim batches (a survivor adjacent to `k` victims
/// may gain up to `k ×` the per-victim allowance) without needing victim
/// identities in the [`EventRecord`].
#[derive(Clone, Debug)]
pub struct FamilyAuditor {
    bounds: FamilyBounds,
    /// The graph as of *before* the event being observed.
    prev: selfheal_graph::Graph,
    /// Violations found, prefixed with the event number (capped at
    /// `MAX_VIOLATIONS`; `truncated` records overflow).
    pub violations: Vec<String>,
    /// Whether findings were dropped after the cap.
    pub truncated: bool,
}

impl FamilyAuditor {
    /// Auditor for [`ForgivingTree`](crate::ftree::ForgivingTree):
    /// degree gain ≤ 3 per adjacent victim, stretch ≤ `2 log₂ n` across
    /// each victim's former neighbors.
    pub fn forgiving_tree(net: &HealingNetwork) -> Self {
        FamilyAuditor {
            bounds: FamilyBounds {
                family: "ftree",
                gain_per_victim: 3,
                check_stretch: true,
            },
            prev: net.graph().clone(),
            violations: Vec::new(),
            truncated: false,
        }
    }

    /// Auditor for [`RingForgiving`](crate::ring::RingForgiving): degree
    /// gain ≤ `2 + budget` per adjacent victim (no stretch claim).
    pub fn ring(net: &HealingNetwork, budget: usize) -> Self {
        FamilyAuditor {
            bounds: FamilyBounds {
                family: "ring",
                gain_per_victim: 2 + budget,
                check_stretch: false,
            },
            prev: net.graph().clone(),
            violations: Vec::new(),
            truncated: false,
        }
    }

    /// Whether every checked family bound held so far.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn record(&mut self, label: &str, finding: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations
                .push(format!("{label} [{}]: {finding}", self.bounds.family));
        } else {
            self.truncated = true;
        }
    }
}

impl Observer for FamilyAuditor {
    fn on_event(&mut self, net: &HealingNetwork, record: &EventRecord) {
        if record.kind == EventKind::Join {
            self.prev = net.graph().clone();
            return;
        }
        let label = format!("event {} (round {})", record.event, record.round);
        // Victims: alive before the event, dead after it.
        let victims: Vec<NodeId> = self
            .prev
            .live_nodes()
            .filter(|&v| !net.is_alive(v))
            .collect();
        let n = net.total_created().max(2) as f64;
        let stretch_bound = (2.0 * n.log2()).floor() as u32;
        let survivors: Vec<NodeId> = self
            .prev
            .live_nodes()
            .filter(|&u| net.is_alive(u))
            .collect();
        for u in survivors {
            // Edges `u` lost to the victims; the family bound allows
            // `gain_per_victim` replacements for each.
            let lost = self
                .prev
                .neighbors(u)
                .iter()
                .filter(|v| victims.contains(v))
                .count();
            let added = (net.graph().degree(u) + lost).saturating_sub(self.prev.degree(u));
            if added > self.bounds.gain_per_victim * lost {
                self.record(
                    &label,
                    format!(
                        "survivor {u} gained {added} edges, allowed {} ({} per victim x {lost})",
                        self.bounds.gain_per_victim * lost,
                        self.bounds.gain_per_victim
                    ),
                );
            }
        }
        if self.bounds.check_stretch {
            // Every pair of a victim's surviving former neighbors must
            // stay within 2 log₂ n hops (and, a fortiori, connected).
            'victims: for &v in &victims {
                let nbrs: Vec<NodeId> = self
                    .prev
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| net.is_alive(u))
                    .collect();
                for (i, &a) in nbrs.iter().enumerate() {
                    for &b in &nbrs[i + 1..] {
                        match selfheal_graph::paths::distance(net.graph(), a, b) {
                            Some(d) if d <= stretch_bound => {}
                            Some(d) => {
                                self.record(
                                    &label,
                                    format!(
                                        "former neighbors {a},{b} of victim {v} are {d} apart, \
                                         stretch bound {stretch_bound}"
                                    ),
                                );
                                break 'victims;
                            }
                            None => {
                                self.record(
                                    &label,
                                    format!("former neighbors {a},{b} of victim {v} disconnected"),
                                );
                                break 'victims;
                            }
                        }
                    }
                }
            }
        }
        self.prev = net.graph().clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dash::Dash;
    use crate::strategy::Healer;
    use selfheal_graph::generators::{path_graph, star_graph};

    #[test]
    fn fresh_network_passes_everything() {
        let net = HealingNetwork::new(path_graph(10), 0);
        let report = check_all(&net, true, true);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn rem_of_isolated_gprime_node_is_own_weight() {
        let net = HealingNetwork::new(path_graph(4), 0);
        for v in 0..4u32 {
            assert_eq!(rem(&net, NodeId(v)), 1);
        }
    }

    #[test]
    fn subtree_weight_partitions_the_tree() {
        let mut net = HealingNetwork::new(star_graph(5), 1);
        // Build G' = star around node 1: edges (1,2), (1,3), (1,4).
        for v in 2..5u32 {
            net.add_heal_edge(NodeId(1), NodeId(v)).unwrap();
        }
        // From node 2's perspective, removing node 1 isolates it.
        assert_eq!(subtree_weight(&net, NodeId(2), NodeId(1)), 1);
        // From node 1's side each branch weighs 1.
        assert_eq!(subtree_weight(&net, NodeId(2), NodeId::MAX), 4); // whole tree
        assert_eq!(rem(&net, NodeId(1)), 3 - 1 + 1);
        // rem(2) = sum - max + w(2) over the single branch T(1,2): 3 - 3 + 1.
        assert_eq!(rem(&net, NodeId(2)), 1);
    }

    #[test]
    fn rem_grows_with_dash_healing() {
        let mut net = HealingNetwork::new(star_graph(8), 3);
        let ctx = net.delete_node(NodeId(0)).unwrap();
        let outcome = Dash.heal(&mut net, &ctx);
        net.propagate_min_id(&outcome.rt_members);
        assert!(rem_potential_ok(&net));
        // The RT root gained degree 2, so its rem must be >= 2.
        let root = net
            .graph()
            .live_nodes()
            .max_by_key(|&v| net.delta(v))
            .unwrap();
        assert!(rem(&net, root) as f64 >= 2f64.powf(net.delta(root) as f64 / 2.0));
    }

    #[test]
    fn delta_bound_flags_violations() {
        let net = HealingNetwork::new(path_graph(4), 0);
        let db = delta_bound(&net);
        assert!(db.ok);
        assert_eq!(db.max_delta, 0);
        assert!((db.bound - 4.0).abs() < 1e-9);
    }

    #[test]
    fn disconnection_is_reported() {
        let mut net = HealingNetwork::new(star_graph(4), 0);
        net.delete_node(NodeId(0)).unwrap();
        let report = check_all(&net, true, false);
        assert!(!report.ok());
        assert!(report.violations[0].contains("disconnected"));
    }

    #[test]
    fn theorem_auditor_is_clean_on_a_dash_sweep() {
        use crate::attack::MaxNode;
        use crate::scenario::ScenarioEngine;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = selfheal_graph::generators::barabasi_albert(48, 3, &mut StdRng::seed_from_u64(5));
        let mut auditor = TheoremAuditor::new(Dash.preserves_forest()).with_rem_check();
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 5), Dash, MaxNode);
        let report = engine.run_to_empty_with(&mut auditor);
        auditor.finish(&engine.net, &report);
        assert!(auditor.ok(), "{:?}", auditor.violations);
        assert!(!auditor.truncated);
    }

    #[test]
    fn theorem_auditor_flags_no_heal_and_caps_findings() {
        use crate::attack::MaxNode;
        use crate::naive::NoHeal;
        use crate::scenario::ScenarioEngine;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = selfheal_graph::generators::barabasi_albert(40, 3, &mut StdRng::seed_from_u64(3));
        let mut auditor = TheoremAuditor::new(false);
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 3), NoHeal, MaxNode);
        engine.run_to_empty_with(&mut auditor);
        assert!(!auditor.ok(), "NoHeal must break connectivity");
        assert!(auditor.violations.len() <= super::MAX_VIOLATIONS);
        assert!(auditor.truncated, "disconnection re-fires every event");
        assert!(auditor.violations[0].contains("disconnected"));
        assert!(auditor.violations[0].contains("event"));
    }

    #[test]
    fn connectivity_check_can_be_waived_for_no_heal() {
        use crate::attack::MaxNode;
        use crate::naive::NoHeal;
        use crate::scenario::ScenarioEngine;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = selfheal_graph::generators::barabasi_albert(40, 3, &mut StdRng::seed_from_u64(3));
        // Same sweep as `theorem_auditor_flags_no_heal_and_caps_findings`,
        // but with the connectivity check (and all numeric bounds the
        // baseline makes no claim about) turned off: only the weight
        // ledger is audited, and NoHeal keeps that one.
        let unbounded = TheoremBounds {
            delta_factor: f64::INFINITY,
            id_change_factor: f64::INFINITY,
            message_factor: f64::INFINITY,
            traffic_factor: f64::INFINITY,
            latency_factor: f64::INFINITY,
            latency_min_rounds: u64::MAX,
        };
        let mut auditor = TheoremAuditor::new(false)
            .with_connectivity_check(false)
            .with_bounds(unbounded);
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 3), NoHeal, MaxNode);
        engine.run_to_empty_with(&mut auditor);
        assert!(auditor.ok(), "{:?}", auditor.violations);
    }

    #[test]
    fn theorem_auditor_honors_custom_bounds() {
        use crate::attack::MaxNode;
        use crate::scenario::ScenarioEngine;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = selfheal_graph::generators::barabasi_albert(32, 3, &mut StdRng::seed_from_u64(9));
        // An absurdly tight degree bound must flag even correct DASH.
        let bounds = TheoremBounds {
            delta_factor: 0.0,
            ..TheoremBounds::default()
        };
        let mut auditor = TheoremAuditor::new(true).with_bounds(bounds);
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 9), Dash, MaxNode);
        engine.run_to_empty_with(&mut auditor);
        assert!(
            auditor.violations.iter().any(|v| v.contains("theorem 1.1")),
            "{:?}",
            auditor.violations
        );
    }

    #[test]
    fn family_auditor_is_clean_on_ftree_and_ring_sweeps() {
        use crate::attack::MaxNode;
        use crate::ftree::ForgivingTree;
        use crate::ring::RingForgiving;
        use crate::scenario::ScenarioEngine;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = selfheal_graph::generators::barabasi_albert(40, 3, &mut StdRng::seed_from_u64(7));
        let net = HealingNetwork::new(g.clone(), 7);
        let mut auditor = FamilyAuditor::forgiving_tree(&net);
        let mut engine = ScenarioEngine::new(net, ForgivingTree, MaxNode);
        engine.run_to_empty_with(&mut auditor);
        assert!(auditor.ok(), "{:?}", auditor.violations);

        let net = HealingNetwork::new(g, 7);
        let mut auditor = FamilyAuditor::ring(&net, 2);
        let mut engine = ScenarioEngine::new(net, RingForgiving { budget: 2 }, MaxNode);
        engine.run_to_empty_with(&mut auditor);
        assert!(auditor.ok(), "{:?}", auditor.violations);
    }

    #[test]
    fn family_auditor_flags_overbudget_degree_gain() {
        use crate::state::PropagationReport;
        // Kill the hub of star(8) and "heal" by wiring a star over spoke
        // 1: six replacement edges for the single edge it lost — past
        // both ftree's 3-per-victim and ring(2)'s 4-per-victim allowance.
        let mut net = HealingNetwork::new(star_graph(8), 1);
        let mut ftree = FamilyAuditor::forgiving_tree(&net);
        let mut ringa = FamilyAuditor::ring(&net, 2);
        net.delete_node(NodeId(0)).unwrap();
        for v in 2..8u32 {
            net.add_heal_edge(NodeId(1), NodeId(v)).unwrap();
        }
        let record = EventRecord {
            event: 1,
            round: 1,
            kind: EventKind::Delete,
            deleted: Some(NodeId(0)),
            victims: 1,
            joined: None,
            rt_size: 7,
            edges_added: 6,
            surrogate: None,
            propagation: PropagationReport::default(),
            round_max_delta: None,
        };
        ftree.on_event(&net, &record);
        ringa.on_event(&net, &record);
        for auditor in [&ftree, &ringa] {
            assert!(!auditor.ok());
            assert!(
                auditor.violations[0].contains("gained 6 edges"),
                "{:?}",
                auditor.violations
            );
        }
        assert!(ftree.violations[0].contains("[ftree]"));
        assert!(ringa.violations[0].contains("allowed 4"));
    }

    #[test]
    fn family_auditor_flags_disconnection_as_infinite_stretch() {
        use crate::naive::NoHeal;
        use crate::scenario::{ScenarioEngine, ScriptedEvents};
        let net = HealingNetwork::new(star_graph(5), 2);
        let mut auditor = FamilyAuditor::forgiving_tree(&net);
        let script = ScriptedEvents::new(vec![crate::scenario::NetworkEvent::Delete(NodeId(0))]);
        let mut engine = ScenarioEngine::new(net, NoHeal, script);
        engine.run_events_with(1, &mut auditor);
        assert!(
            auditor
                .violations
                .iter()
                .any(|v| v.contains("disconnected")),
            "{:?}",
            auditor.violations
        );
    }

    #[test]
    fn weight_conservation_holds_through_deletions() {
        let mut net = HealingNetwork::new(path_graph(5), 0);
        for v in [1u32, 3, 0, 2, 4] {
            net.delete_node(NodeId(v)).unwrap();
            assert!(weight_conservation_ok(&net));
        }
        assert_eq!(net.weight_lost(), 5);
    }
}
