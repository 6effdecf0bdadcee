//! Exhaustive small-world prover: Theorem 1 on *every* tiny instance.
//!
//! The sweep fleet validates the Saia–Trehan bounds statistically over
//! sampled seeds; this module turns the test suite into a prover on the
//! universe it can afford to exhaust. For `n ≤ 7` it enumerates
//!
//! 1. **every connected graph up to isomorphism** (canonical-form dedup,
//!    see [`connected_graphs`]),
//! 2. **every deletion order** (all `n!` kill sweeps per graph), plus
//!    representative *batch partitions* (greedy maximal-independent-set
//!    sweeps at two batch widths),
//! 3. for **every registered healer**, with a per-healer audit profile,
//!
//! and runs the [`TheoremAuditor`] over each run. A clean
//! [`UniverseReport`] is a proof-by-exhaustion that the checked bounds
//! hold on that universe — not a sample.
//!
//! ## What "proved" means here
//!
//! The degree bound (Theorem 1.1, `δ(v) ≤ 2·log₂ n`) and the weight /
//! connectivity / forest lemmas are deterministic claims and are checked
//! at the paper's exact constants. The ID-change and message bounds
//! (Theorem 1.2/1.3) are *with-high-probability* claims over random ID
//! assignments at large `n`; an exhaustive universe deliberately contains
//! the adversarial deletion orders those claims exclude (killing current
//! minimum-ID nodes first forces up to `n − 1` ID changes, while
//! `2·ln 6 ≈ 3.6`). For those two, the prover therefore checks the
//! corresponding **deterministic ceilings** — at most one ID change and
//! one `O(d + log n)` broadcast per node per healing wave, i.e. factor
//! `n / ln n` instead of `2` — which is the strongest statement that is
//! actually true universally at tiny `n`. Graph labels double as ID
//! patterns: each isomorphism class meets `n!` distinct (order, ID)
//! combinations under the fixed run seed.
//!
//! The enumeration is by canonical augmentation: every connected graph
//! on `n` nodes contains a non-cut vertex, so it arises from a connected
//! graph on `n − 1` nodes by attaching one new node to a non-empty
//! neighbor subset. Candidates are deduplicated by their canonical form
//! (minimum edge bitmask over all `n!` relabelings — affordable because
//! `7! = 5040`). The known census 1, 1, 2, 6, 21, 112, 853 for
//! `n = 1..7` ([`CONNECTED_COUNTS`]) is asserted as an oracle on every
//! run, so an enumeration bug can never silently shrink the universe.

use crate::invariants::{FamilyAuditor, Findings, TheoremAuditor, TheoremBounds};
use crate::scenario::{
    DegreeBatches, EventSource, NetworkEvent, Observer, ScenarioEngine, ScriptedEvents,
};
use crate::spec::{HealerSpec, SpecError};
use crate::state::HealingNetwork;
use selfheal_graph::parallel::{default_threads, parallel_map};
use selfheal_graph::{Graph, NodeId};
use std::collections::BTreeSet;

/// Largest universe the prover accepts (`7! = 5040` relabelings per
/// canonicalization is the feasibility edge).
pub const MAX_NODES: usize = 7;

/// Number of connected graphs on `n = 1..=7` unlabeled nodes (OEIS
/// A001349) — the oracle the enumeration is checked against.
pub const CONNECTED_COUNTS: [u64; MAX_NODES] = [1, 1, 2, 6, 21, 112, 853];

/// A connected graph on `n ≤ 7` nodes in canonical form: the edge
/// `{i, j}` (`i < j`) is present iff bit `pair_bit(i, j)` of `mask` is
/// set, and `mask` is minimal over all relabelings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SmallGraph {
    /// Number of nodes.
    pub n: usize,
    /// Triangular edge bitmask (21 bits suffice for `n = 7`).
    pub mask: u32,
}

/// Bit position of edge `{i, j}` with `i < j` in the triangular mask.
fn pair_bit(i: usize, j: usize) -> u32 {
    debug_assert!(i < j);
    (j * (j - 1) / 2 + i) as u32
}

impl SmallGraph {
    /// The edge list encoded by the mask.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for j in 1..self.n {
            for i in 0..j {
                if self.mask & (1 << pair_bit(i, j)) != 0 {
                    edges.push((i, j));
                }
            }
        }
        edges
    }

    /// Materialize as a [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for (i, j) in self.edges() {
            g.add_edge(NodeId(i as u32), NodeId(j as u32))
                // panic-ok: `edges()` only yields pairs below `self.n`,
                // which is exactly the node range `Graph::new(n)` allots.
                .expect("mask edges are in range");
        }
        g
    }
}

/// All permutations of `0..k` (Heap's algorithm; `k ≤ 7` keeps this at
/// 5040 entries). Shared by the enumeration (canonical forms), the
/// deletion-order sweeps, and the schedule explorer's victim orders.
pub fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut items: Vec<usize> = (0..k).collect();
    let mut out = vec![items.clone()];
    let mut c = vec![0usize; k];
    let mut i = 0;
    while i < k {
        if c[i] < i {
            if i % 2 == 0 {
                items.swap(0, i);
            } else {
                items.swap(c[i], i);
            }
            out.push(items.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

/// Relabel `mask` by permutation `p` (node `i` becomes `p[i]`).
fn relabel(n: usize, mask: u32, p: &[usize]) -> u32 {
    let mut out = 0;
    for j in 1..n {
        for i in 0..j {
            if mask & (1 << pair_bit(i, j)) != 0 {
                let (a, b) = if p[i] < p[j] {
                    (p[i], p[j])
                } else {
                    (p[j], p[i])
                };
                out |= 1 << pair_bit(a, b);
            }
        }
    }
    out
}

/// Canonical form: the minimum mask over all relabelings.
fn canonical(n: usize, mask: u32, perms: &[Vec<usize>]) -> u32 {
    perms.iter().map(|p| relabel(n, mask, p)).min().unwrap_or(0)
}

/// Every connected graph on exactly `n` nodes, one canonical
/// representative per isomorphism class, sorted by mask.
///
/// # Panics
/// Panics if `n` is 0 or exceeds [`MAX_NODES`].
pub fn connected_graphs(n: usize) -> Vec<SmallGraph> {
    // panic-ok: documented in the `# Panics` section above — `n` out of
    // `1..=MAX_NODES` is a caller bug, not a recoverable state.
    assert!((1..=MAX_NODES).contains(&n), "n must be in 1..={MAX_NODES}");
    // panic-ok: `enumerate_levels(n)` always returns `n` levels and the
    // assert above pins `n >= 1`.
    enumerate_levels(n).pop().expect("levels are non-empty")
}

/// Levels `1..=max_n` of the universe, built by canonical augmentation:
/// attach a fresh last node to every non-empty neighbor subset of every
/// canonical graph one size down, then dedup by canonical form. Every
/// connected graph has a non-cut vertex, so every isomorphism class is
/// reached.
fn enumerate_levels(max_n: usize) -> Vec<Vec<SmallGraph>> {
    let mut levels: Vec<Vec<SmallGraph>> = vec![vec![SmallGraph { n: 1, mask: 0 }]];
    for n in 2..=max_n {
        let perms = permutations(n);
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        for parent in &levels[n - 2] {
            for subset in 1u32..(1 << (n - 1)) {
                let mut mask = parent.mask;
                for i in 0..n - 1 {
                    if subset & (1 << i) != 0 {
                        mask |= 1 << pair_bit(i, n - 1);
                    }
                }
                seen.insert(canonical(n, mask, &perms));
            }
        }
        // BTreeSet iterates in ascending mask order, so the level is
        // already sorted — no post-sort needed.
        let level: Vec<SmallGraph> = seen
            .into_iter()
            .map(|mask| SmallGraph { n, mask })
            .collect();
        levels.push(level);
    }
    levels
}

/// Configuration of one exhaustive proving run.
#[derive(Clone, Debug)]
pub struct UniverseConfig {
    /// Exhaust all connected graphs with up to this many nodes
    /// (`2..=`[`MAX_NODES`]).
    pub max_n: usize,
    /// Healers to audit (each with its own audit profile).
    pub healers: Vec<HealerSpec>,
    /// Worker threads for the graph×healer fan-out (0 = auto).
    pub threads: usize,
    /// Run seed: fixes the initial-ID permutation per graph.
    pub seed: u64,
    /// Also run greedy maximal-independent-set batch sweeps (widths 2
    /// and 3) per graph, exercising the batch healing path.
    pub batch_partitions: bool,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            max_n: 6,
            healers: HealerSpec::ALL.to_vec(),
            threads: 0,
            seed: 2008,
            batch_partitions: true,
        }
    }
}

/// Outcome of an exhaustive proving run. Counts are exact.
#[derive(Clone, Debug, Default)]
pub struct UniverseReport {
    /// Distinct canonical connected graphs exhausted (all `n ≤ max_n`).
    pub graphs: u64,
    /// Healers audited.
    pub healers: u64,
    /// Full deletion-order kill sweeps executed (Σ per-graph `n!`, per
    /// healer).
    pub order_runs: u64,
    /// Greedy batch-partition sweeps executed.
    pub batch_runs: u64,
    /// Bound violations across all runs, each naming graph, order and
    /// healer for replay; kept in work-item order (graph, then healer).
    pub findings: Findings,
}

impl UniverseReport {
    /// Total runs audited.
    pub fn runs(&self) -> u64 {
        self.order_runs + self.batch_runs
    }

    /// Whether every audited run satisfied every checked bound.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn merge(mut self, other: UniverseReport) -> UniverseReport {
        self.order_runs += other.order_runs;
        self.batch_runs += other.batch_runs;
        self.findings.append(other.findings);
        self
    }
}

/// Audit the work items `0..n_items` on `threads` workers and merge
/// their reports in item order, so the kept findings (which ones, and in
/// what order) do not depend on how work stealing spread the items.
fn audit_items(
    n_items: usize,
    threads: usize,
    item: impl Fn(usize) -> UniverseReport + Sync,
) -> UniverseReport {
    parallel_map(n_items, threads, item)
        .into_iter()
        .fold(UniverseReport::default(), UniverseReport::merge)
}

/// The per-healer audit profile: (expect G' forest, check connectivity,
/// bound constants). DASH/SDASH get the full Theorem 1 suite (degree
/// bound at the paper's factor 2, probabilistic bounds at their
/// deterministic ceilings — see the module docs); the naive baselines
/// are audited only for the claims they actually make.
fn audit_profile(healer: HealerSpec, n: usize) -> (bool, bool, bool, TheoremBounds) {
    let unbounded = TheoremBounds {
        delta_factor: f64::INFINITY,
        id_change_factor: f64::INFINITY,
        message_factor: f64::INFINITY,
        traffic_factor: f64::INFINITY,
        latency_factor: f64::INFINITY,
        latency_min_rounds: u64::MAX,
    };
    match healer {
        HealerSpec::Dash | HealerSpec::Sdash => {
            // Deterministic ceiling for the w.h.p. bounds: one ID change
            // / one broadcast per healing wave, ≤ n waves per run.
            let ceiling = n as f64 / (n as f64).ln().max(f64::MIN_POSITIVE);
            let bounds = TheoremBounds {
                id_change_factor: ceiling,
                message_factor: ceiling,
                ..TheoremBounds::default()
            };
            (true, true, true, bounds)
        }
        // The rem potential (rem(v) >= 2^(delta(v)/2)) is DASH's own
        // structural invariant; the baselines legitimately break it, so
        // only the paper's two algorithms carry the check.
        HealerSpec::GraphHeal => (false, true, false, unbounded),
        HealerSpec::BinaryTreeHeal | HealerSpec::LineHeal => (true, true, false, unbounded),
        HealerSpec::NoHeal => (false, false, false, unbounded),
        // The new families keep the structural claims (connectivity;
        // ForgivingTree also keeps G' a forest) but make none of
        // Theorem 1's numeric promises — their own degree/stretch/budget
        // bounds are enforced by the [`FamilyAuditor`] composed in
        // `audit_run`. RingForgiving deliberately cycles G'.
        HealerSpec::ForgivingTree => (true, true, false, unbounded),
        HealerSpec::RingForgiving { .. } => (false, true, false, unbounded),
    }
}

/// The per-family auditor (degree-gain / stretch / budget bounds) for
/// healers that carry one; `None` for the six Theorem 1 healers.
fn family_auditor(healer: HealerSpec, net: &HealingNetwork) -> Option<FamilyAuditor> {
    match healer {
        HealerSpec::ForgivingTree => Some(FamilyAuditor::forgiving_tree(net)),
        HealerSpec::RingForgiving { budget } => Some(FamilyAuditor::ring(net, budget)),
        _ => None,
    }
}

/// Audit one scripted run of `healer` on `graph`, appending any findings
/// (prefixed with a replay label) to `report`.
fn audit_run(
    graph: &SmallGraph,
    healer: HealerSpec,
    seed: u64,
    order: Option<&[usize]>,
    batch_k: Option<usize>,
    report: &mut UniverseReport,
) {
    let (expect_forest, connectivity, rem, bounds) = audit_profile(healer, graph.n);
    let mut auditor = TheoremAuditor::new(expect_forest)
        .with_bounds(bounds)
        .with_connectivity_check(connectivity);
    if rem {
        auditor = auditor.with_rem_check();
    }
    let net = HealingNetwork::new(graph.to_graph(), seed);
    let mut family = family_auditor(healer, &net);
    // Compose the Theorem 1 auditor with the family's own bounds: both
    // observe every event (the `FnMut` blanket impl turns the closure
    // into an `Observer`).
    let mut observer = |net: &HealingNetwork, rec: &crate::scenario::EventRecord| {
        Observer::on_event(&mut auditor, net, rec);
        if let Some(f) = family.as_mut() {
            Observer::on_event(f, net, rec);
        }
    };
    let source: Box<dyn EventSource> = match (order, batch_k) {
        (Some(order), _) => Box::new(ScriptedEvents::new(
            order
                .iter()
                .map(|&v| NetworkEvent::Delete(NodeId(v as u32))),
        )),
        (None, Some(k)) => Box::new(DegreeBatches::new(k)),
        (None, None) => unreachable!("a run is either an order sweep or a batch sweep"),
    };
    let mut engine = ScenarioEngine::new(net, healer.build(), source);
    let run = engine.run_to_empty_with(&mut observer);
    auditor.finish(&engine.net, &run);
    let mut findings = auditor.findings;
    if let Some(family) = family {
        findings.append(family.findings);
    }
    if !findings.is_empty() {
        let shape = match (order, batch_k) {
            (Some(order), _) => format!("order={order:?}"),
            (_, Some(k)) => format!("batch-k={k}"),
            _ => unreachable!(),
        };
        report.findings.append(findings.map(|finding| {
            format!(
                "n={} graph=0x{:x} healer={} {shape}: {finding}",
                graph.n,
                graph.mask,
                healer.name()
            )
        }));
    }
}

/// Run the exhaustive prover: every connected graph up to `cfg.max_n`
/// nodes × every deletion order (plus batch partitions) × every
/// requested healer, fanned across threads with [`parallel_map`].
///
/// # Errors
/// Rejects an empty healer list, `max_n` outside `2..=`[`MAX_NODES`],
/// and an enumeration that disagrees with [`CONNECTED_COUNTS`] (which
/// would mean the universe is silently incomplete).
pub fn run_universe(cfg: &UniverseConfig) -> Result<UniverseReport, SpecError> {
    if cfg.max_n < 2 || cfg.max_n > MAX_NODES {
        return Err(SpecError::Invalid(format!(
            "exhaustive universe needs 2 <= n <= {MAX_NODES}, got {}",
            cfg.max_n
        )));
    }
    if cfg.healers.is_empty() {
        return Err(SpecError::Invalid(
            "exhaustive universe needs at least one healer".to_string(),
        ));
    }
    let levels = enumerate_levels(cfg.max_n);
    for (i, level) in levels.iter().enumerate() {
        if level.len() as u64 != CONNECTED_COUNTS[i] {
            return Err(SpecError::Invalid(format!(
                "enumeration produced {} connected graphs on {} nodes, census says {}",
                level.len(),
                i + 1,
                CONNECTED_COUNTS[i]
            )));
        }
    }
    // One work item per (graph, healer): the per-item cost is dominated
    // by the n! order sweeps, so this granularity load-balances well
    // under `parallel_map`'s work stealing.
    let graphs: Vec<SmallGraph> = levels.into_iter().flatten().collect();
    let items: Vec<(SmallGraph, HealerSpec)> = graphs
        .iter()
        .flat_map(|&g| cfg.healers.iter().map(move |&h| (g, h)))
        .collect();
    let perms_by_n: Vec<Vec<Vec<usize>>> = (0..=cfg.max_n).map(permutations).collect();
    let threads = if cfg.threads == 0 {
        default_threads()
    } else {
        cfg.threads
    };
    let merged = audit_items(items.len(), threads, |idx| {
        let mut acc = UniverseReport::default();
        let (graph, healer) = items[idx];
        for order in &perms_by_n[graph.n] {
            audit_run(&graph, healer, cfg.seed, Some(order), None, &mut acc);
            acc.order_runs += 1;
        }
        if cfg.batch_partitions {
            for k in [2usize, 3] {
                audit_run(&graph, healer, cfg.seed, None, Some(k), &mut acc);
                acc.batch_runs += 1;
            }
        }
        acc
    });
    Ok(UniverseReport {
        graphs: graphs.len() as u64,
        healers: cfg.healers.len() as u64,
        ..merged
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_matches_up_to_six_nodes() {
        for n in 1..=6 {
            assert_eq!(
                connected_graphs(n).len() as u64,
                CONNECTED_COUNTS[n - 1],
                "connected graph count diverges at n={n}"
            );
        }
    }

    #[test]
    fn enumerated_graphs_are_connected_canonical_and_distinct() {
        use selfheal_graph::components::is_connected;
        for n in 2..=5 {
            let perms = permutations(n);
            let level = connected_graphs(n);
            let mut seen = BTreeSet::new();
            for sg in &level {
                assert!(is_connected(sg.to_graph()), "0x{:x} disconnected", sg.mask);
                assert_eq!(
                    canonical(n, sg.mask, &perms),
                    sg.mask,
                    "0x{:x} is not canonical",
                    sg.mask
                );
                assert!(seen.insert(sg.mask), "0x{:x} repeated", sg.mask);
            }
        }
    }

    #[test]
    fn permutations_enumerate_k_factorial_distinct_orders() {
        for (k, count) in [(0usize, 1usize), (1, 1), (3, 6), (5, 120)] {
            let perms = permutations(k);
            assert_eq!(perms.len(), count);
            let distinct: BTreeSet<Vec<usize>> = perms.into_iter().collect();
            assert_eq!(distinct.len(), count);
        }
    }

    #[test]
    fn tiny_universe_is_clean_for_every_healer() {
        // n <= 4: 10 graphs x 8 healers, 159 orders each way — fast
        // enough for the debug-profile unit suite. The full n <= 6 tier
        // runs in `make verify-exhaustive` / `run-experiments verify`.
        let cfg = UniverseConfig {
            max_n: 4,
            ..UniverseConfig::default()
        };
        let report = run_universe(&cfg).unwrap();
        assert_eq!(report.graphs, 10);
        assert_eq!(report.healers, 8);
        // Σ n! over graphs: 1·1! + 1·2! + 2·3! + 6·4! = 159 per healer.
        assert_eq!(report.order_runs, 159 * 8);
        assert_eq!(report.batch_runs, 10 * 2 * 8);
        assert!(report.is_clean(), "{:#?}", report.findings);
    }

    /// Locked documentation (the PR 6 `AuditSpec::Exhaustive` precedent)
    /// for why `audit_profile` hands the new families unbounded
    /// Theorem 1 constants instead of DASH's.
    ///
    /// **ForgivingTree vs Lemma 6**: the heir ordering reads current
    /// degrees and initial IDs, never δ, so a targeted adversary can
    /// park one node in an internal tree slot event after event and push
    /// its δ past `2 log₂ n` — while the family's *own* bounds (≤ 3
    /// edges per adjacent victim, logarithmic stretch — the
    /// [`FamilyAuditor`] profile the prover enforces instead) keep
    /// holding. The scenario is a "broom": hub `x` adjacent to victims
    /// `1..=K`, each victim carrying four fresh leaves. Every deletion
    /// rebuilds `{x, 4 leaves}`; whenever `x`'s initial ID ranks below
    /// the three non-heir leaves it takes the internal slot (+3 edges
    /// for the 1 it lost, δ += 2). Seeds where `x` draws a small initial
    /// ID cross the bound well before the sweep ends.
    ///
    /// **RingForgiving vs Lemma 1**: a single heal already closes a
    /// cycle in `G'` — by design — so its profile sets
    /// `expect_forest = false` (the same waiver GraphHeal gets).
    #[test]
    fn new_family_profiles_waive_exactly_what_the_families_break() {
        const K: u32 = 12;
        let mut g = Graph::new(1 + K as usize * 5);
        for v in 1..=K {
            g.add_edge(NodeId(0), NodeId(v)).unwrap();
            for l in 0..4u32 {
                g.add_edge(NodeId(v), NodeId(K + 4 * (v - 1) + l + 1))
                    .unwrap();
            }
        }
        let events: Vec<NetworkEvent> = (1..=K).map(|v| NetworkEvent::Delete(NodeId(v))).collect();
        let mut lemma6_broken = false;
        for seed in 0..200u64 {
            let net = HealingNetwork::new(g.clone(), seed);
            let mut theorem = TheoremAuditor::new(true);
            let mut family = FamilyAuditor::forgiving_tree(&net);
            let mut obs = |n: &HealingNetwork, r: &crate::scenario::EventRecord| {
                Observer::on_event(&mut theorem, n, r);
                Observer::on_event(&mut family, n, r);
            };
            let mut engine = ScenarioEngine::new(
                net,
                HealerSpec::ForgivingTree.build(),
                ScriptedEvents::new(events.clone()),
            );
            engine.run_events_with(K as u64, &mut obs);
            assert!(family.ok(), "seed {seed}: {:?}", family.findings);
            // Everything *except* the δ bound must still hold: the
            // family keeps connectivity, the G' forest and the weight
            // ledger.
            assert!(
                theorem
                    .findings
                    .kept()
                    .iter()
                    .all(|v| v.contains("theorem 1.1")),
                "seed {seed}: {:?}",
                theorem.findings
            );
            lemma6_broken |= !theorem.ok();
        }
        assert!(
            lemma6_broken,
            "some broom seed must push ftree's delta past Lemma 6"
        );

        let net = HealingNetwork::new(selfheal_graph::generators::star_graph(5), 1);
        let mut family = FamilyAuditor::ring(&net, 2);
        let mut engine = ScenarioEngine::new(
            net,
            HealerSpec::RingForgiving { budget: 2 }.build(),
            ScriptedEvents::new(vec![NetworkEvent::Delete(NodeId(0))]),
        );
        engine.run_events_with(1, &mut family);
        assert!(
            !crate::invariants::forest_ok(&engine.net),
            "a 4-member ring heal must cycle G'"
        );
        assert!(family.ok(), "{:?}", family.findings);
    }

    /// The prover can fail, and which findings it keeps does not depend
    /// on the thread count: item `i` audits `no-heal` for connectivity
    /// over every deletion order of the `i`-th 5-node graph, so items
    /// differ in cost and most of them find disconnections.
    #[test]
    fn kept_findings_do_not_depend_on_the_thread_count() {
        let graphs = connected_graphs(5);
        let fold = |threads| {
            audit_items(graphs.len(), threads, |i| {
                let mut report = UniverseReport::default();
                for order in permutations(5) {
                    let mut auditor = TheoremAuditor::new(false);
                    let events = order
                        .iter()
                        .map(|&v| NetworkEvent::Delete(NodeId(v as u32)));
                    let net = HealingNetwork::new(graphs[i].to_graph(), 1);
                    ScenarioEngine::new(
                        net,
                        HealerSpec::NoHeal.build(),
                        ScriptedEvents::new(events),
                    )
                    .run_to_empty_with(&mut auditor);
                    let label = |f| format!("graph {i} {order:?}: {f}");
                    report.findings.append(auditor.findings.map(label));
                }
                report
            })
        };
        let serial = fold(1);
        assert!(!serial.is_clean() && serial.findings.truncated());
        assert!(serial.findings.kept()[0].starts_with("graph 0 "));
        for _ in 0..4 {
            assert_eq!(fold(4).findings, serial.findings);
        }
    }

    #[test]
    fn rejects_oversized_universe_and_empty_healers() {
        let mut cfg = UniverseConfig {
            max_n: 8,
            ..UniverseConfig::default()
        };
        assert!(run_universe(&cfg).is_err());
        cfg.max_n = 4;
        cfg.healers.clear();
        assert!(run_universe(&cfg).is_err());
    }
}
