//! The library workloads: DASH heals BA(n, 3) to empty under an
//! adaptive adversary, stepping `ScenarioEngine` with audit off.
//!
//! A run is a sequence of episodes, each on a fresh graph (the same
//! graphs on every run, see [`GRAPH_SEED`]) under an adversary seeded
//! from the run seed, until the measured stepping time reaches the
//! budget.
//! Building an episode's network is set-up and is timed apart.
//!
//! The traced run replays every episode a second time through the
//! engine's public phase functions, in the engine's own order, with a
//! span around each call ([`replay`]). The replay must reproduce the
//! untraced episode's report fingerprint exactly.

use crate::calib::Reference;
use crate::ledger::{Boundary, Ledger};
use crate::slices::Slices;
use crate::{derive_seed, Outcome, Size, Workload, GRAPH_SEED};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bench::alloc::thread_allocations;
use selfheal_core::attack::RackPartition;
use selfheal_core::batch::delete_independent_batch;
use selfheal_core::dash::Dash;
use selfheal_core::scenario::{
    EventSource, NetworkEvent, RandomChurn, ScenarioEngine, ScenarioReport,
};
use selfheal_core::state::{DeletionContext, HealingNetwork, PropagationReport};
use selfheal_core::strategy::{HealOutcome, Healer};
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::NodeId;
use std::time::{Duration, Instant};

/// BA attachment parameter (the paper's experiments use m = 3).
const M: usize = 3;
/// Rack size of the partition adversary.
const RACK: usize = 8;
/// Measured time per slice (see [`Slices`]).
const SLICE: Duration = Duration::from_millis(100);

/// Initial nodes. Rack victims are uniformly random, so at churn's size
/// every rack deletion misses cache and the rack path's speed follows
/// memory contention from other tenants of the host, which the
/// cache-resident reference kernel does not see; at 20 000 nodes the
/// graph stays cache-resident and its figures repeat.
fn graph_size(workload: Workload, size: Size) -> usize {
    match (workload, size) {
        (_, Size::Tiny) => 300,
        (Workload::EngineChurn, Size::Full) => 200_000,
        (_, Size::Full) => 20_000,
    }
}

/// The report fields a replay must reproduce exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events consumed.
    pub events: u64,
    /// Healing rounds.
    pub rounds: u64,
    /// Nodes deleted.
    pub deletions: u64,
    /// Nodes joined.
    pub joins: u64,
    /// ID-broadcast messages.
    pub messages: u64,
    /// Healing edges added.
    pub edges_added: u64,
    /// Maximum degree increase ever.
    pub max_delta: i64,
    /// Summed broadcast latency.
    pub latency_total: u64,
}

impl From<&ScenarioReport> for Fingerprint {
    fn from(r: &ScenarioReport) -> Self {
        Fingerprint {
            events: r.events,
            rounds: r.rounds,
            deletions: r.deletions,
            joins: r.joins,
            messages: r.total_messages,
            edges_added: r.total_edges_added,
            max_delta: r.max_delta_ever,
            latency_total: r.total_propagation_latency,
        }
    }
}

/// One untraced episode.
struct Episode {
    fp: Fingerprint,
    wall: Duration,
    allocs: u64,
    noops: u64,
}

fn build(n: usize, seed: u64) -> HealingNetwork {
    HealingNetwork::new(
        barabasi_albert(n, M, &mut StdRng::seed_from_u64(seed)),
        seed,
    )
}

/// Step the engine to empty, timing each step into `slices`; then check
/// the end state (healed to empty, Theorem 1's degree bound, no audit
/// findings) into `out`.
fn run_untraced<S: EventSource>(
    net: HealingNetwork,
    source: S,
    slices: &mut Slices,
    out: &mut Outcome,
) -> Episode {
    let mut engine = ScenarioEngine::new(net, Dash, source);
    let mut noops = 0;
    let c0 = slices.calibration();
    let a0 = thread_allocations();
    let t0 = Instant::now();
    let mut last = t0;
    loop {
        let ts = Instant::now();
        let Some(rec) = engine.step() else { break };
        let te = Instant::now();
        // A library caller sees an event once its step returns: one
        // step is both the tick and the visibility delay.
        slices.latency(te - ts, te - ts);
        last = if slices.work(te - last, 1, rec.victims as u64) {
            Instant::now()
        } else {
            te
        };
        if rec.victims == 0 && rec.joined.is_none() {
            noops += 1;
        }
    }
    // The calibration after each slice ran inside this loop's clock.
    let c1 = slices.calibration();
    let wall = t0.elapsed() - (c1.0 - c0.0);
    let allocs = thread_allocations() - a0 - (c1.1 - c0.1);
    let report = engine.finish();
    let live = engine.net.graph().live_node_count();
    out.check("heal_to_empty", live == 0, || {
        format!("{live} nodes left alive")
    });
    let bound = 2.0 * (engine.net.total_created() as f64).log2();
    out.check(
        "theorem1_delta_bound",
        report.max_delta_ever as f64 <= bound,
        || {
            format!(
                "max delta {} > 2 log2 n = {bound:.2}",
                report.max_delta_ever
            )
        },
    );
    out.check("no_violations", report.violations.is_empty(), || {
        report.violations.join("; ")
    });
    Episode {
        fp: Fingerprint::from(&report),
        wall,
        allocs,
        noops,
    }
}

fn account(fp: &mut Fingerprint, p: PropagationReport, edges: usize, round_max_delta: Option<i64>) {
    fp.messages += p.messages;
    fp.edges_added += edges as u64;
    fp.latency_total += p.latency;
    if let Some(d) = round_max_delta {
        fp.max_delta = fp.max_delta.max(d);
    }
}

/// Replay an episode through the public phase functions, in
/// `ScenarioEngine`'s order, with one span per call; returns the
/// fingerprint and the summed reconstruction-set sizes. The engine's
/// crate-private sanitize rules run untimed, reproduced here: a batch
/// keeps each live victim that neither repeats nor neighbours an
/// earlier kept one; a join drops dead and repeated targets and is
/// skipped when none are left. A batch is deleted through the public
/// `delete_independent_batch`, which re-checks the independence the
/// engine's private path takes from the sanitize pass.
fn replay<H: Healer, S: EventSource>(
    net: &mut HealingNetwork,
    healer: &mut H,
    source: &mut S,
    ledger: &mut Ledger,
) -> (Fingerprint, u64) {
    let mut fp = Fingerprint::default();
    let mut rt_total = 0u64;
    let mut ctx = DeletionContext::default();
    let mut outcome = HealOutcome::default();
    let mut kept: Vec<NodeId> = Vec::new();
    let mut outcomes: Vec<HealOutcome> = Vec::new();
    let broadcast = healer.needs_id_propagation();
    while let Some(event) = ledger.time(Boundary::NextEvent, || source.next_event(net)) {
        fp.events += 1;
        match event {
            NetworkEvent::Delete(v) => {
                if !net.is_alive(v) {
                    continue;
                }
                fp.rounds += 1;
                fp.deletions += 1;
                ledger
                    .time(Boundary::DeleteNodeInto, || {
                        net.delete_node_into(v, &mut ctx)
                    })
                    .expect("victim checked alive");
                ledger.time(Boundary::HealInto, || {
                    healer.heal_into(net, &ctx, &mut outcome)
                });
                let p = if broadcast {
                    ledger.time(Boundary::Propagate, || {
                        net.propagate_min_id_uniform(&outcome.rt_members)
                    })
                } else {
                    PropagationReport::default()
                };
                let rmd = outcome.rt_members.iter().map(|&m| net.delta(m)).max();
                account(&mut fp, p, outcome.edges_added.len(), rmd);
                rt_total += outcome.rt_members.len() as u64;
            }
            NetworkEvent::DeleteBatch(victims) => {
                kept.clear();
                for v in victims {
                    if net.is_alive(v)
                        && !kept.contains(&v)
                        && kept.iter().all(|&u| !net.graph().has_edge(u, v))
                    {
                        kept.push(v);
                    }
                }
                if kept.is_empty() {
                    continue;
                }
                fp.rounds += 1;
                fp.deletions += kept.len() as u64;
                let contexts = ledger
                    .time(Boundary::BatchDelete, || {
                        delete_independent_batch(net, &kept)
                    })
                    .expect("sanitized batch is independent");
                let mut p = PropagationReport::default();
                outcomes.clear();
                for victim in &contexts {
                    let o = ledger.time(Boundary::Heal, || healer.heal(net, victim));
                    if broadcast {
                        p.merge(ledger.time(Boundary::Propagate, || {
                            net.propagate_min_id_uniform(&o.rt_members)
                        }));
                    }
                    outcomes.push(o);
                }
                let members = outcomes.iter().flat_map(|o| &o.rt_members);
                let rmd = members.clone().map(|&m| net.delta(m)).max();
                let edges = outcomes.iter().map(|o| o.edges_added.len()).sum();
                account(&mut fp, p, edges, rmd);
                rt_total += members.count() as u64;
            }
            NetworkEvent::Join { neighbors } => {
                kept.clear();
                for u in &neighbors {
                    if net.is_alive(*u) && !kept.contains(u) {
                        kept.push(*u);
                    }
                }
                if kept.is_empty() && !neighbors.is_empty() {
                    continue;
                }
                ledger
                    .time(Boundary::JoinNode, || net.join_node(&kept))
                    .expect("sanitized join targets");
                fp.joins += 1;
            }
        }
    }
    (fp, rt_total)
}

/// Run `engine-churn` or `engine-racks`.
pub fn run(workload: Workload, seed: u64, budget: Duration, trace: bool, size: Size) -> Outcome {
    let n = graph_size(workload, size);
    match workload {
        Workload::EngineChurn => run_with(RandomChurn::new, n, seed, budget, trace),
        _ => run_with(|s| RackPartition::new(s, RACK), n, seed, budget, trace),
    }
}

fn run_with<S: EventSource>(
    make: impl Fn(u64) -> S,
    n: usize,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let reference = Reference::default();
    let mut slices = Slices::new(SLICE, Some(reference.clone()), true);
    let (mut wall, mut allocs) = (Duration::ZERO, 0u64);
    let mut total = Fingerprint::default();
    let mut first: Option<Fingerprint> = None;
    let mut ledger = Ledger::default();
    let mut traced_wall = Duration::ZERO;
    let mut rt_total = 0u64;
    let mut episode = 0u64;
    while episode == 0 || wall < budget {
        let es = derive_seed(seed, episode);
        let t = Instant::now();
        let net = build(n, derive_seed(GRAPH_SEED, episode));
        setups.push((t.elapsed(), reference.slowdown()));
        let replica = trace.then(|| net.clone());
        let ep = run_untraced(net, make(es), &mut slices, &mut out);
        wall += ep.wall;
        allocs += ep.allocs;
        out.failed += ep.noops;
        total.events += ep.fp.events;
        total.rounds += ep.fp.rounds;
        total.deletions += ep.fp.deletions;
        total.messages += ep.fp.messages;
        if let Some(mut net) = replica {
            let t = Instant::now();
            let (fp, rt) = replay(&mut net, &mut Dash, &mut make(es), &mut ledger);
            traced_wall += t.elapsed();
            rt_total += rt;
            out.check("replay_fingerprint", fp == ep.fp, || {
                format!("episode {episode}: replay {fp:?} != engine {:?}", ep.fp)
            });
        }
        first.get_or_insert(ep.fp);
        episode += 1;
    }
    if !trace {
        // The same seed must give the same report: re-run episode 0.
        let net = build(n, derive_seed(GRAPH_SEED, 0));
        let mut unmeasured = Slices::new(SLICE, None, false);
        let again = run_untraced(net, make(derive_seed(seed, 0)), &mut unmeasured, &mut out);
        out.check("fingerprint_stable", Some(again.fp) == first, || {
            format!("episode 0 re-ran to {:?}, first run {first:?}", again.fp)
        });
    }
    out.attempted = total.events;

    out.set_medians(&setups, &slices.medians());
    let m = &mut out.metrics;
    m.set(
        "allocs_per_event",
        allocs as f64 / total.events.max(1) as f64,
    );
    let secs = wall.as_secs_f64().max(1e-9);
    if trace {
        m.set_layers(&ledger, traced_wall);
        let rounds = total.rounds.max(1) as f64;
        m.set("healer.rt_size", rt_total as f64 / rounds);
        m.set("state.propagate.messages", total.messages as f64 / rounds);
        m.set("trace.overhead", traced_wall.as_secs_f64() / secs - 1.0);
        let covered = ledger.total(&Boundary::ALL);
        m.set(
            "trace.coverage",
            covered.as_secs_f64() / traced_wall.as_secs_f64().max(1e-9),
        );
    }
    out
}
