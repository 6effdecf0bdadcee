//! Delta publishing equals full capture: after every tick, each tenant's
//! published `StateSnapshot` (brought up to date from the touched-slot
//! logs of the last two publishes) must equal a full `capture` of an
//! engine fed the same events directly.
//!
//! The stream covers every path a publish can take: skipped events
//! (dead victims), empty ticks, a reader holding a snapshot across
//! publishes (so the writer has to copy the spare rather than refill
//! it), and a tiny graph whose log overflows (so the publish falls back
//! to a full capture).

use selfheal_core::scenario::NetworkEvent;
use selfheal_core::snapshot::StateSnapshot;
use selfheal_core::spec::{AdversarySpec, DynScenarioEngine, GraphSpec, HealerSpec, ScenarioSpec};
use selfheal_core::state::HealingNetwork;
use selfheal_graph::NodeId;
use selfheal_serve::Cluster;

const CHURN_SPEC: &str = include_str!("../../../specs/random_churn.scn");
const EPIDEMIC_SPEC: &str = include_str!("../../../specs/epidemic_sdash.scn");

/// One served tenant and the engine it is checked against.
struct Twin {
    tenant: &'static str,
    engine: DynScenarioEngine,
    /// Events submitted since the last tick.
    queued: Vec<NetworkEvent>,
    /// Nodes this stream deleted, for stale (skipped) victims.
    dead: Vec<NodeId>,
}

fn tenants() -> Vec<(&'static str, ScenarioSpec)> {
    let parsed = |text: &str| ScenarioSpec::parse(text).expect("checked-in spec parses");
    let built =
        |graph, healer, seed| ScenarioSpec::new(graph, healer, AdversarySpec::MaxNode, seed);
    vec![
        ("churn", parsed(CHURN_SPEC)),
        ("epidemic", parsed(EPIDEMIC_SPEC)),
        // Large enough that a tick's log never overflows: the delta path.
        (
            "ba400",
            built(
                GraphSpec::BarabasiAlbert { n: 400, m: 3 },
                HealerSpec::Dash,
                5,
            ),
        ),
        // Six log slots: deleting the hub overflows them at once, and so
        // do most later ticks. The full-capture fallback.
        (
            "star",
            built(GraphSpec::Star { n: 6 }, HealerSpec::Sdash, 6),
        ),
    ]
}

/// The shard's skip rule: a dead victim, an all-dead batch, or a join
/// whose non-empty target list is all dead makes no progress.
fn would_progress(net: &HealingNetwork, event: &NetworkEvent) -> bool {
    match event {
        NetworkEvent::Delete(v) => net.is_alive(*v),
        NetworkEvent::DeleteBatch(vs) => vs.iter().any(|&v| net.is_alive(v)),
        NetworkEvent::Join { neighbors } => {
            neighbors.is_empty() || neighbors.iter().any(|&v| net.is_alive(v))
        }
    }
}

/// Queue up to eight events for `twin` on `cluster`, drawn from the
/// published live set (and, for skips, from nodes already deleted).
fn submit_events(cluster: &Cluster, twin: &mut Twin, x: &mut u64) {
    let reader = cluster.reader(twin.tenant).expect("served tenant");
    let (_, live) = reader.read(|snap| snap.state.live_nodes().collect::<Vec<_>>());
    let mut next = || {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 24
    };
    for _ in 0..next() % 9 {
        let kind = next() % 6;
        let mut pick = || live[(next() % live.len() as u64) as usize];
        let mut two = || {
            let (a, b) = (pick(), pick());
            if a == b {
                vec![a]
            } else {
                vec![a, b]
            }
        };
        let event = match kind {
            _ if live.is_empty() => NetworkEvent::Join { neighbors: vec![] },
            0 | 1 => NetworkEvent::Delete(two()[0]),
            2 => NetworkEvent::DeleteBatch(two()),
            3 => NetworkEvent::Join { neighbors: two() },
            4 => NetworkEvent::Join { neighbors: vec![] },
            _ => match twin.dead.last() {
                Some(&v) => NetworkEvent::Delete(v),
                None => NetworkEvent::Delete(two()[0]),
            },
        };
        if let NetworkEvent::Delete(v) = event {
            twin.dead.push(v);
        }
        cluster
            .submit(twin.tenant, event.clone())
            .expect("valid event");
        twin.queued.push(event);
    }
}

/// Apply what each twin queued, then compare every tenant's published
/// state with a fresh capture of its twin.
fn check(cluster: &Cluster, twins: &mut [Twin], fresh: &mut StateSnapshot, at: &str) {
    for twin in twins.iter_mut() {
        for event in twin.queued.drain(..) {
            if would_progress(&twin.engine.net, &event) {
                twin.engine.apply(event);
            }
        }
        fresh.capture(&twin.engine.net);
        let reader = cluster.reader(twin.tenant).expect("served tenant");
        let (_, served) = reader.get();
        assert_eq!(served.state, *fresh, "tenant {}, {at}", twin.tenant);
        assert!(
            served
                .state
                .live_nodes()
                .eq(twin.engine.net.graph().live_nodes()),
            "tenant {}, {at}: live set",
            twin.tenant
        );
    }
}

fn delta_publishes_match_a_direct_replay(threads: usize) {
    let mut cluster = Cluster::new(threads);
    let mut twins: Vec<Twin> = tenants()
        .into_iter()
        .map(|(tenant, spec)| {
            cluster.add_spec(tenant, &spec).expect("servable spec");
            Twin {
                tenant,
                engine: spec.build_engine().expect("buildable spec"),
                queued: Vec::new(),
                dead: Vec::new(),
            }
        })
        .collect();
    let mut fresh = StateSnapshot::default();
    let mut x = 0x5EED_u64;
    let mut held_across = 0;
    for round in 0..120 {
        // Every eighth round is an empty tick for every tenant.
        if round % 8 != 7 {
            for twin in &mut twins {
                submit_events(&cluster, twin, &mut x);
            }
        }
        if round % 16 == 3 {
            // Hold the published snapshot across three publishes. The
            // second one's spare is this very snapshot, so the writer
            // must copy it rather than refill it in place.
            let reader = cluster.reader("ba400").expect("served tenant");
            let (_, kept) = reader.read(|held| {
                let before = held.clone();
                for k in 0..3 {
                    cluster.tick();
                    check(
                        &cluster,
                        &mut twins,
                        &mut fresh,
                        &format!("round {round}, held tick {k}"),
                    );
                    for twin in &mut twins {
                        submit_events(&cluster, twin, &mut x);
                    }
                }
                assert_eq!(
                    held.state, before.state,
                    "a held snapshot changed under its reader"
                );
                held.state.live_count()
            });
            assert!(kept > 0);
            held_across += 1;
        }
        cluster.tick();
        check(&cluster, &mut twins, &mut fresh, &format!("round {round}"));
    }
    assert!(held_across >= 4);
    let report = cluster.finish();
    assert!(report.contains("skipped"), "{report}");
    let skipped: u64 = report
        .lines()
        .filter_map(|l| l.split("skipped ").nth(1))
        .filter_map(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    assert!(skipped > 0, "the stream skipped no event:\n{report}");
}

#[test]
fn delta_publishes_match_a_direct_replay_one_worker() {
    delta_publishes_match_a_direct_replay(1);
}

#[test]
fn delta_publishes_match_a_direct_replay_two_workers() {
    delta_publishes_match_a_direct_replay(2);
}
