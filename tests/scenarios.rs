//! Property tests for the unified event-driven engine: arbitrary
//! interleavings of `Delete`, `DeleteBatch` and `Join` events — including
//! stale references to nodes that died earlier in the schedule — must
//! keep the paper's invariants (connectivity of survivors, `G'` forest,
//! the `δ ≤ 2 log₂ n` bound over nodes-ever-created, and weight
//! conservation) under both DASH and SDASH, after every single event.
//!
//! Schedules are generated blindly from a seeded RNG *without* tracking
//! liveness, which deliberately exercises the engine's sanitization: dead
//! victims become no-ops, dependent batches are thinned to independent
//! sets, and joins whose targets all died are skipped.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::attack::{CutVertex, EpidemicChurn, FlashCrowd, RackPartition};
use selfheal_core::dash::Dash;
use selfheal_core::distributed::HealMode;
use selfheal_core::distributed_runner::DistributedScenarioRunner;
use selfheal_core::invariants;
use selfheal_core::scenario::{
    AuditLevel, EventRecord, EventSource, NetworkEvent, ScenarioEngine, ScriptedEvents,
};
use selfheal_core::sdash::Sdash;
use selfheal_core::state::HealingNetwork;
use selfheal_core::strategy::Healer;
use selfheal_graph::components::is_connected;
use selfheal_graph::forest::is_forest;
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::NodeId;
use selfheal_sim::SplitMix64;

/// Build a blind random schedule: ids are drawn from the range of nodes
/// that *could* exist by that point (initial + joins so far), whether or
/// not they are still alive.
fn random_schedule(n: usize, events: usize, seed: u64) -> Vec<NetworkEvent> {
    let mut rng = SplitMix64::new(seed);
    let mut created = n as u64;
    let mut schedule = Vec::with_capacity(events);
    for _ in 0..events {
        let any_node = |rng: &mut SplitMix64, created: u64| NodeId(rng.gen_range(created) as u32);
        match rng.gen_range(6) {
            0..=2 => schedule.push(NetworkEvent::Delete(any_node(&mut rng, created))),
            3 | 4 => {
                let k = 2 + rng.gen_range(5) as usize;
                let victims = (0..k).map(|_| any_node(&mut rng, created)).collect();
                schedule.push(NetworkEvent::DeleteBatch(victims));
            }
            _ => {
                let k = 1 + rng.gen_range(3) as usize;
                let neighbors = (0..k).map(|_| any_node(&mut rng, created)).collect();
                schedule.push(NetworkEvent::Join { neighbors });
                created += 1;
            }
        }
    }
    schedule
}

fn check_schedule<H: Healer>(healer: H, n: usize, events: usize, seed: u64) -> Result<(), String> {
    let g = barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
    let net = HealingNetwork::new(g, seed);
    let schedule = random_schedule(n, events, seed ^ 0x5EED);
    let mut engine = ScenarioEngine::new(net, healer, ScriptedEvents::new(schedule));
    let mut failure: Option<String> = None;
    let mut audit = |net: &HealingNetwork, rec: &EventRecord| {
        if failure.is_some() {
            return;
        }
        if !is_connected(net.graph()) {
            failure = Some(format!("event {}: survivors disconnected", rec.event));
        } else if !is_forest(net.healing_graph()) {
            failure = Some(format!("event {}: G' is not a forest", rec.event));
        } else if !invariants::weight_conservation_ok(net) {
            failure = Some(format!("event {}: weight leaked", rec.event));
        } else {
            let bound = 2.0 * (net.total_created() as f64).log2();
            let max_delta = net.max_delta_alive();
            if (max_delta as f64) > bound {
                failure = Some(format!(
                    "event {}: delta {max_delta} exceeds 2 log2 n = {bound}",
                    rec.event
                ));
            }
        }
    };
    let report = engine.run_to_empty_with(&mut audit);
    if let Some(f) = failure {
        return Err(f);
    }
    // Node conservation: everything ever created is either deleted or live.
    let live = engine.net.graph().live_node_count() as u64;
    if report.deletions + live != engine.net.total_created() as u64 {
        return Err(format!(
            "node conservation broke: {} deleted + {live} live != {} created",
            report.deletions,
            engine.net.total_created()
        ));
    }
    Ok(())
}

/// Distributed-vs-centralized parity on a blind random schedule: the
/// real message-passing protocol (batch kills with interleaved
/// notifications, joins, quiescence-barrier healing) must reproduce the
/// engine's topology, healing forest, component IDs and message counts
/// exactly. The curated-schedule version of this check lives in
/// `tests/distributed_parity.rs`; this one fuzzes the schedule space.
fn check_distributed_parity<H: Healer>(
    healer: H,
    mode: HealMode,
    n: usize,
    events: usize,
    seed: u64,
) -> Result<(), String> {
    let g = barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
    let schedule = random_schedule(n, events, seed ^ 0xD157);
    let net = HealingNetwork::new(g.clone(), seed);
    let mut engine = ScenarioEngine::new(net, healer, ScriptedEvents::new(schedule.clone()));
    let mut runner = DistributedScenarioRunner::with_mode(mode, &g, seed);
    for event in &schedule {
        let central = engine.step().expect("schedule not exhausted");
        let dist = runner.apply(event);
        common::compare_event(&central, &dist)?;
    }
    common::compare_final_state(&engine.net, &runner)
}

/// Drive one of the structural adversaries against a healer under the
/// engine's Theorem 1 audit — the library sources generate their own
/// schedules against the evolving network, so this fuzzes the adversary
/// logic itself, not just blind event lists.
fn check_adversary_source<H: Healer, S: EventSource>(
    healer: H,
    mut source: S,
    n: usize,
    max_events: usize,
    seed: u64,
) -> Result<(), String> {
    let g = barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
    let mut engine = ScenarioEngine::new(
        HealingNetwork::new(g, seed),
        healer,
        ScriptedEvents::default(),
    )
    .with_audit(AuditLevel::Theorems);
    for _ in 0..max_events {
        let Some(event) = source.next_event(&engine.net) else {
            break;
        };
        engine.apply(event);
    }
    let report = engine.finish();
    if !report.violations.is_empty() {
        return Err(format!("{}: {:?}", source.name(), report.violations));
    }
    Ok(())
}

/// Distributed-vs-centralized parity with a *live* event source: the
/// source consults the engine's evolving state, each event is applied to
/// both sides in lockstep, and the shared comparator enforces the same
/// byte-identity as the curated and blind-schedule parity suites.
fn check_source_parity<H: Healer, S: EventSource>(
    healer: H,
    mode: HealMode,
    mut source: S,
    n: usize,
    max_events: usize,
    seed: u64,
) -> Result<(), String> {
    let g = barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
    let mut runner = DistributedScenarioRunner::with_mode(mode, &g, seed);
    let mut engine = ScenarioEngine::new(
        HealingNetwork::new(g, seed),
        healer,
        ScriptedEvents::default(),
    );
    for _ in 0..max_events {
        let Some(event) = source.next_event(&engine.net) else {
            break;
        };
        let central = engine.apply(event.clone());
        let dist = runner.apply(&event);
        common::compare_event(&central, &dist)?;
    }
    common::compare_final_state(&engine.net, &runner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DASH holds every invariant for every interleaving.
    #[test]
    fn dash_survives_mixed_event_schedules(
        n in 8usize..40,
        events in 10usize..80,
        seed in 0u64..10_000,
    ) {
        let result = check_schedule(Dash, n, events, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// SDASH (surrogation) holds the same invariants.
    #[test]
    fn sdash_survives_mixed_event_schedules(
        n in 8usize..40,
        events in 10usize..80,
        seed in 0u64..10_000,
    ) {
        let result = check_schedule(Sdash, n, events, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// The distributed protocol reproduces the engine exactly on random
    /// mixed schedules under DASH.
    #[test]
    fn dash_distributed_parity_on_mixed_schedules(
        n in 8usize..32,
        events in 10usize..60,
        seed in 0u64..10_000,
    ) {
        let result = check_distributed_parity(Dash, HealMode::Dash, n, events, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// Same parity under SDASH (surrogation under interleaved batches).
    #[test]
    fn sdash_distributed_parity_on_mixed_schedules(
        n in 8usize..32,
        events in 10usize..60,
        seed in 0u64..10_000,
    ) {
        let result = check_distributed_parity(Sdash, HealMode::Sdash, n, events, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// Epidemic churn keeps Theorem 1 under both healers (the failure
    /// front clusters in already-damaged regions — the hardest locality
    /// pattern for the degree bound).
    #[test]
    fn epidemic_churn_keeps_theorem1(
        n in 8usize..40,
        seed in 0u64..10_000,
        p in 0u64..=100,
    ) {
        let source = EpidemicChurn::new(seed, p as f64 / 100.0);
        let result = check_adversary_source(Dash, source, n, 200, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
        let source = EpidemicChurn::new(seed, p as f64 / 100.0);
        let result = check_adversary_source(Sdash, source, n, 200, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// Flash crowds (join bursts onto the hub + hub failures) keep
    /// Theorem 1 with n read as nodes-ever-created.
    #[test]
    fn flash_crowd_keeps_theorem1(
        n in 8usize..40,
        seed in 0u64..10_000,
        joins in 1usize..24,
        burst in 1usize..6,
    ) {
        let source = FlashCrowd::new(seed, joins, burst);
        let result = check_adversary_source(Dash, source, n, 300, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// Rack-batch partitions keep Theorem 1 (the auditor waives only the
    /// forest claim, which the paper makes for sequential deletions).
    #[test]
    fn rack_partition_keeps_theorem1(
        n in 8usize..40,
        seed in 0u64..10_000,
        rack in 2usize..8,
    ) {
        let source = RackPartition::new(seed, rack);
        let result = check_adversary_source(Dash, source, n, 200, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
        let source = RackPartition::new(seed, rack);
        let result = check_adversary_source(Sdash, source, n, 200, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// Cut-vertex targeting keeps Theorem 1 (every deletion would
    /// disconnect the graph if healing failed to respond).
    #[test]
    fn cut_vertex_keeps_theorem1(n in 8usize..40, seed in 0u64..10_000) {
        let result = check_adversary_source(Dash, CutVertex, n, 200, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// Distributed parity on live cut-vertex schedules: the most
    /// structurally damaging single-victim adversary, reproduced
    /// byte-for-byte by the fabric.
    #[test]
    fn cut_vertex_distributed_parity(n in 8usize..28, seed in 0u64..10_000) {
        let result = check_source_parity(Dash, HealMode::Dash, CutVertex, n, 100, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// Distributed parity on live epidemic schedules, under both heal
    /// modes (the satellite's shared-comparator requirement).
    #[test]
    fn epidemic_distributed_parity(
        n in 8usize..28,
        seed in 0u64..10_000,
        p in 0u64..=100,
    ) {
        let source = EpidemicChurn::new(seed, p as f64 / 100.0);
        let result = check_source_parity(Dash, HealMode::Dash, source, n, 100, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
        let source = EpidemicChurn::new(seed, p as f64 / 100.0);
        let result = check_source_parity(Sdash, HealMode::Sdash, source, n, 100, seed);
        prop_assert!(result.is_ok(), "{:?}", result);
    }

    /// Replaying the same schedule twice is bit-for-bit reproducible.
    #[test]
    fn mixed_schedules_are_reproducible(n in 8usize..32, seed in 0u64..5_000) {
        let run = || {
            let g = barabasi_albert(n, 2, &mut StdRng::seed_from_u64(seed));
            let net = HealingNetwork::new(g, seed);
            let schedule = random_schedule(n, 40, seed);
            let mut engine = ScenarioEngine::new(net, Dash, ScriptedEvents::new(schedule));
            let r = engine.run_to_empty();
            (r.events, r.rounds, r.deletions, r.joins, r.total_messages, r.total_edges_added)
        };
        prop_assert_eq!(run(), run());
    }
}
