//! Zero-allocation guarantee for a steady-state multi-worker serve tick.
//!
//! Once the worker pool is running and every buffer has reached its
//! working size, a `Cluster::tick` performs no heap allocations on any
//! thread: the pool's wake and fan-in hand-offs reuse their channels,
//! each shard's engine reuses its scratch buffers, and each publish
//! refills a snapshot buffer in place (`StateSnapshot::capture`).
//!
//! The count is process-wide, because the pool's helper runs half the
//! shards, so this check lives in its own test binary: another test
//! running alongside would pollute the counter.

use selfheal_bench::alloc::{total_allocations, CountingAlloc};
use selfheal_core::scenario::NetworkEvent;
use selfheal_core::spec::{AdversarySpec, AuditSpec, GraphSpec, HealerSpec, ScenarioSpec};
use selfheal_serve::Cluster;
use std::vec::IntoIter;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 4096;
const TENANTS: [&str; 2] = ["dash", "sdash"];
/// Deletes per tenant per tick.
const PER_TICK: usize = 8;

/// The victims a max-degree adversary picks on `spec`'s network, in
/// order: the served stream deletes hubs first, as the engine's own
/// zero-allocation test does, so scratch buffers peak early.
fn max_node_victims(spec: &ScenarioSpec) -> IntoIter<NetworkEvent> {
    let mut engine = spec.build_engine().expect("buildable spec");
    let mut victims = Vec::new();
    while let Some(record) = engine.step() {
        victims.extend(record.deleted.map(NetworkEvent::Delete));
    }
    victims.into_iter()
}

#[test]
fn steady_state_two_worker_tick_allocates_nothing() {
    let mut cluster = Cluster::new(2);
    let mut victims = Vec::new();
    for (i, tenant) in TENANTS.iter().enumerate() {
        let healer = [HealerSpec::Dash, HealerSpec::Sdash][i];
        let graph = GraphSpec::BarabasiAlbert { n: N, m: 3 };
        let mut spec = ScenarioSpec::new(graph, healer, AdversarySpec::MaxNode, 20080124);
        spec.audit = AuditSpec::Off;
        cluster.add_spec(tenant, &spec).expect("servable spec");
        victims.push(max_node_victims(&spec));
    }
    // One tick: submit outside the measured region, then count every
    // allocation on every thread while the tick runs.
    let tick = |victims: &mut [IntoIter<NetworkEvent>]| {
        for (tenant, v) in TENANTS.iter().zip(victims.iter_mut()) {
            for event in v.take(PER_TICK) {
                cluster.submit(tenant, event).expect("live victim");
            }
        }
        let before = total_allocations();
        let (applied, skipped) = cluster.tick();
        let allocs = total_allocations() - before;
        assert_eq!((applied, skipped), (2 * PER_TICK as u64, 0));
        allocs
    };

    // Warm-up: the first tick starts the pool's helper, and the engines'
    // scratch buffers and the chunk arena grow to their working size
    // (1280 events per tenant, as in `alloc.rs`).
    let warmup_ticks = 160;
    let warmup: u64 = (0..warmup_ticks).map(|_| tick(&mut victims)).sum();
    assert!(
        warmup < warmup_ticks * 4,
        "warm-up allocated {warmup} times over {warmup_ticks} ticks — growth \
         is supposed to be amortized"
    );

    // Steady state: whole blocks of ticks must not allocate at all.
    let mut block_no = 0;
    while victims.iter().all(|v| v.len() >= 16 * PER_TICK) {
        let allocs: u64 = (0..16).map(|_| tick(&mut victims)).sum();
        assert_eq!(
            allocs, 0,
            "block {block_no} of 16 ticks allocated {allocs} times"
        );
        block_no += 1;
    }
    assert!(block_no >= 8, "the steady state ran {block_no} blocks");
}
