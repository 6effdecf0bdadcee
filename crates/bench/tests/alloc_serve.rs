//! Zero-allocation guarantee for a steady-state multi-worker serve tick.
//!
//! Once the worker pool is running and every buffer has reached its
//! working size, a `Cluster::tick` performs no heap allocations on any
//! thread: the pool's wake and fan-in hand-offs reuse their channels,
//! each shard's engine reuses its scratch buffers, and each publish
//! refreshes a snapshot buffer in place (`StateSnapshot::update`, or
//! `capture` after a log overflow).
//!
//! Three tests:
//! - delete-only ticks allocate nothing at all;
//! - mixed delete, `delete-batch` and join ticks allocate only to grow
//!   per-node arrays for the slots joins add;
//! - the same mixed stream as protocol lines through
//!   `Cluster::handle_line`: event lines allocate nothing, and a `tick`
//!   line only its reply and that growth.
//!
//! The count is process-wide, because the pool's helper runs half the
//! shards, so these checks live in their own test binary and take a
//! lock: a test running alongside would pollute the counter.

use selfheal_bench::alloc::{total_allocations, CountingAlloc};
use selfheal_core::scenario::NetworkEvent;
use selfheal_core::spec::{AdversarySpec, AuditSpec, GraphSpec, HealerSpec, ScenarioSpec};
use selfheal_graph::NodeId;
use selfheal_serve::Cluster;
use std::sync::{Mutex, MutexGuard};
use std::vec::IntoIter;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by each test for its whole run: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A two-worker cluster serving DASH and SDASH on BA(`N`, 3), audit off.
fn two_tenant_cluster() -> (Cluster, Vec<ScenarioSpec>) {
    let mut cluster = Cluster::new(2);
    let mut specs = Vec::new();
    for (i, tenant) in TENANTS.iter().enumerate() {
        let healer = [HealerSpec::Dash, HealerSpec::Sdash][i];
        let graph = GraphSpec::BarabasiAlbert { n: N, m: 3 };
        let mut spec = ScenarioSpec::new(graph, healer, AdversarySpec::MaxNode, 20080124);
        spec.audit = AuditSpec::Off;
        cluster.add_spec(tenant, &spec).expect("servable spec");
        specs.push(spec);
    }
    (cluster, specs)
}

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
    let _serial = serial();
    let (cluster, specs) = two_tenant_cluster();
    let mut victims: Vec<_> = specs.iter().map(max_node_victims).collect();
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

/// `count` events for `tenant`, drawn from its published live set:
/// half joins (one in four of them bare), a quarter single deletes and
/// a quarter two-victim batches, so the population shrinks slowly.
fn mixed_events(cluster: &Cluster, tenant: &str, x: &mut u64, count: usize) -> Vec<NetworkEvent> {
    let reader = cluster.reader(tenant).expect("served tenant");
    let (_, live) = reader.read(|snap| snap.state.live_nodes().collect::<Vec<NodeId>>());
    let mut next = || {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 24
    };
    let mut pick = || live[(next() % live.len() as u64) as usize];
    (0..count)
        .map(|k| {
            let (a, b) = (pick(), pick());
            let two = if a == b { vec![a] } else { vec![a, b] };
            match k % 8 {
                0 => NetworkEvent::Join { neighbors: vec![] },
                1..=3 => NetworkEvent::Join { neighbors: two },
                4 | 5 => NetworkEvent::Delete(a),
                _ => NetworkEvent::DeleteBatch(two),
            }
        })
        .collect()
}

#[test]
fn steady_state_mixed_ticks_allocate_only_for_new_node_slots() {
    let _serial = serial();
    let (cluster, _) = two_tenant_cluster();
    let mut x = 0x5EED_u64;
    // One tick: build and submit the events outside the measured
    // region (a batch or join owns its `Vec`), then count every
    // allocation on every thread while the tick runs.
    let mut tick = || {
        for tenant in TENANTS {
            for event in mixed_events(&cluster, tenant, &mut x, PER_TICK) {
                cluster.submit(tenant, event).expect("valid event");
            }
        }
        let before = total_allocations();
        let (applied, skipped) = cluster.tick();
        let allocs = total_allocations() - before;
        assert_eq!(applied + skipped, 2 * PER_TICK as u64);
        (allocs, applied)
    };

    // Warm-up: 1024 events, as in `alloc.rs`'s churn test. The first
    // join doubles every per-node array once.
    let ticks_per_block = 4096 / (2 * PER_TICK);
    for _ in 0..1024 / (2 * PER_TICK) {
        tick();
    }

    // Steady state: three blocks of 4096 events. About 6700 slots per
    // tenant by the end, so the arrays never double again (at 8192); a
    // block may allocate a few times while amortized buffers converge,
    // but anything per event would cost thousands.
    for block_no in 0..3 {
        let (mut allocs, mut applied) = (0, 0);
        for _ in 0..ticks_per_block {
            let (a, n) = tick();
            allocs += a;
            applied += n;
        }
        assert!(
            applied > 4000,
            "block {block_no}: only {applied} of 4096 events applied"
        );
        assert!(
            allocs < 64,
            "block {block_no}: {allocs} allocation(s) during 4096 steady-state mixed events"
        );
    }
}

#[test]
fn steady_state_handle_line_allocates_only_for_tick_replies() {
    let _serial = serial();
    let (cluster, _) = two_tenant_cluster();
    let mut x = 0x11FE_u64;
    // Event lines per tenant per tick: 128 events a tick, as the
    // serve-ingest benchmark sends, so a block has 32 `tick` replies.
    const LINES: usize = 64;
    // One tick as protocol lines: render the event lines outside the
    // measured region, then count every allocation on every thread while
    // the event lines run, and again through the `tick` line.
    let mut tick = || {
        let mut lines = Vec::new();
        for tenant in TENANTS {
            for event in mixed_events(&cluster, tenant, &mut x, LINES) {
                lines.push(format!("{tenant} {event}"));
            }
        }
        let before = total_allocations();
        for line in &lines {
            assert!(cluster.handle_line(line).is_none(), "'{line}' was rejected");
        }
        let events = total_allocations() - before;
        let reply = cluster.handle_line("tick");
        let all = total_allocations() - before;
        let reply = reply.expect("a tick replies");
        let counts: Vec<u64> = reply
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        assert_eq!(counts.iter().sum::<u64>(), 2 * LINES as u64, "{reply}");
        (events, all, counts[0])
    };

    // Warm-up: 1024 events, as in the mixed `submit` test. The shard
    // queues reach their working size in the first tick.
    let ticks_per_block = 4096 / (2 * LINES);
    for _ in 0..1024 / (2 * LINES) {
        tick();
    }

    // Steady state: three blocks of 4096 events. Event lines must not
    // allocate at all. A block's 32 `tick` lines allocate their replies
    // and, now and then, a grown per-node array or buffer.
    for block_no in 0..3 {
        let (mut events, mut all, mut applied) = (0, 0, 0);
        for _ in 0..ticks_per_block {
            let (e, a, n) = tick();
            events += e;
            all += a;
            applied += n;
        }
        assert!(
            applied > 4000,
            "block {block_no}: only {applied} of 4096 events applied"
        );
        assert_eq!(
            events, 0,
            "block {block_no}: event lines allocated {events} time(s)"
        );
        assert!(
            all < 64,
            "block {block_no}: {all} allocation(s) during 4096 steady-state \
             events as lines, `tick` lines included"
        );
    }
}
