//! Serving-layer throughput: snapshot reads under publish churn (the
//! claim of `serve::snapshot` — queries never wait on a heal), the
//! delta update every publish performs next to the full capture it
//! falls back to, one event line through `Cluster::handle_line` with
//! its allocations per line, plus end-to-end cluster ticking with two
//! tenant shards.
//!
//! Every benchmark asserts its structural expectations (no torn pairs,
//! exact per-tick event accounting), so `make bench` doubles as a smoke
//! gate for the serving crate.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bench::alloc::{thread_allocations, CountingAlloc};
use selfheal_core::dash::Dash;
use selfheal_core::scenario::{NetworkEvent, RandomChurn, ScenarioEngine};
use selfheal_core::snapshot::StateSnapshot;
use selfheal_core::spec::ScenarioSpec;
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::NodeId;
use selfheal_serve::{slot_pair, Cluster};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Snapshot-read cost while a publisher churns as fast as it can. The
/// assert catches torn reads, so this is also a stress test of the
/// slot.
fn bench_snapshot_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    let (mut writer, reader) = slot_pair((0u64, 0u64), (0u64, 0u64));
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let publisher = std::thread::spawn(move || {
        let mut i = 0u64;
        while !flag.load(Ordering::Acquire) {
            i += 1;
            writer.publish(|buf| *buf = (i, i));
        }
    });
    group.bench_function("snapshot_read_under_churn", |b| {
        b.iter(|| {
            let (epoch, (x, y)) = reader.read(|pair| *pair);
            assert_eq!(x, y, "torn read at epoch {epoch}");
            black_box(epoch)
        })
    });
    stop.store(true, Ordering::Release);
    let _ = publisher.join();

    group.finish();
}

/// A BA(`n`,3) network after 2000 random-churn events (deletes and
/// joins, so component ids are mixed and the slot range exceeds the
/// initial n). Built outside every timed loop.
fn churned_engine(n: usize) -> ScenarioEngine<Dash, RandomChurn> {
    let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(20080124));
    let mut engine = ScenarioEngine::new(
        HealingNetwork::new(g, 20080124),
        Dash,
        RandomChurn::new(20080124),
    );
    assert_eq!(
        engine.run_events(2000).events,
        2000,
        "churn prefix ran in full"
    );
    engine
}

/// One full `StateSnapshot::capture`: the fallback publish, linear in
/// the slot count. At 10⁴ and 10⁵ nodes.
fn bench_snapshot_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    for (n, name) in [
        (10_000, "snapshot_capture_ba10k"),
        (100_000, "snapshot_capture_ba100k"),
    ] {
        let engine = churned_engine(n);
        let mut snap = StateSnapshot::default();
        snap.capture(&engine.net);
        let total: usize = snap.components.iter().map(|(_, n)| n).sum();
        assert_eq!(total, snap.live_count(), "every live node counted once");
        group.bench_function(name, |b| {
            b.iter(|| {
                snap.capture(black_box(&engine.net));
                black_box(snap.components.len())
            })
        });
    }
    group.finish();
}

/// What a serving shard keeps between publishes: two snapshots that
/// alternate, the last two touched-slot logs, and the engine.
struct Publisher {
    engine: ScenarioEngine<Dash, RandomChurn>,
    snaps: [StateSnapshot; 2],
    logs: [Vec<NodeId>; 2],
    publishes: usize,
    salt: u64,
}

impl Publisher {
    /// One 32-event tick, then drain the log as a publish would. The
    /// tick alternates deletes of uniformly drawn live nodes with joins
    /// to a uniformly drawn node and up to two of its neighbors (a
    /// degree-biased pick, as preferential attachment makes), so the
    /// population and its degree mix hold steady however long the
    /// bench runs.
    fn tick(&mut self) {
        for k in 0..32 {
            self.salt = self
                .salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let g = self.engine.net.graph();
            let r = (self.salt >> 24) as usize;
            let a = g
                .nth_live(r % g.live_node_count())
                .expect("r is reduced below the live count");
            let event = if k % 2 == 0 {
                NetworkEvent::Delete(a)
            } else {
                let mut neighbors = vec![a];
                let adj = g.neighbors(a);
                for i in [r >> 20, r >> 30] {
                    if let Some(&u) = adj.get(i % adj.len().max(1)) {
                        if !neighbors.contains(&u) {
                            neighbors.push(u);
                        }
                    }
                }
                NetworkEvent::Join { neighbors }
            };
            self.engine.apply(event);
        }
        self.logs.swap(0, 1);
        let complete = self.engine.net.take_touched(&mut self.logs[1]);
        assert!(complete, "a 32-event tick overflowed the log");
    }

    /// Bring the snapshot two publishes old up to date from the last
    /// two logs.
    fn publish(&mut self) -> usize {
        let snap = &mut self.snaps[self.publishes % 2];
        snap.update(&self.engine.net, [&self.logs[0], &self.logs[1]]);
        self.publishes += 1;
        snap.components.len()
    }
}

/// One `StateSnapshot::update` as a shard publish runs it: replay the
/// last two 32-event ticks of churn onto the snapshot published two
/// ticks ago. The ticks themselves run untimed. The cost tracks the
/// slots the ticks touched, a few hundred at either size, not n: from
/// 10⁴ to 10⁵ nodes only the cost per slot rises, as the larger
/// snapshot falls out of cache, where `snapshot_capture_*` grows
/// tenfold.
fn bench_snapshot_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    for (n, name) in [
        (10_000, "snapshot_update_ba10k"),
        (100_000, "snapshot_update_ba100k"),
    ] {
        let mut engine = churned_engine(n);
        let mut snaps = [StateSnapshot::default(), StateSnapshot::default()];
        snaps[0].capture(&engine.net);
        snaps[1].capture(&engine.net);
        // Both snapshots hold the state after the prefix: start the log
        // there.
        let mut logs = [Vec::new(), Vec::new()];
        engine.net.take_touched(&mut logs[1]);
        logs[1].clear();
        let publisher = RefCell::new(Publisher {
            engine,
            snaps,
            logs,
            publishes: 0,
            salt: 0x5EED,
        });
        group.bench_function(name, |b| {
            b.iter_with_setup(
                || publisher.borrow_mut().tick(),
                |()| publisher.borrow_mut().publish(),
            )
        });
        // Structural check: the delta-built snapshot is the full one.
        let mut p = publisher.into_inner();
        p.tick();
        p.publish();
        let mut fresh = StateSnapshot::default();
        fresh.capture(&p.engine.net);
        assert_eq!(
            p.snaps[(p.publishes - 1) % 2],
            fresh,
            "update equals capture"
        );
    }
    group.finish();
}

const CHURN_SPEC: &str = include_str!("../../../specs/random_churn.scn");
const EPIDEMIC_SPEC: &str = include_str!("../../../specs/epidemic_sdash.scn");

fn served_spec(text: &str) -> ScenarioSpec {
    let spec = ScenarioSpec::parse(text).expect("checked-in spec parses");
    spec.validate().expect("checked-in spec validates");
    spec
}

/// Lines between the untimed ticks that drain the queue.
const LINES_PER_TICK: usize = 64;

/// One event line through `Cluster::handle_line`: split, tenant lookup,
/// parse into the shard's queue and validation. The queue is drained by
/// a tick every 64 lines, outside the timed region. The `delete` victim
/// and the join's targets are deleted before timing starts, so those
/// ticks skip every event and the network keeps its size. Each row is
/// followed by the allocations per line on this thread, ticks excluded.
fn bench_handle_line(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    let mut cluster = Cluster::new(1);
    cluster
        .add_spec("churn", &served_spec(CHURN_SPEC))
        .expect("servable spec");
    assert_eq!(cluster.handle_line("churn delete-batch 5 21 40"), None);
    cluster.tick();
    for (name, line) in [
        ("handle_line_delete", "churn delete 5"),
        ("handle_line_join", "churn join 5 21 40"),
    ] {
        let drain = || {
            if cluster.pending() == LINES_PER_TICK {
                assert_eq!(cluster.tick(), (0, LINES_PER_TICK as u64));
            }
        };
        group.bench_function(name, |b| {
            b.iter_with_setup(drain, |()| cluster.handle_line(black_box(line)))
        });
        cluster.run_to_quiescence();
        let lines = 64 * LINES_PER_TICK;
        let mut allocs = 0;
        for _ in 0..lines {
            let before = thread_allocations();
            assert_eq!(cluster.handle_line(line), None);
            allocs += thread_allocations() - before;
            drain();
        }
        println!(
            "  {name:<40} allocs/line {:.3}",
            allocs as f64 / lines as f64
        );
    }
    group.finish();
}

/// End-to-end cluster ticking: 64 events per tenant per tick (an even
/// delete/join mix drawn from the published live set, so the networks
/// stay in a stable population band across iterations).
fn bench_cluster_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    let mut cluster = Cluster::new(2);
    cluster
        .add_spec("churn", &served_spec(CHURN_SPEC))
        .expect("servable spec");
    cluster
        .add_spec("epidemic", &served_spec(EPIDEMIC_SPEC))
        .expect("servable spec");
    let mut salt = 0x5EED_u64;
    group.bench_function("two_tenant_tick_128_events", |b| {
        b.iter(|| {
            for tenant in ["churn", "epidemic"] {
                let reader = cluster.reader(tenant).expect("served tenant");
                let (_, live) = reader.read(|snap| snap.state.live_nodes().collect::<Vec<_>>());
                for k in 0..64usize {
                    salt = salt
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let pick = live[(salt % live.len() as u64) as usize];
                    let event = if k % 2 == 0 {
                        NetworkEvent::Delete(pick)
                    } else {
                        NetworkEvent::Join {
                            neighbors: vec![pick],
                        }
                    };
                    cluster.submit(tenant, event).expect("valid event");
                }
            }
            let (applied, skipped) = cluster.tick();
            assert_eq!(applied + skipped, 128, "every submitted event accounted");
            black_box(applied)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_snapshot_reads,
    bench_snapshot_capture,
    bench_snapshot_update,
    bench_handle_line,
    bench_cluster_tick
);
criterion_main!(benches);
