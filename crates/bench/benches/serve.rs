//! Serving-layer throughput: snapshot reads under publish churn (the
//! claim of `serve::snapshot` — queries never wait on a heal), the
//! per-tick state capture every publish performs, plus end-to-end
//! cluster ticking with two tenant shards.
//!
//! Every benchmark asserts its structural expectations (no torn pairs,
//! exact per-tick event accounting), so `make bench` doubles as a smoke
//! gate for the serving crate.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::dash::Dash;
use selfheal_core::scenario::{NetworkEvent, RandomChurn, ScenarioEngine};
use selfheal_core::snapshot::StateSnapshot;
use selfheal_core::spec::ScenarioSpec;
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators::barabasi_albert;
use selfheal_serve::{slot_pair, Cluster};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// One `StateSnapshot::capture` of a BA(10000,3) network after 2000
/// random-churn events (deletes and joins, so component ids are mixed
/// and the slot range exceeds the initial n) — the work every shard
/// publish does per tick. The network is built outside the timed loop.
fn bench_snapshot_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    let g = barabasi_albert(10_000, 3, &mut StdRng::seed_from_u64(20080124));
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
    let mut snap = StateSnapshot::default();
    snap.capture(&engine.net);
    let total: usize = snap.components.iter().map(|&(_, n)| n).sum();
    assert_eq!(total, snap.live_count(), "every live node counted once");
    group.bench_function("snapshot_capture_ba10k", |b| {
        b.iter(|| {
            snap.capture(black_box(&engine.net));
            black_box(snap.components.len())
        })
    });
    group.finish();
}

const CHURN_SPEC: &str = include_str!("../../../specs/random_churn.scn");
const EPIDEMIC_SPEC: &str = include_str!("../../../specs/epidemic_sdash.scn");

fn served_spec(text: &str) -> ScenarioSpec {
    let spec = ScenarioSpec::parse(text).expect("checked-in spec parses");
    spec.validate().expect("checked-in spec validates");
    spec
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
                let (_, live) = reader.read(|snap| snap.state.live.clone());
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
    bench_cluster_tick
);
criterion_main!(benches);
