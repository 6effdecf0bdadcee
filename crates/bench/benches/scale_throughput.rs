//! Large-n healing throughput over the pooled-adjacency store.
//!
//! This target is the recorded perf trajectory's anchor (exported into
//! `BENCH_<pr>.json` by `make bench-baseline`): full DASH sweeps at
//! n ∈ {4096, 16384}, plus microbenches isolating the three structures
//! the million-node experiment leans on — chunk-pool edge churn,
//! degree-bucket extreme queries, and live-rank sampling over the
//! liveness bitmap (a Fenwick tree over 512-slot block counts, then a
//! popcount inside one block).
//!
//! Every benchmark asserts its structural expectations, so the target
//! also runs under `make bench-check` as a smoke gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::attack::MaxNode;
use selfheal_core::dash::Dash;
use selfheal_core::scenario::ScenarioEngine;
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::NodeId;
use std::hint::black_box;

fn bench_heal_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_throughput");
    group.sample_size(10);
    for n in [4096usize, 16384] {
        group.bench_with_input(BenchmarkId::new("dash_full_sweep", n), &n, |b, &n| {
            b.iter_with_setup(
                || {
                    let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(20080124));
                    HealingNetwork::new(g, 20080124)
                },
                |net| {
                    let mut engine = ScenarioEngine::new(net, Dash, MaxNode);
                    let report = engine.run_to_empty();
                    assert_eq!(report.rounds, n as u64, "sweep must heal to empty");
                    black_box(report.total_messages)
                },
            );
        });
    }
    group.finish();
}

/// Edge churn straight on the pooled store: remove and re-insert every
/// edge of a BA graph. Chunk frees and reuses dominate; no arena growth
/// happens after the first pass, so this times the free-list hot path.
fn bench_edge_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_throughput");
    group.sample_size(10);
    let n = 16384usize;
    let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(5));
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.lo(), e.hi())).collect();
    let mut g = g;
    let expected = edges.len();
    group.bench_function(BenchmarkId::new("edge_churn", n), |b| {
        b.iter(|| {
            for &(u, v) in &edges {
                g.remove_edge(u, v).expect("edge present before churn");
            }
            assert_eq!(g.edge_count(), 0);
            for &(u, v) in &edges {
                g.add_edge(u, v).expect("edge absent after removal");
            }
            assert_eq!(g.edge_count(), expected);
            black_box(g.degree_sum())
        });
    });
    group.finish();
}

/// Degree extremes and live-rank sampling under deletions — the two
/// former O(n)-per-event scans, now a bucket-hint repair and a bitmap
/// select. Every 1,024th sample is checked against a scan of the live
/// list.
fn bench_queries_under_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_throughput");
    group.sample_size(10);
    let n = 16384usize;

    group.bench_function(BenchmarkId::new("degree_extremes", n), |b| {
        b.iter_with_setup(
            || barabasi_albert(n, 3, &mut StdRng::seed_from_u64(9)),
            |mut g| {
                let mut acc = 0u64;
                while g.live_node_count() > 1 {
                    let hi = g.max_degree_node().unwrap();
                    let lo = g.min_degree_node().unwrap();
                    assert!(g.degree(hi) >= g.degree(lo));
                    acc += hi.0 as u64 + lo.0 as u64;
                    g.remove_node(hi).unwrap();
                }
                black_box(acc)
            },
        );
    });

    group.bench_function(BenchmarkId::new("nth_live_sampling", n), |b| {
        b.iter_with_setup(
            || barabasi_albert(n, 3, &mut StdRng::seed_from_u64(13)),
            |mut g| {
                let mut acc = 0u64;
                let mut k = 0usize;
                let mut samples = 0u64;
                while g.live_node_count() > 0 {
                    let live = g.live_node_count();
                    let v = g.nth_live(k % live).expect("rank < live count");
                    if samples.is_multiple_of(1024) {
                        assert_eq!(Some(v), g.live_nodes().nth(k % live), "sample {samples}");
                    }
                    samples += 1;
                    acc += v.0 as u64;
                    g.remove_node(v).unwrap();
                    k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                black_box(acc)
            },
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_heal_sweeps,
    bench_edge_churn,
    bench_queries_under_churn
);
criterion_main!(benches);
