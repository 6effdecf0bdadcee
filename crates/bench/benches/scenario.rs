//! Scenario-engine throughput: run-to-empty rounds/sec for DASH under
//! MaxNode (single deletions) and under RackPartition(8) (batch
//! deletions) at n ∈ {1024, 4096}, pinning the allocation-free hot
//! loops' wins in numbers.
//!
//! The `propagation` group isolates the structural change: the
//! epoch-stamped scratch-buffer BFS inside
//! `HealingNetwork::propagate_min_id` versus a baseline replicating the
//! pre-refactor pattern (a fresh `depth` vector of size `node_bound`, a
//! fresh `VecDeque`, and a fresh `reached` vector allocated every round —
//! O(n²) allocation traffic over a run-to-empty).
//!
//! Every benchmark asserts its structural expectations (round counts,
//! identical BFS reach), so `make bench-check` doubles as a smoke gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::attack::{MaxNode, RackPartition};
use selfheal_core::dash::Dash;
use selfheal_core::scenario::ScenarioEngine;
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::NodeId;
use std::collections::VecDeque;
use std::hint::black_box;

fn bench_run_to_empty(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [1024usize, 4096] {
        group.bench_with_input(
            BenchmarkId::new("dash_maxnode_run_to_empty", n),
            &n,
            |b, &n| {
                b.iter_with_setup(
                    || {
                        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(7));
                        HealingNetwork::new(g, 7)
                    },
                    |net| {
                        let mut engine = ScenarioEngine::new(net, Dash, MaxNode);
                        let report = engine.run_to_empty();
                        assert_eq!(report.rounds, n as u64, "sweep must run to empty");
                        black_box(report.total_messages)
                    },
                );
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dash_rack_partition_run_to_empty", n),
            &n,
            |b, &n| {
                b.iter_with_setup(
                    || {
                        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(7));
                        HealingNetwork::new(g, 7)
                    },
                    |net| {
                        let mut engine = ScenarioEngine::new(net, Dash, RackPartition::new(7, 8));
                        let report = engine.run_to_empty();
                        assert_eq!(report.deletions, n as u64, "sweep must run to empty");
                        assert!(report.rounds < n as u64, "racks must batch deletions");
                        black_box(report.total_messages)
                    },
                );
            },
        );
    }
    group.finish();
}

/// The pre-refactor broadcast round: fresh `depth`/queue/`reached`
/// allocations every call, then the same min-ID scan the real method
/// performs. At steady state (IDs converged) no ID changes, so repeated
/// calls do identical work — exactly what `propagate_min_id` does then,
/// minus the reused buffers.
fn alloc_propagate_round(net: &HealingNetwork, seeds: &[NodeId]) -> (usize, u64) {
    let gp = net.healing_graph();
    let mut depth = vec![u32::MAX; gp.node_bound()];
    let mut queue = VecDeque::new();
    let mut reached: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if gp.is_alive(s) && depth[s.index()] == u32::MAX {
            depth[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        reached.push(v);
        for &u in gp.neighbors(v) {
            if depth[u.index()] == u32::MAX {
                depth[u.index()] = depth[v.index()] + 1;
                queue.push_back(u);
            }
        }
    }
    let min_id = reached.iter().map(|&v| net.comp_id(v)).min().unwrap();
    let changed = reached.iter().filter(|&&v| net.comp_id(v) > min_id).count();
    (changed, min_id)
}

fn bench_propagation(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // A steady-state network: half the sweep done, so G' carries a large
    // healing forest and broadcasts traverse real components.
    let n = 4096usize;
    let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(11));
    let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 11), Dash, MaxNode);
    engine.run_events(n as u64 / 2);
    let mut net = engine.net;
    let seeds: Vec<NodeId> = net.graph().live_nodes().take(8).collect();

    // Converge IDs once so both benches measure the broadcast machinery
    // at steady state (no further ID updates), and check agreement.
    net.propagate_min_id(&seeds);
    let (changed0, _) = alloc_propagate_round(&net, &seeds);
    assert_eq!(changed0, 0, "ids must already be converged");

    group.bench_function("scratch_propagate_giant_component_4096", |b| {
        b.iter(|| {
            let report = net.propagate_min_id(black_box(&seeds));
            assert_eq!(report.changed, 0, "steady state: ids already converged");
            black_box(report.messages)
        });
    });
    group.bench_function("alloc_propagate_giant_component_4096", |b| {
        b.iter(|| {
            let (changed, min_id) = alloc_propagate_round(black_box(&net), &seeds);
            assert_eq!(changed, 0, "baseline must agree at steady state");
            black_box(min_id)
        });
    });

    // The asymptotic win: a round whose reconstruction set sits in a tiny
    // G' component. The scratch path costs O(component); the old path
    // still allocated and memset an O(node_bound) depth vector — that is
    // the O(n²) allocation traffic a run-to-empty used to pay.
    let tiny_seed: Vec<NodeId> = net
        .graph()
        .live_nodes()
        .find(|&v| net.healing_graph().degree(v) == 0)
        .into_iter()
        .collect();
    assert!(
        !tiny_seed.is_empty(),
        "mid-sweep network must still have a G'-singleton node"
    );
    group.bench_function("scratch_propagate_tiny_component_4096", |b| {
        b.iter(|| {
            let report = net.propagate_min_id(black_box(&tiny_seed));
            black_box(report.messages)
        });
    });
    group.bench_function("alloc_propagate_tiny_component_4096", |b| {
        b.iter(|| {
            let (_, min_id) = alloc_propagate_round(black_box(&net), &tiny_seed);
            black_box(min_id)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_run_to_empty, bench_propagation);
criterion_main!(benches);
