//! Bench for experiments E2/E3 / Fig. 9: component-ID maintenance costs.
//!
//! Prints the Fig. 9(a) (max ID changes) and Fig. 9(b) (max messages
//! sent) rows at the benched size, then times the dominant kernel — the
//! min-ID broadcast — in isolation on a worst-case topology (a long
//! healing path, which maximizes propagation distance).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_core::state::HealingNetwork;
use selfheal_experiments::runner::run_trial;
use selfheal_graph::generators::path_graph;
use selfheal_graph::NodeId;
use std::hint::black_box;

const N: usize = 256;
const SEED: u64 = 20080124;

fn bench_fig9(c: &mut Criterion) {
    println!("\nFig 9 rows @ n = {N} (NeighborOfMax attack):");
    println!("  {:>14}  {:>10}  {:>12}", "healer", "max #id", "max msgs");
    for healer in HealerSpec::figure_set() {
        let stats = run_trial(N, healer, AdversarySpec::NeighborOfMax, SEED);
        println!(
            "  {:>14}  {:>10}  {:>12}",
            healer.name(),
            stats.max_id_changes,
            stats.max_msgs_sent
        );
    }
    println!("  2*ln(n) bound: {:.1}\n", 2.0 * (N as f64).ln());

    let mut group = c.benchmark_group("fig9_id_broadcast");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for size in [64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("propagate_path", size), &size, |b, &n| {
            b.iter_with_setup(
                || {
                    // A healing path of n nodes where the far end holds the
                    // minimum: the broadcast must walk the whole path.
                    let mut net = HealingNetwork::new(path_graph(n), 1);
                    for i in 1..n {
                        net.add_heal_edge(NodeId::from_index(i - 1), NodeId::from_index(i))
                            .unwrap();
                    }
                    net
                },
                |mut net| {
                    black_box(net.propagate_min_id(&[NodeId(0)]));
                },
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
