//! Generator throughput: the experiments build thousands of graphs, so
//! generation must stay cheap relative to the sweeps themselves. The
//! largest BA build, 2¹⁶ nodes, does not fit in cache: its neighbor-list
//! writes land all over the arena.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_graph::generators;
use std::hint::black_box;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [256usize, 1024, 4096, 65536] {
        group.bench_with_input(BenchmarkId::new("barabasi_albert_m3", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(generators::barabasi_albert(n, 3, &mut rng)));
        });
    }
    group.bench_function("erdos_renyi_gnm_1024_3072", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(generators::erdos_renyi_gnm(1024, 3072, &mut rng)));
    });
    group.bench_function("watts_strogatz_1024", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(generators::watts_strogatz(1024, 6, 0.1, &mut rng)));
    });
    group.bench_function("kary_tree_4ary_depth5", |b| {
        b.iter(|| black_box(generators::KaryTree::new(4, 5)));
    });
    group.bench_function("powerlaw_config_1024", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            black_box(generators::powerlaw_configuration(
                1024, 2.5, 1, 64, &mut rng,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_generators);
criterion_main!(benches);
