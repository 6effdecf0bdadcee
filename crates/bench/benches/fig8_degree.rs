//! Bench for experiment E1 / Fig. 8: full kill-sweep per healing strategy
//! under the NeighborOfMax attack.
//!
//! Before timing, prints the figure's row at the benched size so a
//! `cargo bench` run regenerates the paper's numbers alongside the
//! timings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_experiments::runner::run_trial;
use std::hint::black_box;

const N: usize = 256;
const SEED: u64 = 20080124;

fn bench_fig8(c: &mut Criterion) {
    println!("\nFig 8 row @ n = {N} (max degree increase, NeighborOfMax):");
    for healer in HealerSpec::figure_set() {
        let stats = run_trial(N, healer, AdversarySpec::NeighborOfMax, SEED);
        println!("  {:>14}: {}", healer.name(), stats.max_delta);
    }
    println!("  2*log2(n) bound: {:.1}\n", 2.0 * (N as f64).log2());

    let mut group = c.benchmark_group("fig8_kill_sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for healer in HealerSpec::figure_set() {
        group.bench_with_input(BenchmarkId::new(healer.name(), N), &healer, |b, &h| {
            b.iter(|| {
                black_box(run_trial(N, h, AdversarySpec::NeighborOfMax, SEED));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
