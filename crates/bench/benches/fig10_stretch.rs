//! Bench for experiment E4 / Fig. 10: stretch under the MaxNode attack.
//!
//! Prints the figure's row at the benched size, then times the sampled
//! stretch kill-sweep per strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfheal_core::spec::HealerSpec;
use selfheal_experiments::fig10::run_stretch_trial;
use std::hint::black_box;

const N: usize = 96;
const SEED: u64 = 20080124;

fn bench_fig10(c: &mut Criterion) {
    println!("\nFig 10 row @ n = {N} (max stretch, MaxNode attack):");
    for healer in HealerSpec::figure_set() {
        let s = run_stretch_trial(N, healer, SEED);
        println!("  {:>14}: {s:.2}", healer.name());
    }
    println!();

    let mut group = c.benchmark_group("fig10_stretch_sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for healer in HealerSpec::figure_set() {
        group.bench_with_input(BenchmarkId::new(healer.name(), N), &healer, |b, &h| {
            b.iter(|| black_box(run_stretch_trial(N, h, SEED)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
