//! Ablation benches (experiment A1/A2 in DESIGN.md).
//!
//! A1 — what each DASH design choice buys: component filtering
//! (DASH/BinaryTreeHeal vs GraphHeal) and δ-ordering (DASH vs
//! BinaryTreeHeal). The printed table reports max degree increase and
//! total healing edges; the timings show the naive strategies also *run*
//! slower because their graphs bloat.
//!
//! A2 — serial vs. parallel APSP (the stretch metric's kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_experiments::runner::run_trial;
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::parallel::parallel_apsp;
use selfheal_graph::Csr;
use std::hint::black_box;

const N: usize = 256;
const SEED: u64 = 20080124;

fn bench_design_ablation(c: &mut Criterion) {
    println!("\nA1 ablation @ n = {N} (NeighborOfMax attack):");
    println!(
        "  {:>14}  {:>10}  {:>12}  design point",
        "healer", "max dδ", "heal edges"
    );
    let points = [
        (HealerSpec::Dash, "components + δ-ordering"),
        (HealerSpec::BinaryTreeHeal, "components only"),
        (HealerSpec::GraphHeal, "neither"),
    ];
    for (healer, what) in points {
        let stats = run_trial(N, healer, AdversarySpec::NeighborOfMax, SEED);
        println!(
            "  {:>14}  {:>10}  {:>12}  {what}",
            healer.name(),
            stats.max_delta,
            stats.total_edges
        );
    }
    println!();

    let mut group = c.benchmark_group("ablation_design");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (healer, _) in points {
        group.bench_with_input(BenchmarkId::new(healer.name(), N), &healer, |b, &h| {
            b.iter(|| black_box(run_trial(N, h, AdversarySpec::NeighborOfMax, SEED)));
        });
    }
    group.finish();
}

fn bench_apsp_ablation(c: &mut Criterion) {
    let g = barabasi_albert(1024, 3, &mut StdRng::seed_from_u64(9));
    let csr = Csr::from_graph(&g);
    let mut group = c.benchmark_group("ablation_apsp_1024");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| black_box(parallel_apsp(&csr, t)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_design_ablation, bench_apsp_ablation);
criterion_main!(benches);
