//! Criterion bench for experiment E3: one Dandelion broadcast plus attack.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;

fn bench_dandelion(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_dandelion");
    group.sample_size(10);
    group.bench_function("broadcast_and_attack_100_nodes", |b| {
        b.iter(|| {
            fnp_bench::dandelion_privacy_with(&TrialRunner::auto(), 100, &[0.2], &[0.9], 1, 3)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dandelion);
criterion_main!(benches);
