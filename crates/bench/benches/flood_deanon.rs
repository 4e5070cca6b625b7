//! Criterion bench for experiment E2: first-spy + Jordan-centre attack on
//! one flooded broadcast.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;

fn bench_flood_deanon(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_flood_deanon");
    group.sample_size(10);
    group.bench_function("attack_100_nodes", |b| {
        b.iter(|| fnp_bench::flood_deanonymization_with(&TrialRunner::auto(), &[100], &[0.2], 1, 2))
    });
    group.finish();
}

criterion_group!(benches, bench_flood_deanon);
criterion_main!(benches);
