//! Criterion bench for experiment E7: flexible-protocol broadcast plus
//! first-spy attack for one (k, d, phi) cell.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;

fn bench_privacy_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_privacy_bounds");
    group.sample_size(10);
    group.bench_function("cell_100_nodes", |b| {
        b.iter(|| {
            fnp_bench::privacy_bounds_with(&TrialRunner::auto(), 100, &[5], &[4], &[0.2], 1, 7)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_privacy_bounds);
criterion_main!(benches);
