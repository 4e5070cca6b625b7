//! Criterion bench for experiment E10: latency comparison of all protocols
//! on a small overlay.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;

fn bench_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_latency");
    group.sample_size(10);
    group.bench_function("all_protocols_100_nodes", |b| {
        b.iter(|| fnp_bench::latency_with(&TrialRunner::auto(), 100, 1, 8))
    });
    group.finish();
}

criterion_group!(benches, bench_latency);
criterion_main!(benches);
