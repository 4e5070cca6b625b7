//! Criterion bench for experiment E6: the §V-A message-overhead comparison
//! (adaptive diffusion vs flood-and-prune vs flexible) on a small overlay.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;

fn bench_message_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_message_overhead");
    group.sample_size(10);
    group.bench_function("comparison_150_nodes", |b| {
        b.iter(|| fnp_bench::message_overhead_with(&TrialRunner::auto(), 150, 1, 6))
    });
    group.finish();
}

criterion_group!(benches, bench_message_overhead);
criterion_main!(benches);
