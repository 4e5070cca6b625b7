//! Criterion bench for ablation A1: hash-based virtual-source election
//! versus keeping the originator as the virtual source.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;

fn bench_election(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_election");
    group.sample_size(10);
    group.bench_function("ablation_small", |b| {
        b.iter(|| fnp_bench::election_ablation_with(&TrialRunner::auto(), 100, 0.2, 2, 21))
    });
    group.finish();
}

criterion_group!(benches, bench_election);
criterion_main!(benches);
