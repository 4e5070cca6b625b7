//! Criterion bench for experiment E5: one flexible three-phase broadcast.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;

fn bench_three_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_three_phase");
    group.sample_size(10);
    group.bench_function("broadcast_200_nodes", |b| {
        b.iter(|| {
            fnp_bench::three_phase_breakdown_with(&TrialRunner::auto(), 200, &[5], &[4], 1, 5)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_three_phase);
criterion_main!(benches);
