//! Criterion bench for experiment E1: one privacy–performance landscape cell
//! (flexible protocol, 20 % adversary) on a small overlay.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;

fn bench_landscape(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_landscape");
    group.sample_size(10);
    group.bench_function("flexible_cell_100_nodes", |b| {
        b.iter(|| fnp_bench::landscape_with(&TrialRunner::auto(), 100, 1, &[0.2], 1))
    });
    group.finish();
}

criterion_group!(benches, bench_landscape);
criterion_main!(benches);
