//! Criterion bench for experiment E8: overlapping-group posterior
//! computation and network-wide group formation.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;
use fnp_netsim::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_groups");
    group.sample_size(20);
    group.bench_function("overlap_sweep", |b| {
        b.iter(|| {
            fnp_bench::group_overlap_with(&TrialRunner::auto(), &[3, 5, 8, 10], &[1, 2, 3, 4])
        })
    });
    group.bench_function("form_groups_1000_nodes", |b| {
        let nodes: Vec<NodeId> = (0..1000).map(NodeId::new).collect();
        let mut rng = StdRng::seed_from_u64(8);
        b.iter(|| fnp_groups::form_groups(&nodes, 5, &mut rng).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_groups);
criterion_main!(benches);
