//! Criterion bench for experiment E12: the latency → fee-fairness pipeline
//! (broadcast, then repeated block races).

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;
use fnp_blockchain::{InclusionRace, MinerSet, RaceConfig};
use fnp_netsim::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fairness(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_fairness");
    group.sample_size(10);
    group.bench_function("fee_fairness_small", |b| {
        b.iter(|| fnp_bench::fee_fairness_with(&TrialRunner::auto(), 80, 20, 1, 100, 9))
    });
    group.bench_function("race_only_1000", |b| {
        // Isolate the block-race cost from the broadcast cost.
        let miners = MinerSet::uniform(50).unwrap();
        let mut metrics = fnp_netsim::Metrics::new(50);
        for i in 0..50 {
            metrics.delivered_at[i] = Some((i as u64) * 10);
        }
        let _ = NodeId::new(0);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut race = InclusionRace::new();
            for _ in 0..1_000 {
                race.run_once(&metrics, &miners, RaceConfig::default(), &mut rng);
            }
            race.report(&miners)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fairness);
criterion_main!(benches);
