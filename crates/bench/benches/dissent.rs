//! Criterion bench for experiment E11: the Dissent-style baseline's
//! announcement shuffle and full round cost across group sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use fnp_bench::TrialRunner;
use fnp_shuffle::{DissentSession, SessionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_dissent(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_dissent");
    group.sample_size(20);
    group.bench_function("startup_sweep", |b| {
        b.iter(|| fnp_bench::dissent_startup_with(&TrialRunner::auto(), &[4, 8, 12], 5))
    });
    for k in [4usize, 8, 12] {
        group.bench_function(format!("full_round_k{k}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(k as u64);
                let mut session =
                    DissentSession::new(k, SessionConfig::default(), &mut rng).unwrap();
                let mut messages = vec![None; k];
                messages[0] = Some(vec![0x5au8; 250]);
                session.run_round(&messages, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dissent);
criterion_main!(benches);
