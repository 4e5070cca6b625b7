//! Criterion bench for experiments E4/E9: DC-net rounds of both variants,
//! plus the fused-vs-unfused pad-pipeline comparison (the keyed hot path
//! through pooled multi-block keystream fusion against the pre-fusion
//! reference lane of allocate-pad-then-XOR single-block expansion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fnp_dcnet::RoundScratch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Slot length shared by every variant (the paper's 512-byte message slot).
const SLOT_LEN: usize = 512;
/// Rounds folded into one `keyed_fused` / `keyed_unfused` iteration, so a
/// sample amortises key-schedule setup the way a real broadcast does.
const ROUNDS_PER_ITER: u64 = 16;

fn bench_dcnet(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_dcnet_round");
    group.sample_size(20);
    for k in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("explicit", k), &k, |b, &k| {
            let payloads = vec![None; k];
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                fnp_dcnet::run_explicit_round_in(
                    &payloads,
                    SLOT_LEN,
                    &mut rng,
                    &mut RoundScratch::new(),
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("keyed", k), &k, |b, &k| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut dc_group = fnp_dcnet::KeyedDcGroup::new(k, SLOT_LEN, &mut rng).unwrap();
            let payloads = vec![None; k];
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                dc_group.run_round(round, &payloads).unwrap()
            })
        });
    }
    group.finish();

    // The pad-pipeline lanes: identical DC-net work (same deterministic pad
    // keys, same silent rounds, digest-pinned equal output), differing only
    // in how pads are expanded and combined.
    let mut group = c.benchmark_group("e4_dcnet_pad_pipeline");
    group.sample_size(20);
    for k in [4usize, 8, 16, 32, 64] {
        let table = fnp_bench::bench_pad_key_table(k, 0x5eed);
        group.bench_with_input(BenchmarkId::new("keyed_fused", k), &k, |b, _| {
            let participants = fnp_bench::bench_keyed_participants(&table);
            b.iter(|| fnp_bench::run_fused_keyed_rounds(&participants, SLOT_LEN, ROUNDS_PER_ITER))
        });
        group.bench_with_input(BenchmarkId::new("keyed_unfused", k), &k, |b, _| {
            b.iter(|| fnp_bench::run_unfused_keyed_rounds(&table, SLOT_LEN, ROUNDS_PER_ITER))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dcnet);
criterion_main!(benches);
