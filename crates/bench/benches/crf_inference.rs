//! Criterion micro-benchmark: the linear-chain CRF over the 78-type state
//! space as a function of the number of table columns — Viterbi (prediction),
//! the log-domain forward–backward oracle, and one training epoch of
//! `train_crf` (the scaled forward–backward that training runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sato_crf::{train_crf, CrfExample, CrfTrainConfig, LinearChainCrf};
use sato_tabular::types::NUM_TYPES;

fn random_unary(columns: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..columns)
        .map(|_| (0..NUM_TYPES).map(|_| rng.gen_range(-3.0..0.0)).collect())
        .collect()
}

fn bench_crf(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let pairwise: Vec<f64> = (0..NUM_TYPES * NUM_TYPES)
        .map(|_| rng.gen_range(-0.5..0.5))
        .collect();
    let crf = LinearChainCrf::with_pairwise(NUM_TYPES, pairwise);

    let mut group = c.benchmark_group("crf_78_states");
    for columns in [2usize, 4, 8] {
        let unary = random_unary(columns, &mut rng);
        group.bench_with_input(BenchmarkId::new("viterbi", columns), &unary, |b, u| {
            b.iter(|| crf.viterbi(std::hint::black_box(u)))
        });
        group.bench_with_input(
            BenchmarkId::new("forward_backward", columns),
            &unary,
            |b, u| b.iter(|| crf.marginals(std::hint::black_box(u))),
        );
    }
    group.finish();

    // One epoch over 10 chains: one Adam step of the default batch size.
    let config = CrfTrainConfig {
        epochs: 1,
        ..CrfTrainConfig::default()
    };
    let mut group = c.benchmark_group("crf_78_states_training");
    for columns in [2usize, 4, 8] {
        let examples: Vec<CrfExample> = (0..config.batch_size)
            .map(|_| CrfExample {
                unary: random_unary(columns, &mut rng),
                labels: (0..columns).map(|_| rng.gen_range(0..NUM_TYPES)).collect(),
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("train_epoch", columns),
            &examples,
            |b, ex| b.iter(|| train_crf(crf.clone(), std::hint::black_box(ex), &config)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_crf);
criterion_main!(benches);
