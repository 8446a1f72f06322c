//! Criterion micro-benchmark: end-to-end per-table prediction latency of a
//! frozen Base and full Sato predictor (the paper reports ≈0.8 ms per table
//! and argues the CRF overhead of ≈0.2 ms is unnoticeable; Section 5.3),
//! plus corpus serving throughput single- vs multi-threaded
//! (`--threads N`, default: CPU count) through
//! `SatoPredictor::predict_corpus_parallel_batched`, and the fill stage of
//! one 256-column micro-batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sato::{SatoConfig, SatoModel, SatoVariant, ServingScratch};
use sato_bench::ExperimentOptions;
use sato_features::char_dist::char_features_into;
use sato_features::para_embed::{para_features_into, DEFAULT_PARA_DIM};
use sato_features::stats::stat_features_into;
use sato_features::word_embed::{word_features_into, DEFAULT_WORD_DIM};
use sato_features::{char_dist, stats, FeatureScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::Corpus;

fn bench_prediction(c: &mut Criterion) {
    let opts = ExperimentOptions::from_env_lenient();
    let corpus = default_corpus(80, 31);
    let config = SatoConfig::fast();
    let table = corpus
        .iter()
        .find(|t| t.num_columns() >= 3)
        .expect("multi-column table available")
        .clone();

    let mut group = c.benchmark_group("prediction_latency");
    group.sample_size(30);
    for variant in [SatoVariant::Base, SatoVariant::Full] {
        let predictor = SatoModel::train(&corpus, config.clone(), variant).into_predictor();
        group.bench_with_input(
            BenchmarkId::new("predict_table", variant.name()),
            &table,
            |b, t| b.iter(|| predictor.predict(std::hint::black_box(t))),
        );
    }
    group.finish();

    // Serving throughput over the whole corpus: the same frozen predictor,
    // sequentially and fanned out over scoped threads.
    let predictor = SatoModel::train(&corpus, config, SatoVariant::Full).into_predictor();
    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("predict_corpus", "1_thread"),
        &corpus,
        |b, corp| b.iter(|| predictor.predict_corpus(std::hint::black_box(corp))),
    );
    group.bench_with_input(
        BenchmarkId::new(
            "predict_corpus_parallel_batched",
            format!("{}_threads", opts.threads),
        ),
        &corpus,
        |b, corp| {
            b.iter(|| {
                predictor.predict_corpus_parallel_batched(
                    std::hint::black_box(corp),
                    256,
                    opts.threads,
                )
            })
        },
    );
    // Corpus-batched serving: one forward pass per micro-batch of columns.
    for batch_cols in [16usize, 256] {
        group.bench_with_input(
            BenchmarkId::new("predict_corpus_batched", batch_cols),
            &corpus,
            |b, corp| {
                b.iter(|| predictor.predict_corpus_batched(std::hint::black_box(corp), batch_cols))
            },
        );
    }
    group.finish();

    // The fill stage of one 256-column micro-batch (features, the shared
    // token table and topic estimation), then the network trunk: the
    // embedding path, which skips the head and the CRF, through a warm
    // scratch.
    let mut tables = Vec::new();
    let mut columns = 0;
    for table in corpus.tables.iter().cycle() {
        if columns >= 256 {
            break;
        }
        columns += table.num_columns();
        tables.push(table.clone());
    }
    let batch = Corpus::new(tables);
    let mut scratch = ServingScratch::new();
    let mut group = c.benchmark_group("fill_stage");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("embed_micro_batch", columns),
        &batch,
        |b, batch| {
            b.iter(|| {
                predictor.embed_corpus_batched_with(
                    std::hint::black_box(batch),
                    256,
                    &mut scratch,
                    |_, _, row| {
                        std::hint::black_box(row);
                    },
                )
            })
        },
    );
    group.finish();
}

/// Per-group feature extraction cost (single-pass, scratch-reusing path) so
/// a regression in any one of the four Sherlock groups is visible on its
/// own, not just through end-to-end latency.
fn bench_feature_groups(c: &mut Criterion) {
    let corpus = default_corpus(40, 19);
    let column = corpus
        .iter()
        .flat_map(|t| t.columns.iter())
        .max_by_key(|col| col.values.len())
        .expect("corpus has columns")
        .clone();
    let mut scratch = FeatureScratch::new();
    let mut char_out = vec![0.0f32; char_dist::CHAR_FEATURE_DIM];
    let mut word_out = vec![0.0f32; 2 * DEFAULT_WORD_DIM];
    let mut para_out = vec![0.0f32; DEFAULT_PARA_DIM];
    let mut stat_out = vec![0.0f32; stats::STAT_FEATURE_DIM];

    let mut group = c.benchmark_group("feature_groups");
    group.sample_size(20);
    group.bench_function("char", |b| {
        b.iter(|| char_features_into(std::hint::black_box(&column), &mut scratch, &mut char_out))
    });
    group.bench_function("word", |b| {
        b.iter(|| {
            word_features_into(
                std::hint::black_box(&column),
                DEFAULT_WORD_DIM,
                &mut scratch,
                &mut word_out,
            )
        })
    });
    group.bench_function("para", |b| {
        b.iter(|| para_features_into(std::hint::black_box(&column), &mut scratch, &mut para_out))
    });
    group.bench_function("stat", |b| {
        b.iter(|| stat_features_into(std::hint::black_box(&column), &mut scratch, &mut stat_out))
    });
    group.finish();
}

criterion_group!(benches, bench_prediction, bench_feature_groups);
criterion_main!(benches);
