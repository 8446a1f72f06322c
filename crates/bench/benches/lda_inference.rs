//! Criterion micro-benchmark: LDA table-intent inference (the per-table cost
//! Sato adds on top of Sherlock for the global context signal), the fold-in
//! on the reference path (`estimate`: mega-string document, per-token
//! `String`s, fresh buffers) and on the allocation-lean scratch path
//! (`estimate_with`: streaming encoder + reused [`TopicScratch`]). Both time
//! tokenizing as well; `fold_in` times the fold-in alone, over ids encoded
//! beforehand: one iteration folds in every table of the corpus, so its
//! time divided by [`TABLES`] is the per-table cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sato_tabular::corpus::default_corpus;
use sato_topic::{LdaConfig, TableIntentEstimator, TopicScratch};

/// Tables of the benchmark corpus.
const TABLES: usize = 200;

fn bench_lda(c: &mut Criterion) {
    let corpus = default_corpus(TABLES, 7);
    let mut group = c.benchmark_group("lda");
    group.sample_size(20);

    for topics in [16usize, 64] {
        let config = LdaConfig {
            num_topics: topics,
            train_iterations: 30,
            ..LdaConfig::default()
        };
        let estimator = TableIntentEstimator::fit(&corpus, config);
        let table = &corpus.tables[0];
        group.bench_with_input(
            BenchmarkId::new("infer_table_topic_vector", topics),
            &estimator,
            |b, est| b.iter(|| est.estimate(std::hint::black_box(table))),
        );
        let mut scratch = TopicScratch::new();
        group.bench_with_input(
            BenchmarkId::new("infer_table_topic_vector_scratch", topics),
            &estimator,
            |b, est| b.iter(|| est.estimate_with(std::hint::black_box(table), &mut scratch)),
        );
        let ids: Vec<Vec<usize>> = corpus
            .tables
            .iter()
            .map(|t| estimator.encode_cells(t, &mut scratch).to_vec())
            .collect();
        let mut out = vec![0.0f32; topics];
        group.bench_with_input(BenchmarkId::new("fold_in", topics), &estimator, |b, est| {
            b.iter(|| {
                for table_ids in &ids {
                    est.infer_ids_into(std::hint::black_box(table_ids), &mut scratch, &mut out);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lda);
criterion_main!(benches);
