//! Serving-level tests of the topic estimator, the LDA fold-in: it yields
//! deterministic probability vectors on any table, every serving entry
//! point agrees with every other, and an artifact whose `META` names any
//! sampler an earlier release wrote serves it bit for bit. That a table's
//! topics move its columns' scores only in the topic-aware variants is
//! checked in `context_and_csv.rs`.

use proptest::prelude::*;
use sato::{SamplerKind, SatoConfig, SatoModel, SatoPredictor, SatoVariant, ServingScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::{Column, Corpus, Table};
use sato_topic::{LdaConfig, TableIntentEstimator, TopicSampler, TopicScratch};
use std::sync::OnceLock;

fn tiny_config() -> SatoConfig {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 3;
    config
}

/// One pre-trained intent estimator shared across cases (LDA training cost
/// paid once).
fn estimator() -> &'static TableIntentEstimator {
    static ESTIMATOR: OnceLock<TableIntentEstimator> = OnceLock::new();
    ESTIMATOR.get_or_init(|| {
        let corpus = default_corpus(60, 21);
        TableIntentEstimator::fit(&corpus, LdaConfig::tiny())
    })
}

/// Deterministic cell content mixing in-vocabulary words, numerics, blanks
/// and out-of-vocabulary noise (mirrors `topic_parity.rs`).
fn cell_value(entropy: usize) -> &'static str {
    const POOL: [&str; 10] = [
        "Warsaw",
        "London",
        "Poland",
        "12.5",
        "",
        "Rock",
        "alpha beta gamma",
        "zzzzqq",    // OOV token
        "qqxx yyzz", // OOV-only multi-token cell
        "2020-11-05",
    ];
    POOL[entropy % POOL.len()]
}

fn ragged_corpus(shapes: &[Vec<usize>], salt: usize) -> Corpus {
    let tables = shapes
        .iter()
        .enumerate()
        .map(|(t, cols)| {
            let columns = cols
                .iter()
                .enumerate()
                .map(|(c, &rows)| {
                    Column::new((0..rows).map(|r| cell_value(salt + t * 31 + c * 7 + r * 3)))
                })
                .collect();
            Table::unlabelled(t as u64, columns)
        })
        .collect();
    Corpus::new(tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All samplers an artifact can name now serve the one fold-in, and it
    /// yields valid probability distributions (positive, summing to one)
    /// over arbitrarily ragged corpora — zero-column tables, OOV-only
    /// documents and one-token documents included — and the same vector
    /// from every estimate entry point, warm or fresh.
    #[test]
    fn all_samplers_yield_valid_distributions_on_ragged_corpora(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..5, 0..5), 1..8),
        salt in 0usize..10_000,
    ) {
        let est = estimator();
        let corpus = ragged_corpus(&shapes, salt);
        let mut scratch = TopicScratch::new();
        let mut into = vec![0.0f32; est.num_topics()];
        for table in corpus.iter() {
            let theta = est.estimate_with(table, &mut scratch);
            prop_assert_eq!(theta.len(), est.num_topics());
            let sum: f32 = theta.iter().sum();
            prop_assert!(
                (sum - 1.0).abs() < 1e-3,
                "theta sums to {} on table {}",
                sum, table.id
            );
            prop_assert!(theta.iter().all(|&x| x > 0.0 && x <= 1.0 + 1e-6));
            prop_assert_eq!(&theta, &est.estimate_with(table, &mut scratch));
            prop_assert_eq!(&theta, &est.estimate(table));
            est.estimate_cells_into(table, &TopicSampler, &mut scratch, &mut into);
            prop_assert_eq!(&theta, &into);
        }
    }
}

/// The fold-in serves a point estimate of each table's topic posterior,
/// the approximate serving mode every predictor uses: every serving entry
/// point of a predictor agrees with every other — for all four variants —
/// and repeated serves are deterministic.
#[test]
fn approximate_serving_modes_are_consistent_across_entry_points() {
    let train = default_corpus(25, 13);
    let mut corpus = default_corpus(8, 99);
    corpus.tables.push(Table::unlabelled(800, vec![]));
    corpus
        .tables
        .push(Table::unlabelled(801, vec![Column::new(["Warsaw"])]));
    corpus.tables.push(Table::unlabelled(
        802,
        vec![Column::new(["zzzzqq"]), Column::new(["qqxx", "yyzz"])],
    ));
    for variant in SatoVariant::ALL {
        let predictor = SatoModel::train(&train, tiny_config(), variant).into_predictor();
        assert_eq!(predictor.sampler_kind(), SamplerKind::FoldIn);
        let sequential = predictor.predict_corpus(&corpus);
        assert_eq!(
            sequential,
            predictor.predict_corpus(&corpus),
            "variant {}: serving must be deterministic",
            variant.name()
        );
        let mut scratch = ServingScratch::new();
        let mut memo_scratch = ServingScratch::new().with_topic_memo();
        for batch_cols in [1, 7, 1000] {
            assert_eq!(
                sequential,
                predictor.predict_tables_batched(
                    &corpus.tables,
                    batch_cols,
                    &mut scratch,
                    |_, _| {}
                ),
                "variant {} batch_cols {batch_cols}",
                variant.name()
            );
            assert_eq!(
                sequential,
                predictor.predict_tables_batched(
                    &corpus.tables,
                    batch_cols,
                    &mut memo_scratch,
                    |_, _| {}
                ),
                "variant {} batch_cols {batch_cols} (memoised)",
                variant.name()
            );
        }
        assert_eq!(
            sequential,
            predictor.predict_corpus_parallel_batched(&corpus, 8, 3),
            "variant {} parallel batched",
            variant.name()
        );
    }
}

/// Bit patterns of per-column probability rows, so they compare exactly.
fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// `SATOART1` header: magic (8) + version (4) + section count (4).
const HEADER_LEN: usize = 16;
/// One section-table entry: id (4) + offset (8) + len (8) + checksum (8).
const ENTRY_LEN: usize = 28;

/// `artifact` rewritten with `META` naming the sampler `name`, laid out as
/// the `SATOART1` format documents (payloads on 8-byte boundaries, each
/// entry checksummed with FNV-1a 64).
fn with_meta_sampler(artifact: &[u8], name: &str) -> Vec<u8> {
    let u64_at = |at: usize| u64::from_le_bytes(artifact[at..at + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(artifact[12..16].try_into().unwrap()) as usize;
    let sections: Vec<([u8; 4], Vec<u8>)> = (0..count)
        .map(|i| {
            let entry = HEADER_LEN + i * ENTRY_LEN;
            let id: [u8; 4] = artifact[entry..entry + 4].try_into().unwrap();
            let (offset, len) = (u64_at(entry + 4), u64_at(entry + 12));
            let payload = artifact[offset..offset + len].to_vec();
            if &id != b"META" {
                return (id, payload);
            }
            let meta = String::from_utf8(payload).unwrap();
            assert!(meta.contains("\"sampler\":\"FoldIn\""), "{meta}");
            let renamed = format!("\"sampler\":\"{name}\"");
            (
                id,
                meta.replacen("\"sampler\":\"FoldIn\"", &renamed, 1)
                    .into_bytes(),
            )
        })
        .collect();
    let mut out = artifact[..HEADER_LEN].to_vec();
    let mut offset = HEADER_LEN + count * ENTRY_LEN;
    let mut payloads = Vec::new();
    for (id, payload) in &sections {
        offset = (offset + 7) & !7;
        out.extend_from_slice(id);
        for field in [
            offset as u64,
            payload.len() as u64,
            sato_kernels::fnv1a64(payload),
        ] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        payloads.push((offset, payload));
        offset += payload.len();
    }
    for (at, payload) in payloads {
        out.resize(at, 0);
        out.extend_from_slice(payload);
    }
    out
}

/// Every artifact serves the fold-in, whichever sampler its `META` names:
/// `Dense` or `SparseAlias`, the Gibbs samplers of earlier releases, or
/// `FoldIn`. Each loads, keeps the content hash of its own bytes, serves
/// bit for bit what the predictor it was saved from serves, and saves
/// back to the canonical artifact. An unknown sampler name in `META` is a
/// typed load error, checked in `sato::artifact`'s tests.
#[test]
fn sampler_artifact_versioning() {
    let train = default_corpus(25, 13);
    let corpus = default_corpus(8, 99);
    let model = SatoModel::train(&train, tiny_config(), SatoVariant::Full);
    let probs = |p: &SatoPredictor| -> Vec<_> {
        corpus.iter().map(|t| bits(&p.predict_proba(t))).collect()
    };
    let live: Vec<_> = corpus
        .iter()
        .map(|t| bits(&model.predict_proba(t)))
        .collect();
    let saved = model.into_predictor();
    assert_eq!(probs(&saved), live);
    let canonical = saved.to_bytes();
    assert_eq!(with_meta_sampler(&canonical, "FoldIn"), canonical);
    for name in ["Dense", "SparseAlias", "FoldIn"] {
        let bytes = with_meta_sampler(&canonical, name);
        let loaded = SatoPredictor::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.sampler_kind(), SamplerKind::FoldIn, "{name}");
        assert_eq!(
            loaded.content_hash(),
            sato_kernels::fnv1a64(&bytes),
            "{name}"
        );
        assert_eq!(probs(&loaded), live, "{name}");
        assert_eq!(
            loaded.predict_corpus(&corpus),
            saved.predict_corpus(&corpus),
            "{name}"
        );
        assert_eq!(loaded.to_bytes(), canonical, "{name}");
    }
}
