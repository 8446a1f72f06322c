//! **Table 2** — average training and prediction time of Base vs Sato on the
//! multi-column dataset `D_mult`, with the column-wise ("Features") and CRF
//! ("Structured") training costs reported separately, over repeated trials.
//!
//! Prediction timing uses the frozen [`sato::SatoPredictor`] serving
//! artifact and reports per-table sequential (`predict_corpus`: a batch of
//! one per table), corpus-batched (`predict_corpus_batched`) and
//! multi-threaded batched (`--threads N`, default: CPU count) serving
//! throughput — the serving-side extension of the paper's efficiency study.
//!
//! Besides the human-readable table, the run writes `BENCH_serving.json`,
//! which records the machine's `available_parallelism` and the `threads`
//! of the parallel serving pass (`parallel_batched_tables_per_sec`); every
//! other figure in it is measured on one thread. It holds: per-table
//! (batch of one) vs batched serving throughput (`batched_speedup`),
//! single-pass vs reference (per-alphabet-character)
//! feature extraction µs/column (with a per-group char/word/para/stat
//! breakdown of the reference cost), the
//! `hashing` section — kernel-layer (prefix-extension) vs scalar
//! (length-major) n-gram token hashing µs/token — scratch (streaming) vs
//! reference (mega-string) LDA topic estimation µs/table, the `crf_decode`
//! section — kernel-layer (row-major `relax_max_argmax`) vs reference
//! (destination-major loop) Viterbi decode µs/chain — the `gibbs_sampler`
//! section — dense vs sparse/alias topic sampling µs/table with the mean L1
//! theta drift of the sparse/alias sampler — and
//! the `artifact` section — JSON vs SATOART1 binary predictor artifact size
//! and load time, plus a cold serve straight off the columnar (colstore)
//! corpus bytes — each with its speedup recorded from the same run.
//!
//! `--sampler {dense,sparse}` selects the topic sampler the serving
//! throughput measurements run with (the sampler comparison section always
//! measures both).

use sato::{SamplerKind, SatoModel, SatoPredictor, SatoVariant, TopicSampler};
use sato_bench::{banner, default_threads, ExperimentOptions};
use sato_eval::metrics::mean_and_ci95;
use sato_eval::report::TextTable;
use sato_features::{reference, FeatureExtractor, FeatureScratch};
use sato_tabular::split::train_test_split;
use sato_tabular::table::Corpus;
use sato_topic::{TableIntentEstimator, TopicScratch};
use std::hint::black_box;
use std::time::Instant;

/// Micro-batch width (columns per forward pass) used for the batched
/// serving measurements.
const BATCH_COLS: usize = 256;

/// Repetitions per serving measurement; the best (minimum) time is
/// recorded, which is the standard way to strip scheduler noise from
/// millisecond-scale wall-clock timings on a shared machine.
const SERVING_REPS: usize = 5;

/// Best-of-[`SERVING_REPS`] wall-clock seconds of `f` (after one untimed
/// warm-up call whose result is returned for correctness checks).
fn best_of<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let warmup = f();
    let mut best = f64::INFINITY;
    for _ in 0..SERVING_REPS {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (warmup, best)
}

/// Mean of a (possibly empty) sample of timings.
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn main() {
    let opts = ExperimentOptions::from_env();
    banner(
        "Table 2: training / prediction time of Base vs Sato",
        "Table 2 of the Sato paper (Section 5.3, Efficiency)",
        &opts,
    );

    let corpus = opts.corpus().multi_column_only();
    let config = opts.sato_config();
    let split = train_test_split(&corpus, 0.2, opts.seed);
    println!(
        "training on {} multi-column tables, predicting {} held-out tables (serving with {} threads, {} sampler)",
        split.train.len(),
        split.test.len(),
        opts.threads,
        opts.sampler.name()
    );

    let mut rows = Vec::new();
    let mut full_predict_times = Vec::new();
    let mut full_batched_times = Vec::new();
    let mut full_parallel_times = Vec::new();
    let mut full_predictor: Option<SatoPredictor> = None;
    for variant in [SatoVariant::Base, SatoVariant::Full] {
        let mut feature_times = Vec::new();
        let mut crf_times = Vec::new();
        let mut predict_times = Vec::new();
        let mut batched_times = Vec::new();
        let mut parallel_times = Vec::new();
        for trial in 0..opts.trials {
            eprintln!(
                "[table2] {} trial {}/{}",
                variant.name(),
                trial + 1,
                opts.trials
            );
            let mut cfg = config.clone();
            cfg.seed = opts.seed ^ (trial as u64);
            let model = SatoModel::train(&split.train, cfg, variant);
            feature_times.push(model.timings().columnwise_secs);
            crf_times.push(model.timings().crf_secs);

            // Freeze into the immutable serving artifact; all timing paths
            // share the same weights and the configured topic sampler.
            let predictor = model.into_predictor().with_sampler(opts.sampler);

            let (sequential, secs) = best_of(|| predictor.predict_corpus(&split.test));
            predict_times.push(secs);
            assert_eq!(sequential.len(), split.test.len());

            let (batched, secs) =
                best_of(|| predictor.predict_corpus_batched(&split.test, BATCH_COLS));
            batched_times.push(secs);
            assert_eq!(
                sequential, batched,
                "batched serving must reproduce per-table output exactly"
            );

            let (parallel, secs) = best_of(|| {
                predictor.predict_corpus_parallel_batched(&split.test, BATCH_COLS, opts.threads)
            });
            parallel_times.push(secs);
            assert_eq!(
                sequential, parallel,
                "parallel serving must reproduce sequential output exactly"
            );
            if variant == SatoVariant::Full {
                full_predictor = Some(predictor);
            }
        }
        if variant == SatoVariant::Full {
            full_predict_times.clone_from(&predict_times);
            full_batched_times.clone_from(&batched_times);
            full_parallel_times.clone_from(&parallel_times);
        }
        rows.push((
            variant,
            feature_times,
            crf_times,
            predict_times,
            batched_times,
            parallel_times,
        ));
    }

    let threads_header = format!("batched({BATCH_COLS}) {}T [s]", opts.threads);
    let batched_header = format!("batched({BATCH_COLS}) [s]");
    let mut table = TextTable::new(&[
        "model",
        "train features [s]",
        "train CRF [s]",
        "predict 1T [s]",
        &batched_header,
        &threads_header,
        "per table [ms]",
    ]);
    let fmt = |values: &[f64]| {
        let (mean, ci) = mean_and_ci95(values);
        format!("{mean:.2} ±{ci:.2}")
    };
    for (variant, features, crf, predict, batched, parallel) in &rows {
        let per_table_ms: Vec<f64> = predict
            .iter()
            .map(|t| t * 1000.0 / split.test.len().max(1) as f64)
            .collect();
        let crf_cell = if *variant == SatoVariant::Base {
            "N/A".to_string()
        } else {
            fmt(crf)
        };
        table.add_row(vec![
            variant.name().to_string(),
            fmt(features),
            crf_cell,
            fmt(predict),
            fmt(batched),
            fmt(parallel),
            fmt(&per_table_ms),
        ]);
    }
    println!("\n{}", table.render());

    // Single-pass vs reference feature extraction, timed on the same held
    // out tables (µs per column, single-threaded), with the reference cost
    // broken down per feature group.
    let features_bench = time_feature_extraction(&split.test, &config.features, opts.trials);
    let (single_pass_us, baseline_us) = (features_bench.single_pass_us, features_bench.baseline_us);
    println!(
        "feature extraction: single-pass {single_pass_us:.1} µs/col vs reference {baseline_us:.1} µs/col ({:.2}x)",
        baseline_us / single_pass_us.max(1e-9)
    );
    println!(
        "  reference groups: char {:.1} / word {:.1} / para {:.1} / stat {:.1} µs/col",
        features_bench.char_us,
        features_bench.word_us,
        features_bench.para_us,
        features_bench.stat_us
    );

    // Kernel-layer (prefix-extension) vs scalar (length-major) n-gram token
    // hashing over every whitespace token of the held-out corpus.
    let (hashing_kernel_us, hashing_scalar_us) =
        time_hashing(&split.test, config.features.word_dim, opts.trials);
    println!(
        "n-gram hashing: kernel {hashing_kernel_us:.3} µs/token vs scalar {hashing_scalar_us:.3} µs/token ({:.2}x)",
        hashing_scalar_us / hashing_kernel_us.max(1e-12)
    );

    // Scratch (streaming encoder + reused Gibbs buffers) vs reference
    // (mega-string document + fresh buffers) topic estimation, on the Full
    // model's intent estimator over the same held-out tables (µs per table,
    // single-threaded).
    let intent = full_predictor
        .as_ref()
        .and_then(|p| p.columnwise().intent_estimator())
        .expect("the Full model carries an intent estimator");
    let (topic_scratch_us, topic_reference_us) =
        time_topic_estimation(intent, &split.test, opts.trials);
    println!(
        "topic estimation: scratch {topic_scratch_us:.1} µs/table vs reference {topic_reference_us:.1} µs/table ({:.2}x)",
        topic_reference_us / topic_scratch_us.max(1e-9)
    );

    // Kernel-layer vs reference Viterbi decode on the Full model's CRF,
    // over chains shaped like the held-out tables.
    let crf = full_predictor
        .as_ref()
        .and_then(|p| p.crf())
        .expect("the Full model carries a CRF");
    let (crf_kernel_us, crf_reference_us) = time_crf_decode(crf, &split.test, opts.trials);
    println!(
        "crf decode: kernel {crf_kernel_us:.1} µs/chain vs reference {crf_reference_us:.1} µs/chain ({:.2}x)",
        crf_reference_us / crf_kernel_us.max(1e-12)
    );

    // Dense vs sparse/alias Gibbs sampling on the same intent estimator and
    // held-out tables: µs/table for each sampler plus the mean L1 theta
    // drift the sparse/alias sampler introduces.
    let gibbs = time_gibbs_samplers(intent, &split.test, opts.trials);
    println!(
        "gibbs sampler: dense {:.1} µs/table vs sparse-alias {:.1} µs/table ({:.2}x, L1 drift {:.4})",
        gibbs.dense_us,
        gibbs.sparse_us,
        gibbs.dense_us / gibbs.sparse_us.max(1e-9),
        gibbs.mean_l1_drift
    );

    // Artifact formats: JSON vs SATOART1 binary size and load time, plus a
    // cold serve straight off the columnar corpus bytes (frame decode
    // included in the timing).
    let artifact = time_artifacts(
        full_predictor
            .as_ref()
            .expect("the Full predictor survives the trial loop"),
        &split.test,
    );
    println!(
        "artifact: binary {} KiB loads in {:.0} µs vs JSON {} KiB in {:.0} µs ({:.2}x smaller, {:.2}x faster load)",
        artifact.binary_bytes / 1024,
        artifact.binary_load_us,
        artifact.json_bytes / 1024,
        artifact.json_load_us,
        artifact.json_bytes as f64 / artifact.binary_bytes.max(1) as f64,
        artifact.json_load_us / artifact.binary_load_us.max(1e-9),
    );
    println!(
        "colstore cold serve: {:.1} tables/s off {} KiB of columnar corpus (decode + predict, batch {BATCH_COLS})",
        artifact.colstore_tables_per_sec,
        artifact.colstore_bytes / 1024,
    );

    write_serving_json(
        &opts,
        &split.test,
        &full_predict_times,
        &full_batched_times,
        &full_parallel_times,
        &features_bench,
        (hashing_kernel_us, hashing_scalar_us),
        topic_scratch_us,
        topic_reference_us,
        (crf_kernel_us, crf_reference_us),
        &gibbs,
        &artifact,
    );

    println!("paper reference (64-core machine, 26K training tables): Base 596.9s / N/A / 3.8s,");
    println!("Sato 678.5s / 366.9s / 5.2s; prediction overhead ≈ 0.2 ms per table.");
    println!(
        "Expected shape: Sato adds topic + CRF training cost; per-table prediction stays in the"
    );
    println!(
        "millisecond range, and the frozen predictor scales serving throughput with batching and --threads."
    );
}

/// Feature-extraction timings recorded in the `feature_extraction` section
/// of `BENCH_serving.json`: single-pass vs joint reference, plus the
/// reference cost of each feature group on its own (all mean µs/column).
struct FeatureBench {
    single_pass_us: f64,
    baseline_us: f64,
    char_us: f64,
    word_us: f64,
    para_us: f64,
    stat_us: f64,
}

/// Time single-pass (scratch-reusing) and reference (per-alphabet-character)
/// feature extraction over every column of `corpus`, plus each reference
/// group separately; returns mean µs/column for each, over `trials`
/// repetitions.
fn time_feature_extraction(
    corpus: &Corpus,
    features: &sato_features::FeatureConfig,
    trials: usize,
) -> FeatureBench {
    let extractor = FeatureExtractor::new(features.clone());
    let total_cols: usize = corpus.iter().map(|t| t.num_columns()).sum();
    let total_cols = total_cols.max(1);
    let mut single_pass = Vec::new();
    let mut baseline = Vec::new();
    let mut group_times = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..trials.max(1) {
        let mut scratch = FeatureScratch::new();
        let start = Instant::now();
        for table in corpus.iter() {
            for column in &table.columns {
                black_box(extractor.extract_column_with(black_box(column), &mut scratch));
            }
        }
        single_pass.push(start.elapsed().as_secs_f64() * 1e6 / total_cols as f64);

        let start = Instant::now();
        for table in corpus.iter() {
            for column in &table.columns {
                black_box(reference::char_features(black_box(column)));
                black_box(reference::word_features(column, features.word_dim));
                black_box(reference::para_features(column, features.para_dim));
                black_box(reference::stat_features(column));
            }
        }
        baseline.push(start.elapsed().as_secs_f64() * 1e6 / total_cols as f64);

        // The same four reference groups timed on their own, so the
        // breakdown and the joint baseline come from the same run.
        for (g, times) in group_times.iter_mut().enumerate() {
            let start = Instant::now();
            for table in corpus.iter() {
                for column in &table.columns {
                    match g {
                        0 => drop(black_box(reference::char_features(black_box(column)))),
                        1 => drop(black_box(reference::word_features(
                            column,
                            features.word_dim,
                        ))),
                        2 => drop(black_box(reference::para_features(
                            column,
                            features.para_dim,
                        ))),
                        _ => drop(black_box(reference::stat_features(column))),
                    }
                }
            }
            times.push(start.elapsed().as_secs_f64() * 1e6 / total_cols as f64);
        }
    }
    FeatureBench {
        single_pass_us: mean(&single_pass),
        baseline_us: mean(&baseline),
        char_us: mean(&group_times[0]),
        word_us: mean(&group_times[1]),
        para_us: mean(&group_times[2]),
        stat_us: mean(&group_times[3]),
    }
}

/// Time kernel-layer (prefix-extension `sato_kernels::Fnv1a`) vs scalar
/// (length-major window) n-gram hashing over every whitespace token of
/// every cell of `corpus`, with the standard Word-group space (`(3, 5)`
/// n-grams, `dim`-bucket output). Returns mean µs/token for each, over
/// `trials` repetitions; asserts bit-for-bit parity on the side.
fn time_hashing(corpus: &Corpus, dim: usize, trials: usize) -> (f64, f64) {
    use sato_features::hashing::{hash_token_into, hash_token_into_scalar};
    const NGRAMS: (usize, usize) = (3, 5);
    let seed = sato_features::word_embed::WORD_EMBED_SEED;
    let mut tokens: Vec<&str> = Vec::new();
    for table in corpus.iter() {
        for column in &table.columns {
            for cell in &column.values {
                tokens.extend(cell.split_whitespace());
            }
        }
    }
    let total = tokens.len().max(1) as f64;
    let mut chars = Vec::new();
    let (mut fast, mut slow) = (vec![0.0f32; dim], vec![0.0f32; dim]);
    for &token in tokens.iter().take(500) {
        hash_token_into(token, NGRAMS, seed, &mut chars, &mut fast);
        hash_token_into_scalar(token, NGRAMS, seed, &mut chars, &mut slow);
        assert_eq!(fast, slow, "kernel hashing drifted on token {token:?}");
    }
    let mut kernel_times = Vec::new();
    let mut scalar_times = Vec::new();
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        for &token in &tokens {
            hash_token_into(black_box(token), NGRAMS, seed, &mut chars, &mut fast);
            black_box(&fast);
        }
        kernel_times.push(start.elapsed().as_secs_f64() * 1e6 / total);

        let start = Instant::now();
        for &token in &tokens {
            hash_token_into_scalar(black_box(token), NGRAMS, seed, &mut chars, &mut slow);
            black_box(&slow);
        }
        scalar_times.push(start.elapsed().as_secs_f64() * 1e6 / total);
    }
    (mean(&kernel_times), mean(&scalar_times))
}

/// Time kernel-layer (`viterbi_flat`, row-major `relax_max_argmax`) vs
/// reference (destination-major loop) Viterbi decoding on `crf`, over one
/// chain per table of `corpus` (chain length = column count) with
/// deterministic pseudo-random unary potentials. Returns mean µs/chain for
/// each, over `trials` repetitions; asserts identical decodes on the side.
fn time_crf_decode(crf: &sato_crf::LinearChainCrf, corpus: &Corpus, trials: usize) -> (f64, f64) {
    let k = crf.num_states();
    // Deterministic unary potentials; a tiny LCG keeps the bench
    // self-contained and repeatable.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0 - 5.0
    };
    let chains: Vec<Vec<f64>> = corpus
        .iter()
        .map(|t| (0..t.num_columns().max(1) * k).map(|_| next()).collect())
        .collect();
    let total = chains.len().max(1) as f64;
    for unary in chains.iter().take(50) {
        assert_eq!(
            crf.viterbi_flat(unary),
            crf.viterbi_flat_reference(unary),
            "kernel Viterbi decode drifted"
        );
    }
    let mut kernel_times = Vec::new();
    let mut reference_times = Vec::new();
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        for unary in &chains {
            black_box(crf.viterbi_flat(black_box(unary)));
        }
        kernel_times.push(start.elapsed().as_secs_f64() * 1e6 / total);

        let start = Instant::now();
        for unary in &chains {
            black_box(crf.viterbi_flat_reference(black_box(unary)));
        }
        reference_times.push(start.elapsed().as_secs_f64() * 1e6 / total);
    }
    (mean(&kernel_times), mean(&reference_times))
}

/// Time the scratch (streaming) and reference (mega-string) topic-estimation
/// paths over every table of `corpus`; returns mean µs/table for each, over
/// `trials` repetitions. Asserts bit-for-bit parity on the side.
fn time_topic_estimation(
    intent: &TableIntentEstimator,
    corpus: &Corpus,
    trials: usize,
) -> (f64, f64) {
    let tables = corpus.len().max(1) as f64;
    let mut scratch = TopicScratch::new();
    assert_eq!(
        intent.estimate_corpus_with(corpus, &TopicSampler::Dense, &mut scratch),
        intent.estimate_corpus(corpus),
        "scratch topic estimation must reproduce the reference exactly"
    );
    let mut scratch_times = Vec::new();
    let mut reference_times = Vec::new();
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        black_box(intent.estimate_corpus_with(
            black_box(corpus),
            &TopicSampler::Dense,
            &mut scratch,
        ));
        scratch_times.push(start.elapsed().as_secs_f64() * 1e6 / tables);

        let start = Instant::now();
        black_box(intent.estimate_corpus(black_box(corpus)));
        reference_times.push(start.elapsed().as_secs_f64() * 1e6 / tables);
    }
    (mean(&scratch_times), mean(&reference_times))
}

/// Dense vs sparse/alias sampler comparison recorded in the `gibbs_sampler`
/// section of `BENCH_serving.json`.
struct GibbsSamplerBench {
    /// Mean µs/table of the dense sampler (scratch path).
    dense_us: f64,
    /// Mean µs/table of the sparse/alias sampler (scratch path; the alias
    /// tables are pre-built outside the timed loop, as at freeze time).
    sparse_us: f64,
    /// Mean (over tables) L1 distance between the dense and sparse thetas —
    /// the quantified approximation cost of the fast sampler.
    mean_l1_drift: f64,
}

/// Mean (over tables) L1 distance between two theta corpora.
fn mean_l1(a: &[Vec<f32>], b: &[Vec<f32>]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            x.iter()
                .zip(y)
                .map(|(p, q)| (p - q).abs() as f64)
                .sum::<f64>()
        })
        .sum::<f64>()
        / a.len().max(1) as f64
}

/// Time the dense and sparse/alias topic samplers over every table of
/// `corpus` through one warm scratch each, and measure the mean L1 theta
/// drift of the sparse/alias sampler against dense; returns mean µs/table
/// per sampler, over `trials` repetitions.
fn time_gibbs_samplers(
    intent: &TableIntentEstimator,
    corpus: &Corpus,
    trials: usize,
) -> GibbsSamplerBench {
    let tables = corpus.len().max(1) as f64;
    let sparse = intent.build_sampler(SamplerKind::SparseAlias);
    let mut scratch = TopicScratch::new();

    let dense_thetas = intent.estimate_corpus_with(corpus, &TopicSampler::Dense, &mut scratch);
    let sparse_thetas = intent.estimate_corpus_with(corpus, &sparse, &mut scratch);
    let mean_l1_drift = mean_l1(&dense_thetas, &sparse_thetas);

    let mut dense_times = Vec::new();
    let mut sparse_times = Vec::new();
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        black_box(intent.estimate_corpus_with(
            black_box(corpus),
            &TopicSampler::Dense,
            &mut scratch,
        ));
        dense_times.push(start.elapsed().as_secs_f64() * 1e6 / tables);

        let start = Instant::now();
        black_box(intent.estimate_corpus_with(black_box(corpus), &sparse, &mut scratch));
        sparse_times.push(start.elapsed().as_secs_f64() * 1e6 / tables);
    }
    GibbsSamplerBench {
        dense_us: mean(&dense_times),
        sparse_us: mean(&sparse_times),
        mean_l1_drift,
    }
}

/// Artifact-format comparison recorded in the `artifact` section of
/// `BENCH_serving.json`.
struct ArtifactBench {
    /// Size of the JSON interchange artifact in bytes.
    json_bytes: usize,
    /// Size of the SATOART1 binary artifact in bytes.
    binary_bytes: usize,
    /// Mean µs to rebuild a predictor from the JSON artifact.
    json_load_us: f64,
    /// Mean µs to rebuild a predictor from the binary artifact.
    binary_load_us: f64,
    /// Size of the columnar (colstore) form of the held-out corpus in bytes.
    colstore_bytes: usize,
    /// Best-of wall-clock seconds of one cold serve straight off the
    /// colstore bytes (frame decode + batched prediction).
    colstore_serve_secs: f64,
    /// Tables per second of the cold colstore serve.
    colstore_tables_per_sec: f64,
}

/// Measure both predictor artifact formats (size + load time, asserting the
/// loaded predictors reproduce the source bit for bit) and a cold serve of
/// the held-out corpus from its columnar bytes.
fn time_artifacts(predictor: &SatoPredictor, test: &Corpus) -> ArtifactBench {
    let json = predictor.to_json();
    let binary = predictor.to_bytes();

    let (from_json, json_secs) =
        best_of(|| SatoPredictor::from_json(black_box(&json)).expect("JSON artifact loads"));
    let (from_binary, binary_secs) =
        best_of(|| SatoPredictor::from_bytes(black_box(&binary)).expect("binary artifact loads"));
    for table in test.iter().take(5) {
        let expected = predictor.predict(table);
        assert_eq!(expected, from_json.predict(table), "JSON load drifted");
        assert_eq!(expected, from_binary.predict(table), "binary load drifted");
    }

    let colstore_bytes = sato_tabular::colstore::corpus_to_bytes(test);
    let (served, colstore_serve_secs) = best_of(|| {
        predictor
            .predict_colstore_bytes(black_box(&colstore_bytes), BATCH_COLS)
            .expect("colstore corpus serves")
    });
    assert_eq!(
        served,
        predictor.predict_corpus_batched(test, BATCH_COLS),
        "colstore serving must reproduce the in-memory batched output exactly"
    );

    ArtifactBench {
        json_bytes: json.len(),
        binary_bytes: binary.len(),
        json_load_us: json_secs * 1e6,
        binary_load_us: binary_secs * 1e6,
        colstore_bytes: colstore_bytes.len(),
        colstore_serve_secs,
        colstore_tables_per_sec: test.len() as f64 / colstore_serve_secs.max(1e-12),
    }
}

/// Emit `BENCH_serving.json`: the machine-readable perf trajectory of the
/// serving path (single-threaded numbers, except the parallel pass).
#[allow(clippy::too_many_arguments)]
fn write_serving_json(
    opts: &ExperimentOptions,
    test: &Corpus,
    per_table_secs: &[f64],
    batched_secs: &[f64],
    parallel_secs: &[f64],
    features: &FeatureBench,
    (hashing_kernel_us, hashing_scalar_us): (f64, f64),
    topic_scratch_us: f64,
    topic_reference_us: f64,
    (crf_kernel_us, crf_reference_us): (f64, f64),
    gibbs: &GibbsSamplerBench,
    artifact: &ArtifactBench,
) {
    let tables = test.len().max(1) as f64;
    let columns: usize = test.iter().map(|t| t.num_columns()).sum();
    let per_table = mean(per_table_secs);
    let batched = mean(batched_secs);
    let parallel_tps = tables / mean(parallel_secs).max(1e-12);
    let available = default_threads();
    let threads = opts.threads;
    let (single_pass_us, baseline_us) = (features.single_pass_us, features.baseline_us);
    let json = format!(
        "{{\n  \"schema\": \"sato-bench/serving-v3\",\n  \"available_parallelism\": {available},\n  \"threads\": {threads},\n  \"model\": \"Sato (Full)\",\n  \"corpus\": {{ \"tables\": {}, \"columns\": {}, \"seed\": {}, \"trials\": {} }},\n  \"serving\": {{\n    \"batch_cols\": {BATCH_COLS},\n    \"sampler\": \"{}\",\n    \"per_table_secs\": {per_table:.6},\n    \"batched_secs\": {batched:.6},\n    \"per_table_tables_per_sec\": {:.2},\n    \"batched_tables_per_sec\": {:.2},\n    \"parallel_batched_tables_per_sec\": {parallel_tps:.2},\n    \"batched_speedup\": {:.3}\n  }},\n  \"feature_extraction\": {{\n    \"single_pass_us_per_column\": {single_pass_us:.2},\n    \"baseline_us_per_column\": {baseline_us:.2},\n    \"single_pass_speedup\": {:.3},\n    \"reference_groups_us_per_column\": {{\n      \"char\": {:.2},\n      \"word\": {:.2},\n      \"para\": {:.2},\n      \"stat\": {:.2}\n    }}\n  }},\n  \"hashing\": {{\n    \"kernel_us_per_token\": {hashing_kernel_us:.4},\n    \"scalar_us_per_token\": {hashing_scalar_us:.4},\n    \"hashing_speedup\": {:.3}\n  }},\n  \"topic_estimation\": {{\n    \"scratch_us_per_table\": {topic_scratch_us:.2},\n    \"reference_us_per_table\": {topic_reference_us:.2},\n    \"topic_speedup\": {:.3}\n  }},\n  \"crf_decode\": {{\n    \"kernel_us_per_chain\": {crf_kernel_us:.2},\n    \"reference_us_per_chain\": {crf_reference_us:.2},\n    \"crf_decode_speedup\": {:.3}\n  }},\n  \"gibbs_sampler\": {{\n    \"dense_us_per_table\": {:.2},\n    \"sparse_us_per_table\": {:.2},\n    \"sparse_speedup\": {:.3},\n    \"mean_l1_drift_vs_dense\": {:.4}\n  }},\n  \"artifact\": {{\n    \"json_bytes\": {},\n    \"binary_bytes\": {},\n    \"binary_size_ratio\": {:.3},\n    \"json_load_us\": {:.2},\n    \"binary_load_us\": {:.2},\n    \"binary_load_speedup\": {:.3},\n    \"colstore_bytes\": {},\n    \"colstore_cold_serve_secs\": {:.6},\n    \"colstore_cold_tables_per_sec\": {:.2}\n  }}\n}}\n",
        test.len(),
        columns,
        opts.seed,
        opts.trials,
        opts.sampler.name(),
        tables / per_table.max(1e-12),
        tables / batched.max(1e-12),
        per_table / batched.max(1e-12),
        baseline_us / single_pass_us.max(1e-9),
        features.char_us,
        features.word_us,
        features.para_us,
        features.stat_us,
        hashing_scalar_us / hashing_kernel_us.max(1e-12),
        topic_reference_us / topic_scratch_us.max(1e-9),
        crf_reference_us / crf_kernel_us.max(1e-12),
        gibbs.dense_us,
        gibbs.sparse_us,
        gibbs.dense_us / gibbs.sparse_us.max(1e-9),
        gibbs.mean_l1_drift,
        artifact.json_bytes,
        artifact.binary_bytes,
        artifact.json_bytes as f64 / artifact.binary_bytes.max(1) as f64,
        artifact.json_load_us,
        artifact.binary_load_us,
        artifact.json_load_us / artifact.binary_load_us.max(1e-9),
        artifact.colstore_bytes,
        artifact.colstore_serve_secs,
        artifact.colstore_tables_per_sec,
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("wrote BENCH_serving.json:\n{json}");
}
