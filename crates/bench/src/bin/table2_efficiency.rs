//! **Table 2** — average training and prediction time of Base vs Sato on the
//! multi-column dataset `D_mult`, with the column-wise ("Features") and CRF
//! ("Structured") training costs reported separately, over repeated trials.
//!
//! Prediction time is one pass of the frozen [`sato::SatoPredictor`] over
//! the held-out tables through the default batched entry point
//! (`predict_corpus_batched`). Serving throughput and latency, with a
//! per-layer breakdown, are measured by `satobench` (see `BENCHMARK.json`),
//! not here.
//!
//! Besides the human-readable table, the run writes `BENCH_serving.json`
//! ([`sato_bench::schema::ServingBench`]): the Table 2 figures and the
//! `artifact` section — the `SATOART1` predictor artifact's size and load
//! time. Every figure is measured on one thread.

use sato::{SatoModel, SatoPredictor, SatoVariant};
use sato_bench::schema::{
    self, ArtifactFormats, ServingBench, ServingCorpus, Table2, Table2Row, SERVING_SCHEMA,
};
use sato_bench::{banner, default_threads, ExperimentOptions};
use sato_eval::metrics::mean_and_ci95;
use sato_eval::report::TextTable;
use sato_tabular::split::train_test_split;
use sato_tabular::table::Corpus;
use std::hint::black_box;
use std::time::Instant;

/// Micro-batch width (columns per forward pass) of the prediction pass.
const BATCH_COLS: usize = 256;

/// Repetitions per prediction or load measurement; the best (minimum) time
/// is recorded, which is the standard way to strip scheduler noise from
/// millisecond-scale wall-clock timings on a shared machine.
const BEST_OF_REPS: usize = 5;

/// Best-of-[`BEST_OF_REPS`] wall-clock seconds of `f` (after one untimed
/// warm-up call whose result is returned for correctness checks).
fn best_of<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let warmup = f();
    let mut best = f64::INFINITY;
    for _ in 0..BEST_OF_REPS {
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
        "training on {} multi-column tables, predicting {} held-out tables",
        split.train.len(),
        split.test.len(),
    );

    let fmt = |values: &[f64]| {
        let (mean, ci) = mean_and_ci95(values);
        format!("{mean:.2} ±{ci:.2}")
    };
    let batched_header = format!("predict batched({BATCH_COLS}) [ms]");
    let mut table = TextTable::new(&[
        "model",
        "train features [s]",
        "train CRF [s]",
        &batched_header,
        "per table [ms]",
    ]);
    let mut rows = Vec::new();
    let mut full_predictor: Option<SatoPredictor> = None;
    for variant in [SatoVariant::Base, SatoVariant::Full] {
        let (mut features, mut crf, mut predict) = (Vec::new(), Vec::new(), Vec::new());
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
            features.push(model.timings().columnwise_secs);
            crf.push(model.timings().crf_secs);

            // Freeze into the immutable serving artifact and time the
            // default batched entry point.
            let predictor = model.into_predictor();
            let (predictions, secs) =
                best_of(|| predictor.predict_corpus_batched(&split.test, BATCH_COLS));
            assert_eq!(predictions.len(), split.test.len());
            predict.push(secs);
            if variant == SatoVariant::Full {
                full_predictor = Some(predictor);
            }
        }
        let has_crf = variant == SatoVariant::Full;
        let predict_ms: Vec<f64> = predict.iter().map(|t| t * 1000.0).collect();
        let per_table_ms: Vec<f64> = predict_ms
            .iter()
            .map(|t| t / split.test.len().max(1) as f64)
            .collect();
        table.add_row(vec![
            variant.name().to_string(),
            fmt(&features),
            if has_crf { fmt(&crf) } else { "N/A".into() },
            fmt(&predict_ms),
            fmt(&per_table_ms),
        ]);
        rows.push(Table2Row {
            train_features_secs: mean(&features),
            train_crf_secs: has_crf.then(|| mean(&crf)),
            predict_secs: mean(&predict),
        });
    }
    println!("\n{}", table.render());
    let full_predictor = full_predictor.expect("the Full predictor survives the trial loop");

    let intent = full_predictor
        .columnwise()
        .intent_estimator()
        .expect("the Full model carries an intent estimator");
    let infer_iterations = intent.model().config().infer_iterations;
    let artifact = time_artifacts(&full_predictor, &split.test);

    // `schema::write` echoes the file, artifact section included.
    let [base, full]: [Table2Row; 2] = rows.try_into().expect("a Base and a Full row");
    schema::write(&ServingBench {
        schema: SERVING_SCHEMA.to_string(),
        available_parallelism: default_threads(),
        corpus: ServingCorpus {
            train_tables: split.train.len(),
            test_tables: split.test.len(),
            test_columns: split.test.iter().map(|t| t.num_columns()).sum(),
            seed: opts.seed,
            topics: opts.topics,
            infer_iterations,
            trials: opts.trials,
        },
        table2: Table2 {
            batch_cols: BATCH_COLS,
            sampler: full_predictor.sampler_kind().name().to_string(),
            base,
            full,
        },
        artifact,
    });

    println!("paper reference (64-core machine, 26K training tables): Base 596.9s / N/A / 3.8s,");
    println!("Sato 678.5s / 366.9s / 5.2s; prediction overhead ≈ 0.2 ms per table.");
}

/// Measure the predictor artifact: size and best-of load time, asserting
/// the loaded predictor reproduces the source bit for bit.
fn time_artifacts(predictor: &SatoPredictor, test: &Corpus) -> ArtifactFormats {
    let binary = predictor.to_bytes();
    let (loaded, binary_secs) =
        best_of(|| SatoPredictor::from_bytes(black_box(&binary)).expect("artifact loads"));
    for table in test.iter().take(5) {
        assert_eq!(
            predictor.predict(table),
            loaded.predict(table),
            "load drifted"
        );
    }
    ArtifactFormats {
        binary_bytes: binary.len(),
        binary_load_us: binary_secs * 1e6,
    }
}
