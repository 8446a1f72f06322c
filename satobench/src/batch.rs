//! `batch_annotate`: the Table 2 prediction path. A large held-out corpus,
//! stored as SATOCOL1 shards, is annotated shard by shard with
//! `predict_colstore_bytes` at `batch_cols` 256, pass after pass until the
//! run's time is used. Each shard's time is scaled by the mean of the host
//! speeds measured just before and just after it, and is its median over
//! the passes.

use crate::inputs::{shard_corpora, BatchInputs};
use crate::stats::{host_speed, median, median_per_item, quantile, Checks};
use crate::trace::{count_tokens, replay_rounds, Pipeline};
use crate::{Named, Outcome, BATCH_COLS};
use sato::{SatoPredictor, TablePrediction};
use sato_eval::metrics::Evaluation;
use std::time::Instant;

/// Shard latency tail percentile. A run has one time per shard (24), so
/// only a coarse tail is measurable.
const TAIL_Q: f64 = 0.90;

/// Passes made even when the time is up.
const MIN_PASSES: usize = 3;

pub fn run(
    predictor: &SatoPredictor,
    inputs: &BatchInputs,
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> Outcome {
    // The in-memory batched reference, shard by shard (untimed).
    let reference: Vec<Vec<TablePrediction>> = shard_corpora(&inputs.corpus)
        .iter()
        .map(|shard| predictor.predict_corpus_batched(shard, BATCH_COLS))
        .collect();
    let tables = inputs.corpus.len();

    let mut outcome = Outcome::default();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut raw_passes: Vec<Vec<f64>> = Vec::new();
    let mut speeds = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let mut shard_ms = Vec::with_capacity(inputs.shards.len());
        let mut raw_ms = Vec::with_capacity(inputs.shards.len());
        let mut served = Vec::with_capacity(inputs.shards.len());
        let mut speed_before = host_speed();
        for shard in &inputs.shards {
            let t = Instant::now();
            let out = predictor.predict_colstore_bytes(shard, BATCH_COLS);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let speed_after = host_speed();
            let speed = (speed_before + speed_after) / 2.0;
            speed_before = speed_after;
            raw_ms.push(ms);
            shard_ms.push(ms * speed);
            speeds.push(speed);
            served.push(out);
        }
        for (i, (out, want)) in served.into_iter().zip(&reference).enumerate() {
            outcome.attempted += want.len() as u64;
            match out {
                Ok(got) => checks.check(got == *want, || {
                    format!("shard {i}: colstore output differs from predict_corpus_batched")
                }),
                Err(e) => {
                    outcome.failed += want.len() as u64;
                    checks.check(false, || format!("shard {i} failed to decode: {e}"));
                }
            }
        }
        passes.push(shard_ms);
        raw_passes.push(raw_ms);
    }

    let eval = Evaluation::from_tables(
        reference
            .iter()
            .flatten()
            .map(|p| (p.gold.as_slice(), p.predicted.as_slice())),
    );
    let shard_ms_med = median_per_item(&passes);
    let tables_per_s = tables as f64 / (shard_ms_med.iter().sum::<f64>() / 1e3);
    let raw_tables_per_s = tables as f64 / (median_per_item(&raw_passes).iter().sum::<f64>() / 1e3);
    outcome.throughput_per_s = tables_per_s;
    outcome.latency_p50_ms = median(&shard_ms_med);
    outcome.quality = eval.macro_f1;
    outcome.named = vec![
        Named::new("annotate_tables_per_s", tables_per_s, "1/s").samples(passes.len(), None),
        Named::new("raw_annotate_tables_per_s", raw_tables_per_s, "1/s"),
        Named::new("host_speed", median(&speeds), "ratio").samples(speeds.len(), None),
        Named::new("macro_f1", eval.macro_f1, "ratio"),
        Named::new("weighted_f1", eval.weighted_f1, "ratio"),
        Named::new("shard_p50_ms", outcome.latency_p50_ms, "ms").samples(shard_ms_med.len(), None),
        Named::new("shard_p90_ms", quantile(&shard_ms_med, TAIL_Q), "ms")
            .tail(&shard_ms_med, TAIL_Q),
    ];
    outcome.paper = Some((1e3 / tables_per_s, eval.weighted_f1, eval.macro_f1));
    outcome.fingerprint = vec![
        ("batch_tables", tables.to_string()),
        ("batch_columns", inputs.corpus.num_columns().to_string()),
        ("corpus_seed", inputs.corpus_seed.to_string()),
        ("shards", inputs.shards.len().to_string()),
        ("passes", passes.len().to_string()),
    ];

    if trace {
        let pipeline = Pipeline::new(predictor, BATCH_COLS, true);
        let want: Vec<TablePrediction> = reference.into_iter().flatten().collect();
        let traced = replay_rounds(
            |tracer| {
                pipeline
                    .replay_colstore(&inputs.shards, tracer)
                    .expect("shards that decoded a moment ago decode again")
            },
            |replay| replay.predictions == want,
            checks,
        );
        let tokens = count_tokens(predictor, &inputs.corpus.tables);
        traced.report(tokens, 1e6 / tables_per_s, &mut outcome);
    }
    outcome
}
