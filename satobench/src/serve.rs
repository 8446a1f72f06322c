//! `serve`: a `SatoService` with `ServiceConfig::default()`, driven from one
//! generator thread, in rounds. Each round replays a fixed request list
//! with up to a fixed number of requests outstanding (closed loop) until
//! its share of the time is used, then replays one seeded Poisson schedule
//! at a fixed rate (open loop).
//!
//! The end-to-end metrics come from the closed loop: its tables/s and the
//! p50 of its request latencies, each request's latency being its median
//! over the replays. The open loop's latencies, timed from when each
//! request was due, spread by 15-40% from seed to seed even at a quarter
//! of capacity, too much to bound a change by, so they are reported only.
//!
//! The host's speed changes within a second, so the closed loop replays
//! its list in segments, each drained before the next starts and scaled by
//! the host speed measured around it while the service is idle; an
//! open-loop replay is scaled the same way.

use crate::inputs::{Request, ServeInputs, OPEN_RPS};
use crate::stats::{host_speed, mean, median, median_per_item, quantile, Checks};
use crate::trace::{count_tokens, replay_rounds, Pipeline};
use crate::{Named, Outcome, BATCH_COLS};
use sato::{SatoPredictor, TablePrediction};
use sato_eval::metrics::Evaluation;
use sato_serve::{AnnotationResponse, RequestOptions, SatoService, ServeError, ServiceConfig};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Share of the run spent in the open-loop phase; the rest is closed-loop.
const OPEN_SHARE: f64 = 0.3;

/// Rounds of closed-loop replays followed by one open-loop replay.
const ROUNDS: usize = 5;

/// Requests kept outstanding in the closed-loop phase (below the default
/// `queue_depth`, so admission never rejects).
const OUTSTANDING: usize = 32;

/// Requests per closed-loop segment: about 120 tables, a tenth of a second.
const SEGMENT: usize = 64;

/// Length in seconds of the open-loop schedule of a run of `seconds`.
pub fn schedule_secs(seconds: f64) -> f64 {
    seconds * OPEN_SHARE / ROUNDS as f64
}

pub fn run(
    predictor: &SatoPredictor,
    inputs: &ServeInputs,
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> Outcome {
    let reference = predictor.predict_corpus_batched(&inputs.pool, BATCH_COLS);
    let hash = predictor.content_hash();
    let served_copy = SatoPredictor::from_bytes(&predictor.to_bytes())
        .expect("a predictor's own artifact bytes load");
    let config = ServiceConfig::default();
    let service = SatoService::start(served_copy, config.clone());
    let meta = service.stats().artifact;
    checks.check(meta.content_hash == hash, || {
        "the service reports another artifact than the one it was started with".into()
    });

    let mut outcome = Outcome::default();
    // The latency the service reports for a correct answer; `None` for a
    // refused or failed request, which misses any latency limit.
    let mut verify = |request: &Request, result: Result<AnnotationResponse, ServeError>| {
        let response = result.ok()?;
        checks.check(response.artifact_hash == hash, || {
            "response tagged with the wrong artifact hash".into()
        });
        let expected: Vec<&TablePrediction> =
            request.tables.iter().map(|&i| &reference[i]).collect();
        checks.check(
            response.predictions.iter().collect::<Vec<_>>() == expected,
            || "served response differs from the batched reference".into(),
        );
        Some(response.latency)
    };

    let closed_tables: usize = inputs.closed.iter().map(|r| r.tables.len()).sum();
    let closed_round_s = seconds * (1.0 - OPEN_SHARE) / ROUNDS as f64;
    let mut closed_rounds: Vec<Vec<f64>> = Vec::new();
    let (mut segment_rounds, mut raw_segment_rounds): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
        (Vec::new(), Vec::new());
    let mut open_ms = Vec::new();
    let mut speeds = Vec::new();
    let mut queue_lens = Vec::new();
    let mut lag_ms = Vec::new();
    let (mut admitted, mut open_s) = (0usize, 0.0);
    for _ in 0..ROUNDS {
        // Closed loop: replay the request list, segment by segment, with
        // up to OUTSTANDING in flight.
        let round_start = Instant::now();
        loop {
            let mut latency_ms = vec![f64::INFINITY; inputs.closed.len()];
            let (mut segment_s, mut raw_segment_s) = (Vec::new(), Vec::new());
            for first in (0..inputs.closed.len()).step_by(SEGMENT) {
                let end = (first + SEGMENT).min(inputs.closed.len());
                let mut inflight = VecDeque::with_capacity(OUTSTANDING);
                let mut next = first;
                let speed_before = host_speed();
                let start = Instant::now();
                loop {
                    while inflight.len() < OUTSTANDING && next < end {
                        let payload = inputs.payload(&inputs.closed[next]);
                        outcome.attempted += 1;
                        match service.submit(payload, RequestOptions::default()) {
                            Ok(handle) => inflight.push_back((next, handle)),
                            Err(_) => outcome.failed += 1,
                        }
                        next += 1;
                    }
                    let Some((j, handle)) = inflight.pop_front() else {
                        break;
                    };
                    match verify(&inputs.closed[j], handle.wait()) {
                        Some(latency) => latency_ms[j] = latency.as_secs_f64() * 1e3,
                        None => outcome.failed += 1,
                    }
                }
                let elapsed = start.elapsed().as_secs_f64();
                let speed = (speed_before + host_speed()) / 2.0;
                speeds.push(speed);
                raw_segment_s.push(elapsed);
                segment_s.push(elapsed * speed);
                for ms in &mut latency_ms[first..end] {
                    *ms *= speed;
                }
            }
            closed_rounds.push(latency_ms);
            segment_rounds.push(segment_s);
            raw_segment_rounds.push(raw_segment_s);
            if round_start.elapsed().as_secs_f64() >= closed_round_s {
                break;
            }
        }

        // Open loop: submit each request when it is due, whatever the
        // service is doing, and time it from when it was due.
        let mut payloads: Vec<_> = inputs.open.iter().map(|r| inputs.payload(r)).collect();
        let mut latency_ms = vec![f64::INFINITY; inputs.open.len()];
        let mut pending = Vec::with_capacity(payloads.len());
        let speed_before = host_speed();
        let start = Instant::now();
        for (j, (request, payload)) in inputs.open.iter().zip(&mut payloads).enumerate() {
            let due = start + Duration::from_secs_f64(request.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            // Poisson arrivals see time averages, so polling at arrivals
            // estimates the mean queue length.
            queue_lens.push(service.queue_len() as f64);
            let tables = std::mem::take(payload);
            let lag = Instant::now().saturating_duration_since(due);
            lag_ms.push(lag.as_secs_f64() * 1e3);
            outcome.attempted += 1;
            match service.submit(tables, RequestOptions::default()) {
                Ok(handle) => pending.push((j, lag, handle)),
                Err(_) => outcome.failed += 1,
            }
        }
        open_s += start.elapsed().as_secs_f64();
        admitted += pending.len();
        for (j, lag, handle) in pending {
            match verify(&inputs.open[j], handle.wait()) {
                Some(latency) => latency_ms[j] = (lag + latency).as_secs_f64() * 1e3,
                None => outcome.failed += 1,
            }
        }
        let speed = (speed_before + host_speed()) / 2.0;
        speeds.push(speed);
        open_ms.extend(latency_ms.iter().map(|ms| ms * speed));
    }
    let stats = service.shutdown();

    let closed_ms = median_per_item(&closed_rounds);
    let closed_s: f64 = median_per_item(&segment_rounds).iter().sum();
    let serve_tables_per_s = closed_tables as f64 / closed_s;
    let closed_p50 = median(&closed_ms);
    let eval = Evaluation::from_tables(
        reference
            .iter()
            .map(|p| (p.gold.as_slice(), p.predicted.as_slice())),
    );
    outcome.throughput_per_s = serve_tables_per_s;
    outcome.latency_p50_ms = closed_p50;
    outcome.quality = eval.macro_f1;
    outcome.named = vec![
        Named::new("serve_tables_per_s", serve_tables_per_s, "1/s")
            .samples(segment_rounds.len(), None),
        Named::new(
            "raw_serve_tables_per_s",
            closed_tables as f64 / median_per_item(&raw_segment_rounds).iter().sum::<f64>(),
            "1/s",
        ),
        Named::new("host_speed", median(&speeds), "ratio").samples(speeds.len(), None),
        Named::new("closed_p50_ms", closed_p50, "ms").samples(closed_ms.len(), None),
        Named::new("closed_p99_ms", quantile(&closed_ms, 0.99), "ms").tail(&closed_ms, 0.99),
        Named::new("serve_p50_ms", median(&open_ms), "ms").samples(open_ms.len(), None),
        Named::new("serve_p95_ms", quantile(&open_ms, 0.95), "ms").tail(&open_ms, 0.95),
        Named::new("serve_p99_ms", quantile(&open_ms, 0.99), "ms").tail(&open_ms, 0.99),
        Named::new("generator_lag_p99_ms", quantile(&lag_ms, 0.99), "ms").tail(&lag_ms, 0.99),
        Named::new("macro_f1", eval.macro_f1, "ratio"),
        Named::new("weighted_f1", eval.weighted_f1, "ratio"),
    ];
    outcome.paper = Some((1e3 / serve_tables_per_s, eval.weighted_f1, eval.macro_f1));
    outcome.fingerprint = vec![
        ("offered_rps", OPEN_RPS.to_string()),
        ("open_requests", inputs.open.len().to_string()),
        ("rounds", ROUNDS.to_string()),
        ("outstanding", OUTSTANDING.to_string()),
        ("closed_requests", inputs.closed.len().to_string()),
        ("closed_tables", closed_tables.to_string()),
        ("closed_segment", SEGMENT.to_string()),
        ("closed_replays", segment_rounds.len().to_string()),
        ("service_batch_cols", config.batch_cols.to_string()),
        ("service_queue_depth", config.queue_depth.to_string()),
        ("service_sampler", meta.sampler.name().to_string()),
        ("pool_tables", inputs.pool.len().to_string()),
        ("pool_seed", inputs.pool_seed.to_string()),
    ];

    if trace {
        let mean_queue = mean(&queue_lens);
        let arrival_rate = admitted as f64 / open_s.max(1e-9);
        outcome.set_layer("serve.mean_batch_fill_cols", stats.mean_batch_fill_cols());
        outcome.set_layer("serve.batches", stats.batches as f64);
        outcome.set_layer("serve.mean_queue_len", mean_queue);
        // Little's law: mean wait in queue = mean queue length / arrival rate.
        outcome.set_layer(
            "serve.queue_wait_ms",
            mean_queue / arrival_rate.max(1e-9) * 1e3,
        );
        outcome.set_layer("serve.generator_lag_ms", mean(&lag_ms));
        outcome.set_layer("serve.rejected", stats.rejected as f64);
        outcome.set_layer("serve.expired", stats.expired as f64);

        let pipeline = Pipeline::new(predictor, BATCH_COLS, true);
        let traced = replay_rounds(
            |tracer| pipeline.replay_tables(&inputs.pool.tables, tracer),
            |replay| replay.predictions == reference,
            checks,
        );
        let tokens = count_tokens(predictor, &inputs.pool.tables);
        traced.report(tokens, 1e6 / serve_tables_per_s, &mut outcome);
    }
    outcome
}
