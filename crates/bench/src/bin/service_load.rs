//! **Service load** — open-loop load test of the always-on annotation
//! service (`sato-serve`): a synthetic client submits single-table requests
//! at a fixed *offered* rate regardless of completions (open loop, so
//! queueing delay is visible instead of self-throttled away), sweeping the
//! offered load from well below to well above the calibrated single-core
//! serving capacity.
//!
//! Per load point the run records achieved throughput, the p50/p99/max
//! request latency from the service's own histogram, admission-control
//! rejections, deadline expiries and the mean micro-batch fill — the
//! saturation story of the serving stack in one sweep, written to
//! `BENCH_service.json`.
//!
//! Options: the standard experiment flags (`--tables`, `--seed`,
//! `--epochs`, `--fast`, `--sampler`, ...) plus `--smoke` (tiny model, very
//! short load windows — CI uses it to validate the harness and the JSON
//! shape, not the numbers) and `--chaos` (requires the `faults` feature):
//! at the 1x load point the run injects worker crashes, delayed rounds, a
//! recurring poison-pill table and repeated corrupt-artifact hot-swaps,
//! proving the fault-tolerance counters (`worker_restarts`, `quarantined`,
//! `swap_rollbacks`) under load while every served response stays
//! bit-identical and correctly artifact-tagged.

use sato::{SatoModel, SatoVariant};
use sato_bench::{banner, default_threads, ExperimentOptions};
use sato_serve::{RequestOptions, SatoService, ServiceConfig, ServiceStats};
use sato_tabular::split::train_test_split;
use sato_tabular::table::Table;
use std::time::{Duration, Instant};

/// Target columns per shared micro-batch for the service under test.
const BATCH_COLS: usize = 32;

/// Admission bound (queued requests) for the service under test.
const QUEUE_DEPTH: usize = 64;

/// Per-request deadline: far above queue-drain time at moderate load, so it
/// only fires when the service is genuinely saturated.
const DEADLINE: Duration = Duration::from_millis(500);

/// Offered-load multipliers applied to the calibrated serving capacity.
const LOAD_FACTORS: [f64; 4] = [0.25, 0.5, 1.0, 2.0];

/// One measured point of the sweep.
struct LoadPoint {
    offered_rps: f64,
    submitted: u64,
    wall_secs: f64,
    stats: ServiceStats,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let chaos = args.iter().any(|a| a == "--chaos");
    #[cfg(not(feature = "faults"))]
    if chaos {
        eprintln!(
            "--chaos needs the fault-injection sites compiled in:\n  \
             cargo run --release -p sato-bench --features faults --bin service_load -- --chaos"
        );
        std::process::exit(2);
    }
    #[cfg(feature = "faults")]
    if chaos {
        quiet_injected_panics();
    }
    let mut opts = ExperimentOptions::parse_lenient(args);
    if smoke {
        // Smoke mode: the harness and JSON shape are under test, not the
        // numbers — shrink the model and the load windows to seconds total.
        opts.tables = opts.tables.min(60);
        opts.topics = opts.topics.min(8);
        opts.epochs = opts.epochs.min(5);
    }
    banner(
        "Service load: open-loop sweep of the always-on annotation service",
        "serving-scale extension of Table 2 (Section 5.3, Efficiency)",
        &opts,
    );

    let corpus = opts.corpus();
    let split = train_test_split(&corpus, 0.3, opts.seed);
    println!(
        "training Full model on {} tables; load pool: {} held-out tables ({} sampler)",
        split.train.len(),
        split.test.len(),
        opts.sampler.name()
    );
    let predictor = SatoModel::train(&split.train, opts.sato_config(), SatoVariant::Full)
        .into_predictor()
        .with_sampler(opts.sampler);

    // Calibrate single-core capacity with a closed-loop batched pass over
    // the pool — the sweep's offered rates are multiples of this.
    let start = Instant::now();
    let reference = predictor.predict_corpus_batched(&split.test, BATCH_COLS);
    let capacity_rps = split.test.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    println!("calibrated closed-loop capacity: {capacity_rps:.0} tables/s (batch {BATCH_COLS})");

    let pool: Vec<Table> = split.test.tables.clone();
    let window = if smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(4)
    };

    // Chaos mode perturbs only the 1x point: a corrupt artifact file (a
    // torn write of the serving artifact) repeatedly tries to swap in
    // while injected faults crash, stall and poison the worker.
    let corrupt_path = std::env::temp_dir().join(format!(
        "sato_service_load_corrupt_{}.satoart",
        std::process::id()
    ));
    if chaos {
        let bytes = predictor.to_bytes();
        std::fs::write(&corrupt_path, &bytes[..bytes.len() / 2]).expect("write corrupt artifact");
    }

    let mut points = Vec::new();
    for factor in LOAD_FACTORS {
        let offered_rps = (capacity_rps * factor).max(1.0);
        let chaos_here = chaos && factor == 1.0;
        #[cfg(feature = "faults")]
        if chaos_here {
            arm_chaos(pool[0].id);
        }
        let point = run_load_point(
            &predictor,
            &reference,
            &pool,
            offered_rps,
            window,
            chaos_here.then_some(corrupt_path.as_path()),
        );
        #[cfg(feature = "faults")]
        if chaos_here {
            sato_faults::reset();
        }
        let s = &point.stats;
        println!(
            "offered {:>7.0} rps ({factor:>4.2}x{}): {:>7.0} rps served | p50 {:>8.0} µs | p99 {:>8.0} µs | fill {:>5.1} cols | admitted {} rejected {} expired {} | restarts {} quarantined {} rollbacks {}",
            point.offered_rps,
            if chaos_here { ", chaos" } else { "" },
            s.completed as f64 / point.wall_secs.max(1e-9),
            s.p50_us(),
            s.p99_us(),
            s.mean_batch_fill_cols(),
            s.admitted,
            s.rejected,
            s.expired,
            s.worker_restarts,
            s.quarantined,
            s.swap_rollbacks,
        );
        if chaos_here {
            assert!(
                s.worker_restarts >= 1 && s.quarantined >= 1 && s.swap_rollbacks >= 1,
                "the chaos point must actually exercise restart, quarantine and rollback"
            );
        }
        points.push(point);
    }
    if chaos {
        let _ = std::fs::remove_file(&corrupt_path);
    }

    write_service_json(&opts, smoke, chaos, capacity_rps, &points);
}

/// Arm the 1x-point chaos: two early worker crashes, a stall every 25th
/// round, and one recurring poison-pill table from the load pool.
#[cfg(feature = "faults")]
fn arm_chaos(poison_table_id: u64) {
    use sato_faults::FaultSpec;
    sato_faults::reset();
    sato_faults::set("serve.round_formation", FaultSpec::panic().times(2));
    sato_faults::set(
        "serve.round",
        FaultSpec::delay(Duration::from_micros(500)).every(25),
    );
    sato_faults::set(
        "core.feature_extract",
        FaultSpec::panic().with_key(poison_table_id),
    );
}

/// Injected panics are the chaos point's working fluid; keep their default
/// stderr backtraces out of the bench output (anything else still reports).
#[cfg(feature = "faults")]
fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&'static str>().copied());
        if message.is_some_and(|m| m.contains("injected fault")) {
            return;
        }
        previous(info);
    }));
}

/// Run one open-loop load point: submit single-table requests at
/// `offered_rps` for `window`, then drain and snapshot the service's own
/// counters. Arrival times are scheduled from the wall clock (batched
/// arrivals, 1 ms pacing), so submission never waits on completions.
fn run_load_point(
    predictor: &sato::SatoPredictor,
    reference: &[sato::TablePrediction],
    pool: &[Table],
    offered_rps: f64,
    window: Duration,
    chaos_swap: Option<&std::path::Path>,
) -> LoadPoint {
    let service = SatoService::start(
        sato::SatoPredictor::from_bytes(&predictor.to_bytes()).expect("artifact round-trips"),
        ServiceConfig {
            batch_cols: BATCH_COLS,
            queue_depth: QUEUE_DEPTH,
            default_deadline: Some(DEADLINE),
            topic_memo_capacity: 0,
            index_on_annotate: None,
        },
    );
    let expected_hash = predictor.content_hash();
    let total = (offered_rps * window.as_secs_f64()).ceil().max(1.0) as u64;
    let start = Instant::now();
    let mut handles = Vec::with_capacity(total as usize);
    let mut submitted = 0u64;
    let mut last_swap = Instant::now();
    while submitted < total {
        let due = ((start.elapsed().as_secs_f64() * offered_rps) as u64).min(total);
        while submitted < due {
            let table = pool[submitted as usize % pool.len()].clone();
            // Rejections are the service's admission control doing its job
            // under overload; they are counted in the service stats.
            if let Ok(handle) = service.submit_table(table, RequestOptions::default()) {
                handles.push((submitted as usize % pool.len(), handle));
            }
            submitted += 1;
        }
        // Chaos: a corrupt artifact keeps trying to swap in mid-load; every
        // attempt must roll back without a single wrong-artifact response.
        if let Some(path) = chaos_swap {
            if last_swap.elapsed() >= Duration::from_millis(100) {
                last_swap = Instant::now();
                assert!(
                    service.load_artifact(path).is_err(),
                    "a corrupt artifact must never swap in"
                );
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Drain: wait for every admitted request (open loop ends at the window;
    // the tail of the queue still gets served or expires — and under
    // chaos, poison-pill requests come back quarantined instead).
    for (pool_idx, handle) in handles {
        if let Ok(response) = handle.wait() {
            assert_eq!(
                response.artifact_hash, expected_hash,
                "every response must be tagged by the one artifact that served"
            );
            assert_eq!(
                response.predictions[0], reference[pool_idx],
                "served response must be bit-identical to the batched reference"
            );
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let stats = service.shutdown();
    LoadPoint {
        offered_rps,
        submitted,
        wall_secs,
        stats,
    }
}

/// Emit `BENCH_service.json`: the machine-readable saturation sweep of the
/// annotation service. The service runs inference on its one batcher
/// thread, so `threads` is 1 whatever `available_parallelism` the machine
/// reports.
fn write_service_json(
    opts: &ExperimentOptions,
    smoke: bool,
    chaos: bool,
    capacity_rps: f64,
    points: &[LoadPoint],
) {
    let mut body = String::new();
    for (i, point) in points.iter().enumerate() {
        let s = &point.stats;
        body.push_str(&format!(
            "    {{\n      \"sampler\": \"{}\",\n      \"offered_rps\": {:.2},\n      \"window_secs\": {:.3},\n      \"submitted\": {},\n      \"admitted\": {},\n      \"rejected\": {},\n      \"expired\": {},\n      \"completed\": {},\n      \"throughput_rps\": {:.2},\n      \"p50_us\": {:.1},\n      \"p99_us\": {:.1},\n      \"max_us\": {},\n      \"mean_latency_us\": {:.1},\n      \"batches\": {},\n      \"mean_batch_fill_cols\": {:.2},\n      \"worker_restarts\": {},\n      \"quarantined\": {},\n      \"swap_rollbacks\": {}\n    }}{}\n",
            opts.sampler.name(),
            point.offered_rps,
            point.wall_secs,
            point.submitted,
            s.admitted,
            s.rejected,
            s.expired,
            s.completed,
            s.completed as f64 / point.wall_secs.max(1e-9),
            s.p50_us(),
            s.p99_us(),
            s.latency.max_us,
            s.latency.mean_us(),
            s.batches,
            s.mean_batch_fill_cols(),
            s.worker_restarts,
            s.quarantined,
            s.swap_rollbacks,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"sato-bench/service-v2\",\n  \"available_parallelism\": {},\n  \"threads\": 1,\n  \"model\": \"Sato (Full)\",\n  \"smoke\": {smoke},\n  \"chaos\": {chaos},\n  \"sampler\": \"{}\",\n  \"service\": {{\n    \"batch_cols\": {BATCH_COLS},\n    \"queue_depth\": {QUEUE_DEPTH},\n    \"deadline_ms\": {},\n    \"calibrated_capacity_rps\": {capacity_rps:.2}\n  }},\n  \"load_points\": [\n{body}  ]\n}}\n",
        default_threads(),
        opts.sampler.name(),
        DEADLINE.as_millis(),
    );
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    println!("wrote BENCH_service.json:\n{json}");
}
