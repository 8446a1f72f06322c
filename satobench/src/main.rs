//! One benchmark for sato-rs: batch annotation, online serving and lake
//! discovery over a Full model trained at the standard configuration
//! (K = 64, 400 tables, seed 42) and served with the predictor's own
//! default sampler and configuration.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path satobench/Cargo.toml -- \
//!     --workload batch_annotate|serve|lake_discover --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run prints a short human summary, one
//! `{"report": ...}` line (configuration fingerprint, the workload's own
//! named metrics with units and sample counts, and the paper's figures for
//! context) and, as its last line, the result object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A run
//! whose outputs fail a correctness check reports `"correct": false` and
//! exits with code 1.
//!
//! The whole run is pinned to one CPU, and every time the benchmark reports
//! is scaled by the speed of that CPU measured next to it
//! ([`stats::host_speed`]); the report line also carries the raw figures.

mod batch;
mod inputs;
mod lake;
mod serve;
mod stats;
mod trace;

use inputs::{BatchInputs, LakeInputs, ServeInputs};
use sato::{SatoConfig, SatoModel, SatoPredictor, SatoVariant};
use sato_tabular::corpus::default_corpus;
use stats::{host_speed, median, peak_rss_mb, pin_to_one_cpu, Checks};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Columns per micro-batch of the batched entry points the benchmark calls.
pub const BATCH_COLS: usize = 256;

/// The standard training configuration: the bench harness defaults.
const TRAIN_TABLES: usize = 400;
const TRAIN_SEED: u64 = 42;
const TRAIN_TOPICS: usize = 64;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The paper's figures (Table 2 and Section 5), shown next to ours as
/// context.
const PAPER_MS_PER_TABLE: f64 = 0.2;
const PAPER_WEIGHTED_F1: f64 = 0.925;
const PAPER_MACRO_F1: f64 = 0.735;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["batch_annotate", "serve", "lake_discover"];

/// End-to-end metrics (`--trace 0`), reported by every workload.
///
/// `throughput_per_s` is tables/s annotated (`batch_annotate`), tables/s of
/// the closed-loop phase (`serve`) or columns/s indexed (`lake_discover`).
/// `latency_p50_ms` is per shard, per closed-loop request or per ANN query.
/// `quality` is macro F1 (`batch_annotate`, `serve`) or recall@10 against
/// exact search (`lake_discover`). Tail latencies swing too much from seed
/// to seed to bound a change by, so they are in the report line only.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("quality", "ratio"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not use
/// reports 0.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("tabular.decode_us_per_table", "us"),
    ("features.us_per_col", "us"),
    ("topic.us_per_table", "us"),
    ("topic.tokens_per_table", "count"),
    ("topic.ns_per_token", "ns"),
    ("nn.us_per_col", "us"),
    ("crf.us_per_chain", "us"),
    ("core.batches", "count"),
    ("core.cols_per_batch", "count"),
    ("core.unattributed_us_per_table", "us"),
    ("serve.mean_batch_fill_cols", "count"),
    ("serve.batches", "count"),
    ("serve.mean_queue_len", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("embed.us_per_col", "us"),
    ("index.insert_us_p50", "us"),
    ("index.insert_us_p99", "us"),
    ("index.search_us_p50", "us"),
    ("index.exact_search_us_p50", "us"),
    ("trace.overhead_pct", "%"),
];

/// A workload-specific metric printed in the report line.
pub struct Named {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
    beyond: Option<usize>,
}

impl Named {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Named {
            name,
            value,
            unit,
            samples: None,
            beyond: None,
        }
    }

    /// Attach the sample count and, for a tail percentile, how many samples
    /// lie beyond it.
    pub fn samples(mut self, samples: usize, beyond: Option<usize>) -> Self {
        self.samples = Some(samples);
        self.beyond = beyond;
        self
    }

    /// Attach the sample count of a `q` percentile over `samples` and how
    /// many samples lie beyond it.
    pub fn tail(self, samples: &[f64], q: f64) -> Self {
        self.samples(samples.len(), Some(stats::beyond(samples, q)))
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    pub quality: f64,
    pub named: Vec<Named>,
    /// Our ms per table, weighted F1 and macro F1, for the paper block.
    pub paper: Option<(f64, f64, f64)>,
    pub fingerprint: Vec<(&'static str, String)>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.per_layer.insert(name, value);
    }
}

/// Workload inputs, generated from the seed.
enum Inputs {
    Batch(BatchInputs),
    Serve(ServeInputs),
    Lake(LakeInputs),
}

impl Inputs {
    fn generate(workload: &str, seed: u64, seconds: f64) -> Self {
        match workload {
            "batch_annotate" => Inputs::Batch(BatchInputs::generate(seed)),
            "serve" => Inputs::Serve(ServeInputs::generate(seed, serve::schedule_secs(seconds))),
            _ => Inputs::Lake(LakeInputs::generate(seed)),
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        match self {
            Inputs::Batch(i) => i.to_bytes(),
            Inputs::Serve(i) => i.to_bytes(),
            Inputs::Lake(i) => i.to_bytes(),
        }
    }
}

/// Train the Full model at the standard configuration and freeze it with
/// its default serving configuration.
fn train_standard() -> SatoPredictor {
    let mut config = SatoConfig {
        seed: TRAIN_SEED,
        ..SatoConfig::default()
    };
    config.lda.num_topics = TRAIN_TOPICS;
    let corpus = default_corpus(TRAIN_TABLES, TRAIN_SEED);
    SatoModel::train(&corpus, config, SatoVariant::Full).into_predictor()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    // Counted before pinning, which narrows what the process may use.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = pin_to_one_cpu();

    // Set-up: input generation plus model training, repeated; every
    // repetition must give the same inputs and the same model. Like every
    // timing, each one is scaled by the host speed measured around it.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut raw_setup_times = Vec::with_capacity(reps);
    let mut kept: Option<(SatoPredictor, Inputs, Vec<u8>)> = None;
    for _ in 0..reps {
        let speed_before = host_speed();
        let t = Instant::now();
        let inputs = Inputs::generate(&args.workload, args.seed, args.seconds);
        let predictor = train_standard();
        let secs = t.elapsed().as_secs_f64();
        raw_setup_times.push(secs);
        setup_times.push(secs * (speed_before + host_speed()) / 2.0);
        match &kept {
            None => {
                let bytes = inputs.to_bytes();
                kept = Some((predictor, inputs, bytes));
            }
            Some((first, _, bytes)) => {
                checks.check(first.content_hash() == predictor.content_hash(), || {
                    "training at the standard configuration is not deterministic".into()
                });
                checks.check(*bytes == inputs.to_bytes(), || {
                    "input generation is not deterministic".into()
                });
            }
        }
    }
    let (predictor, inputs, _) = kept.expect("at least one set-up");
    let setup_s = median(&setup_times);

    let mut outcome = match &inputs {
        Inputs::Batch(i) => batch::run(&predictor, i, args.seconds, args.trace, &mut checks),
        Inputs::Serve(i) => serve::run(&predictor, i, args.seconds, args.trace, &mut checks),
        Inputs::Lake(i) => lake::run(&predictor, i, args.seconds, args.trace, &mut checks),
    };
    outcome
        .named
        .push(Named::new("raw_setup_s", median(&raw_setup_times), "s").samples(reps, None));
    let rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    checks.check(rss_mb.is_finite(), || "peak RSS unavailable".into());

    if let Some(tracer) = outcome.tracer.take() {
        let path = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    println!(
        "{}: seed {} | setup {setup_s:.3} s (median of {}) | peak RSS {rss_mb:.1} MB | attempted {} failed {}",
        args.workload, args.seed, setup_times.len(), outcome.attempted, outcome.failed
    );
    for m in &outcome.named {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report_line(
            &args,
            &predictor,
            &outcome,
            setup_s,
            &setup_times,
            (nproc, cpu)
        )
    );
    let metrics = result_metrics(&outcome, args.trace, setup_s, rss_mb);
    let correct = checks.all_passed();
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The metrics of the result line, in declaration order.
fn result_metrics(
    outcome: &Outcome,
    trace: bool,
    setup_s: f64,
    rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    outcome.per_layer.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    } else {
        let values = [
            setup_s,
            rss_mb,
            outcome.throughput_per_s,
            outcome.latency_p50_ms,
            outcome.quality,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    }
}

/// A JSON number; a non-finite value (a latency sample of a refused
/// request) is written as a huge one.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

/// A JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                js(name),
                num(*value),
                js(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report_line(
    args: &Args,
    predictor: &SatoPredictor,
    outcome: &Outcome,
    setup_s: f64,
    setup_times: &[f64],
    (nproc, cpu): (usize, Option<usize>),
) -> String {
    let intent = predictor.columnwise().intent_estimator();
    // A checkout without git history is named by its source fingerprint.
    let commit = if repo_root().join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let mut fp: Vec<(&str, String)> = vec![
        ("workload", js(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("variant", js(predictor.variant().name())),
        ("topics_k", intent.map_or(0, |e| e.num_topics()).to_string()),
        (
            "infer_iterations",
            intent
                .map_or(0, |e| e.model().config().infer_iterations)
                .to_string(),
        ),
        ("sampler", js(predictor.sampler_kind().name())),
        ("batch_cols", BATCH_COLS.to_string()),
        (
            "content_hash",
            js(&format!("{:016x}", predictor.content_hash())),
        ),
        ("train_tables", TRAIN_TABLES.to_string()),
        ("train_seed", TRAIN_SEED.to_string()),
        ("epochs", predictor.config().network.epochs.to_string()),
        ("setup_reps", setup_times.len().to_string()),
        ("nproc", nproc.to_string()),
        ("pinned_cpu", cpu.map_or("null".into(), |c| c.to_string())),
        ("rustc", js(&command_line("rustc", &["--version"]))),
        ("commit", js(&commit)),
        ("source_fnv", js(&source_fingerprint())),
    ];
    for (key, value) in &outcome.fingerprint {
        let quoted = value.parse::<f64>().is_err();
        fp.push((key, if quoted { js(value) } else { value.clone() }));
    }
    let fingerprint: Vec<String> = fp.iter().map(|(k, v)| format!("{}: {v}", js(k))).collect();

    let mut named: Vec<String> = vec![format!(
        "\"setup_s\": {{\"value\": {}, \"unit\": \"s\", \"samples\": {}}}",
        num(setup_s),
        setup_times.len()
    )];
    for m in &outcome.named {
        let mut fields = format!("\"value\": {}, \"unit\": {}", num(m.value), js(m.unit));
        if let Some(n) = m.samples {
            fields.push_str(&format!(", \"samples\": {n}"));
        }
        if let Some(n) = m.beyond {
            fields.push_str(&format!(", \"beyond\": {n}"));
        }
        named.push(format!("{}: {{{fields}}}", js(m.name)));
    }

    let paper = match outcome.paper {
        Some((ms_per_table, weighted, macro_f1)) => format!(
            "{{\"note\": \"context, not metrics\", \"paper_ms_per_table\": {PAPER_MS_PER_TABLE}, \"paper_machine\": \"64 cores\", \"ours_ms_per_table\": {}, \"ours_machine\": \"one pinned CPU\", \"paper_weighted_f1\": {PAPER_WEIGHTED_F1}, \"ours_weighted_f1\": {}, \"paper_macro_f1\": {PAPER_MACRO_F1}, \"ours_macro_f1\": {}}}",
            num(ms_per_table),
            num(weighted),
            num(macro_f1)
        ),
        None => "null".into(),
    };
    format!(
        "{{\"report\": {{\"fingerprint\": {{{}}}, \"named_metrics\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"paper_reference\": {paper}}}}}",
        fingerprint.join(", "),
        named.join(", "),
        outcome.attempted,
        outcome.failed
    )
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// FNV-1a 64 over the library and benchmark sources, so a run outside git
/// still names the code it measured.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("satobench").join("src"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in rel.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(well_formed_name(name), "metric name {name:?}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit:?}"
            );
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        assert!(WORKLOADS.iter().all(|w| well_formed_name(w)));
    }

    /// `(name, unit)` pairs of one array section of BENCHMARK.json.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        let field = |obj: &str, f: &str| -> Option<String> {
            let at = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[at + f.len() + 2..];
            let q1 = rest.find('"')? + 1;
            let q2 = q1 + rest[q1..].find('"')?;
            Some(rest[q1..q2].to_string())
        };
        json[open + 1..close]
            .split('}')
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit").unwrap_or_default())))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(section(&json, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = section(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_named_metric_is_in_the_result_line() {
        let outcome = Outcome {
            throughput_per_s: 1.5,
            latency_p50_ms: f64::INFINITY,
            quality: 0.5,
            ..Outcome::default()
        };
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let metrics = result_metrics(&outcome, trace, 3.0, 100.0);
            let line = result_line(true, 1, 0, &metrics);
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"
            ));
            assert_eq!(metrics.len(), list.len());
            for (name, unit) in list {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert_eq!(line.matches(&entry).count(), 1, "{name} in {line}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(!line.contains("inf") && !line.contains("NaN"));
        }
    }
}
