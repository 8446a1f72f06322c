//! The schemas of the committed `BENCH_*.json` files: one serde struct per
//! file plus a [`BenchFile::check`] of its sanity ranges. Producers hand
//! the struct to [`write()`], which checks it before writing; the
//! `bench_schema` test parses the committed files back through [`parse`].
//! End-to-end throughput and latency are not recorded here: `satobench`
//! (see `BENCHMARK.json`) measures them.

use serde::{Deserialize, Serialize, Value};

/// Significant digits each float keeps in a written bench file.
pub const SIGNIFICANT_DIGITS: usize = 5;

/// Relative tolerance of a stored ratio (or sum) against its stored parts,
/// which rounding to [`SIGNIFICANT_DIGITS`] moves by at most ~1.5e-4.
const DERIVED_TOLERANCE: f64 = 1e-3;

/// A committed bench file: where it lives and what makes it sane.
pub trait BenchFile: Serialize + Deserialize {
    /// File name, relative to the repository root.
    const PATH: &'static str;

    /// Checks the sanity ranges of every field; the error names the first
    /// field out of range.
    fn check(&self) -> Result<(), String>;
}

/// Schema tag of [`ServingBench`].
pub const SERVING_SCHEMA: &str = "sato-bench/serving-v9";

/// `BENCH_serving.json`, written by `table2_efficiency`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingBench {
    /// Always [`SERVING_SCHEMA`].
    pub schema: String,
    /// The measured source: see [`commit`].
    pub commit: String,
    /// The toolchain that built it: see [`rustc`].
    pub rustc: String,
    /// Logical CPUs of the machine; every figure is measured on one thread.
    pub available_parallelism: usize,
    /// The data and model configuration that produced the figures.
    pub corpus: ServingCorpus,
    /// The paper's Table 2, Base vs Full.
    pub table2: Table2,
    /// The `SATOART1` artifact of the Full predictor.
    pub artifact: ArtifactFormats,
}

/// Configuration fingerprint of a [`ServingBench`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingCorpus {
    /// Multi-column tables the models train on.
    pub train_tables: usize,
    /// Held-out tables every timing runs over.
    pub test_tables: usize,
    /// Columns of the held-out tables.
    pub test_columns: usize,
    /// Corpus and model seed.
    pub seed: u64,
    /// LDA topic count K.
    pub topics: usize,
    /// Fold-in rounds of topic estimation: the Full model's
    /// `LdaConfig::infer_iterations`.
    pub infer_iterations: usize,
    /// Trials each Table 2 figure is the mean of.
    pub trials: usize,
}

/// The paper's Table 2 (Section 5.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// Columns per micro-batch of the prediction pass.
    pub batch_cols: usize,
    /// Serving topic estimator of the prediction pass (`fold-in`).
    pub sampler: String,
    /// The Base (column-wise only) model.
    pub base: Table2Row,
    /// The Full Sato model (topics + CRF).
    pub full: Table2Row,
}

/// One model's row of [`Table2`]; every figure is a mean over trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Seconds to train the column-wise ("Features") network.
    pub train_features_secs: f64,
    /// Seconds to train the CRF ("Structured"); `None` for Base.
    pub train_crf_secs: Option<f64>,
    /// Best-of seconds to predict the held-out tables, batched.
    pub predict_secs: f64,
}

/// Size and load time of the predictor artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactFormats {
    /// Bytes of the `SATOART1` artifact.
    pub binary_bytes: usize,
    /// Best-of µs to load the artifact.
    pub binary_load_us: f64,
}

impl BenchFile for ServingBench {
    const PATH: &'static str = "BENCH_serving.json";

    fn check(&self) -> Result<(), String> {
        let (t, a) = (&self.table2, &self.artifact);
        ensure(self.schema == SERVING_SCHEMA, "schema")?;
        provenance(&self.commit, &self.rustc)?;
        ensure(t.sampler == "fold-in", "table2.sampler")?;
        ensure(t.base.train_crf_secs.is_none(), "base.train_crf_secs")?;
        counts(&[
            ("available_parallelism", self.available_parallelism),
            ("test_tables", self.corpus.test_tables),
            ("infer_iterations", self.corpus.infer_iterations),
            ("binary_bytes", a.binary_bytes),
        ])?;
        let full_crf = t.full.train_crf_secs.unwrap_or(f64::NAN);
        positive(&[
            ("base.train_features_secs", t.base.train_features_secs),
            ("base.predict_secs", t.base.predict_secs),
            ("full.train_features_secs", t.full.train_features_secs),
            ("full.train_crf_secs", full_crf),
            ("full.predict_secs", t.full.predict_secs),
            ("binary_load_us", a.binary_load_us),
        ])
    }
}

/// Schema tag of [`IndexBench`].
pub const INDEX_SCHEMA: &str = "sato-bench/index-v4";

/// `BENCH_index.json`, written by `index_discovery`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexBench {
    /// Always [`INDEX_SCHEMA`].
    pub schema: String,
    /// The measured source: see [`commit`].
    pub commit: String,
    /// The toolchain that built it: see [`rustc`].
    pub rustc: String,
    /// Logical CPUs of the machine.
    pub available_parallelism: usize,
    /// Threads every figure is measured on (1).
    pub threads: usize,
    /// The embedding model.
    pub model: String,
    /// Whether the run was the tiny `--smoke` lake (no floors asserted).
    pub smoke: bool,
    /// Tables in the lake.
    pub lake_tables: usize,
    /// Columns in the lake, all indexed.
    pub lake_columns: usize,
    /// Embedding dimension.
    pub embedding_dim: usize,
    /// The HNSW configuration of the index.
    pub hnsw: HnswParams,
    /// Seconds to embed and insert the whole lake, in one pass.
    pub build_s: f64,
    /// The embedding share of `build_s`.
    pub embed_s: f64,
    /// The graph-insert share of `build_s`.
    pub graph_insert_s: f64,
    /// `lake_columns / build_s`.
    pub build_cols_per_s: f64,
    /// Held-out query columns.
    pub queries: usize,
    /// Neighbours per query.
    pub k: usize,
    /// Fraction of the exact top-10 the ANN search returns.
    pub recall_at_10: f64,
    /// Passes over the queries; each times the exact scan, then the ANN
    /// search.
    pub query_passes: usize,
    /// ANN queries per second of each pass.
    pub ann_queries_per_s_passes: Vec<f64>,
    /// Exact brute-force queries per second of each pass.
    pub bruteforce_queries_per_s_passes: Vec<f64>,
    /// Median of `ann_queries_per_s_passes`.
    pub ann_queries_per_s: f64,
    /// Median of `bruteforce_queries_per_s_passes`.
    pub bruteforce_queries_per_s: f64,
    /// Median of the per-pass ratios ANN / brute-force queries per second.
    pub speedup_vs_bruteforce: f64,
    /// Bytes of the `SATOIDX1` sidecar file.
    pub sidecar_bytes: u64,
    /// Seconds to save the sidecar.
    pub sidecar_save_s: f64,
    /// Seconds to load and validate the sidecar.
    pub sidecar_load_s: f64,
}

/// The HNSW configuration recorded in an [`IndexBench`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HnswParams {
    /// Graph degree bound.
    pub m: usize,
    /// Candidate beam while building.
    pub ef_construction: usize,
    /// Candidate beam while searching.
    pub ef_search: usize,
    /// Level-assignment seed.
    pub seed: u64,
    /// Top level of the built graph.
    pub top_level: usize,
}

impl BenchFile for IndexBench {
    const PATH: &'static str = "BENCH_index.json";

    fn check(&self) -> Result<(), String> {
        let (ann, bf) = (
            &self.ann_queries_per_s_passes,
            &self.bruteforce_queries_per_s_passes,
        );
        ensure(self.schema == INDEX_SCHEMA, "schema")?;
        provenance(&self.commit, &self.rustc)?;
        ensure(self.k == 10, "k")?;
        ensure((0.0..=1.0).contains(&self.recall_at_10), "recall_at_10")?;
        counts(&[
            ("available_parallelism", self.available_parallelism),
            ("lake_columns", self.lake_columns),
            ("queries", self.queries),
            ("query_passes", self.query_passes),
            ("sidecar_bytes", self.sidecar_bytes as usize),
        ])?;
        ensure(ann.len() == self.query_passes, "ann_queries_per_s_passes")?;
        ensure(
            bf.len() == self.query_passes,
            "bruteforce_queries_per_s_passes",
        )?;
        let per_pass = |name, v: &[f64]| v.iter().try_for_each(|&x| positive(&[(name, x)]));
        per_pass("ann_queries_per_s_passes", ann)?;
        per_pass("bruteforce_queries_per_s_passes", bf)?;
        positive(&[
            ("build_s", self.build_s),
            ("embed_s", self.embed_s),
            ("graph_insert_s", self.graph_insert_s),
            ("ann_queries_per_s", self.ann_queries_per_s),
            ("bruteforce_queries_per_s", self.bruteforce_queries_per_s),
            ("sidecar_save_s", self.sidecar_save_s),
            ("sidecar_load_s", self.sidecar_load_s),
        ])?;
        let parts = self.embed_s + self.graph_insert_s;
        let rate = self.lake_columns as f64 / self.build_s;
        let ratios: Vec<f64> = ann.iter().zip(bf).map(|(a, b)| a / b).collect();
        derived(&[
            ("embed_s + graph_insert_s", parts, self.build_s),
            ("build_cols_per_s", self.build_cols_per_s, rate),
            ("ann_queries_per_s", self.ann_queries_per_s, median(ann)),
            (
                "bruteforce_queries_per_s",
                self.bruteforce_queries_per_s,
                median(bf),
            ),
            (
                "speedup_vs_bruteforce",
                self.speedup_vs_bruteforce,
                median(&ratios),
            ),
        ])
    }
}

/// The checked-out commit of the repository (`git rev-parse HEAD`), with
/// `-dirty` appended when tracked files other than the `BENCH_*.json`
/// outputs differ from it; `unknown` outside a git checkout, which
/// [`write()`] refuses.
pub fn commit() -> String {
    let Some(head) = run("git", &["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    let outputs = ":(exclude)BENCH_*.json";
    let dirty = run("git", &["diff", "--quiet", "HEAD", "--", ".", outputs]).is_none();
    format!("{}{}", head.trim(), if dirty { "-dirty" } else { "" })
}

/// The first line of `rustc --version`; `unknown` when no `rustc` runs,
/// which [`write()`] refuses.
pub fn rustc() -> String {
    run("rustc", &["--version"])
        .and_then(|out| out.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What `program` prints to stdout, run in the repository root; `None`
/// when it cannot run or exits with a failure.
fn run(program: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(program)
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// A bench file must name the commit and the toolchain it measured: a
/// commit as [`commit`] prints it, and a `rustc` version line.
fn provenance(commit: &str, rustc: &str) -> Result<(), String> {
    let hash = commit.strip_suffix("-dirty").unwrap_or(commit);
    ensure(
        hash.len() == 40 && hash.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
        "commit",
    )?;
    ensure(rustc.starts_with("rustc ") && rustc.len() > 6, "rustc")
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Parses a bench file's text and checks it.
pub fn parse<T: BenchFile>(text: &str) -> Result<T, String> {
    let bench: T = serde_json::from_str(text).map_err(|e| format!("{}: {e}", T::PATH))?;
    bench.check().map_err(|e| format!("{}: {e}", T::PATH))?;
    Ok(bench)
}

/// Rounds every float of `bench` to [`SIGNIFICANT_DIGITS`], checks the
/// rounded figures and writes them, pretty-printed, to [`BenchFile::PATH`]
/// in the working directory; echoes the file. Panics if the check fails,
/// so an out-of-range figure never lands in a committed file.
pub fn write<T: BenchFile>(bench: &T) {
    let mut value = bench.to_value();
    round_floats(&mut value);
    let mut text = String::new();
    render(&value, 0, &mut text);
    text.push('\n');
    if let Err(e) = parse::<T>(&text) {
        panic!("refusing to write {e}");
    }
    std::fs::write(T::PATH, &text).unwrap_or_else(|e| panic!("write {}: {e}", T::PATH));
    println!("wrote {}:\n{text}", T::PATH);
}

fn round_floats(value: &mut Value) {
    match value {
        Value::Float(x) if x.is_finite() => {
            // `{:.Ne}` keeps N + 1 significant digits; parsing the text back
            // gives the double nearest to the rounded decimal.
            *x = format!("{:.*e}", SIGNIFICANT_DIGITS - 1, *x)
                .parse()
                .expect("a formatted float parses");
        }
        Value::Map(entries) => entries.iter_mut().for_each(|(_, v)| round_floats(v)),
        Value::Seq(items) => items.iter_mut().for_each(round_floats),
        _ => {}
    }
}

/// Renders maps one key per line, indented two spaces per level; every
/// other value is rendered compactly.
fn render(value: &Value, depth: usize, out: &mut String) {
    match value {
        Value::Map(entries) if !entries.is_empty() => {
            out.push('{');
            for (i, (key, v)) in entries.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&serde_json::to_string(key).expect("a key renders"));
                out.push_str(": ");
                render(v, depth + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        leaf => out.push_str(&serde_json::to_string(leaf).expect("a value renders")),
    }
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    ok.then_some(())
        .ok_or_else(|| format!("{what} is out of range"))
}

/// Every count must be at least 1.
fn counts(fields: &[(&str, usize)]) -> Result<(), String> {
    fields
        .iter()
        .try_for_each(|&(name, n)| ensure(n >= 1, name))
}

/// Every timing must be finite and positive.
fn positive(fields: &[(&str, f64)]) -> Result<(), String> {
    fields
        .iter()
        .try_for_each(|&(name, x)| ensure(x.is_finite() && x > 0.0, name))
}

/// Every stored ratio (or sum) must agree with its stored parts.
fn derived(fields: &[(&str, f64, f64)]) -> Result<(), String> {
    for &(name, stored, from_parts) in fields {
        if (stored - from_parts).abs() > DERIVED_TOLERANCE * from_parts.abs() {
            return Err(format!(
                "{name} = {stored}, but its parts give {from_parts}"
            ));
        }
    }
    Ok(())
}
