//! Spans recorded by the benchmark around calls into each crate's public
//! functions, and the traced replay of the annotation pipeline built from
//! those calls.
//!
//! The replay forms micro-batches with the same accumulate-until-
//! `batch_cols` rule as `SatoPredictor`, then runs each table through the
//! layers one public call at a time:
//!
//! ```text
//! core      micro-batch                       (span parent of the rest)
//! tabular   ColStoreReader::read_into         (colstore sources only)
//! topic     TableIntentEstimator::estimate_cells_into
//! features  FeatureExtractor::extract_column_with (one span per column)
//! nn        FrozenColumnwise::predict_proba_from_inputs
//! crf       LinearChainCrf::viterbi_flat
//! ```
//!
//! Its stitched output must equal the engine's batched output bit for bit,
//! which is what makes the per-layer times a breakdown of the real work.

use crate::stats::{host_speed, median, Checks};
use crate::Outcome;
use sato::{
    types_from_proba, unary_from_proba, SatoPredictor, TableInputs, TablePrediction, TopicSampler,
};
use sato_features::{FeatureExtractor, FeatureScratch};
use sato_tabular::colstore::{ColStoreError, ColStoreReader, TableBuf};
use sato_tabular::table::{Table, TableCells};
use sato_tabular::types::SemanticType;
use sato_topic::{TableIntentEstimator, TopicScratch};
use std::io::Write;
use std::time::Instant;

/// The layers the replay attributes time to (crate names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Core,
    Tabular,
    Features,
    Topic,
    Nn,
    Crf,
}

impl Layer {
    const COUNT: usize = 6;

    fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Tabular => "tabular",
            Layer::Features => "features",
            Layer::Topic => "topic",
            Layer::Nn => "nn",
            Layer::Crf => "crf",
        }
    }
}

/// One recorded span: which layer, which table (the request id) and which
/// span caused it.
struct Span {
    layer: Layer,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. A disabled tracer records nothing, so the same
/// replay code measures the untraced baseline.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; pass the result to [`Self::exit`].
    pub fn enter(&mut self, layer: Layer, request: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            request,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Run `f` inside a span with no children.
    pub fn leaf<R>(&mut self, layer: Layer, request: u64, f: impl FnOnce() -> R) -> R {
        let span = self.enter(layer, request);
        let out = f();
        self.exit(span);
        out
    }

    /// Self time per layer in µs: each span's duration minus the part its
    /// child spans cover.
    fn self_us(&self) -> [f64; Layer::COUNT] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = [0.0; Layer::COUNT];
        for (span, child) in self.spans.iter().zip(child_ns) {
            out[span.layer as usize] += (span.end_ns - span.start_ns - child) as f64 / 1e3;
        }
        out
    }

    /// Write every span as one tab-separated line: id, parent, layer,
    /// request, start and end in ns from the tracer's creation.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\trequest\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one replay produced and counted.
#[derive(Default)]
pub struct Replay {
    pub predictions: Vec<TablePrediction>,
    /// Column-wise probability rows per table, kept when the replay stops
    /// before the CRF.
    pub probs: Vec<Vec<Vec<f32>>>,
    pub tables: usize,
    pub cols: usize,
    pub chains: usize,
    pub batches: usize,
    pub wall_s: f64,
    /// Host speed measured around the replay (see `stats::host_speed`).
    pub speed: f64,
}

impl Replay {
    fn scaled_wall_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

/// The pipeline, assembled from the predictor's public parts.
pub struct Pipeline<'a> {
    predictor: &'a SatoPredictor,
    extractor: FeatureExtractor,
    intent: Option<&'a TableIntentEstimator>,
    sampler: &'a TopicSampler,
    batch_cols: usize,
    with_crf: bool,
}

/// Reusable per-replay workspaces.
#[derive(Default)]
struct Scratch {
    features: FeatureScratch,
    topic: TopicScratch,
}

impl<'a> Pipeline<'a> {
    /// The predictor's pipeline with its own sampler; `with_crf` false
    /// stops after the column-wise network (the embedding path's layers).
    pub fn new(predictor: &'a SatoPredictor, batch_cols: usize, with_crf: bool) -> Self {
        let columnwise = predictor.columnwise();
        Pipeline {
            predictor,
            extractor: FeatureExtractor::new(predictor.config().features.clone()),
            intent: columnwise
                .intent_estimator()
                .filter(|_| columnwise.uses_topic()),
            sampler: columnwise.sampler(),
            batch_cols: batch_cols.max(1),
            with_crf,
        }
    }

    /// Replay in-memory tables.
    pub fn replay_tables(&self, tables: &[Table], tracer: &mut Tracer) -> Replay {
        let start = Instant::now();
        let mut scratch = Scratch::default();
        let mut out = Replay::default();
        let mut batch: Vec<&Table> = Vec::new();
        let mut pending = 0usize;
        for table in tables {
            batch.push(table);
            pending += table.num_columns();
            if pending >= self.batch_cols {
                self.run_batch(&batch, &mut scratch, tracer, &mut out);
                batch.clear();
                pending = 0;
            }
        }
        if !batch.is_empty() {
            self.run_batch(&batch, &mut scratch, tracer, &mut out);
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out
    }

    /// Replay SATOCOL1 shards, decoding each frame with `read_into`; as
    /// with `predict_colstore_bytes`, micro-batches never span shards.
    pub fn replay_colstore(
        &self,
        shards: &[Vec<u8>],
        tracer: &mut Tracer,
    ) -> Result<Replay, ColStoreError> {
        let start = Instant::now();
        let mut scratch = Scratch::default();
        let mut out = Replay::default();
        let mut pool: Vec<TableBuf> = Vec::new();
        for shard in shards {
            let mut reader = ColStoreReader::new(shard.as_slice())?;
            let mut used = 0usize;
            let mut pending = 0usize;
            loop {
                if used == pool.len() {
                    pool.push(TableBuf::new());
                }
                let next = reader.tables_read() as u64;
                let buf = &mut pool[used];
                if !tracer.leaf(Layer::Tabular, next, || reader.read_into(buf))? {
                    break;
                }
                pending += pool[used].num_columns();
                used += 1;
                if pending >= self.batch_cols {
                    let batch: Vec<&TableBuf> = pool[..used].iter().collect();
                    self.run_batch(&batch, &mut scratch, tracer, &mut out);
                    used = 0;
                    pending = 0;
                }
            }
            if used > 0 {
                let batch: Vec<&TableBuf> = pool[..used].iter().collect();
                self.run_batch(&batch, &mut scratch, tracer, &mut out);
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        Ok(out)
    }

    fn run_batch<T: TableCells>(
        &self,
        batch: &[&T],
        scratch: &mut Scratch,
        tracer: &mut Tracer,
        out: &mut Replay,
    ) {
        let core = tracer.enter(Layer::Core, batch[0].table_id());
        out.batches += 1;
        for &table in batch {
            let id = table.table_id();
            let topic = self.intent.map(|est| {
                let mut theta = vec![0.0f32; est.num_topics()];
                tracer.leaf(Layer::Topic, id, || {
                    est.estimate_cells_into(table, self.sampler, &mut scratch.topic, &mut theta)
                });
                theta
            });
            let n = table.cell_columns();
            let mut columns = Vec::with_capacity(n);
            for c in 0..n {
                let cells = table.cells(c);
                columns.push(tracer.leaf(Layer::Features, id, || {
                    self.extractor
                        .extract_column_with(&cells, &mut scratch.features)
                }));
            }
            let inputs = TableInputs { columns, topic };
            let probs = tracer.leaf(Layer::Nn, id, || {
                self.predictor
                    .columnwise()
                    .predict_proba_from_inputs(&inputs)
            });
            let predicted = match self.predictor.crf().filter(|_| self.with_crf && n > 0) {
                Some(crf) => {
                    let unary: Vec<f64> = probs.iter().flat_map(|p| unary_from_proba(p)).collect();
                    out.chains += 1;
                    tracer
                        .leaf(Layer::Crf, id, || crf.viterbi_flat(&unary))
                        .into_iter()
                        .map(|i| SemanticType::from_index(i).expect("CRF state is a type index"))
                        .collect()
                }
                None => types_from_proba(&probs),
            };
            out.tables += 1;
            out.cols += n;
            if !self.with_crf {
                out.probs.push(probs);
            }
            out.predictions.push(TablePrediction {
                table_id: id,
                gold: table.gold_labels().to_vec(),
                predicted,
            });
        }
        tracer.exit(core);
    }
}

/// In-vocabulary tokens the topic layer samples for `tables`, counted the
/// way the estimator encodes cells.
pub fn count_tokens(predictor: &SatoPredictor, tables: &[Table]) -> u64 {
    let Some(intent) = predictor.columnwise().intent_estimator() else {
        return 0;
    };
    let vocab = intent.model().vocabulary();
    let (mut buf, mut ids) = (String::new(), Vec::new());
    let mut total = 0u64;
    for table in tables {
        ids.clear();
        table.for_each_cell(|value| vocab.encode_value_into(value, &mut buf, &mut ids));
        total += ids.len() as u64;
    }
    total
}

/// Untraced and traced replays alternate this many times in a traced run.
const REPLAY_ROUNDS: usize = 3;

/// The fastest traced of [`REPLAY_ROUNDS`] replays, and the tracing
/// overhead: the median over the rounds of a traced replay's time against
/// the untraced replay just before it, so that slow drift of the host's
/// speed cancels.
pub struct Traced {
    traced: Replay,
    tracer: Tracer,
    overhead_pct: f64,
}

/// Run the replay untraced and traced, alternately, checking every output
/// with `matches`.
pub fn replay_rounds(
    mut replay: impl FnMut(&mut Tracer) -> Replay,
    matches: impl Fn(&Replay) -> bool,
    checks: &mut Checks,
) -> Traced {
    let mut timed = |tracer: &mut Tracer| {
        let before = host_speed();
        let mut r = replay(tracer);
        r.speed = (before + host_speed()) / 2.0;
        r
    };
    let mut best: Option<(Replay, Tracer)> = None;
    let mut overheads = Vec::with_capacity(REPLAY_ROUNDS);
    for _ in 0..REPLAY_ROUNDS {
        let untraced = timed(&mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = timed(&mut tracer);
        for r in [&untraced, &traced] {
            checks.check(matches(r), || {
                "traced replay output differs from the batched output".into()
            });
        }
        overheads
            .push((traced.scaled_wall_s() / untraced.scaled_wall_s().max(1e-12) - 1.0) * 100.0);
        if best
            .as_ref()
            .is_none_or(|(b, _)| traced.scaled_wall_s() < b.scaled_wall_s())
        {
            best = Some((traced, tracer));
        }
    }
    let (traced, tracer) = best.expect("at least one replay round");
    Traced {
        traced,
        tracer,
        overhead_pct: median(&overheads),
    }
}

impl Traced {
    /// Set the per-layer metrics on `outcome` and hand it the spans.
    /// `e2e_us_per_table` is the workload's untraced end-to-end time per
    /// table; what the layer self-times leave of it is the unattributed
    /// remainder.
    pub fn report(self, tokens: u64, e2e_us_per_table: f64, outcome: &mut Outcome) {
        layer_metrics(
            &self.traced,
            self.overhead_pct,
            &self.tracer,
            tokens,
            e2e_us_per_table,
            &mut |name, value| outcome.set_layer(name, value),
        );
        outcome.tracer = Some(self.tracer);
    }
}

/// The per-layer metrics of one traced replay; `overhead_pct` is the cost
/// of the spans themselves.
fn layer_metrics(
    traced: &Replay,
    overhead_pct: f64,
    tracer: &Tracer,
    tokens: u64,
    e2e_us_per_table: f64,
    set: &mut impl FnMut(&'static str, f64),
) {
    let us = tracer.self_us().map(|u| u * traced.speed);
    let tables = traced.tables.max(1) as f64;
    let cols = traced.cols.max(1) as f64;
    let layer = |l: Layer| us[l as usize];
    set(
        "tabular.decode_us_per_table",
        layer(Layer::Tabular) / tables,
    );
    set("features.us_per_col", layer(Layer::Features) / cols);
    set("topic.us_per_table", layer(Layer::Topic) / tables);
    set("topic.tokens_per_table", tokens as f64 / tables);
    set(
        "topic.ns_per_token",
        layer(Layer::Topic) * 1e3 / tokens.max(1) as f64,
    );
    set("nn.us_per_col", layer(Layer::Nn) / cols);
    set(
        "crf.us_per_chain",
        layer(Layer::Crf) / traced.chains.max(1) as f64,
    );
    set("core.batches", traced.batches as f64);
    set("core.cols_per_batch", cols / traced.batches.max(1) as f64);
    let attributed = [
        Layer::Tabular,
        Layer::Features,
        Layer::Topic,
        Layer::Nn,
        Layer::Crf,
    ]
    .iter()
    .map(|&l| layer(l))
    .sum::<f64>();
    set(
        "core.unattributed_us_per_table",
        e2e_us_per_table - attributed / tables,
    );
    set("trace.overhead_pct", overhead_pct);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let parent = tracer.enter(Layer::Core, 1);
        tracer.leaf(Layer::Topic, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.exit(parent);
        let us = tracer.self_us();
        assert!(us[Layer::Topic as usize] >= 5_000.0);
        assert!(us[Layer::Core as usize] < us[Layer::Topic as usize]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let span = tracer.enter(Layer::Core, 1);
        tracer.exit(span);
        assert!(tracer.spans.is_empty());
    }
}
