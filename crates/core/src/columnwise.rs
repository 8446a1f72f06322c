//! The column-wise prediction models: the Sherlock-style **Base** network
//! (Section 3.1) and its **topic-aware** extension (Section 3.2), which are
//! the same multi-input architecture with and without the additional topic
//! subnetwork.
//!
//! Architecture (following the paper): every high-dimensional feature group
//! (Char, Word, Para and, for topic-aware models, Topic) passes through its
//! own compression subnetwork; the 27 Stat features are concatenated
//! directly; the concatenation feeds a primary network of two
//! fully-connected ReLU layers with BatchNorm and Dropout, followed by a
//! 78-way output layer with softmax.
//!
//! The training and serving API surfaces are distinct: [`ColumnwiseTrainer`]
//! is the `&mut self` fitting interface and [`ColumnwiseInference`] the
//! `&self` per-table prediction interface. Fitting a [`ColumnwiseModel`]
//! ends in an immutable [`FrozenColumnwise`] that holds no training-time
//! state and serves every prediction through one batched engine (driven
//! by `SatoPredictor`); the same engine's fill stage builds the training
//! rows. [`FrozenColumnwise::extract_inputs`] and the `*_from_inputs`
//! methods are its per-table oracle.

use crate::config::SatoConfig;
use crate::dataset::{Standardizer, TableInputs, TrainingData};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sato_features::{FeatureExtractor, FeatureGroup, FeatureScratch};
use sato_nn::layers::{BatchNorm, Dense, Dropout, Layer, ReLU};
use sato_nn::loss::{argmax_row, softmax_cross_entropy, softmax_in_place};
use sato_nn::network::{MultiInferScratch, MultiInputNetwork, Sequential};
use sato_nn::optim::Adam;
use sato_nn::serialize::{LoadError, StateDict};
use sato_nn::Matrix;
use sato_tabular::table::{Corpus, Table, TableCells};
use sato_tabular::types::{SemanticType, NUM_TYPES};
use sato_topic::{SamplerKind, TableIntentEstimator, TopicSampler, TopicScratch};
use std::collections::{HashMap, VecDeque};

/// Per-column hard predictions from probability rows (row-wise argmax).
pub fn types_from_proba(proba: &[Vec<f32>]) -> Vec<SemanticType> {
    proba
        .iter()
        .map(|p| SemanticType::from_index(argmax_row(p)).expect("class index in range"))
        .collect()
}

/// Per-column hard predictions from a row range of a flat probability
/// matrix — the batched counterpart of [`types_from_proba`].
pub(crate) fn types_from_rows(proba: &Matrix, start: usize, end: usize) -> Vec<SemanticType> {
    (start..end)
        .map(|r| SemanticType::from_index(argmax_row(proba.row(r))).expect("class index in range"))
        .collect()
}

/// The `&self` **inference** interface of a single-column (column-wise)
/// predictor: the pluggable slot of Sato's extensible architecture (the
/// paper swaps the Sherlock model for BERT in Section 6 without touching the
/// rest). Everything here is read-only, so a trained predictor can be shared
/// across threads.
pub trait ColumnwiseInference {
    /// Per-column class probabilities for every column of `table`
    /// (each inner vector has [`NUM_TYPES`] entries summing to one).
    fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>>;

    /// Per-column hard predictions.
    fn predict_types(&self, table: &Table) -> Vec<SemanticType> {
        types_from_proba(&self.predict_proba(table))
    }
}

/// The `&mut self` **training** interface of a column-wise predictor,
/// deliberately separate from [`ColumnwiseInference`]: fitting mutates
/// (optimiser state, activation caches, RNG streams), serving must not.
pub trait ColumnwiseTrainer {
    /// Train on a labelled corpus, returning the per-epoch loss history.
    fn fit(&mut self, corpus: &Corpus) -> &[f32];
}

/// Build the Sherlock/Sato multi-input network (branch subnetworks + primary
/// trunk) and its classification head for the given feature-group widths.
///
/// Shared by training (fresh random weights that are then fitted) and by
/// predictor deserialization (fresh weights immediately overwritten by a
/// state dict), so both paths agree on the architecture.
pub(crate) fn build_network(config: &SatoConfig, widths: &[usize]) -> (MultiInputNetwork, Dense) {
    let cfg = &config.network;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut branches = Vec::new();
    let mut concat_dim = 0usize;
    // Branch order mirrors fill_batch_groups: Char, Word, Para, Stat [, Topic].
    for (i, &w) in widths.iter().enumerate() {
        let is_stat = i == FeatureGroup::ALL.len() - 1; // Stat is the 4th group
        if is_stat {
            branches.push(Sequential::new());
            concat_dim += w;
        } else {
            branches.push(
                Sequential::new()
                    .push(Dense::new(w, cfg.subnetwork_dim, &mut rng))
                    .push(ReLU::new())
                    .push(Dropout::new(
                        cfg.dropout,
                        StdRng::seed_from_u64(config.seed ^ (i as u64 + 1)),
                    )),
            );
            concat_dim += cfg.subnetwork_dim;
        }
    }
    let trunk = Sequential::new()
        .push(Dense::new(concat_dim, cfg.hidden_dim, &mut rng))
        .push(ReLU::new())
        .push(BatchNorm::new(cfg.hidden_dim))
        .push(Dropout::new(
            cfg.dropout,
            StdRng::seed_from_u64(config.seed ^ 0x100),
        ))
        .push(Dense::new(cfg.hidden_dim, cfg.hidden_dim, &mut rng))
        .push(ReLU::new())
        .push(BatchNorm::new(cfg.hidden_dim))
        .push(Dropout::new(
            cfg.dropout,
            StdRng::seed_from_u64(config.seed ^ 0x200),
        ));
    let head = Dense::new(cfg.hidden_dim, NUM_TYPES, &mut rng);
    (MultiInputNetwork::new(branches, trunk), head)
}

/// The Sherlock/Sato column-wise neural model (training-capable). Fitting
/// ends in a [`FrozenColumnwise`], and every prediction runs through it;
/// its topic vectors are the fold-in estimates the network was trained on.
pub struct ColumnwiseModel {
    config: SatoConfig,
    use_topic: bool,
    /// The trained model (`None` until [`ColumnwiseTrainer::fit`]).
    trained: Option<FrozenColumnwise>,
    loss_history: Vec<f32>,
}

impl ColumnwiseModel {
    /// Create an untrained Base model (no topic subnetwork).
    pub fn base(config: SatoConfig) -> Self {
        Self::new(config, false)
    }

    /// Create an untrained topic-aware model.
    pub fn topic_aware(config: SatoConfig) -> Self {
        Self::new(config, true)
    }

    fn new(config: SatoConfig, use_topic: bool) -> Self {
        ColumnwiseModel {
            config,
            use_topic,
            trained: None,
            loss_history: Vec::new(),
        }
    }

    /// Whether this model uses the table topic vector (global context).
    pub fn uses_topic(&self) -> bool {
        self.use_topic
    }

    /// Whether the model has been trained.
    pub fn is_trained(&self) -> bool {
        self.trained.is_some()
    }

    /// Mean training loss per epoch (available after [`ColumnwiseTrainer::fit`]).
    pub fn loss_history(&self) -> &[f32] {
        &self.loss_history
    }

    /// The table intent estimator (present after training a topic-aware model).
    pub fn intent_estimator(&self) -> Option<&TableIntentEstimator> {
        self.trained.as_ref()?.intent_estimator()
    }

    fn trained(&self) -> &FrozenColumnwise {
        self.trained.as_ref().expect("model must be trained first")
    }

    /// Column embeddings (the final hidden representation before the output
    /// layer), used by the Col2Vec analysis of Section 5.6 / Figure 10: a
    /// batch of one through the batched engine.
    pub fn column_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        let mut scratch = ServingScratch::new();
        self.trained().run_batch(&[table], &mut scratch, false);
        matrix_rows(scratch.embeddings())
    }

    /// Snapshot the trained model into an immutable [`FrozenColumnwise`]
    /// without consuming it (parameters and running statistics are copied).
    ///
    /// Panics if the model has not been trained.
    pub fn freeze(&self) -> FrozenColumnwise {
        self.trained().snapshot(&self.config)
    }

    /// Consume the trained model into the immutable [`FrozenColumnwise`] it
    /// predicts through, moving the network weights instead of copying
    /// them.
    ///
    /// Panics if the model has not been trained.
    pub fn into_frozen(self) -> FrozenColumnwise {
        self.trained.expect("model must be trained first")
    }
}

impl ColumnwiseTrainer for ColumnwiseModel {
    /// Train on a labelled corpus. For topic-aware models the table intent
    /// estimator (LDA) is pre-trained on the same corpus first, using only
    /// cell values.
    fn fit(&mut self, corpus: &Corpus) -> &[f32] {
        self.fit_rows(corpus);
        &self.loss_history
    }
}

impl ColumnwiseModel {
    /// [`ColumnwiseTrainer::fit`], returning the standardised training rows
    /// the network was fitted on.
    pub(crate) fn fit_rows(&mut self, corpus: &Corpus) -> TrainingData {
        self.config.network.validate();
        let extractor = FeatureExtractor::new(self.config.features.clone());
        let intent = self
            .use_topic
            .then(|| TableIntentEstimator::fit(corpus, self.config.lda.clone()));
        // Train on what is served: the topic group comes from the
        // estimator the frozen model serves.
        let mut data = TrainingData::build(corpus, &extractor, intent.as_ref());
        assert!(!data.is_empty(), "cannot train on an empty corpus");
        // Standardise every feature group (Sherlock-style preprocessing); the
        // fitted scalers are reused at prediction time.
        let scalers = Standardizer::fit_groups(&data.groups);
        Standardizer::transform_groups_in_place(&scalers, &mut data.groups);
        let group_widths = data.group_widths();
        let (mut net, mut head) = build_network(&self.config, &group_widths);

        let cfg = &self.config.network;
        let mut adam = Adam::new(cfg.learning_rate, cfg.weight_decay);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xbeef);
        let mut indices: Vec<usize> = (0..data.len()).collect();
        self.loss_history.clear();

        for _epoch in 0..cfg.epochs {
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch_idx in indices.chunks(cfg.batch_size) {
                let (groups, labels) = data.batch(batch_idx);
                let embedding = net.forward(&groups);
                let logits = head.forward(&embedding);
                let out = softmax_cross_entropy(&logits, &labels);
                let grad_embed = head.backward(&out.grad_logits);
                net.backward(&grad_embed);
                let mut params = net.params_mut();
                params.extend(head.params_mut());
                adam.step(&mut params);
                epoch_loss += out.loss;
                batches += 1;
            }
            self.loss_history.push(epoch_loss / batches.max(1) as f32);
        }
        self.trained = Some(FrozenColumnwise {
            use_topic: self.use_topic,
            extractor,
            intent,
            net,
            head,
            scalers,
            group_widths,
        });
        data
    }
}

impl ColumnwiseInference for ColumnwiseModel {
    fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
        self.trained().predict_proba(table)
    }
}

/// One `Vec` per row of a matrix.
pub(crate) fn matrix_rows(m: &Matrix) -> Vec<Vec<f32>> {
    (0..m.rows()).map(|r| m.row(r).to_vec()).collect()
}

/// Default capacity (distinct table contents) of the opt-in topic memo
/// enabled by [`ServingScratch::with_topic_memo`].
pub const DEFAULT_TOPIC_MEMO_CAPACITY: usize = 4096;

/// Bounded topic cache keyed by table **content**: the table's encoded
/// token ids, which are all the fold-in estimate depends on. Entries are
/// found by an FNV-1a hash of the ids and confirmed by comparing the
/// stored ids, so a hit is exact. When a new
/// entry would exceed the capacity, the **oldest inserted** one is evicted
/// (FIFO — O(1), deterministic, no recency bookkeeping on the hit path).
struct TopicMemo {
    map: HashMap<u64, (Box<[usize]>, Vec<f32>)>,
    order: VecDeque<u64>,
    capacity: usize,
    /// Content hash of the artifact whose topic vectors are cached here
    /// (`None` until the first serve). The same tokens yield different
    /// topics under different artifacts, so entries cached under another
    /// artifact are cleared rather than replayed (see
    /// [`ServingScratch::bind_artifact`]).
    artifact: Option<u64>,
}

impl TopicMemo {
    fn new(capacity: usize) -> Self {
        TopicMemo {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            artifact: None,
        }
    }

    fn key(tokens: &[usize]) -> u64 {
        let mut hash = sato_kernels::Fnv1a::new();
        for &token in tokens {
            hash.write(&(token as u64).to_le_bytes());
        }
        hash.finish()
    }

    fn get(&self, tokens: &[usize]) -> Option<&[f32]> {
        match self.map.get(&Self::key(tokens)) {
            Some((stored, theta)) if **stored == *tokens => Some(theta),
            _ => None,
        }
    }

    fn insert(&mut self, tokens: Box<[usize]>, theta: Vec<f32>) {
        let key = Self::key(&tokens);
        if self.map.insert(key, (tokens, theta)).is_some() {
            return; // replaced an entry under this key; insertion order unchanged
        }
        if self.map.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.order.push_back(key);
    }
}

/// Reusable workspace for the corpus-batched serving path: feature
/// extraction buffers, per-group batch input matrices, the network's
/// ping-pong activation buffers, the flat probability matrix and the CRF
/// unary buffer. One scratch serves any number of micro-batches; after the
/// first batch has warmed the buffers, a batch's only steady-state
/// allocations are its per-table outputs.
#[derive(Default)]
pub struct ServingScratch {
    features: FeatureScratch,
    /// Fold-in buffers of table-topic estimation.
    topic: TopicScratch,
    /// Vocabulary ids of the current table's tokens, in column order: the
    /// topic document, read off the feature scratch's token table.
    topic_ids: Vec<usize>,
    /// The current table's topic vector, reused across tables.
    topic_vec: Vec<f32>,
    /// Opt-in bounded memo of table content → topic vector (see
    /// [`Self::with_topic_memo`]).
    topic_memo: Option<TopicMemo>,
    net: MultiInferScratch,
    /// Per-group network input rows of the last batch (see
    /// [`fill_batch_groups`]).
    pub(crate) groups: Vec<Matrix>,
    /// Row-major column embeddings of the last batch (one row per column
    /// across all tables of the batch; the head reads it, never writes it).
    pub(crate) embedding: Matrix,
    /// Flat row-major probability matrix of the last batch (one row per
    /// column across all tables of the batch).
    pub(crate) probs: Matrix,
    /// Flat unary-potential buffer for CRF decoding.
    pub(crate) unary: Vec<f64>,
}

impl ServingScratch {
    /// A fresh workspace with empty (but growable) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable the topic memo with the default capacity
    /// ([`DEFAULT_TOPIC_MEMO_CAPACITY`] distinct tables): the topic vector
    /// of every table is cached in this scratch and reused when a table with
    /// the same content is served again, skipping the LDA fold-in for
    /// repeated tables — the common shape
    /// of a serving loop that re-predicts a slowly-changing corpus.
    ///
    /// The memo is keyed by the table's encoded cell content, not its id, so
    /// a hit returns exactly the vector a fresh estimate would. Every entry
    /// point binds the memo to the serving predictor's content hash first,
    /// clearing entries cached under a different artifact (hot-swap, or one
    /// scratch shared across predictors).
    pub fn with_topic_memo(self) -> Self {
        self.with_topic_memo_capacity(DEFAULT_TOPIC_MEMO_CAPACITY)
    }

    /// [`Self::with_topic_memo`] with an explicit capacity (clamped to at
    /// least 1). When a new table would exceed it, the oldest *inserted*
    /// entry is evicted (FIFO), bounding memory on long-lived serving loops
    /// that see an unbounded stream of distinct tables; evicted tables are
    /// simply re-estimated on their next serve.
    pub fn with_topic_memo_capacity(mut self, capacity: usize) -> Self {
        self.topic_memo = Some(TopicMemo::new(capacity));
        self
    }

    /// Number of distinct table contents currently memoised (0 when the
    /// memo is disabled).
    pub fn topic_memo_len(&self) -> usize {
        self.topic_memo.as_ref().map_or(0, |m| m.map.len())
    }

    /// The memo's entry capacity (0 when the memo is disabled).
    pub fn topic_memo_capacity(&self) -> usize {
        self.topic_memo.as_ref().map_or(0, |m| m.capacity)
    }

    /// The column embeddings of the **last batch** run through this
    /// scratch: one row per column, table after table in batch order (the
    /// final hidden representation before the output layer). Predicting
    /// computes them on the way to the probabilities, so an
    /// annotate-and-index pipeline reads them here (from the batch observer
    /// of `SatoPredictor::predict_tables_batched`) without a second forward
    /// pass. An empty batch leaves a 0-row matrix.
    pub fn embeddings(&self) -> &Matrix {
        &self.embedding
    }

    /// Bind the topic memo to the artifact identified by `content_hash`
    /// (called by the batch former before a batch runs):
    /// entries cached under a **different** artifact are cleared, so a
    /// scratch that outlives a hot-swap — the long-lived worker shape of
    /// `sato-serve` — re-estimates every table under the new artifact
    /// instead of replaying the old one's stale topic vectors. No-op when
    /// the memo is disabled or already bound to this artifact.
    pub(crate) fn bind_artifact(&mut self, content_hash: u64) {
        if let Some(memo) = &mut self.topic_memo {
            if memo.artifact != Some(content_hash) {
                memo.map.clear();
                memo.order.clear();
                memo.artifact = Some(content_hash);
            }
        }
    }
}

/// The immutable, `Send + Sync` inference core of a trained column-wise
/// model: feature extractor, optional topic estimator, fitted standardizers
/// and the network weights — and nothing else. No optimiser state, no
/// activation caches, no RNG; every method takes `&self`.
pub struct FrozenColumnwise {
    use_topic: bool,
    extractor: FeatureExtractor,
    intent: Option<TableIntentEstimator>,
    net: MultiInputNetwork,
    head: Dense,
    scalers: Vec<Standardizer>,
    group_widths: Vec<usize>,
}

impl FrozenColumnwise {
    /// Whether the frozen model consumes the table topic vector.
    pub fn uses_topic(&self) -> bool {
        self.use_topic
    }

    /// The table intent estimator (present for topic-aware models).
    pub fn intent_estimator(&self) -> Option<&TableIntentEstimator> {
        self.intent.as_ref()
    }

    /// The topic estimator this model serves: always the fold-in. Only the
    /// benchmark crate still names it.
    pub fn sampler_kind(&self) -> SamplerKind {
        SamplerKind::FoldIn
    }

    /// The stateless [`TopicSampler`] that
    /// [`TableIntentEstimator::estimate_cells_into`] takes. Only the
    /// benchmark crate still names it.
    pub fn sampler(&self) -> &TopicSampler {
        &TopicSampler
    }

    /// The per-group input widths the network was trained with.
    pub fn group_widths(&self) -> &[usize] {
        &self.group_widths
    }

    /// The per-table oracle's first half: extract a table's network inputs
    /// (features + topic vector) into per-column vectors. With
    /// [`Self::predict_proba_from_inputs`] or
    /// [`Self::column_embeddings_from_inputs`] it is an allocating
    /// per-table path independent of the batched engine, which parity tests
    /// check the engine against; the permutation-importance analysis
    /// shuffles feature groups between the two calls.
    pub fn extract_inputs(&self, table: &Table) -> TableInputs {
        TableInputs {
            columns: self.extractor.extract_table(table),
            topic: self.intent.as_ref().map(|est| est.estimate(table)),
        }
    }

    /// Evaluation-mode forward pass on pre-extracted inputs, returning the
    /// per-column probability rows (the per-table oracle; serving runs the
    /// batched engine instead).
    pub fn predict_proba_from_inputs(&self, inputs: &TableInputs) -> Vec<Vec<f32>> {
        self.infer_rows(inputs, true)
    }

    /// The column embeddings of pre-extracted inputs: the per-table oracle
    /// counterpart of [`Self::predict_proba_from_inputs`].
    pub fn column_embeddings_from_inputs(&self, inputs: &TableInputs) -> Vec<Vec<f32>> {
        self.infer_rows(inputs, false)
    }

    /// Evaluation-mode forward pass over one table's pre-extracted inputs:
    /// the allocating per-table path behind the oracle methods above. Its
    /// input path (`TableInputs::to_matrices`, then standardisation) is
    /// independent of the batched engine's fill stage, so it can check it.
    /// Returns the column embeddings, or the probability rows with `head`.
    fn infer_rows(&self, inputs: &TableInputs, head: bool) -> Vec<Vec<f32>> {
        if inputs.columns.is_empty() {
            return Vec::new();
        }
        let mut groups = inputs.to_matrices(self.use_topic);
        Standardizer::transform_groups_in_place(&self.scalers, &mut groups);
        matrix_rows(&self.infer_standardized(&groups, head))
    }

    /// The batched inference engine: run the column-wise network over
    /// **many tables at once**. Every column of every table becomes one row
    /// of one input matrix per feature group ([`fill_batch_groups`]), the
    /// rows are standardized in place, the trunk runs a single forward pass
    /// into `scratch.embedding` (the column embeddings of Section 5.6),
    /// and — when `head` is set — the classification head and softmax
    /// leave one probability row per column in `scratch.probs`, table after
    /// table in order. Without `head` the probabilities are never computed.
    ///
    /// Row-major batching is exact: every stage of the eval-mode pipeline
    /// (standardisation, dense layers, ReLU, BatchNorm running statistics,
    /// softmax) operates row-independently, so a table's rows do not depend
    /// on what else shares its batch.
    ///
    /// Generic over any [`TableCells`] source, so in-memory tables and
    /// decoded colstore frames share this one code path; cells visit in the
    /// identical column/row order for every source.
    pub(crate) fn run_batch<S: TableCells>(
        &self,
        tables: &[S],
        scratch: &mut ServingScratch,
        head: bool,
    ) {
        let topic = self.use_topic.then(|| {
            let intent = self.intent.as_ref();
            intent.expect("topic-aware model carries an intent estimator")
        });
        if !fill_batch_groups(&self.extractor, topic, &self.group_widths, tables, scratch) {
            scratch.embedding.resize(0, 0);
            scratch.probs.resize(0, NUM_TYPES);
            return;
        }
        Standardizer::transform_groups_in_place(&self.scalers, &mut scratch.groups);
        self.net
            .infer_with(&scratch.groups, &mut scratch.net, &mut scratch.embedding);
        if head {
            self.head.infer_into(&scratch.embedding, &mut scratch.probs);
            softmax_in_place(&mut scratch.probs);
        }
    }

    /// The net → head → softmax pass over already standardised network
    /// inputs, through fresh buffers: the column embeddings, or the
    /// probability rows with `head`. Rows are independent, so each equals
    /// the row [`Self::run_batch`] gives the same column.
    pub(crate) fn infer_standardized(&self, groups: &[Matrix], head: bool) -> Matrix {
        let mut embedding = Matrix::default();
        self.net
            .infer_with(groups, &mut MultiInferScratch::new(), &mut embedding);
        if !head {
            return embedding;
        }
        let mut probs = Matrix::default();
        self.head.infer_into(&embedding, &mut probs);
        softmax_in_place(&mut probs);
        probs
    }

    /// A copy of this model (parameters and running statistics copied
    /// through their state dicts).
    pub(crate) fn snapshot(&self, config: &SatoConfig) -> Self {
        Self::from_state(
            config,
            self.use_topic,
            self.intent.clone(),
            self.scalers.clone(),
            self.group_widths.clone(),
            &self.net_state(),
            &self.head_state(),
        )
        .expect("snapshot of an identical architecture cannot fail")
    }

    /// State dict of the multi-input network (for serialization).
    pub(crate) fn net_state(&self) -> StateDict {
        self.net.state_dict()
    }

    /// State dict of the classification head (for serialization): its
    /// `[W, b]` tensors and no buffers.
    pub(crate) fn head_state(&self) -> StateDict {
        StateDict::capture(&[&self.head])
    }

    /// Scalers fitted on the training data (for serialization).
    pub(crate) fn scalers(&self) -> &[Standardizer] {
        &self.scalers
    }

    /// Rebuild a frozen core from its serialized parts: the architecture is
    /// reconstructed from `config` + `group_widths` and the weights (and
    /// BatchNorm running statistics) loaded from the state dicts.
    pub(crate) fn from_state(
        config: &SatoConfig,
        use_topic: bool,
        intent: Option<TableIntentEstimator>,
        scalers: Vec<Standardizer>,
        group_widths: Vec<usize>,
        net_state: &StateDict,
        head_state: &StateDict,
    ) -> Result<Self, LoadError> {
        let (mut net, mut head) = build_network(config, &group_widths);
        net.load_state_dict(net_state)?;
        head_state.load_into(&mut [&mut head])?;
        Ok(FrozenColumnwise {
            use_topic,
            extractor: FeatureExtractor::new(config.features.clone()),
            intent,
            net,
            head,
            scalers,
            group_widths,
        })
    }
}

impl ColumnwiseInference for FrozenColumnwise {
    /// A batch of one through the batched engine.
    fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
        let mut scratch = ServingScratch::new();
        self.run_batch(&[table], &mut scratch, true);
        matrix_rows(&scratch.probs)
    }
}

/// The fill stage: the one code path that turns tables into network input
/// rows. Fills `scratch.groups` (one matrix per width of `widths`) with one
/// unstandardized row per column across all `tables`, the topic vector —
/// when `topic` names an estimator — replicated across
/// each table's rows. Serving standardizes the rows next
/// ([`FrozenColumnwise::run_batch`]); training fits its standardizers on
/// them first ([`TrainingData::build`]). Returns `false` — leaving the
/// group matrices untouched — when the batch carries no columns at all.
pub(crate) fn fill_batch_groups<S: TableCells>(
    extractor: &FeatureExtractor,
    topic: Option<&TableIntentEstimator>,
    widths: &[usize],
    tables: &[S],
    scratch: &mut ServingScratch,
) -> bool {
    let total_rows: usize = tables.iter().map(|t| t.cell_columns()).sum();
    if total_rows == 0 {
        return false;
    }
    scratch.groups.resize_with(widths.len(), Matrix::default);
    for (group, &w) in scratch.groups.iter_mut().zip(widths) {
        group.resize(total_rows, w);
    }

    // Features are extracted straight into the matrix rows (no per-column
    // feature vectors). One tokenizer pass per column fills the batch's
    // token table, whose vocabulary ids make up the table's topic document
    // (the ids `TableIntentEstimator::encode_cells` gives); the topic
    // vector estimated from them is replicated across the table's rows.
    extractor.begin_batch(&mut scratch.features);
    let mut row = 0usize;
    for table in tables {
        // Named injection point `core.feature_extract`, keyed by table
        // id (chaos builds only). There is no error channel this deep
        // in a prediction, so an armed Error escalates to a panic —
        // the serving layer contains it and quarantines the culprit.
        #[cfg(feature = "faults")]
        sato_faults::fire_panic("core.feature_extract", table.table_id());
        let first_row = row;
        scratch.topic_ids.clear();
        for c in 0..table.cell_columns() {
            let [g_char, g_word, g_para, g_stat, ..] = &mut scratch.groups[..] else {
                unreachable!("batch matrices cover the four feature groups");
            };
            extractor.extract_batch_column_into(
                &table.cells(c),
                &mut scratch.features,
                |token| topic.and_then(|est| est.token_id(token)),
                g_char.row_mut(row),
                g_word.row_mut(row),
                g_para.row_mut(row),
                g_stat.row_mut(row),
            );
            if topic.is_some() {
                let ids = scratch.features.tokens().column_vocab_ids();
                scratch.topic_ids.extend(ids);
            }
            row += 1;
        }
        // A table without columns has no rows to give a topic vector.
        if let Some(est) = topic.filter(|_| row > first_row) {
            estimate_topic(est, scratch);
            let topic_group = &mut scratch.groups[FeatureGroup::ALL.len()];
            for r in first_row..row {
                topic_group.row_mut(r).copy_from_slice(&scratch.topic_vec);
            }
        }
    }
    true
}

/// Estimate the topic vector of the table whose ids are in
/// `scratch.topic_ids` into `scratch.topic_vec`, through the scratch's topic
/// memo when it has one.
fn estimate_topic(est: &TableIntentEstimator, scratch: &mut ServingScratch) {
    let ServingScratch {
        topic,
        topic_ids,
        topic_vec,
        topic_memo,
        ..
    } = scratch;
    topic_vec.clear();
    topic_vec.resize(est.num_topics(), 0.0);
    if let Some(hit) = topic_memo.as_ref().and_then(|memo| memo.get(topic_ids)) {
        topic_vec.copy_from_slice(hit);
        return;
    }
    est.infer_ids_into(topic_ids, topic, topic_vec);
    if let Some(memo) = topic_memo {
        memo.insert(Box::from(&topic_ids[..]), topic_vec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato_tabular::corpus::default_corpus;

    fn train_small(use_topic: bool) -> (ColumnwiseModel, Corpus) {
        let corpus = default_corpus(60, 11);
        let mut model = if use_topic {
            ColumnwiseModel::topic_aware(SatoConfig::fast())
        } else {
            ColumnwiseModel::base(SatoConfig::fast())
        };
        model.fit(&corpus);
        (model, corpus)
    }

    #[test]
    fn base_model_trains_and_loss_decreases() {
        let (model, _) = train_small(false);
        let history = model.loss_history();
        assert!(!history.is_empty());
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "loss did not decrease: {history:?}"
        );
        assert!(model.is_trained());
        assert!(!model.uses_topic());
        assert!(model.intent_estimator().is_none());
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_size_panics_naming_the_field() {
        let mut config = SatoConfig::fast();
        config.network.batch_size = 0;
        ColumnwiseModel::base(config).fit(&default_corpus(4, 1));
    }

    #[test]
    fn topic_model_trains_with_intent_estimator() {
        let (model, _) = train_small(true);
        assert!(model.uses_topic());
        assert!(model.intent_estimator().is_some());
    }

    #[test]
    fn probabilities_are_normalised_per_column() {
        let (model, corpus) = train_small(false);
        let table = &corpus.tables[0];
        let probs = model.predict_proba(table);
        assert_eq!(probs.len(), table.num_columns());
        for p in probs {
            assert_eq!(p.len(), NUM_TYPES);
            let s: f32 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn predictions_beat_chance_on_training_data() {
        let (model, corpus) = train_small(false);
        let mut correct = 0usize;
        let mut total = 0usize;
        for table in corpus.iter().take(30) {
            let preds = model.predict_types(table);
            correct += preds
                .iter()
                .zip(&table.labels)
                .filter(|(a, b)| a == b)
                .count();
            total += table.labels.len();
        }
        let acc = correct as f32 / total as f32;
        assert!(
            acc > 0.3,
            "training accuracy {acc} barely above chance (1/78)"
        );
    }

    #[test]
    fn column_embeddings_have_hidden_dim() {
        let (model, corpus) = train_small(false);
        let table = &corpus.tables[1];
        let emb = model.column_embeddings(table);
        assert_eq!(emb.len(), table.num_columns());
        assert!(emb
            .iter()
            .all(|e| e.len() == SatoConfig::fast().network.hidden_dim));
    }

    #[test]
    fn prediction_is_deterministic_in_eval_mode() {
        let (model, corpus) = train_small(false);
        let table = &corpus.tables[2];
        assert_eq!(model.predict_proba(table), model.predict_proba(table));
    }

    #[test]
    fn frozen_model_matches_source_bit_for_bit() {
        let (model, corpus) = train_small(true);
        // The snapshot serves the topic estimator the model trained and
        // predicts with, so it matches it bit for bit.
        let snapshot = model.freeze();
        assert_eq!(snapshot.sampler_kind(), SamplerKind::FoldIn);
        let embed = |frozen: &FrozenColumnwise, table: &Table| {
            let mut scratch = ServingScratch::new();
            frozen.run_batch(&[table], &mut scratch, false);
            matrix_rows(scratch.embeddings())
        };
        for table in corpus.iter().take(10) {
            let inputs = snapshot.extract_inputs(table);
            assert_eq!(
                model.predict_proba(table),
                snapshot.predict_proba_from_inputs(&inputs)
            );
            assert_eq!(model.column_embeddings(table), embed(&snapshot, table));
        }
        // Consuming freeze agrees too (moves the very same weights).
        let frozen = model.into_frozen();
        assert_eq!(frozen.sampler_kind(), SamplerKind::FoldIn);
        let table = &corpus.tables[0];
        assert_eq!(embed(&frozen, table), embed(&snapshot, table));
        assert!(frozen.uses_topic());
        assert!(frozen.intent_estimator().is_some());
    }

    /// Train on what is served. Both topic-aware variants train this
    /// column-wise model; for every training table, the standardised rows
    /// the network was fitted on (the four feature groups and the topic
    /// vector) equal, bit for bit, the rows that a predictor loaded from
    /// the trained artifact computes for that table through its served
    /// topic estimator, the fold-in over the `f32` φ table the load
    /// rebuilt from the topic–word counts.
    #[test]
    fn training_rows_equal_the_served_rows_bit_for_bit() {
        use crate::{SatoPredictor, SatoVariant};
        let corpus = default_corpus(40, 12);
        let config = SatoConfig::fast();
        let mut model = ColumnwiseModel::topic_aware(config.clone());
        let data = model.fit_rows(&corpus);
        let frozen = model.into_frozen();
        let artifact = SatoPredictor::from_parts(SatoVariant::SatoNoStruct, config, frozen, None);
        let served = SatoPredictor::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(served.sampler_kind(), SamplerKind::SparseAlias);
        assert_eq!(data.groups.len(), 5);

        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut scratch = ServingScratch::new();
        let mut row = 0;
        for (t, table) in corpus.iter().enumerate().filter(|(_, t)| t.is_labelled()) {
            served.columnwise().run_batch(&[table], &mut scratch, false);
            for c in 0..table.num_columns() {
                assert_eq!(data.table_of_row[row], t);
                for (g, (trained, served)) in data.groups.iter().zip(&scratch.groups).enumerate() {
                    assert_eq!(
                        bits(trained.row(row)),
                        bits(served.row(c)),
                        "table {t}, column {c}, group {g}"
                    );
                }
                row += 1;
            }
        }
        assert_eq!(row, data.len());
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn predicting_before_training_panics() {
        let corpus = default_corpus(3, 1);
        let model = ColumnwiseModel::base(SatoConfig::fast());
        model.predict_proba(&corpus.tables[0]);
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn freezing_before_training_panics() {
        ColumnwiseModel::base(SatoConfig::fast()).freeze();
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn training_on_empty_corpus_panics() {
        let mut model = ColumnwiseModel::base(SatoConfig::fast());
        model.fit(&Corpus::new(vec![]));
    }

    /// Cell words of the generated tables: tokens shared across tables and
    /// cases, case-fold corner cases (word-final Σ, the Kelvin sign, İ), a
    /// token the topic vocabulary lacks, and separator-only or empty words.
    const WORDS: &[&str] = &[
        "Warsaw",
        "WARSAW",
        "london",
        "1,777,972",
        "3.5 MB",
        "ΟΔΟΣ",
        "Οδός",
        "ΣΟΦΙΑ",
        "\u{212A}elvin",
        "kelvin",
        "\u{0130}stanbul",
        "istanbul",
        "Rock",
        "jazz",
        "qqzzx",
        "--",
        "",
        " , ",
    ];

    /// A topic estimator whose vocabulary knows most of [`WORDS`].
    fn parity_topic() -> &'static TableIntentEstimator {
        static TOPIC: std::sync::OnceLock<TableIntentEstimator> = std::sync::OnceLock::new();
        TOPIC.get_or_init(|| {
            let mut corpus = default_corpus(30, 3);
            for id in 0..4 {
                let cells = WORDS.iter().filter(|w| **w != "qqzzx").copied();
                let column = sato_tabular::table::Column::new(cells);
                corpus
                    .tables
                    .push(Table::unlabelled(1000 + id, vec![column]));
            }
            TableIntentEstimator::fit(&corpus, sato_topic::LdaConfig::tiny())
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The engine's one tokenizer pass per column gives, bit for bit,
        /// the Word and Para rows of the per-column reference extractors,
        /// and per table the token ids of `encode_cells` (the topic memo
        /// holds each table under exactly those ids) and its topic vector,
        /// however the tables fall into micro-batches.
        #[test]
        fn engine_token_table_matches_per_column_oracles(
            shape in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(
                        proptest::collection::vec(0..WORDS.len(), 0..4),
                        0..5,
                    ),
                    0..4,
                ),
                1..8,
            ),
        ) {
            use sato_features::{reference, FeatureConfig};
            use sato_tabular::table::Column;
            let tables: Vec<Table> = shape
                .iter()
                .enumerate()
                .map(|(id, columns)| {
                    let columns = columns.iter().map(|cells| {
                        Column::new(cells.iter().map(|words| {
                            words.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" ")
                        }))
                    });
                    Table::unlabelled(id as u64, columns.collect())
                })
                .collect();
            let est = parity_topic();
            let config = FeatureConfig::small();
            let extractor = FeatureExtractor::new(config.clone());
            let mut widths: Vec<usize> = extractor.group_dims().iter().map(|&(_, w)| w).collect();
            widths.push(est.num_topics());
            let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

            for batch_cols in [1usize, 3, 256] {
                // The batch former's rule: flush once the pending tables
                // carry at least `batch_cols` columns.
                let mut batches: Vec<Vec<&Table>> = vec![Vec::new()];
                let mut pending = 0;
                for table in &tables {
                    batches.last_mut().unwrap().push(table);
                    pending += table.num_columns();
                    if pending >= batch_cols {
                        batches.push(Vec::new());
                        pending = 0;
                    }
                }
                let mut scratch = ServingScratch::new().with_topic_memo_capacity(64);
                let mut oracle_ids = std::collections::HashSet::new();
                for batch in &batches {
                    let filled = fill_batch_groups(&extractor, Some(est), &widths, batch, &mut scratch);
                    let columns: usize = batch.iter().map(|t| t.num_columns()).sum();
                    proptest::prop_assert_eq!(filled, columns > 0);
                    let mut row = 0;
                    for table in batch {
                        let ids = est.encode_cells(*table, &mut TopicScratch::new()).to_vec();
                        let memo = scratch.topic_memo.as_ref().unwrap();
                        if table.num_columns() > 0 {
                            proptest::prop_assert!(
                                memo.get(&ids).is_some(),
                                "no memo entry under the oracle ids of table {}",
                                table.id
                            );
                            oracle_ids.insert(ids);
                        }
                        let theta = est.estimate(table);
                        for column in &table.columns {
                            let want_word = reference::word_features(column, config.word_dim);
                            let want_para = reference::para_features(column, config.para_dim);
                            proptest::prop_assert_eq!(bits(scratch.groups[1].row(row)), bits(&want_word));
                            proptest::prop_assert_eq!(bits(scratch.groups[2].row(row)), bits(&want_para));
                            proptest::prop_assert_eq!(bits(scratch.groups[4].row(row)), bits(&theta));
                            row += 1;
                        }
                    }
                }
                proptest::prop_assert_eq!(scratch.topic_memo_len(), oracle_ids.len());
            }
        }
    }
}
