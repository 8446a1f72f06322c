//! Latent Dirichlet Allocation trained with collapsed Gibbs sampling.
//!
//! This replaces the gensim LDA model the paper pre-trains on 10K tables
//! (Section 4.2). Documents are tables (all cell values concatenated), the
//! number of topics is configurable (the paper uses 400; the scaled-down
//! experiments default to fewer), and inference for unseen tables runs a few
//! Gibbs sweeps against the frozen topic–word counts.

use crate::sampler::{pick_bucket, sample_discrete, SamplerKind, SparseAliasTables, TopicSampler};
use crate::vocab::Vocabulary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the LDA model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of latent topics (the paper's table-intent dimensions).
    pub num_topics: usize,
    /// Dirichlet prior on the document–topic distribution.
    pub alpha: f64,
    /// Dirichlet prior on the topic–word distribution.
    pub beta: f64,
    /// Gibbs sweeps over the training corpus.
    pub train_iterations: usize,
    /// Gibbs sweeps when inferring the topic vector of an unseen document:
    /// the first half are burn-in, the rest are averaged. Training and
    /// serving read this one value, so the network trains on topic vectors
    /// estimated with the budget it is served.
    ///
    /// The default is 10 (5 burn-in, 5 sampled), chosen on the end-to-end
    /// benchmark's `batch_annotate` workload (Full model, K = 64,
    /// sparse/alias sampler, one pinned CPU): over 12 alternating runs
    /// against the earlier 20 sweeps it annotated a median 6,271 against
    /// 5,095 tables/s (+23%) at a macro-F1 median of 0.784 against 0.779.
    /// Fewer sweeps ran faster still in a five-seed probe; they are not
    /// the default without a quality comparison over at least ten seeds.
    pub infer_iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            num_topics: 64,
            alpha: 0.1,
            beta: 0.01,
            train_iterations: 60,
            infer_iterations: 10,
            seed: 13,
        }
    }
}

impl LdaConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        LdaConfig {
            num_topics: 8,
            train_iterations: 30,
            infer_iterations: 15,
            ..LdaConfig::default()
        }
    }

    /// Panic unless the configuration describes a well-defined Gibbs
    /// sampler: at least two topics and strictly positive, finite Dirichlet
    /// priors. `alpha <= 0` or `beta <= 0` (or a NaN/infinite prior) would
    /// let NaN weights flow through the discrete sampler and silently
    /// produce garbage topic vectors.
    pub fn validate(&self) {
        assert!(self.num_topics >= 2, "need at least 2 topics");
        assert!(
            self.alpha.is_finite() && self.alpha > 0.0,
            "alpha must be a positive finite Dirichlet prior (got {})",
            self.alpha
        );
        assert!(
            self.beta.is_finite() && self.beta > 0.0,
            "beta must be a positive finite Dirichlet prior (got {})",
            self.beta
        );
    }
}

/// A trained LDA model: frozen topic–word counts plus the vocabulary, and
/// the topic–word probabilities derived from them once at construction.
#[derive(Debug, Clone)]
pub struct LdaModel {
    config: LdaConfig,
    vocab: Vocabulary,
    /// `topic_word[k * V + w]`: number of tokens of word `w` assigned to `k`.
    topic_word: Vec<u32>,
    /// `topic_totals[k]`: total tokens assigned to topic `k`.
    topic_totals: Vec<u32>,
    /// `phi[w * K + t]`: topic–word probability, word-major so the `K`
    /// lookups of one token are contiguous. Derived from the frozen counts
    /// in [`LdaModel::from_parts`]; never serialized.
    phi: Vec<f64>,
}

/// The persisted fields of [`LdaModel`]: its JSON shape, with the derived
/// φ table left out.
#[derive(Serialize, Deserialize)]
struct LdaModelRepr {
    config: LdaConfig,
    vocab: Vocabulary,
    topic_word: Vec<u32>,
    topic_totals: Vec<u32>,
}

impl Serialize for LdaModel {
    fn to_value(&self) -> serde::Value {
        LdaModelRepr {
            config: self.config.clone(),
            vocab: self.vocab.clone(),
            topic_word: self.topic_word.clone(),
            topic_totals: self.topic_totals.clone(),
        }
        .to_value()
    }
}

impl Deserialize for LdaModel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let repr = LdaModelRepr::from_value(v)?;
        LdaModel::from_parts(repr.config, repr.vocab, repr.topic_word, repr.topic_totals)
            .ok_or_else(|| serde::DeError("LDA count shapes do not match the config".into()))
    }
}

impl LdaModel {
    /// Train an LDA model on the given documents (one string per table).
    pub fn train(documents: &[String], vocab: Vocabulary, config: LdaConfig) -> Self {
        config.validate();
        let k = config.num_topics;
        let v = vocab.len().max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Encode documents.
        let docs: Vec<Vec<usize>> = documents.iter().map(|d| vocab.encode(d)).collect();

        // Training keeps the counts word-major (`word_topic[w * K + t]`), so
        // the `K` counts one token reads are contiguous; they are transposed
        // once into the topic-major layout `from_parts` takes.
        let mut word_topic = vec![0u32; v * k];
        let mut topic_totals = vec![0u32; k];
        let mut doc_topic: Vec<Vec<u32>> = docs.iter().map(|_| vec![0u32; k]).collect();
        let mut assignments: Vec<Vec<usize>> = docs
            .iter()
            .map(|doc| doc.iter().map(|_| rng.gen_range(0..k)).collect())
            .collect();

        // Initialise counts from the random assignment.
        for (d, doc) in docs.iter().enumerate() {
            for (i, &w) in doc.iter().enumerate() {
                let z = assignments[d][i];
                word_topic[w * k + z] += 1;
                topic_totals[z] += 1;
                doc_topic[d][z] += 1;
            }
        }

        let alpha = config.alpha;
        let beta = config.beta;
        let v_beta = beta * v as f64;
        let mut weights = vec![0.0f64; k];

        for _ in 0..config.train_iterations {
            for (d, doc) in docs.iter().enumerate() {
                let dt = &mut doc_topic[d];
                for (i, &w) in doc.iter().enumerate() {
                    let old = assignments[d][i];
                    let wt_row = &mut word_topic[w * k..(w + 1) * k];
                    // Remove the token from the counts.
                    wt_row[old] -= 1;
                    topic_totals[old] -= 1;
                    dt[old] -= 1;

                    // Full conditional P(z = k | rest): the weights in one
                    // zipped pass, then their sum in topic order.
                    for (((wt, &n_wt), &n_t), &n_dt) in weights
                        .iter_mut()
                        .zip(wt_row.iter())
                        .zip(&topic_totals)
                        .zip(dt.iter())
                    {
                        let phi = (n_wt as f64 + beta) / (n_t as f64 + v_beta);
                        let theta = n_dt as f64 + alpha;
                        *wt = phi * theta;
                    }
                    let mut total = 0.0;
                    for &wt in &weights {
                        total += wt;
                    }
                    let new = sample_discrete(&weights, total, &mut rng);

                    assignments[d][i] = new;
                    wt_row[new] += 1;
                    topic_totals[new] += 1;
                    dt[new] += 1;
                }
            }
        }

        let mut topic_word = vec![0u32; k * v];
        for (w, row) in word_topic.chunks_exact(k).enumerate() {
            for (t, &n) in row.iter().enumerate() {
                topic_word[t * v + w] = n;
            }
        }
        LdaModel::from_parts(config, vocab, topic_word, topic_totals)
            .expect("training builds counts of the configured shape")
    }

    /// Convenience: build the vocabulary and train in one call.
    pub fn fit(documents: &[String], min_count: usize, config: LdaConfig) -> Self {
        let vocab = Vocabulary::build(documents.iter().map(String::as_str), min_count);
        Self::train(documents, vocab, config)
    }

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.config.num_topics
    }

    /// The vocabulary the model was trained with.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &LdaConfig {
        &self.config
    }

    /// Topic–word probability `phi[k][w]`.
    pub fn phi(&self, topic: usize, word: usize) -> f64 {
        self.phi_row(word)[topic]
    }

    /// The contiguous `phi_w(·)` row of one word: its probability under
    /// each of the `K` topics.
    #[inline]
    pub(crate) fn phi_row(&self, word: usize) -> &[f64] {
        let k = self.config.num_topics;
        &self.phi[word * k..(word + 1) * k]
    }

    /// The `top_n` most probable words of a topic (for interpretation, as in
    /// Table 3 of the paper).
    pub fn top_words(&self, topic: usize, top_n: usize) -> Vec<(String, f64)> {
        let mut scored: Vec<(String, f64)> = (0..self.vocab.len())
            .map(|w| (self.vocab.token(w).unwrap().to_string(), self.phi(topic, w)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(top_n);
        scored
    }

    /// The frozen topic–word counts, topic-major (`topic_word[k * V + w]`;
    /// binary-codec write path).
    pub(crate) fn topic_word_counts(&self) -> &[u32] {
        &self.topic_word
    }

    /// The per-topic token totals (binary-codec write path).
    pub(crate) fn topic_total_counts(&self) -> &[u32] {
        &self.topic_totals
    }

    /// Assemble a model from its frozen parts and derive the word-major φ
    /// table from them. Every construction path goes through here:
    /// training, the binary codec and JSON deserialization. Returns `None`
    /// when the count buffers do not match the `num_topics × vocabulary`
    /// shape the config implies, or that shape overflows.
    pub(crate) fn from_parts(
        config: LdaConfig,
        vocab: Vocabulary,
        topic_word: Vec<u32>,
        topic_totals: Vec<u32>,
    ) -> Option<Self> {
        let k = config.num_topics;
        let v = vocab.len().max(1);
        let cells = k.checked_mul(v)?;
        if topic_word.len() != cells || topic_totals.len() != k {
            return None;
        }
        let beta = config.beta;
        let v_beta = beta * v as f64;
        let mut phi = vec![0.0f64; cells];
        for (t, counts) in topic_word.chunks_exact(v).enumerate() {
            let denom = topic_totals[t] as f64 + v_beta;
            for (w, &n) in counts.iter().enumerate() {
                phi[w * k + t] = (n as f64 + beta) / denom;
            }
        }
        Some(LdaModel {
            config,
            vocab,
            topic_word,
            topic_totals,
            phi,
        })
    }

    /// The seed [`Self::infer`] derives from the training seed for serving
    /// inference (shared with the streaming estimate path so both are
    /// bit-identical).
    pub(crate) fn default_infer_seed(&self) -> u64 {
        self.config.seed ^ 0x9e3779b97f4a7c15
    }

    /// Infer the topic distribution ("table topic vector") of an unseen
    /// document by Gibbs sampling against the frozen topic–word counts.
    ///
    /// The result is a probability vector of length `num_topics`; documents
    /// with no known tokens return the uniform distribution.
    pub fn infer(&self, document: &str) -> Vec<f32> {
        let tokens = self.vocab.encode(document);
        self.infer_tokens(&tokens, self.default_infer_seed())
    }

    /// Deterministic inference with an explicit seed (used by property tests).
    pub fn infer_with_seed(&self, document: &str, seed: u64) -> Vec<f32> {
        let tokens = self.vocab.encode(document);
        self.infer_tokens(&tokens, seed)
    }

    /// Build a ready-to-run [`TopicSampler`] for this model. Every sampler
    /// reads φ from the model's own table; `Dense` has no state of its own,
    /// while `SparseAlias` pre-builds the per-word static masses and Walker
    /// alias tables from it (`O(K·V)`, once per frozen model — never on the
    /// per-token hot path).
    pub fn sampler(&self, kind: SamplerKind) -> TopicSampler {
        match kind {
            SamplerKind::Dense => TopicSampler::Dense,
            SamplerKind::SparseAlias => {
                TopicSampler::SparseAlias(Box::new(SparseAliasTables::build(self)))
            }
        }
    }

    /// Infer the topic distribution of a pre-encoded document with the
    /// dense sampler.
    ///
    /// Allocates fresh working buffers per call; hot loops should reuse an
    /// [`LdaInferScratch`] via [`Self::infer_tokens_into`], which this wraps.
    pub fn infer_tokens(&self, tokens: &[usize], seed: u64) -> Vec<f32> {
        let mut out = vec![0.0f32; self.config.num_topics];
        self.infer_tokens_into(
            tokens,
            seed,
            &TopicSampler::Dense,
            &mut LdaInferScratch::new(),
            &mut out,
        );
        out
    }

    /// [`Self::infer_tokens`] with an explicit sampling strategy and
    /// caller-owned working buffers: every Gibbs-sampling intermediate
    /// (including the sparse count structures of the sparse/alias sampler)
    /// lives in `scratch` and the theta vector is written into `out`
    /// (length [`Self::num_topics`]), so a warm call performs **zero** heap
    /// allocations for either sampler (enforced by the counting-allocator
    /// test `crates/topic/tests/alloc_free_infer.rs`).
    ///
    /// With [`TopicSampler::Dense`] the output is bit-identical to
    /// [`Self::infer_tokens`]; with [`TopicSampler::SparseAlias`] it samples
    /// the same per-token conditional through a different decomposition, so
    /// the theta is statistically close but not bit-identical.
    pub fn infer_tokens_into(
        &self,
        tokens: &[usize],
        seed: u64,
        sampler: &TopicSampler,
        scratch: &mut LdaInferScratch,
        out: &mut [f32],
    ) {
        self.config.validate();
        let k = self.config.num_topics;
        assert_eq!(out.len(), k, "topic output width mismatch");
        if tokens.is_empty() {
            out.fill(1.0 / k as f32);
            return;
        }
        match sampler {
            TopicSampler::Dense => self.infer_dense(tokens, seed, scratch, out),
            TopicSampler::SparseAlias(tables) => {
                self.infer_sparse_alias(tokens, seed, tables, scratch, out)
            }
        }
    }

    /// The collapsed dense sweep: `O(K)` per token, bit-identical to the
    /// historical single-path implementation. Per token it multiplies the
    /// word's frozen φ row by the running `n_{d,t} + α` buffer; only the
    /// two topics whose counts change are refreshed.
    fn infer_dense(
        &self,
        tokens: &[usize],
        seed: u64,
        scratch: &mut LdaInferScratch,
        out: &mut [f32],
    ) {
        let k = self.config.num_topics;
        let alpha = self.config.alpha;
        let mut rng = StdRng::seed_from_u64(seed);

        let LdaInferScratch {
            doc_topic,
            assignments,
            weights,
            accum,
            theta,
            ..
        } = scratch;
        doc_topic.clear();
        doc_topic.resize(k, 0);
        assignments.clear();
        assignments.extend(tokens.iter().map(|_| rng.gen_range(0..k)));
        for &z in assignments.iter() {
            doc_topic[z] += 1;
        }
        theta.clear();
        theta.extend(doc_topic.iter().map(|&n| n as f64 + alpha));
        weights.clear();
        weights.resize(k, 0.0);
        accum.clear();
        accum.resize(k, 0.0);
        let denom = tokens.len() as f64 + alpha * k as f64;
        let burn_in = self.config.infer_iterations / 2;

        for iter in 0..self.config.infer_iterations {
            for (i, &w) in tokens.iter().enumerate() {
                let old = assignments[i];
                doc_topic[old] -= 1;
                theta[old] = doc_topic[old] as f64 + alpha;
                let mut total = 0.0;
                for ((wt, &phi), &th) in weights.iter_mut().zip(self.phi_row(w)).zip(theta.iter()) {
                    *wt = phi * th;
                    total += *wt;
                }
                let new = sample_discrete(weights, total, &mut rng);
                assignments[i] = new;
                doc_topic[new] += 1;
                theta[new] = doc_topic[new] as f64 + alpha;
            }
            if iter >= burn_in {
                for (a, &th) in accum.iter_mut().zip(theta.iter()) {
                    *a += th / denom;
                }
            }
        }
        finish_theta(&self.config, tokens.len(), scratch, out);
    }

    /// The sparse/alias sweep: the conditional
    /// `p(z = t) ∝ phi_w(t)·(n_{d,t} + α)` splits into the document part
    /// `n_{d,t}·phi_w(t)` — walked over only the `k_d` topics present in
    /// the document — and the static part `α·phi_w(t)`, drawn in `O(1)`
    /// from the pre-built per-word alias table. One uniform draw per token
    /// picks both the branch and the position within it.
    fn infer_sparse_alias(
        &self,
        tokens: &[usize],
        seed: u64,
        tables: &SparseAliasTables,
        scratch: &mut LdaInferScratch,
        out: &mut [f32],
    ) {
        let k = self.config.num_topics;
        tables.assert_matches(k, self.vocab.len());
        let alpha = self.config.alpha;
        let mut rng = StdRng::seed_from_u64(seed);

        let LdaInferScratch {
            doc_topic,
            assignments,
            weights,
            accum,
            nz_topics,
            topic_pos,
            ..
        } = scratch;
        doc_topic.clear();
        doc_topic.resize(k, 0);
        topic_pos.clear();
        topic_pos.resize(k, 0);
        nz_topics.clear();
        nz_topics.reserve(k);
        assignments.clear();
        assignments.extend(tokens.iter().map(|_| rng.gen_range(0..k)));
        for &z in assignments.iter() {
            if doc_topic[z] == 0 {
                topic_pos[z] = nz_topics.len() as u32 + 1;
                nz_topics.push(z);
            }
            doc_topic[z] += 1;
        }
        weights.clear();
        weights.resize(k, 0.0);
        accum.clear();
        accum.resize(k, 0.0);
        let denom = tokens.len() as f64 + alpha * k as f64;
        let burn_in = self.config.infer_iterations / 2;

        let mut sampled_sweeps = 0u32;
        for iter in 0..self.config.infer_iterations {
            for (i, &w) in tokens.iter().enumerate() {
                let old = assignments[i];
                // Remove the token from the sparse document counts.
                doc_topic[old] -= 1;
                if doc_topic[old] == 0 {
                    let pos = (topic_pos[old] - 1) as usize;
                    nz_topics.swap_remove(pos);
                    if let Some(&moved) = nz_topics.get(pos) {
                        topic_pos[moved] = pos as u32 + 1;
                    }
                    topic_pos[old] = 0;
                }
                // Document part: O(k_d) fused weight fill + mass.
                let phi_row = self.phi_row(w);
                let mut r = 0.0;
                for (slot, &t) in nz_topics.iter().enumerate() {
                    let wt = doc_topic[t] as f64 * phi_row[t];
                    weights[slot] = wt;
                    r += wt;
                }
                let s = tables.static_mass(w);
                let total = r + s;
                let u = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
                let new = if u < r {
                    // Same last-bucket rounding fallback as the dense sweep.
                    nz_topics[pick_bucket(&weights[..nz_topics.len()], u)]
                } else {
                    tables.sample_alias(w, (u - r) / s)
                };
                assignments[i] = new;
                if doc_topic[new] == 0 {
                    topic_pos[new] = nz_topics.len() as u32 + 1;
                    nz_topics.push(new);
                }
                doc_topic[new] += 1;
            }
            if iter >= burn_in {
                // Sparse accumulation: only topics present in the document
                // contribute beyond the constant `α / denom`, which is added
                // for all `K` topics once at the end.
                sampled_sweeps += 1;
                for &t in nz_topics.iter() {
                    accum[t] += doc_topic[t] as f64 / denom;
                }
            }
        }
        if self.config.infer_iterations == 0 {
            finish_theta(&self.config, tokens.len(), scratch, out);
            return;
        }
        let samples = f64::from(sampled_sweeps.max(1));
        let alpha_share = alpha / denom;
        for (o, &x) in out.iter_mut().zip(scratch.accum.iter()) {
            *o = ((x / samples) + alpha_share) as f32;
        }
    }
}

/// Turn the accumulated post-burn-in samples (or, for
/// `infer_iterations == 0`, the initial assignment) into the output theta —
/// shared by both samplers so the zero-iteration regression fix cannot
/// drift between them.
fn finish_theta(config: &LdaConfig, num_tokens: usize, scratch: &LdaInferScratch, out: &mut [f32]) {
    let k = config.num_topics;
    let denom = num_tokens as f64 + config.alpha * k as f64;
    if config.infer_iterations == 0 {
        // No sweep ran, so `accum` never collected a sample. Report the
        // theta implied by the initial random assignment instead of the
        // all-zero vector the `samples.max(1)` division used to hide.
        for (o, &d) in out.iter_mut().zip(scratch.doc_topic.iter()) {
            *o = ((d as f64 + config.alpha) / denom) as f32;
        }
        return;
    }
    let burn_in = config.infer_iterations / 2;
    let samples = (config.infer_iterations - burn_in).max(1) as f64;
    for (o, &x) in out.iter_mut().zip(scratch.accum.iter()) {
        *o = (x / samples) as f32;
    }
}

/// Caller-owned working buffers for [`LdaModel::infer_tokens_into`]: the
/// document–topic counts, per-token assignments, full-conditional weights,
/// the dense sampler's `n_{d,t} + α` buffer and the theta accumulator of
/// one Gibbs inference run, plus the sparse count structures of the
/// sparse/alias sampler (the list of topics present in the document and its
/// positional index). Buffers keep their capacity between documents, so a
/// warm inference allocates nothing with either sampler.
#[derive(Debug, Clone, Default)]
pub struct LdaInferScratch {
    /// `doc_topic[k]`: tokens of the document currently assigned to topic `k`.
    doc_topic: Vec<u32>,
    /// Current topic assignment of every token.
    assignments: Vec<usize>,
    /// Sampling weights: full-conditional per topic (dense sampler) or
    /// document-part per nonzero topic (sparse sampler).
    weights: Vec<f64>,
    /// Post-burn-in theta accumulator, one per topic.
    accum: Vec<f64>,
    /// Dense sampler: `theta[t] = doc_topic[t] + α`, kept in step with
    /// [`Self::doc_topic`].
    theta: Vec<f64>,
    /// Sparse sampler: topics with a nonzero document count, unordered.
    nz_topics: Vec<usize>,
    /// Sparse sampler: `topic_pos[t]` is the position of `t` in
    /// [`Self::nz_topics`] plus one, or 0 when `t` is absent.
    topic_pos: Vec<u32>,
}

impl LdaInferScratch {
    /// A fresh workspace with empty (but growable) buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two clearly separated "themes" so a tiny LDA can recover structure.
    fn themed_documents() -> Vec<String> {
        let mut docs = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                docs.push("rock jazz blues album artist guitar song melody".to_string());
            } else {
                docs.push("warsaw london paris city country europe capital river".to_string());
            }
        }
        docs
    }

    #[test]
    fn training_produces_normalised_topics() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        for k in 0..model.num_topics() {
            let total: f64 = (0..model.vocabulary().len()).map(|w| model.phi(k, w)).sum();
            assert!((total - 1.0).abs() < 1e-6, "topic {k} sums to {total}");
        }
    }

    #[test]
    fn inference_returns_probability_vector() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let theta = model.infer("rock jazz album");
        assert_eq!(theta.len(), model.num_topics());
        let sum: f32 = theta.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum={sum}");
        assert!(theta.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn unknown_document_gets_uniform_distribution() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let theta = model.infer("zzzz qqqq completely unknown");
        let k = model.num_topics() as f32;
        assert!(theta.iter().all(|&x| (x - 1.0 / k).abs() < 1e-6));
    }

    #[test]
    fn themed_documents_get_different_topic_vectors() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let music = model.infer("rock jazz blues artist album");
        let cities = model.infer("warsaw london paris city country");
        // Cosine distance between the two topic vectors should be noticeably
        // below 1 (they concentrate on different topics).
        let dot: f32 = music.iter().zip(&cities).map(|(a, b)| a * b).sum();
        let na: f32 = music.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = cities.iter().map(|x| x * x).sum::<f32>().sqrt();
        let cos = dot / (na * nb);
        assert!(cos < 0.9, "topic vectors should differ, cosine={cos}");
    }

    #[test]
    fn same_document_similar_topics_across_inference_seeds() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let a = model.infer_with_seed("rock jazz blues artist album guitar", 1);
        let b = model.infer_with_seed("rock jazz blues artist album guitar", 2);
        let l1: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 < 0.8, "inference unstable across seeds: L1={l1}");
    }

    #[test]
    fn inference_is_deterministic_for_fixed_seed() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        assert_eq!(model.infer("rock jazz"), model.infer("rock jazz"));
    }

    #[test]
    fn top_words_reflect_topic_content() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        // Find the topic most associated with "warsaw" and check that its top
        // words contain other city-theme words.
        let w = model.vocabulary().id("warsaw").unwrap();
        let best_topic = (0..model.num_topics())
            .max_by(|&a, &b| model.phi(a, w).partial_cmp(&model.phi(b, w)).unwrap())
            .unwrap();
        let top: Vec<String> = model
            .top_words(best_topic, 8)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert!(
            top.iter()
                .any(|t| t == "city" || t == "london" || t == "europe"),
            "top words of the city topic were {top:?}"
        );
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let a = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let b = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        assert_eq!(a.topic_word, b.topic_word);
    }

    #[test]
    #[should_panic(expected = "at least 2 topics")]
    fn rejects_single_topic() {
        let cfg = LdaConfig {
            num_topics: 1,
            ..LdaConfig::tiny()
        };
        LdaModel::fit(&themed_documents(), 1, cfg);
    }

    #[test]
    #[should_panic(expected = "alpha must be a positive finite Dirichlet prior")]
    fn rejects_non_positive_alpha() {
        let cfg = LdaConfig {
            alpha: 0.0,
            ..LdaConfig::tiny()
        };
        LdaModel::fit(&themed_documents(), 1, cfg);
    }

    #[test]
    #[should_panic(expected = "beta must be a positive finite Dirichlet prior")]
    fn rejects_negative_beta() {
        let cfg = LdaConfig {
            beta: -0.01,
            ..LdaConfig::tiny()
        };
        LdaModel::fit(&themed_documents(), 1, cfg);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn rejects_nan_prior() {
        let cfg = LdaConfig {
            alpha: f64::NAN,
            ..LdaConfig::tiny()
        };
        cfg.validate();
    }

    /// Regression: with `infer_iterations == 0` the burn-in loop never
    /// sampled, `accum` stayed all-zero, and the `samples.max(1)` division
    /// hid it — inference returned the zero vector instead of a probability
    /// distribution.
    #[test]
    fn zero_infer_iterations_still_returns_a_distribution() {
        let cfg = LdaConfig {
            infer_iterations: 0,
            ..LdaConfig::tiny()
        };
        let model = LdaModel::fit(&themed_documents(), 1, cfg);
        let theta = model.infer("rock jazz album");
        assert_eq!(theta.len(), model.num_topics());
        let sum: f32 = theta.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "theta does not sum to one: {sum}");
        assert!(theta.iter().all(|&x| x > 0.0), "theta has zero entries");
        // Still deterministic for the fixed serving seed.
        assert_eq!(theta, model.infer("rock jazz album"));
    }

    #[test]
    fn scratch_inference_is_bit_identical_and_reusable() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let mut scratch = LdaInferScratch::new();
        let mut out = vec![0.0f32; model.num_topics()];
        let docs = [
            "rock jazz blues artist album",
            "warsaw",                     // one-token document
            "zzzz qqqq entirely unknown", // OOV-only → empty token list
            "",                           // empty document
            "warsaw london paris rock jazz city",
        ];
        for doc in docs {
            let tokens = model.vocabulary().encode(doc);
            for seed in [0u64, 7, 12345] {
                model.infer_tokens_into(
                    &tokens,
                    seed,
                    &TopicSampler::Dense,
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(
                    out,
                    model.infer_tokens(&tokens, seed),
                    "scratch path diverged on {doc:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn sparse_alias_sampler_is_deterministic_under_seed() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let sampler = model.sampler(SamplerKind::SparseAlias);
        let tokens = model
            .vocabulary()
            .encode("rock jazz blues artist album city");
        let mut scratch = LdaInferScratch::new();
        let mut a = vec![0.0f32; model.num_topics()];
        let mut b = vec![0.0f32; model.num_topics()];
        for seed in [0u64, 7, 12345] {
            model.infer_tokens_into(&tokens, seed, &sampler, &mut scratch, &mut a);
            model.infer_tokens_into(&tokens, seed, &sampler, &mut scratch, &mut b);
            assert_eq!(a, b, "sparse sampler not deterministic for seed {seed}");
        }
        // A rebuilt sampler (fresh alias tables from the same frozen counts)
        // reproduces the same draw chain too.
        let rebuilt = model.sampler(SamplerKind::SparseAlias);
        model.infer_tokens_into(&tokens, 7, &rebuilt, &mut scratch, &mut b);
        model.infer_tokens_into(&tokens, 7, &sampler, &mut scratch, &mut a);
        assert_eq!(a, b, "rebuilt alias tables diverged");
    }

    #[test]
    fn sparse_alias_sampler_returns_valid_distributions() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let sampler = model.sampler(SamplerKind::SparseAlias);
        let mut scratch = LdaInferScratch::new();
        let mut out = vec![0.0f32; model.num_topics()];
        let docs = [
            "rock jazz blues artist album",
            "warsaw", // one-token document
            "",       // empty document → uniform
            "warsaw london paris rock jazz city country guitar",
        ];
        for doc in docs {
            let tokens = model.vocabulary().encode(doc);
            model.infer_tokens_into(&tokens, 7, &sampler, &mut scratch, &mut out);
            let sum: f32 = out.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "{doc:?}: sum={sum}");
            assert!(out.iter().all(|&x| x >= 0.0), "{doc:?}: negative theta");
        }
        // Empty document is exactly uniform, like the dense sampler.
        let k = model.num_topics() as f32;
        model.infer_tokens_into(&[], 7, &sampler, &mut scratch, &mut out);
        assert!(out.iter().all(|&x| (x - 1.0 / k).abs() < 1e-6));
    }

    /// The sparse sampler draws from the same per-token conditional as the
    /// dense sweep, so its thetas must be statistically close to Dense —
    /// about as close as Dense is to itself under a different seed.
    #[test]
    fn sparse_alias_sampler_is_close_to_dense() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let sampler = model.sampler(SamplerKind::SparseAlias);
        let mut scratch = LdaInferScratch::new();
        let k = model.num_topics();
        let (mut dense, mut sparse) = (vec![0.0f32; k], vec![0.0f32; k]);
        let tokens = model
            .vocabulary()
            .encode("rock jazz blues artist album guitar song");
        let mut l1 = 0.0f32;
        let seeds = [1u64, 2, 3, 4, 5];
        for &seed in &seeds {
            model.infer_tokens_into(
                &tokens,
                seed,
                &TopicSampler::Dense,
                &mut scratch,
                &mut dense,
            );
            model.infer_tokens_into(&tokens, seed, &sampler, &mut scratch, &mut sparse);
            l1 += dense
                .iter()
                .zip(&sparse)
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>();
        }
        let mean_l1 = l1 / seeds.len() as f32;
        assert!(
            mean_l1 < 0.8,
            "sparse sampler drifted from dense: mean L1 = {mean_l1}"
        );
    }

    #[test]
    fn sparse_alias_zero_infer_iterations_still_returns_a_distribution() {
        let cfg = LdaConfig {
            infer_iterations: 0,
            ..LdaConfig::tiny()
        };
        let model = LdaModel::fit(&themed_documents(), 1, cfg);
        let sampler = model.sampler(SamplerKind::SparseAlias);
        let tokens = model.vocabulary().encode("rock jazz album");
        let mut scratch = LdaInferScratch::new();
        let mut out = vec![0.0f32; model.num_topics()];
        model.infer_tokens_into(&tokens, 3, &sampler, &mut scratch, &mut out);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "theta does not sum to one: {sum}");
        assert!(out.iter().all(|&x| x > 0.0), "theta has zero entries");
        // With zero sweeps only the (identically seeded) initial assignment
        // matters, so the two samplers agree exactly.
        let mut dense = vec![0.0f32; model.num_topics()];
        model.infer_tokens_into(&tokens, 3, &TopicSampler::Dense, &mut scratch, &mut dense);
        assert_eq!(out, dense);
    }

    /// The historical topic–word probability, `(n_wk + β) / (n_k + Vβ)`
    /// straight from the frozen counts.
    fn historical_phi(model: &LdaModel, topic: usize, word: usize) -> f64 {
        let v = model.vocab.len().max(1);
        let beta = model.config.beta;
        (model.topic_word[topic * v + word] as f64 + beta)
            / (model.topic_totals[topic] as f64 + beta * v as f64)
    }

    /// The historical dense sweep, kept as the parity oracle for
    /// [`LdaModel::infer_dense`]: it recomputes [`historical_phi`] for every
    /// topic of every token, and finishes the theta the way
    /// [`finish_theta`] does.
    fn infer_dense_oracle(model: &LdaModel, tokens: &[usize], seed: u64) -> Vec<f32> {
        let k = model.config.num_topics;
        if tokens.is_empty() {
            return vec![1.0 / k as f32; k];
        }
        let alpha = model.config.alpha;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut assignments: Vec<usize> = tokens.iter().map(|_| rng.gen_range(0..k)).collect();
        let mut doc_topic = vec![0u32; k];
        for &z in &assignments {
            doc_topic[z] += 1;
        }
        let mut weights = vec![0.0f64; k];
        let mut accum = vec![0.0f64; k];
        let denom = tokens.len() as f64 + alpha * k as f64;
        let iterations = model.config.infer_iterations;
        let burn_in = iterations / 2;
        for iter in 0..iterations {
            for (i, &w) in tokens.iter().enumerate() {
                let old = assignments[i];
                doc_topic[old] -= 1;
                let mut total = 0.0;
                for (t, wt) in weights.iter_mut().enumerate() {
                    let theta = doc_topic[t] as f64 + alpha;
                    *wt = historical_phi(model, t, w) * theta;
                    total += *wt;
                }
                let new = sample_discrete(&weights, total, &mut rng);
                assignments[i] = new;
                doc_topic[new] += 1;
            }
            if iter >= burn_in {
                for t in 0..k {
                    accum[t] += (doc_topic[t] as f64 + alpha) / denom;
                }
            }
        }
        if iterations == 0 {
            return doc_topic
                .iter()
                .map(|&d| ((d as f64 + alpha) / denom) as f32)
                .collect();
        }
        let samples = (iterations - burn_in).max(1) as f64;
        accum.iter().map(|&x| (x / samples) as f32).collect()
    }

    /// A 60-word corpus with overlapping word strides, so topics differ
    /// without being trivially separable.
    fn synthetic_model(num_topics: usize, infer_iterations: usize) -> LdaModel {
        let docs: Vec<String> = (0..40usize)
            .map(|d| {
                (0..12usize)
                    .map(|i| format!("w{}", (d * 7 + i * (d % 5 + 1)) % 60))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let config = LdaConfig {
            num_topics,
            train_iterations: 10,
            infer_iterations,
            ..LdaConfig::tiny()
        };
        LdaModel::fit(&docs, 1, config)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The φ table holds the historical probabilities and the φ-table
        /// dense sweep is the historical division-per-topic loop, bit for
        /// bit: across topic counts, sweep counts, seeds, document shapes
        /// (empty, one token, one word repeated, the last vocabulary id), a
        /// warm reused scratch, and models rebuilt from JSON or the binary
        /// codec.
        #[test]
        fn dense_sampler_matches_the_historical_oracle(
            topics in 0usize..3,
            sweeps in 0usize..3,
            shape in 0usize..5,
            round_trip in 0usize..3,
            seed in 0u64..u64::MAX,
            picks in proptest::collection::vec(0usize..10_000, 0..48)
        ) {
            let k = [2, 8, 64][topics];
            let model = synthetic_model(k, [0, 1, 20][sweeps]);
            let v = model.vocabulary().len();
            let first = picks.first().map_or(0, |&p| p % v);
            let tokens: Vec<usize> = match shape {
                0 => Vec::new(),
                1 => vec![first],
                2 => vec![first; picks.len().max(2)],
                3 => picks.iter().map(|&p| p % v).chain([v - 1]).collect(),
                _ => picks.iter().map(|&p| p % v).collect(),
            };
            let served = match round_trip {
                0 => model.clone(),
                1 => serde_json::from_str(&serde_json::to_string(&model).unwrap()).unwrap(),
                _ => {
                    let mut bytes = Vec::new();
                    model.write_bytes(&mut bytes);
                    LdaModel::from_bytes(&bytes).unwrap()
                }
            };
            for w in 0..v {
                for t in 0..k {
                    prop_assert_eq!(
                        served.phi(t, w).to_bits(),
                        historical_phi(&model, t, w).to_bits()
                    );
                }
            }

            let mut scratch = LdaInferScratch::new();
            let mut out = vec![0.0f32; k];
            // Warm the scratch on a different document first, so stale
            // buffer state would show.
            let warm: Vec<usize> = tokens.iter().rev().map(|&w| (w + 1) % v).collect();
            served.infer_tokens_into(&warm, seed ^ 1, &TopicSampler::Dense, &mut scratch, &mut out);
            served.infer_tokens_into(&tokens, seed, &TopicSampler::Dense, &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(&infer_dense_oracle(&model, &tokens, seed)));
        }
    }

    /// FNV-1a 64 over the little-endian bits of `thetas`, in order.
    fn fnv1a_theta_bits(thetas: &[f32]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in thetas.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Sparse/alias thetas are pinned bit for bit to values recorded
    /// before the sampler read φ from the model instead of from its own
    /// copy. The digest streams every theta of every document × seed,
    /// through one warm scratch, including the empty, one-token and
    /// repeated-word documents.
    #[test]
    fn sparse_thetas_match_pinned_digests() {
        let cases = [
            (synthetic_model(64, 20), 0x45a2_13ae_fd87_4b0d),
            (
                LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny()),
                0x11ea_2b75_da67_b65c,
            ),
        ];
        for (model, expected) in &cases {
            let v = model.vocabulary().len();
            let docs: [Vec<usize>; 5] = [
                Vec::new(),
                vec![v / 2],
                vec![3 % v; 17],
                (0..40).map(|i| (i * 7 + 1) % v).collect(),
                (0..v).rev().collect(),
            ];
            let sampler = model.sampler(SamplerKind::SparseAlias);
            let mut scratch = LdaInferScratch::new();
            let mut out = vec![0.0f32; model.num_topics()];
            let mut thetas = Vec::new();
            for doc in &docs {
                for seed in [0u64, 7, 12_345, u64::MAX] {
                    model.infer_tokens_into(doc, seed, &sampler, &mut scratch, &mut out);
                    thetas.extend_from_slice(&out);
                }
            }
            assert_eq!(
                fnv1a_theta_bits(&thetas),
                *expected,
                "model with {} topics",
                model.num_topics()
            );
        }
    }

    /// The φ table is derived, not persisted: the JSON form carries exactly
    /// the four count fields, and counts that disagree with the config's
    /// shape are a decode error rather than a later out-of-bounds panic.
    #[test]
    fn json_form_persists_counts_only_and_rejects_bad_shapes() {
        let model = synthetic_model(8, 4);
        let serde::Value::Map(fields) = model.to_value() else {
            panic!("model JSON is not an object");
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["config", "vocab", "topic_word", "topic_totals"]);

        let json = serde_json::to_string(&model).unwrap();
        assert!(json.starts_with("{\"config\":{\"num_topics\":8,"));
        let json = json.replacen("\"num_topics\":8", "\"num_topics\":9", 1);
        assert!(serde_json::from_str::<LdaModel>(&json).is_err());
    }
}
