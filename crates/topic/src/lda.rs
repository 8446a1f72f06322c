//! Latent Dirichlet Allocation: collapsed Gibbs training, and a
//! deterministic fold-in estimate of an unseen document's topics.
//!
//! This replaces the gensim LDA model the paper pre-trains on 10K tables
//! (Section 4.2). Documents are tables (all cell values concatenated), and
//! the number of topics is configurable (the paper uses 400; the
//! scaled-down experiments default to fewer).
//!
//! Training runs collapsed Gibbs sampling. The topic vector θ of an unseen
//! document is estimated against the frozen topic–word distribution φ by
//! EM folding-in (Hofmann, 1999), the point-estimate E-step of Blei, Ng &
//! Jordan (2003): no RNG and no seed, like gensim's inference. With `c_w`
//! the count of word `w` in the document, every round starts from the
//! previous θ (uniform at first) and sets
//!
//! ```text
//! r_t = Σ_w c_w · φ_w(t) / Σ_t' φ_w(t')·θ_t'      θ_t ← (α + θ_t·r_t) / Σ_t'(α + θ_t'·r_t')
//! ```
//!
//! θ is constant within a round, so it is factored out of the per-word
//! sum, whose two steps are `sato_kernels::dot` and `sato_kernels::axpy`
//! over a word's row of an `f32` copy of φ. Words are visited once each,
//! in ascending id order, so θ depends only on the multiset of the
//! document's ids, not on the order its cells were read in.

use crate::sampler::sample_discrete;
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
    /// Fold-in rounds when estimating the topic vector of an unseen
    /// document (see the [module docs](self)); 0 leaves θ uniform.
    /// Training and serving read this one value, so the network trains on
    /// topic vectors estimated the way they are served.
    ///
    /// The default, 10, is the sweep budget the Gibbs samplers of earlier
    /// releases were tuned to on the end-to-end benchmark's
    /// `batch_annotate` workload. Fewer rounds are not the default without
    /// a quality comparison over several training seeds.
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

    /// Panic unless the configuration describes a well-defined model: at
    /// least two topics and strictly positive, finite Dirichlet priors.
    /// `alpha <= 0` or `beta <= 0` (or a NaN/infinite prior) would let NaN
    /// weights flow through the Gibbs draw or zero divisors into the
    /// fold-in and silently produce garbage topic vectors.
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
/// the `f32` topic–word probabilities the fold-in reads, derived from them
/// once at construction.
#[derive(Debug, Clone)]
pub struct LdaModel {
    config: LdaConfig,
    vocab: Vocabulary,
    /// `topic_word[k * V + w]`: number of tokens of word `w` assigned to `k`.
    topic_word: Vec<u32>,
    /// `topic_totals[k]`: total tokens assigned to topic `k`.
    topic_totals: Vec<u32>,
    /// `phi[w * K + t]`: topic–word probability [`LdaModel::phi`] rounded
    /// to `f32`, word-major so the `K` values of one word are contiguous.
    /// Derived from the frozen counts in [`LdaModel::from_parts`]; never
    /// serialized.
    phi: Vec<f32>,
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

    /// Topic–word probability `phi[k][w] = (n_kw + β) / (n_k + Vβ)`,
    /// computed from the frozen counts in `f64`.
    pub fn phi(&self, topic: usize, word: usize) -> f64 {
        let v = self.vocab.len().max(1);
        let beta = self.config.beta;
        let denom = self.topic_totals[topic] as f64 + beta * v as f64;
        (self.topic_word[topic * v + word] as f64 + beta) / denom
    }

    /// The contiguous `f32` row of one word: its probability under each of
    /// the `K` topics.
    #[inline]
    fn phi_row(&self, word: usize) -> &[f32] {
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

    /// Assemble a model from its frozen parts and derive the word-major
    /// `f32` φ table from them. Every construction path goes through here:
    /// training and the binary codec. Returns `None` when the count buffers
    /// do not match the `num_topics × vocabulary` shape the config implies,
    /// or that shape overflows.
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
        let mut phi = vec![0.0f32; cells];
        for (t, counts) in topic_word.chunks_exact(v).enumerate() {
            let denom = topic_totals[t] as f64 + v_beta;
            for (w, &n) in counts.iter().enumerate() {
                phi[w * k + t] = ((n as f64 + beta) / denom) as f32;
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

    /// Estimate the topic distribution ("table topic vector") of an unseen
    /// document by folding it in against the frozen topic–word counts.
    ///
    /// The result is a probability vector of length `num_topics`; documents
    /// with no known tokens return the uniform distribution.
    pub fn infer(&self, document: &str) -> Vec<f32> {
        self.infer_tokens(&self.vocab.encode(document))
    }

    /// [`Self::infer`] of a pre-encoded document.
    ///
    /// Allocates fresh working buffers per call; hot loops should reuse an
    /// [`LdaInferScratch`] via [`Self::infer_tokens_into`], which this wraps.
    pub fn infer_tokens(&self, tokens: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.config.num_topics];
        self.infer_tokens_into(tokens, &mut LdaInferScratch::new(), &mut out);
        out
    }

    /// The fold-in of the [module docs](self) over the word ids `tokens`,
    /// written into `out` (length [`Self::num_topics`]): θ starts uniform
    /// and is refined for `infer_iterations` rounds. The ids are sorted and
    /// counted in `scratch`, so θ depends only on their multiset, and a
    /// warm call performs **zero** heap allocations (enforced by the
    /// counting-allocator test `crates/topic/tests/alloc_free_infer.rs`).
    pub fn infer_tokens_into(
        &self,
        tokens: &[usize],
        scratch: &mut LdaInferScratch,
        out: &mut [f32],
    ) {
        self.config.validate();
        let k = self.config.num_topics;
        assert_eq!(out.len(), k, "topic output width mismatch");
        out.fill(1.0 / k as f32);
        if tokens.is_empty() || self.config.infer_iterations == 0 {
            return;
        }
        let LdaInferScratch { sorted, words, r } = scratch;
        sorted.clear();
        sorted.extend_from_slice(tokens);
        sorted.sort_unstable();
        words.clear();
        let mut run = 0;
        for (i, &w) in sorted.iter().enumerate() {
            if sorted.get(i + 1) != Some(&w) {
                words.push((w, (i + 1 - run) as f32));
                run = i + 1;
            }
        }
        let alpha = self.config.alpha as f32;
        for _ in 0..self.config.infer_iterations {
            r.clear();
            r.resize(k, 0.0);
            for &(w, count) in words.iter() {
                let phi = self.phi_row(w);
                let s = sato_kernels::dot(phi, out);
                sato_kernels::axpy(count / s, phi, r);
            }
            let mut sum = 0.0f32;
            for (theta, &rt) in out.iter_mut().zip(r.iter()) {
                *theta = alpha + *theta * rt;
                sum += *theta;
            }
            for theta in out.iter_mut() {
                *theta /= sum;
            }
        }
    }
}

/// Caller-owned working buffers for [`LdaModel::infer_tokens_into`]. They
/// keep their capacity between documents, so a warm estimate allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct LdaInferScratch {
    /// The document's word ids, sorted.
    sorted: Vec<usize>,
    /// Each distinct word id with its count, in ascending id order.
    words: Vec<(usize, f32)>,
    /// `r_t` of one fold-in round, one per topic.
    r: Vec<f32>,
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

    /// With `infer_iterations == 0` no fold-in round runs, so θ is the
    /// uniform starting point, exactly: a distribution, not the zero
    /// vector.
    #[test]
    fn zero_infer_iterations_still_returns_a_distribution() {
        let cfg = LdaConfig {
            infer_iterations: 0,
            ..LdaConfig::tiny()
        };
        let model = LdaModel::fit(&themed_documents(), 1, cfg);
        let theta = model.infer("rock jazz album");
        let k = model.num_topics();
        assert_eq!(theta, vec![1.0 / k as f32; k]);
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
            model.infer_tokens_into(&tokens, &mut scratch, &mut out);
            assert_eq!(
                out,
                model.infer_tokens(&tokens),
                "scratch path diverged on {doc:?}"
            );
            let sum: f32 = out.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "{doc:?}: sum={sum}");
            assert!(
                out.iter().all(|&x| x > 0.0),
                "{doc:?}: theta has zero entries"
            );
        }
    }

    /// The historical topic–word probability, `(n_wk + β) / (n_k + Vβ)`
    /// straight from the frozen counts.
    fn historical_phi(model: &LdaModel, topic: usize, word: usize) -> f64 {
        let v = model.vocab.len().max(1);
        let beta = model.config.beta;
        (model.topic_word[topic * v + word] as f64 + beta)
            / (model.topic_totals[topic] as f64 + beta * v as f64)
    }

    /// The collapsed dense Gibbs sweep that served topic inference before
    /// the fold-in, kept as the oracle the fold-in is measured against: it
    /// recomputes [`historical_phi`] for every topic of every token, burns
    /// in half of `infer_iterations` sweeps and averages `n_{d,t} + α` over
    /// the rest.
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

    fn l1(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    /// The fold-in estimates the quantity the dense Gibbs sweep samples:
    /// its θ lies about as close to the sweep's θ as the sweep lies to
    /// itself under another seed, on every document.
    #[test]
    fn fold_in_is_close_to_dense_gibbs() {
        let themed = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let synthetic = synthetic_model(64, 10);
        for (model, docs) in [
            (
                &themed,
                vec![
                    themed
                        .vocabulary()
                        .encode("rock jazz blues artist album guitar song"),
                    themed.vocabulary().encode("warsaw london paris city rock"),
                ],
            ),
            (
                &synthetic,
                vec![
                    (0..40).map(|i| (i * 7 + 1) % 60).collect(),
                    (0..30).map(|i| (i * 3) % 25).collect(),
                ],
            ),
        ] {
            for tokens in &docs {
                let fold_in = model.infer_tokens(tokens);
                let seeds = [1u64, 2, 3, 4, 5];
                let dense: Vec<Vec<f32>> = seeds
                    .iter()
                    .map(|&seed| infer_dense_oracle(model, tokens, seed))
                    .collect();
                let to_fold_in = dense.iter().map(|d| l1(d, &fold_in)).sum::<f32>() / 5.0;
                let seed_to_seed = dense
                    .iter()
                    .zip(dense.iter().cycle().skip(1))
                    .map(|(a, b)| l1(a, b))
                    .sum::<f32>()
                    / 5.0;
                assert!(
                    to_fold_in < seed_to_seed.max(0.05) * 1.5,
                    "K = {}: fold-in is {to_fold_in} from dense Gibbs, \
                     which is {seed_to_seed} from itself",
                    model.num_topics()
                );
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// φ is the historical probability bit for bit, in a model rebuilt
        /// through the binary codec too, and the fold-in's `f32` rows round
        /// it. The fold-in reads a document as a multiset: any order of
        /// its ids gives the same θ bit for bit, through a warm reused
        /// scratch, across topic counts, round counts and document shapes
        /// (empty, one token, one word repeated, the last vocabulary id).
        #[test]
        fn phi_is_historical_and_fold_in_ignores_id_order(
            topics in 0usize..3,
            rounds in 0usize..3,
            shape in 0usize..5,
            round_trip in 0usize..2,
            seed in 0u64..u64::MAX,
            picks in proptest::collection::vec(0usize..10_000, 0..48)
        ) {
            let k = [2, 8, 64][topics];
            let model = synthetic_model(k, [0, 1, 20][rounds]);
            let v = model.vocabulary().len();
            let first = picks.first().map_or(0, |&p| p % v);
            let tokens: Vec<usize> = match shape {
                0 => Vec::new(),
                1 => vec![first],
                2 => vec![first; picks.len().max(2)],
                3 => picks.iter().map(|&p| p % v).chain([v - 1]).collect(),
                _ => picks.iter().map(|&p| p % v).collect(),
            };
            let served = if round_trip == 1 {
                let mut bytes = Vec::new();
                model.write_bytes(&mut bytes);
                LdaModel::from_bytes(&bytes).unwrap()
            } else {
                model.clone()
            };
            for w in 0..v {
                for t in 0..k {
                    let phi = historical_phi(&model, t, w);
                    prop_assert_eq!(served.phi(t, w).to_bits(), phi.to_bits());
                    prop_assert_eq!(served.phi_row(w)[t].to_bits(), (phi as f32).to_bits());
                }
            }

            let mut shuffled = tokens.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..i + 1));
            }
            let mut scratch = LdaInferScratch::new();
            let mut out = vec![0.0f32; k];
            // Warm the scratch on a different document first, so stale
            // buffer state would show.
            let warm: Vec<usize> = tokens.iter().rev().map(|&w| (w + 1) % v).collect();
            served.infer_tokens_into(&warm, &mut scratch, &mut out);
            served.infer_tokens_into(&shuffled, &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(&model.infer_tokens(&tokens)));
            let sum: f32 = out.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3, "theta sums to {}", sum);
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

    /// Fold-in thetas are pinned bit for bit. The digest streams the theta
    /// of every document through one warm scratch, including the empty,
    /// one-token and repeated-word documents.
    #[test]
    fn fold_in_thetas_match_pinned_digests() {
        let cases = [
            (synthetic_model(64, 20), 0x4d79_8ec1_4a9f_010e),
            (
                LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny()),
                0x4244_68cb_75e3_a469,
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
            let mut scratch = LdaInferScratch::new();
            let mut out = vec![0.0f32; model.num_topics()];
            let mut thetas = Vec::new();
            for doc in &docs {
                model.infer_tokens_into(doc, &mut scratch, &mut out);
                thetas.extend_from_slice(&out);
            }
            assert_eq!(
                fnv1a_theta_bits(&thetas),
                *expected,
                "model with {} topics: {:#018x}",
                model.num_topics(),
                fnv1a_theta_bits(&thetas)
            );
        }
    }
}
