//! Pluggable topic-sampler layer: the strategy that draws the per-token
//! topic assignment inside serving-time Gibbs inference.
//!
//! Serving inference samples each token's topic from the full conditional
//! `p(z = t) ∝ phi_w(t) · (n_{d,t} + α)` against **frozen** topic–word
//! counts (only the document–topic counts change between sweeps). Two
//! strategies implement that draw:
//!
//! * [`TopicSampler::Dense`] — the collapsed dense sweep: per token,
//!   multiply the word's frozen φ row (a contiguous row of the word-major
//!   table the [`LdaModel`] builds once at load, `K·V·8` bytes) by the
//!   document's `n_{d,t} + α` buffer, `O(K)` per token. Bit-identical to
//!   the historical division-per-topic implementation; it is the parity
//!   oracle the sparse/alias sampler is measured against.
//! * [`TopicSampler::SparseAlias`] — the default: a SparseLDA/alias-table
//!   hybrid. The conditional splits into a *static* part `α · phi_w(t)`
//!   (frozen, so it is pre-built into one Walker alias table per word
//!   once, before training fills its topic inputs, and sampled in `O(1)`)
//!   and a *document* part
//!   `n_{d,t} · phi_w(t)` that only ranges over the topics actually
//!   present in the document — `O(k_d)` per token, `k_d ≤ min(len, K)`.
//!   Same target distribution, different floating-point/RNG consumption,
//!   so outputs are statistically close but **not** bit-identical to
//!   Dense.
//!
//! The sampler is an enum-dispatched strategy (not `dyn`) so the per-token
//! hot loops stay monomorphized; the serialized artifact only records the
//! [`SamplerKind`] and the alias tables are rebuilt at load time.

use crate::lda::LdaModel;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which Gibbs sampler variant serves topic inference. This is the
/// *configuration* side of the sampler layer: it is `Copy`, serializable
/// (stored in predictor artifacts) and turned into a ready-to-run
/// [`TopicSampler`] with [`LdaModel::sampler`].
///
/// The default is [`SamplerKind::SparseAlias`]: training estimates the
/// network's topic inputs with it and every freshly trained predictor
/// serves it. Topic estimation is the largest serving stage, and the
/// sparse/alias draw runs it about twice as fast as the dense sweep at
/// `K = 64` (never slower at any `K` measured). [`SamplerKind::Dense`]
/// stays the bit-exact oracle of the sparse sampler's tests: an artifact
/// whose metadata names `Dense` loads as it, and
/// `with_sampler(SamplerKind::Dense)` switches a predictor to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SamplerKind {
    /// Exact dense sweep, bit-identical to the historical implementation:
    /// the parity oracle.
    Dense,
    /// Sparse document part + per-word alias tables for the static part
    /// (the default).
    #[default]
    SparseAlias,
}

impl SamplerKind {
    /// Stable lowercase name (CLI flags, benchmark JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::Dense => "dense",
            SamplerKind::SparseAlias => "sparse-alias",
        }
    }
}

/// A ready-to-run topic-sampling strategy: [`SamplerKind`] plus whatever
/// pre-built state the strategy needs. Built once per frozen model (at
/// `into_predictor()` / artifact-load time) with [`LdaModel::sampler`] and
/// shared by reference across serving threads (`Send + Sync`, no interior
/// mutability).
#[derive(Debug, Clone)]
pub enum TopicSampler {
    /// The dense parity oracle: reads the frozen φ rows the [`LdaModel`]
    /// itself builds once at load, so it carries no state of its own.
    Dense,
    /// Sparse/alias sampling against pre-built per-word tables.
    SparseAlias(Box<SparseAliasTables>),
}

impl TopicSampler {
    /// The configuration this strategy was built from.
    pub fn kind(&self) -> SamplerKind {
        match self {
            TopicSampler::Dense => SamplerKind::Dense,
            TopicSampler::SparseAlias(_) => SamplerKind::SparseAlias,
        }
    }
}

/// The frozen topic–word term of one [`LdaModel`], pre-processed for
/// `O(k_d)`-per-token sampling: the static mass `s_w = α · Σ_t phi_w(t)`
/// and one Walker alias table per word over the normalized static
/// distribution. Purely derived state: the samplers read φ rows from the
/// model itself, and the tables are never persisted — every artifact load
/// rebuilds them from the model's counts.
#[derive(Debug, Clone)]
pub struct SparseAliasTables {
    /// Number of topics.
    k: usize,
    /// Vocabulary size the tables were built for.
    v: usize,
    /// Walker acceptance probability per `(word, slot)`.
    alias_prob: Vec<f64>,
    /// Walker alias index per `(word, slot)`.
    alias: Vec<u32>,
    /// `s_w = α · Σ_t phi_w(t)`: total mass of the static part.
    static_mass: Vec<f64>,
}

impl SparseAliasTables {
    /// Pre-build the tables from a trained model (`O(K · V)` time and
    /// space; runs once when training ends or a predictor is loaded, never
    /// per token).
    pub fn build(model: &LdaModel) -> Self {
        let k = model.num_topics();
        let v = model.vocabulary().len();
        let alpha = model.config().alpha;
        let mut alias_prob = vec![0.0f64; v * k];
        let mut alias = vec![0u32; v * k];
        let mut static_mass = vec![0.0f64; v];
        // Reusable Walker worklists across words.
        let mut scaled = vec![0.0f64; k];
        let mut small: Vec<u32> = Vec::with_capacity(k);
        let mut large: Vec<u32> = Vec::with_capacity(k);
        for w in 0..v {
            let row = model.phi_row(w);
            let mut sum = 0.0;
            for &p in row {
                sum += p;
            }
            static_mass[w] = alpha * sum;
            // Walker/Vose construction over p_t = phi_w(t) / sum.
            for (t, s) in scaled.iter_mut().enumerate() {
                *s = row[t] / sum * k as f64;
            }
            small.clear();
            large.clear();
            for t in 0..k as u32 {
                if scaled[t as usize] < 1.0 {
                    small.push(t);
                } else {
                    large.push(t);
                }
            }
            let prob = &mut alias_prob[w * k..(w + 1) * k];
            let idx = &mut alias[w * k..(w + 1) * k];
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                prob[s as usize] = scaled[s as usize];
                idx[s as usize] = l;
                scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
                if scaled[l as usize] < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            // Leftovers on either worklist are full slots (the other list is
            // empty, so their residual mass can only be 1 up to rounding).
            for &t in large.iter().chain(small.iter()) {
                prob[t as usize] = 1.0;
                idx[t as usize] = t;
            }
        }
        SparseAliasTables {
            k,
            v,
            alias_prob,
            alias,
            static_mass,
        }
    }

    /// Panic unless the tables were built for a model of this shape (they
    /// embed the frozen topic–word term, so they are only valid against the
    /// model that produced them).
    pub(crate) fn assert_matches(&self, k: usize, v: usize) {
        assert_eq!(self.k, k, "sampler built for a different topic count");
        assert_eq!(self.v, v, "sampler built for a different vocabulary");
    }

    /// Total mass of the static part for `word`.
    #[inline]
    pub(crate) fn static_mass(&self, word: usize) -> f64 {
        self.static_mass[word]
    }

    /// Draw a topic from the static distribution of `word` using a single
    /// unit uniform `x ∈ [0, 1)`: `O(1)` Walker alias lookup.
    #[inline]
    pub(crate) fn sample_alias(&self, word: usize, x: f64) -> usize {
        let scaled = x * self.k as f64;
        let slot = (scaled as usize).min(self.k - 1);
        let frac = scaled - slot as f64;
        let base = word * self.k;
        if frac < self.alias_prob[base + slot] {
            slot
        } else {
            self.alias[base + slot] as usize
        }
    }
}

/// Walk `weights` until the running sum passes `target`, returning the
/// bucket index; if accumulated floating-point rounding keeps the sum from
/// ever reaching `target`, fall back to the **last** bucket.
///
/// This is the single rounding-fallback shared by both samplers: the dense
/// sweep walks all `K` full-conditional weights ([`sample_discrete`]), the
/// sparse sampler walks the `k_d` document-part weights with the branch
/// draw as `target`. `weights` must be non-empty; all-zero weights resolve
/// to the last bucket (nothing compares below a zero weight).
#[inline]
pub(crate) fn pick_bucket(weights: &[f64], target: f64) -> usize {
    let mut target = target;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

/// Sample an index proportionally to `weights` (whose sum is `total`),
/// consuming exactly one uniform draw from `rng`. Shared rounding fallback:
/// see [`pick_bucket`].
#[inline]
pub(crate) fn sample_discrete(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let target = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    pick_bucket(weights, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::LdaConfig;
    use rand::SeedableRng;

    fn themed_documents() -> Vec<String> {
        (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    "rock jazz blues album artist guitar song melody".to_string()
                } else {
                    "warsaw london paris city country europe capital river".to_string()
                }
            })
            .collect()
    }

    #[test]
    fn kind_round_trips_through_json_and_defaults_to_sparse_alias() {
        assert_eq!(SamplerKind::default(), SamplerKind::SparseAlias);
        for kind in [SamplerKind::Dense, SamplerKind::SparseAlias] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: SamplerKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
        assert!(serde_json::from_str::<SamplerKind>("\"Turbo\"").is_err());
        assert_eq!(SamplerKind::Dense.name(), "dense");
        assert_eq!(SamplerKind::SparseAlias.name(), "sparse-alias");
    }

    #[test]
    fn pick_bucket_selects_by_cumulative_weight() {
        let weights = [0.25, 0.5, 0.25];
        assert_eq!(pick_bucket(&weights, 0.0), 0);
        assert_eq!(pick_bucket(&weights, 0.2), 0);
        assert_eq!(pick_bucket(&weights, 0.3), 1);
        assert_eq!(pick_bucket(&weights, 0.74), 1);
        assert_eq!(pick_bucket(&weights, 0.8), 2);
    }

    /// The rounding fallback: a target the accumulated weights never reach
    /// (the caller's `total` can exceed the true sum by accumulated ulps)
    /// must resolve to the last bucket instead of running off the end.
    #[test]
    fn pick_bucket_falls_back_to_last_bucket_when_weights_never_reach_target() {
        let weights = [0.3, 0.3, 0.3];
        assert_eq!(pick_bucket(&weights, 0.95), 2);
        assert_eq!(pick_bucket(&weights, f64::MAX), 2);
    }

    /// All-zero weights (a degenerate conditional) must not panic or loop:
    /// no target compares below a zero weight, so the shared fallback
    /// resolves to the last bucket deterministically.
    #[test]
    fn pick_bucket_handles_all_zero_weights() {
        let weights = [0.0, 0.0, 0.0, 0.0];
        assert_eq!(pick_bucket(&weights, 0.0), 3);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(sample_discrete(&weights, 0.0, &mut rng), 3);
        }
    }

    #[test]
    fn sample_discrete_respects_weights_statistically() {
        let weights = [1.0, 3.0, 6.0];
        let total: f64 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        let draws = 60_000;
        for _ in 0..draws {
            counts[sample_discrete(&weights, total, &mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "bucket {i}: got {got}, expected {expected}"
            );
        }
    }

    /// The Walker alias tables must reproduce the static distribution
    /// `phi_w(t) / Σ_t phi_w(t)` they were built from, word by word.
    #[test]
    fn alias_tables_sample_the_static_distribution() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let tables = SparseAliasTables::build(&model);
        let k = model.num_topics();
        let mut rng = StdRng::seed_from_u64(23);
        for w in [0usize, 3, model.vocabulary().len() - 1] {
            let sum: f64 = (0..k).map(|t| model.phi(t, w)).sum();
            let mut counts = vec![0usize; k];
            let draws = 40_000;
            for _ in 0..draws {
                counts[tables.sample_alias(w, rng.gen_range(0.0..1.0))] += 1;
            }
            for (t, &c) in counts.iter().enumerate() {
                let expected = model.phi(t, w) / sum;
                let got = c as f64 / draws as f64;
                assert!(
                    (got - expected).abs() < 0.015,
                    "word {w} topic {t}: got {got}, expected {expected}"
                );
            }
        }
    }

    /// Against the model's own φ rows: the static mass recorded per word is
    /// `α · Σ_t phi_w(t)`, the alias slot probabilities form a valid Walker
    /// table (each slot in `[0, 1]`, aliases in range), and the table
    /// spreads exactly the normalized row's mass over the topics.
    #[test]
    fn table_invariants_hold() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let tables = SparseAliasTables::build(&model);
        let k = model.num_topics();
        let alpha = model.config().alpha;
        for w in 0..model.vocabulary().len() {
            let row = model.phi_row(w);
            let sum: f64 = row.iter().sum();
            assert!(
                (tables.static_mass(w) - alpha * sum).abs() < 1e-12,
                "static mass of word {w}"
            );
            let mut mass = vec![0.0f64; k];
            for t in 0..k {
                let slot = tables.alias_prob[w * k + t];
                let alias = tables.alias[w * k + t] as usize;
                assert!((0.0..=1.0 + 1e-9).contains(&slot), "slot prob {slot}");
                assert!(alias < k);
                mass[t] += slot.min(1.0);
                mass[alias] += 1.0 - slot.min(1.0);
            }
            for (t, &m) in mass.iter().enumerate() {
                let expected = row[t] / sum * k as f64;
                assert!(
                    (m - expected).abs() < 1e-9,
                    "word {w} topic {t}: table mass {m}, row mass {expected}"
                );
            }
        }
    }

    #[test]
    fn sampler_kind_accessor_matches_strategy() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        assert_eq!(TopicSampler::Dense.kind(), SamplerKind::Dense);
        assert_eq!(
            model.sampler(SamplerKind::SparseAlias).kind(),
            SamplerKind::SparseAlias
        );
        assert!(matches!(
            model.sampler(SamplerKind::Dense),
            TopicSampler::Dense
        ));
    }
}
