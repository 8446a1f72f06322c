//! The discrete draw of collapsed Gibbs training, and the names that the
//! end-to-end benchmark crate still gives the serving topic estimator.
//!
//! Training samples each token's topic from its full conditional with
//! `sample_discrete`. Serving does not sample: an unseen table's topic
//! vector is the deterministic fold-in of [`LdaModel::infer_tokens_into`].
//! Earlier releases served one of two Gibbs samplers (`Dense` and
//! `SparseAlias`) and wrote its name into every predictor artifact, so
//! [`SamplerKind`] still reads both names, and [`TopicSampler`] is the
//! stateless token the benchmark passes to
//! [`TableIntentEstimator::estimate_cells_into`].
//!
//! [`LdaModel::infer_tokens_into`]: crate::lda::LdaModel::infer_tokens_into
//! [`TableIntentEstimator::estimate_cells_into`]: crate::intent::TableIntentEstimator::estimate_cells_into

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The topic estimator a predictor serves, as its artifact's `META`
/// records it. There is one: the fold-in. An artifact whose `META` names
/// `Dense` or `SparseAlias` (a sampler of an earlier release) loads and
/// serves the fold-in; any other name fails to load. Only the benchmark
/// crate still names this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SamplerKind {
    /// EM folding-in against the frozen topic–word distribution.
    #[default]
    #[serde(alias = "Dense", alias = "SparseAlias")]
    FoldIn,
}

#[allow(non_upper_case_globals)]
impl SamplerKind {
    /// The dense Gibbs sampler of earlier releases, now served by the
    /// fold-in.
    pub const Dense: SamplerKind = SamplerKind::FoldIn;
    /// The sparse/alias Gibbs sampler of earlier releases, now served by
    /// the fold-in.
    pub const SparseAlias: SamplerKind = SamplerKind::FoldIn;

    /// Stable lowercase name (benchmark fingerprints).
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::FoldIn => "fold-in",
        }
    }
}

/// The serving topic estimator as a value: stateless, because the fold-in
/// reads only the frozen model. Only the benchmark crate still names this
/// type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TopicSampler;

/// Walk `weights` until the running sum passes `target`, returning the
/// bucket index; if accumulated floating-point rounding keeps the sum from
/// ever reaching `target`, fall back to the **last** bucket.
///
/// `weights` must be non-empty; all-zero weights resolve to the last bucket
/// (nothing compares below a zero weight).
#[inline]
fn pick_bucket(weights: &[f64], target: f64) -> usize {
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
/// consuming exactly one uniform draw from `rng`; LDA training draws every
/// token's topic with it. Rounding fallback: see [`pick_bucket`].
#[inline]
pub(crate) fn sample_discrete(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let target = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    pick_bucket(weights, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The default kind is `FoldIn`, which the legacy `SparseAlias` name
    /// (the default of earlier releases) now denotes. `FoldIn` writes its
    /// own name and reads back; the sampler names of earlier artifacts read
    /// as `FoldIn`; any other name is an error that names it.
    #[test]
    fn kind_round_trips_through_json_and_defaults_to_sparse_alias() {
        assert_eq!(SamplerKind::default(), SamplerKind::FoldIn);
        assert_eq!(SamplerKind::default(), SamplerKind::SparseAlias);
        let json = serde_json::to_string(&SamplerKind::FoldIn).unwrap();
        assert_eq!(json, "\"FoldIn\"");
        for name in ["\"FoldIn\"", "\"Dense\"", "\"SparseAlias\""] {
            assert_eq!(
                serde_json::from_str::<SamplerKind>(name).unwrap(),
                SamplerKind::FoldIn
            );
        }
        let err = serde_json::from_str::<SamplerKind>("\"Turbo\"").unwrap_err();
        assert!(err
            .to_string()
            .contains("unknown SamplerKind variant `Turbo`"));
        assert_eq!(SamplerKind::FoldIn.name(), "fold-in");
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
}
