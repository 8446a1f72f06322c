//! CRF training: maximise the table-level conditional log-likelihood
//! `log P(t | c)` by gradient ascent on the pairwise potential matrix
//! (Section 3.3, "Learning and prediction"). Unary potentials come from the
//! column-wise model and are treated as fixed inputs, which mirrors how the
//! paper trains the CRF layer after the topic-aware network.
//!
//! The gradient of the log-likelihood with respect to `P[a][b]` is the
//! classic *observed-minus-expected* count of the `(a, b)` transition, where
//! the expectation is taken under the model (edge marginals from
//! forward–backward).
//!
//! The expectation is computed by a scaled forward–backward in the
//! probability domain, so no `exp` or `log` runs per pairwise entry:
//!
//! * once per Adam step, `E = exp(P − max P)`;
//! * per position, `φᵢ = exp(uᵢ − max uᵢ)`, and the forward message
//!   `α̂ᵢ ∝ φᵢ ⊙ (α̂ᵢ₋₁ E)` is normalised to sum to one by its scale `cᵢ`;
//! * `log Z = Σᵢ (max uᵢ + ln cᵢ) + (m − 1)·max P`;
//! * the backward message `β̂ᵢ = E (φᵢ₊₁ ⊙ β̂ᵢ₊₁) / cᵢ₊₁` shares the scales,
//!   and the expected count of `(a, b)` at edge `i` is
//!   `α̂ᵢ[a]·E[a,b]·φᵢ₊₁[b]·β̂ᵢ₊₁[b] / cᵢ₊₁`.
//!
//! Every step is a `K × K` matrix–vector product over contiguous rows of
//! `E`. The log-domain [`LinearChainCrf::marginals`] is the oracle these
//! expectations are tested against.

use crate::chain::LinearChainCrf;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One training sequence: per-position unary potentials (log scores) and the
/// gold label of every position.
#[derive(Debug, Clone)]
pub struct CrfExample {
    /// `unary[i][s]`: unary potential of label `s` at position `i`.
    pub unary: Vec<Vec<f64>>,
    /// Gold labels, parallel to `unary`.
    pub labels: Vec<usize>,
}

/// Hyper-parameters for CRF training (the paper trains the CRF layer with
/// Adam, learning rate 1e-2, batches of 10 tables, 15 epochs).
#[derive(Debug, Clone)]
pub struct CrfTrainConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size (tables per update).
    pub batch_size: usize,
    /// L2 regularisation strength on the pairwise potentials.
    pub l2: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for CrfTrainConfig {
    fn default() -> Self {
        CrfTrainConfig {
            learning_rate: 1e-2,
            epochs: 15,
            batch_size: 10,
            l2: 1e-4,
            seed: 17,
        }
    }
}

impl CrfTrainConfig {
    /// Panic unless the configuration describes a well-defined optimiser:
    /// at least one table per mini-batch, a positive finite learning rate
    /// and a finite, non-negative L2 strength. The message names the field.
    pub fn validate(&self) {
        assert!(
            self.batch_size >= 1,
            "batch_size must be at least 1 (got 0)"
        );
        assert!(
            self.learning_rate.is_finite() && self.learning_rate > 0.0,
            "learning_rate must be positive and finite (got {})",
            self.learning_rate
        );
        assert!(
            self.l2.is_finite() && self.l2 >= 0.0,
            "l2 must be finite and non-negative (got {})",
            self.l2
        );
    }
}

/// Adam state for the flat pairwise parameter vector.
struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl AdamState {
    fn new(n: usize) -> Self {
        AdamState {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f64], grad: &[f64], lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bias1 = 1.0 - B1.powi(self.t as i32);
        let bias2 = 1.0 - B2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grad[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grad[i] * grad[i];
            let m_hat = self.m[i] / bias1;
            let v_hat = self.v[i] / bias2;
            // Gradient *ascent* on the log-likelihood.
            params[i] += lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// Working buffers of the scaled probability-domain forward–backward (see
/// the module docs), reused across every chain and Adam step of one
/// [`train_crf`] call.
struct ForwardBackward {
    k: usize,
    /// `trans[a * k + b] = exp(P[a][b] − max P)`.
    trans: Vec<f64>,
    /// `max P` of the pairwise matrix `trans` was built from.
    max_pair: f64,
    /// `phi[i * k + s] = exp(u_i[s] − max u_i)`.
    phi: Vec<f64>,
    /// Forward messages `α̂`, each position normalised to sum to one.
    alpha: Vec<f64>,
    /// `scale[i]`: the normaliser `c_i` of position `i`.
    scale: Vec<f64>,
    /// The backward message `β̂` of the position being processed.
    beta: Vec<f64>,
    /// `φ_{i+1} ⊙ β̂_{i+1}`.
    weighted: Vec<f64>,
}

impl ForwardBackward {
    fn new(k: usize) -> Self {
        ForwardBackward {
            k,
            trans: vec![0.0; k * k],
            max_pair: 0.0,
            phi: Vec::new(),
            alpha: Vec::new(),
            scale: Vec::new(),
            beta: vec![0.0; k],
            weighted: vec![0.0; k],
        }
    }

    /// Rebuild `E = exp(P − max P)` from the current pairwise matrix.
    fn set_pairwise(&mut self, pairwise: &[f64]) {
        self.max_pair = sato_kernels::reduce::max(pairwise);
        for (e, &p) in self.trans.iter_mut().zip(pairwise) {
            *e = (p - self.max_pair).exp();
        }
    }

    /// Subtract the expected transition counts of one chain from `grad`
    /// (row-major `k × k`) and return its `log Z`.
    ///
    /// Panics when a forward scale is not finite and positive, which means
    /// the potentials are non-finite or too far apart for `f64`.
    fn subtract_expected_counts(&mut self, unary: &[Vec<f64>], grad: &mut [f64]) -> f64 {
        let k = self.k;
        let m = unary.len();
        self.phi.clear();
        self.phi.resize(m * k, 0.0);
        self.alpha.clear();
        self.alpha.resize(m * k, 0.0);
        self.scale.clear();

        let mut log_z = (m - 1) as f64 * self.max_pair;
        for (i, u) in unary.iter().enumerate() {
            assert_eq!(u.len(), k, "every unary potential must have {k} entries");
            let max_u = sato_kernels::reduce::max(u);
            let phi = &mut self.phi[i * k..(i + 1) * k];
            for (f, &x) in phi.iter_mut().zip(u) {
                *f = (x - max_u).exp();
            }
            let (prev, cur) = self.alpha.split_at_mut(i * k);
            let cur = &mut cur[..k];
            if i == 0 {
                cur.copy_from_slice(phi);
            } else {
                for (&a, row) in prev[(i - 1) * k..].iter().zip(self.trans.chunks_exact(k)) {
                    for (c, &e) in cur.iter_mut().zip(row) {
                        *c += a * e;
                    }
                }
                for (c, &f) in cur.iter_mut().zip(phi.iter()) {
                    *c *= f;
                }
            }
            let mut c = 0.0;
            for &x in cur.iter() {
                c += x;
            }
            assert!(
                c.is_finite() && c > 0.0,
                "CRF forward scale at position {i} is {c}: the potentials are \
                 non-finite or too far apart for the scaled forward-backward"
            );
            for x in cur.iter_mut() {
                *x /= c;
            }
            self.scale.push(c);
            log_z += max_u + c.ln();
        }

        self.beta.fill(1.0);
        for i in (0..m - 1).rev() {
            let inv_c = 1.0 / self.scale[i + 1];
            for ((w, &f), &b) in self
                .weighted
                .iter_mut()
                .zip(&self.phi[(i + 1) * k..(i + 2) * k])
                .zip(&self.beta)
            {
                *w = f * b;
            }
            let alpha = &self.alpha[i * k..(i + 1) * k];
            for (((row, g), &a), b) in self
                .trans
                .chunks_exact(k)
                .zip(grad.chunks_exact_mut(k))
                .zip(alpha)
                .zip(self.beta.iter_mut())
            {
                *b = row_dot_subtract(row, &self.weighted, a * inv_c, g) * inv_c;
            }
        }
        log_z
    }
}

/// `Σ_b row[b]·w[b]`, subtracting `coef·row[b]·w[b]` from `g[b]` on the
/// way: one pairwise row of the backward step fused with that row's
/// expected transition counts. Four accumulators let the sum vectorise.
#[inline]
fn row_dot_subtract(row: &[f64], w: &[f64], coef: f64, g: &mut [f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut rows = row.chunks_exact(4);
    let mut ws = w.chunks_exact(4);
    let mut gs = g.chunks_exact_mut(4);
    for ((r, w), g) in (&mut rows).zip(&mut ws).zip(&mut gs) {
        for j in 0..4 {
            let t = r[j] * w[j];
            acc[j] += t;
            g[j] -= coef * t;
        }
    }
    let mut tail = 0.0;
    for ((&r, &w), g) in rows
        .remainder()
        .iter()
        .zip(ws.remainder())
        .zip(gs.into_remainder())
    {
        let t = r * w;
        tail += t;
        *g -= coef * t;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Train the pairwise potentials of a CRF on labelled sequences, starting
/// from the given initial model (typically the co-occurrence initialised
/// one). Returns the trained CRF and the mean log-likelihood per epoch.
///
/// Panics when `config` fails [`CrfTrainConfig::validate`].
pub fn train_crf(
    initial: LinearChainCrf,
    examples: &[CrfExample],
    config: &CrfTrainConfig,
) -> (LinearChainCrf, Vec<f64>) {
    config.validate();
    let mut crf = initial;
    let k = crf.num_states();
    let usable: Vec<&CrfExample> = examples
        .iter()
        .filter(|e| e.unary.len() >= 2 && e.unary.len() == e.labels.len())
        .collect();
    let mut history = Vec::with_capacity(config.epochs);
    if usable.is_empty() {
        return (crf, history);
    }

    let mut adam = AdamState::new(k * k);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..usable.len()).collect();
    let mut fb = ForwardBackward::new(k);
    let mut grad = vec![0.0f64; k * k];

    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_ll = 0.0;
        for batch in order.chunks(config.batch_size) {
            grad.fill(0.0);
            fb.set_pairwise(crf.pairwise());
            for &idx in batch {
                let ex = usable[idx];
                let score = crf.score(&ex.unary, &ex.labels);
                // Observed transition counts.
                for w in ex.labels.windows(2) {
                    grad[w[0] * k + w[1]] += 1.0;
                }
                epoch_ll += score - fb.subtract_expected_counts(&ex.unary, &mut grad);
            }
            let scale = 1.0 / batch.len() as f64;
            for (g, p) in grad.iter_mut().zip(crf.pairwise().iter()) {
                *g = *g * scale - config.l2 * p;
            }
            adam.step(crf.pairwise_mut(), &grad, config.learning_rate);
        }
        history.push(epoch_ll / usable.len() as f64);
    }
    (crf, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The log-domain trainer: every chain runs [`LinearChainCrf::marginals`]
    /// and subtracts its edge marginals. The oracle of [`train_crf`].
    fn reference_train_crf(
        initial: LinearChainCrf,
        examples: &[CrfExample],
        config: &CrfTrainConfig,
    ) -> (LinearChainCrf, Vec<f64>) {
        let mut crf = initial;
        let k = crf.num_states();
        let usable: Vec<&CrfExample> = examples
            .iter()
            .filter(|e| e.unary.len() >= 2 && e.unary.len() == e.labels.len())
            .collect();
        let mut history = Vec::with_capacity(config.epochs);
        if usable.is_empty() {
            return (crf, history);
        }

        let mut adam = AdamState::new(k * k);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..usable.len()).collect();

        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_ll = 0.0;
            for batch in order.chunks(config.batch_size) {
                let mut grad = vec![0.0f64; k * k];
                for &idx in batch {
                    let ex = usable[idx];
                    let marginals = crf.marginals(&ex.unary);
                    epoch_ll += crf.score(&ex.unary, &ex.labels) - marginals.log_partition;
                    // Observed transition counts.
                    for w in ex.labels.windows(2) {
                        grad[w[0] * k + w[1]] += 1.0;
                    }
                    // Expected transition counts.
                    for edge in &marginals.edge {
                        for (i, &p) in edge.iter().enumerate() {
                            grad[i] -= p;
                        }
                    }
                }
                let scale = 1.0 / batch.len() as f64;
                for (g, p) in grad.iter_mut().zip(crf.pairwise().iter()) {
                    *g = *g * scale - config.l2 * p;
                }
                adam.step(crf.pairwise_mut(), &grad, config.learning_rate);
            }
            history.push(epoch_ll / usable.len() as f64);
        }
        (crf, history)
    }

    /// The paper's state space: 78 semantic types.
    const K78: usize = 78;

    /// `ln` of a softmax over random logits in `[-5, 5]`.
    fn random_log_softmax(rng: &mut StdRng, k: usize) -> Vec<f64> {
        let logits: Vec<f64> = (0..k).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let lse = crate::log_sum_exp(&logits);
        logits.iter().map(|&x| x - lse).collect()
    }

    #[test]
    fn scaled_forward_backward_matches_log_domain_marginals() {
        let floor = 1e-8f64.ln();
        let mut rng = StdRng::seed_from_u64(23);
        let base: Vec<f64> = (0..K78 * K78).map(|_| rng.gen_range(-5.0..5.0)).collect();
        // +600 makes a bare exp(P) overflow.
        let shifted: Vec<f64> = base.iter().map(|p| p + 600.0).collect();
        for pairwise in [base, shifted] {
            let crf = LinearChainCrf::with_pairwise(K78, pairwise);
            let mut fb = ForwardBackward::new(K78);
            fb.set_pairwise(crf.pairwise());
            for m in [2usize, 3, 5, 8, 13, 21, 34, 40] {
                let floored = vec![vec![floor; K78]; m];
                let one_hot: Vec<Vec<f64>> = (0..m)
                    .map(|_| {
                        let mut u = vec![floor; K78];
                        u[rng.gen_range(0..K78)] = 0.0;
                        u
                    })
                    .collect();
                let softmax: Vec<Vec<f64>> =
                    (0..m).map(|_| random_log_softmax(&mut rng, K78)).collect();
                for unary in [floored, one_hot, softmax] {
                    let oracle = crf.marginals(&unary);
                    let mut grad = vec![0.0f64; K78 * K78];
                    let log_z = fb.subtract_expected_counts(&unary, &mut grad);
                    let rel =
                        (log_z - oracle.log_partition).abs() / oracle.log_partition.abs().max(1.0);
                    assert!(
                        rel <= 1e-9,
                        "m={m}: log Z {log_z} vs {}",
                        oracle.log_partition
                    );
                    for (i, &g) in grad.iter().enumerate() {
                        let expected: f64 = oracle.edge.iter().map(|e| e[i]).sum();
                        assert!(
                            (-g - expected).abs() <= 1e-9,
                            "m={m}, entry {i}: {} vs {expected}",
                            -g
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "CRF forward scale")]
    fn non_finite_potentials_panic_with_a_clear_message() {
        let mut fb = ForwardBackward::new(2);
        fb.set_pairwise(&[0.0, f64::NAN, 0.0, 0.0]);
        fb.subtract_expected_counts(&[vec![0.0, 0.0], vec![0.0, 0.0]], &mut [0.0; 4]);
    }

    /// 78-state chains whose next label usually follows the previous one
    /// (`l + 1 mod 78`), with noisy unaries that favour the gold label.
    fn synthetic_78_state_chains(n: usize, seed: u64) -> Vec<CrfExample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(2..9);
                let mut labels = vec![rng.gen_range(0..K78)];
                for _ in 1..len {
                    let prev = *labels.last().unwrap();
                    labels.push(if rng.gen_bool(0.8) {
                        (prev + 1) % K78
                    } else {
                        rng.gen_range(0..K78)
                    });
                }
                let unary = labels
                    .iter()
                    .map(|&l| {
                        let mut u = random_log_softmax(&mut rng, K78);
                        u[l] += rng.gen_range(0.0..4.0);
                        u
                    })
                    .collect();
                CrfExample { unary, labels }
            })
            .collect()
    }

    #[test]
    fn trainer_matches_log_domain_reference() {
        let train = synthetic_78_state_chains(40, 31);
        let held_out = synthetic_78_state_chains(20, 32);
        let mut rng = StdRng::seed_from_u64(33);
        let init: Vec<f64> = (0..K78 * K78).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let initial = LinearChainCrf::with_pairwise(K78, init);
        let config = CrfTrainConfig {
            epochs: 4,
            ..CrfTrainConfig::default()
        };
        let (fast, fast_history) = train_crf(initial.clone(), &train, &config);
        let (oracle, oracle_history) = reference_train_crf(initial, &train, &config);

        for (i, (a, b)) in fast.pairwise().iter().zip(oracle.pairwise()).enumerate() {
            assert!((a - b).abs() <= 1e-9, "pairwise entry {i}: {a} vs {b}");
        }
        assert_eq!(fast_history.len(), oracle_history.len());
        for (a, b) in fast_history.iter().zip(&oracle_history) {
            assert!((a - b).abs() <= 1e-9 * b.abs(), "history {a} vs {b}");
        }
        for ex in &held_out {
            assert_eq!(fast.viterbi(&ex.unary), oracle.viterbi(&ex.unary));
        }
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_size_panics_naming_the_field() {
        let config = CrfTrainConfig {
            batch_size: 0,
            ..CrfTrainConfig::default()
        };
        train_crf(LinearChainCrf::new(4), &synthetic_examples(4, 1), &config);
    }

    #[test]
    #[should_panic(expected = "learning_rate")]
    fn nan_learning_rate_panics_naming_the_field() {
        let config = CrfTrainConfig {
            learning_rate: f64::NAN,
            ..CrfTrainConfig::default()
        };
        train_crf(LinearChainCrf::new(4), &[], &config);
    }

    #[test]
    #[should_panic(expected = "l2")]
    fn negative_l2_panics_naming_the_field() {
        let config = CrfTrainConfig {
            l2: -1e-4,
            ..CrfTrainConfig::default()
        };
        train_crf(LinearChainCrf::new(4), &synthetic_examples(4, 1), &config);
    }

    /// Build a synthetic task where labels alternate between coupled pairs
    /// (0 follows 1, 2 follows 3) and the unary scores are occasionally
    /// wrong: at a quarter of the positions a random distractor label
    /// out-scores the gold one. Position-independent prediction gets those
    /// positions wrong; the chain context (alternation never crosses a
    /// base pair) is what recovers them — the Table 4 "corrections" story.
    fn synthetic_examples(n: usize, seed: u64) -> Vec<CrfExample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for _ in 0..n {
            let len = rng.gen_range(2..5);
            // Gold sequence alternates 0,1,0,1,... or 2,3,2,3,...
            let base = if rng.gen_bool(0.5) { 0 } else { 2 };
            let labels: Vec<usize> = (0..len).map(|i| base + (i % 2)).collect();
            let unary: Vec<Vec<f64>> = labels
                .iter()
                .map(|&l| {
                    let mut u = vec![0.0f64; 4];
                    u[l] = 1.0;
                    if rng.gen_bool(0.25) {
                        let distractor = (l + rng.gen_range(1..4)) % 4;
                        u[distractor] = 1.2;
                    }
                    u
                })
                .collect();
            out.push(CrfExample { unary, labels });
        }
        out
    }

    #[test]
    fn training_increases_log_likelihood() {
        let examples = synthetic_examples(60, 5);
        let config = CrfTrainConfig {
            epochs: 10,
            ..CrfTrainConfig::default()
        };
        let (_, history) = train_crf(LinearChainCrf::new(4), &examples, &config);
        assert_eq!(history.len(), 10);
        assert!(
            history.last().unwrap() > history.first().unwrap(),
            "log-likelihood did not improve: {history:?}"
        );
    }

    #[test]
    fn trained_crf_learns_transition_structure() {
        let examples = synthetic_examples(80, 7);
        let config = CrfTrainConfig {
            epochs: 20,
            ..CrfTrainConfig::default()
        };
        let (crf, _) = train_crf(LinearChainCrf::new(4), &examples, &config);
        // Transitions 0->1 and 2->3 are observed; 0->3 never is.
        assert!(crf.pair(0, 1) > crf.pair(0, 3));
        assert!(crf.pair(2, 3) > crf.pair(2, 1));
    }

    #[test]
    fn trained_crf_improves_prediction_accuracy_on_ambiguous_unaries() {
        let train = synthetic_examples(80, 11);
        let test = synthetic_examples(30, 12);
        let config = CrfTrainConfig {
            epochs: 20,
            ..CrfTrainConfig::default()
        };
        let untrained = LinearChainCrf::new(4);
        let (trained, _) = train_crf(LinearChainCrf::new(4), &train, &config);

        let accuracy = |crf: &LinearChainCrf| -> f64 {
            let mut correct = 0usize;
            let mut total = 0usize;
            for ex in &test {
                let pred = crf.viterbi(&ex.unary);
                correct += pred.iter().zip(&ex.labels).filter(|(a, b)| a == b).count();
                total += ex.labels.len();
            }
            correct as f64 / total as f64
        };
        let acc_untrained = accuracy(&untrained);
        let acc_trained = accuracy(&trained);
        assert!(
            acc_trained >= acc_untrained,
            "trained {acc_trained} < untrained {acc_untrained}"
        );
        assert!(acc_trained > 0.9, "trained accuracy too low: {acc_trained}");
    }

    #[test]
    fn training_skips_singleton_sequences_gracefully() {
        let examples = vec![CrfExample {
            unary: vec![vec![0.0, 1.0]],
            labels: vec![1],
        }];
        let (crf, history) = train_crf(
            LinearChainCrf::new(2),
            &examples,
            &CrfTrainConfig::default(),
        );
        // No usable (length >= 2) sequences: parameters stay zero.
        assert!(crf.pairwise().iter().all(|&p| p == 0.0));
        assert!(history.is_empty());
    }

    #[test]
    fn l2_regularisation_keeps_potentials_bounded() {
        let examples = synthetic_examples(50, 3);
        let config = CrfTrainConfig {
            epochs: 30,
            l2: 0.5,
            ..CrfTrainConfig::default()
        };
        let (crf, _) = train_crf(LinearChainCrf::new(4), &examples, &config);
        assert!(crf.pairwise().iter().all(|p| p.abs() < 10.0));
    }
}
