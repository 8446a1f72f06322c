//! The linear-chain conditional random field at the heart of Sato's
//! structured prediction module (Section 3.3).
//!
//! A table with `m` columns is a chain of `m` nodes. Each node carries a
//! *unary potential* vector (the log-scores of the column-wise, topic-aware
//! prediction model) and each edge between adjacent columns carries a shared
//! *pairwise potential* matrix `P` with `P[i][j] = ψ_PAIR(t_i = i, t_j = j)`.
//!
//! The conditional distribution is
//! `P(t | c) ∝ exp( Σ ψ_UNI(t_i, c_i) + Σ ψ_PAIR(t_i, t_{i+1}) )`,
//! the partition function is computed with the forward algorithm in log
//! space, marginals with forward–backward, and the MAP labelling with
//! Viterbi — exactly the machinery the paper describes. Training computes
//! its expected transition counts with a scaled forward–backward of its own
//! (see [`crate::train`]).

use std::sync::OnceLock;

/// A linear-chain CRF over `num_states` labels with a shared pairwise
/// potential matrix. Unary potentials are supplied per sequence at call time
/// (they come from the column-wise model), which is why they are not stored
/// on the struct.
///
/// Equality compares the state count and the pairwise matrix only: the
/// per-row bounds [`Self::viterbi_flat`] prunes with are derived from the
/// matrix on first use, dropped by [`Self::pairwise_mut`], and never
/// serialized.
#[derive(Debug, Clone)]
pub struct LinearChainCrf {
    num_states: usize,
    /// Row-major `num_states × num_states` pairwise potential matrix (log scale).
    pairwise: Vec<f64>,
    /// Per-row bounds of `pairwise`, built lazily by the first decode.
    row_bounds: OnceLock<RowBounds>,
}

impl PartialEq for LinearChainCrf {
    fn eq(&self, other: &Self) -> bool {
        self.num_states == other.num_states && self.pairwise == other.pairwise
    }
}

/// Per-row extremes of the pairwise matrix, the bounds of the Viterbi
/// source pruning.
#[derive(Debug, Clone)]
struct RowBounds {
    /// `max_b P[a][b]`, ignoring NaN entries (`-inf` for an all-NaN row):
    /// an upper bound of every entry that can win a relaxation.
    max: Vec<f64>,
    /// `min_b P[a][b]`, or NaN when the row holds a NaN (no lower bound).
    min: Vec<f64>,
}

impl RowBounds {
    fn new(pairwise: &[f64], k: usize) -> Self {
        let rows = pairwise.chunks_exact(k);
        RowBounds {
            max: rows
                .clone()
                .map(|row| row.iter().copied().fold(f64::NEG_INFINITY, f64::max))
                .collect(),
            min: rows
                .map(|row| {
                    if row.iter().any(|v| v.is_nan()) {
                        f64::NAN
                    } else {
                        row.iter().copied().fold(f64::INFINITY, f64::min)
                    }
                })
                .collect(),
        }
    }
}

/// Node and edge marginals of a chain, as produced by forward–backward.
#[derive(Debug, Clone)]
pub struct Marginals {
    /// `node[i][s]`: probability that position `i` has label `s`.
    pub node: Vec<Vec<f64>>,
    /// `edge[i][a * K + b]`: probability that positions `(i, i+1)` have
    /// labels `(a, b)`. Has `m - 1` entries.
    pub edge: Vec<Vec<f64>>,
    /// The log partition function `log Z(c)`.
    pub log_partition: f64,
}

impl LinearChainCrf {
    /// A CRF with all-zero pairwise potentials (equivalent to independent
    /// per-column prediction).
    pub fn new(num_states: usize) -> Self {
        assert!(num_states >= 2, "need at least two states");
        LinearChainCrf::with_pairwise(num_states, vec![0.0; num_states * num_states])
    }

    /// A CRF with an explicit pairwise potential matrix (e.g. the log
    /// co-occurrence initialisation of Section 4.3).
    pub fn with_pairwise(num_states: usize, pairwise: Vec<f64>) -> Self {
        assert_eq!(
            pairwise.len(),
            num_states * num_states,
            "pairwise matrix must be {num_states}x{num_states}"
        );
        LinearChainCrf {
            num_states,
            pairwise,
            row_bounds: OnceLock::new(),
        }
    }

    /// Number of labels.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Borrow the pairwise potential matrix (row-major).
    pub fn pairwise(&self) -> &[f64] {
        &self.pairwise
    }

    /// Mutably borrow the pairwise potential matrix (used by the trainer).
    /// Drops the derived row bounds; the next decode rebuilds them from the
    /// edited matrix.
    pub fn pairwise_mut(&mut self) -> &mut [f64] {
        self.row_bounds.take();
        &mut self.pairwise
    }

    /// Pairwise potential of the ordered pair `(a, b)`.
    #[inline]
    pub fn pair(&self, a: usize, b: usize) -> f64 {
        self.pairwise[a * self.num_states + b]
    }

    fn check_unary(&self, unary: &[Vec<f64>]) {
        assert!(!unary.is_empty(), "empty chain");
        assert!(
            unary.iter().all(|u| u.len() == self.num_states),
            "every unary potential must have {} entries",
            self.num_states
        );
    }

    /// Unnormalised log-score of a complete labelling.
    pub fn score(&self, unary: &[Vec<f64>], labels: &[usize]) -> f64 {
        self.check_unary(unary);
        assert_eq!(unary.len(), labels.len(), "one label per position");
        let mut s = 0.0;
        for (u, &l) in unary.iter().zip(labels) {
            s += u[l];
        }
        for w in labels.windows(2) {
            s += self.pair(w[0], w[1]);
        }
        s
    }

    /// One row-major forward DP step: `next[b] = lse_a(alpha[a] + P[a][b])`
    /// for every destination at once, walking the pairwise matrix by
    /// contiguous rows instead of stride-`k` columns. Per destination the
    /// sources are visited in ascending order, so the result is
    /// bit-identical to the historical destination-major loop.
    #[inline]
    fn forward_step(&self, alpha: &[f64], maxes: &mut [f64], acc: &mut [f64]) {
        let k = self.num_states;
        maxes.fill(f64::NEG_INFINITY);
        acc.fill(0.0);
        for (a, &alpha_a) in alpha.iter().enumerate() {
            sato_kernels::max_add_update(alpha_a, &self.pairwise[a * k..(a + 1) * k], maxes);
        }
        for (a, &alpha_a) in alpha.iter().enumerate() {
            sato_kernels::exp_sum_update(alpha_a, &self.pairwise[a * k..(a + 1) * k], maxes, acc);
        }
        sato_kernels::lse_finish(maxes, acc);
    }

    /// `log Z(c)` computed with the forward algorithm in log space.
    pub fn log_partition(&self, unary: &[Vec<f64>]) -> f64 {
        self.check_unary(unary);
        let k = self.num_states;
        let mut alpha: Vec<f64> = unary[0].clone();
        let mut maxes = vec![0.0f64; k];
        let mut next = vec![0.0f64; k];
        for u in &unary[1..] {
            self.forward_step(&alpha, &mut maxes, &mut next);
            for (nb, &ub) in next.iter_mut().zip(u) {
                *nb += ub;
            }
            std::mem::swap(&mut alpha, &mut next);
        }
        log_sum_exp(&alpha)
    }

    /// Log-likelihood of a labelling: `score(t) - log Z(c)`.
    pub fn log_likelihood(&self, unary: &[Vec<f64>], labels: &[usize]) -> f64 {
        self.score(unary, labels) - self.log_partition(unary)
    }

    /// Forward–backward: node and edge marginals plus `log Z`.
    ///
    /// Runs in log space: three `exp`/`log` passes over the `k × k`
    /// pairwise entries at every edge, and a fresh `k × k` buffer per edge
    /// marginal. Training does not call it: [`crate::train_crf`] runs a
    /// scaled probability-domain forward–backward with no transcendental
    /// per pairwise entry, and this routine is the oracle that one is
    /// tested against.
    ///
    /// The forward/backward message tables are flat `m × k` buffers (one
    /// allocation each, not one per position).
    pub fn marginals(&self, unary: &[Vec<f64>]) -> Marginals {
        self.check_unary(unary);
        let k = self.num_states;
        let m = unary.len();

        // Reusable max buffer for the row-major forward steps (the naive
        // version allocated a fresh term Vec per (position, state)).
        let mut maxes = vec![0.0f64; k];

        // Forward messages alpha[i * k + s] (log space, including unary of i).
        let mut alpha = vec![0.0f64; m * k];
        alpha[..k].copy_from_slice(&unary[0]);
        for i in 1..m {
            let (prev, cur) = alpha.split_at_mut(i * k);
            let prev = &prev[(i - 1) * k..];
            let cur = &mut cur[..k];
            self.forward_step(prev, &mut maxes, cur);
            for (cur_b, &ub) in cur.iter_mut().zip(&unary[i]) {
                *cur_b += ub;
            }
        }
        // Backward messages beta[i * k + s] (log space, excluding unary of i).
        // For a fixed source `a` the terms `P[a][b] + unary[i+1][b] + next[b]`
        // run over a contiguous pairwise row, which is exactly the fused
        // three-slice log-sum-exp kernel.
        let mut beta = vec![0.0f64; m * k];
        for i in (0..m - 1).rev() {
            let (cur, next) = beta.split_at_mut((i + 1) * k);
            let cur = &mut cur[i * k..];
            let next = &next[..k];
            for (a, cur_a) in cur.iter_mut().enumerate() {
                *cur_a = sato_kernels::log_sum_exp3(
                    &self.pairwise[a * k..(a + 1) * k],
                    &unary[i + 1],
                    next,
                );
            }
        }
        let log_z = log_sum_exp(&alpha[(m - 1) * k..]);

        let node: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                (0..k)
                    .map(|s| (alpha[i * k + s] + beta[i * k + s] - log_z).exp())
                    .collect()
            })
            .collect();

        let edge: Vec<Vec<f64>> = (0..m.saturating_sub(1))
            .map(|i| {
                let mut e = vec![0.0f64; k * k];
                for a in 0..k {
                    for b in 0..k {
                        e[a * k + b] = (alpha[i * k + a]
                            + self.pair(a, b)
                            + unary[i + 1][b]
                            + beta[(i + 1) * k + b]
                            - log_z)
                            .exp();
                    }
                }
                e
            })
            .collect();

        Marginals {
            node,
            edge,
            log_partition: log_z,
        }
    }

    /// Viterbi MAP decoding: the labelling with the highest score.
    pub fn viterbi(&self, unary: &[Vec<f64>]) -> Vec<usize> {
        self.check_unary(unary);
        let k = self.num_states;
        let mut flat = vec![0.0f64; unary.len() * k];
        for (row, u) in flat.chunks_mut(k).zip(unary) {
            row.copy_from_slice(u);
        }
        self.viterbi_flat(&flat)
    }

    /// Viterbi MAP decoding over a flat row-major `m × k` unary buffer —
    /// the serving hot path (no per-position `Vec`s anywhere).
    ///
    /// The relaxation is row-major: each source state relaxes every
    /// destination over a contiguous pairwise row
    /// ([`sato_kernels::relax_max_argmax`]), and only the sources that can
    /// win some destination are relaxed. With `top = prev[a*]` the largest
    /// previous score, source `a` is skipped when
    /// `fl(prev[a] + max_b P[a][b]) < fl(top + min_b P[a*][b])`: rounding
    /// is monotone, so at every destination the skipped source scores
    /// strictly below `a*` and cannot be the first maximum. The kept
    /// sources are visited in ascending order and ties keep the first
    /// winner, so labels — and the DP table bits — match the
    /// destination-major reference loop exactly. A non-finite `top` or
    /// bound (infinities, or a NaN in row `a*`) relaxes every source.
    ///
    /// Panics when `unary` is empty or not a multiple of the state count.
    pub fn viterbi_flat(&self, unary: &[f64]) -> Vec<usize> {
        let k = self.num_states;
        assert!(!unary.is_empty(), "empty chain");
        assert_eq!(
            unary.len() % k,
            0,
            "flat unary length must be a multiple of {k}"
        );
        let bounds = self
            .row_bounds
            .get_or_init(|| RowBounds::new(&self.pairwise, k));
        let m = unary.len() / k;
        // DP tables as flat m × k buffers.
        let mut delta = vec![f64::NEG_INFINITY; m * k];
        let mut backptr = vec![0u32; m * k];
        delta[..k].copy_from_slice(&unary[..k]);
        for i in 1..m {
            let (prev, cur) = delta.split_at_mut(i * k);
            let prev = &prev[(i - 1) * k..];
            let cur = &mut cur[..k];
            let bp = &mut backptr[i * k..(i + 1) * k];
            let (top, a_top) = sato_kernels::max_argmax(prev);
            let floor = top + bounds.min[a_top];
            let prune = top.is_finite() && floor.is_finite();
            for (a, &prev_a) in prev.iter().enumerate() {
                // A NaN bound fails `>=` too: such a source scores NaN or
                // -inf everywhere and never wins.
                let can_win = !prune || prev_a + bounds.max[a] >= floor;
                if !can_win {
                    continue;
                }
                sato_kernels::relax_max_argmax(
                    prev_a,
                    &self.pairwise[a * k..(a + 1) * k],
                    cur,
                    bp,
                    a as u32,
                );
            }
            for (b, cur_b) in cur.iter_mut().enumerate() {
                *cur_b += unary[i * k + b];
            }
        }
        let mut labels = vec![0usize; m];
        labels[m - 1] = argmax(&delta[(m - 1) * k..]);
        for i in (0..m - 1).rev() {
            labels[i] = backptr[(i + 1) * k + labels[i + 1]] as usize;
        }
        labels
    }
}

/// Numerically stable `log Σ exp(x)` (the chunked kernel form, bit-identical
/// to the historical sequential fold — see `sato_kernels`' exactness
/// contract).
pub fn log_sum_exp(values: &[f64]) -> f64 {
    sato_kernels::log_sum_exp(values)
}

/// Index of the maximum value.
pub fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl LinearChainCrf {
        /// The historical destination-major Viterbi loop (stride-`k` pairwise
        /// reads, per-destination scalar scans, every source at every step):
        /// the parity oracle of [`LinearChainCrf::viterbi_flat`].
        fn viterbi_flat_reference(&self, unary: &[f64]) -> Vec<usize> {
            let k = self.num_states;
            assert!(!unary.is_empty(), "empty chain");
            assert_eq!(
                unary.len() % k,
                0,
                "flat unary length must be a multiple of {k}"
            );
            let m = unary.len() / k;
            let mut delta = vec![f64::NEG_INFINITY; m * k];
            let mut backptr = vec![0usize; m * k];
            delta[..k].copy_from_slice(&unary[..k]);
            for i in 1..m {
                let (prev, cur) = delta.split_at_mut(i * k);
                let prev = &prev[(i - 1) * k..];
                let cur = &mut cur[..k];
                for (b, cur_b) in cur.iter_mut().enumerate() {
                    let mut best = f64::NEG_INFINITY;
                    let mut best_a = 0;
                    for (a, &prev_a) in prev.iter().enumerate() {
                        let s = prev_a + self.pair(a, b);
                        if s > best {
                            best = s;
                            best_a = a;
                        }
                    }
                    *cur_b = best + unary[i * k + b];
                    backptr[i * k + b] = best_a;
                }
            }
            let mut labels = vec![0usize; m];
            labels[m - 1] = argmax(&delta[(m - 1) * k..]);
            for i in (0..m - 1).rev() {
                labels[i] = backptr[(i + 1) * k + labels[i + 1]];
            }
            labels
        }
    }

    /// Enumerate all labellings for brute-force checks.
    fn all_labellings(m: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![]];
        for _ in 0..m {
            let mut next = Vec::new();
            for prefix in &out {
                for s in 0..k {
                    let mut p = prefix.clone();
                    p.push(s);
                    next.push(p);
                }
            }
            out = next;
        }
        out
    }

    fn sample_crf() -> (LinearChainCrf, Vec<Vec<f64>>) {
        let pairwise = vec![
            0.5, -0.2, 0.1, //
            0.0, 1.0, -0.5, //
            0.3, 0.2, 0.0,
        ];
        let crf = LinearChainCrf::with_pairwise(3, pairwise);
        let unary = vec![
            vec![1.0, 0.2, -0.3],
            vec![0.1, 0.4, 0.5],
            vec![-0.2, 0.9, 0.0],
            vec![0.7, 0.0, 0.3],
        ];
        (crf, unary)
    }

    #[test]
    fn partition_matches_brute_force() {
        let (crf, unary) = sample_crf();
        let brute: f64 = log_sum_exp(
            &all_labellings(unary.len(), 3)
                .iter()
                .map(|l| crf.score(&unary, l))
                .collect::<Vec<_>>(),
        );
        assert!((crf.log_partition(&unary) - brute).abs() < 1e-9);
    }

    #[test]
    fn marginals_match_brute_force() {
        let (crf, unary) = sample_crf();
        let m = crf.marginals(&unary);
        let labellings = all_labellings(unary.len(), 3);
        let log_z = m.log_partition;

        // Node marginal of position 2, state 1.
        let brute: f64 = labellings
            .iter()
            .filter(|l| l[2] == 1)
            .map(|l| (crf.score(&unary, l) - log_z).exp())
            .sum();
        assert!((m.node[2][1] - brute).abs() < 1e-9);

        // Edge marginal of positions (1, 2), states (0, 2).
        let brute_e: f64 = labellings
            .iter()
            .filter(|l| l[1] == 0 && l[2] == 2)
            .map(|l| (crf.score(&unary, l) - log_z).exp())
            .sum();
        assert!((m.edge[1][2] - brute_e).abs() < 1e-9);
    }

    #[test]
    fn node_marginals_sum_to_one() {
        let (crf, unary) = sample_crf();
        let m = crf.marginals(&unary);
        for node in &m.node {
            let s: f64 = node.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        for edge in &m.edge {
            let s: f64 = edge.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn viterbi_matches_brute_force_argmax() {
        let (crf, unary) = sample_crf();
        let best = all_labellings(unary.len(), 3)
            .into_iter()
            .max_by(|a, b| {
                crf.score(&unary, a)
                    .partial_cmp(&crf.score(&unary, b))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(crf.viterbi(&unary), best);
    }

    #[test]
    fn single_column_chain_reduces_to_argmax_of_unary() {
        let crf = LinearChainCrf::new(4);
        let unary = vec![vec![0.1, 2.0, -1.0, 0.5]];
        assert_eq!(crf.viterbi(&unary), vec![1]);
        assert!((crf.log_partition(&unary) - log_sum_exp(&unary[0])).abs() < 1e-12);
    }

    #[test]
    fn zero_pairwise_crf_factorises() {
        // With zero pairwise potentials the chain is a product of independent
        // softmaxes, so Viterbi must equal per-position argmax.
        let crf = LinearChainCrf::new(3);
        let unary = vec![
            vec![3.0, 0.0, 1.0],
            vec![0.0, 0.1, 2.0],
            vec![1.0, 5.0, 0.0],
        ];
        assert_eq!(crf.viterbi(&unary), vec![0, 2, 1]);
    }

    #[test]
    fn pairwise_potentials_can_flip_a_prediction() {
        // The second column weakly prefers state 0, but the pairwise matrix
        // strongly couples state 1 with state 1.
        let mut pairwise = vec![0.0; 4];
        pairwise[3] = 3.0; // entry (1, 1) of the 2x2 matrix
        let crf = LinearChainCrf::with_pairwise(2, pairwise);
        let unary = vec![vec![0.0, 5.0], vec![0.5, 0.0]];
        assert_eq!(crf.viterbi(&unary), vec![1, 1]);
    }

    #[test]
    fn log_likelihood_is_negative_and_maximal_for_map() {
        let (crf, unary) = sample_crf();
        let map = crf.viterbi(&unary);
        let ll_map = crf.log_likelihood(&unary, &map);
        assert!(ll_map < 0.0);
        for l in all_labellings(unary.len(), 3) {
            assert!(crf.log_likelihood(&unary, &l) <= ll_map + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "empty chain")]
    fn empty_chain_panics() {
        let crf = LinearChainCrf::new(2);
        crf.log_partition(&[]);
    }

    #[test]
    fn viterbi_flat_matches_reference_loop() {
        let (crf, unary) = sample_crf();
        let flat: Vec<f64> = unary.iter().flatten().copied().collect();
        assert_eq!(crf.viterbi_flat(&flat), crf.viterbi_flat_reference(&flat));
    }

    #[test]
    fn viterbi_flat_matches_nested_unary() {
        let (crf, unary) = sample_crf();
        let flat: Vec<f64> = unary.iter().flatten().copied().collect();
        assert_eq!(crf.viterbi_flat(&flat), crf.viterbi(&unary));
        // Single-position chain through the flat path.
        assert_eq!(crf.viterbi_flat(&[0.1, 2.0, -1.0]), vec![1]);
    }

    #[test]
    #[should_panic(expected = "empty chain")]
    fn viterbi_flat_rejects_empty_unary() {
        LinearChainCrf::new(2).viterbi_flat(&[]);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn viterbi_flat_rejects_ragged_unary() {
        LinearChainCrf::new(3).viterbi_flat(&[0.0; 5]);
    }

    #[test]
    fn pairwise_edits_after_a_decode_rebuild_the_row_bounds() {
        // Source 1 starts far below source 0, so with a zero matrix the
        // first decode skips it and builds the row bounds.
        let mut crf = LinearChainCrf::new(3);
        let flat = [0.0, -10.0, -10.0, -10.0, 0.0, -10.0];
        assert_eq!(crf.viterbi_flat(&flat), vec![0, 1]);
        assert_eq!(crf.viterbi_flat(&flat), crf.viterbi_flat_reference(&flat));
        // A strong 1 → 1 transition makes source 1 the winner: a decode on
        // stale bounds would still skip it.
        crf.pairwise_mut()[4] = 30.0;
        assert_eq!(crf.viterbi_flat(&flat), vec![1, 1]);
        assert_eq!(crf.viterbi_flat(&flat), crf.viterbi_flat_reference(&flat));
        // Equality ignores whether the bounds have been built.
        assert_eq!(
            crf,
            LinearChainCrf::with_pairwise(3, crf.pairwise().to_vec())
        );
    }

    /// A chain for the pruned-decode parity proptest: `ln` of near-one-hot
    /// rows (off-peak mass between 1e-1 and 1e-8) or scores on a 0.5 grid,
    /// and a pairwise matrix on a ninth-of-`span` grid, so exact ties are
    /// common. `specials` plants +∞, −∞ and NaN: bits 0–2 in the unaries,
    /// bits 3–5 in the matrix.
    fn pruning_case(
        k: usize,
        m: usize,
        span: f64,
        peaked: bool,
        specials: u8,
        seed: u64,
    ) -> (LinearChainCrf, Vec<f64>) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let pairwise: Vec<f64> = (0..k * k)
            .map(|_| span * (rng.gen_range(0..=8) as f64 / 8.0 - 0.5))
            .collect();
        let mut unary = Vec::with_capacity(m * k);
        for _ in 0..m {
            if peaked {
                let peak = rng.gen_range(0..k);
                let mass: Vec<f64> = (0..k)
                    .map(|s| {
                        if s == peak {
                            1.0
                        } else {
                            10f64.powi(-rng.gen_range(1..=8))
                        }
                    })
                    .collect();
                let total: f64 = mass.iter().sum();
                unary.extend(mass.iter().map(|p| (p / total).ln()));
            } else {
                unary.extend((0..k).map(|_| rng.gen_range(-8..=8) as f64 * 0.5));
            }
        }
        let mut crf = LinearChainCrf::with_pairwise(k, pairwise);
        let values = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for (bit, &v) in values.iter().enumerate() {
            if specials & (1 << bit) != 0 {
                let at = rng.gen_range(0..unary.len());
                unary[at] = v;
            }
            if specials & (8 << bit) != 0 {
                let at = rng.gen_range(0..k * k);
                crf.pairwise_mut()[at] = v;
            }
        }
        (crf, unary)
    }

    #[test]
    #[should_panic(expected = "pairwise matrix")]
    fn wrong_pairwise_size_panics() {
        LinearChainCrf::with_pairwise(3, vec![0.0; 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn partition_dominates_any_single_labelling(
            unary in proptest::collection::vec(
                proptest::collection::vec(-5.0f64..5.0, 3), 1..5),
            pairwise in proptest::collection::vec(-2.0f64..2.0, 9),
            labels in proptest::collection::vec(0usize..3, 5),
        ) {
            let crf = LinearChainCrf::with_pairwise(3, pairwise);
            let labels = &labels[..unary.len()];
            let score = crf.score(&unary, labels);
            let log_z = crf.log_partition(&unary);
            prop_assert!(log_z >= score - 1e-9);
        }

        #[test]
        fn viterbi_beats_random_labellings(
            unary in proptest::collection::vec(
                proptest::collection::vec(-5.0f64..5.0, 4), 1..5),
            pairwise in proptest::collection::vec(-2.0f64..2.0, 16),
            labels in proptest::collection::vec(0usize..4, 5),
        ) {
            let crf = LinearChainCrf::with_pairwise(4, pairwise);
            let labels = &labels[..unary.len()];
            let map = crf.viterbi(&unary);
            prop_assert!(crf.score(&unary, &map) >= crf.score(&unary, labels) - 1e-9);
        }

        /// The kernelised row-major decode must agree with the historical
        /// destination-major loop on random chains (exact label equality —
        /// the relaxation is bit-identical, ties included).
        #[test]
        fn kernel_viterbi_matches_reference_on_random_chains(
            unary in proptest::collection::vec(-5.0f64..5.0, 20),
            pairwise in proptest::collection::vec(-2.0f64..2.0, 16),
            m in 1usize..=5,
        ) {
            let crf = LinearChainCrf::with_pairwise(4, pairwise);
            let flat = &unary[..m * 4];
            prop_assert_eq!(crf.viterbi_flat(flat), crf.viterbi_flat_reference(flat));
        }

        /// The pruned decode skips only sources that cannot win, so its
        /// labels equal the reference's on peaked and flat unaries, small
        /// and wide pairwise spans, exact ties, and ±∞ / NaN anywhere.
        #[test]
        fn pruned_viterbi_matches_reference(
            k_pick in 0usize..11,
            m in 1usize..=6,
            half_span in 0u8..=8,
            peaked in 0u8..2,
            specials in 0u8..128,
            seed in 0u64..u64::MAX,
        ) {
            // K in 2..12, or the paper's 78; half the cases plant nothing.
            let k = if k_pick == 10 { 78 } else { k_pick + 2 };
            let specials = if specials < 64 { specials } else { 0 };
            let (crf, flat) =
                pruning_case(k, m, half_span as f64 * 0.5, peaked == 1, specials, seed);
            prop_assert_eq!(crf.viterbi_flat(&flat), crf.viterbi_flat_reference(&flat));
        }

        #[test]
        fn marginals_are_probabilities(
            unary in proptest::collection::vec(
                proptest::collection::vec(-4.0f64..4.0, 3), 2..5),
            pairwise in proptest::collection::vec(-1.5f64..1.5, 9),
        ) {
            let crf = LinearChainCrf::with_pairwise(3, pairwise);
            let m = crf.marginals(&unary);
            for node in &m.node {
                let s: f64 = node.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-6);
                prop_assert!(node.iter().all(|&p| (-1e-9..=1.0 + 1e-9).contains(&p)));
            }
        }
    }
}
