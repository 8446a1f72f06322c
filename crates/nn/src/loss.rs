//! Softmax activation and the softmax cross-entropy loss used to train the
//! 78-way type classifiers.

use crate::matrix::Matrix;

/// Row-wise numerically stable softmax, overwriting the logits in place (no
/// temporary per-row buffers).
pub fn softmax_in_place(logits: &mut Matrix) {
    for r in 0..logits.rows() {
        let row = logits.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for x in row.iter_mut() {
            *x = (*x - max).exp();
        }
        let sum: f32 = row.iter().sum();
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Result of a softmax cross-entropy evaluation.
#[derive(Debug, Clone)]
pub struct CrossEntropyOutput {
    /// Mean negative log-likelihood over the batch.
    pub loss: f32,
    /// Gradient of the mean loss with respect to the logits.
    pub grad_logits: Matrix,
}

/// Compute the mean softmax cross-entropy of `logits` against integer
/// `targets`, together with the gradient with respect to the logits
/// (`(softmax - one_hot) / batch`).
pub fn softmax_cross_entropy(logits: &Matrix, targets: &[usize]) -> CrossEntropyOutput {
    assert_eq!(
        logits.rows(),
        targets.len(),
        "one target per logits row required"
    );
    let batch = logits.rows() as f32;
    let mut loss = 0.0;
    let mut grad = logits.clone();
    softmax_in_place(&mut grad);
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target {t} out of range");
        // The target's log-softmax, `x_t - (ln Σ exp(x - max) + max)`, more
        // stable than `ln` of the softmax.
        let row = logits.row(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
        loss -= row[t] - log_sum;
        grad.set(r, t, grad.get(r, t) - 1.0);
    }
    CrossEntropyOutput {
        loss: loss / batch,
        grad_logits: grad.scale(1.0 / batch),
    }
}

/// Index of the largest score in one row (the predicted class). Ties
/// resolve to the **last** maximal entry, as `Iterator::max_by` does; an
/// empty row gives 0.
pub fn argmax_row(scores: &[f32]) -> usize {
    scores
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

    fn softmax(logits: &Matrix) -> Matrix {
        let mut out = logits.clone();
        softmax_in_place(&mut out);
        out
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&x| x > 0.0 && x < 1.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]));
        let b = softmax(&Matrix::from_rows(&[vec![1001.0, 1002.0, 1003.0]]));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[vec![20.0, 0.0, 0.0]]);
        let out = softmax_cross_entropy(&logits, &[0]);
        assert!(out.loss < 1e-3);
        // Gradient points towards increasing the correct logit (negative).
        assert!(out.grad_logits.get(0, 0) <= 0.0);
    }

    #[test]
    fn cross_entropy_uniform_prediction_is_log_k() {
        let logits = Matrix::from_rows(&[vec![0.0, 0.0, 0.0, 0.0]]);
        let out = softmax_cross_entropy(&logits, &[2]);
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[vec![0.3, -1.0, 2.0], vec![1.0, 1.0, 1.0]]);
        let out = softmax_cross_entropy(&logits, &[1, 0]);
        for r in 0..2 {
            let s: f32 = out.grad_logits.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_numerical_gradient() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.2, 0.1], vec![1.5, 0.0, -1.0]]);
        let targets = [2usize, 0usize];
        let out = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3;
        for i in 0..logits.data().len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let num = (softmax_cross_entropy(&lp, &targets).loss
                - softmax_cross_entropy(&lm, &targets).loss)
                / (2.0 * eps);
            let ana = out.grad_logits.data()[i];
            assert!((num - ana).abs() < 1e-3, "idx {i}: {num} vs {ana}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_target() {
        let logits = Matrix::from_rows(&[vec![0.0, 0.0]]);
        softmax_cross_entropy(&logits, &[5]);
    }

    #[test]
    fn argmax_row_finds_the_last_maximum() {
        assert_eq!(argmax_row(&[0.1, 0.7, 0.2]), 1);
        assert_eq!(argmax_row(&[0.9, 0.05, 0.05]), 0);
        assert_eq!(argmax_row(&[0.4, 0.2, 0.4]), 2);
        assert_eq!(argmax_row(&[]), 0);
    }

    proptest! {
        #[test]
        fn softmax_always_normalises(values in proptest::collection::vec(-50.0f32..50.0, 2..20)) {
            let m = Matrix::from_vec(1, values.len(), values);
            let p = softmax(&m);
            let sum: f32 = p.data().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }

        #[test]
        fn cross_entropy_is_negative_log_of_softmax(values in proptest::collection::vec(-20.0f32..20.0, 2..10)) {
            let m = Matrix::from_vec(1, values.len(), values);
            let p = softmax(&m);
            for t in 0..m.cols() {
                let loss = softmax_cross_entropy(&m, &[t]).loss;
                prop_assert!((p.get(0, t).ln() + loss).abs() < 1e-4);
            }
        }
    }
}
