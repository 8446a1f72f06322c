//! Neural network layers: dense (fully connected), ReLU, dropout and batch
//! normalisation — exactly the building blocks of the Sherlock/Sato primary
//! network ("two fully-connected layers (ReLU activation) with BatchNorm and
//! Dropout layers ... before the output layer", Section 3.1).
//!
//! A [`Layer`] has one training forward and one evaluation forward.
//! [`Layer::forward`] always trains: it draws dropout masks, normalises
//! with batch statistics and caches whatever the matching `backward` needs;
//! trainable layers expose their parameters through [`Layer::params_mut`]
//! so an optimiser can update them. [`Layer::infer_into`] is the immutable
//! evaluation forward: it caches nothing, treats dropout as the identity and
//! normalises with running statistics, so a trained network can be shared
//! across threads (`Layer: Send + Sync`).

use crate::init::he_uniform;
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// A trainable parameter: its current value and the gradient accumulated by
/// the latest backward pass.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub value: Matrix,
    /// Gradient of the loss with respect to `value`.
    pub grad: Matrix,
}

impl Param {
    /// Create a parameter with zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// A differentiable network layer.
///
/// `Send + Sync` is part of the contract: a trained layer must be shareable
/// across threads through `&self`, which is what [`Layer::infer_into`] (and
/// the frozen predictors built on it) rely on.
pub trait Layer: Send + Sync {
    /// Training forward pass: dropout masks, batch statistics, and the
    /// activations the next [`Layer::backward`] reads are cached.
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Immutable evaluation forward pass into a caller-provided output
    /// buffer: no activation caching, no RNG state, dropout as the
    /// identity, batch normalisation with running statistics. `out` is
    /// resized in place, so a warm buffer makes the call allocation-free;
    /// this is the building block of the ping-pong scratch path of
    /// [`Sequential::infer_with`](crate::network::Sequential::infer_with).
    ///
    /// `input` and `out` must be distinct buffers (guaranteed by the
    /// `&`/`&mut` signature).
    fn infer_into(&self, input: &Matrix, out: &mut Matrix);

    /// Whether the evaluation-mode forward pass is the identity function
    /// (e.g. inverted dropout). The ping-pong scratch path skips such layers
    /// outright instead of copying the activations through them.
    fn infer_is_identity(&self) -> bool {
        false
    }

    /// Back-propagate `grad_output` (dL/d output) and return dL/d input.
    /// Must be called after a `forward`.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Back-propagate `grad_output` into the parameter gradients only,
    /// leaving exactly the gradients [`Layer::backward`] leaves but not
    /// forming dL/d input: the call for the first layer of a stack, whose
    /// input gradient nobody reads.
    fn backward_params(&mut self, grad_output: &Matrix) {
        self.backward(grad_output);
    }

    /// Mutable access to the layer's trainable parameters (empty for
    /// parameter-free layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to the layer's trainable parameters, in the same order
    /// as [`Layer::params_mut`].
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Shared access to the layer's non-trainable state ("buffers", e.g. the
    /// running statistics of batch normalisation), in a stable order.
    fn buffers(&self) -> Vec<&Vec<f32>> {
        Vec::new()
    }

    /// Mutable access to the layer's buffers, in the same order as
    /// [`Layer::buffers`].
    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        Vec::new()
    }
}

/// Fully connected layer: `y = x W + b`.
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// Create a dense layer with He-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Dense {
            weight: Param::new(he_uniform(in_dim, out_dim, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// `dW += xᵀ g` and `db += Σ rows of g`.
    fn accumulate_grads(&mut self, grad_output: &Matrix) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        self.weight
            .grad
            .add_scaled(&input.t_matmul(grad_output), 1.0);
        self.bias.grad.add_scaled(&grad_output.sum_rows(), 1.0);
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        self.cached_input = Some(input.clone());
        let mut out = Matrix::default();
        self.infer_into(input, &mut out);
        out
    }

    fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "Dense expected {} input features, got {}",
            self.in_dim(),
            input.cols()
        );
        input.matmul_into(&self.weight.value, out);
        out.add_row_broadcast(&self.bias.value);
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.accumulate_grads(grad_output);
        // dx = g Wᵀ
        grad_output.matmul_t(&self.weight.value)
    }

    fn backward_params(&mut self, grad_output: &Matrix) {
        self.accumulate_grads(grad_output);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

/// Rectified linear unit activation.
#[derive(Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Create a ReLU activation layer.
    pub fn new() -> Self {
        ReLU { mask: None }
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        input.map(|x| x.max(0.0))
    }

    fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        out.resize(input.rows(), input.cols());
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            *o = x.max(0.0);
        }
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mask = self.mask.as_ref().expect("backward before forward");
        let data = grad_output
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Matrix::from_vec(grad_output.rows(), grad_output.cols(), data)
    }
}

/// Inverted dropout: at training time each activation is zeroed with
/// probability `p` and the survivors are scaled by `1/(1-p)`; at evaluation
/// time the layer is the identity.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Create a dropout layer with drop probability `p` in `[0, 1)`.
    pub fn new(p: f32, rng: StdRng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Dropout { p, rng, mask: None }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        if self.p == 0.0 {
            // Nothing is dropped: the identity, and no mask to replay.
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let mask: Vec<f32> = (0..input.data().len())
            .map(|_| {
                if self.rng.gen::<f32>() < self.p {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect();
        let data = input
            .data()
            .iter()
            .zip(&mask)
            .map(|(&x, &m)| x * m)
            .collect();
        self.mask = Some(mask);
        Matrix::from_vec(input.rows(), input.cols(), data)
    }

    fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        // Identity at evaluation time: a buffer copy rather than a clone
        // (and `Sequential::infer_with` skips the layer entirely).
        out.copy_from(input);
    }

    fn infer_is_identity(&self) -> bool {
        true
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        match &self.mask {
            None => grad_output.clone(),
            Some(mask) => {
                let data = grad_output
                    .data()
                    .iter()
                    .zip(mask)
                    .map(|(&g, &m)| g * m)
                    .collect();
                Matrix::from_vec(grad_output.rows(), grad_output.cols(), data)
            }
        }
    }
}

/// 1-D batch normalisation with learnable scale (`gamma`) and shift (`beta`)
/// and running statistics for evaluation mode.
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    // Cached values from the training forward pass.
    cache: Option<BatchNormCache>,
}

struct BatchNormCache {
    x_hat: Matrix,
    std_inv: Vec<f32>,
    /// Normalised with the running statistics (a batch of one), so the
    /// input gradient is the affine one, without the batch-statistics
    /// terms.
    affine: bool,
}

impl BatchNorm {
    /// Create a batch-norm layer over `dim` features.
    pub fn new(dim: usize) -> Self {
        BatchNorm {
            gamma: Param::new(Matrix::filled(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    fn dim(&self) -> usize {
        self.gamma.value.cols()
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.dim(), "BatchNorm feature mismatch");
        let dim = self.dim();
        // A batch of one has a degenerate batch variance: normalise with the
        // running statistics, exactly as `infer_into` does. They are
        // constants of the step, so the layer is affine in its input.
        let affine = input.rows() <= 1;
        let (mean, std_inv): (Vec<f32>, Vec<f32>) = if affine {
            let std_inv = self
                .running_var
                .iter()
                .map(|&v| 1.0 / (v + self.eps).sqrt())
                .collect();
            (self.running_mean.clone(), std_inv)
        } else {
            // Row-outer sums that keep each column's row order, from the
            // identity `Sum` folds from, so every bit is that of the
            // column-wise iterator sums.
            let n = input.rows() as f32;
            let zero: f32 = std::iter::empty::<f32>().sum();
            let mut mean = vec![zero; dim];
            for r in 0..input.rows() {
                sato_kernels::add_assign(input.row(r), &mut mean);
            }
            mean.iter_mut().for_each(|s| *s /= n);
            let mut var = vec![zero; dim];
            for r in 0..input.rows() {
                for ((s, &x), &m) in var.iter_mut().zip(input.row(r)).zip(&mean) {
                    let d = x - m;
                    *s += d * d;
                }
            }
            var.iter_mut().for_each(|s| *s /= n);
            for c in 0..dim {
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
            }
            let std_inv = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            (mean, std_inv)
        };

        let mut x_hat = Matrix::zeros(input.rows(), dim);
        let mut out = Matrix::zeros(input.rows(), dim);
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        for r in 0..input.rows() {
            let (x_hat_row, out_row) = (x_hat.row_mut(r), out.row_mut(r));
            let columns = input.row(r).iter().zip(&mean).zip(&std_inv);
            for ((((xh, o), ((&x, &m), &s)), &g), &b) in x_hat_row
                .iter_mut()
                .zip(out_row)
                .zip(columns)
                .zip(gamma)
                .zip(beta)
            {
                *xh = (x - m) * s;
                *o = *xh * g + b;
            }
        }
        self.cache = Some(BatchNormCache {
            x_hat,
            std_inv,
            affine,
        });
        out
    }

    fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(input.cols(), self.dim(), "BatchNorm feature mismatch");
        let dim = self.dim();
        out.resize(input.rows(), dim);
        // Row-outer within blocks of columns, so each feature's
        // 1/sqrt(var + eps) is computed once into a stack buffer.
        const BLOCK: usize = 64;
        let mut std_inv = [0.0f32; BLOCK];
        for c0 in (0..dim).step_by(BLOCK) {
            let cols = c0..dim.min(c0 + BLOCK);
            let std_inv = &mut std_inv[..cols.len()];
            for (s, &v) in std_inv.iter_mut().zip(&self.running_var[cols.clone()]) {
                *s = 1.0 / (v + self.eps).sqrt();
            }
            let mean = &self.running_mean[cols.clone()];
            let gamma = &self.gamma.value.data()[cols.clone()];
            let beta = &self.beta.value.data()[cols.clone()];
            for r in 0..input.rows() {
                let x = &input.row(r)[cols.clone()];
                let o = &mut out.row_mut(r)[cols.clone()];
                let columns = x.iter().zip(mean).zip(std_inv.iter());
                for ((o, ((&x, &m), &s)), (&g, &b)) in
                    o.iter_mut().zip(columns).zip(gamma.iter().zip(beta))
                {
                    let x_hat = (x - m) * s;
                    *o = x_hat * g + b;
                }
            }
        }
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm::backward called before forward");
        let n = grad_output.rows() as f32;
        let dim = self.dim();

        // Parameter gradients.
        for c in 0..dim {
            let mut dgamma = 0.0;
            let mut dbeta = 0.0;
            for r in 0..grad_output.rows() {
                dgamma += grad_output.get(r, c) * cache.x_hat.get(r, c);
                dbeta += grad_output.get(r, c);
            }
            let g = self.gamma.grad.get(0, c) + dgamma;
            self.gamma.grad.set(0, c, g);
            let b = self.beta.grad.get(0, c) + dbeta;
            self.beta.grad.set(0, c, b);
        }

        if cache.affine {
            let mut grad_in = Matrix::zeros(grad_output.rows(), dim);
            for r in 0..grad_output.rows() {
                for c in 0..dim {
                    let v = grad_output.get(r, c) * self.gamma.value.get(0, c) * cache.std_inv[c];
                    grad_in.set(r, c, v);
                }
            }
            return grad_in;
        }

        // Input gradient (standard batch-norm backward formula).
        let mut grad_in = Matrix::zeros(grad_output.rows(), dim);
        for c in 0..dim {
            let gamma = self.gamma.value.get(0, c);
            let sum_dy: f32 = (0..grad_output.rows()).map(|r| grad_output.get(r, c)).sum();
            let sum_dy_xhat: f32 = (0..grad_output.rows())
                .map(|r| grad_output.get(r, c) * cache.x_hat.get(r, c))
                .sum();
            for r in 0..grad_output.rows() {
                let dy = grad_output.get(r, c);
                let x_hat = cache.x_hat.get(r, c);
                let v = gamma * cache.std_inv[c] / n * (n * dy - sum_dy - x_hat * sum_dy_xhat);
                grad_in.set(r, c, v);
            }
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        vec![&self.running_mean, &self.running_var]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    /// Numerical gradient check helper for a single-layer scalar loss
    /// `L = sum(forward(x))`.
    fn numeric_grad_input(layer: &mut dyn Layer, x: &Matrix, eps: f32) -> Matrix {
        let mut grad = Matrix::zeros(x.rows(), x.cols());
        for i in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = layer.forward(&xp).data().iter().sum();
            let lm: f32 = layer.forward(&xm).data().iter().sum();
            grad.data_mut()[i] = (lp - lm) / (2.0 * eps);
        }
        grad
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut r = rng();
        let mut layer = Dense::new(3, 2, &mut r);
        // Overwrite with known weights for a deterministic check.
        layer.weight.value = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        layer.bias.value = Matrix::from_rows(&[vec![0.5, -0.5]]);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let mut y = Matrix::default();
        layer.infer_into(&x, &mut y);
        assert_eq!(y.data(), &[4.5, 4.5]);
        assert_eq!(y.shape(), (1, 2));
        // The training forward computes the same product.
        assert_eq!(layer.forward(&x), y);
    }

    #[test]
    fn dense_gradients_match_numerical_estimates() {
        let mut r = rng();
        let mut layer = Dense::new(4, 3, &mut r);
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0, 0.1], vec![1.0, 0.3, -0.7, 0.9]]);

        let out = layer.forward(&x);
        let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
        let analytic = layer.backward(&ones);

        let mut probe = Dense::new(4, 3, &mut rng());
        probe.weight.value = layer.weight.value.clone();
        probe.bias.value = layer.bias.value.clone();
        let numeric = numeric_grad_input(&mut probe, &x, 1e-2);
        for (a, n) in analytic.data().iter().zip(numeric.data()) {
            assert!((a - n).abs() < 1e-2, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn dense_weight_gradient_accumulates() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, &mut r);
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let g = Matrix::from_rows(&[vec![1.0, 1.0]]);
        layer.forward(&x);
        layer.backward(&g);
        layer.forward(&x);
        layer.backward(&g);
        // dW for a single example is outer(x, g); accumulated twice.
        assert_eq!(layer.weight.grad.get(0, 0), 2.0);
        assert_eq!(layer.weight.grad.get(1, 1), 4.0);
        assert_eq!(layer.bias.grad.data(), &[2.0, 2.0]);
    }

    #[test]
    fn dense_parameter_only_backward_leaves_the_same_gradients() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 0.0, 2.0], vec![1.0, 0.3, -0.7, -0.0]]);
        let g = Matrix::from_rows(&[vec![0.2, -0.4, 1.5], vec![-0.0, 0.9, -1.1]]);
        let mut full = Dense::new(4, 3, &mut rng());
        let mut params_only = Dense::new(4, 3, &mut rng());
        for _ in 0..2 {
            full.forward(&x);
            full.backward(&g);
            params_only.forward(&x);
            params_only.backward_params(&g);
        }
        for (a, b) in full.params().iter().zip(params_only.params()) {
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.grad), bits(&b.grad));
            assert!(a.grad.data().iter().any(|&g| g != 0.0));
        }
    }

    #[test]
    fn relu_masks_negative_values_and_gradients() {
        let mut relu = ReLU::new();
        let x = Matrix::from_rows(&[vec![-1.0, 2.0, 0.0]]);
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0]);
        let g = relu.backward(&Matrix::from_rows(&[vec![5.0, 5.0, 5.0]]));
        assert_eq!(g.data(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn dropout_is_identity_at_eval_and_scales_at_train() {
        let mut d = Dropout::new(0.5, rng());
        let x = Matrix::filled(4, 50, 1.0);
        let mut eval = Matrix::default();
        d.infer_into(&x, &mut eval);
        assert_eq!(eval, x);
        let train = d.forward(&x);
        let zeros = train.data().iter().filter(|&&v| v == 0.0).count();
        let scaled = train
            .data()
            .iter()
            .filter(|&&v| (v - 2.0).abs() < 1e-6)
            .count();
        assert_eq!(zeros + scaled, 200);
        assert!(zeros > 50 && zeros < 150, "zeros={zeros}");
        // Expected value is preserved approximately.
        let mean: f32 = train.data().iter().sum::<f32>() / 200.0;
        assert!((mean - 1.0).abs() < 0.3);

        // With nothing to drop, training is the identity too, gradient
        // included.
        let mut none = Dropout::new(0.0, rng());
        assert_eq!(none.forward(&x), x);
        assert_eq!(none.backward(&x), x);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, rng());
        let x = Matrix::filled(1, 100, 1.0);
        let y = d.forward(&x);
        let g = d.backward(&Matrix::filled(1, 100, 1.0));
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(yv, gv, "gradient mask must match forward mask");
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn dropout_rejects_invalid_probability() {
        Dropout::new(1.0, rng());
    }

    #[test]
    fn batchnorm_normalises_training_batch() {
        let mut bn = BatchNorm::new(2);
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]);
        let y = bn.forward(&x);
        // Each column should have ~zero mean and ~unit variance.
        for c in 0..2 {
            let mean: f32 = (0..3).map(|r| y.get(r, c)).sum::<f32>() / 3.0;
            let var: f32 = (0..3).map(|r| (y.get(r, c) - mean).powi(2)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_statistics() {
        let mut bn = BatchNorm::new(1);
        let x = Matrix::from_rows(&[vec![10.0], vec![20.0], vec![30.0]]);
        for _ in 0..200 {
            bn.forward(&x);
        }
        // Running mean should approach 20.
        let one_row = Matrix::from_rows(&[vec![20.0]]);
        let mut y = Matrix::default();
        bn.infer_into(&one_row, &mut y);
        assert!(y.get(0, 0).abs() < 0.2, "eval output {}", y.get(0, 0));
        // A training batch of one has no usable batch variance and takes
        // the same running-statistics path.
        assert_eq!(bn.forward(&one_row), y);
    }

    /// A training batch of one is normalised with the running statistics,
    /// so the layer is `y = gamma · (x − mean) · std_inv + beta` with
    /// constant `mean` and `std_inv`. Its backward must still accumulate
    /// `dgamma` and `dbeta`, or a trailing one-row mini-batch never trains
    /// them; all three gradients are checked against central differences
    /// of `L = Σ g ⊙ y`.
    #[test]
    fn batchnorm_batch_of_one_gradients_match_numerical_estimates() {
        let mut bn = BatchNorm::new(3);
        let warm = Matrix::from_rows(&[
            vec![1.0, -2.0, 0.5],
            vec![3.0, 4.0, -1.5],
            vec![-2.0, 1.0, 2.5],
        ]);
        bn.forward(&warm);
        bn.gamma.value = Matrix::from_rows(&[vec![1.5, -0.7, 0.3]]);
        bn.beta.value = Matrix::from_rows(&[vec![0.2, 0.1, -0.4]]);
        bn.gamma.grad = Matrix::zeros(1, 3);
        bn.beta.grad = Matrix::zeros(1, 3);

        let x = Matrix::from_rows(&[vec![0.8, -1.3, 2.1]]);
        let g = Matrix::from_rows(&[vec![0.6, -1.2, 0.9]]);
        let loss = |bn: &mut BatchNorm, x: &Matrix| -> f32 {
            let y = bn.forward(x);
            y.data().iter().zip(g.data()).map(|(y, g)| y * g).sum()
        };
        bn.forward(&x);
        let dx = bn.backward(&g);
        let (dgamma, dbeta) = (bn.gamma.grad.clone(), bn.beta.grad.clone());

        let eps = 1e-2;
        for c in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[c] += eps;
            let mut xm = x.clone();
            xm.data_mut()[c] -= eps;
            let numeric = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!((dx.get(0, c) - numeric).abs() < 1e-2, "dx[{c}]");
            // `params_mut` lists gamma, then beta.
            for (i, (name, analytic)) in [("gamma", &dgamma), ("beta", &dbeta)]
                .into_iter()
                .enumerate()
            {
                let mut at = |delta: f32| {
                    bn.params_mut()[i].value.data_mut()[c] += delta;
                    let l = loss(&mut bn, &x);
                    bn.params_mut()[i].value.data_mut()[c] -= delta;
                    l
                };
                let numeric = (at(eps) - at(-eps)) / (2.0 * eps);
                let analytic = analytic.get(0, c);
                assert!(analytic != 0.0, "d{name}[{c}] untrained");
                assert!((analytic - numeric).abs() < 1e-2, "d{name}[{c}]");
            }
        }
    }

    /// The column-outer batch normalisation the row-outer loops replaced:
    /// `(output, x_hat, running mean, running var)` of a training forward
    /// from the given running statistics.
    fn batchnorm_column_outer(
        bn: &BatchNorm,
        input: &Matrix,
    ) -> (Matrix, Matrix, Vec<f32>, Vec<f32>) {
        let (rows, dim) = input.shape();
        let n = rows as f32;
        let mean: Vec<f32> = (0..dim)
            .map(|c| (0..rows).map(|r| input.get(r, c)).sum::<f32>() / n)
            .collect();
        let var: Vec<f32> = (0..dim)
            .map(|c| {
                (0..rows)
                    .map(|r| {
                        let d = input.get(r, c) - mean[c];
                        d * d
                    })
                    .sum::<f32>()
                    / n
            })
            .collect();
        let (mut running_mean, mut running_var) = (bn.running_mean.clone(), bn.running_var.clone());
        for c in 0..dim {
            running_mean[c] = (1.0 - bn.momentum) * running_mean[c] + bn.momentum * mean[c];
            running_var[c] = (1.0 - bn.momentum) * running_var[c] + bn.momentum * var[c];
        }
        let mut x_hat = Matrix::zeros(rows, dim);
        let mut out = Matrix::zeros(rows, dim);
        for c in 0..dim {
            let std_inv = 1.0 / (var[c] + bn.eps).sqrt();
            for r in 0..rows {
                x_hat.set(r, c, (input.get(r, c) - mean[c]) * std_inv);
                let y = x_hat.get(r, c) * bn.gamma.value.get(0, c) + bn.beta.value.get(0, c);
                out.set(r, c, y);
            }
        }
        (out, x_hat, running_mean, running_var)
    }

    /// `forward` and `infer_into` walk rows outer; every bit matches the
    /// column-outer loops, over 70 features (more than one block of
    /// `infer_into`) and a feature column of `-0.0`s, whose mean takes
    /// its sign from the value `Sum` starts at.
    #[test]
    fn batchnorm_row_outer_loops_match_the_column_outer_form() {
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut r = rng();
        let (rows, dim) = (5, 70);
        let mut bn = BatchNorm::new(dim);
        bn.gamma.value =
            Matrix::from_vec(1, dim, (0..dim).map(|_| r.gen_range(-2.0..2.0)).collect());
        bn.beta.value =
            Matrix::from_vec(1, dim, (0..dim).map(|_| r.gen_range(-1.0..1.0)).collect());
        bn.beta.value.set(0, 3, -0.0);
        bn.running_mean = (0..dim).map(|_| r.gen_range(-1.0..1.0)).collect();
        bn.running_var = (0..dim).map(|_| r.gen_range(0.5..2.0)).collect();
        let mut x = Matrix::from_vec(
            rows,
            dim,
            (0..rows * dim).map(|_| r.gen_range(-3.0..3.0)).collect(),
        );
        for row in 0..rows {
            x.set(row, 3, -0.0);
        }

        let mut served = Matrix::default();
        bn.infer_into(&x, &mut served);
        let mut want = Matrix::zeros(rows, dim);
        for row in 0..rows {
            for c in 0..dim {
                let std_inv = 1.0 / (bn.running_var[c] + bn.eps).sqrt();
                let x_hat = (x.get(row, c) - bn.running_mean[c]) * std_inv;
                want.set(
                    row,
                    c,
                    x_hat * bn.gamma.value.get(0, c) + bn.beta.value.get(0, c),
                );
            }
        }
        assert_eq!(bits(&served), bits(&want), "infer_into");

        let (want, want_x_hat, want_mean, want_var) = batchnorm_column_outer(&bn, &x);
        let out = bn.forward(&x);
        assert_eq!(bits(&out), bits(&want), "forward output");
        let x_hat = &bn.cache.as_ref().expect("forward caches x_hat").x_hat;
        assert_eq!(bits(x_hat), bits(&want_x_hat), "x_hat");
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            to_bits(&bn.running_mean),
            to_bits(&want_mean),
            "running mean"
        );
        assert_eq!(to_bits(&bn.running_var), to_bits(&want_var), "running var");
    }

    #[test]
    fn batchnorm_gradient_sums_to_zero_per_feature() {
        // Because the batch mean is subtracted, the input gradients within a
        // feature column must sum to ~0 when gamma multiplies a zero-mean
        // x_hat with symmetric upstream gradient structure.
        let mut bn = BatchNorm::new(2);
        let x = Matrix::from_rows(&[vec![1.0, -4.0], vec![2.0, 0.0], vec![6.0, 4.0]]);
        bn.forward(&x);
        let g = bn.backward(&Matrix::from_rows(&[
            vec![0.3, 1.0],
            vec![-0.2, -0.5],
            vec![0.8, 0.1],
        ]));
        for c in 0..2 {
            let s: f32 = (0..3).map(|r| g.get(r, c)).sum();
            assert!(s.abs() < 1e-4, "column {c} grad sum {s}");
        }
    }
}
