//! The Adam optimiser (the paper trains its networks with Adam, learning
//! rate 1e-4, weight decay 1e-4; Section 4.3).

use crate::layers::Param;

/// Adam optimiser (Kingma & Ba) with decoupled gradient accumulation: call
/// [`Adam::step`] once per mini-batch after the backward pass.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// L2 weight-decay coefficient (the paper uses 1e-4).
    pub weight_decay: f32,
    t: u64,
    state: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Create an Adam optimiser with the paper's defaults except the
    /// learning rate, which differs between the feature network (1e-4) and
    /// the CRF layer (1e-2).
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            state: Vec::new(),
        }
    }

    /// Apply one Adam step to the given parameters (in a stable order across
    /// calls) and reset their gradients.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.state.len() != params.len() {
            self.state = params
                .iter()
                .map(|p| {
                    let n = p.value.data().len();
                    (vec![0.0; n], vec![0.0; n])
                })
                .collect();
        }
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);

        for (p, (m, v)) in params.iter_mut().zip(self.state.iter_mut()) {
            assert_eq!(
                p.value.data().len(),
                m.len(),
                "parameter shape changed between Adam steps"
            );
            let Param { value, grad } = &mut **p;
            for (((x, &g), m), v) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                let g = g + self.weight_decay * *x;
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *x -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn quadratic_param(start: f32) -> Param {
        Param::new(Matrix::from_vec(1, 1, vec![start]))
    }

    /// Plain gradient descent, the yardstick Adam is compared with.
    fn sgd_step(lr: f32, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            let Param { value, grad } = &mut **p;
            for (x, &g) in value.data_mut().iter_mut().zip(grad.data()) {
                *x -= lr * g;
            }
            p.zero_grad();
        }
    }

    /// Minimise f(x) = (x - 3)^2 whose gradient is 2(x - 3).
    fn run_quadratic(optimiser: &mut dyn FnMut(&mut [&mut Param]), steps: usize) -> f32 {
        let mut p = quadratic_param(0.0);
        for _ in 0..steps {
            let x = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * (x - 3.0));
            optimiser(&mut [&mut p]);
        }
        p.value.get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.05, 0.0);
        let x = run_quadratic(&mut |params| adam.step(params), 2000);
        assert!((x - 3.0).abs() < 1e-2, "x={x}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut p = quadratic_param(1.0);
        let mut adam = Adam::new(0.01, 0.5);
        // Zero task gradient: only the decay term acts.
        for _ in 0..10 {
            p.zero_grad();
            adam.step(&mut [&mut p]);
        }
        assert!(p.value.get(0, 0) < 1.0);
        assert!(p.value.get(0, 0) > 0.0);
    }

    #[test]
    fn step_resets_gradients() {
        let mut p = quadratic_param(0.0);
        p.grad.set(0, 0, 1.0);
        let mut adam = Adam::new(0.01, 0.0);
        adam.step(&mut [&mut p]);
        assert_eq!(p.grad.get(0, 0), 0.0);
    }

    #[test]
    fn adam_moves_faster_than_tiny_sgd_early_on() {
        let mut adam = Adam::new(0.1, 0.0);
        let xa = run_quadratic(&mut |params| adam.step(params), 50);
        let xs = run_quadratic(&mut |params| sgd_step(0.001, params), 50);
        assert!((xa - 3.0).abs() < (xs - 3.0).abs());
    }
}
