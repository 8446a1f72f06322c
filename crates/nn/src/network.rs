//! Network containers: [`Sequential`] stacks of layers and the
//! [`MultiInputNetwork`] used by Sherlock/Sato, where each feature group
//! passes through its own compression subnetwork before the concatenated
//! representation enters a shared primary network (Section 3.1 / Figure 2).

use crate::layers::{Layer, Param};
use crate::matrix::Matrix;
use crate::serialize::{LoadError, StateDict};

/// Ping-pong workspace for [`Sequential::infer_with`]: two reusable
/// activation buffers that alternate as layer input/output, so an eval-mode
/// forward pass of any depth allocates nothing once the buffers are warm.
#[derive(Default)]
pub struct InferScratch {
    ping: Matrix,
    pong: Matrix,
}

impl InferScratch {
    /// A fresh workspace with empty (but growable) buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Workspace for [`MultiInputNetwork::infer_with`]: per-branch output
/// buffers, the concatenated trunk input, and the ping-pong pair shared by
/// the branch and primary sub-networks.
#[derive(Default)]
pub struct MultiInferScratch {
    branch_out: Vec<Matrix>,
    concat: Matrix,
    seq: InferScratch,
}

impl MultiInferScratch {
    /// A fresh workspace with empty (but growable) buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An ordered stack of layers applied one after another.
///
/// An empty `Sequential` is the identity function, which is how the `Stat`
/// feature group (only 27 features, no compression subnetwork in the paper)
/// is represented as a branch of the multi-input network.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty (identity) network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Training forward pass through every layer (see [`Layer::forward`]).
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Back-propagate `grad_output` through every layer, accumulating the
    /// parameter gradients, and return dL/d input.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// [`Self::backward`] without forming dL/d input: every layer but the
    /// first back-propagates, the first only accumulates its parameter
    /// gradients ([`Layer::backward_params`]).
    pub fn backward_params(&mut self, grad_output: &Matrix) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_output.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    /// Every trainable parameter, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Evaluation-mode forward pass through the stack into `out`, ping-pong
    /// alternating between the two scratch buffers so no per-layer matrix is
    /// allocated (or cloned) once the buffers are warm. Layers whose eval
    /// forward is the identity (dropout) are skipped outright — not even a
    /// buffer copy.
    pub fn infer_with(&self, input: &Matrix, scratch: &mut InferScratch, out: &mut Matrix) {
        #[derive(Clone, Copy)]
        enum Src {
            Input,
            Ping,
            Pong,
        }
        let n_active = self
            .layers
            .iter()
            .filter(|l| !l.infer_is_identity())
            .count();
        if n_active == 0 {
            out.copy_from(input);
            return;
        }
        let mut src = Src::Input;
        let mut seen = 0usize;
        for layer in &self.layers {
            if layer.infer_is_identity() {
                continue;
            }
            seen += 1;
            if seen == n_active {
                match src {
                    Src::Input => layer.infer_into(input, out),
                    Src::Ping => layer.infer_into(&scratch.ping, out),
                    Src::Pong => layer.infer_into(&scratch.pong, out),
                }
            } else {
                match src {
                    Src::Input => layer.infer_into(input, &mut scratch.ping),
                    Src::Ping => layer.infer_into(&scratch.ping, &mut scratch.pong),
                    Src::Pong => layer.infer_into(&scratch.pong, &mut scratch.ping),
                }
                src = match src {
                    Src::Input | Src::Pong => Src::Ping,
                    Src::Ping => Src::Pong,
                };
            }
        }
    }
}

/// The Sherlock/Sato multi-input architecture: one branch subnetwork per
/// feature group, whose outputs are concatenated and fed to a primary
/// network that produces the class logits.
pub struct MultiInputNetwork {
    branches: Vec<Sequential>,
    primary: Sequential,
    last_branch_widths: Vec<usize>,
}

impl MultiInputNetwork {
    /// Build from branch subnetworks (one per input group, identity branches
    /// allowed) and a primary network.
    pub fn new(branches: Vec<Sequential>, primary: Sequential) -> Self {
        assert!(
            !branches.is_empty(),
            "at least one input branch is required"
        );
        MultiInputNetwork {
            branches,
            primary,
            last_branch_widths: Vec::new(),
        }
    }

    /// Training forward pass over one mini-batch. `inputs[i]` is the matrix
    /// for branch `i`; all inputs must have the same number of rows.
    pub fn forward(&mut self, inputs: &[Matrix]) -> Matrix {
        assert_eq!(
            inputs.len(),
            self.branches.len(),
            "expected {} input groups, got {}",
            self.branches.len(),
            inputs.len()
        );
        let rows = inputs[0].rows();
        assert!(
            inputs.iter().all(|m| m.rows() == rows),
            "all input groups must have the same batch size"
        );
        let branch_outputs: Vec<Matrix> = self
            .branches
            .iter_mut()
            .zip(inputs)
            .map(|(b, x)| b.forward(x))
            .collect();
        self.last_branch_widths = branch_outputs.iter().map(Matrix::cols).collect();
        let mut concatenated = Matrix::default();
        Matrix::hconcat_into(&branch_outputs, &mut concatenated);
        self.primary.forward(&concatenated)
    }

    /// Immutable evaluation-mode forward pass over one mini-batch into
    /// `out`, reusing `scratch` for every intermediate activation (branch
    /// outputs, the concatenated trunk input, the ping-pong pair), so a warm
    /// call performs zero heap allocations. It touches no layer state, so
    /// many threads may call it at once on the same network.
    pub fn infer_with(&self, inputs: &[Matrix], scratch: &mut MultiInferScratch, out: &mut Matrix) {
        assert_eq!(
            inputs.len(),
            self.branches.len(),
            "expected {} input groups, got {}",
            self.branches.len(),
            inputs.len()
        );
        let rows = inputs[0].rows();
        assert!(
            inputs.iter().all(|m| m.rows() == rows),
            "all input groups must have the same batch size"
        );
        scratch
            .branch_out
            .resize_with(self.branches.len(), Matrix::default);
        for ((branch, input), branch_out) in self
            .branches
            .iter()
            .zip(inputs)
            .zip(scratch.branch_out.iter_mut())
        {
            branch.infer_with(input, &mut scratch.seq, branch_out);
        }
        Matrix::hconcat_into(&scratch.branch_out, &mut scratch.concat);
        self.primary
            .infer_with(&scratch.concat, &mut scratch.seq, out);
    }

    /// Backward pass: accumulates the gradient of every parameter, branches
    /// included. The gradients with respect to the input groups are never
    /// formed: each branch ends in [`Layer::backward_params`].
    pub fn backward(&mut self, grad_output: &Matrix) {
        let grad_concat = self.primary.backward(grad_output);
        assert!(
            !self.last_branch_widths.is_empty(),
            "backward called before forward"
        );
        let parts = grad_concat.hsplit(&self.last_branch_widths);
        for (branch, g) in self.branches.iter_mut().zip(&parts) {
            branch.backward_params(g);
        }
    }

    /// All trainable parameters (branches first, then the primary network).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.branches
            .iter_mut()
            .chain([&mut self.primary])
            .flat_map(Sequential::params_mut)
            .collect()
    }

    /// Snapshot the whole multi-input network — every branch and primary
    /// parameter plus every buffer — into one state dict.
    pub fn state_dict(&self) -> StateDict {
        let layers: Vec<&dyn Layer> = self
            .branches
            .iter()
            .chain([&self.primary])
            .flat_map(|s| &s.layers)
            .map(|l| l.as_ref())
            .collect();
        StateDict::capture(&layers)
    }

    /// Load a state dict captured by [`Self::state_dict`]. All-or-nothing:
    /// on error no parameter or buffer has been modified.
    pub fn load_state_dict(&mut self, state: &StateDict) -> Result<(), LoadError> {
        let mut layers: Vec<&mut dyn Layer> = self
            .branches
            .iter_mut()
            .chain([&mut self.primary])
            .flat_map(|s| &mut s.layers)
            .map(|l| &mut **l as &mut dyn Layer)
            .collect();
        state.load_into(&mut layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, ReLU};
    use crate::loss::softmax_cross_entropy;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    /// Evaluation-mode output of `net` through a fresh scratch.
    fn infer(net: &Sequential, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        net.infer_with(x, &mut InferScratch::new(), &mut out);
        out
    }

    /// Evaluation-mode output of a multi-input network through a fresh
    /// scratch.
    fn infer_multi(net: &MultiInputNetwork, inputs: &[Matrix]) -> Matrix {
        let mut out = Matrix::default();
        net.infer_with(inputs, &mut MultiInferScratch::new(), &mut out);
        out
    }

    fn any_nonzero(m: &Matrix) -> bool {
        m.data().iter().any(|&v| v != 0.0)
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new();
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(s.forward(&x), x);
        assert_eq!(s.backward(&x), x);
        assert_eq!(infer(&s, &x), x);
        assert!(s.params_mut().is_empty());
    }

    #[test]
    fn sequential_chains_layers_and_reports_dims() {
        let mut r = rng();
        let mut s = Sequential::new()
            .push(Dense::new(4, 8, &mut r))
            .push(ReLU::new())
            .push(Dense::new(8, 3, &mut r));
        let x = Matrix::from_rows(&[vec![1.0, 0.0, -1.0, 0.5]]);
        assert_eq!(infer(&s, &x).shape(), (1, 3));
        assert_eq!(s.forward(&x).shape(), (1, 3));
        assert_eq!(s.params_mut().len(), 4);
    }

    #[test]
    fn sequential_can_learn_xor_like_separation() {
        // Tiny sanity check that forward/backward/optimiser wiring actually
        // reduces the loss on a nonlinear problem.
        let mut r = rng();
        let mut net = Sequential::new()
            .push(Dense::new(2, 16, &mut r))
            .push(ReLU::new())
            .push(Dense::new(16, 2, &mut r));
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = [0usize, 1, 1, 0];
        let mut adam = Adam::new(0.01, 0.0);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..400 {
            let logits = net.forward(&x);
            let out = softmax_cross_entropy(&logits, &y);
            net.backward(&out.grad_logits);
            adam.step(&mut net.params_mut());
            first_loss.get_or_insert(out.loss);
            last_loss = out.loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.2,
            "loss did not drop: {last_loss}"
        );
        let logits = infer(&net, &x);
        let preds = crate::loss::argmax_rows(&logits);
        assert_eq!(preds, vec![0, 1, 1, 0]);
    }

    #[test]
    fn multi_input_network_concatenates_branches() {
        let mut r = rng();
        let branches = vec![
            Sequential::new()
                .push(Dense::new(3, 2, &mut r))
                .push(ReLU::new()),
            Sequential::new(), // identity branch, like the Stat features
        ];
        let primary = Sequential::new().push(Dense::new(2 + 2, 5, &mut r));
        let mut net = MultiInputNetwork::new(branches, primary);
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![0.5, -0.5], vec![1.0, 1.0]]);
        let y = net.forward(&[a, b]);
        assert_eq!(y.shape(), (2, 5));
        net.backward(&Matrix::filled(2, 5, 1.0));
        // The gradient reaches through the concatenation into every
        // parameter of the branch that has any; the identity branch has none.
        assert_eq!(net.branches[0].params_mut().len(), 2);
        assert!(net.branches[1].params_mut().is_empty());
        for p in net.params_mut() {
            assert!(any_nonzero(&p.grad), "a parameter got no gradient");
        }
    }

    #[test]
    fn branch_stack_parameter_only_backward_leaves_the_same_gradients() {
        use crate::layers::{BatchNorm, Dropout};
        let stack = || {
            let mut r = rng();
            Sequential::new()
                .push(Dense::new(3, 6, &mut r))
                .push(ReLU::new())
                .push(BatchNorm::new(6))
                .push(Dropout::new(0.3, StdRng::seed_from_u64(5)))
                .push(Dense::new(6, 4, &mut r))
                .push(ReLU::new())
        };
        let mut full = stack();
        let mut params_only = stack();
        let x = Matrix::from_rows(&[
            vec![1.0, -2.0, 0.5],
            vec![0.0, 1.0, 3.0],
            vec![-1.0, 0.5, 2.0],
            vec![0.25, -0.0, -1.5],
        ]);
        let g = Matrix::from_rows(&[
            vec![0.3, -1.0, 0.2, 0.7],
            vec![-0.2, 0.5, 0.0, -0.9],
            vec![0.8, 0.1, -0.4, 0.6],
            vec![-0.5, 0.4, 1.2, -0.0],
        ]);
        for _ in 0..2 {
            full.forward(&x);
            full.backward(&g);
            params_only.forward(&x);
            params_only.backward_params(&g);
        }
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (full, params_only) = (full.params_mut(), params_only.params_mut());
        assert_eq!(full.len(), 6);
        for (a, b) in full.iter().zip(&params_only) {
            assert_eq!(bits(&a.grad), bits(&b.grad));
        }
        assert!(
            any_nonzero(&full[0].grad),
            "the first layer's dW must be non-zero"
        );
    }

    #[test]
    #[should_panic(expected = "input groups")]
    fn multi_input_network_checks_group_count() {
        let mut r = rng();
        let mut net = MultiInputNetwork::new(
            vec![Sequential::new().push(Dense::new(2, 2, &mut r))],
            Sequential::new(),
        );
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 2);
        net.forward(&[a, b]);
    }

    /// Regression test for the eval-mode bug class: a training forward
    /// leaking into an inference path. With Dropout and BatchNorm in the
    /// stack, a training forward must differ from the evaluation-mode
    /// output, while repeated evaluation-mode calls — through a fresh or a
    /// reused scratch — are identical to each other.
    #[test]
    fn train_mode_differs_from_eval_mode_and_eval_is_stable() {
        use crate::layers::{BatchNorm, Dropout};
        use rand::SeedableRng;
        let mut r = rng();
        let mut net = Sequential::new()
            .push(Dense::new(3, 8, &mut r))
            .push(ReLU::new())
            .push(BatchNorm::new(8))
            .push(Dropout::new(0.5, StdRng::seed_from_u64(9)))
            .push(Dense::new(8, 2, &mut r));
        let x = Matrix::from_rows(&[
            vec![1.0, -2.0, 0.5],
            vec![0.0, 1.0, 3.0],
            vec![-1.0, 0.5, 2.0],
        ]);
        // Accumulate some running statistics so eval mode is non-trivial.
        for _ in 0..20 {
            net.forward(&x);
        }

        let eval_before = infer(&net, &x);
        let train = net.forward(&x);
        assert_ne!(
            train, eval_before,
            "a training forward must differ from eval mode (dropout masks, batch statistics)"
        );
        // The training forward above moved the running statistics, so
        // compare eval outputs from this point on.
        let eval_a = infer(&net, &x);
        let mut scratch = InferScratch::new();
        let mut eval_b = Matrix::default();
        for _ in 0..2 {
            net.infer_with(&x, &mut scratch, &mut eval_b);
            assert_eq!(eval_a, eval_b, "repeated eval-mode calls must be identical");
        }
    }

    #[test]
    fn multi_input_infer_matches_eval_forward() {
        let mut r = rng();
        let branches = vec![
            Sequential::new()
                .push(Dense::new(3, 4, &mut r))
                .push(ReLU::new()),
            Sequential::new(),
        ];
        let primary = Sequential::new().push(Dense::new(4 + 2, 5, &mut r));
        let mut net = MultiInputNetwork::new(branches, primary);
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![0.5, -0.5], vec![1.0, 1.0]]);
        // Without dropout or batch normalisation the two modes compute the
        // same function, so the scratch path must match the training
        // forward bit for bit.
        let from_infer = infer_multi(&net, &[a.clone(), b.clone()]);
        let from_forward = net.forward(&[a, b]);
        assert_eq!(from_infer, from_forward);
    }

    #[test]
    fn multi_input_network_trains_end_to_end() {
        // Learn a task where the answer is only decodable from the *second*
        // input group, verifying gradients flow through the concatenation.
        let mut r = rng();
        let branches = vec![
            Sequential::new()
                .push(Dense::new(2, 4, &mut r))
                .push(ReLU::new()),
            Sequential::new()
                .push(Dense::new(1, 4, &mut r))
                .push(ReLU::new()),
        ];
        let primary = Sequential::new().push(Dense::new(8, 2, &mut r));
        let mut net = MultiInputNetwork::new(branches, primary);

        let noise = Matrix::from_rows(&vec![vec![0.3, 0.3]; 6]);
        let signal = Matrix::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![0.0],
            vec![1.0],
            vec![0.0],
            vec![1.0],
        ]);
        let targets = [0usize, 1, 0, 1, 0, 1];
        let mut adam = Adam::new(0.05, 0.0);
        for _ in 0..300 {
            let logits = net.forward(&[noise.clone(), signal.clone()]);
            let out = softmax_cross_entropy(&logits, &targets);
            net.backward(&out.grad_logits);
            adam.step(&mut net.params_mut());
        }
        let logits = infer_multi(&net, &[noise, signal]);
        assert_eq!(crate::loss::argmax_rows(&logits), targets.to_vec());
    }
}
