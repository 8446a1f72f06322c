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

    /// Append a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers (identity).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names, for summaries.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Snapshot every parameter *and* buffer (running statistics) into a
    /// state dict, so a trained stack round-trips through
    /// [`Self::load_state_dict`] with its evaluation-mode behaviour intact.
    pub fn state_dict(&self) -> StateDict {
        crate::serialize::full_state_dict(&self.params(), &self.buffers())
    }

    /// Load a state dict captured by [`Self::state_dict`] into a
    /// structurally identical stack. All-or-nothing: on error no parameter
    /// or buffer has been modified.
    pub fn load_state_dict(&mut self, state: &StateDict) -> Result<(), LoadError> {
        crate::serialize::validate_state(&self.params(), &self.buffers(), state)?;
        crate::serialize::copy_tensors(&mut self.params_mut(), state);
        crate::serialize::copy_buffers(&mut self.buffers_mut(), state);
        Ok(())
    }

    /// Evaluation-mode forward pass through the stack into `out`, ping-pong
    /// alternating between the two scratch buffers so no per-layer matrix is
    /// allocated (or cloned) once the buffers are warm. Layers whose eval
    /// forward is the identity (dropout) are skipped outright — not even a
    /// buffer copy. Bit-identical to [`Layer::infer`].
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

impl Layer for Sequential {
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, training);
        }
        x
    }

    fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_with(input, &mut InferScratch::new(), &mut out);
        out
    }

    fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        // A transient ping-pong pair; callers wanting a fully warm path use
        // `infer_with` directly.
        self.infer_with(input, &mut InferScratch::new(), out);
    }

    fn infer_is_identity(&self) -> bool {
        self.layers.iter().all(|l| l.infer_is_identity())
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Every layer but the first back-propagates as in [`Layer::backward`];
    /// the first only accumulates its parameter gradients.
    fn backward_params(&mut self, grad_output: &Matrix) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_output.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.buffers_mut())
            .collect()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        self.layers
            .iter()
            .fold(input_dim, |dim, l| l.output_dim(dim))
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

    /// Number of input groups the network expects.
    pub fn num_inputs(&self) -> usize {
        self.branches.len()
    }

    /// Forward pass over one mini-batch. `inputs[i]` is the matrix for
    /// branch `i`; all inputs must have the same number of rows.
    pub fn forward(&mut self, inputs: &[Matrix], training: bool) -> Matrix {
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
            .map(|(b, x)| b.forward(x, training))
            .collect();
        self.last_branch_widths = branch_outputs.iter().map(Matrix::cols).collect();
        let concat_refs: Vec<&Matrix> = branch_outputs.iter().collect();
        let concatenated = Matrix::hconcat(&concat_refs);
        self.primary.forward(&concatenated, training)
    }

    /// Immutable evaluation-mode forward pass over one mini-batch: the
    /// shared-reference counterpart of `forward(inputs, false)`, producing
    /// identical output without touching any layer state. Safe to call
    /// concurrently from many threads on the same network.
    pub fn infer(&self, inputs: &[Matrix]) -> Matrix {
        let mut out = Matrix::default();
        self.infer_with(inputs, &mut MultiInferScratch::new(), &mut out);
        out
    }

    /// Evaluation-mode forward pass into `out`, reusing `scratch` for every
    /// intermediate activation (branch outputs, the concatenated trunk
    /// input, the ping-pong pair), so a warm call performs zero heap
    /// allocations. Bit-identical to [`Self::infer`].
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
        let mut params: Vec<&mut Param> = Vec::new();
        for b in &mut self.branches {
            params.extend(b.params_mut());
        }
        params.extend(self.primary.params_mut());
        params
    }

    /// Shared access to all trainable parameters, in [`Self::params_mut`]
    /// order.
    pub fn params(&self) -> Vec<&Param> {
        let mut params: Vec<&Param> = Vec::new();
        for b in &self.branches {
            params.extend(b.params());
        }
        params.extend(self.primary.params());
        params
    }

    /// Shared access to all non-trainable buffers (running statistics), in
    /// the same traversal order as [`Self::params`].
    pub fn buffers(&self) -> Vec<&Vec<f32>> {
        let mut buffers: Vec<&Vec<f32>> = Vec::new();
        for b in &self.branches {
            buffers.extend(b.buffers());
        }
        buffers.extend(self.primary.buffers());
        buffers
    }

    /// Mutable access to all buffers, in [`Self::buffers`] order.
    pub fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut buffers: Vec<&mut Vec<f32>> = Vec::new();
        for b in &mut self.branches {
            buffers.extend(b.buffers_mut());
        }
        buffers.extend(self.primary.buffers_mut());
        buffers
    }

    /// Snapshot the whole multi-input network — every branch and primary
    /// parameter plus every buffer — into one state dict.
    pub fn state_dict(&self) -> StateDict {
        crate::serialize::full_state_dict(&self.params(), &self.buffers())
    }

    /// Load a state dict captured by [`Self::state_dict`]. All-or-nothing:
    /// on error no parameter or buffer has been modified.
    pub fn load_state_dict(&mut self, state: &StateDict) -> Result<(), LoadError> {
        crate::serialize::validate_state(&self.params(), &self.buffers(), state)?;
        crate::serialize::copy_tensors(&mut self.params_mut(), state);
        crate::serialize::copy_buffers(&mut self.buffers_mut(), state);
        Ok(())
    }

    /// Reset all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
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

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new();
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(s.forward(&x, true), x);
        assert_eq!(s.backward(&x), x);
        assert!(s.is_empty());
        assert_eq!(s.output_dim(2), 2);
    }

    #[test]
    fn sequential_chains_layers_and_reports_dims() {
        let mut r = rng();
        let mut s = Sequential::new()
            .push(Dense::new(4, 8, &mut r))
            .push(ReLU::new())
            .push(Dense::new(8, 3, &mut r));
        assert_eq!(s.len(), 3);
        assert_eq!(s.output_dim(4), 3);
        assert_eq!(s.layer_names(), vec!["Dense", "ReLU", "Dense"]);
        let x = Matrix::from_rows(&[vec![1.0, 0.0, -1.0, 0.5]]);
        let y = s.forward(&x, false);
        assert_eq!(y.shape(), (1, 3));
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
            let logits = net.forward(&x, true);
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
        let logits = net.forward(&x, false);
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
        assert_eq!(net.num_inputs(), 2);
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![0.5, -0.5], vec![1.0, 1.0]]);
        let y = net.forward(&[a, b], true);
        assert_eq!(y.shape(), (2, 5));
        net.backward(&Matrix::filled(2, 5, 1.0));
        // The gradient reaches through the concatenation into every
        // parameter of the branch that has any; the identity branch has none.
        assert_eq!(net.branches[0].params().len(), 2);
        assert!(net.branches[1].params().is_empty());
        for p in net.params() {
            assert!(p.grad.norm() > 0.0, "a parameter got no gradient");
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
            full.forward(&x, true);
            full.backward(&g);
            params_only.forward(&x, true);
            params_only.backward_params(&g);
        }
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (full, params_only) = (full.params(), params_only.params());
        assert_eq!(full.len(), 6);
        for (a, b) in full.iter().zip(&params_only) {
            assert_eq!(bits(&a.grad), bits(&b.grad));
        }
        assert!(
            full[0].grad.norm() > 0.0,
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
        net.forward(&[a, b], false);
    }

    /// Regression test for the eval-mode bug class: a `training: true`
    /// forward leaking into an inference path. With Dropout and BatchNorm in
    /// the stack, a train-mode forward must differ from the evaluation-mode
    /// output, while repeated evaluation-mode calls (both `forward(_, false)`
    /// and the immutable `infer`) are identical to each other and across
    /// repetitions.
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
            net.forward(&x, true);
        }

        let eval_immutable = net.infer(&x);
        let train = net.forward(&x, true);
        assert_ne!(
            train, eval_immutable,
            "train-mode forward must differ from eval mode (dropout masks, batch statistics)"
        );
        // `forward(_, true)` above moved the running statistics, so compare
        // eval outputs from this point on.
        let eval_a = net.infer(&x);
        let eval_b = net.infer(&x);
        let eval_mut = net.forward(&x, false);
        assert_eq!(eval_a, eval_b, "repeated eval-mode calls must be identical");
        assert_eq!(
            eval_a, eval_mut,
            "infer(&self) must match forward(&mut self, false) bit for bit"
        );
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
        let from_infer = net.infer(&[a.clone(), b.clone()]);
        let from_forward = net.forward(&[a, b], false);
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
            let logits = net.forward(&[noise.clone(), signal.clone()], true);
            let out = softmax_cross_entropy(&logits, &targets);
            net.backward(&out.grad_logits);
            adam.step(&mut net.params_mut());
        }
        let logits = net.forward(&[noise, signal], false);
        assert_eq!(crate::loss::argmax_rows(&logits), targets.to_vec());
    }
}
