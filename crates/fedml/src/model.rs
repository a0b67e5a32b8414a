//! Differentiable classification models (batched engine).
//!
//! The paper trains three architectures (logistic regression, plain CNNs and
//! VGG-16). The mechanisms under study never look inside the architecture —
//! they only exchange the flattened parameter vector — so this module provides
//! two pure-Rust model families that reproduce the relevant training dynamics:
//!
//! * [`LogisticRegression`]: multinomial logistic regression with optional L2
//!   regularisation. Its loss is smooth and (with regularisation) strongly
//!   convex, i.e. it satisfies Assumptions 1–2 of the paper exactly, which
//!   makes it the right model for validating Theorem 1 numerically.
//! * [`Mlp`]: a fully-connected ReLU network of arbitrary depth. The paper's
//!   "LR" on MNIST is itself a 2×512-unit MLP; the CNN and VGG-16 workloads
//!   are represented by deeper/wider MLP surrogates (constructors
//!   [`Mlp::paper_lr`], [`Mlp::cnn_mnist_surrogate`],
//!   [`Mlp::cnn_cifar_surrogate`], [`Mlp::vgg16_surrogate`]).
//!
//! # Batched execution
//!
//! Both models process a mini-batch as one `B × d` matrix per layer, and each
//! has exactly one training and one evaluation path:
//!
//! * [`Model::sgd_batch_ws`] — one fused mini-batch SGD step. The forward
//!   pass is a [`gemm_nn`] on the transposed weights (`Z = X · Wᵀ`), the
//!   backward data pass a [`gemm_nn`] (`δ_prev = δ · W`), and the update
//!   accumulates `−γ · δᵀ · X` straight into the weights ([`gemm_tn_acc`]),
//!   so no gradient is ever materialised.
//! * [`Model::evaluate_ws`] — batched loss + accuracy in one forward pass.
//!
//! All scratch memory comes from a caller-provided [`Workspace`], so the
//! steady-state training loop ([`crate::optimizer::local_update_ws`])
//! performs **zero heap allocations**. The per-sample reference trainer
//! (matvec + rank-one update per sample) lives in this module's tests, where
//! it is the oracle both paths are checked against.

use crate::dataset::Dataset;
use crate::linalg::{
    add_row_bias, col_sums_acc, gemm_nn, gemm_tn_acc, relu_backward_batch, relu_batch_in_place,
    transpose, Matrix,
};
use crate::loss::{eval_logits_batch, softmax_cross_entropy_batch};
use crate::params::FlatParams;
use crate::rng::Rng64;
use crate::workspace::Workspace;

/// Number of evaluation rows processed per GEMM in [`Model::evaluate_ws`].
/// Large enough to amortise the kernel, small enough that the logits buffer
/// of the 100-class workload stays comfortably in L2.
const EVAL_CHUNK: usize = 256;

/// Loss and accuracy of one model over one dataset, computed in a single
/// batched forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Mean loss over the dataset (including any regularisation term).
    pub loss: f64,
    /// Fraction of samples whose argmax prediction matches the label.
    pub accuracy: f64,
}

/// A differentiable multi-class classifier whose parameters can be flattened
/// into a [`FlatParams`] vector for over-the-air transmission.
///
/// `Send + Sync` is part of the contract: mechanism engines hand shared
/// references to the system (which holds a boxed template model) across the
/// persistent worker pool while each worker mutates only its own model instance.
pub trait Model: Send + Sync {
    /// Total number of scalar parameters `q` (the transmitted dimension).
    fn num_params(&self) -> usize;

    /// Write the current parameters into a pre-sized flat vector. Panics on
    /// dimension mismatch. This is the zero-alloc counterpart of
    /// [`Model::params`].
    fn params_into(&self, out: &mut FlatParams);

    /// Overwrite the parameters from a flat vector. Panics on dimension
    /// mismatch.
    fn set_params(&mut self, params: &FlatParams);

    /// One fused mini-batch SGD step: forward + backward + parameter update
    /// in a single pass over the given sample indices of `data`, returning
    /// the batch loss (evaluated at the weights before the step). The
    /// update `−γ · δᵀ · X` is accumulated directly into the weights
    /// ([`gemm_tn_acc`]), never touching a gradient buffer. All scratch
    /// memory is drawn from `ws`; steady-state calls allocate nothing.
    /// Panics if `indices` is empty.
    fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64;

    /// Mean loss and accuracy over an entire dataset in one batched forward
    /// pass over the dataset's contiguous feature matrix (no per-sample
    /// gather, no gradient work).
    fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats;

    /// Clone into a boxed trait object (mechanisms keep one model instance
    /// per worker).
    fn clone_model(&self) -> Box<dyn Model>;

    /// Flatten the current parameters (provided method; allocates).
    fn params(&self) -> FlatParams {
        let mut out = FlatParams::zeros(self.num_params());
        self.params_into(&mut out);
        out
    }
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// Gather the feature rows and labels of `indices` into workspace buffers.
/// Returns `(features B × d, labels)`.
fn gather_batch(data: &Dataset, indices: &[usize], ws: &mut Workspace) -> (Vec<f64>, Vec<usize>) {
    let d = data.num_features();
    let mut x = ws.take(indices.len() * d);
    let mut labels = ws.take_indices(indices.len());
    for (row, &i) in indices.iter().enumerate() {
        x[row * d..(row + 1) * d].copy_from_slice(data.sample(i));
        labels.push(data.label(i));
    }
    (x, labels)
}

/// Multinomial logistic regression with optional L2 (ridge) regularisation.
///
/// With `l2 > 0` the loss is `l2`-strongly convex and `(L_max + l2)`-smooth,
/// satisfying Assumptions 1–2 of the paper, so Theorem 1 applies exactly.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Matrix, // classes x features
    bias: Vec<f64>,
    l2: f64,
}

impl LogisticRegression {
    /// Create a zero-initialised model (zero initialisation is the global
    /// optimum basin for convex losses, and matches the paper's `w_0`).
    pub fn new(num_features: usize, num_classes: usize) -> Self {
        Self {
            weights: Matrix::zeros(num_classes, num_features),
            bias: vec![0.0; num_classes],
            l2: 0.0,
        }
    }

    /// Set the L2 regularisation strength (builder-style).
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "l2 must be non-negative");
        self.l2 = l2;
        self
    }

    fn num_classes(&self) -> usize {
        self.bias.len()
    }

    fn num_features(&self) -> usize {
        self.weights.cols()
    }
}

impl Model for LogisticRegression {
    fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    fn params_into(&self, out: &mut FlatParams) {
        assert_eq!(out.dim(), self.num_params(), "parameter size mismatch");
        let wlen = self.weights.rows() * self.weights.cols();
        out.0[..wlen].copy_from_slice(self.weights.as_slice());
        out.0[wlen..].copy_from_slice(&self.bias);
    }

    fn set_params(&mut self, params: &FlatParams) {
        assert_eq!(params.dim(), self.num_params(), "parameter size mismatch");
        let wlen = self.weights.rows() * self.weights.cols();
        self.weights
            .as_mut_slice()
            .copy_from_slice(&params.0[..wlen]);
        self.bias.copy_from_slice(&params.0[wlen..]);
    }

    fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64 {
        assert!(!indices.is_empty(), "gradient over an empty batch");
        assert_eq!(
            data.num_features(),
            self.num_features(),
            "dataset feature dimension mismatch"
        );
        let k = self.num_classes();
        let d = self.num_features();
        let bsz = indices.len();

        // Forward: Z = X · Wᵀ + b through the k-major kernel.
        let (x, labels) = gather_batch(data, indices, ws);
        let mut wt = ws.take(k * d);
        transpose(self.weights.as_slice(), &mut wt, k, d);
        let mut z = ws.take(bsz * k);
        gemm_nn(&x, &wt, &mut z, bsz, k, d);
        ws.give(wt);
        add_row_bias(&mut z, &self.bias, bsz);
        // Head: Z becomes delta = (softmax − onehot) / B in place.
        let loss_sum = softmax_cross_entropy_batch(&mut z, &labels, k, 1.0 / bsz as f64);

        let mut loss = loss_sum / bsz as f64;
        if self.l2 > 0.0 {
            loss += 0.5 * self.l2 * self.weights.frobenius_sq();
            // The −γ · l2 · W part of the step, applied to the old weights.
            self.weights.scale(1.0 - learning_rate * self.l2);
        }
        // Fused update: W += −γ · δᵀ · X, b += −γ · Σ δ.
        gemm_tn_acc(
            &z,
            &x,
            self.weights.as_mut_slice(),
            k,
            d,
            bsz,
            -learning_rate,
        );
        col_sums_acc(&z, bsz, &mut self.bias, -learning_rate);
        ws.give(x);
        ws.give(z);
        ws.give_indices(labels);
        loss
    }

    fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats {
        if data.is_empty() {
            return EvalStats {
                loss: 0.0,
                accuracy: 0.0,
            };
        }
        assert_eq!(
            data.num_features(),
            self.num_features(),
            "dataset feature dimension mismatch"
        );
        let k = self.num_classes();
        let d = self.num_features();
        let n = data.len();
        let mut wt = ws.take(k * d);
        transpose(self.weights.as_slice(), &mut wt, k, d);
        let mut z = ws.take(EVAL_CHUNK.min(n) * k);
        let mut labels = ws.take_indices(EVAL_CHUNK.min(n));
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        let features = data.features().as_slice();
        let mut r0 = 0;
        while r0 < n {
            let rows = (n - r0).min(EVAL_CHUNK);
            let x = &features[r0 * d..(r0 + rows) * d];
            let zc = &mut z[..rows * k];
            gemm_nn(x, &wt, zc, rows, k, d);
            add_row_bias(zc, &self.bias, rows);
            labels.clear();
            labels.extend((r0..r0 + rows).map(|r| data.label(r)));
            let (l, c) = eval_logits_batch(zc, &labels, k);
            loss_sum += l;
            correct += c;
            r0 += rows;
        }
        ws.give(wt);
        ws.give(z);
        ws.give_indices(labels);
        let mut loss = loss_sum / n as f64;
        if self.l2 > 0.0 {
            loss += 0.5 * self.l2 * self.weights.frobenius_sq();
        }
        EvalStats {
            loss,
            accuracy: correct as f64 / n as f64,
        }
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// One dense layer of an [`Mlp`].
#[derive(Debug, Clone)]
struct DenseLayer {
    weights: Matrix, // out x in
    bias: Vec<f64>,
}

impl DenseLayer {
    fn new(input: usize, output: usize, rng: &mut Rng64) -> Self {
        // He initialisation, appropriate for ReLU activations.
        let std = (2.0 / input as f64).sqrt();
        Self {
            weights: Matrix::from_fn(output, input, |_, _| rng.gaussian_with(0.0, std)),
            bias: vec![0.0; output],
        }
    }

    fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    fn in_width(&self) -> usize {
        self.weights.cols()
    }

    fn out_width(&self) -> usize {
        self.weights.rows()
    }
}

/// A fully-connected ReLU network with a softmax cross-entropy head.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    num_features: usize,
    num_classes: usize,
}

impl Mlp {
    /// Create an MLP with the given hidden-layer widths. `hidden` may be
    /// empty, in which case the model degenerates to (unregularised)
    /// multinomial logistic regression.
    pub fn new(num_features: usize, hidden: &[usize], num_classes: usize, rng: &mut Rng64) -> Self {
        assert!(
            num_features > 0 && num_classes > 1,
            "degenerate model shape"
        );
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(num_features);
        sizes.extend_from_slice(hidden);
        sizes.push(num_classes);
        let layers = sizes
            .windows(2)
            .map(|w| DenseLayer::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            num_features,
            num_classes,
        }
    }

    /// The paper's "LR" workload for MNIST: a fully-connected network with
    /// two hidden layers (scaled down from 512 to keep the simulation
    /// laptop-sized; the width is configurable through [`Mlp::new`]).
    pub fn paper_lr(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        Self::new(num_features, &[64, 64], num_classes, rng)
    }

    /// Surrogate for the paper's MNIST CNN (two conv + two dense layers).
    pub fn cnn_mnist_surrogate(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        Self::new(num_features, &[128, 64], num_classes, rng)
    }

    /// Surrogate for the paper's CIFAR-10 CNN.
    pub fn cnn_cifar_surrogate(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        Self::new(num_features, &[160, 96], num_classes, rng)
    }

    /// Surrogate for VGG-16 on ImageNet-100: the deepest and widest MLP.
    pub fn vgg16_surrogate(num_features: usize, num_classes: usize, rng: &mut Rng64) -> Self {
        Self::new(num_features, &[256, 128, 64], num_classes, rng)
    }

    /// Input feature dimensionality the network expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Widest activation any batch row produces (used to size the ping-pong
    /// delta buffers).
    fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.out_width())
            .max()
            .expect("an Mlp always has at least one layer")
    }

    /// Transpose every layer's weights into one workspace buffer (O(q)) so
    /// the forward GEMMs run through the vectorised k-major kernel. Layer
    /// `l`'s block starts at the running sum of the preceding
    /// `in_width · out_width` lengths — the same walk the forward passes do.
    fn transpose_weights(&self, ws: &mut Workspace) -> Vec<f64> {
        let wlen_total: usize = self
            .layers
            .iter()
            .map(|l| l.in_width() * l.out_width())
            .sum();
        let mut wts = ws.take(wlen_total);
        let mut off = 0;
        for layer in &self.layers {
            let len = layer.in_width() * layer.out_width();
            transpose(
                layer.weights.as_slice(),
                &mut wts[off..off + len],
                layer.out_width(),
                layer.in_width(),
            );
            off += len;
        }
        wts
    }

    /// Batched forward pass of [`Model::sgd_batch_ws`].
    ///
    /// Gathers the batch, transposes every layer's weights once, and runs one
    /// GEMM per layer; on return `acts` holds every layer's activations in
    /// one contiguous buffer (`bounds` marks the segments; the last segment
    /// carries the logits) and `wts` the transposed weights. All four
    /// returned buffers come from `ws` and must be given back.
    #[allow(clippy::type_complexity)]
    fn batch_forward(
        &self,
        data: &Dataset,
        indices: &[usize],
        ws: &mut Workspace,
    ) -> (Vec<f64>, Vec<usize>, Vec<usize>, Vec<f64>) {
        let bsz = indices.len();
        let depth = self.layers.len();
        let mut bounds = ws.take_indices(depth + 2);
        bounds.push(0);
        let mut total = bsz * self.num_features;
        bounds.push(total);
        for layer in &self.layers {
            total += bsz * layer.out_width();
            bounds.push(total);
        }
        let mut acts = ws.take(total);
        let mut labels = ws.take_indices(bsz);
        {
            let d = self.num_features;
            let x = &mut acts[..bsz * d];
            for (row, &i) in indices.iter().enumerate() {
                x[row * d..(row + 1) * d].copy_from_slice(data.sample(i));
                labels.push(data.label(i));
            }
        }

        let wts = self.transpose_weights(ws);

        // Forward pass, one GEMM per layer over the whole batch.
        let mut woff = 0;
        for (l, layer) in self.layers.iter().enumerate() {
            let (head, tail) = acts.split_at_mut(bounds[l + 1]);
            let input = &head[bounds[l]..];
            let out = &mut tail[..bsz * layer.out_width()];
            let wlen = layer.in_width() * layer.out_width();
            gemm_nn(
                input,
                &wts[woff..woff + wlen],
                out,
                bsz,
                layer.out_width(),
                layer.in_width(),
            );
            woff += wlen;
            add_row_bias(out, &layer.bias, bsz);
            if l + 1 < depth {
                relu_batch_in_place(out);
            }
        }
        (acts, bounds, labels, wts)
    }
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    fn params_into(&self, out: &mut FlatParams) {
        assert_eq!(out.dim(), self.num_params(), "parameter size mismatch");
        let mut offset = 0;
        for l in &self.layers {
            let wlen = l.weights.rows() * l.weights.cols();
            out.0[offset..offset + wlen].copy_from_slice(l.weights.as_slice());
            offset += wlen;
            out.0[offset..offset + l.bias.len()].copy_from_slice(&l.bias);
            offset += l.bias.len();
        }
        debug_assert_eq!(offset, out.dim());
    }

    fn set_params(&mut self, params: &FlatParams) {
        assert_eq!(params.dim(), self.num_params(), "parameter size mismatch");
        let mut offset = 0;
        for l in &mut self.layers {
            let wlen = l.weights.rows() * l.weights.cols();
            l.weights
                .as_mut_slice()
                .copy_from_slice(&params.0[offset..offset + wlen]);
            offset += wlen;
            let blen = l.bias.len();
            l.bias.copy_from_slice(&params.0[offset..offset + blen]);
            offset += blen;
        }
        debug_assert_eq!(offset, params.dim());
    }

    fn sgd_batch_ws(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> f64 {
        assert!(!indices.is_empty(), "gradient over an empty batch");
        assert_eq!(
            data.num_features(),
            self.num_features,
            "dataset feature dimension mismatch"
        );
        let bsz = indices.len();
        let inv_n = 1.0 / bsz as f64;
        let depth = self.layers.len();
        let k = self.num_classes;

        let (mut acts, bounds, labels, wts) = self.batch_forward(data, indices, ws);
        let loss_sum = {
            let logits = &mut acts[bounds[depth]..];
            softmax_cross_entropy_batch(logits, &labels, k, inv_n)
        };

        // Fused backward: per layer, propagate the delta through the *old*
        // weights first, then accumulate −γ · δᵀ · A straight into the
        // weights and −γ · Σ δ into the bias — no gradient buffer.
        let maxw = self.max_width();
        let mut cur = ws.take(bsz * maxw);
        let mut nxt = ws.take(bsz * maxw);
        cur[..bsz * k].copy_from_slice(&acts[bounds[depth]..]);
        for l in (0..depth).rev() {
            let (in_w, out_w) = (self.layers[l].in_width(), self.layers[l].out_width());
            let input = &acts[bounds[l]..bounds[l + 1]];
            if l > 0 {
                gemm_nn(
                    &cur[..bsz * out_w],
                    self.layers[l].weights.as_slice(),
                    &mut nxt[..bsz * in_w],
                    bsz,
                    in_w,
                    out_w,
                );
                relu_backward_batch(&mut nxt[..bsz * in_w], input);
            }
            let layer = &mut self.layers[l];
            gemm_tn_acc(
                &cur[..bsz * out_w],
                input,
                layer.weights.as_mut_slice(),
                out_w,
                in_w,
                bsz,
                -learning_rate,
            );
            col_sums_acc(&cur[..bsz * out_w], bsz, &mut layer.bias, -learning_rate);
            if l > 0 {
                std::mem::swap(&mut cur, &mut nxt);
            }
        }

        ws.give(acts);
        ws.give(wts);
        ws.give(cur);
        ws.give(nxt);
        ws.give_indices(labels);
        ws.give_indices(bounds);
        loss_sum * inv_n
    }

    fn evaluate_ws(&self, data: &Dataset, ws: &mut Workspace) -> EvalStats {
        if data.is_empty() {
            return EvalStats {
                loss: 0.0,
                accuracy: 0.0,
            };
        }
        assert_eq!(
            data.num_features(),
            self.num_features,
            "dataset feature dimension mismatch"
        );
        let n = data.len();
        let k = self.num_classes;
        let depth = self.layers.len();
        let chunk = EVAL_CHUNK.min(n);
        let maxw = self.max_width();
        let mut cur = ws.take(chunk * maxw);
        let mut nxt = ws.take(chunk * maxw);
        let mut labels = ws.take_indices(chunk);
        // Transpose every layer's weights once for the whole evaluation.
        let wts = self.transpose_weights(ws);
        let features = data.features().as_slice();
        let d = self.num_features;
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        let mut r0 = 0;
        while r0 < n {
            let rows = (n - r0).min(EVAL_CHUNK);
            let mut woff = 0;
            // First layer reads the dataset's feature matrix directly.
            {
                let layer = &self.layers[0];
                let x = &features[r0 * d..(r0 + rows) * d];
                let out = &mut cur[..rows * layer.out_width()];
                let wlen = layer.in_width() * layer.out_width();
                gemm_nn(x, &wts[..wlen], out, rows, layer.out_width(), d);
                woff += wlen;
                add_row_bias(out, &layer.bias, rows);
                if depth > 1 {
                    relu_batch_in_place(out);
                }
            }
            for (l, layer) in self.layers.iter().enumerate().skip(1) {
                let input = &cur[..rows * layer.in_width()];
                let out = &mut nxt[..rows * layer.out_width()];
                let wlen = layer.in_width() * layer.out_width();
                gemm_nn(
                    input,
                    &wts[woff..woff + wlen],
                    out,
                    rows,
                    layer.out_width(),
                    layer.in_width(),
                );
                woff += wlen;
                add_row_bias(out, &layer.bias, rows);
                if l + 1 < depth {
                    relu_batch_in_place(out);
                }
                std::mem::swap(&mut cur, &mut nxt);
            }
            labels.clear();
            labels.extend((r0..r0 + rows).map(|r| data.label(r)));
            let (l, c) = eval_logits_batch(&cur[..rows * k], &labels, k);
            loss_sum += l;
            correct += c;
            r0 += rows;
        }
        ws.give(cur);
        ws.give(nxt);
        ws.give(wts);
        ws.give_indices(labels);
        EvalStats {
            loss: loss_sum / n as f64,
            accuracy: correct as f64 / n as f64,
        }
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// Which model family an experiment uses. This mirrors the paper's
/// model/dataset pairs and lets the experiment harness construct the right
/// surrogate from a single enum value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's "LR" (2-hidden-layer fully-connected network) on MNIST.
    PaperLr,
    /// CNN surrogate for MNIST.
    CnnMnist,
    /// CNN surrogate for CIFAR-10.
    CnnCifar,
    /// VGG-16 surrogate for ImageNet-100.
    Vgg16,
    /// Plain convex multinomial logistic regression (used for Theorem-1
    /// validation, not a paper workload).
    ConvexLr,
}

impl ModelKind {
    /// Build the model for a dataset of the given shape.
    pub fn build(self, num_features: usize, num_classes: usize, rng: &mut Rng64) -> Box<dyn Model> {
        match self {
            ModelKind::PaperLr => Box::new(Mlp::paper_lr(num_features, num_classes, rng)),
            ModelKind::CnnMnist => {
                Box::new(Mlp::cnn_mnist_surrogate(num_features, num_classes, rng))
            }
            ModelKind::CnnCifar => {
                Box::new(Mlp::cnn_cifar_surrogate(num_features, num_classes, rng))
            }
            ModelKind::Vgg16 => Box::new(Mlp::vgg16_surrogate(num_features, num_classes, rng)),
            ModelKind::ConvexLr => {
                Box::new(LogisticRegression::new(num_features, num_classes).with_l2(1e-3))
            }
        }
    }

    /// Human-readable label used in experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::PaperLr => "LR (2x hidden FC)",
            ModelKind::CnnMnist => "CNN (MNIST surrogate)",
            ModelKind::CnnCifar => "CNN (CIFAR-10 surrogate)",
            ModelKind::Vgg16 => "VGG-16 surrogate",
            ModelKind::ConvexLr => "convex logistic regression",
        }
    }
}

/// The per-sample reference trainer: the algorithm the first version of this
/// crate shipped. It walks the mini-batch one sample at a time — a matvec
/// per layer on the way forward, a rank-one update per layer on the way
/// back, fresh vectors for logits, softmax outputs, ReLU masks and
/// activations at every step — and intentionally mirrors the mathematical
/// definition rather than sharing code with the batched engine. The tests
/// below check it against finite differences and hold
/// [`Model::sgd_batch_ws`] and [`Model::evaluate_ws`] to it.
#[cfg(test)]
mod reference {
    use super::{EvalStats, LogisticRegression, Mlp, Model};
    use crate::dataset::Dataset;
    use crate::linalg::{relu_in_place, Matrix};
    use crate::loss::cross_entropy_with_grad;
    use crate::params::FlatParams;

    fn logreg_logits(model: &LogisticRegression, x: &[f64]) -> Vec<f64> {
        let mut z = model.weights.matvec(x);
        for (zi, b) in z.iter_mut().zip(model.bias.iter()) {
            *zi += b;
        }
        z
    }

    /// Batch loss and averaged gradient of a [`LogisticRegression`] model,
    /// including the L2 term on the weights.
    pub(super) fn logreg_loss_and_gradient(
        model: &LogisticRegression,
        data: &Dataset,
        indices: &[usize],
    ) -> (f64, FlatParams) {
        assert!(!indices.is_empty(), "gradient over an empty batch");
        let weights = &model.weights;
        let (k, d) = (weights.rows(), weights.cols());
        let mut grad_w = Matrix::zeros(k, d);
        let mut grad_b = vec![0.0; k];
        let mut total_loss = 0.0;
        let inv_n = 1.0 / indices.len() as f64;
        for &i in indices {
            let x = data.sample(i);
            let (loss, dlogits) = cross_entropy_with_grad(&logreg_logits(model, x), data.label(i));
            total_loss += loss;
            grad_w.rank_one_update(inv_n, &dlogits, x);
            for (gb, dl) in grad_b.iter_mut().zip(dlogits.iter()) {
                *gb += inv_n * dl;
            }
        }
        let mut loss = total_loss * inv_n;
        if model.l2 > 0.0 {
            loss += 0.5 * model.l2 * weights.frobenius_sq();
            for (g, w) in grad_w
                .as_mut_slice()
                .iter_mut()
                .zip(weights.as_slice().iter())
            {
                *g += model.l2 * w;
            }
        }
        let mut flat = Vec::with_capacity(model.num_params());
        flat.extend_from_slice(grad_w.as_slice());
        flat.extend_from_slice(&grad_b);
        (loss, FlatParams(flat))
    }

    /// Forward pass of one sample through an [`Mlp`], returning every layer
    /// input, the ReLU masks and the final logits.
    fn mlp_forward_trace(model: &Mlp, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<bool>>, Vec<f64>) {
        let depth = model.layers.len();
        let mut activations: Vec<Vec<f64>> = vec![x.to_vec()];
        let mut masks: Vec<Vec<bool>> = Vec::with_capacity(depth.saturating_sub(1));
        let mut current = x.to_vec();
        for (l, layer) in model.layers.iter().enumerate() {
            let mut z = layer.weights.matvec(&current);
            for (zi, b) in z.iter_mut().zip(layer.bias.iter()) {
                *zi += b;
            }
            if l + 1 == depth {
                return (activations, masks, z);
            }
            masks.push(relu_in_place(&mut z));
            activations.push(z.clone());
            current = z;
        }
        unreachable!("an Mlp always has at least one layer");
    }

    /// Batch loss and averaged gradient of an [`Mlp`] (per-sample backprop
    /// with rank-one weight updates).
    pub(super) fn mlp_loss_and_gradient(
        model: &Mlp,
        data: &Dataset,
        indices: &[usize],
    ) -> (f64, FlatParams) {
        assert!(!indices.is_empty(), "gradient over an empty batch");
        let depth = model.layers.len();
        let inv_n = 1.0 / indices.len() as f64;
        let mut grads: Vec<(Matrix, Vec<f64>)> = model
            .layers
            .iter()
            .map(|l| {
                (
                    Matrix::zeros(l.weights.rows(), l.weights.cols()),
                    vec![0.0; l.bias.len()],
                )
            })
            .collect();
        let mut total_loss = 0.0;
        for &i in indices {
            let (activations, masks, logits) = mlp_forward_trace(model, data.sample(i));
            let (loss, mut delta) = cross_entropy_with_grad(&logits, data.label(i));
            total_loss += loss;
            for l in (0..depth).rev() {
                let (gw, gb) = &mut grads[l];
                gw.rank_one_update(inv_n, &delta, &activations[l]);
                for (b, dv) in gb.iter_mut().zip(delta.iter()) {
                    *b += inv_n * dv;
                }
                if l > 0 {
                    let mut prev = model.layers[l].weights.matvec_transposed(&delta);
                    for (p, &m) in prev.iter_mut().zip(masks[l - 1].iter()) {
                        if !m {
                            *p = 0.0;
                        }
                    }
                    delta = prev;
                }
            }
        }
        let mut flat = Vec::with_capacity(model.num_params());
        for (gw, gb) in &grads {
            flat.extend_from_slice(gw.as_slice());
            flat.extend_from_slice(gb);
        }
        (total_loss * inv_n, FlatParams(flat))
    }

    /// Mean per-sample cross-entropy (plus `penalty`) and argmax accuracy of
    /// the logits `logits_of` produces for every sample of `data`.
    fn evaluate(data: &Dataset, penalty: f64, logits_of: impl Fn(&[f64]) -> Vec<f64>) -> EvalStats {
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        for i in 0..data.len() {
            let z = logits_of(data.sample(i));
            loss_sum += cross_entropy_with_grad(&z, data.label(i)).0;
            let mut best = 0;
            for (c, &v) in z.iter().enumerate() {
                if v > z[best] {
                    best = c;
                }
            }
            correct += usize::from(best == data.label(i));
        }
        EvalStats {
            loss: loss_sum / data.len() as f64 + penalty,
            accuracy: correct as f64 / data.len() as f64,
        }
    }

    /// Per-sample evaluation of a [`LogisticRegression`] model.
    pub(super) fn logreg_evaluate(model: &LogisticRegression, data: &Dataset) -> EvalStats {
        let penalty = 0.5 * model.l2 * model.weights.frobenius_sq();
        evaluate(data, penalty, |x| logreg_logits(model, x))
    }

    /// Per-sample evaluation of an [`Mlp`].
    pub(super) fn mlp_evaluate(model: &Mlp, data: &Dataset) -> EvalStats {
        evaluate(data, 0.0, |x| mlp_forward_trace(model, x).2)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{
        logreg_evaluate, logreg_loss_and_gradient, mlp_evaluate, mlp_loss_and_gradient,
    };
    use super::*;
    use crate::dataset::SyntheticSpec;

    const CASES: usize = 24;

    fn toy_data() -> Dataset {
        let mut rng = Rng64::seed_from(99);
        SyntheticSpec::mnist_like()
            .with_samples_per_class(8)
            .generate(&mut rng)
    }

    /// Overwrite every parameter of `model` with a `N(0, std²)` draw, so
    /// gradients and updates are non-trivial.
    fn randomise(model: &mut dyn Model, std: f64, rng: &mut Rng64) {
        let mut p = model.params();
        for v in p.0.iter_mut() {
            *v = rng.gaussian_with(0.0, std);
        }
        model.set_params(&p);
    }

    /// The reference step `w − γ · ∇_ref` as a flat vector.
    fn reference_step(model: &dyn Model, grad: &FlatParams, learning_rate: f64) -> FlatParams {
        let mut expected = model.params();
        expected.axpy(-learning_rate, grad);
        expected
    }

    fn assert_close(a: &FlatParams, b: &FlatParams, tol: f64, what: &str) {
        assert_eq!(a.dim(), b.dim(), "{what}: dimension");
        for (c, (x, y)) in a.0.iter().zip(b.0.iter()).enumerate() {
            assert!((x - y).abs() < tol, "{what}: coord {c}: {x} vs {y}");
        }
    }

    fn assert_eval_matches(got: EvalStats, want: EvalStats, what: &str) {
        assert!(
            (got.loss - want.loss).abs() < 1e-10,
            "{what}: loss {} vs reference {}",
            got.loss,
            want.loss
        );
        assert_eq!(got.accuracy, want.accuracy, "{what}: accuracy");
    }

    fn all_indices(data: &Dataset) -> Vec<usize> {
        (0..data.len()).collect()
    }

    #[test]
    fn logreg_param_roundtrip() {
        let data = toy_data();
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        let mut p = m.params();
        assert_eq!(p.dim(), m.num_params());
        let last = p.dim() - 1;
        p.0[0] = 3.5;
        p.0[last] = -1.25;
        m.set_params(&p);
        assert_eq!(m.params(), p);
    }

    #[test]
    fn mlp_param_roundtrip() {
        let mut rng = Rng64::seed_from(1);
        let mut m = Mlp::new(8, &[5, 4], 3, &mut rng);
        let p = m.params();
        assert_eq!(p.dim(), m.num_params());
        assert_eq!(p.dim(), (8 * 5 + 5) + (5 * 4 + 4) + (4 * 3 + 3));
        let mut q = p.clone();
        q.scale(0.5);
        m.set_params(&q);
        assert_eq!(m.params(), q);
    }

    /// Central finite differences of the reference batch loss at `p`.
    fn finite_difference<M: Model + Clone>(
        model: &M,
        p: &FlatParams,
        coord: usize,
        loss: impl Fn(&M) -> f64,
    ) -> f64 {
        let eps = 1e-5;
        let mut plus = p.clone();
        plus.0[coord] += eps;
        let mut minus = p.clone();
        minus.0[coord] -= eps;
        let mut mp = model.clone();
        mp.set_params(&plus);
        let mut mm = model.clone();
        mm.set_params(&minus);
        (loss(&mp) - loss(&mm)) / (2.0 * eps)
    }

    #[test]
    fn logreg_gradient_matches_finite_difference() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(2);
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes()).with_l2(0.01);
        randomise(&mut m, 0.1, &mut rng);
        let p = m.params();
        let indices: Vec<usize> = (0..10).collect();
        let (_, g) = logreg_loss_and_gradient(&m, &data, &indices);
        let batch_loss =
            |model: &LogisticRegression| logreg_loss_and_gradient(model, &data, &indices).0;
        for &coord in &[0usize, 7, 63, 100, p.dim() - 1] {
            let fd = finite_difference(&m, &p, coord, batch_loss);
            assert!(
                (fd - g.0[coord]).abs() < 1e-5,
                "coord {coord}: fd {fd} vs reference {}",
                g.0[coord]
            );
        }
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(3);
        let m = Mlp::new(data.num_features(), &[6], data.num_classes(), &mut rng);
        let p = m.params();
        let indices: Vec<usize> = (0..6).collect();
        let (_, g) = mlp_loss_and_gradient(&m, &data, &indices);
        let batch_loss = |model: &Mlp| mlp_loss_and_gradient(model, &data, &indices).0;
        for &coord in &[0usize, 11, 101, p.dim() - 1] {
            let fd = finite_difference(&m, &p, coord, batch_loss);
            assert!(
                (fd - g.0[coord]).abs() < 1e-4,
                "coord {coord}: fd {fd} vs reference {}",
                g.0[coord]
            );
        }
    }

    #[test]
    fn gradient_descent_reduces_loss_and_beats_chance() {
        let data = toy_data();
        let mut ws = Workspace::new();
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        let initial_loss = m.evaluate_ws(&data, &mut ws).loss;
        let indices = all_indices(&data);
        for _ in 0..60 {
            m.sgd_batch_ws(&data, &indices, 0.5, &mut ws);
        }
        let stats = m.evaluate_ws(&data, &mut ws);
        assert!(stats.loss < initial_loss * 0.5);
        assert!(stats.accuracy > 0.5, "accuracy {}", stats.accuracy);
    }

    #[test]
    fn mlp_trains_above_chance() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(4);
        let mut ws = Workspace::new();
        let mut m = Mlp::new(data.num_features(), &[32], data.num_classes(), &mut rng);
        let indices = all_indices(&data);
        for _ in 0..80 {
            m.sgd_batch_ws(&data, &indices, 0.2, &mut ws);
        }
        let accuracy = m.evaluate_ws(&data, &mut ws).accuracy;
        assert!(accuracy > 0.5, "accuracy {accuracy}");
    }

    #[test]
    fn fused_sgd_batch_matches_gradient_then_step() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(31);
        let mut ws = Workspace::new();
        let indices: Vec<usize> = (0..24).collect();
        let lr = 0.21;

        // MLP: fused step vs the reference gradient and an explicit step.
        let mut fused = Mlp::new(data.num_features(), &[11, 7], data.num_classes(), &mut rng);
        let (loss_ref, g) = mlp_loss_and_gradient(&fused, &data, &indices);
        let expected = reference_step(&fused, &g, lr);
        let loss = fused.sgd_batch_ws(&data, &indices, lr, &mut ws);
        assert!((loss - loss_ref).abs() < 1e-12);
        assert_close(&fused.params(), &expected, 1e-12, "mlp");

        // Logistic regression with L2 (exercises the scale-then-accumulate
        // order of the fused regulariser).
        let mut lr_fused =
            LogisticRegression::new(data.num_features(), data.num_classes()).with_l2(0.03);
        randomise(&mut lr_fused, 0.2, &mut rng);
        let (loss_ref, g) = logreg_loss_and_gradient(&lr_fused, &data, &indices);
        let expected = reference_step(&lr_fused, &g, lr);
        let loss = lr_fused.sgd_batch_ws(&data, &indices, lr, &mut ws);
        assert!((loss - loss_ref).abs() < 1e-12);
        assert_close(&lr_fused.params(), &expected, 1e-12, "logreg");
    }

    /// One fused step of logistic regression (with or without L2) equals the
    /// per-sample reference step `w − γ · ∇_ref` to 1e-10 on random models,
    /// batches, batch sizes and learning rates, and batched evaluation of
    /// the updated model equals the per-sample reference forward pass.
    #[test]
    fn batched_logreg_matches_per_sample_reference() {
        let mut ws = Workspace::new();
        for case in 0..CASES {
            let mut rng = Rng64::seed_from(8000 + case as u64);
            let data = SyntheticSpec::mnist_like()
                .with_samples_per_class(4 + rng.index(6))
                .generate(&mut rng);
            let l2 = if rng.uniform() < 0.5 {
                0.0
            } else {
                rng.uniform_range(1e-4, 0.1)
            };
            let mut model =
                LogisticRegression::new(data.num_features(), data.num_classes()).with_l2(l2);
            randomise(&mut model, 0.3, &mut rng);
            let bsz = 1 + rng.index(data.len());
            let indices = rng.sample_indices(data.len(), bsz);
            let lr = rng.uniform_range(0.01, 1.0);
            let (loss_ref, grad_ref) = logreg_loss_and_gradient(&model, &data, &indices);
            let expected = reference_step(&model, &grad_ref, lr);
            let loss = model.sgd_batch_ws(&data, &indices, lr, &mut ws);
            assert!(
                (loss - loss_ref).abs() < 1e-10,
                "case {case}: loss {loss} vs reference {loss_ref}"
            );
            assert_close(&model.params(), &expected, 1e-10, &format!("case {case}"));
            assert_eval_matches(
                model.evaluate_ws(&data, &mut ws),
                logreg_evaluate(&model, &data),
                &format!("case {case}"),
            );
        }
    }

    /// The same property for random-depth MLPs (zero to two hidden layers of
    /// random widths).
    #[test]
    fn batched_mlp_matches_per_sample_reference() {
        let mut ws = Workspace::new();
        for case in 0..CASES {
            let mut rng = Rng64::seed_from(9000 + case as u64);
            let data = SyntheticSpec::mnist_like()
                .with_samples_per_class(4 + rng.index(6))
                .generate(&mut rng);
            let depth = rng.index(3);
            let hidden: Vec<usize> = (0..depth).map(|_| 3 + rng.index(20)).collect();
            let mut model = Mlp::new(data.num_features(), &hidden, data.num_classes(), &mut rng);
            let bsz = 1 + rng.index(data.len());
            let indices = rng.sample_indices(data.len(), bsz);
            let lr = rng.uniform_range(0.01, 1.0);
            let (loss_ref, grad_ref) = mlp_loss_and_gradient(&model, &data, &indices);
            let expected = reference_step(&model, &grad_ref, lr);
            let loss = model.sgd_batch_ws(&data, &indices, lr, &mut ws);
            assert!(
                (loss - loss_ref).abs() < 1e-10,
                "case {case}: loss {loss} vs reference {loss_ref}"
            );
            assert_close(&model.params(), &expected, 1e-10, &format!("case {case}"));
            assert_eval_matches(
                model.evaluate_ws(&data, &mut ws),
                mlp_evaluate(&model, &data),
                &format!("case {case}"),
            );
        }
    }

    #[test]
    fn zero_initialised_logreg_has_uniform_loss() {
        let data = toy_data();
        let m = LogisticRegression::new(data.num_features(), data.num_classes());
        let expected = (data.num_classes() as f64).ln();
        assert!((m.evaluate_ws(&data, &mut Workspace::new()).loss - expected).abs() < 1e-9);
    }

    #[test]
    fn evaluate_matches_loss_and_accuracy() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(21);
        let mut ws = Workspace::new();
        let m = Mlp::new(data.num_features(), &[12], data.num_classes(), &mut rng);
        assert_eval_matches(
            m.evaluate_ws(&data, &mut ws),
            mlp_evaluate(&m, &data),
            "mlp",
        );
        let mut lr = LogisticRegression::new(data.num_features(), data.num_classes()).with_l2(0.05);
        randomise(&mut lr, 0.2, &mut rng);
        assert_eval_matches(
            lr.evaluate_ws(&data, &mut ws),
            logreg_evaluate(&lr, &data),
            "logreg",
        );
    }

    #[test]
    fn evaluation_includes_l2_term_like_training_loss() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(22);
        let mut ws = Workspace::new();
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes()).with_l2(0.05);
        randomise(&mut m, 0.2, &mut rng);
        let eval_loss = m.evaluate_ws(&data, &mut ws).loss;
        // The step returns the loss at the weights before it moves them.
        let train_loss = m.sgd_batch_ws(&data, &all_indices(&data), 0.1, &mut ws);
        assert!((eval_loss - train_loss).abs() < 1e-10);
    }

    #[test]
    fn workspace_pool_stabilises_after_first_batch() {
        let data = toy_data();
        let mut rng = Rng64::seed_from(23);
        let start = Mlp::new(data.num_features(), &[10, 6], data.num_classes(), &mut rng);
        let mut ws = Workspace::new();
        let indices: Vec<usize> = (0..32).collect();
        let mut first = start.clone();
        let l1 = first.sgd_batch_ws(&data, &indices, 0.1, &mut ws);
        let pooled = ws.pooled_buffers();
        for _ in 0..5 {
            let mut m = start.clone();
            let l = m.sgd_batch_ws(&data, &indices, 0.1, &mut ws);
            assert_eq!(
                l.to_bits(),
                l1.to_bits(),
                "batched pass must be deterministic"
            );
            assert_eq!(
                ws.pooled_buffers(),
                pooled,
                "steady state must not grow the pool"
            );
            assert_eq!(m.params(), first.params());
        }
    }

    #[test]
    fn model_kind_builds_expected_sizes() {
        let mut rng = Rng64::seed_from(5);
        let small = ModelKind::PaperLr.build(64, 10, &mut rng);
        let big = ModelKind::Vgg16.build(64, 10, &mut rng);
        assert!(big.num_params() > small.num_params());
        assert!(!ModelKind::CnnCifar.label().is_empty());
    }

    #[test]
    fn clone_model_preserves_params() {
        let mut rng = Rng64::seed_from(6);
        let m = Mlp::new(10, &[4], 3, &mut rng);
        let c = m.clone_model();
        assert_eq!(c.params(), m.params());
    }
}
