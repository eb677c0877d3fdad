//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records the forward computation of one micro-batch (one virtual
//! node's slice of the batch) as a sequence of nodes; [`Tape::backward`]
//! replays it in reverse to produce gradients. Tapes are cheap, short-lived,
//! and deliberately *not* shared across threads: in virtual node processing,
//! each device thread builds a fresh tape per virtual node, while long-lived
//! parameters live outside the tape as plain [`Tensor`]s.
//!
//! A fresh tape per virtual node is affordable because the tape copies
//! nothing it only reads. [`Tape::leaf`] and [`Tape::constant`] take either a
//! `&Tensor` — the parameters and the gathered micro-batch, which outlive
//! the tape (that is its lifetime parameter) — or an owned `Tensor`; labels
//! are borrowed the same way. What a tape owns is what it computed: the
//! forward value of every interior node, what an op keeps for its backward
//! pass (softmax probabilities, batch norm's x̂ and σ), and during
//! [`Tape::backward`] the gradient of an interior node from the moment its
//! last consumer wrote it until the node itself has been differentiated.
//!
//! [`Tape::backward`] consumes the tape and takes its nodes back last to
//! first, so the backward pass writes into buffers it owns instead of
//! allocating: the softmax probabilities become the logits' gradient,
//! batch norm's x̂ becomes its input's, and ReLU, tanh, sigmoid, GELU,
//! `scale` and `mul` multiply into the upstream gradient in place. A
//! gradient that passes through unchanged (`add`, `sub`'s left operand,
//! `reshape`) is handed on by move, and one nothing else needs is dropped,
//! so [`Gradients`] holds leaf gradients only and at most the live frontier
//! of the graph is in memory at once. Every element still goes through the
//! same float operations in the same order as with a copy per op.
//!
//! # Examples
//!
//! ```
//! use vf_tensor::{autograd::Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0], [1, 2])?);
//! let w = tape.leaf(Tensor::from_vec(vec![0.5, -0.5, 0.25, 0.75], [2, 2])?);
//! let h = tape.matmul(x, w)?;
//! let loss = tape.softmax_cross_entropy(h, &[0])?;
//! let grads = tape.backward(loss)?;
//! assert!(grads.get(w).is_some());
//! assert!(grads.get(h).is_none()); // interior gradients are not kept
//! # Ok::<(), vf_tensor::TensorError>(())
//! ```

use crate::ops;
use crate::tensor::Tensor;
use crate::TensorError;
use std::borrow::Cow;

/// A handle to a node on a [`Tape`].
///
/// `Var`s are only meaningful for the tape that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
///
/// Only [leaves](Tape::leaf) have one: the backward pass consumes the
/// gradient of every interior node as it differentiates it.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the loss with respect to `var`, if `var` is a leaf
    /// that influenced the loss.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Removes and returns the gradient for `var`.
    pub fn take(&mut self, var: Var) -> Option<Tensor> {
        self.grads.get_mut(var.0).and_then(|g| g.take())
    }
}

enum Op<'a> {
    Leaf,
    Constant,
    Matmul(Var, Var),
    /// `input · weight + bias`.
    Linear(Var, Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    Tanh(Var),
    Gelu(Var),
    Sigmoid(Var),
    MeanAll(Var),
    SumAll(Var),
    SoftmaxCrossEntropy {
        logits: Var,
        labels: &'a [usize],
        probs: Tensor,
    },
    Mse {
        pred: Var,
        target: Tensor,
    },
    BatchNorm {
        input: Var,
        gamma: Var,
        beta: Var,
        /// The normalized input, written over by its gradient.
        xhat: Tensor,
        /// σⱼ = √(varⱼ + ε), written over by γⱼ/σⱼ.
        sigma: Tensor,
    },
    LayerNorm {
        input: Var,
        gamma: Var,
        beta: Var,
        mean: Tensor,
        var_: Tensor,
        eps: f32,
    },
    Conv2d {
        input: Var,
        kernel: Var,
    },
    GlobalAvgPool {
        input: Var,
    },
    Reshape {
        input: Var,
    },
}

struct Node<'a> {
    value: Cow<'a, Tensor>,
    op: Op<'a>,
    needs_grad: bool,
}

/// Room for the stand-in models' graphs (16–24 nodes), so the node vector is
/// allocated once per tape instead of grown through 4, 8, 16 and 32.
const NODE_CAPACITY: usize = 32;

/// A reverse-mode autodiff tape over tensors and labels borrowed for `'a`.
///
/// See the [module documentation](self) for usage.
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
}

impl Default for Tape<'_> {
    fn default() -> Self {
        Tape::new()
    }
}

impl<'a> Tape<'a> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(NODE_CAPACITY),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a differentiable leaf (a parameter), borrowed (`&Tensor`) or
    /// owned (`Tensor`).
    pub fn leaf(&mut self, value: impl Into<Cow<'a, Tensor>>) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Records a non-differentiable input (data, labels-as-tensors, …),
    /// borrowed (`&Tensor`) or owned (`Tensor`).
    pub fn constant(&mut self, value: impl Into<Cow<'a, Tensor>>) -> Var {
        self.push(value, Op::Constant, false)
    }

    /// The forward value of `var`.
    ///
    /// Once [`Tape::relu`] has rectified `var`'s buffer in place and taken
    /// it, `var` is spent and this is an empty tensor of shape `[0]`; an op
    /// that names a spent var reads that empty tensor.
    ///
    /// # Panics
    ///
    /// Panics if `var` belongs to a different tape.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    fn push(&mut self, value: impl Into<Cow<'a, Tensor>>, op: Op<'a>, needs_grad: bool) -> Var {
        let needs_grad = needs_grad
            || match &op {
                Op::Leaf => true,
                Op::Constant => false,
                Op::Linear(a, b, c) => self.needs(*a) || self.needs(*b) || self.needs(*c),
                Op::Matmul(a, b) | Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
                    self.needs(*a) || self.needs(*b)
                }
                Op::Scale(a, _)
                | Op::Relu(a)
                | Op::Tanh(a)
                | Op::Gelu(a)
                | Op::Sigmoid(a)
                | Op::MeanAll(a)
                | Op::SumAll(a) => self.needs(*a),
                Op::SoftmaxCrossEntropy { logits, .. } => self.needs(*logits),
                Op::Mse { pred, .. } => self.needs(*pred),
                Op::BatchNorm {
                    input, gamma, beta, ..
                }
                | Op::LayerNorm {
                    input, gamma, beta, ..
                } => self.needs(*input) || self.needs(*gamma) || self.needs(*beta),
                Op::Conv2d { input, kernel } => self.needs(*input) || self.needs(*kernel),
                Op::GlobalAvgPool { input } | Op::Reshape { input } => self.needs(*input),
            };
        self.nodes.push(Node {
            value: value.into(),
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDims`] on incompatible shapes.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let v = ops::matmul(self.value(a), self.value(b))?;
        Ok(self.push(v, Op::Matmul(a, b), false))
    }

    /// A dense layer `x · w + b`, the bias row-vector added to every row
    /// inside the GEMM — see [`ops::linear`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDims`] on incompatible shapes and
    /// [`TensorError::ShapeMismatch`] if the bias width differs from the
    /// column count.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Result<Var, TensorError> {
        let v = ops::linear(self.value(x), self.value(w), self.value(b))?;
        Ok(self.push(v, Op::Linear(x, w, b), false))
    }

    /// Elementwise addition of same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on shape disagreement.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let v = self.value(a).add(self.value(b))?;
        Ok(self.push(v, Op::Add(a, b), false))
    }

    /// Elementwise subtraction of same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on shape disagreement.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let v = self.value(a).sub(self.value(b))?;
        Ok(self.push(v, Op::Sub(a, b), false))
    }

    /// Elementwise multiplication of same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on shape disagreement.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let v = self.value(a).mul(self.value(b))?;
        Ok(self.push(v, Op::Mul(a, b), false))
    }

    /// Multiplies by a scalar constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s), false)
    }

    /// Rectified linear unit.
    ///
    /// Over the tape's newest node, when that is a linear layer, a
    /// convolution, an addition or a batch norm — ops whose backward pass
    /// never reads their own output — ReLU rectifies that node's buffer in
    /// place and takes it, so the tape keeps one activation where it would
    /// keep two; `a` is then spent (see [`Tape::value`]). Any other input
    /// is rectified into a new buffer. The backward pass reads its mask
    /// from the output, `y > 0` exactly where `x > 0`, so both give the same
    /// bits.
    pub fn relu(&mut self, a: Var) -> Var {
        let spendable = a.0 + 1 == self.nodes.len()
            && matches!(
                self.nodes[a.0],
                Node {
                    value: Cow::Owned(_),
                    op: Op::Linear(..) | Op::Conv2d { .. } | Op::Add(..) | Op::BatchNorm { .. },
                    ..
                }
            );
        let v = if spendable {
            let mut v = std::mem::replace(self.nodes[a.0].value.to_mut(), Tensor::zeros([0]));
            for x in v.data_mut() {
                *x = ops::rectify(*x);
            }
            v
        } else {
            ops::relu(self.value(a))
        };
        self.push(v, Op::Relu(a), false)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = ops::tanh(self.value(a));
        self.push(v, Op::Tanh(a), false)
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = ops::gelu(self.value(a));
        self.push(v, Op::Gelu(a), false)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = ops::sigmoid(self.value(a));
        self.push(v, Op::Sigmoid(a), false)
    }

    /// Mean over all elements, producing a scalar node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean());
        self.push(v, Op::MeanAll(a), false)
    }

    /// Sum over all elements, producing a scalar node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(v, Op::SumAll(a), false)
    }

    /// Mean softmax cross-entropy of `logits` against integer labels,
    /// producing a scalar loss node.
    ///
    /// # Errors
    ///
    /// See [`ops::softmax_cross_entropy`].
    pub fn softmax_cross_entropy(
        &mut self,
        logits: Var,
        labels: &'a [usize],
    ) -> Result<Var, TensorError> {
        let (loss, probs) = ops::softmax_cross_entropy(self.value(logits), labels)?;
        Ok(self.push(
            Tensor::scalar(loss),
            Op::SoftmaxCrossEntropy {
                logits,
                labels,
                probs,
            },
            false,
        ))
    }

    /// Mean squared error against a constant target, producing a scalar node.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on shape disagreement.
    pub fn mse(&mut self, pred: Var, target: Tensor) -> Result<Var, TensorError> {
        let (loss, _grad) = ops::mse(self.value(pred), &target)?;
        Ok(self.push(Tensor::scalar(loss), Op::Mse { pred, target }, false))
    }

    /// Batch normalization over rows using the *batch* statistics of `input`
    /// (training mode), with learnable `gamma`/`beta`.
    ///
    /// Returns the output var and the `(mean, var)` batch statistics as two
    /// constant nodes (read them with [`Tape::value`]), so the caller can
    /// update its moving averages — the "stateful kernel" whose migration
    /// semantics §5.1 of the paper discusses.
    ///
    /// The node keeps x̂ and σ = √(var + ε) for the backward pass, which
    /// therefore recomputes neither.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] naming `gamma` or `beta` if it
    /// does not match the column count, and [`TensorError::InvalidEpsilon`]
    /// unless `eps` is finite and positive.
    pub fn batch_norm(
        &mut self,
        input: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> Result<(Var, Var, Var), TensorError> {
        let ops::BatchNormed {
            out,
            mean,
            var,
            xhat,
            sigma,
        } = ops::batch_norm_train(self.value(input), self.value(gamma), self.value(beta), eps)?;
        let (mean, var) = (self.constant(mean), self.constant(var));
        let op = Op::BatchNorm {
            input,
            gamma,
            beta,
            xhat,
            sigma,
        };
        Ok((self.push(out, op, false), mean, var))
    }

    /// Layer normalization over rows with learnable per-column
    /// `gamma`/`beta` (as in transformer blocks). The node keeps the row
    /// statistics the forward pass computed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `gamma`/`beta` do not match
    /// the column count, and [`TensorError::InvalidEpsilon`] unless `eps` is
    /// finite and positive.
    pub fn layer_norm(
        &mut self,
        input: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> Result<Var, TensorError> {
        let (out, mean, var_) = ops::layer_norm_rows(
            self.value(input),
            self.value(gamma),
            self.value(beta),
            eps,
        )?;
        Ok(self.push(
            out,
            Op::LayerNorm {
                input,
                gamma,
                beta,
                mean,
                var_,
                eps,
            },
            false,
        ))
    }

    /// Inverted dropout with a deterministic seed: multiplies by a mask of
    /// zeros and `1/(1−rate)` entries, so gradients flow only through kept
    /// units. With `rate == 0` this is the identity.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying multiplication.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn dropout(&mut self, input: Var, rate: f32, seed: u64) -> Result<Var, TensorError> {
        let mask = ops::dropout_mask(self.value(input).shape().clone(), rate, seed);
        let mask_var = self.constant(mask);
        self.mul(input, mask_var)
    }

    /// 2-D convolution (NCHW, stride 1, same padding) — see
    /// [`crate::conv::conv2d`].
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors on inconsistent operands.
    pub fn conv2d(&mut self, input: Var, kernel: Var) -> Result<Var, TensorError> {
        let v = crate::conv::conv2d(self.value(input), self.value(kernel))?;
        Ok(self.push(v, Op::Conv2d { input, kernel }, false))
    }

    /// Global average pooling `[n, c, h, w] → [n, c]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input is rank 4, and
    /// [`TensorError::Empty`] when `h·w == 0`.
    pub fn global_avg_pool(&mut self, input: Var) -> Result<Var, TensorError> {
        let v = crate::conv::global_avg_pool(self.value(input))?;
        Ok(self.push(v, Op::GlobalAvgPool { input }, false))
    }

    /// Reshapes a node to a new shape of equal element count (free; the
    /// gradient is reshaped back).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn reshape(&mut self, input: Var, shape: impl Into<crate::Shape>) -> Result<Var, TensorError> {
        let v = self.value(input).reshape(shape)?;
        Ok(self.push(v, Op::Reshape { input }, false))
    }

    /// Runs reverse-mode differentiation from the scalar node `loss`,
    /// consuming the tape: what the forward pass kept becomes gradient
    /// storage (see the [module documentation](self)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotScalar`] if `loss` is not a scalar node.
    pub fn backward(self, loss: Var) -> Result<Gradients, TensorError> {
        let mut nodes = self.nodes;
        let len = nodes[loss.0].value.len();
        if len != 1 {
            return Err(TensorError::NotScalar { len });
        }
        nodes.truncate(loss.0 + 1);
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));

        // Popping hands each node over by value; its operands all have
        // lower indices and are still on `nodes`.
        while let Some(Node {
            value,
            op,
            needs_grad,
        }) = nodes.pop()
        {
            let id = nodes.len();
            // A leaf's slot is the result; a constant's is never written.
            if !needs_grad || matches!(op, Op::Leaf | Op::Constant) {
                continue;
            }
            // Every consumer of `id` has a higher index and has already run,
            // so the slot is final: take it, and let it drop (or move on)
            // once this node is differentiated.
            let Some(mut gout) = grads[id].take() else {
                continue;
            };
            let needs = |v: Var| nodes[v.0].needs_grad;
            let val = |v: Var| -> &Tensor { &nodes[v.0].value };
            match op {
                Op::Leaf | Op::Constant => {} // skipped above
                Op::Matmul(a, b) => matmul_grads(&mut grads, &nodes, &gout, a, b)?,
                Op::Linear(x, w, b) => {
                    // The bias's slot first, then x's and w's: the order the
                    // matmul + bias-add node pair this op replaces wrote
                    // them in.
                    if needs(b) {
                        accumulate(&mut grads, b, reshape_like(ops::sum_rows(&gout), val(b))?)?;
                    }
                    matmul_grads(&mut grads, &nodes, &gout, x, w)?;
                }
                Op::Add(a, b) => match (needs(a), needs(b)) {
                    (true, true) => {
                        accumulate(&mut grads, a, gout.clone())?;
                        accumulate(&mut grads, b, gout)?;
                    }
                    (true, false) => accumulate(&mut grads, a, gout)?,
                    (false, true) => accumulate(&mut grads, b, gout)?,
                    (false, false) => {}
                },
                Op::Sub(a, b) => {
                    let db = needs(b).then(|| gout.scale(-1.0));
                    if needs(a) {
                        accumulate(&mut grads, a, gout)?;
                    }
                    if let Some(db) = db {
                        accumulate(&mut grads, b, db)?;
                    }
                }
                Op::Mul(a, b) => {
                    let mul = |g: f32, y: f32| g * y;
                    match (needs(a), needs(b)) {
                        (true, true) => {
                            accumulate(&mut grads, a, gout.mul(val(b))?)?;
                            accumulate(&mut grads, b, mul_into(gout, val(a), mul)?)?;
                        }
                        (true, false) => accumulate(&mut grads, a, mul_into(gout, val(b), mul)?)?,
                        (false, true) => accumulate(&mut grads, b, mul_into(gout, val(a), mul)?)?,
                        (false, false) => {}
                    }
                }
                Op::Scale(a, s) => {
                    if needs(a) {
                        gout.scale_assign(s);
                        accumulate(&mut grads, a, gout)?;
                    }
                }
                Op::Relu(a) => {
                    if needs(a) {
                        // The mask multiply, fused: one float product per
                        // element (so NaN, ±∞ and −0.0 gradients come out as
                        // `g · mask` does), the mask read from the output —
                        // `y > 0` exactly where `x > 0`, NaN and −0.0 too.
                        let g = mul_into(gout, &value, |g, y| g * if y > 0.0 { 1.0 } else { 0.0 })?;
                        accumulate(&mut grads, a, g)?;
                    }
                }
                Op::Tanh(a) => {
                    if needs(a) {
                        let g = mul_into(gout, &value, |g, t| g * (1.0 - t * t))?;
                        accumulate(&mut grads, a, g)?;
                    }
                }
                Op::Gelu(a) => {
                    if needs(a) {
                        let dy = ops::gelu_grad(val(a));
                        accumulate(&mut grads, a, mul_into(gout, &dy, |g, d| g * d)?)?;
                    }
                }
                Op::Sigmoid(a) => {
                    if needs(a) {
                        let g = mul_into(gout, &value, |g, s| g * (s * (1.0 - s)))?;
                        accumulate(&mut grads, a, g)?;
                    }
                }
                Op::MeanAll(a) => {
                    if needs(a) {
                        let n = val(a).len() as f32;
                        let g = gout.item()?;
                        let da = Tensor::full(val(a).shape().clone(), g / n);
                        accumulate(&mut grads, a, da)?;
                    }
                }
                Op::SumAll(a) => {
                    if needs(a) {
                        let g = gout.item()?;
                        let da = Tensor::full(val(a).shape().clone(), g);
                        accumulate(&mut grads, a, da)?;
                    }
                }
                Op::SoftmaxCrossEntropy { logits, labels, probs } => {
                    if needs(logits) {
                        let g = gout.item()?;
                        let mut dl = ops::softmax_cross_entropy_grad(probs, labels)?;
                        dl.scale_assign(g);
                        accumulate(&mut grads, logits, dl)?;
                    }
                }
                Op::Mse { pred, target } => {
                    if needs(pred) {
                        let g = gout.item()?;
                        let (_, mut dp) = ops::mse(val(pred), &target)?;
                        dp.scale_assign(g);
                        accumulate(&mut grads, pred, dp)?;
                    }
                }
                Op::BatchNorm {
                    input,
                    gamma,
                    beta,
                    mut xhat,
                    mut sigma,
                } => {
                    // Σdy and Σdy·x̂ once each: they are dβ and dγ, and ×1/m
                    // the two means in dx = (γ/σ)(dy − mean(dy) − x̂·mean(dy·x̂)).
                    same_shape(&gout, &xhat)?;
                    let n = sigma.len();
                    let (sum_dy, sum_dy_xhat) = ops::bn_column_sums(gout.data(), xhat.data(), n);
                    if needs(input) {
                        let sums = (sum_dy.data(), sum_dy_xhat.data());
                        ops::bn_input_grad(
                            gout.data(),
                            xhat.data_mut(),
                            sigma.data_mut(),
                            val(gamma).data(),
                            sums,
                        );
                    }
                    if needs(beta) {
                        let db = reshape_like(sum_dy, val(beta))?;
                        accumulate(&mut grads, beta, db)?;
                    }
                    if needs(gamma) {
                        let dg = reshape_like(sum_dy_xhat, val(gamma))?;
                        accumulate(&mut grads, gamma, dg)?;
                    }
                    if needs(input) {
                        accumulate(&mut grads, input, xhat)?;
                    }
                }
                Op::LayerNorm {
                    input,
                    gamma,
                    beta,
                    mean,
                    var_,
                    eps,
                } => {
                    let x = val(input);
                    let (m, n) = x.shape().as_rows_cols();
                    let gd = gout.data();
                    let (md, vd) = (mean.data(), var_.data());
                    let gamma_d = val(gamma).data();
                    // Recompute x̂ from saved per-row stats.
                    let mut xhat = Tensor::zeros([m * n]);
                    let xh = xhat.data_mut();
                    for i in 0..m {
                        let inv_sigma = 1.0 / (vd[i] + eps).sqrt();
                        for j in 0..n {
                            xh[i * n + j] = (x.data()[i * n + j] - md[i]) * inv_sigma;
                        }
                    }
                    let xhat = xhat.data();
                    if needs(beta) {
                        let db = ops::sum_rows(&gout);
                        let db = reshape_like(db, val(beta))?;
                        accumulate(&mut grads, beta, db)?;
                    }
                    if needs(gamma) {
                        let mut dg = Tensor::zeros([n]);
                        let dgd = dg.data_mut();
                        for i in 0..m {
                            for j in 0..n {
                                dgd[j] += gd[i * n + j] * xhat[i * n + j];
                            }
                        }
                        let dg = reshape_like(dg, val(gamma))?;
                        accumulate(&mut grads, gamma, dg)?;
                    }
                    if needs(input) {
                        // dx̂ = dy ⊙ γ; dx = (dx̂ − mean(dx̂) − x̂·mean(dx̂⊙x̂)) / σ
                        // with means taken along each row.
                        let inv_n = 1.0 / n as f32;
                        let mut dx = Tensor::zeros(x.shape().clone());
                        let dxd = dx.data_mut();
                        for i in 0..m {
                            let inv_sigma = 1.0 / (vd[i] + eps).sqrt();
                            let mut mean_dxhat = 0.0f32;
                            let mut mean_dxhat_xhat = 0.0f32;
                            for j in 0..n {
                                let dxh = gd[i * n + j] * gamma_d[j];
                                mean_dxhat += dxh;
                                mean_dxhat_xhat += dxh * xhat[i * n + j];
                            }
                            mean_dxhat *= inv_n;
                            mean_dxhat_xhat *= inv_n;
                            for j in 0..n {
                                let dxh = gd[i * n + j] * gamma_d[j];
                                dxd[i * n + j] = inv_sigma
                                    * (dxh - mean_dxhat - xhat[i * n + j] * mean_dxhat_xhat);
                            }
                        }
                        accumulate(&mut grads, input, dx)?;
                    }
                }
                Op::Conv2d { input, kernel } => {
                    if needs(input) {
                        let gi = crate::conv::conv2d_grad_input(&gout, val(kernel))?;
                        accumulate(&mut grads, input, gi)?;
                    }
                    if needs(kernel) {
                        let kd = val(kernel).shape().dims();
                        let (kh, kw) = (kd[2], kd[3]);
                        let gk = crate::conv::conv2d_grad_kernel(val(input), &gout, kh, kw)?;
                        accumulate(&mut grads, kernel, gk)?;
                    }
                }
                Op::GlobalAvgPool { input } => {
                    if needs(input) {
                        let (n, c, h, w) = crate::conv::as_nchw(val(input))?;
                        let gi = crate::conv::global_avg_pool_grad(&gout, n, c, h, w)?;
                        accumulate(&mut grads, input, gi)?;
                    }
                }
                Op::Reshape { input } => {
                    if needs(input) {
                        let gi = reshape_like(gout, val(input))?;
                        accumulate(&mut grads, input, gi)?;
                    }
                }
            }
        }
        Ok(Gradients { grads })
    }
}

/// `y = a·b` → `da = g·bᵀ`, then `db = aᵀ·g`. The NT/TN GEMM variants
/// consume the operands in their stored layout, skipping the explicit
/// transpose materialization.
fn matmul_grads(
    grads: &mut [Option<Tensor>],
    nodes: &[Node],
    g: &Tensor,
    a: Var,
    b: Var,
) -> Result<(), TensorError> {
    let (av, bv) = (&*nodes[a.0].value, &*nodes[b.0].value);
    if nodes[a.0].needs_grad {
        let da = ops::matmul_nt(g, bv)?;
        accumulate(grads, a, reshape_like(da, av)?)?;
    }
    if nodes[b.0].needs_grad {
        let db = ops::matmul_tn(av, g)?;
        accumulate(grads, b, reshape_like(db, bv)?)?;
    }
    Ok(())
}

/// Fails unless `g` has the shape of `like`, as `Tensor::zip_map` would.
fn same_shape(g: &Tensor, like: &Tensor) -> Result<(), TensorError> {
    if g.shape() == like.shape() {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            expected: like.len(),
            actual: g.len(),
            context: "Tape::backward",
        })
    }
}

/// `g ← f(g, y)` elementwise, over a gradient the backward pass owns: the
/// product `g.zip_map(y, f)` would compute, without its buffer.
fn mul_into(mut g: Tensor, y: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
    same_shape(&g, y)?;
    for (g, &y) in g.data_mut().iter_mut().zip(y.data()) {
        *g = f(*g, y);
    }
    Ok(g)
}

fn accumulate(grads: &mut [Option<Tensor>], var: Var, g: Tensor) -> Result<(), TensorError> {
    match &mut grads[var.0] {
        Some(acc) => acc.add_assign(&g),
        slot @ None => {
            *slot = Some(g);
            Ok(())
        }
    }
}

/// Gives `g` the shape of `like`, keeping its buffer: matmul promotes rank-1
/// operands to rank-2 (restore the operand's shape when accumulating its
/// gradient), and a reshape node's gradient is reshaped back.
fn reshape_like(g: Tensor, like: &Tensor) -> Result<Tensor, TensorError> {
    if g.shape() == like.shape() {
        Ok(g)
    } else {
        Tensor::from_vec(g.into_vec(), like.shape().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    /// Central finite-difference gradient check of a scalar-valued function
    /// of one parameter tensor.
    fn grad_check(
        param: &Tensor,
        f: &dyn Fn(&mut Tape, Var) -> Var,
        tol: f32,
    ) {
        let mut tape = Tape::new();
        let w = tape.leaf(param.clone());
        let loss = f(&mut tape, w);
        let grads = tape.backward(loss).unwrap();
        let analytic = grads.get(w).expect("param must receive a gradient");
        let eps = 1e-3;
        for i in 0..param.len() {
            let eval = |delta: f32| {
                let mut p = param.clone();
                p.data_mut()[i] += delta;
                let mut t = Tape::new();
                let v = t.leaf(p);
                let l = f(&mut t, v);
                t.value(l).item().unwrap()
            };
            let fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let an = analytic.data()[i];
            assert!(
                (fd - an).abs() < tol,
                "element {i}: finite diff {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn matmul_gradients_pass_finite_difference() {
        let w = init::normal(&mut init::rng(0), [3, 2], 0.0, 1.0);
        let x = init::normal(&mut init::rng(1), [4, 3], 0.0, 1.0);
        grad_check(
            &w,
            &move |tape, wv| {
                let xv = tape.constant(x.clone());
                let y = tape.matmul(xv, wv).unwrap();
                tape.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn mlp_with_relu_gradients_pass_finite_difference() {
        let w = init::normal(&mut init::rng(2), [3, 3], 0.0, 1.0);
        let x = init::normal(&mut init::rng(3), [5, 3], 0.0, 1.0);
        grad_check(
            &w,
            &move |tape, wv| {
                let xv = tape.constant(x.clone());
                let h = tape.matmul(xv, wv).unwrap();
                let h = tape.relu(h);
                tape.mean_all(h)
            },
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_gradients_pass_finite_difference() {
        let w = init::normal(&mut init::rng(4), [3, 4], 0.0, 0.5);
        let x = init::normal(&mut init::rng(5), [6, 3], 0.0, 1.0);
        let labels: &[usize] = &[0, 1, 2, 3, 0, 1];
        grad_check(
            &w,
            &move |tape, wv| {
                let xv = tape.constant(x.clone());
                let h = tape.matmul(xv, wv).unwrap();
                tape.softmax_cross_entropy(h, labels).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn linear_gradients_pass_finite_difference() {
        let b = init::normal(&mut init::rng(6), [4], 0.0, 0.5);
        let w = init::normal(&mut init::rng(5), [3, 4], 0.0, 0.5);
        let x = init::normal(&mut init::rng(7), [5, 3], 0.0, 1.0);
        let labels: &[usize] = &[0, 1, 2, 3, 0];
        let (xc, bc) = (x.clone(), b.clone());
        grad_check(
            &w,
            &move |tape, wv| {
                let xv = tape.leaf(xc.clone());
                let bv = tape.constant(bc.clone());
                let h = tape.linear(xv, wv, bv).unwrap();
                tape.softmax_cross_entropy(h, labels).unwrap()
            },
            1e-2,
        );
        grad_check(
            &b,
            &move |tape, bv| {
                let xv = tape.constant(x.clone());
                let wv = tape.constant(w.clone());
                let h = tape.linear(xv, wv, bv).unwrap();
                tape.softmax_cross_entropy(h, labels).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn tanh_and_gelu_gradients_pass_finite_difference() {
        let w = init::normal(&mut init::rng(8), [2, 2], 0.0, 1.0);
        let x = init::normal(&mut init::rng(9), [3, 2], 0.0, 1.0);
        for act in ["tanh", "gelu", "sigmoid"] {
            let x = x.clone();
            grad_check(
                &w,
                &move |tape, wv| {
                    let xv = tape.constant(x.clone());
                    let h = tape.matmul(xv, wv).unwrap();
                    let h = match act {
                        "tanh" => tape.tanh(h),
                        "gelu" => tape.gelu(h),
                        _ => tape.sigmoid(h),
                    };
                    tape.mean_all(h)
                },
                1e-2,
            );
        }
    }

    #[test]
    fn batch_norm_gradients_pass_finite_difference() {
        let g = init::normal(&mut init::rng(10), [3], 1.0, 0.1);
        let x = init::normal(&mut init::rng(11), [6, 3], 2.0, 3.0);
        // Check gamma gradient.
        grad_check(
            &g,
            &move |tape, gv| {
                let xv = tape.leaf(x.clone());
                let bv = tape.constant(Tensor::zeros([3]));
                let (y, _, _) = tape.batch_norm(xv, gv, bv, 1e-5).unwrap();
                let sq = tape.mul(y, y).unwrap();
                tape.mean_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn batch_norm_input_gradient_passes_finite_difference() {
        let x = init::normal(&mut init::rng(12), [4, 2], 0.0, 2.0);
        grad_check(
            &x,
            &move |tape, xv| {
                let gv = tape.constant(Tensor::from_vec(vec![1.5, 0.5], [2]).unwrap());
                let bv = tape.constant(Tensor::from_vec(vec![0.1, -0.2], [2]).unwrap());
                let (y, _, _) = tape.batch_norm(xv, gv, bv, 1e-3).unwrap();
                let sq = tape.mul(y, y).unwrap();
                tape.mean_all(sq)
            },
            3e-2,
        );
    }

    #[test]
    fn batch_norm_rejects_bad_epsilon_and_names_a_mismatched_affine() {
        // Micro-batch 1: every variance is 0, and ε = 0 would give 0/0.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([1, 2]));
        let (g, b) = (tape.leaf(Tensor::ones([2])), tape.leaf(Tensor::zeros([2])));
        for eps in [0.0, -1.0, f32::NAN, f32::NEG_INFINITY] {
            assert!(matches!(
                tape.batch_norm(x, g, b, eps).unwrap_err(),
                TensorError::InvalidEpsilon { bits, context: "Tape::batch_norm" } if bits == eps.to_bits()
            ));
        }
        let (out, _, _) = tape.batch_norm(x, g, b, 1e-5).unwrap();
        assert_eq!(tape.value(out).data(), &[0.0, 0.0]);
        let wide = tape.leaf(Tensor::ones([3]));
        for (g, b, context) in [
            (wide, b, "Tape::batch_norm: gamma"),
            (g, wide, "Tape::batch_norm: beta"),
        ] {
            assert!(matches!(
                tape.batch_norm(x, g, b, 1e-5).unwrap_err(),
                TensorError::ShapeMismatch { expected: 2, actual: 3, context: c } if c == context
            ));
        }
    }

    #[test]
    fn layer_norm_rejects_bad_epsilon() {
        // A row of equal entries has variance 0, and ε = 0 would give 0/0.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 3]));
        let (g, b) = (tape.leaf(Tensor::ones([3])), tape.leaf(Tensor::zeros([3])));
        for eps in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            assert!(matches!(
                tape.layer_norm(x, g, b, eps).unwrap_err(),
                TensorError::InvalidEpsilon { bits, context: "ops::layer_norm_rows" } if bits == eps.to_bits()
            ));
        }
        let out = tape.layer_norm(x, g, b, 1e-5).unwrap();
        assert_eq!(tape.value(out).data(), &[0.0; 6]);
    }

    #[test]
    fn layer_norm_gamma_gradient_passes_finite_difference() {
        let g = init::normal(&mut init::rng(30), [3], 1.0, 0.1);
        let x = init::normal(&mut init::rng(31), [5, 3], 1.0, 2.0);
        grad_check(
            &g,
            &move |tape, gv| {
                let xv = tape.constant(x.clone());
                let bv = tape.constant(Tensor::zeros([3]));
                let y = tape.layer_norm(xv, gv, bv, 1e-5).unwrap();
                let sq = tape.mul(y, y).unwrap();
                tape.mean_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn layer_norm_input_gradient_passes_finite_difference() {
        let x = init::normal(&mut init::rng(32), [4, 3], 0.0, 2.0);
        grad_check(
            &x,
            &move |tape, xv| {
                let gv = tape.constant(Tensor::from_vec(vec![1.2, 0.8, 1.0], [3]).unwrap());
                let bv = tape.constant(Tensor::from_vec(vec![0.1, -0.1, 0.0], [3]).unwrap());
                let y = tape.layer_norm(xv, gv, bv, 1e-3).unwrap();
                let sq = tape.mul(y, y).unwrap();
                tape.mean_all(sq)
            },
            3e-2,
        );
    }

    #[test]
    fn dropout_blocks_gradients_through_dropped_units() {
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::ones([1, 8]));
        let d = tape.dropout(w, 0.5, 3).unwrap();
        let loss = tape.mean_all(d);
        let mask = tape.value(d).clone();
        let grads = tape.backward(loss).unwrap();
        let g = grads.get(w).unwrap();
        for (gv, mv) in g.data().iter().zip(mask.data().iter()) {
            assert_eq!(*gv == 0.0, *mv == 0.0, "gradient must follow the mask");
        }
    }

    #[test]
    fn dropout_rate_zero_is_identity() {
        let mut tape = Tape::new();
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], [1, 3]).unwrap();
        let v = tape.leaf(x.clone());
        let d = tape.dropout(v, 0.0, 0).unwrap();
        assert_eq!(tape.value(d), &x);
    }

    #[test]
    fn mse_gradients_pass_finite_difference() {
        let w = init::normal(&mut init::rng(13), [2, 1], 0.0, 1.0);
        let x = init::normal(&mut init::rng(14), [4, 2], 0.0, 1.0);
        let target = init::normal(&mut init::rng(15), [4, 1], 0.0, 1.0);
        grad_check(
            &w,
            &move |tape, wv| {
                let xv = tape.constant(x.clone());
                let y = tape.matmul(xv, wv).unwrap();
                tape.mse(y, target.clone()).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn conv_kernel_gradient_passes_finite_difference_through_tape() {
        let k = init::normal(&mut init::rng(40), [2, 1, 3, 3], 0.0, 0.5);
        let x = init::normal(&mut init::rng(41), [2, 1, 4, 4], 0.0, 1.0);
        grad_check(
            &k,
            &move |tape, kv| {
                let xv = tape.constant(x.clone());
                let y = tape.conv2d(xv, kv).unwrap();
                let y = tape.relu(y);
                tape.mean_all(y)
            },
            2e-2,
        );
    }

    #[test]
    fn conv_net_end_to_end_gradient_passes_finite_difference() {
        // conv → relu → global-avg-pool → linear head → cross-entropy,
        // checking the head weight gradient.
        let w = init::normal(&mut init::rng(42), [2, 3], 0.0, 0.5);
        let x = init::normal(&mut init::rng(43), [3, 1, 4, 4], 0.0, 1.0);
        let k = init::normal(&mut init::rng(44), [2, 1, 3, 3], 0.0, 0.5);
        let labels: &[usize] = &[0, 1, 2];
        grad_check(
            &w,
            &move |tape, wv| {
                let xv = tape.constant(x.clone());
                let kv = tape.constant(k.clone());
                let h = tape.conv2d(xv, kv).unwrap();
                let h = tape.relu(h);
                let pooled = tape.global_avg_pool(h).unwrap();
                let logits = tape.matmul(pooled, wv).unwrap();
                tape.softmax_cross_entropy(logits, labels).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn reshape_round_trips_gradients() {
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::ones([2, 1, 2, 2]));
        let flat = tape.reshape(w, [2, 4]).unwrap();
        let l = tape.mean_all(flat);
        let grads = tape.backward(l).unwrap();
        let g = grads.get(w).unwrap();
        assert_eq!(g.shape().dims(), &[2, 1, 2, 2]);
        assert!(g.data().iter().all(|&v| (v - 0.125).abs() < 1e-6));
    }

    #[test]
    fn relu_backward_is_bitwise_the_mask_multiply() {
        // Every upstream gradient (NaN, ±∞, ±0, ordinary) against every kind
        // of input (positive, negative, ±0, NaN): the fused backward must
        // equal `gout · mask(x)` bit for bit — 0 · NaN stays NaN, 0 · −2
        // stays −0.0 — whether ReLU made a new buffer (over a leaf) or
        // rectified its input's in place (over `x + −0.0`, which is `x` to
        // the bit).
        let gs = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -2.0,
        ];
        let xs = [3.0, -3.0, 0.0, -0.0, f32::NAN];
        let n = gs.len() * xs.len();
        let gout = Tensor::from_vec((0..n).map(|i| gs[i / xs.len()]).collect(), [n]).unwrap();
        let x = Tensor::from_vec((0..n).map(|i| xs[i % xs.len()]).collect(), [n]).unwrap();
        let mask = x.map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        let want = gout.mul(&mask).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        for in_place in [false, true] {
            // sum(relu(x) ⊙ gout) hands relu exactly `1.0 · gout` as its
            // upstream.
            let mut tape = Tape::new();
            let xv = tape.leaf(&x);
            let input = if in_place {
                let neg_zero = tape.constant(Tensor::full([n], -0.0));
                tape.add(xv, neg_zero).unwrap()
            } else {
                xv
            };
            let r = tape.relu(input);
            assert_eq!(tape.value(input).is_empty(), in_place);
            assert_eq!(
                bits(tape.value(r)),
                bits(&ops::relu(&x)),
                "in place: {in_place}"
            );
            let c = tape.constant(&gout);
            let m = tape.mul(r, c).unwrap();
            let l = tape.sum_all(m);
            let grads = tape.backward(l).unwrap();
            assert_eq!(
                bits(grads.get(xv).unwrap()),
                bits(&want),
                "in place: {in_place}"
            );
        }
    }

    #[test]
    fn relu_spends_only_the_newest_node_of_an_op_that_does_not_read_its_output() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![-1.0, 2.0], [1, 2]).unwrap());
        let w = tape.leaf(Tensor::ones([2, 2]));
        let b = tape.leaf(Tensor::zeros([2]));
        // A linear layer's output, newest on the tape: ReLU takes its
        // buffer, and the spent var reads as an empty tensor of shape [0].
        let h = tape.linear(x, w, b).unwrap();
        let r = tape.relu(h);
        assert_eq!(tape.value(h).shape().dims(), &[0]);
        assert_eq!(tape.value(r).data(), &[1.0, 1.0]);
        // A linear layer's output that something already read (here tanh),
        // a tanh (whose backward reads its output) and a constant keep their
        // values: ReLU writes a new buffer.
        let h2 = tape.linear(x, w, b).unwrap();
        let t = tape.tanh(h2);
        let r2 = tape.relu(h2);
        let r3 = tape.relu(t);
        let r4 = tape.relu(x);
        for (kept, relu) in [(h2, r2), (t, r3), (x, r4)] {
            assert_eq!(tape.value(kept).len(), 2);
            assert_eq!(tape.value(relu).len(), 2);
        }
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones([2, 2]));
        let w = tape.leaf(Tensor::ones([2, 2]));
        let y = tape.matmul(x, w).unwrap();
        let l = tape.mean_all(y);
        let grads = tape.backward(l).unwrap();
        assert!(grads.get(x).is_none());
        assert!(grads.get(w).is_some());
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::ones([2, 2]));
        assert!(matches!(
            tape.backward(w).unwrap_err(),
            TensorError::NotScalar { .. }
        ));
    }

    #[test]
    fn reused_parameter_accumulates_gradient() {
        // loss = mean(w + w) ⇒ dL/dw = 2/n each.
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::ones([2]));
        let y = tape.add(w, w).unwrap();
        let l = tape.mean_all(y);
        let grads = tape.backward(l).unwrap();
        assert_eq!(grads.get(w).unwrap().data(), &[1.0, 1.0]);
    }

    /// The bit patterns of the gradients of `leaves`, concatenated.
    fn grad_bits(grads: &Gradients, leaves: &[Var]) -> Vec<u32> {
        leaves
            .iter()
            .flat_map(|&v| grads.get(v).unwrap().data())
            .map(|g| g.to_bits())
            .collect()
    }

    // The three graphs below are where the backward pass hands a gradient on
    // by move instead of copying it, or fuses two nodes into one. Each slot
    // under test receives three contributions — float addition commutes but
    // does not associate, so only three or more pin the order — and the
    // expected bits are what the clone-every-node backward pass of PR 16
    // produced (for `FILLED`: what `matmul` followed by the since-deleted
    // `add_bias` node produced in the graph `linear` replaces).

    const DIAMOND: [u32; 12] = [
        0xbf22401a, 0x400eb644, 0x3ea77b25, 0xbff6ce9f,
        0x3eeb7562, 0xbd1d8a55, 0xbf2e8bbd, 0xbf91c229,
        0x3ecb0def, 0xbe889126, 0xbf1f3535, 0xbea544ae,
    ];
    const SHARED: [u32; 4] = [
        0xbee51048, 0x41033372, 0x40544841, 0xc01c3019,
    ];
    const FILLED: [u32; 21] = [
        0x3f03caf3, 0x3fc652af, 0x40264594, 0x3eadf9f8, 0x3f9a22c0, 0x40261441,
        0x3fb16d1b, 0x403c43b9, 0x3e55156c, 0xc003e779, 0x3f13ed06, 0x40830e5a,
        0xc040c684, 0x407f4d04, 0x405399c4, 0xbf8b3534, 0xbe40e46e, 0x40200076,
        0xbea3229c, 0x3f1b98e8, 0xbc900e7c,
    ];

    #[test]
    fn diamond_accumulates_in_consumer_order() {
        // h feeds two matmuls and the residual add; its slot is written by
        // the add (a moved-or-cloned pass-through), then by each matmul.
        let x = init::normal(&mut init::rng(50), [3, 2], 0.0, 1.0);
        let w1 = init::normal(&mut init::rng(51), [2, 2], 0.5, 1.0);
        let w2 = init::normal(&mut init::rng(52), [2, 2], 0.0, 1.0);
        let w3 = init::normal(&mut init::rng(53), [2, 2], 0.0, 1.0);
        let k = init::normal(&mut init::rng(54), [3, 2], 0.0, 1.0);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let (w1v, w2v, w3v) = (tape.leaf(w1.clone()), tape.leaf(w2.clone()), tape.leaf(w3.clone()));
        let kv = tape.constant(k.clone());
        let h = tape.matmul(xv, w1v).unwrap();
        let h = tape.tanh(h);
        let o2 = tape.matmul(h, w2v).unwrap();
        let o3 = tape.matmul(h, w3v).unwrap();
        let o3 = tape.tanh(o3);
        let s = tape.add(o2, o3).unwrap();
        let y = tape.add(h, s).unwrap();
        let weighted = tape.mul(y, kv).unwrap();
        let loss = tape.sum_all(weighted);
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grad_bits(&grads, &[w1v, w2v, w3v]), DIAMOND);
    }

    #[test]
    fn leaf_shared_by_three_ops_accumulates_in_reverse_tape_order() {
        let w = init::normal(&mut init::rng(60), [2, 2], 0.0, 1.0);
        let k = init::normal(&mut init::rng(64), [3, 2], 0.0, 1.0);
        let mut tape = Tape::new();
        let wv = tape.leaf(w.clone());
        let kv = tape.constant(k.clone());
        let mut sum = None;
        for seed in 61..64 {
            let xv = tape.constant(init::normal(&mut init::rng(seed), [3, 2], 0.0, 1.0));
            let y = tape.matmul(xv, wv).unwrap();
            sum = Some(match sum {
                None => y,
                Some(s) => tape.add(s, y).unwrap(),
            });
        }
        let weighted = tape.mul(sum.unwrap(), kv).unwrap();
        let loss = tape.sum_all(weighted);
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grad_bits(&grads, &[wv]), SHARED);
    }

    #[test]
    fn linear_accumulates_into_an_already_filled_input_slot() {
        // `a` is read by linear and then by tanh and gelu, which sit later
        // on the tape and so fill a's slot before linear's input gradient
        // arrives — which must then be added, not moved.
        let x = init::normal(&mut init::rng(70), [4, 3], 0.0, 1.0);
        let w0 = init::normal(&mut init::rng(71), [3, 3], 0.0, 1.0);
        let w = init::normal(&mut init::rng(74), [3, 3], 0.0, 1.0);
        let b = init::normal(&mut init::rng(72), [3], 0.0, 1.0);
        let k = init::normal(&mut init::rng(73), [4, 3], 0.0, 1.0);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let (w0v, wv, bv) = (
            tape.leaf(w0.clone()),
            tape.leaf(w.clone()),
            tape.leaf(b.clone()),
        );
        let kv = tape.constant(k.clone());
        let a = tape.matmul(xv, w0v).unwrap();
        let ab = tape.linear(a, wv, bv).unwrap();
        let t = tape.tanh(a);
        let u = tape.gelu(a);
        let s = tape.add(ab, t).unwrap();
        let y = tape.add(s, u).unwrap();
        let weighted = tape.mul(y, kv).unwrap();
        let loss = tape.sum_all(weighted);
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grad_bits(&grads, &[w0v, wv, bv]), FILLED);
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        // One sanity end-to-end: a linear model fit with plain GD.
        let x = init::normal(&mut init::rng(20), [16, 3], 0.0, 1.0);
        let true_w = init::normal(&mut init::rng(21), [3, 1], 0.0, 1.0);
        let y = ops::matmul(&x, &true_w).unwrap();
        let mut w = Tensor::zeros([3, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let mut tape = Tape::new();
            let wv = tape.leaf(w.clone());
            let xv = tape.constant(x.clone());
            let pred = tape.matmul(xv, wv).unwrap();
            let loss = tape.mse(pred, y.clone()).unwrap();
            let l = tape.value(loss).item().unwrap();
            assert!(l <= last + 1e-4, "loss must not increase: {l} > {last}");
            last = l;
            let mut grads = tape.backward(loss).unwrap();
            let g = grads.take(wv).unwrap();
            let step = g.scale(-0.1);
            w.add_assign(&step).unwrap();
        }
        assert!(last < 1e-3, "final loss {last}");
    }
}
