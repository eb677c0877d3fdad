//! Trainable stand-in architectures.
//!
//! The convergence experiments (Tables 1–2, Figs 2, 7, 8, 10) need models
//! that actually train. Real ResNets/BERTs are out of scope for this
//! substrate, so each paper workload is represented by a small architecture
//! whose SGD dynamics expose the same phenomena: sensitivity of the final
//! accuracy to the batch size × learning rate product, and batch-norm
//! "stateful kernels" whose moving statistics live outside the synchronized
//! parameter set (paper §5.1).
//!
//! An [`Architecture`] is stateless configuration; parameters and stateful
//! kernels are plain tensor lists owned by the caller (in `vf-core`, by the
//! device replicas), which is exactly what makes migration explicit.

use crate::ModelError;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use vf_tensor::autograd::{Tape, Var};
use vf_tensor::{init, ops, Tensor};

/// Per-device stateful kernels: tensors that are updated during training but
/// never synchronized across devices (batch-norm moving mean/variance).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatefulState {
    tensors: Vec<Tensor>,
}

impl StatefulState {
    /// Creates state from raw tensors.
    pub fn new(tensors: Vec<Tensor>) -> Self {
        StatefulState { tensors }
    }

    /// The underlying tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Mutable access to the underlying tensors.
    pub fn tensors_mut(&mut self) -> &mut [Tensor] {
        &mut self.tensors
    }

    /// Whether the architecture has no stateful kernels.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total bytes of stateful kernels.
    pub fn size_bytes(&self) -> usize {
        self.tensors.iter().map(Tensor::size_bytes).sum()
    }
}

/// The result of one micro-batch gradient computation.
#[derive(Debug, Clone)]
pub struct GradReport {
    /// Gradients, one per parameter, in parameter order. These are *mean*
    /// gradients over the micro-batch.
    pub grads: Vec<Tensor>,
    /// Mean loss over the micro-batch.
    pub loss: f32,
    /// Number of examples in the micro-batch.
    pub examples: usize,
}

/// The result of evaluating a model on a dataset slice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Mean loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
}

/// A trainable architecture: pure configuration that knows how to
/// initialize, differentiate, and evaluate itself.
///
/// This crate's stand-ins write their layers once, as one forward pass that
/// `grad` runs in training mode and `eval` in evaluation mode (§5.1: batch
/// statistics vs the moving ones, dropout vs the identity).
pub trait Architecture: Send + Sync {
    /// Human-readable architecture name.
    fn name(&self) -> &str;

    /// Initializes parameters deterministically from `seed`.
    fn init_params(&self, seed: u64) -> Vec<Tensor>;

    /// Initializes the stateful kernels (empty when the architecture has
    /// none).
    fn init_stateful(&self) -> StatefulState;

    /// Computes mean loss and parameter gradients on a micro-batch,
    /// updating `stateful` in training mode (e.g. batch-norm moving stats).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `params`/`stateful` do not match the
    /// architecture or shapes disagree with the data.
    fn grad(
        &self,
        params: &[Tensor],
        stateful: &mut StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<GradReport, ModelError>;

    /// Evaluates loss/accuracy in inference mode (e.g. batch-norm uses the
    /// moving statistics from `stateful`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on a configuration/shape mismatch.
    fn eval(
        &self,
        params: &[Tensor],
        stateful: &StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<EvalReport, ModelError>;
}

/// The mode a stand-in's forward pass runs in.
pub(crate) enum Mode<'s> {
    /// Batch statistics, folded into the moving ones; dropout seeded by the
    /// micro-batch's labels.
    Train(&'s mut StatefulState, &'s [usize]),
    /// The moving statistics; dropout is the identity.
    Eval(&'s StatefulState),
}

/// A stand-in's one forward pass, which [`grad_of`] and [`eval_of`] run.
pub(crate) trait Forward {
    /// Number of parameter tensors.
    fn num_param_tensors(&self) -> usize;

    /// The micro-batch of `n` examples as the first layer reads it.
    fn input<'a>(&self, features: &'a Tensor, _n: usize) -> Result<Cow<'a, Tensor>, ModelError> {
        Ok(Cow::Borrowed(features))
    }

    /// The logits of the micro-batch `x`, the parameters in `init_params` order.
    fn forward(
        &self,
        tape: &mut Tape<'_>,
        params: &[Var],
        x: Var,
        mode: Mode<'_>,
    ) -> Result<Var, ModelError>;
}

pub(crate) type Graded = Result<GradReport, ModelError>;
pub(crate) type Evaluated = Result<EvalReport, ModelError>;

/// Records `model`'s forward pass on a fresh tape, the parameters as leaves
/// in training mode and as constants in evaluation mode.
fn record<'a>(
    model: &impl Forward,
    params: &'a [Tensor],
    features: &'a Tensor,
    n: usize,
    mode: Mode<'_>,
) -> Result<(Tape<'a>, Vec<Var>, Var), ModelError> {
    let expected = model.num_param_tensors();
    if params.len() != expected {
        let actual = params.len();
        return Err(ModelError::ParamCount { expected, actual });
    }
    let x = model.input(features, n)?;
    let mut tape = Tape::new();
    let vars: Vec<_> = match mode {
        Mode::Train(..) => params.iter().map(|p| tape.leaf(p)).collect(),
        Mode::Eval(_) => params.iter().map(|p| tape.constant(p)).collect(),
    };
    let x = tape.constant(x);
    let logits = model.forward(&mut tape, &vars, x, mode)?;
    Ok((tape, vars, logits))
}

/// [`Architecture::grad`] of a stand-in: the mean cross-entropy's gradient
/// for every parameter (zeros where the loss does not reach).
pub(crate) fn grad_of(
    model: &impl Forward,
    params: &[Tensor],
    stateful: &mut StatefulState,
    features: &Tensor,
    labels: &[usize],
) -> Graded {
    let mode = Mode::Train(stateful, labels);
    let (mut tape, vars, logits) = record(model, params, features, labels.len(), mode)?;
    let loss = tape.softmax_cross_entropy(logits, labels)?;
    let loss_value = tape.value(loss).item()?;
    let mut grads_out = tape.backward(loss)?;
    let grads = vars
        .iter()
        .zip(params)
        .map(|(&v, p)| {
            grads_out
                .take(v)
                .unwrap_or_else(|| Tensor::zeros(p.shape().clone()))
        })
        .collect();
    Ok(GradReport {
        grads,
        loss: loss_value,
        examples: labels.len(),
    })
}

/// [`Architecture::eval`] of a stand-in: mean cross-entropy and top-1
/// accuracy.
pub(crate) fn eval_of(
    model: &impl Forward,
    params: &[Tensor],
    stateful: &StatefulState,
    features: &Tensor,
    labels: &[usize],
) -> Evaluated {
    let (tape, _, logits) = record(model, params, features, labels.len(), Mode::Eval(stateful))?;
    let (loss, _) = ops::softmax_cross_entropy(tape.value(logits), labels)?;
    let accuracy = ops::accuracy(tape.value(logits), labels)?;
    Ok(EvalReport { loss, accuracy })
}

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// GELU (tanh approximation), as in BERT.
    Gelu,
}

/// A multi-layer perceptron classifier with optional batch normalization on
/// every hidden layer.
///
/// With `hidden = []` this degenerates to multinomial logistic regression.
///
/// # Examples
///
/// ```
/// use vf_models::trainable::{Architecture, Mlp};
///
/// let arch = Mlp::new(16, vec![32], 4);
/// let params = arch.init_params(0);
/// assert_eq!(params.len(), 4); // W1, b1, W2, b2
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths (may be empty).
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
    /// Hidden-layer activation.
    pub activation: Activation,
    /// Whether hidden layers use batch normalization.
    pub batch_norm: bool,
    /// Momentum of the batch-norm moving statistics, in `[0, 1]` (`grad`
    /// rejects anything else).
    pub bn_momentum: f32,
    /// Batch-norm variance epsilon, finite and positive (`grad` and `eval`
    /// reject anything else: at micro-batch 1 every batch variance is 0).
    pub bn_eps: f32,
    name: String,
}

impl Mlp {
    /// An MLP without batch normalization.
    pub fn new(input_dim: usize, hidden: Vec<usize>, num_classes: usize) -> Self {
        let name = format!("mlp-{}x{:?}x{}", input_dim, hidden, num_classes);
        Mlp {
            input_dim,
            hidden,
            num_classes,
            activation: Activation::Relu,
            batch_norm: false,
            bn_momentum: 0.9,
            bn_eps: 1e-5,
            name,
        }
    }

    /// Enables batch normalization on hidden layers.
    pub fn with_batch_norm(mut self) -> Self {
        self.batch_norm = true;
        self.name.push_str("-bn");
        self
    }

    /// Multinomial logistic regression (no hidden layers).
    pub fn linear(input_dim: usize, num_classes: usize) -> Self {
        Mlp::new(input_dim, Vec::new(), num_classes)
    }

    /// Layer dimensions as (in, out) pairs, hidden layers first.
    fn layer_dims(&self) -> Vec<(usize, usize)> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.input_dim;
        for &h in &self.hidden {
            dims.push((prev, h));
            prev = h;
        }
        dims.push((prev, self.num_classes));
        dims
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        for (i, (fan_in, fan_out)) in self.layer_dims().iter().enumerate() {
            n += fan_in * fan_out + fan_out;
            if self.batch_norm && i < self.hidden.len() {
                n += 2 * fan_out;
            }
        }
        n
    }
}

impl Architecture for Mlp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init_params(&self, seed: u64) -> Vec<Tensor> {
        let mut rng = init::rng(seed);
        let dims = self.layer_dims();
        let mut params = Vec::with_capacity(self.num_param_tensors());
        for (i, &(fan_in, fan_out)) in dims.iter().enumerate() {
            let w = match self.activation {
                Activation::Relu | Activation::Gelu => init::he_normal(&mut rng, fan_in, fan_out),
                Activation::Tanh => init::xavier_uniform(&mut rng, fan_in, fan_out),
            };
            params.push(w);
            params.push(Tensor::zeros([fan_out]));
            if self.batch_norm && i < self.hidden.len() {
                params.push(Tensor::ones([fan_out])); // gamma
                params.push(Tensor::zeros([fan_out])); // beta
            }
        }
        params
    }

    fn init_stateful(&self) -> StatefulState {
        if !self.batch_norm {
            return StatefulState::default();
        }
        let mut tensors = Vec::with_capacity(2 * self.hidden.len());
        for &h in &self.hidden {
            tensors.push(Tensor::zeros([h])); // moving mean
            tensors.push(Tensor::ones([h])); // moving variance
        }
        StatefulState::new(tensors)
    }

    fn grad(&self, params: &[Tensor], st: &mut StatefulState, x: &Tensor, y: &[usize]) -> Graded {
        grad_of(self, params, st, x, y)
    }

    fn eval(&self, params: &[Tensor], st: &StatefulState, x: &Tensor, y: &[usize]) -> Evaluated {
        eval_of(self, params, st, x, y)
    }
}

impl Forward for Mlp {
    fn num_param_tensors(&self) -> usize {
        let per_hidden = if self.batch_norm { 4 } else { 2 };
        self.hidden.len() * per_hidden + 2
    }

    fn forward(
        &self,
        tape: &mut Tape<'_>,
        params: &[Var],
        x: Var,
        mut mode: Mode<'_>,
    ) -> Result<Var, ModelError> {
        let expected = 2 * self.hidden.len() * usize::from(self.batch_norm);
        let actual = match &mode {
            Mode::Train(stateful, _) => stateful.tensors().len(),
            Mode::Eval(stateful) => stateful.tensors().len(),
        };
        if actual != expected {
            return Err(ModelError::StatefulCount { expected, actual });
        }
        let (m, eps) = (self.bn_momentum, self.bn_eps);
        if self.batch_norm && matches!(mode, Mode::Train(..)) && !(0.0..=1.0).contains(&m) {
            return Err(ModelError::BnMomentum { bits: m.to_bits() });
        }
        let mut h = x;
        let mut pi = 0;
        for layer in 0..self.hidden.len() {
            h = tape.linear(h, params[pi], params[pi + 1])?;
            pi += 2;
            if self.batch_norm {
                let (gamma, beta) = (params[pi], params[pi + 1]);
                pi += 2;
                h = match &mut mode {
                    Mode::Train(stateful, _) => {
                        let (out, mean, var) = tape.batch_norm(h, gamma, beta, eps)?;
                        // Update the moving statistics (the "stateful kernel").
                        let moving = &mut stateful.tensors_mut()[2 * layer..];
                        update_moving(&mut moving[0], tape.value(mean), m)?;
                        update_moving(&mut moving[1], tape.value(var), m)?;
                        out
                    }
                    Mode::Eval(stateful) => {
                        let moving = &stateful.tensors()[2 * layer..];
                        let (x, g, b) = (tape.value(h), tape.value(gamma), tape.value(beta));
                        let out = ops::batch_norm_apply(x, &moving[0], &moving[1], g, b, eps)?;
                        tape.constant(out)
                    }
                };
            }
            h = match self.activation {
                Activation::Relu => tape.relu(h),
                Activation::Tanh => tape.tanh(h),
                Activation::Gelu => tape.gelu(h),
            };
        }
        Ok(tape.linear(h, params[pi], params[pi + 1])?)
    }
}

/// `moving ← m·moving + (1 − m)·batch` in place: the two products and the
/// sum are rounded separately, exactly as `scale_assign(m)` followed by
/// `add_assign(&batch.scale(1 − m))` rounds them.
fn update_moving(moving: &mut Tensor, batch: &Tensor, m: f32) -> Result<(), ModelError> {
    if moving.shape() != batch.shape() {
        return Err(ModelError::Tensor(vf_tensor::TensorError::ShapeMismatch {
            expected: batch.len(),
            actual: moving.len(),
            context: "Mlp::grad moving statistics",
        }));
    }
    for (mov, &stat) in moving.data_mut().iter_mut().zip(batch.data()) {
        *mov = *mov * m + stat * (1.0 - m);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_data::synthetic::ClusterTask;
    use vf_tensor::optim::{Optimizer, Sgd};

    #[test]
    fn param_layout_matches_config() {
        let plain = Mlp::new(8, vec![16, 8], 3);
        assert_eq!(plain.num_param_tensors(), 6);
        assert_eq!(plain.init_params(0).len(), 6);
        let bn = Mlp::new(8, vec![16, 8], 3).with_batch_norm();
        assert_eq!(bn.num_param_tensors(), 10);
        assert_eq!(bn.init_params(0).len(), 10);
        assert_eq!(bn.init_stateful().tensors().len(), 4);
    }

    #[test]
    fn num_params_counts_scalars() {
        let m = Mlp::new(4, vec![8], 3);
        // 4*8 + 8 + 8*3 + 3 = 67
        assert_eq!(m.num_params(), 67);
        let bn = Mlp::new(4, vec![8], 3).with_batch_norm();
        assert_eq!(bn.num_params(), 67 + 16);
    }

    #[test]
    fn init_is_deterministic() {
        let m = Mlp::new(8, vec![16], 3);
        assert_eq!(m.init_params(5), m.init_params(5));
        assert_ne!(m.init_params(5), m.init_params(6));
    }

    #[test]
    fn grad_rejects_wrong_param_count() {
        let m = Mlp::new(4, vec![], 2);
        let mut st = m.init_stateful();
        let x = Tensor::zeros([2, 4]);
        let err = m.grad(&[], &mut st, &x, &[0, 1]).unwrap_err();
        assert!(matches!(err, ModelError::ParamCount { .. }));
    }

    #[test]
    fn grad_rejects_wrong_stateful_count() {
        let m = Mlp::new(4, vec![8], 2).with_batch_norm();
        let params = m.init_params(0);
        let mut st = StatefulState::default();
        let x = Tensor::zeros([2, 4]);
        let err = m.grad(&params, &mut st, &x, &[0, 1]).unwrap_err();
        assert!(matches!(err, ModelError::StatefulCount { .. }));
    }

    #[test]
    fn bn_rejects_an_epsilon_that_would_make_nans() {
        // Micro-batch 1: every column's batch variance is exactly 0, so
        // ε = 0 would normalize every activation to 0/0.
        let m = Mlp {
            bn_eps: 0.0,
            ..Mlp::new(4, vec![8], 2).with_batch_norm()
        };
        let params = m.init_params(0);
        let mut st = m.init_stateful();
        let x = Tensor::ones([1, 4]);
        for err in [
            m.grad(&params, &mut st, &x, &[1]).unwrap_err(),
            m.eval(&params, &st, &x, &[1]).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    ModelError::Tensor(vf_tensor::TensorError::InvalidEpsilon { bits: 0, .. })
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn bn_rejects_a_momentum_outside_the_unit_interval() {
        let x = Tensor::ones([2, 4]);
        for momentum in [-0.1, 1.5, f32::NAN] {
            let m = Mlp {
                bn_momentum: momentum,
                ..Mlp::new(4, vec![8], 2).with_batch_norm()
            };
            let mut st = m.init_stateful();
            let err = m.grad(&m.init_params(0), &mut st, &x, &[0, 1]).unwrap_err();
            let bits = momentum.to_bits();
            assert_eq!(err, ModelError::BnMomentum { bits });
            assert_eq!(st, m.init_stateful(), "nothing is updated");
        }
        // Without batch norm the momentum is unused, and 0 and 1 are valid.
        for (momentum, bn) in [(1.5, false), (0.0, true), (1.0, true)] {
            let mut m = Mlp::new(4, vec![8], 2);
            if bn {
                m = m.with_batch_norm();
            }
            m.bn_momentum = momentum;
            let mut st = m.init_stateful();
            assert!(m.grad(&m.init_params(0), &mut st, &x, &[0, 1]).is_ok());
        }
    }

    #[test]
    fn training_linear_model_improves_accuracy() {
        let data = ClusterTask::easy(7).generate().unwrap();
        let m = Mlp::linear(16, 4);
        let mut params = m.init_params(0);
        let mut st = m.init_stateful();
        let (x, y) = data.gather(&(0..256).collect::<Vec<_>>()).unwrap();
        let before = m.eval(&params, &st, &x, &y).unwrap();
        let mut opt = Sgd::new(0.5);
        for _ in 0..60 {
            let report = m.grad(&params, &mut st, &x, &y).unwrap();
            opt.step(&mut params, &report.grads).unwrap();
        }
        let after = m.eval(&params, &st, &x, &y).unwrap();
        assert!(after.loss < before.loss);
        assert!(after.accuracy > 0.9, "accuracy {}", after.accuracy);
    }

    #[test]
    fn training_bn_mlp_improves_and_updates_moving_stats() {
        let data = ClusterTask::easy(8).generate().unwrap();
        let m = Mlp::new(16, vec![32], 4).with_batch_norm();
        let mut params = m.init_params(0);
        let mut st = m.init_stateful();
        let initial_state = st.clone();
        let (x, y) = data.gather(&(0..128).collect::<Vec<_>>()).unwrap();
        let mut opt = Sgd::new(0.2);
        for _ in 0..40 {
            let report = m.grad(&params, &mut st, &x, &y).unwrap();
            opt.step(&mut params, &report.grads).unwrap();
        }
        assert_ne!(st, initial_state, "moving stats must move");
        let after = m.eval(&params, &st, &x, &y).unwrap();
        assert!(after.accuracy > 0.9, "accuracy {}", after.accuracy);
    }

    #[test]
    fn eval_uses_moving_stats_not_batch_stats() {
        // Evaluating with freshly initialized moving stats (mean 0, var 1)
        // must differ from evaluating with trained moving stats.
        let data = ClusterTask::easy(9).generate().unwrap();
        let m = Mlp::new(16, vec![32], 4).with_batch_norm();
        let mut params = m.init_params(1);
        let mut st = m.init_stateful();
        let (x, y) = data.gather(&(0..128).collect::<Vec<_>>()).unwrap();
        let mut opt = Sgd::new(0.2);
        for _ in 0..20 {
            let report = m.grad(&params, &mut st, &x, &y).unwrap();
            opt.step(&mut params, &report.grads).unwrap();
        }
        let trained_stats = m.eval(&params, &st, &x, &y).unwrap();
        let fresh_stats = m.eval(&params, &m.init_stateful(), &x, &y).unwrap();
        assert_ne!(trained_stats.loss, fresh_stats.loss);
    }

    #[test]
    fn grad_report_examples_matches_batch() {
        let m = Mlp::linear(4, 2);
        let params = m.init_params(0);
        let mut st = m.init_stateful();
        let x = Tensor::zeros([3, 4]);
        let r = m.grad(&params, &mut st, &x, &[0, 1, 0]).unwrap();
        assert_eq!(r.examples, 3);
        assert_eq!(r.grads.len(), params.len());
    }

    #[test]
    fn gelu_and_tanh_variants_train() {
        let data = ClusterTask::easy(10).generate().unwrap();
        let (x, y) = data.gather(&(0..128).collect::<Vec<_>>()).unwrap();
        for act in [Activation::Gelu, Activation::Tanh] {
            let mut m = Mlp::new(16, vec![16], 4);
            m.activation = act;
            let mut params = m.init_params(0);
            let mut st = m.init_stateful();
            let mut opt = Sgd::new(0.3);
            for _ in 0..50 {
                let report = m.grad(&params, &mut st, &x, &y).unwrap();
                opt.step(&mut params, &report.grads).unwrap();
            }
            let after = m.eval(&params, &st, &x, &y).unwrap();
            assert!(after.accuracy > 0.8, "{act:?} accuracy {}", after.accuracy);
        }
    }
}
