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
use vf_tensor::autograd::Tape;
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
    /// Momentum of the batch-norm moving statistics.
    pub bn_momentum: f32,
    /// Batch-norm variance epsilon.
    pub bn_eps: f32,
    name: String,
}

impl Mlp {
    /// An MLP without batch normalization.
    pub fn new(input_dim: usize, hidden: Vec<usize>, num_classes: usize) -> Self {
        let name = format!(
            "mlp-{}x{:?}x{}",
            input_dim, hidden, num_classes
        );
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

    /// Number of parameter tensors.
    pub fn num_param_tensors(&self) -> usize {
        let per_hidden = if self.batch_norm { 4 } else { 2 };
        self.hidden.len() * per_hidden + 2
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

    fn check_params(&self, params: &[Tensor]) -> Result<(), ModelError> {
        if params.len() != self.num_param_tensors() {
            return Err(ModelError::ParamCount {
                expected: self.num_param_tensors(),
                actual: params.len(),
            });
        }
        Ok(())
    }

    fn check_stateful(&self, stateful: &StatefulState) -> Result<(), ModelError> {
        let expected = if self.batch_norm { 2 * self.hidden.len() } else { 0 };
        if stateful.tensors().len() != expected {
            return Err(ModelError::StatefulCount {
                expected,
                actual: stateful.tensors().len(),
            });
        }
        Ok(())
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

    fn grad(
        &self,
        params: &[Tensor],
        stateful: &mut StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<GradReport, ModelError> {
        self.check_params(params)?;
        self.check_stateful(stateful)?;
        let mut tape = Tape::new();
        let param_vars: Vec<_> = params.iter().map(|p| tape.leaf(p)).collect();
        let mut h = tape.constant(features);
        let mut pi = 0;
        for layer in 0..self.hidden.len() {
            let w = param_vars[pi];
            let b = param_vars[pi + 1];
            pi += 2;
            h = tape.matmul(h, w)?;
            h = tape.add_bias(h, b)?;
            if self.batch_norm {
                let gamma = param_vars[pi];
                let beta = param_vars[pi + 1];
                pi += 2;
                let (out, mean, var) = tape.batch_norm(h, gamma, beta, self.bn_eps)?;
                h = out;
                // Update the moving statistics (the "stateful kernel").
                let moving = stateful.tensors_mut();
                update_moving(&mut moving[2 * layer], tape.value(mean), self.bn_momentum)?;
                update_moving(&mut moving[2 * layer + 1], tape.value(var), self.bn_momentum)?;
            }
            h = match self.activation {
                Activation::Relu => tape.relu(h),
                Activation::Tanh => tape.tanh(h),
                Activation::Gelu => tape.gelu(h),
            };
        }
        let w = param_vars[pi];
        let b = param_vars[pi + 1];
        let logits = tape.matmul(h, w)?;
        let logits = tape.add_bias(logits, b)?;
        let loss = tape.softmax_cross_entropy(logits, labels)?;
        let loss_value = tape.value(loss).item()?;
        let mut grads_out = tape.backward(loss)?;
        let grads = param_vars
            .iter()
            .zip(params.iter())
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

    fn eval(
        &self,
        params: &[Tensor],
        stateful: &StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<EvalReport, ModelError> {
        self.check_params(params)?;
        self.check_stateful(stateful)?;
        let mut h = features.clone();
        let mut pi = 0;
        for layer in 0..self.hidden.len() {
            let w = &params[pi];
            let b = &params[pi + 1];
            pi += 2;
            h = ops::matmul(&h, w)?;
            h = ops::add_bias(&h, b)?;
            if self.batch_norm {
                let gamma = &params[pi];
                let beta = &params[pi + 1];
                pi += 2;
                let mov_mean = &stateful.tensors()[2 * layer];
                let mov_var = &stateful.tensors()[2 * layer + 1];
                h = ops::batch_norm_apply(&h, mov_mean, mov_var, gamma, beta, self.bn_eps)?;
            }
            h = match self.activation {
                Activation::Relu => ops::relu(&h),
                Activation::Tanh => ops::tanh(&h),
                Activation::Gelu => ops::gelu(&h),
            };
        }
        let logits = ops::add_bias(&ops::matmul(&h, &params[pi])?, &params[pi + 1])?;
        let (loss, _) = ops::softmax_cross_entropy(&logits, labels)?;
        let accuracy = ops::accuracy(&logits, labels)?;
        Ok(EvalReport { loss, accuracy })
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
