//! A residual MLP: a transformer-block-shaped trainable stand-in.
//!
//! Deeper than [`crate::trainable::Mlp`] and closer in structure to the
//! BERT models the paper finetunes: an input projection followed by
//! pre-layer-norm residual blocks (`h ← h + W₂·gelu(W₁·LN(h))`) with
//! optional deterministic dropout, then a linear classifier head.
//!
//! Dropout masks are seeded from the *data* (a hash of the labels), never
//! from the device, so training remains bit-reproducible across any virtual
//! node mapping.

use crate::trainable::{Architecture, EvalReport, GradReport, StatefulState};
use crate::ModelError;
use serde::{Deserialize, Serialize};
use vf_tensor::autograd::Tape;
use vf_tensor::{init, ops, Tensor};

/// A residual MLP classifier with pre-layer-norm blocks.
///
/// # Examples
///
/// ```
/// use vf_models::residual::ResidualMlp;
/// use vf_models::Architecture;
///
/// let arch = ResidualMlp::new(16, 32, 2, 4);
/// // input proj (W,b) + 2 blocks × (γ, β, W1, b1, W2, b2) + head (W,b)
/// assert_eq!(arch.init_params(0).len(), 2 + 2 * 6 + 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidualMlp {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Residual stream width.
    pub width: usize,
    /// Number of residual blocks.
    pub blocks: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Dropout rate applied inside each block (0 disables).
    pub dropout: f32,
    /// Layer-norm epsilon.
    pub ln_eps: f32,
    name: String,
}

impl ResidualMlp {
    /// A residual MLP without dropout.
    pub fn new(input_dim: usize, width: usize, blocks: usize, num_classes: usize) -> Self {
        ResidualMlp {
            input_dim,
            width,
            blocks,
            num_classes,
            dropout: 0.0,
            ln_eps: 1e-5,
            name: format!("resmlp-{input_dim}x{width}x{blocks}x{num_classes}"),
        }
    }

    /// Enables dropout inside the blocks.
    pub fn with_dropout(mut self, rate: f32) -> Self {
        self.dropout = rate;
        self.name.push_str("-drop");
        self
    }

    /// Number of parameter tensors.
    pub fn num_param_tensors(&self) -> usize {
        2 + self.blocks * 6 + 2
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

    /// A mapping-independent dropout seed derived from the micro-batch.
    fn data_seed(labels: &[usize]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &l in labels {
            h ^= l as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

impl Architecture for ResidualMlp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init_params(&self, seed: u64) -> Vec<Tensor> {
        let mut rng = init::rng(seed);
        let mut params = Vec::with_capacity(self.num_param_tensors());
        params.push(init::xavier_uniform(&mut rng, self.input_dim, self.width));
        params.push(Tensor::zeros([self.width]));
        for _ in 0..self.blocks {
            params.push(Tensor::ones([self.width])); // ln gamma
            params.push(Tensor::zeros([self.width])); // ln beta
            params.push(init::he_normal(&mut rng, self.width, self.width));
            params.push(Tensor::zeros([self.width]));
            // Scale down the residual branch output so deep stacks start
            // near the identity.
            let w2 = init::he_normal(&mut rng, self.width, self.width)
                .scale(1.0 / (self.blocks as f32).sqrt());
            params.push(w2);
            params.push(Tensor::zeros([self.width]));
        }
        params.push(init::xavier_uniform(&mut rng, self.width, self.num_classes));
        params.push(Tensor::zeros([self.num_classes]));
        params
    }

    fn init_stateful(&self) -> StatefulState {
        StatefulState::default()
    }

    fn grad(
        &self,
        params: &[Tensor],
        _stateful: &mut StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<GradReport, ModelError> {
        self.check_params(params)?;
        let mut tape = Tape::new();
        let vars: Vec<_> = params.iter().map(|p| tape.leaf(p)).collect();
        let x = tape.constant(features);
        let mut h = tape.matmul(x, vars[0])?;
        h = tape.add_bias(h, vars[1])?;
        let seed = Self::data_seed(labels);
        let mut pi = 2;
        for block in 0..self.blocks {
            let (gamma, beta) = (vars[pi], vars[pi + 1]);
            let (w1, b1) = (vars[pi + 2], vars[pi + 3]);
            let (w2, b2) = (vars[pi + 4], vars[pi + 5]);
            pi += 6;
            let normed = tape.layer_norm(h, gamma, beta, self.ln_eps)?;
            let mut inner = tape.matmul(normed, w1)?;
            inner = tape.add_bias(inner, b1)?;
            inner = tape.gelu(inner);
            if self.dropout > 0.0 {
                inner = tape.dropout(inner, self.dropout, seed ^ (block as u64) << 8)?;
            }
            let mut out = tape.matmul(inner, w2)?;
            out = tape.add_bias(out, b2)?;
            h = tape.add(h, out)?;
        }
        let logits = tape.matmul(h, vars[pi])?;
        let logits = tape.add_bias(logits, vars[pi + 1])?;
        let loss = tape.softmax_cross_entropy(logits, labels)?;
        let loss_value = tape.value(loss).item()?;
        let mut grads_out = tape.backward(loss)?;
        let grads = vars
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
        _stateful: &StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<EvalReport, ModelError> {
        self.check_params(params)?;
        let mut h = ops::add_bias(&ops::matmul(features, &params[0])?, &params[1])?;
        let mut pi = 2;
        for _ in 0..self.blocks {
            let normed =
                ops::layer_norm_rows(&h, &params[pi], &params[pi + 1], self.ln_eps)?;
            let inner = ops::gelu(&ops::add_bias(
                &ops::matmul(&normed, &params[pi + 2])?,
                &params[pi + 3],
            )?);
            // Dropout is identity at evaluation time.
            let out = ops::add_bias(&ops::matmul(&inner, &params[pi + 4])?, &params[pi + 5])?;
            h = h.add(&out)?;
            pi += 6;
        }
        let logits = ops::add_bias(&ops::matmul(&h, &params[pi])?, &params[pi + 1])?;
        let (loss, _) = ops::softmax_cross_entropy(&logits, labels)?;
        let accuracy = ops::accuracy(&logits, labels)?;
        Ok(EvalReport { loss, accuracy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_data::synthetic::TeacherTask;
    use vf_tensor::optim::{Adam, Optimizer};

    #[test]
    fn param_layout_matches_formula() {
        let m = ResidualMlp::new(8, 16, 3, 4);
        assert_eq!(m.init_params(0).len(), m.num_param_tensors());
        assert_eq!(m.num_param_tensors(), 22);
    }

    #[test]
    fn rejects_wrong_param_count() {
        let m = ResidualMlp::new(8, 16, 1, 4);
        let mut st = m.init_stateful();
        let err = m
            .grad(&[], &mut st, &Tensor::zeros([2, 8]), &[0, 1])
            .unwrap_err();
        assert!(matches!(err, ModelError::ParamCount { .. }));
    }

    #[test]
    fn trains_on_a_nonlinear_task() {
        // A linear model cannot fit a teacher task well; the residual MLP
        // should.
        let data = TeacherTask {
            num_examples: 512,
            dim: 8,
            hidden: 16,
            num_classes: 3,
            label_noise: 0.0,
            seed: 5,
        }
        .generate()
        .unwrap();
        let m = ResidualMlp::new(8, 24, 2, 3);
        let mut params = m.init_params(1);
        let mut st = m.init_stateful();
        let (x, y) = data.gather(&(0..256).collect::<Vec<_>>()).unwrap();
        let before = m.eval(&params, &st, &x, &y).unwrap();
        let mut opt = Adam::new(5e-3);
        for _ in 0..80 {
            let r = m.grad(&params, &mut st, &x, &y).unwrap();
            opt.step(&mut params, &r.grads).unwrap();
        }
        let after = m.eval(&params, &st, &x, &y).unwrap();
        assert!(after.loss < before.loss);
        assert!(after.accuracy > 0.85, "accuracy {}", after.accuracy);
    }

    #[test]
    fn dropout_seed_depends_on_data_not_device() {
        let m = ResidualMlp::new(8, 16, 1, 3).with_dropout(0.2);
        let params = m.init_params(0);
        let mut st = m.init_stateful();
        let x = Tensor::ones([4, 8]);
        let a = m.grad(&params, &mut st, &x, &[0, 1, 2, 0]).unwrap();
        let b = m.grad(&params, &mut st, &x, &[0, 1, 2, 0]).unwrap();
        assert_eq!(a.loss, b.loss, "same data → same dropout mask");
        let c = m.grad(&params, &mut st, &x, &[1, 1, 2, 0]).unwrap();
        assert_ne!(a.loss, c.loss, "different data → different mask");
    }

    #[test]
    fn gradient_matches_finite_difference_on_one_weight() {
        let m = ResidualMlp::new(4, 6, 1, 2);
        let params = m.init_params(3);
        let mut st = m.init_stateful();
        let x = vf_tensor::init::normal(&mut vf_tensor::init::rng(4), [3, 4], 0.0, 1.0);
        let labels = vec![0, 1, 0];
        let r = m.grad(&params, &mut st, &x, &labels).unwrap();
        // Check a handful of coordinates of the first block's W1 (index 4).
        let target = 4;
        let eps = 1e-2;
        for coord in [0usize, 7, 20] {
            let mut plus = params.clone();
            plus[target].data_mut()[coord] += eps;
            let lp = m.grad(&plus, &mut st, &x, &labels).unwrap().loss;
            let mut minus = params.clone();
            minus[target].data_mut()[coord] -= eps;
            let lm = m.grad(&minus, &mut st, &x, &labels).unwrap().loss;
            let fd = (lp - lm) / (2.0 * eps);
            let an = r.grads[target].data()[coord];
            assert!(
                (fd - an).abs() < 2e-2,
                "coord {coord}: fd {fd} vs analytic {an}"
            );
        }
    }
}
