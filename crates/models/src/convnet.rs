//! A small residual convolutional network — the CIFAR-class ResNet
//! stand-in, now with actual convolutions.
//!
//! Architecture (NCHW, stride 1, same padding):
//!
//! ```text
//! input [n, c, h, w]
//!   → conv 3×3 (c → k) → ReLU                 (stem)
//!   → [ conv 3×3 (k → k) → ReLU → conv 3×3 (k → k) → + skip → ReLU ] × B
//!   → global average pool → linear head → softmax
//! ```
//!
//! Like every architecture in this workspace it is pure configuration:
//! parameters live with the caller, and gradient computation is a pure
//! function of `(params, micro-batch)`, which is what makes virtual node
//! execution bit-reproducible across device mappings.

use crate::trainable::{Architecture, EvalReport, GradReport, StatefulState};
use crate::ModelError;
use serde::{Deserialize, Serialize};
use vf_tensor::autograd::Tape;
use vf_tensor::{conv, init, ops, Tensor};

/// A residual CNN classifier over flattened image features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvNet {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Width (channels) of the residual trunk.
    pub filters: usize,
    /// Number of residual blocks.
    pub blocks: usize,
    /// Output classes.
    pub num_classes: usize,
    name: String,
}

impl ConvNet {
    /// A residual CNN for `channels × height × width` inputs.
    pub fn new(
        channels: usize,
        height: usize,
        width: usize,
        filters: usize,
        blocks: usize,
        num_classes: usize,
    ) -> Self {
        ConvNet {
            channels,
            height,
            width,
            filters,
            blocks,
            num_classes,
            name: format!("convnet-{channels}x{height}x{width}-f{filters}b{blocks}-{num_classes}"),
        }
    }

    /// Number of parameter tensors: stem kernel + 2 kernels per block +
    /// head weight + head bias.
    pub fn num_param_tensors(&self) -> usize {
        1 + 2 * self.blocks + 2
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

    fn input_pixels(&self) -> usize {
        self.channels * self.height * self.width
    }
}

impl Architecture for ConvNet {
    fn name(&self) -> &str {
        &self.name
    }

    fn init_params(&self, seed: u64) -> Vec<Tensor> {
        let mut rng = init::rng(seed);
        let mut params = Vec::with_capacity(self.num_param_tensors());
        let he = |rng: &mut _, oc: usize, ic: usize| {
            let fan_in = ic * 9;
            init::normal(rng, [oc, ic, 3, 3], 0.0, (2.0 / fan_in as f32).sqrt())
        };
        params.push(he(&mut rng, self.filters, self.channels));
        for _ in 0..self.blocks {
            params.push(he(&mut rng, self.filters, self.filters));
            // Scale the block's second conv down so deep stacks start near
            // the identity.
            let k2 = he(&mut rng, self.filters, self.filters)
                .scale(1.0 / (self.blocks as f32).sqrt());
            params.push(k2);
        }
        params.push(init::xavier_uniform(&mut rng, self.filters, self.num_classes));
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
        let n = labels.len();
        let mut tape = Tape::new();
        let vars: Vec<_> = params.iter().map(|p| tape.leaf(p)).collect();
        // The one copy of the micro-batch: a constant needs no reshape node
        // to route a gradient back through.
        let x = tape.constant(features.reshape([n, self.channels, self.height, self.width])?);
        let mut h = tape.conv2d(x, vars[0])?;
        h = tape.relu(h);
        for block in 0..self.blocks {
            let k1 = vars[1 + 2 * block];
            let k2 = vars[2 + 2 * block];
            let mut inner = tape.conv2d(h, k1)?;
            inner = tape.relu(inner);
            let inner = tape.conv2d(inner, k2)?;
            h = tape.add(h, inner)?;
            h = tape.relu(h);
        }
        let pooled = tape.global_avg_pool(h)?;
        let head_w = vars[vars.len() - 2];
        let head_b = vars[vars.len() - 1];
        let logits = tape.matmul(pooled, head_w)?;
        let logits = tape.add_bias(logits, head_b)?;
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
            examples: n,
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
        let n = labels.len();
        if features.len() != n * self.input_pixels() {
            return Err(ModelError::Tensor(vf_tensor::TensorError::ShapeMismatch {
                expected: n * self.input_pixels(),
                actual: features.len(),
                context: "ConvNet::eval",
            }));
        }
        let x = features.reshape([n, self.channels, self.height, self.width])?;
        let mut h = ops::relu(&conv::conv2d(&x, &params[0])?);
        for block in 0..self.blocks {
            let inner = ops::relu(&conv::conv2d(&h, &params[1 + 2 * block])?);
            let inner = conv::conv2d(&inner, &params[2 + 2 * block])?;
            h = ops::relu(&h.add(&inner)?);
        }
        let pooled = conv::global_avg_pool(&h)?;
        let logits = ops::add_bias(
            &ops::matmul(&pooled, &params[params.len() - 2])?,
            &params[params.len() - 1],
        )?;
        let (loss, _) = ops::softmax_cross_entropy(&logits, labels)?;
        let accuracy = ops::accuracy(&logits, labels)?;
        Ok(EvalReport { loss, accuracy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_data::synthetic::ImageTask;
    use vf_tensor::optim::{Optimizer, Sgd};

    fn net() -> ConvNet {
        ConvNet::new(1, 8, 8, 8, 1, 4)
    }

    #[test]
    fn param_layout_matches_formula() {
        let m = net();
        assert_eq!(m.num_param_tensors(), 5);
        let params = m.init_params(0);
        assert_eq!(params.len(), 5);
        assert_eq!(params[0].shape().dims(), &[8, 1, 3, 3]);
        assert_eq!(params[3].shape().dims(), &[8, 4]);
    }

    #[test]
    fn rejects_wrong_param_count() {
        let m = net();
        let mut st = m.init_stateful();
        let err = m
            .grad(&[], &mut st, &Tensor::zeros([2, 64]), &[0, 1])
            .unwrap_err();
        assert!(matches!(err, ModelError::ParamCount { .. }));
    }

    #[test]
    fn trains_on_synthetic_images() {
        let mut task = ImageTask::small(7);
        task.signal = 1.6; // well-separated prototypes keep this test fast
        let data = task.generate().unwrap();
        let m = net();
        let mut params = m.init_params(0);
        let mut st = m.init_stateful();
        let (x, y) = data.gather(&(0..64).collect::<Vec<_>>()).unwrap();
        let before = m.eval(&params, &st, &x, &y).unwrap();
        let mut opt = Sgd::with_momentum(0.15, 0.9);
        // 120 steps: momentum makes the loss oscillate early (a dip near step
        // 60 is normal for some seeds); by 120 the net has settled.
        for _ in 0..120 {
            let r = m.grad(&params, &mut st, &x, &y).unwrap();
            opt.step(&mut params, &r.grads).unwrap();
        }
        let after = m.eval(&params, &st, &x, &y).unwrap();
        assert!(after.loss < before.loss);
        assert!(after.accuracy > 0.8, "accuracy {}", after.accuracy);
    }

    #[test]
    fn eval_checks_feature_geometry() {
        let m = net();
        let params = m.init_params(0);
        let st = m.init_stateful();
        // 32 features per example instead of 64.
        let bad = Tensor::zeros([2, 32]);
        assert!(m.eval(&params, &st, &bad, &[0, 1]).is_err());
    }

    #[test]
    fn grad_matches_finite_difference_on_stem_kernel() {
        let m = net();
        let params = m.init_params(1);
        let mut st = m.init_stateful();
        let x = vf_tensor::init::normal(&mut vf_tensor::init::rng(2), [3, 64], 0.0, 1.0);
        let labels = vec![0usize, 1, 2];
        let r = m.grad(&params, &mut st, &x, &labels).unwrap();
        let eps = 1e-2;
        for coord in [0usize, 9, 20] {
            let mut plus = params.clone();
            plus[0].data_mut()[coord] += eps;
            let lp = m.grad(&plus, &mut st, &x, &labels).unwrap().loss;
            let mut minus = params.clone();
            minus[0].data_mut()[coord] -= eps;
            let lm = m.grad(&minus, &mut st, &x, &labels).unwrap().loss;
            let fd = (lp - lm) / (2.0 * eps);
            let an = r.grads[0].data()[coord];
            assert!(
                (fd - an).abs() < 2e-2,
                "coord {coord}: fd {fd} vs analytic {an}"
            );
        }
    }
}
