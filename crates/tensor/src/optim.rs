//! Optimizers and learning-rate schedules.
//!
//! Optimizers here update a flat list of parameter tensors from an equally
//! ordered list of gradient tensors. In virtual node processing the gradient
//! list is the *synchronized* gradient buffer, applied exactly once per step
//! regardless of how many virtual nodes contributed — which is what keeps the
//! optimizer state identical across hardware configurations.

use crate::pool::{self, SendPtr};
use crate::tensor::Tensor;
use crate::TensorError;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Parameters smaller than this update inline; pool dispatch overhead beats
/// the win for tiny tensors. Length-only, so the decision is deterministic.
const PARALLEL_MIN_LEN: usize = 4096;

/// Runs `body` over disjoint chunks of `0..len`, in parallel for large
/// parameters. Chunk boundaries never change per-element arithmetic, so the
/// update is bit-identical under any thread count.
fn for_each_chunk(len: usize, body: impl Fn(Range<usize>) + Sync) {
    if len < PARALLEL_MIN_LEN {
        pool::run_serial(len, body);
    } else {
        pool::parallel_rows(len, body);
    }
}

/// A snapshot of an optimizer's mutable state, for checkpointing.
///
/// The tensors are positional (momentum/moment buffers in parameter order);
/// `steps` restores bias-correction counters.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OptimizerState {
    /// State tensors in the optimizer's internal order.
    pub tensors: Vec<Tensor>,
    /// Update steps applied so far.
    pub steps: u64,
}

/// A first-order optimizer over an ordered parameter list.
///
/// The parameter order must be stable across calls; optimizer state (momentum
/// buffers, Adam moments) is positional.
pub trait Optimizer {
    /// Applies one update step: `params[i] -= f(grads[i])`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `params` and `grads`
    /// disagree in length or element shapes.
    fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) -> Result<(), TensorError>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Number of update steps applied so far.
    fn steps(&self) -> u64;

    /// Exports the mutable state (momentum/moment buffers and counters).
    fn export_state(&self) -> OptimizerState;

    /// Restores state previously produced by [`export_state`](Self::export_state)
    /// on an optimizer of the same kind and parameter layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the tensor count does not
    /// match this optimizer's layout.
    fn import_state(&mut self, state: OptimizerState) -> Result<(), TensorError>;
}

fn check_lengths(params: &[Tensor], grads: &[Tensor]) -> Result<(), TensorError> {
    if params.len() != grads.len() {
        return Err(TensorError::ShapeMismatch {
            expected: params.len(),
            actual: grads.len(),
            context: "Optimizer::step",
        });
    }
    Ok(())
}

/// Stochastic gradient descent with optional momentum and weight decay.
///
/// # Examples
///
/// ```
/// use vf_tensor::{optim::{Optimizer, Sgd}, Tensor};
///
/// let mut opt = Sgd::new(0.5);
/// let mut params = vec![Tensor::ones([2])];
/// let grads = vec![Tensor::ones([2])];
/// opt.step(&mut params, &grads)?;
/// assert_eq!(params[0].data(), &[0.5, 0.5]);
/// # Ok::<(), vf_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
    steps: u64,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
            steps: 0,
        }
    }

    /// SGD with heavy-ball momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            momentum,
            ..Sgd::new(lr)
        }
    }

    /// Adds decoupled L2 weight decay.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) -> Result<(), TensorError> {
        check_lengths(params, grads)?;
        if self.momentum != 0.0 && self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().clone()))
                .collect();
        }
        let (lr, mom, wd) = (self.lr, self.momentum, self.weight_decay);
        for (i, (p, g)) in params.iter_mut().zip(grads.iter()).enumerate() {
            if p.shape() != g.shape() {
                return Err(TensorError::ShapeMismatch {
                    expected: p.len(),
                    actual: g.len(),
                    context: "Sgd::step",
                });
            }
            // Fused form of: eff = g (+ wd·p); v = mom·v + eff; p += -lr·eff.
            // Per-element arithmetic order matches the unfused tensor ops.
            let len = p.len();
            let gd = g.data();
            let p_ptr = SendPtr(p.data_mut().as_mut_ptr());
            let v_ptr = if mom != 0.0 {
                Some(SendPtr(self.velocity[i].data_mut().as_mut_ptr()))
            } else {
                None
            };
            for_each_chunk(len, |r| {
                pool::claim_region(p_ptr.get(), r.clone());
                if let Some(vp) = v_ptr {
                    pool::claim_region(vp.get(), r.clone());
                }
                // SAFETY: chunks cover disjoint index ranges of p and v.
                let pd =
                    unsafe { std::slice::from_raw_parts_mut(p_ptr.get().add(r.start), r.len()) };
                let gd = &gd[r.clone()];
                for (j, pj) in pd.iter_mut().enumerate() {
                    let mut e = gd[j];
                    if wd != 0.0 {
                        e += *pj * wd;
                    }
                    if let Some(vp) = v_ptr {
                        // SAFETY: same disjoint-range argument as above.
                        let vj = unsafe { &mut *vp.get().add(r.start + j) };
                        *vj = *vj * mom + e;
                        e = *vj;
                    }
                    *pj += e * -lr;
                }
            });
        }
        self.steps += 1;
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            tensors: self.velocity.clone(),
            steps: self.steps,
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), TensorError> {
        if !self.velocity.is_empty() && state.tensors.len() != self.velocity.len() {
            return Err(TensorError::ShapeMismatch {
                expected: self.velocity.len(),
                actual: state.tensors.len(),
                context: "Sgd::import_state",
            });
        }
        self.velocity = state.tensors;
        self.steps = state.steps;
        Ok(())
    }
}

/// Adam with optional decoupled weight decay (AdamW when `weight_decay > 0`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    steps: u64,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999) and `eps = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            m: Vec::new(),
            v: Vec::new(),
            steps: 0,
        }
    }

    /// Adds decoupled weight decay (AdamW).
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) -> Result<(), TensorError> {
        check_lengths(params, grads)?;
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().clone()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().clone()))
                .collect();
        }
        self.steps += 1;
        let t = self.steps as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for (i, (p, g)) in params.iter_mut().zip(grads.iter()).enumerate() {
            if p.shape() != g.shape() {
                return Err(TensorError::ShapeMismatch {
                    expected: p.len(),
                    actual: g.len(),
                    context: "Adam::step",
                });
            }
            // Fused moment + parameter update; per-element arithmetic order
            // matches the original two-pass loops exactly (each element's
            // moments are finalized before its parameter update reads them).
            let (lr, b1, b2, eps, wd) =
                (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
            let len = p.len();
            let gd = g.data();
            let p_ptr = SendPtr(p.data_mut().as_mut_ptr());
            let m_ptr = SendPtr(self.m[i].data_mut().as_mut_ptr());
            let v_ptr = SendPtr(self.v[i].data_mut().as_mut_ptr());
            for_each_chunk(len, |r| {
                pool::claim_region(p_ptr.get(), r.clone());
                pool::claim_region(m_ptr.get(), r.clone());
                pool::claim_region(v_ptr.get(), r.clone());
                // SAFETY: chunks cover disjoint index ranges of p, m, and v.
                let pd =
                    unsafe { std::slice::from_raw_parts_mut(p_ptr.get().add(r.start), r.len()) };
                // SAFETY: as for `pd`: this chunk's range of m is its alone.
                let md =
                    unsafe { std::slice::from_raw_parts_mut(m_ptr.get().add(r.start), r.len()) };
                // SAFETY: as for `pd`: this chunk's range of v is its alone.
                let vd =
                    unsafe { std::slice::from_raw_parts_mut(v_ptr.get().add(r.start), r.len()) };
                let gd = &gd[r.clone()];
                for j in 0..gd.len() {
                    md[j] = b1 * md[j] + (1.0 - b1) * gd[j];
                    vd[j] = b2 * vd[j] + (1.0 - b2) * gd[j] * gd[j];
                    let mhat = md[j] / bc1;
                    let vhat = vd[j] / bc2;
                    let mut update = lr * mhat / (vhat.sqrt() + eps);
                    if wd != 0.0 {
                        update += lr * wd * pd[j];
                    }
                    pd[j] -= update;
                }
            });
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn export_state(&self) -> OptimizerState {
        let mut tensors = self.m.clone();
        tensors.extend(self.v.iter().cloned());
        OptimizerState {
            tensors,
            steps: self.steps,
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), TensorError> {
        if !state.tensors.len().is_multiple_of(2)
            || (!self.m.is_empty() && state.tensors.len() != 2 * self.m.len())
        {
            return Err(TensorError::ShapeMismatch {
                expected: 2 * self.m.len(),
                actual: state.tensors.len(),
                context: "Adam::import_state",
            });
        }
        let half = state.tensors.len() / 2;
        let mut tensors = state.tensors;
        self.v = tensors.split_off(half);
        self.m = tensors;
        self.steps = state.steps;
        Ok(())
    }
}

/// LARS: layer-wise adaptive rate scaling (You et al. 2017), one of the
/// large-batch optimizers the paper's §2.1 cites as the price of scaling
/// batch sizes without virtual nodes.
///
/// Each parameter tensor's update is rescaled by the *trust ratio*
/// `‖w‖ / (‖g + λw‖ + ε)` before applying momentum SGD, which stabilizes
/// very large batch training at high learning rates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lars {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    trust_coefficient: f32,
    eps: f32,
    velocity: Vec<Tensor>,
    steps: u64,
}

impl Lars {
    /// LARS with the customary momentum 0.9 and trust coefficient 0.001.
    pub fn new(lr: f32) -> Self {
        Lars {
            lr,
            momentum: 0.9,
            weight_decay: 0.0,
            trust_coefficient: 0.001,
            eps: 1e-9,
            velocity: Vec::new(),
            steps: 0,
        }
    }

    /// Sets the L2 weight decay folded into the trust ratio.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Lars {
    fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) -> Result<(), TensorError> {
        check_lengths(params, grads)?;
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().clone()))
                .collect();
        }
        for (i, (p, g)) in params.iter_mut().zip(grads.iter()).enumerate() {
            if p.shape() != g.shape() {
                return Err(TensorError::ShapeMismatch {
                    expected: p.len(),
                    actual: g.len(),
                    context: "Lars::step",
                });
            }
            // eff = g (+ wd·p), recomputed per element rather than stored;
            // v = mom·v + s·eff; p += −1·v — the per-element arithmetic of
            // the unfused tensor ops, in place.
            let wd = self.weight_decay;
            let eff = |p: f32, g: f32| if wd != 0.0 { g + p * wd } else { g };
            let w_norm = p.l2_norm();
            let g_norm = p
                .data()
                .iter()
                .zip(g.data())
                .map(|(&p, &g)| eff(p, g) * eff(p, g))
                .sum::<f32>()
                .sqrt();
            let trust = if w_norm > 0.0 && g_norm > 0.0 {
                self.trust_coefficient * w_norm / (g_norm + self.eps)
            } else {
                1.0
            };
            let (mom, s) = (self.momentum, trust * self.lr);
            let v = &mut self.velocity[i];
            if v.shape() != p.shape() {
                return Err(TensorError::ShapeMismatch {
                    expected: p.len(),
                    actual: v.len(),
                    context: "Lars::step velocity",
                });
            }
            for ((v, p), &g) in v.data_mut().iter_mut().zip(p.data_mut()).zip(g.data()) {
                *v = *v * mom + eff(*p, g) * s;
                *p += *v * -1.0;
            }
        }
        self.steps += 1;
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            tensors: self.velocity.clone(),
            steps: self.steps,
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), TensorError> {
        if !self.velocity.is_empty() && state.tensors.len() != self.velocity.len() {
            return Err(TensorError::ShapeMismatch {
                expected: self.velocity.len(),
                actual: state.tensors.len(),
                context: "Lars::import_state",
            });
        }
        self.velocity = state.tensors;
        self.steps = state.steps;
        Ok(())
    }
}

/// LAMB: layer-wise adaptation for Adam (You et al. 2019, "Training BERT in
/// 76 minutes") — the other large-batch optimizer family §2.1 cites.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lamb {
    inner: Adam,
    weight_decay: f32,
    eps: f32,
}

impl Lamb {
    /// LAMB with standard Adam betas.
    pub fn new(lr: f32) -> Self {
        Lamb {
            inner: Adam::new(lr),
            weight_decay: 0.0,
            eps: 1e-9,
        }
    }

    /// Sets the decoupled weight decay included in the LAMB update.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Lamb {
    fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) -> Result<(), TensorError> {
        check_lengths(params, grads)?;
        // Run Adam on a scratch copy to obtain its raw per-tensor update,
        // then rescale each tensor's update by the trust ratio.
        let mut scratch = params.to_vec();
        self.inner.step(&mut scratch, grads)?;
        let decay = self.weight_decay * self.inner.learning_rate();
        for (p, mut update) in params.iter_mut().zip(scratch) {
            // The lr-scaled Adam step direction p − s (+ decay·p), written
            // over the stepped copy s.
            for (u, &p) in update.data_mut().iter_mut().zip(p.data()) {
                *u = p - *u;
                if self.weight_decay != 0.0 {
                    *u += p * decay;
                }
            }
            let w_norm = p.l2_norm();
            let u_norm = update.l2_norm();
            let trust = if w_norm > 0.0 && u_norm > 0.0 {
                (w_norm / (u_norm + self.eps)).min(10.0)
            } else {
                1.0
            };
            let c = -(trust.min(1.0));
            for (p, &u) in p.data_mut().iter_mut().zip(update.data()) {
                *p += u * c;
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }

    fn export_state(&self) -> OptimizerState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), TensorError> {
        self.inner.import_state(state)
    }
}

/// A learning-rate schedule evaluated per step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant {
        /// The rate.
        lr: f32,
    },
    /// Linear warmup to `peak_lr` over `warmup_steps`, then constant.
    Warmup {
        /// Rate after warmup.
        peak_lr: f32,
        /// Number of warmup steps.
        warmup_steps: u64,
    },
    /// Step decay: multiply by `factor` at each boundary step.
    StepDecay {
        /// Initial rate.
        base_lr: f32,
        /// Steps at which the rate is multiplied by `factor`.
        boundaries: Vec<u64>,
        /// Multiplicative decay factor per boundary.
        factor: f32,
    },
    /// Cosine decay from `base_lr` to `min_lr` over `total_steps`.
    Cosine {
        /// Initial rate.
        base_lr: f32,
        /// Final rate.
        min_lr: f32,
        /// Horizon of the decay.
        total_steps: u64,
    },
}

impl LrSchedule {
    /// The learning rate at step `step` (0-based).
    pub fn at(&self, step: u64) -> f32 {
        match self {
            LrSchedule::Constant { lr } => *lr,
            LrSchedule::Warmup {
                peak_lr,
                warmup_steps,
            } => {
                if *warmup_steps == 0 || step >= *warmup_steps {
                    *peak_lr
                } else {
                    peak_lr * (step + 1) as f32 / *warmup_steps as f32
                }
            }
            LrSchedule::StepDecay {
                base_lr,
                boundaries,
                factor,
            } => {
                let crossed = boundaries.iter().filter(|&&b| step >= b).count() as i32;
                base_lr * factor.powi(crossed)
            }
            LrSchedule::Cosine {
                base_lr,
                min_lr,
                total_steps,
            } => {
                if *total_steps == 0 || step >= *total_steps {
                    *min_lr
                } else {
                    let progress = step as f32 / *total_steps as f32;
                    min_lr
                        + 0.5 * (base_lr - min_lr) * (1.0 + (std::f32::consts::PI * progress).cos())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![Tensor::from_vec(vec![1.0, -1.0], [2]).unwrap()];
        let g = vec![Tensor::from_vec(vec![1.0, -1.0], [2]).unwrap()];
        opt.step(&mut p, &g).unwrap();
        assert_eq!(p[0].data(), &[0.9, -0.9]);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn sgd_momentum_accelerates_constant_gradient() {
        let mut plain = Sgd::new(0.1);
        let mut mom = Sgd::with_momentum(0.1, 0.9);
        let g = vec![Tensor::ones([1])];
        let mut p1 = vec![Tensor::zeros([1])];
        let mut p2 = vec![Tensor::zeros([1])];
        for _ in 0..5 {
            plain.step(&mut p1, &g).unwrap();
            mom.step(&mut p2, &g).unwrap();
        }
        assert!(
            p2[0].data()[0] < p1[0].data()[0],
            "momentum should move further"
        );
    }

    #[test]
    fn weight_decay_shrinks_params_with_zero_gradient() {
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        let mut p = vec![Tensor::ones([1])];
        let g = vec![Tensor::zeros([1])];
        opt.step(&mut p, &g).unwrap();
        assert!((p[0].data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn sgd_rejects_mismatched_lists() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![Tensor::ones([1])];
        assert!(opt.step(&mut p, &[]).is_err());
        let g = vec![Tensor::ones([2])];
        assert!(opt.step(&mut p, &g).is_err());
    }

    #[test]
    fn adam_first_step_moves_by_lr() {
        // With bias correction the very first Adam update has magnitude ≈ lr.
        let mut opt = Adam::new(0.01);
        let mut p = vec![Tensor::zeros([1])];
        let g = vec![Tensor::from_vec(vec![3.7], [1]).unwrap()];
        opt.step(&mut p, &g).unwrap();
        assert!(
            (p[0].data()[0] + 0.01).abs() < 1e-4,
            "got {}",
            p[0].data()[0]
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize (x - 3)^2 with gradient 2(x-3).
        let mut opt = Adam::new(0.1);
        let mut p = vec![Tensor::zeros([1])];
        for _ in 0..500 {
            let x = p[0].data()[0];
            let g = vec![Tensor::from_vec(vec![2.0 * (x - 3.0)], [1]).unwrap()];
            opt.step(&mut p, &g).unwrap();
        }
        assert!((p[0].data()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adamw_decay_is_decoupled() {
        // With zero gradient, AdamW still shrinks the parameter.
        let mut opt = Adam::new(0.1).with_weight_decay(0.1);
        let mut p = vec![Tensor::ones([1])];
        let g = vec![Tensor::zeros([1])];
        opt.step(&mut p, &g).unwrap();
        assert!((p[0].data()[0] - 0.99).abs() < 1e-6);
    }

    #[test]
    fn lars_converges_on_quadratic() {
        // Minimize ||x - c||² with a huge nominal LR; the trust ratio keeps
        // the steps proportionate where plain SGD would diverge.
        let target = Tensor::from_vec(vec![3.0, -2.0], [2]).unwrap();
        let run = |mut opt: Box<dyn Optimizer>| {
            let mut p = vec![Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap()];
            for _ in 0..300 {
                let g = vec![p[0].sub(&target).unwrap().scale(2.0)];
                opt.step(&mut p, &g).unwrap();
                if !p[0].all_finite() {
                    return f32::INFINITY;
                }
            }
            p[0].sub(&target).unwrap().l2_norm()
        };
        let sgd_err = run(Box::new(Sgd::new(5.0)));
        let lars_err = run(Box::new(Lars::new(5.0)));
        assert!(
            sgd_err.is_infinite() || sgd_err > 1.0,
            "SGD at lr=5 must blow up"
        );
        assert!(lars_err < 0.5, "LARS must stay stable: err {lars_err}");
    }

    #[test]
    fn lars_trust_ratio_shrinks_large_gradient_steps() {
        let mut opt = Lars::new(1.0);
        let mut p = vec![Tensor::from_vec(vec![1.0, 0.0], [2]).unwrap()];
        let g = vec![Tensor::from_vec(vec![1e6, 0.0], [2]).unwrap()];
        opt.step(&mut p, &g).unwrap();
        // trust ≈ 0.001 * 1 / 1e6, so the step is ~1e-3 despite lr=1, g=1e6.
        assert!((p[0].data()[0] - (1.0 - 1e-3)).abs() < 1e-4, "{:?}", p[0]);
    }

    #[test]
    fn lamb_converges_where_adam_at_same_lr_is_unstable() {
        let target = Tensor::from_vec(vec![0.5, -0.5, 2.0], [3]).unwrap();
        let run = |mut opt: Box<dyn Optimizer>| {
            let mut p = vec![Tensor::from_vec(vec![5.0, 5.0, 5.0], [3]).unwrap()];
            let mut last = f32::INFINITY;
            for _ in 0..200 {
                let g = vec![p[0].sub(&target).unwrap().scale(2.0)];
                opt.step(&mut p, &g).unwrap();
                last = p[0].sub(&target).unwrap().l2_norm();
            }
            last
        };
        let lamb_err = run(Box::new(Lamb::new(0.5)));
        assert!(lamb_err < 0.2, "LAMB should converge: err {lamb_err}");
    }

    #[test]
    fn lars_and_lamb_state_round_trip() {
        let g = vec![Tensor::ones([2])];
        let mut lars = Lars::new(0.1);
        let mut p = vec![Tensor::ones([2])];
        lars.step(&mut p, &g).unwrap();
        let mut lars2 = Lars::new(0.1);
        lars2.import_state(lars.export_state()).unwrap();
        let mut pa = p.clone();
        let mut pb = p.clone();
        lars.step(&mut pa, &g).unwrap();
        lars2.step(&mut pb, &g).unwrap();
        assert_eq!(pa, pb);

        let mut lamb = Lamb::new(0.1);
        let mut q = vec![Tensor::ones([2])];
        lamb.step(&mut q, &g).unwrap();
        let mut lamb2 = Lamb::new(0.1);
        lamb2.import_state(lamb.export_state()).unwrap();
        let mut qa = q.clone();
        let mut qb = q;
        lamb.step(&mut qa, &g).unwrap();
        lamb2.step(&mut qb, &g).unwrap();
        assert_eq!(qa, qb);
    }

    #[test]
    fn sgd_state_round_trips() {
        let mut a = Sgd::with_momentum(0.1, 0.9);
        let mut p = vec![Tensor::zeros([3])];
        let g = vec![Tensor::ones([3])];
        for _ in 0..3 {
            a.step(&mut p, &g).unwrap();
        }
        let state = a.export_state();
        let mut b = Sgd::with_momentum(0.1, 0.9);
        b.import_state(state).unwrap();
        let mut pa = p.clone();
        let mut pb = p.clone();
        a.step(&mut pa, &g).unwrap();
        b.step(&mut pb, &g).unwrap();
        assert_eq!(pa, pb, "restored optimizer must continue identically");
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn adam_state_round_trips() {
        let mut a = Adam::new(0.01);
        let mut p = vec![Tensor::zeros([2]), Tensor::zeros([4])];
        let g = vec![Tensor::ones([2]), Tensor::full([4], 0.5)];
        for _ in 0..5 {
            a.step(&mut p, &g).unwrap();
        }
        let mut b = Adam::new(0.01);
        b.import_state(a.export_state()).unwrap();
        let mut pa = p.clone();
        let mut pb = p;
        a.step(&mut pa, &g).unwrap();
        b.step(&mut pb, &g).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn import_rejects_mismatched_layouts() {
        let mut a = Sgd::with_momentum(0.1, 0.9);
        let mut p = vec![Tensor::zeros([3])];
        a.step(&mut p, &[Tensor::ones([3])]).unwrap();
        let bad = OptimizerState {
            tensors: vec![Tensor::zeros([3]); 2],
            steps: 1,
        };
        assert!(a.import_state(bad).is_err());
        let mut adam = Adam::new(0.1);
        let mut p2 = vec![Tensor::zeros([2])];
        adam.step(&mut p2, &[Tensor::ones([2])]).unwrap();
        let odd = OptimizerState {
            tensors: vec![Tensor::zeros([2]); 3],
            steps: 1,
        };
        assert!(adam.import_state(odd).is_err());
    }

    #[test]
    fn warmup_schedule_ramps_linearly() {
        let s = LrSchedule::Warmup {
            peak_lr: 1.0,
            warmup_steps: 4,
        };
        assert_eq!(s.at(0), 0.25);
        assert_eq!(s.at(1), 0.5);
        assert_eq!(s.at(3), 1.0);
        assert_eq!(s.at(100), 1.0);
    }

    #[test]
    fn step_decay_multiplies_at_boundaries() {
        let s = LrSchedule::StepDecay {
            base_lr: 1.0,
            boundaries: vec![10, 20],
            factor: 0.1,
        };
        assert_eq!(s.at(0), 1.0);
        assert!((s.at(10) - 0.1).abs() < 1e-7);
        assert!((s.at(25) - 0.01).abs() < 1e-7);
    }

    #[test]
    fn cosine_schedule_endpoints() {
        let s = LrSchedule::Cosine {
            base_lr: 1.0,
            min_lr: 0.0,
            total_steps: 100,
        };
        assert!((s.at(0) - 1.0).abs() < 1e-6);
        assert!(s.at(50) < 0.6 && s.at(50) > 0.4);
        assert_eq!(s.at(100), 0.0);
        assert_eq!(s.at(1000), 0.0);
    }

    #[test]
    fn schedules_ignore_degenerate_horizons() {
        assert_eq!(
            LrSchedule::Warmup {
                peak_lr: 0.5,
                warmup_steps: 0
            }
            .at(0),
            0.5
        );
        assert_eq!(
            LrSchedule::Cosine {
                base_lr: 1.0,
                min_lr: 0.2,
                total_steps: 0
            }
            .at(0),
            0.2
        );
    }
}
