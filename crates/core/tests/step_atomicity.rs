//! `Trainer::step` commits on success only.
//!
//! A step that fails part-way — here, a gradient computation that errors on
//! its k-th call — must leave the trainer exactly where it was: parameters,
//! per-device stateful kernels (batch-norm moving statistics), the visit
//! ledger and the step counter. Retrying it then lands on the trajectory of
//! a run that never failed.
//!
//! This file owns its process: every test pins the pool to one logical
//! thread before the first kernel runs, so no workers are spawned, device
//! tasks run in device order, and "the k-th `grad` call" names one virtual
//! node on one device.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vf_core::{CoreError, Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_data::{Dataset, DistributionMode};
use vf_device::DeviceId;
use vf_models::trainable::{Architecture, EvalReport, GradReport, StatefulState};
use vf_models::{Mlp, ModelError};
use vf_tensor::{pool, Tensor};

const VNS: u32 = 8;

/// A batch-norm MLP whose `fail_on`-th `grad` call (1-based, counted over
/// the stub's lifetime) returns an error instead of a gradient.
struct FlakyArch {
    inner: Mlp,
    calls: AtomicUsize,
    fail_on: usize,
}

impl FlakyArch {
    fn new(fail_on: usize) -> Self {
        FlakyArch {
            inner: Mlp::new(16, vec![8], 4).with_batch_norm(),
            calls: AtomicUsize::new(0),
            fail_on,
        }
    }
}

impl Architecture for FlakyArch {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init_params(&self, seed: u64) -> Vec<Tensor> {
        self.inner.init_params(seed)
    }

    fn init_stateful(&self) -> StatefulState {
        self.inner.init_stateful()
    }

    fn grad(
        &self,
        params: &[Tensor],
        stateful: &mut StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<GradReport, ModelError> {
        // The real gradient runs first, so a failing call has already
        // advanced its device's moving statistics when it errors.
        let report = self.inner.grad(params, stateful, features, labels)?;
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.fail_on {
            return Err(ModelError::ParamCount { expected: 0, actual: 0 });
        }
        Ok(report)
    }

    fn eval(
        &self,
        params: &[Tensor],
        stateful: &StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<EvalReport, ModelError> {
        self.inner.eval(params, stateful, features, labels)
    }
}

fn devices(n: u32) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

fn dataset(seed: u64) -> Arc<Dataset> {
    Arc::new(ClusterTask::easy(seed).generate().expect("generates"))
}

fn bits(tensors: &[Tensor]) -> Vec<Vec<u32>> {
    tensors
        .iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Everything a step may change, as raw bits.
#[derive(PartialEq)]
struct State {
    params: Vec<Vec<u32>>,
    /// Stateful kernels per device, in device order.
    stateful: Vec<Vec<Vec<u32>>>,
    steps_done: u64,
}

fn state_of(t: &Trainer) -> State {
    State {
        params: bits(t.params()),
        stateful: t
            .mapping()
            .devices()
            .into_iter()
            .map(|d| bits(t.replica_stateful(d).expect("mapped device").tensors()))
            .collect(),
        steps_done: t.steps_done(),
    }
}

#[test]
fn failed_step_leaves_no_trace_and_retry_matches_an_uninterrupted_run() {
    pool::set_num_threads(1);
    for num_devices in [1u32, 4] {
        let config = TrainerConfig::simple(VNS, 64, 0.1, 41);
        let never = Arc::new(FlakyArch::new(usize::MAX));
        let mut clean =
            Trainer::new(never, dataset(41), config.clone(), &devices(num_devices)).expect("trainer");
        clean.run_steps(3).expect("uninterrupted run");

        // Step 0 makes calls 1..=8; call 15 is the seventh VN of step 1 —
        // on four devices, the first VN of the last device, after three
        // devices have finished their waves.
        let flaky = Arc::new(FlakyArch::new(VNS as usize + 7));
        let mut t =
            Trainer::new(flaky, dataset(41), config, &devices(num_devices)).expect("trainer");
        t.step().expect("step 0");
        let before = state_of(&t);
        let err = t.step().expect_err("step 1 fails on its seventh gradient");
        assert!(matches!(err, CoreError::Model(_)), "{err}");
        // `assert!`, not `assert_eq!`: a mismatch would dump every parameter.
        assert!(
            state_of(&t) == before,
            "a failed step changed state ({num_devices} devices)"
        );

        t.run_steps(2).expect("retry of step 1, then step 2");
        assert!(
            state_of(&t) == state_of(&clean),
            "error-then-retry left the uninterrupted trajectory ({num_devices} devices)"
        );
    }
}

#[test]
fn failed_then_retried_step_keeps_partitioned_visits_exactly_once() {
    pool::set_num_threads(1);
    let mut config = TrainerConfig::simple(4, 64, 0.1, 43);
    config.distribution = DistributionMode::Partitioned;
    // Four calls a step: call 14 is the second VN of step 3.
    let flaky = Arc::new(FlakyArch::new(14));
    let mut t = Trainer::new(flaky, dataset(43), config, &devices(2)).expect("trainer");
    let mut failures = 0;
    while (t.steps_done() as usize) < t.steps_per_epoch() {
        if t.step().is_err() {
            failures += 1;
        }
    }
    assert_eq!(failures, 1, "exactly one step failed and was retried");
    assert!(t.at_epoch_boundary());
    assert_eq!(t.visitation_violations(), Vec::<usize>::new());
}
