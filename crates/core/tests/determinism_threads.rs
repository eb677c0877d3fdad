//! End-to-end bit-for-bit determinism across thread counts.
//!
//! The paper's claim (§3.2): training with virtual nodes produces identical
//! results no matter how the virtual nodes map onto physical resources. This
//! test extends that to physical *parallelism inside one mapping*: a 50-step
//! training run must produce bit-identical parameters whether the kernel
//! pool chunks work 8 ways or runs sequentially.
//!
//! This file is an integration test so it owns its process: the first line
//! sets the logical thread count to 8 *before* any kernel runs, which fixes
//! the physical worker set at 7 real threads (equivalent to launching with
//! `VF_NUM_THREADS=8`). Later `set_num_threads(1)` calls only change
//! chunking — the workers stay alive and idle — which is exactly the
//! invariant under test.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::sync::Arc;
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_device::DeviceId;
use vf_models::Mlp;
use vf_tensor::pool;

/// Trains a fresh MLP for 50 steps and returns every parameter as raw bits.
fn train_50_steps() -> (Vec<Vec<u32>>, Vec<f32>) {
    let dataset = ClusterTask::easy(7).generate().expect("synthetic dataset");
    // Hidden width 96 makes the first matmul (64×16 · 16×96 per step, plus
    // backward NT/TN products) large enough to cross the GEMM parallel
    // threshold, so the pool really runs multi-chunk jobs at 8 threads.
    let arch = Arc::new(Mlp::new(16, vec![96], 4));
    let config = TrainerConfig::simple(8, 64, 0.2, 7);
    let devices: Vec<DeviceId> = (0..4).map(DeviceId).collect();
    let mut trainer =
        Trainer::new(arch, Arc::new(dataset), config, &devices).expect("trainer construction");
    let mut losses = Vec::with_capacity(50);
    for _ in 0..50 {
        losses.push(trainer.step().expect("training step").loss);
    }
    let params = trainer
        .params()
        .iter()
        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    (params, losses)
}

#[test]
fn fifty_step_training_is_bit_identical_at_1_and_8_threads() {
    pool::set_num_threads(8);
    let (params_8, losses_8) = train_50_steps();

    pool::set_num_threads(1);
    let (params_1, losses_1) = train_50_steps();

    pool::set_num_threads(2);
    let (params_2, losses_2) = train_50_steps();

    assert_eq!(
        losses_8, losses_1,
        "per-step losses diverged between 8 and 1 logical threads"
    );
    assert_eq!(
        params_8, params_1,
        "parameters diverged between 8 and 1 logical threads"
    );
    assert_eq!(losses_8, losses_2, "losses diverged at 2 logical threads");
    assert_eq!(params_8, params_2, "parameters diverged at 2 logical threads");
}
