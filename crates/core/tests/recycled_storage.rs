//! Recycled tensor storage never leaks into a trajectory.
//!
//! A dropped tensor's buffer goes back to its thread's shelf and is handed
//! to the next tensor of that length with its old values in it. Every
//! kernel must overwrite what it takes, so a trainer that runs on threads
//! whose shelves hold another model's stale activations and gradients must
//! land on exactly the parameters of one that starts from empty shelves.
//!
//! This file owns its process: the first line fixes the pool at four
//! logical threads (three workers) before any kernel runs, so the fresh
//! run below is the first use of every thread's shelves, and the later
//! runs find them dirty.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::sync::Arc;
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::{ClusterTask, ImageTask};
use vf_device::DeviceId;
use vf_models::{ConvNet, Mlp};
use vf_tensor::pool;

fn devices(n: u32) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

/// 12 steps of a 128-64-4 MLP, 8 VNs of 32 examples on 4 devices: every
/// parameter's bits. Its hidden activations (32 × 64) have the length of
/// the convolution's activations below (8 × 4 × 8 × 8).
fn dense_params() -> Vec<Vec<u32>> {
    let dataset = ClusterTask {
        num_examples: 1_024,
        dim: 128,
        num_classes: 4,
        separation: 1.0,
        spread: 1.0,
        label_noise: 0.1,
        seed: 3,
    }
    .generate()
    .expect("dataset");
    let arch = Arc::new(Mlp::new(128, vec![64], 4));
    let config = TrainerConfig::simple(8, 256, 0.1, 3);
    let mut trainer = Trainer::new(arch, Arc::new(dataset), config, &devices(4)).expect("trainer");
    trainer.run_steps(12).expect("dense steps");
    trainer
        .params()
        .iter()
        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// 4 steps of a small ConvNet, 4 VNs of 8 images time-sliced on 1 device:
/// what fills this thread's shelves with stale convolution buffers.
fn conv_steps() {
    let dataset = ImageTask {
        num_examples: 256,
        channels: 2,
        height: 8,
        width: 8,
        num_classes: 4,
        signal: 0.8,
        label_noise: 0.1,
        seed: 3,
    }
    .generate()
    .expect("dataset");
    let arch = Arc::new(ConvNet::new(2, 8, 8, 4, 1, 4));
    let config = TrainerConfig::simple(4, 32, 0.05, 3);
    let mut trainer = Trainer::new(arch, Arc::new(dataset), config, &devices(1)).expect("trainer");
    trainer.run_steps(4).expect("conv steps");
}

#[test]
fn dense_steps_after_conv_steps_match_a_fresh_dense_run_at_1_and_4_threads() {
    pool::set_num_threads(4);
    let fresh = dense_params();
    // Garbage read as a gradient blows every run up to the same NaNs.
    assert!(
        fresh
            .iter()
            .flatten()
            .all(|&bits| f32::from_bits(bits).is_finite()),
        "a fresh dense run's parameters are not all finite"
    );
    for threads in [1, 4] {
        pool::set_num_threads(threads);
        conv_steps();
        assert_eq!(
            dense_params(),
            fresh,
            "dense parameters after conv steps at {threads} logical threads differ from a \
             fresh run's"
        );
    }
}
