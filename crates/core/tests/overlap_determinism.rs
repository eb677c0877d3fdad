//! Bit-exactness of the overlapped execution path.
//!
//! The tentpole guarantee of bucketed gradient reduction: bucketing is a
//! *schedule* change, never a *value* change. The host executor reduces
//! every gradient over the same virtual-node tree whatever the simulated
//! bucket size, so a chaos run's parameter trajectory must be
//! byte-identical across bucket sizes and fault streams. Thread-count
//! invariance of the trainer itself is `determinism_threads.rs`'s subject.
//!
//! Like `determinism_threads.rs`, this file is its own process: the first
//! `set_num_threads` call pins the physical worker set before any kernel
//! runs; later calls only change chunking.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::sync::Arc;
use vf_core::chaos::{ChaosConfig, ChaosSupervisor};
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::{DeviceId, FailureModel, FaultPlan, SpotModel};
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_tensor::pool;

fn devices(range: std::ops::Range<u32>) -> Vec<DeviceId> {
    range.map(DeviceId).collect()
}

fn parts(seed: u64) -> (Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig) {
    let dataset = Arc::new(ClusterTask::easy(seed).generate().expect("generates"));
    // Batch norm keeps per-device kernel state in play, so the pipelined
    // executor's stateful write-back is exercised too.
    let arch: Arc<dyn Architecture> = Arc::new(Mlp::new(16, vec![24], 4).with_batch_norm());
    let config = TrainerConfig::simple(8, 64, 0.1, seed);
    (arch, dataset, config)
}

/// Fault-free chaos trajectory for the supervisor comparison below.
fn fault_free_params(seed: u64, steps: usize) -> Vec<Vec<u32>> {
    let (arch, dataset, config) = parts(seed);
    let mut t = Trainer::new(arch, dataset, config, &devices(0..4)).expect("trainer");
    t.run_steps(steps).expect("runs");
    t.params()
        .iter()
        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Runs the chaos supervisor with the given bucket setting and returns the
/// final parameters as raw bits.
fn chaos_params(bucket_bytes: u64) -> Vec<Vec<u32>> {
    const CHAOS_STEPS: u64 = 80;
    let (arch, dataset, config) = parts(53);
    let plan = FaultPlan::new(53)
        .with_crashes(FailureModel::new(260.0, 53).expect("valid mtbf"))
        .with_preemptions(SpotModel::new(420.0, 40.0).expect("valid spot model"));
    let mut cfg = ChaosConfig::new(plan, CHAOS_STEPS);
    cfg.comm = Some(vf_comm::chaos::CommFaultModel::new(53, 0.08, 0.02, 0.04));
    cfg.cooldown_s = 70.0;
    cfg.bootstrap_s = 15.0;
    cfg.bucket_bytes = bucket_bytes;
    let out = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..12), cfg)
        .expect("supervisor")
        .run()
        .expect("survives the plan");
    out.trainer
        .params()
        .iter()
        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn chaos_under_faults_is_bit_identical_across_bucket_sizes() {
    pool::set_num_threads(4);
    let want = fault_free_params(53, 80);
    // One bucket (`0` and `u64::MAX` both spell it) and 128 B buckets must
    // all land on the fault-free trajectory: per-bucket fault streams cost
    // simulated time, never values.
    for bucket_bytes in [0, 128, u64::MAX] {
        assert_eq!(chaos_params(bucket_bytes), want, "bucket_bytes={bucket_bytes} diverged");
    }
}
