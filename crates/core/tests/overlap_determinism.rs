//! Bit-exactness of the overlapped execution path.
//!
//! The tentpole guarantee of bucketed gradient reduction: bucketing is a
//! *schedule* change, never a *value* change. Each parameter's gradient is
//! reduced over the same virtual-node tree with the same pairing whether it
//! travels in one bucket or many, so the parameter trajectory must be
//! byte-identical across every bucket size — and across kernel-pool thread
//! counts, because the executor merges task outputs in canonical
//! task order, not completion order.
//!
//! Like `determinism_threads.rs`, this file is its own process: the first
//! `set_num_threads(8)` call pins the physical worker set before any kernel
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

const STEPS: usize = 40;

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

/// Trains for [`STEPS`] steps with the given bucket threshold, returning
/// every parameter as raw bits plus per-step losses.
fn train(bucket_bytes: Option<u64>) -> (Vec<Vec<u32>>, Vec<f32>) {
    let (arch, dataset, config) = parts(31);
    let mut trainer =
        Trainer::new(arch, dataset, config, &devices(0..4)).expect("trainer construction");
    trainer.set_bucket_bytes(bucket_bytes);
    let mut losses = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
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
fn trajectory_is_bit_identical_across_bucket_sizes_and_threads() {
    pool::set_num_threads(8);
    // Reference: the unbucketed path (single synchronization).
    let (want_params, want_losses) = train(None);

    // Every bucket size must reproduce it exactly: one param per bucket
    // (64 B threshold), a mid grouping, and one bucket for everything.
    for threads in [1usize, 4] {
        pool::set_num_threads(threads);
        for bucket_bytes in [Some(64), Some(256), Some(u64::MAX)] {
            let (params, losses) = train(bucket_bytes);
            assert_eq!(
                losses, want_losses,
                "losses diverged: bucket_bytes={bucket_bytes:?} threads={threads}"
            );
            assert_eq!(
                params, want_params,
                "parameters diverged: bucket_bytes={bucket_bytes:?} threads={threads}"
            );
        }
    }
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
fn chaos_params(bucket_bytes: Option<u64>) -> Vec<Vec<u32>> {
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
fn chaos_under_faults_is_bit_identical_bucketed_or_not() {
    pool::set_num_threads(4);
    let want = fault_free_params(53, 80);
    // Legacy single-sync path and two bucketed overlapped runs must all
    // land on the fault-free trajectory: per-bucket fault streams cost
    // simulated time, never values.
    assert_eq!(chaos_params(None), want, "legacy chaos path diverged");
    assert_eq!(
        chaos_params(Some(128)),
        want,
        "overlapped chaos (128 B buckets) diverged"
    );
    assert_eq!(
        chaos_params(Some(u64::MAX)),
        want,
        "overlapped chaos (single bucket) diverged"
    );
}
