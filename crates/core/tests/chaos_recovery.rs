//! End-to-end chaos: a long run under continuous mixed fault injection
//! must land on parameters bit-identical to the fault-free run.
//!
//! This is the paper's fault-tolerance claim (§7) pushed to its limit: the
//! chaos supervisor drives a trainer through hundreds of steps while a
//! seeded fault plan injects crashes, spot preemptions, and communication
//! faults against it. Elastic recovery reassigns virtual nodes, drains
//! preempted devices inside their notice windows, retries flaky recoveries
//! with exponential backoff — and through all of it the parameter
//! trajectory must not move by a single bit, because virtual node
//! processing fixes *what* is computed independently of *where*.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::sync::Arc;
use vf_core::chaos::{ChaosConfig, ChaosSupervisor};
use vf_core::{Checkpoint, Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::{DeviceId, FailureModel, FaultPlan, RackModel, SpotModel};
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_tensor::Tensor;

fn devices(range: std::ops::Range<u32>) -> Vec<DeviceId> {
    range.map(DeviceId).collect()
}

fn parts(seed: u64) -> (Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig) {
    let dataset = Arc::new(ClusterTask::easy(seed).generate().expect("generates"));
    let arch: Arc<dyn Architecture> = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
    let config = TrainerConfig::simple(8, 64, 0.1, seed);
    (arch, dataset, config)
}

fn fault_free_params(seed: u64, steps: usize) -> Vec<Tensor> {
    let (arch, dataset, config) = parts(seed);
    let mut t = Trainer::new(arch, dataset, config, &devices(0..4)).expect("trainer");
    t.run_steps(steps).expect("runs");
    t.params().to_vec()
}

#[test]
fn long_run_under_mixed_faults_is_bit_identical_to_fault_free() {
    const STEPS: u64 = 220;
    let (arch, dataset, config) = parts(42);
    let plan = FaultPlan::new(42)
        .with_crashes(FailureModel::new(180.0, 42).expect("valid mtbf"))
        .with_preemptions(SpotModel::new(300.0, 45.0).expect("valid spot model"));
    let mut cfg = ChaosConfig::new(plan, STEPS);
    cfg.comm = Some(vf_comm::chaos::CommFaultModel::new(42, 0.03, 0.01, 0.02));
    cfg.cooldown_s = 90.0;
    cfg.bootstrap_s = 20.0;
    let sup = ChaosSupervisor::new(
        arch,
        dataset,
        config,
        &devices(0..4),
        &devices(8..16),
        cfg,
    )
    .expect("supervisor");
    let out = sup.run().expect("survives the plan");
    let report = &out.report;

    // The plan really exercised every fault class, ≥10 faults in total.
    assert!(
        report.faults_injected() >= 10,
        "want ≥10 injected faults, got {report:?}"
    );
    assert!(report.crashes > 0, "no crashes injected: {report:?}");
    assert!(report.preemptions > 0, "no preemptions injected: {report:?}");
    assert!(
        report.comm_timeouts + report.comm_aborts > 0,
        "no communication faults injected: {report:?}"
    );
    assert!(report.recoveries > 0);
    assert_eq!(report.drained, report.preemptions, "all preemptions drained");

    // The fleet never emptied, so the checkpoint last resort stayed unused.
    assert_eq!(
        report.checkpoint_fallbacks, 0,
        "plan never empties the fleet, so no fallback may fire: {report:?}"
    );
    assert!(report.min_fleet >= 1);

    // The invariant: bit-identical parameters, fault plan or no fault plan.
    assert_eq!(report.steps, STEPS);
    assert_eq!(
        out.trainer.params(),
        &fault_free_params(42, STEPS as usize)[..],
        "chaos must not move the trajectory by a single bit"
    );
}

#[test]
fn retries_and_backoff_are_observable_and_harmless() {
    const STEPS: u64 = 200;
    let (arch, dataset, config) = parts(7);
    let plan = FaultPlan::new(7).with_crashes(FailureModel::new(150.0, 7).expect("valid"));
    let mut cfg = ChaosConfig::new(plan, STEPS);
    cfg.recovery_failure_prob = 0.6; // most recovery attempts fail first
    cfg.cooldown_s = 80.0;
    cfg.bootstrap_s = 15.0;
    let sup = ChaosSupervisor::new(
        arch,
        dataset,
        config,
        &devices(0..4),
        &devices(8..16),
        cfg,
    )
    .expect("supervisor");
    let out = sup.run().expect("survives");
    assert!(out.report.recovery_retries > 0, "{:?}", out.report);
    assert!(out.report.backoff_total_s > 0.0);
    assert_eq!(out.report.checkpoint_fallbacks, 0, "{:?}", out.report);
    assert_eq!(out.trainer.params(), &fault_free_params(7, STEPS as usize)[..]);
}

#[test]
fn fleet_emptying_rack_failure_falls_back_to_checkpoint_and_still_converges() {
    const STEPS: u64 = 120;
    let (arch, dataset, config) = parts(13);
    // Rack 0 holds the whole initial fleet; every rack failure wipes it.
    let plan = FaultPlan::new(13).with_racks(RackModel::new(4, 120.0).expect("valid"));
    let mut cfg = ChaosConfig::new(plan, STEPS);
    cfg.checkpoint_every = 20;
    let sup = ChaosSupervisor::new(
        arch,
        dataset,
        config,
        &devices(0..4),
        &devices(100..104), // spares on a far rack, outside the blast radius
        cfg,
    )
    .expect("supervisor");
    let out = sup.run().expect("the last resort rescues the run");
    assert!(out.report.rack_device_failures >= 4, "{:?}", out.report);
    assert!(
        out.report.checkpoint_fallbacks >= 1,
        "an emptied fleet must engage the fallback: {:?}",
        out.report
    );
    assert!(out.report.replayed_steps > 0);
    assert_eq!(out.report.steps, STEPS);
    // Replay is deterministic: even checkpoint-restore lands bit-exactly.
    assert_eq!(out.trainer.params(), &fault_free_params(13, STEPS as usize)[..]);
}

#[test]
fn chaos_reports_are_reproducible_run_to_run() {
    let run = || {
        let (arch, dataset, config) = parts(99);
        let plan = FaultPlan::new(99)
            .with_crashes(FailureModel::new(200.0, 99).expect("valid"))
            .with_preemptions(SpotModel::new(350.0, 30.0).expect("valid"));
        let mut cfg = ChaosConfig::new(plan, 100);
        cfg.comm = Some(vf_comm::chaos::CommFaultModel::new(99, 0.05, 0.01, 0.03));
        ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..12), cfg)
            .expect("supervisor")
            .run()
            .expect("survives")
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report, "same seed, same chaos, same report");
    assert_eq!(a.trainer.params(), b.trainer.params());
}

// ---------------------------------------------------------------------------
// Checkpoint round-trips across device counts (the recovery substrate the
// supervisor's last resort depends on).
// ---------------------------------------------------------------------------

/// Saving on 4 devices and restoring on 2 or 6 must continue bit-equal:
/// the checkpoint stores virtual-node state, not device state, so the
/// device count at restore time is free — including the round-robin dealing
/// of stateful (batch-norm) kernel state onto a *larger* fleet.
#[test]
fn checkpoint_round_trips_across_device_counts() {
    let (arch, dataset, config) = parts(21);
    let mut source = Trainer::new(
        arch.clone(),
        dataset.clone(),
        config.clone(),
        &devices(0..4),
    )
    .expect("trainer");
    source.run_steps(7).expect("runs");
    let ckpt: Checkpoint = source.to_checkpoint();

    // Reference: the original trainer continues on its 4 devices.
    source.run_steps(5).expect("runs");
    let want = source.params().to_vec();

    for n in [2u32, 6u32] {
        let mut restored = Trainer::from_checkpoint(
            arch.clone(),
            dataset.clone(),
            ckpt.clone(),
            &devices(0..n),
        )
        .unwrap_or_else(|e| panic!("restore on {n} devices: {e}"));
        assert_eq!(restored.steps_done(), 7);
        assert_eq!(restored.mapping().num_devices(), n as usize);
        // Every device got a stateful replica (round-robin dealing covers
        // fleets larger than the checkpoint's donor list).
        for d in devices(0..n) {
            assert!(
                restored.replica_stateful(d).is_some(),
                "device {d:?} missing stateful state after restore on {n}"
            );
        }
        restored.run_steps(5).expect("continues");
        assert_eq!(
            restored.params(),
            &want[..],
            "continuation on {n} devices diverged from the 4-device run"
        );
    }
}

/// The same round-trip through serialized JSON (what a real restart sees).
#[test]
fn checkpoint_round_trips_across_device_counts_through_bytes() {
    let (arch, dataset, config) = parts(22);
    let mut source = Trainer::new(
        arch.clone(),
        dataset.clone(),
        config.clone(),
        &devices(0..4),
    )
    .expect("trainer");
    source.run_steps(6).expect("runs");
    let json = source.to_checkpoint().to_json().expect("serializes");
    source.run_steps(4).expect("runs");
    let want = source.params().to_vec();

    let ckpt = Checkpoint::from_json(&json).expect("deserializes");
    let mut restored =
        Trainer::from_checkpoint(arch, dataset, ckpt, &devices(0..2)).expect("restores");
    restored.run_steps(4).expect("continues");
    assert_eq!(restored.params(), &want[..]);
}
