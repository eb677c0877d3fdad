//! Integration tests for the extensions beyond the paper's core evaluation:
//! residual architectures, large-batch optimizers, checkpoints, topology,
//! and failure injection — all under the same hardware-independence
//! guarantees as the core engine.

use std::sync::Arc;
use virtualflow::core::fault::fail_device;
use virtualflow::core::perf_model::{step_time, StepOptions, SyncSchedule};
use virtualflow::core::Checkpoint;
use virtualflow::device::FailureModel;
use virtualflow::models::ResidualMlp;
use virtualflow::prelude::*;

fn dataset(seed: u64) -> Arc<Dataset> {
    Arc::new(
        ClusterTask {
            num_examples: 512,
            dim: 12,
            num_classes: 3,
            separation: 2.0,
            spread: 1.0,
            label_noise: 0.05,
            seed,
        }
        .generate()
        .expect("generation succeeds"),
    )
}

fn devices(n: u32) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

#[test]
fn residual_mlp_with_dropout_is_mapping_independent() {
    // The deeper architecture — layer norm, GELU, residuals, *dropout* —
    // still trains bit-identically on any device count, because dropout
    // masks are seeded from the data, not the device.
    let data = dataset(40);
    let arch = Arc::new(ResidualMlp::new(12, 16, 2, 3).with_dropout(0.1));
    let mk = |n: u32| {
        Trainer::new(
            arch.clone(),
            data.clone(),
            TrainerConfig::simple(8, 64, 0.05, 40),
            &devices(n),
        )
        .expect("valid config")
    };
    let mut one = mk(1);
    let mut four = mk(4);
    let mut eight = mk(8);
    for _ in 0..4 {
        one.step().unwrap();
        four.step().unwrap();
        eight.step().unwrap();
    }
    assert_eq!(one.params(), four.params());
    assert_eq!(one.params(), eight.params());
}

#[test]
fn residual_mlp_survives_resize_and_failure() {
    let data = dataset(41);
    let arch = Arc::new(ResidualMlp::new(12, 16, 1, 3));
    let config = TrainerConfig::simple(8, 64, 0.05, 41);
    let mut steady = Trainer::new(arch.clone(), data.clone(), config.clone(), &devices(4)).unwrap();
    let mut bumpy = Trainer::new(arch, data, config, &devices(4)).unwrap();
    bumpy.run_steps(2).unwrap();
    steady.run_steps(2).unwrap();
    bumpy.resize(&devices(2)).unwrap();
    fail_device(&mut bumpy, DeviceId(0), Some(DeviceId(9))).unwrap();
    bumpy.run_steps(3).unwrap();
    steady.run_steps(3).unwrap();
    assert_eq!(steady.params(), bumpy.params());
}

#[test]
fn lars_and_lamb_train_through_the_virtual_node_engine() {
    let data = dataset(42);
    for optimizer in [
        OptimizerConfig::Lars { weight_decay: 1e-4 },
        OptimizerConfig::Lamb { weight_decay: 1e-4 },
    ] {
        let arch = Arc::new(Mlp::linear(12, 3));
        let mut config = TrainerConfig::simple(8, 64, 1.0, 42);
        config.optimizer = optimizer.clone();
        let mut t = Trainer::new(arch, data.clone(), config, &devices(2)).unwrap();
        let first = t.step().unwrap().loss;
        for _ in 0..25 {
            t.step().unwrap();
        }
        let last = t.step().unwrap().loss;
        assert!(
            last < first,
            "{optimizer:?} must make progress: {first} → {last}"
        );
        assert!(t.params().iter().all(Tensor::all_finite));
    }
}

#[test]
fn lars_is_mapping_independent_too() {
    // Layerwise trust ratios are computed on the *synchronized* gradient,
    // so even adaptive large-batch optimizers preserve the guarantee.
    let data = dataset(43);
    let arch = Arc::new(Mlp::new(12, vec![8], 3));
    let mk = |n: u32| {
        let mut config = TrainerConfig::simple(8, 64, 0.5, 43);
        config.optimizer = OptimizerConfig::Lars { weight_decay: 0.0 };
        Trainer::new(arch.clone(), data.clone(), config, &devices(n)).unwrap()
    };
    let mut a = mk(1);
    let mut b = mk(8);
    for _ in 0..4 {
        a.step().unwrap();
        b.step().unwrap();
    }
    assert_eq!(a.params(), b.params());
}

#[test]
fn checkpoint_roundtrip_across_architectures_with_state() {
    // Adam moments + BN stateful kernels all survive JSON serialization.
    let data = dataset(44);
    let arch = Arc::new(Mlp::new(12, vec![8], 3).with_batch_norm());
    let mut config = TrainerConfig::simple(4, 64, 0.01, 44);
    config.optimizer = OptimizerConfig::adam();
    let mut a = Trainer::new(arch.clone(), data.clone(), config, &devices(2)).unwrap();
    a.run_steps(4).unwrap();
    let json = a.to_checkpoint().to_json().unwrap();
    let mut b = Trainer::from_checkpoint(
        arch,
        data,
        Checkpoint::from_json(&json).unwrap(),
        &devices(3),
    )
    .unwrap();
    a.run_steps(3).unwrap();
    b.run_steps(3).unwrap();
    assert_eq!(a.params(), b.params());
}

#[test]
fn failure_model_drives_fault_recovery_end_to_end() {
    let data = dataset(45);
    let arch = Arc::new(Mlp::linear(12, 3));
    let config = TrainerConfig::simple(8, 64, 0.2, 45);
    let cluster = devices(8);
    let mut reference = Trainer::new(arch.clone(), data.clone(), config.clone(), &devices(1)).unwrap();
    let mut job = Trainer::new(arch, data, config, &cluster).unwrap();
    // An MTBF low enough that several devices fail inside the horizon.
    let failures = FailureModel::new(200.0, 4)
        .expect("valid mtbf")
        .failures_before(&cluster, 500.0);
    assert!(!failures.is_empty(), "calibrate the MTBF so the test bites");
    for event in failures.iter().take(3) {
        if job.mapping().devices().contains(&event.device) && job.mapping().num_devices() > 1 {
            fail_device(&mut job, event.device, None).unwrap();
        }
        job.run_steps(1).unwrap();
        reference.run_steps(1).unwrap();
    }
    assert_eq!(job.params(), reference.params());
}

#[test]
fn topology_aware_step_time_is_consistent_with_sync_model() {
    let topo = virtualflow::comm::Topology::paper_testbed();
    let model = resnet50();
    let shape = virtualflow::core::perf_model::ExecutionShape::homogeneous(
        DeviceProfile::of(DeviceType::V100),
        16,
        2,
        256,
    );
    let on = |sync| StepOptions { sync, bucket_bytes: None };
    let flat = step_time(&model, &shape, on(SyncSchedule::Flat(topo)));
    let hier = step_time(&model, &shape, on(SyncSchedule::Hierarchical(topo)));
    assert_eq!(flat.compute_s, hier.compute_s);
    assert!(hier.sync_s < flat.sync_s);
    assert_eq!(
        flat.sync_s,
        topo.flat_allreduce_time_s(model.gradient_bytes(), 16)
    );
}

#[test]
fn convnet_is_mapping_independent() {
    // The convolutional stand-in obeys the same guarantee: reshape → conv →
    // residual add → pool all run per virtual node, so the device count is
    // invisible to the trajectory.
    use virtualflow::data::synthetic::ImageTask;
    use virtualflow::models::ConvNet;
    let mut task = ImageTask::small(50);
    task.num_examples = 256;
    let data = Arc::new(task.generate().unwrap());
    let arch = Arc::new(ConvNet::new(1, 8, 8, 4, 1, 4));
    let mk = |n: u32| {
        Trainer::new(
            arch.clone(),
            data.clone(),
            TrainerConfig::simple(8, 32, 0.1, 50),
            &devices(n),
        )
        .expect("valid config")
    };
    let mut one = mk(1);
    let mut eight = mk(8);
    for _ in 0..2 {
        let a = one.step().unwrap();
        let b = eight.step().unwrap();
        assert_eq!(a.loss, b.loss);
    }
    assert_eq!(one.params(), eight.params());
}

#[test]
fn partitioned_pipeline_with_residual_model_visits_exactly_once() {
    let data = dataset(46);
    let arch = Arc::new(ResidualMlp::new(12, 16, 1, 3));
    let mut config = TrainerConfig::simple(4, 64, 0.05, 46);
    config.distribution = DistributionMode::Partitioned;
    let mut t = Trainer::new(arch, data, config, &devices(2)).unwrap();
    for _ in 0..t.steps_per_epoch() {
        t.step().unwrap();
    }
    assert!(t.at_epoch_boundary());
    assert!(t.visitation_violations().is_empty());
}
