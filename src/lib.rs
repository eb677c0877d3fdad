//! # VirtualFlow
//!
//! A from-scratch Rust reproduction of *VirtualFlow: Decoupling Deep
//! Learning Model Execution from Underlying Hardware* (Or, Zhang, Freedman —
//! MLSys 2022).
//!
//! VirtualFlow inserts a layer of indirection — **virtual nodes** — between
//! a model and the devices that run it. Each training batch is partitioned
//! over a fixed set of virtual nodes; virtual nodes map many-to-one onto
//! physical devices and run in sequential waves, with gradients accumulated
//! locally and synchronized once per step. Fixing the virtual node count
//! fixes the convergence trajectory, so the same hyperparameters reproduce
//! the same model on 1 GPU or 16, and running jobs can be *resized* freely.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `vf-tensor` | tensors, autograd, optimizers, reductions |
//! | [`data`] | `vf-data` | synthetic datasets, batch plans, sharding |
//! | [`device`] | `vf-device` | simulated GPUs, memory tracking, cost model |
//! | [`comm`] | `vf-comm` | all-reduce cost model, topologies, elastic membership, fault draws |
//! | [`models`] | `vf-models` | model profiles + trainable stand-ins |
//! | [`core`] | `vf-core` | virtual nodes, the trainer, elasticity, §7 extensions |
//! | [`sched`] | `vf-sched` | elastic WFS scheduler, cluster simulator, traces |
//! | [`obs`] | `vf-obs` | deterministic tracing + metrics, Chrome trace export |
//! | [`store`] | `vf-store` | durable checkpoints: simulated storage, checksums, fault injection |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use virtualflow::prelude::*;
//!
//! // A synthetic stand-in task and a small model.
//! let dataset = Arc::new(ClusterTask::easy(42).generate()?);
//! let arch = Arc::new(Mlp::linear(16, 4));
//!
//! // 8 virtual nodes, batch 64: the hyperparameters name no hardware.
//! let config = TrainerConfig::simple(8, 64, 0.2, 42);
//!
//! // Train the same job on one device and on four.
//! let one: Vec<DeviceId> = vec![DeviceId(0)];
//! let four: Vec<DeviceId> = (0..4).map(DeviceId).collect();
//! let mut a = Trainer::new(arch.clone(), dataset.clone(), config.clone(), &one)?;
//! let mut b = Trainer::new(arch, dataset, config, &four)?;
//! for _ in 0..4 {
//!     a.step()?;
//!     b.step()?;
//! }
//! assert_eq!(a.params(), b.params()); // bit-for-bit identical
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use vf_comm as comm;
pub use vf_core as core;
pub use vf_data as data;
pub use vf_device as device;
pub use vf_models as models;
pub use vf_obs as obs;
pub use vf_sched as sched;
pub use vf_store as store;
pub use vf_tensor as tensor;

/// Commonly used items, re-exported for `use virtualflow::prelude::*`.
pub mod prelude {
    pub use vf_comm::{BootstrapPolicy, ElasticGroup, LinkProfile, WorkerId};
    pub use vf_core::perf_model::{step_time, throughput, ExecutionShape};
    pub use vf_core::vnode::VnMapping;
    pub use vf_core::{
        CoreError, Migration, MigrationPlan, OptimizerConfig, StepReport, Trainer, TrainerConfig,
        VirtualNodeId,
    };
    pub use vf_data::synthetic::{ClusterTask, TeacherTask};
    pub use vf_data::{batching::BatchPlan, Dataset, DistributionMode};
    pub use vf_device::{
        homogeneous_cluster, Device, DeviceId, DeviceProfile, DeviceType, MemoryTracker, SimClock,
    };
    pub use vf_models::profile::{bert_base, bert_large, resnet50, resnet56, transformer_wmt};
    pub use vf_models::{Architecture, EvalReport, Mlp, ModelProfile};
    pub use vf_sched::{
        run_trace, ElasticWfs, JobSpec, Scheduler, SimConfig, StaticPriority, TraceMetrics,
    };
    pub use vf_tensor::optim::{LrSchedule, Optimizer};
    pub use vf_tensor::reduce::ReductionOrder;
    pub use vf_tensor::{Shape, Tensor};
}
