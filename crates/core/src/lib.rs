//! # vf-core
//!
//! Virtual node processing — the primary contribution of *VirtualFlow:
//! Decoupling Deep Learning Model Execution from Underlying Hardware*
//! (MLSys 2022), reimplemented over this workspace's own substrates.
//!
//! A batch is divided among **virtual nodes** instead of physical devices;
//! one or more virtual nodes map to each device and run sequentially
//! (*waves*), with gradients accumulated locally and synchronized once per
//! step. Fixing the virtual node count decouples convergence from the
//! hardware: the same hyperparameters produce the same trajectory on 1 or
//! 16 GPUs, and *resizing* a running job is just remapping virtual nodes.
//!
//! * [`vnode`] — virtual nodes, mappings, redistribution.
//! * [`Trainer`] — the wave executor (numeric training).
//! * [`perf_model`] / [`memory_model`] — simulated step time and memory.
//! * [`hetero`] — proportional VN packing over mixed device types (§7).
//! * [`fault`] — failure recovery by VN reassignment (§7).
//! * [`chaos`] — a supervisor that survives continuous fault injection.
//!
//! ## Example
//!
//! ```
//! use vf_core::{Trainer, TrainerConfig};
//! use vf_data::synthetic::ClusterTask;
//! use vf_device::DeviceId;
//! use vf_models::Mlp;
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(ClusterTask::easy(0).generate()?);
//! let arch = Arc::new(Mlp::linear(16, 4));
//! // 8 virtual nodes, batch 64 — identical results on any device count.
//! let config = TrainerConfig::simple(8, 64, 0.2, 0);
//! let mut on_one = Trainer::new(arch.clone(), dataset.clone(), config.clone(),
//!                               &[DeviceId(0)])?;
//! let mut on_four = Trainer::new(arch, dataset, config,
//!                                &(0..4).map(DeviceId).collect::<Vec<_>>())?;
//! on_one.step()?;
//! on_four.step()?;
//! assert_eq!(on_one.params(), on_four.params());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod diagnostics;
mod config;
mod engine;
mod error;
pub mod fault;
pub mod hetero;
pub mod memory_model;
mod overlap;
pub mod perf_model;
pub mod vnode;

pub use chaos::{ChaosConfig, ChaosOutcome, ChaosReport, ChaosSupervisor};
pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA_VERSION};
pub use config::{OptimizerConfig, TrainerConfig};
pub use engine::{StepReport, Trainer};
pub use error::CoreError;
pub use vnode::{Migration, MigrationPlan, VirtualNodeId, VnMapping};
