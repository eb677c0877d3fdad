//! # vf-data
//!
//! Datasets, batch plans and virtual-node sharding for the VirtualFlow
//! reproduction.
//!
//! The paper trains on ImageNet, GLUE, CIFAR-10 and WMT; this crate replaces
//! them with seeded synthetic tasks ([`synthetic`]) whose convergence-relevant
//! knobs (class separation, label noise, size) are explicit, and provides the
//! deterministic batch planning ([`batching`]) that underpins VirtualFlow's
//! reproducibility guarantee: the logical example order is a pure function of
//! `(seed, step)`, independent of the physical device layout.
//!
//! ## Example
//!
//! ```
//! use vf_data::{batching::{shard_indices, BatchPlan}, synthetic::ClusterTask};
//!
//! let dataset = ClusterTask::easy(42).generate()?;
//! let plan = BatchPlan::new(dataset.len(), 64, 42)?;
//! let batch = plan.batch(0, 0);
//! // Split the global batch into 8 virtual node shards.
//! let shards = shard_indices(&batch.indices, 8)?;
//! let (features, labels) = dataset.gather(&shards[0])?;
//! assert_eq!(features.shape().dims(), &[8, 16]);
//! assert_eq!(labels.len(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod batching;
mod dataset;
mod error;
pub mod partitioned;
pub mod synthetic;

pub use batching::{DistributionMode, GlobalBatch};
pub use dataset::Dataset;
pub use error::DataError;
