//! Error types for virtual node processing.

use std::error::Error;
use std::fmt;
use vf_data::DataError;
use vf_device::OomError;
use vf_models::ModelError;
use vf_tensor::TensorError;

/// Errors produced by the virtual node engine.
#[derive(Debug)]
pub enum CoreError {
    /// A mapping or trainer was given no devices.
    NoDevices,
    /// A mapping was given zero virtual nodes.
    NoVirtualNodes,
    /// More devices than virtual nodes — some devices would never do work.
    TooManyDevices {
        /// The number of devices offered.
        devices: usize,
        /// The number of virtual nodes.
        virtual_nodes: usize,
    },
    /// The global batch size is not divisible by the number of virtual
    /// nodes (the paper uses equally sized virtual nodes).
    BatchNotDivisible {
        /// The global batch size.
        batch_size: usize,
        /// The total virtual node count.
        virtual_nodes: u32,
    },
    /// The per-virtual-node micro-batch does not fit in device memory.
    MicroBatchTooLarge {
        /// The micro-batch implied by the configuration.
        micro_batch: usize,
        /// The largest micro-batch the device can hold.
        max_micro_batch: usize,
        /// The device type name.
        device: String,
    },
    /// A resize was requested off an epoch boundary with a partitioned
    /// dataset (paper §5.1: exactly-once visitation would break).
    PartitionedResizeOffEpoch {
        /// Steps into the current epoch.
        steps_into_epoch: usize,
    },
    /// The model-parallel configuration is inconsistent.
    BadPartitioning {
        /// Description of the inconsistency.
        reason: String,
    },
    /// A failure was reported for a device the trainer is not running on.
    UnknownDevice {
        /// The device named in the failure report.
        device: vf_device::DeviceId,
    },
    /// The chaos supervisor lost every device and had no spares to restore
    /// onto — even the checkpoint-restart last resort is impossible.
    FleetExhausted {
        /// The training step at which the fleet emptied.
        step: u64,
    },
    /// An all-reduce exhausted its retry budget; the worker group must be
    /// treated as partitioned.
    CommPartitioned {
        /// Consecutive failed attempts.
        attempts: u32,
    },
    /// A chaos configuration value is out of range: non-finite, a negative
    /// duration, or a link without bandwidth.
    InvalidChaosConfig {
        /// The offending field, e.g. `"restore_s"` or `"link.bandwidth"`.
        field: &'static str,
        /// The value found.
        value: f64,
        /// What the field must be.
        requirement: &'static str,
    },
    /// `run_steps` was asked for zero steps: there is no last report to
    /// return.
    NoSteps,
    /// An internal invariant was violated — a bug in the engine itself,
    /// not in the caller's configuration.
    Internal {
        /// The invariant that failed to hold.
        invariant: &'static str,
    },
    /// A checkpoint contained a NaN or infinite value. JSON cannot
    /// represent these (serde writes `null`), so they are rejected loudly
    /// at the serialization boundary instead of poisoning a restore.
    NonFiniteCheckpoint {
        /// Which section held the poison: "params", "optimizer", or
        /// "stateful".
        what: &'static str,
        /// Index of the offending tensor (for "stateful", the device slot).
        index: usize,
    },
    /// A checkpoint's format version is not one this build understands.
    CheckpointSchema {
        /// The version found in the document (0 for pre-versioning files).
        found: u32,
        /// The version this build writes and accepts.
        supported: u32,
    },
    /// A checkpoint document could not be (de)serialized.
    CheckpointFormat {
        /// The underlying serialization failure.
        reason: String,
    },
    /// A tensor operation failed.
    Tensor(TensorError),
    /// A dataset/pipeline operation failed.
    Data(DataError),
    /// A model operation failed.
    Model(ModelError),
    /// A simulated device ran out of memory.
    Oom(OomError),
    /// A durable-storage operation failed.
    Store(vf_store::StoreError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoDevices => write!(f, "no devices provided"),
            CoreError::NoVirtualNodes => write!(f, "virtual node count must be positive"),
            CoreError::TooManyDevices {
                devices,
                virtual_nodes,
            } => write!(
                f,
                "{devices} devices exceed {virtual_nodes} virtual nodes; some devices would idle"
            ),
            CoreError::BatchNotDivisible {
                batch_size,
                virtual_nodes,
            } => write!(
                f,
                "global batch size {batch_size} is not divisible by {virtual_nodes} virtual nodes"
            ),
            CoreError::MicroBatchTooLarge {
                micro_batch,
                max_micro_batch,
                device,
            } => write!(
                f,
                "micro-batch {micro_batch} exceeds the {device} capacity of {max_micro_batch} examples"
            ),
            CoreError::PartitionedResizeOffEpoch { steps_into_epoch } => write!(
                f,
                "partitioned dataset resized {steps_into_epoch} steps into an epoch; resize at epoch boundaries to preserve exactly-once visitation"
            ),
            CoreError::BadPartitioning { reason } => {
                write!(f, "invalid model-parallel partitioning: {reason}")
            }
            CoreError::UnknownDevice { device } => write!(
                f,
                "cannot fail {device}: it is not in the trainer's device mapping"
            ),
            CoreError::FleetExhausted { step } => write!(
                f,
                "fleet exhausted at step {step}: no survivors and no spare devices to restore onto"
            ),
            CoreError::CommPartitioned { attempts } => write!(
                f,
                "all-reduce failed {attempts} consecutive attempts; worker group is partitioned"
            ),
            CoreError::InvalidChaosConfig { field, value, requirement } => {
                write!(f, "invalid chaos config: `{field}` = {value}, must be {requirement}")
            }
            CoreError::NoSteps => write!(f, "run_steps needs at least one step"),
            CoreError::Internal { invariant } => {
                write!(f, "internal invariant violated: {invariant}")
            }
            CoreError::NonFiniteCheckpoint { what, index } => write!(
                f,
                "checkpoint {what}[{index}] contains a non-finite value; refusing to serialize NaN/Inf as null"
            ),
            CoreError::CheckpointSchema { found, supported } => write!(
                f,
                "checkpoint schema version {found} is not supported (this build reads version {supported})"
            ),
            CoreError::CheckpointFormat { reason } => {
                write!(f, "checkpoint (de)serialization failed: {reason}")
            }
            CoreError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            CoreError::Data(e) => write!(f, "data pipeline failed: {e}"),
            CoreError::Model(e) => write!(f, "model execution failed: {e}"),
            CoreError::Oom(e) => write!(f, "{e}"),
            CoreError::Store(e) => write!(f, "durable storage failed: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Data(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Oom(e) => Some(e),
            CoreError::Store(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

#[doc(hidden)]
impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}

#[doc(hidden)]
impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[doc(hidden)]
impl From<OomError> for CoreError {
    fn from(e: OomError) -> Self {
        CoreError::Oom(e)
    }
}

#[doc(hidden)]
impl From<vf_store::StoreError> for CoreError {
    fn from(e: vf_store::StoreError) -> Self {
        CoreError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        let e = CoreError::BatchNotDivisible {
            batch_size: 100,
            virtual_nodes: 3,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn sources_are_preserved() {
        let e = CoreError::from(TensorError::NotScalar { len: 2 });
        assert!(e.source().is_some());
        assert!(CoreError::NoDevices.source().is_none());
    }
}
