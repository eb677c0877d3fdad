//! Error types for dataset and pipeline operations.

use std::error::Error;
use std::fmt;

/// Errors produced by dataset construction and batch iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// Features and labels disagree on example count.
    LengthMismatch {
        /// Number of feature rows.
        features: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A batch size does not divide evenly into the requested shard count.
    IndivisibleBatch {
        /// The global batch size.
        batch_size: usize,
        /// The number of shards (virtual nodes).
        shards: usize,
    },
    /// A requested batch size is zero or exceeds the dataset.
    BadBatchSize {
        /// The offending batch size.
        batch_size: usize,
        /// The dataset size.
        dataset_len: usize,
    },
    /// An example index is out of range.
    OutOfBounds {
        /// The offending index.
        index: usize,
        /// The dataset size.
        len: usize,
    },
    /// The dataset is empty where a non-empty one is required.
    EmptyDataset,
    /// A partitioned pipeline was resized away from an epoch boundary, which
    /// would break the exactly-once visitation guarantee (paper §5.1).
    ResizeOffEpochBoundary {
        /// Steps remaining until the next epoch boundary.
        steps_into_epoch: usize,
    },
    /// A synthetic task cannot be generated as configured: it has no
    /// classes, or more feature values than fit in memory.
    BadTask {
        /// What is wrong with the configuration.
        reason: &'static str,
    },
    /// A tensor operation inside the pipeline failed.
    Tensor(vf_tensor::TensorError),
}

impl From<vf_tensor::TensorError> for DataError {
    fn from(e: vf_tensor::TensorError) -> Self {
        DataError::Tensor(e)
    }
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::LengthMismatch { features, labels } => write!(
                f,
                "feature rows ({features}) and labels ({labels}) disagree"
            ),
            DataError::IndivisibleBatch { batch_size, shards } => write!(
                f,
                "batch size {batch_size} is not divisible into {shards} equal virtual node shards"
            ),
            DataError::BadBatchSize {
                batch_size,
                dataset_len,
            } => write!(
                f,
                "batch size {batch_size} is invalid for dataset of {dataset_len} examples"
            ),
            DataError::OutOfBounds { index, len } => {
                write!(f, "example index {index} out of bounds (dataset len {len})")
            }
            DataError::EmptyDataset => write!(f, "dataset is empty"),
            DataError::ResizeOffEpochBoundary { steps_into_epoch } => write!(
                f,
                "partitioned pipeline resized {steps_into_epoch} steps into an epoch; exactly-once visitation requires epoch-boundary resizes"
            ),
            DataError::BadTask { reason } => write!(f, "synthetic task cannot be generated: {reason}"),
            DataError::Tensor(e) => write!(f, "tensor operation in pipeline failed: {e}"),
        }
    }
}

impl Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = DataError::IndivisibleBatch {
            batch_size: 10,
            shards: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
