//! Error types for model construction and execution.

use std::error::Error;
use std::fmt;
use vf_tensor::TensorError;

/// Errors produced by trainable architectures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The parameter list does not match the architecture.
    ParamCount {
        /// Expected tensor count.
        expected: usize,
        /// Actual tensor count.
        actual: usize,
    },
    /// The stateful-kernel list does not match the architecture.
    StatefulCount {
        /// Expected tensor count.
        expected: usize,
        /// Actual tensor count.
        actual: usize,
    },
    /// A batch-norm momentum outside `[0, 1]` (or NaN).
    BnMomentum {
        /// The rejected momentum as `f32::to_bits` (bits keep the error
        /// `Eq`).
        bits: u32,
    },
    /// A tensor operation failed (shape mismatch, bad labels, …).
    Tensor(TensorError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ParamCount { expected, actual } => write!(
                f,
                "architecture expects {expected} parameter tensors, got {actual}"
            ),
            ModelError::StatefulCount { expected, actual } => write!(
                f,
                "architecture expects {expected} stateful tensors, got {actual}"
            ),
            ModelError::BnMomentum { bits } => write!(
                f,
                "batch-norm momentum {} is outside [0, 1]",
                f32::from_bits(*bits)
            ),
            ModelError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<TensorError> for ModelError {
    fn from(e: TensorError) -> Self {
        ModelError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_errors_convert() {
        let te = TensorError::NotScalar { len: 3 };
        let me: ModelError = te.clone().into();
        assert_eq!(me, ModelError::Tensor(te));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
