//! Error types for tensor operations.

use std::error::Error;
use std::fmt;

/// Errors produced by tensor construction and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands (or a buffer and a shape) disagree on element count.
    ShapeMismatch {
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        actual: usize,
        /// The operation that failed.
        context: &'static str,
    },
    /// An operation required a different tensor rank.
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
        /// The operation that failed.
        context: &'static str,
    },
    /// An index exceeded a dimension bound.
    OutOfBounds {
        /// The offending index.
        index: usize,
        /// The bound that was exceeded.
        len: usize,
        /// The operation that failed.
        context: &'static str,
    },
    /// A scalar was required but the tensor has multiple elements.
    NotScalar {
        /// Actual element count.
        len: usize,
    },
    /// An operation over a collection received no elements.
    Empty {
        /// The operation that failed.
        context: &'static str,
    },
    /// Matrix dimensions are incompatible for multiplication.
    MatmulDims {
        /// Left operand `(rows, cols)`.
        left: (usize, usize),
        /// Right operand `(rows, cols)`.
        right: (usize, usize),
    },
    /// A batch- or layer-norm ε that is not finite and positive: a
    /// zero-variance column (every column, at micro-batch 1) or row would
    /// normalize to 0/0 = NaN.
    InvalidEpsilon {
        /// The rejected ε as `f32::to_bits` (bits keep the error `Eq`).
        bits: u32,
        /// The operation that failed.
        context: &'static str,
    },
    /// An arrival order that is not a permutation of `0..len`, or a fold
    /// partial over virtual nodes the fold already holds: an index out of
    /// range, repeated or missing would sum some parts twice or not at all.
    NotAPermutation {
        /// Number of parts the order must permute (VNs of the fold).
        len: usize,
        /// The operation that failed.
        context: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch {
                expected,
                actual,
                context,
            } => write!(
                f,
                "shape mismatch in {context}: expected {expected} elements, got {actual}"
            ),
            TensorError::RankMismatch {
                expected,
                actual,
                context,
            } => write!(
                f,
                "rank mismatch in {context}: expected rank {expected}, got {actual}"
            ),
            TensorError::OutOfBounds { index, len, context } => {
                write!(f, "index {index} out of bounds (len {len}) in {context}")
            }
            TensorError::NotScalar { len } => {
                write!(f, "expected a scalar tensor but found {len} elements")
            }
            TensorError::Empty { context } => write!(f, "empty input in {context}"),
            TensorError::MatmulDims { left, right } => write!(
                f,
                "cannot multiply {}x{} matrix by {}x{} matrix",
                left.0, left.1, right.0, right.1
            ),
            TensorError::InvalidEpsilon { bits, context } => write!(
                f,
                "normalization epsilon {} in {context} must be finite and positive",
                f32::from_bits(*bits)
            ),
            TensorError::NotAPermutation { len, context } => {
                write!(
                    f,
                    "the parts summed in {context} are not a permutation of 0..{len}"
                )
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = TensorError::MatmulDims {
            left: (2, 3),
            right: (4, 5),
        };
        assert_eq!(e.to_string(), "cannot multiply 2x3 matrix by 4x5 matrix");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
