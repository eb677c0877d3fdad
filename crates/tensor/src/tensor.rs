//! Dense, row-major `f32` tensors.
//!
//! `Tensor` is the value type flowing through the whole workspace: model
//! parameters, activations, gradients, and the gradient buffers maintained by
//! virtual node processing are all `Tensor`s. The representation is a plain
//! `Vec<f32>` plus a [`Shape`]; every operation is deterministic so that the
//! reproducibility experiments of the paper can assert *bitwise* equality of
//! training trajectories.

use crate::shape::Shape;
use crate::TensorError;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use vf_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
/// let b = Tensor::ones([2, 2]);
/// let c = a.add(&b).unwrap();
/// assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// the number of elements implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.num_elements() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
                context: "Tensor::from_vec",
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a tensor from a buffer whose length is known to match
    /// `shape` — the kernel-internal counterpart of [`Tensor::from_vec`].
    ///
    /// Internal kernels size their buffers from the shape itself, so the
    /// length check cannot fail; routing them here instead of through
    /// `from_vec(..).expect(..)` keeps impossible panics, and their
    /// waivers, out of the code. Debug builds still verify the contract.
    pub(crate) fn from_parts(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        debug_assert_eq!(
            data.len(),
            shape.num_elements(),
            "Tensor::from_parts: buffer length must match shape"
        );
        Tensor { shape, data }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (only possible with a 0 dim).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Extracts the single value of a scalar (or single-element) tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotScalar`] if the tensor has more than one
    /// element.
    pub fn item(&self) -> Result<f32, TensorError> {
        if self.data.len() == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::NotScalar { len: self.data.len() })
        }
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if shape.num_elements() != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: self.data.len(),
                actual: shape.num_elements(),
                context: "Tensor::reshape",
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Element at the row-major linear `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn at(&self, index: usize) -> f32 {
        self.data[index]
    }

    /// Returns `rows` consecutive rows starting at `row_start` as a new
    /// tensor (rank-2 view of the leading axis).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if the slice exceeds the leading
    /// dimension, or [`TensorError::RankMismatch`] for scalars.
    pub fn slice_rows(&self, row_start: usize, rows: usize) -> Result<Tensor, TensorError> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                context: "Tensor::slice_rows",
            });
        }
        let lead = self.shape.dim(0);
        if row_start + rows > lead {
            return Err(TensorError::OutOfBounds {
                index: row_start + rows,
                len: lead,
                context: "Tensor::slice_rows",
            });
        }
        let row_width = self.data.len().checked_div(lead).unwrap_or(0);
        let start = row_start * row_width;
        let end = start + rows * row_width;
        let shape = self.shape.with_dim(0, rows);
        Tensor::from_vec(self.data[start..end].to_vec(), shape)
    }

    /// Elementwise binary operation against a tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.len(),
                actual: other.len(),
                context: "Tensor::zip_map",
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise unary map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// In-place elementwise accumulate: `self += other`.
    ///
    /// This is the hot path of virtual node processing — gradients of each
    /// virtual node are accumulated into the shared gradient buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.len(),
                actual: other.len(),
                context: "Tensor::add_assign",
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaling: `self *= s`.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sum of all elements (sequential left-to-right, deterministic).
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns 0.0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element, or `f32::NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// The L2 norm of the tensor viewed as a flat vector.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Whether every element is finite (no NaN/inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Approximate equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Size of the tensor payload in bytes (excluding metadata).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

// Borrowed-or-owned tensors, as `autograd::Tape::leaf`/`constant` accept them
// (std has no blanket `From<&T> for Cow<T>`).
impl From<Tensor> for Cow<'_, Tensor> {
    fn from(t: Tensor) -> Self {
        Cow::Owned(t)
    }
}

impl<'a> From<&'a Tensor> for Cow<'a, Tensor> {
    fn from(t: &'a Tensor) -> Self {
        Cow::Borrowed(t)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= PREVIEW {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "{:?}…({} elems)", &self.data[..PREVIEW], self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_rejects_wrong_len() {
        let err = Tensor::from_vec(vec![1.0; 5], [2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn add_and_mul_elementwise() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 8.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut buf = Tensor::zeros([3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        buf.add_assign(&g).unwrap();
        buf.add_assign(&g).unwrap();
        assert_eq!(buf.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn slice_rows_extracts_contiguous_rows() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), [4, 3]).unwrap();
        let s = t.slice_rows(1, 2).unwrap();
        assert_eq!(s.shape().dims(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn slice_rows_out_of_bounds_errors() {
        let t = Tensor::zeros([4, 3]);
        assert!(t.slice_rows(3, 2).is_err());
    }

    #[test]
    fn item_requires_single_element() {
        assert_eq!(Tensor::scalar(2.5).item().unwrap(), 2.5);
        assert!(Tensor::zeros([2]).item().is_err());
    }

    #[test]
    fn reductions_are_deterministic() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert!((t.l2_norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0005], [2]).unwrap();
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn size_bytes_counts_payload() {
        assert_eq!(Tensor::zeros([2, 3]).size_bytes(), 24);
    }
}
