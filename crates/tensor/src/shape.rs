//! Tensor shapes and index arithmetic.
//!
//! Shapes are small — rank ≤ 4 everywhere in this workspace — and one is
//! built or cloned for every tensor an op produces, so the dimensions live
//! inside the struct: a `Shape` of rank ≤ 4 (`INLINE_RANK`) owns no heap
//! memory, and a tensor is one allocation (its data). Higher ranks spill to
//! a `Vec<usize>`; nothing about the API depends on which representation
//! holds the dims. Strides are derived on demand. All indexing is row-major
//! (C order), matching the layout used by the kernels in [`crate::ops`].
//!
//! The serialized form is `{"dims":[…]}` whatever the representation, as it
//! was when the dims were a `Vec<usize>` field under `derive`: checkpoints
//! and store records written before and after the change read each other.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Highest rank whose dimensions are stored inside the [`Shape`] itself.
const INLINE_RANK: usize = 4;

/// Where a shape's dimensions live. `Heap` is used only above
/// [`INLINE_RANK`], so each list of dims has exactly one representation.
#[derive(Clone)]
enum Dims {
    /// The first `rank` entries of `dims` are live.
    Inline {
        rank: u8,
        dims: [usize; INLINE_RANK],
    },
    Heap(Vec<usize>),
}

impl Dims {
    /// `dims` stored inline, or `None` above [`INLINE_RANK`].
    ///
    /// Inlined, and an element loop rather than a slice copy, so that with a
    /// rank known at compile time (`Shape::from([m, n])`, the way kernels
    /// build shapes) this is a couple of stores and not a `memcpy` call.
    #[inline]
    fn inline(dims: &[usize]) -> Option<Dims> {
        if dims.len() > INLINE_RANK {
            return None;
        }
        let mut inline = [0; INLINE_RANK];
        for (slot, &dim) in inline.iter_mut().zip(dims) {
            *slot = dim;
        }
        Some(Dims::Inline {
            // At most INLINE_RANK, checked above.
            rank: dims.len() as u8,
            dims: inline,
        })
    }
}

/// The shape of a dense, row-major tensor.
///
/// A `Shape` is an ordered list of dimension sizes. The empty shape `[]`
/// denotes a scalar with exactly one element.
///
/// # Examples
///
/// ```
/// use vf_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3]);
/// assert_eq!(s.rank(), 2);
/// assert_eq!(s.num_elements(), 6);
/// assert_eq!(s.strides(), vec![3, 1]);
/// ```
#[derive(Clone)]
pub struct Shape {
    dims: Dims,
}

impl Shape {
    /// Creates a shape from dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape {
            dims: Dims::inline(&dims).unwrap_or(Dims::Heap(dims)),
        }
    }

    /// The scalar shape `[]`, holding exactly one element.
    pub fn scalar() -> Self {
        Shape::from([])
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims().len()
    }

    /// Dimension sizes as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        match &self.dims {
            // `min` states the invariant where the compiler can use it: no
            // bounds check, no panic path on the hottest accessor.
            Dims::Inline { rank, dims } => &dims[..usize::from(*rank).min(INLINE_RANK)],
            Dims::Heap(dims) => dims,
        }
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Total number of elements (product of all dimensions; 1 for scalars).
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.dims().iter().product()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Interprets the shape as `(rows, cols)`.
    ///
    /// Rank-1 shapes are treated as a single row; scalars as `(1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if the rank exceeds 2.
    pub fn as_rows_cols(&self) -> (usize, usize) {
        match self.dims() {
            [] => (1, 1),
            [n] => (1, *n),
            [r, c] => (*r, *c),
            // vf-lint: allow(panic-ratchet) — documented contract: callers must pass rank <= 2
            other => panic!("shape {:?} has rank {} > 2", other, other.len()),
        }
    }

    /// Returns a copy with dimension `axis` replaced by `size`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn with_dim(&self, axis: usize, size: usize) -> Shape {
        let mut shape = self.clone();
        let live = match &mut shape.dims {
            Dims::Inline { rank, dims } => &mut dims[..usize::from(*rank)],
            Dims::Heap(dims) => dims.as_mut_slice(),
        };
        live[axis] = size;
        shape
    }
}

// Equality and hashing read the live dims only: what the unused inline
// slots hold is not part of the value.
impl PartialEq for Shape {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

// Hand-written so the wire form stays the one `derive` gave the old
// `struct Shape { dims: Vec<usize> }`: an object with the single key `dims`.
impl Serialize for Shape {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(String::from("dims"), self.dims().to_value());
        serde::Value::Object(map)
    }
}

impl Deserialize for Shape {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let dims = v
            .as_object()
            .ok_or_else(|| serde::Error::new("expected object for struct Shape"))?
            .get("dims")
            .ok_or_else(|| serde::Error::new("missing field `dims` in Shape"))?;
        Vec::<usize>::from_value(dims).map(Shape::new)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    #[inline]
    fn from(dims: &[usize]) -> Self {
        Shape {
            dims: Dims::inline(dims).unwrap_or_else(|| Dims::Heap(dims.to_vec())),
        }
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    #[inline]
    fn from(dims: [usize; N]) -> Self {
        Shape::from(dims.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.as_rows_cols(), (1, 1));
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn rank1_is_a_row_vector() {
        let s = Shape::new(vec![5]);
        assert_eq!(s.as_rows_cols(), (1, 5));
    }

    #[test]
    fn with_dim_replaces_one_axis() {
        let s = Shape::new(vec![8, 3]);
        assert_eq!(s.with_dim(0, 2).dims(), &[2, 3]);
        assert_eq!(s.dims(), &[8, 3]);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn every_rank_serializes_as_the_dims_list_it_always_was() {
        // Byte for byte what `derive` produced for `struct Shape { dims:
        // Vec<usize> }`, inline or spilled, and it reads back equal.
        for dims in [
            vec![],
            vec![7],
            vec![2, 3],
            vec![2, 0, 4],
            vec![5, 1, 16, 16],
            vec![2, 3, 4, 5, 6],
        ] {
            let shape = Shape::new(dims.clone());
            let json = serde_json::to_string(&shape).unwrap();
            let list: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
            assert_eq!(json, format!("{{\"dims\":[{}]}}", list.join(",")));
            let back: Shape = serde_json::from_str(&json).unwrap();
            assert_eq!(back, shape);
            assert_eq!(back.dims(), dims.as_slice());
        }
        assert!(serde_json::from_str::<Shape>("{}").is_err());
        assert!(serde_json::from_str::<Shape>("[2,3]").is_err());
    }

    #[test]
    fn rank_above_the_inline_limit_spills_and_behaves_the_same() {
        let s = Shape::from([2, 3, 4, 5, 6]);
        assert_eq!(s.rank(), 5);
        assert_eq!(s.dims(), &[2, 3, 4, 5, 6]);
        assert_eq!(s.num_elements(), 720);
        assert_eq!(s.strides(), vec![360, 120, 30, 6, 1]);
        assert_eq!(s.with_dim(4, 1).dims(), &[2, 3, 4, 5, 1]);
        assert_eq!(s, Shape::new(vec![2, 3, 4, 5, 6]));
        assert_eq!(s.to_string(), "[2x3x4x5x6]");
    }

    #[test]
    fn shapes_are_equal_iff_their_live_dims_are() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |s: &Shape| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        // The same dims reached three ways compare and hash alike.
        let a = Shape::from([2, 3]);
        let b = Shape::new(vec![2, 3]);
        let c = Shape::from([9, 3]).with_dim(0, 2);
        assert!(a == b && b == c);
        assert!(hash(&a) == hash(&b) && hash(&b) == hash(&c));
        // A trailing dim is not padding: rank is part of the value.
        assert_ne!(Shape::from([2, 3]), Shape::from([2, 3, 0]));
        assert_ne!(Shape::from([2, 3]), Shape::from([2, 3, 1]));
        assert_ne!(Shape::scalar(), Shape::from([0]));
        assert_ne!(Shape::from([2, 3]), Shape::from([3, 2]));
    }

    #[test]
    fn a_shape_of_workspace_rank_owns_no_heap_memory() {
        // Dims inline: the struct is the four dims, a rank and padding.
        assert!(std::mem::size_of::<Shape>() <= 6 * std::mem::size_of::<usize>());
        assert!(matches!(
            Shape::from([1, 2, 3, 4]).dims,
            Dims::Inline { .. }
        ));
        assert!(matches!(
            Shape::new(vec![1, 2, 3, 4]).dims,
            Dims::Inline { .. }
        ));
        assert!(matches!(Shape::from([1, 2, 3, 4, 5]).dims, Dims::Heap(_)));
    }

    #[test]
    #[should_panic]
    fn as_rows_cols_panics_on_rank3() {
        Shape::new(vec![1, 2, 3]).as_rows_cols();
    }
}
