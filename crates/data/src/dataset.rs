//! In-memory labeled datasets.

use crate::DataError;
use vf_tensor::Tensor;

/// A labeled, in-memory dataset: a feature matrix `[n, d]` and `n` integer
/// class labels.
///
/// # Examples
///
/// ```
/// use vf_data::Dataset;
/// use vf_tensor::Tensor;
///
/// let features = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], [2, 2]).unwrap();
/// let ds = Dataset::new(features, vec![0, 1])?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.feature_dim(), 2);
/// # Ok::<(), vf_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from a `[n, d]` feature matrix and `n` labels.
    ///
    /// The number of classes is inferred as `max(labels) + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LengthMismatch`] if the leading feature dimension
    /// differs from the label count, and [`DataError::EmptyDataset`] for zero
    /// examples.
    pub fn new(features: Tensor, labels: Vec<usize>) -> Result<Self, DataError> {
        let n = features.shape().dims().first().copied().unwrap_or(0);
        if n != labels.len() {
            return Err(DataError::LengthMismatch {
                features: n,
                labels: labels.len(),
            });
        }
        if n == 0 {
            return Err(DataError::EmptyDataset);
        }
        let num_classes = labels.iter().max().map_or(0, |m| m + 1);
        Ok(Dataset {
            features,
            labels,
            num_classes,
        })
    }

    /// Number of examples.
    #[allow(
        clippy::len_without_is_empty,
        reason = "construction forbids emptiness"
    )]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Number of feature columns per example.
    pub fn feature_dim(&self) -> usize {
        if self.features.shape().rank() >= 2 {
            self.features.shape().dim(1)
        } else {
            1
        }
    }

    /// Number of distinct classes (`max(label) + 1`).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The full feature matrix.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The full label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Gathers the examples at `indices` into a `(features, labels)` batch.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::OutOfBounds`] if any index exceeds the dataset.
    pub fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), DataError> {
        let n = self.len();
        let d = self.feature_dim();
        let fd = self.features.data();
        let mut out = Vec::with_capacity(indices.len() * d);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= n {
                return Err(DataError::OutOfBounds { index: i, len: n });
            }
            out.extend_from_slice(&fd[i * d..(i + 1) * d]);
            labels.push(self.labels[i]);
        }
        let features = Tensor::from_vec(out, [indices.len(), d])?;
        Ok((features, labels))
    }

    /// Splits off the last `fraction` of examples as a validation set,
    /// returning `(train, validation)`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyDataset`] if either side would be empty.
    pub fn split(&self, fraction: f32) -> Result<(Dataset, Dataset), DataError> {
        let n = self.len();
        let val_n = ((n as f32) * fraction).round() as usize;
        let train_n = n - val_n;
        if val_n == 0 || train_n == 0 {
            return Err(DataError::EmptyDataset);
        }
        let train = Dataset::new(
            self.features.slice_rows(0, train_n)?,
            self.labels[..train_n].to_vec(),
        )?;
        let val = Dataset::new(
            self.features.slice_rows(train_n, val_n)?,
            self.labels[train_n..].to_vec(),
        )?;
        Ok((train, val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(n: usize, d: usize) -> Dataset {
        let features =
            Tensor::from_vec((0..n * d).map(|i| i as f32).collect(), [n, d]).unwrap();
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(features, labels).unwrap()
    }

    #[test]
    fn construction_checks_lengths() {
        let f = Tensor::zeros([2, 3]);
        assert!(matches!(
            Dataset::new(f, vec![0]).unwrap_err(),
            DataError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let f = Tensor::zeros([0, 3]);
        assert!(matches!(
            Dataset::new(f, vec![]).unwrap_err(),
            DataError::EmptyDataset
        ));
    }

    #[test]
    fn num_classes_is_max_label_plus_one() {
        assert_eq!(ds(9, 2).num_classes(), 3);
    }

    #[test]
    fn gather_picks_requested_rows() {
        let d = ds(4, 2);
        let (f, l) = d.gather(&[2, 0]).unwrap();
        assert_eq!(f.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert_eq!(l, vec![2, 0]);
    }

    #[test]
    fn gather_rejects_out_of_bounds() {
        assert!(ds(4, 2).gather(&[4]).is_err());
    }

    #[test]
    fn split_partitions_examples() {
        let d = ds(10, 2);
        let (train, val) = d.split(0.2).unwrap();
        assert_eq!(train.len(), 8);
        assert_eq!(val.len(), 2);
        assert_eq!(val.labels()[0], 8 % 3);
    }

    #[test]
    fn split_rejects_degenerate_fractions() {
        let d = ds(10, 2);
        assert!(d.split(0.0).is_err());
        assert!(d.split(1.0).is_err());
    }
}
