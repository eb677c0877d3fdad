//! Deterministic global-batch iteration and virtual node sharding.
//!
//! Reproducibility across hardware requires the *logical* order of training
//! examples to be a pure function of the seed and step count — never of the
//! device count. [`BatchPlan`] produces, for every step, the index set of the
//! global batch; [`shard_indices`] then splits that set into equally sized
//! virtual node shards. How those shards map onto physical devices is decided
//! elsewhere (`vf-core`) and has no effect on the values computed.

use crate::DataError;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use vf_tensor::init;

/// How the training dataset is distributed across workers (paper §5.1,
/// "data visitation guarantees").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DistributionMode {
    /// Every worker sees an independently shuffled copy of the full dataset.
    /// Virtual node migration is trivial; no visitation guarantee is needed.
    #[default]
    Replicated,
    /// The dataset is partitioned across virtual nodes. Exactly-once
    /// visitation per epoch holds only if resizes happen at epoch boundaries.
    Partitioned,
}

/// The global batch for one training step: which examples to process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalBatch {
    /// 0-based epoch index.
    pub epoch: usize,
    /// 0-based step within the epoch.
    pub step_in_epoch: usize,
    /// Dataset indices of the examples in this batch, in logical order.
    pub indices: Vec<usize>,
}

/// A deterministic plan of global batches.
///
/// Each epoch uses an independent permutation derived from `(seed, epoch)`;
/// within an epoch, consecutive batches take consecutive slices of the
/// permutation. Trailing examples that do not fill a batch are dropped, as is
/// conventional for the large-batch workloads the paper studies.
///
/// # Examples
///
/// ```
/// use vf_data::batching::BatchPlan;
///
/// let plan = BatchPlan::new(100, 25, 7)?;
/// assert_eq!(plan.steps_per_epoch(), 4);
/// let b = plan.batch(0, 2);
/// assert_eq!(b.indices.len(), 25);
/// # Ok::<(), vf_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPlan {
    dataset_len: usize,
    batch_size: usize,
    seed: u64,
}

impl BatchPlan {
    /// Creates a plan over `dataset_len` examples with the given global
    /// batch size.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadBatchSize`] if `batch_size` is zero or larger
    /// than the dataset.
    pub fn new(dataset_len: usize, batch_size: usize, seed: u64) -> Result<Self, DataError> {
        if batch_size == 0 || batch_size > dataset_len {
            return Err(DataError::BadBatchSize {
                batch_size,
                dataset_len,
            });
        }
        Ok(BatchPlan {
            dataset_len,
            batch_size,
            seed,
        })
    }

    /// The global batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of full batches per epoch (`dataset_len / batch_size`).
    pub fn steps_per_epoch(&self) -> usize {
        self.dataset_len / self.batch_size
    }

    /// The permutation of the dataset used in `epoch`.
    pub fn epoch_permutation(&self, epoch: usize) -> Vec<usize> {
        // Mix the epoch into the seed with distinct odd multipliers so that
        // nearby (seed, epoch) pairs decorrelate.
        let mixed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((epoch as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ 0x94D0_49BB_1331_11EB);
        let mut rng = init::rng(mixed);
        let mut order: Vec<usize> = (0..self.dataset_len).collect();
        order.shuffle(&mut rng);
        order
    }

    /// The global batch at `(epoch, step_in_epoch)`.
    ///
    /// # Panics
    ///
    /// Panics if `step_in_epoch >= steps_per_epoch()`.
    pub fn batch(&self, epoch: usize, step_in_epoch: usize) -> GlobalBatch {
        assert!(
            step_in_epoch < self.steps_per_epoch(),
            "step {step_in_epoch} beyond epoch of {} steps",
            self.steps_per_epoch()
        );
        let perm = self.epoch_permutation(epoch);
        let start = step_in_epoch * self.batch_size;
        GlobalBatch {
            epoch,
            step_in_epoch,
            indices: perm[start..start + self.batch_size].to_vec(),
        }
    }

    /// The global batch at absolute step `step` (counting across epochs).
    pub fn batch_at(&self, step: usize) -> GlobalBatch {
        let spe = self.steps_per_epoch();
        self.batch(step / spe, step % spe)
    }
}

/// Splits a global batch's indices into `shards` equally sized virtual node
/// shards, in logical order: shard `v` receives positions
/// `[v·B/V, (v+1)·B/V)`.
///
/// # Errors
///
/// Returns [`DataError::IndivisibleBatch`] if the batch is empty or does not
/// divide evenly (the paper uses equally sized virtual nodes throughout).
pub fn shard_indices(indices: &[usize], shards: usize) -> Result<Vec<Vec<usize>>, DataError> {
    if shards == 0 || indices.is_empty() || !indices.len().is_multiple_of(shards) {
        return Err(DataError::IndivisibleBatch {
            batch_size: indices.len(),
            shards,
        });
    }
    let per = indices.len() / shards;
    Ok(indices.chunks(per).map(|c| c.to_vec()).collect())
}

/// Tracks how many times each example was visited in an epoch, to check the
/// exactly-once guarantee for partitioned datasets.
#[derive(Debug, Clone, Default)]
pub struct VisitLedger {
    counts: Vec<u32>,
}

impl VisitLedger {
    /// A ledger over `dataset_len` examples, all unvisited.
    pub fn new(dataset_len: usize) -> Self {
        VisitLedger {
            counts: vec![0; dataset_len],
        }
    }

    /// Records a visit to each index.
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds the dataset length.
    pub fn record(&mut self, indices: &[usize]) {
        for &i in indices {
            self.counts[i] += 1;
        }
    }

    /// Indices visited a number of times different from `expected`.
    pub fn violations(&self, expected: u32) -> Vec<usize> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != expected)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether every example was visited exactly once.
    pub fn exactly_once(&self) -> bool {
        self.violations(1).is_empty()
    }

    /// Resets all counts (call at each epoch boundary).
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn plan_rejects_bad_batch_sizes() {
        assert!(BatchPlan::new(10, 0, 0).is_err());
        assert!(BatchPlan::new(10, 11, 0).is_err());
        assert!(BatchPlan::new(10, 10, 0).is_ok());
    }

    #[test]
    fn epoch_permutation_is_a_permutation() {
        let plan = BatchPlan::new(50, 10, 3).unwrap();
        let p = plan.epoch_permutation(4);
        let set: HashSet<_> = p.iter().copied().collect();
        assert_eq!(set.len(), 50);
        assert_eq!(*p.iter().max().unwrap(), 49);
    }

    #[test]
    fn permutations_differ_across_epochs_and_seeds() {
        let plan = BatchPlan::new(100, 10, 3).unwrap();
        assert_ne!(plan.epoch_permutation(0), plan.epoch_permutation(1));
        let other = BatchPlan::new(100, 10, 4).unwrap();
        assert_ne!(plan.epoch_permutation(0), other.epoch_permutation(0));
    }

    #[test]
    fn plan_is_deterministic() {
        let a = BatchPlan::new(64, 8, 9).unwrap();
        let b = BatchPlan::new(64, 8, 9).unwrap();
        for e in 0..3 {
            for s in 0..a.steps_per_epoch() {
                assert_eq!(a.batch(e, s), b.batch(e, s));
            }
        }
    }

    #[test]
    fn one_epoch_covers_each_example_once_when_divisible() {
        let plan = BatchPlan::new(60, 12, 1).unwrap();
        let mut ledger = VisitLedger::new(60);
        for s in 0..plan.steps_per_epoch() {
            ledger.record(&plan.batch(0, s).indices);
        }
        assert!(ledger.exactly_once());
    }

    #[test]
    fn trailing_examples_are_dropped_not_duplicated() {
        let plan = BatchPlan::new(65, 12, 1).unwrap();
        assert_eq!(plan.steps_per_epoch(), 5);
        let mut ledger = VisitLedger::new(65);
        for s in 0..plan.steps_per_epoch() {
            ledger.record(&plan.batch(0, s).indices);
        }
        // 60 visited once, 5 dropped.
        assert_eq!(ledger.violations(1).len(), 5);
    }

    #[test]
    fn batch_at_walks_across_epochs() {
        let plan = BatchPlan::new(40, 10, 2).unwrap();
        let b = plan.batch_at(5);
        assert_eq!(b.epoch, 1);
        assert_eq!(b.step_in_epoch, 1);
        assert_eq!(b, plan.batch(1, 1));
    }

    #[test]
    fn shard_indices_splits_evenly_in_order() {
        let idx: Vec<usize> = (0..12).collect();
        let shards = shard_indices(&idx, 4).unwrap();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0], vec![0, 1, 2]);
        assert_eq!(shards[3], vec![9, 10, 11]);
    }

    #[test]
    fn shard_indices_rejects_indivisible() {
        let idx: Vec<usize> = (0..10).collect();
        assert!(shard_indices(&idx, 3).is_err());
        assert!(shard_indices(&idx, 0).is_err());
        // An empty batch divides "evenly" into shards of zero examples.
        assert!(matches!(
            shard_indices(&[], 4),
            Err(DataError::IndivisibleBatch { batch_size: 0, shards: 4 })
        ));
    }

    #[test]
    fn sharding_is_independent_of_how_many_devices_run_the_shards() {
        // The shard decomposition depends only on the VN count, never on the
        // device count — the core decoupling property.
        let plan = BatchPlan::new(128, 32, 11).unwrap();
        let batch = plan.batch(0, 0);
        let shards_a = shard_indices(&batch.indices, 8).unwrap();
        let shards_b = shard_indices(&batch.indices, 8).unwrap();
        assert_eq!(shards_a, shards_b);
        let flat: Vec<usize> = shards_a.into_iter().flatten().collect();
        assert_eq!(flat, batch.indices);
    }

    #[test]
    fn ledger_reset_clears_counts() {
        let mut ledger = VisitLedger::new(4);
        ledger.record(&[0, 1, 2, 3]);
        assert!(ledger.exactly_once());
        ledger.reset();
        assert_eq!(ledger.violations(0).len(), 0);
    }
}
