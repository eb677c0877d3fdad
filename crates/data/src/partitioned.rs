//! Partitioned dataset distribution (paper §5.1).
//!
//! Instead of every worker shuffling a replica of the full dataset, the
//! dataset is **partitioned across virtual nodes**: virtual node `v` owns the
//! indices `{i : i mod N == v}` and shuffles only its own partition each
//! epoch. Crucially the partitioning is keyed by *virtual node*, not device,
//! so migrating a virtual node moves its partition with it and the training
//! trajectory stays independent of the device layout. Exactly-once
//! visitation per epoch holds as long as resizes happen at epoch boundaries.

use crate::DataError;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use vf_tensor::init;

/// A deterministic per-virtual-node batch plan over a partitioned dataset.
///
/// # Examples
///
/// ```
/// use vf_data::partitioned::PartitionedPlan;
///
/// // 96 examples, 4 virtual nodes, global batch 16 → micro-batch 4.
/// let plan = PartitionedPlan::new(96, 4, 16, 7)?;
/// assert_eq!(plan.micro_batch(), 4);
/// assert_eq!(plan.steps_per_epoch(), 6); // 24 per partition / 4 per step
/// let shard = plan.shard(0, 0, 0);
/// assert_eq!(shard.len(), 4);
/// assert!(shard.iter().all(|i| i % 4 == 0)); // VN 0 owns i ≡ 0 (mod 4)
/// # Ok::<(), vf_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionedPlan {
    dataset_len: usize,
    num_partitions: u32,
    batch_size: usize,
    seed: u64,
}

impl PartitionedPlan {
    /// Creates a plan partitioning `dataset_len` examples over
    /// `num_partitions` virtual nodes with the given global batch size.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndivisibleBatch`] if the batch does not divide
    /// across the partitions, and [`DataError::BadBatchSize`] if the
    /// per-partition micro-batch is zero or exceeds the partition.
    pub fn new(
        dataset_len: usize,
        num_partitions: u32,
        batch_size: usize,
        seed: u64,
    ) -> Result<Self, DataError> {
        if num_partitions == 0 || !batch_size.is_multiple_of(num_partitions as usize) {
            return Err(DataError::IndivisibleBatch {
                batch_size,
                shards: num_partitions as usize,
            });
        }
        let micro = batch_size / num_partitions as usize;
        let partition_len = dataset_len / num_partitions as usize;
        if micro == 0 || micro > partition_len {
            return Err(DataError::BadBatchSize {
                batch_size,
                dataset_len,
            });
        }
        Ok(PartitionedPlan {
            dataset_len,
            num_partitions,
            batch_size,
            seed,
        })
    }

    /// Examples each virtual node processes per step.
    pub fn micro_batch(&self) -> usize {
        self.batch_size / self.num_partitions as usize
    }

    /// Examples owned by each partition (trailing remainder dropped so all
    /// partitions are equal).
    pub fn partition_len(&self) -> usize {
        self.dataset_len / self.num_partitions as usize
    }

    /// Full steps per epoch.
    pub fn steps_per_epoch(&self) -> usize {
        self.partition_len() / self.micro_batch()
    }

    /// Number of partitions (virtual nodes).
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// Overwrites `order` with the shuffled index order of `partition` in
    /// `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `partition >= num_partitions` or `order` is not
    /// [`partition_len`](PartitionedPlan::partition_len) long.
    pub fn partition_permutation(&self, partition: u32, epoch: usize, order: &mut [usize]) {
        assert!(partition < self.num_partitions, "unknown partition {partition}");
        assert_eq!(order.len(), self.partition_len(), "partition order length");
        let n = self.num_partitions as usize;
        for (k, index) in order.iter_mut().enumerate() {
            *index = k * n + partition as usize;
        }
        let mixed = self
            .seed
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .wrapping_add((epoch as u64) << 32)
            .wrapping_add(u64::from(partition).wrapping_mul(0x2545_F491_4F6C_DD1D));
        order.shuffle(&mut init::rng(mixed));
    }

    /// The micro-batch of `partition` at `(epoch, step_in_epoch)`.
    ///
    /// # Panics
    ///
    /// Panics if `partition` or `step_in_epoch` is out of range.
    pub fn shard(&self, partition: u32, epoch: usize, step_in_epoch: usize) -> Vec<usize> {
        assert!(
            step_in_epoch < self.steps_per_epoch(),
            "step {step_in_epoch} beyond epoch of {} steps",
            self.steps_per_epoch()
        );
        let mut perm = vec![0; self.partition_len()];
        self.partition_permutation(partition, epoch, &mut perm);
        let m = self.micro_batch();
        perm[step_in_epoch * m..(step_in_epoch + 1) * m].to_vec()
    }

    /// All shards for one step, in virtual node order (the layout
    /// [`crate::batching::shard_indices`] produces for replicated data).
    pub fn shards_at(&self, epoch: usize, step_in_epoch: usize) -> Vec<Vec<usize>> {
        (0..self.num_partitions)
            .map(|p| self.shard(p, epoch, step_in_epoch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::VisitLedger;
    use std::collections::BTreeSet;

    fn permutation(plan: &PartitionedPlan, partition: u32, epoch: usize) -> Vec<usize> {
        let mut order = vec![0; plan.partition_len()];
        plan.partition_permutation(partition, epoch, &mut order);
        order
    }

    #[test]
    fn construction_validates_geometry() {
        assert!(PartitionedPlan::new(96, 0, 16, 0).is_err());
        assert!(PartitionedPlan::new(96, 4, 18, 0).is_err()); // 18 % 4 != 0
        assert!(PartitionedPlan::new(8, 4, 16, 0).is_err()); // micro 4 > partition 2
        assert!(PartitionedPlan::new(96, 4, 16, 0).is_ok());
    }

    #[test]
    fn partitions_are_disjoint_and_cover_prefix() {
        let plan = PartitionedPlan::new(100, 4, 20, 3).unwrap();
        let mut all = BTreeSet::new();
        for p in 0..4 {
            for i in permutation(&plan, p, 0) {
                assert!(all.insert(i), "index {i} owned twice");
                assert_eq!(i % 4, p as usize);
            }
        }
        assert_eq!(all.len(), 100); // 25 per partition × 4
    }

    #[test]
    fn one_epoch_visits_each_partition_example_once() {
        let plan = PartitionedPlan::new(96, 4, 16, 9).unwrap();
        let mut ledger = VisitLedger::new(96);
        for step in 0..plan.steps_per_epoch() {
            for shard in plan.shards_at(0, step) {
                ledger.record(&shard);
            }
        }
        assert!(ledger.violations(1).is_empty());
    }

    #[test]
    fn shards_are_deterministic_and_epoch_varying() {
        let a = PartitionedPlan::new(96, 4, 16, 5).unwrap();
        let b = PartitionedPlan::new(96, 4, 16, 5).unwrap();
        assert_eq!(a.shards_at(0, 0), b.shards_at(0, 0));
        assert_ne!(
            permutation(&a, 0, 0),
            permutation(&a, 0, 1),
            "epochs must reshuffle"
        );
        assert_ne!(
            permutation(&a, 0, 0),
            permutation(&PartitionedPlan::new(96, 4, 16, 6).unwrap(), 0, 0),
            "seeds must differ"
        );
    }

    #[test]
    fn shard_is_independent_of_other_partitions() {
        // VN 2's data order depends only on (seed, epoch, partition) — the
        // property that makes migration trajectory-preserving.
        let plan = PartitionedPlan::new(128, 8, 32, 11).unwrap();
        let reference = plan.shard(2, 3, 1);
        // Same parameters, different plan instance.
        let again = PartitionedPlan::new(128, 8, 32, 11).unwrap().shard(2, 3, 1);
        assert_eq!(reference, again);
    }

    #[test]
    fn remainder_examples_are_dropped_consistently() {
        let plan = PartitionedPlan::new(103, 4, 16, 1).unwrap();
        assert_eq!(plan.partition_len(), 25);
        let max: usize = (0..4)
            .flat_map(|p| permutation(&plan, p, 0))
            .max()
            .unwrap();
        assert!(max < 100, "dropped tail must never be visited (max {max})");
    }
}
