//! Bucketed comm/compute overlap: fixed gradient buckets and the times at
//! which they become ready inside the backward tail.
//!
//! The classic data-parallel throughput lever (TensorFlow, Horovod, DDP):
//! instead of synchronizing the whole gradient once the entire backward
//! pass is done, gradients are partitioned into **buckets** and each
//! bucket's all-reduce launches as soon as its gradients exist, overlapping
//! the remaining backward computation. Here that overlap lives on the
//! *simulated* clock and in the trace; the host executor reduces after the
//! last wave whatever the plan (see [`crate::Trainer`]), so bucketing cannot
//! touch a value. What keeps the simulated schedule itself deterministic:
//!
//! * **fixed boundaries** — [`BucketPlan`] cuts the canonical parameter
//!   list (in *reverse* order, the order backward produces gradients) at a
//!   byte threshold; the cut is a pure function of parameter shapes and the
//!   threshold, never of timing;
//! * **fixed ready times** — [`bucket_ready_times`] places the buckets at
//!   deterministic points inside the overlappable backward window.
//!
//! The comm lane that serves the buckets sequentially is
//! `vf_device::TwoLaneClock`: the exposed communication cost of a step is
//! `max(0, comm_end − compute_end)` — the quantity
//! [`crate::perf_model::step_time_overlapped`] reports and the chaos
//! supervisor charges to its simulated clock.

use serde::{Deserialize, Serialize};

/// One fixed gradient bucket: a contiguous run of parameters (indices into
/// the canonical parameter list) and their total payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GradientBucket {
    /// Canonical parameter indices in this bucket.
    pub params: Vec<usize>,
    /// Total gradient bytes of those parameters.
    pub bytes: u64,
}

/// A fixed partition of the model's parameters into gradient buckets.
///
/// Bucket 0 holds the *last* parameters of the canonical order (the
/// output-side gradients backward produces first), so earlier buckets
/// become ready earlier in the backward pass. With a threshold at or above
/// the model size the plan degrades to a single bucket — exactly the
/// historical sync-after-backward behavior.
///
/// # Examples
///
/// ```
/// use vf_core::overlap::BucketPlan;
///
/// // Three parameters of 64, 128, and 64 bytes; 128-byte buckets.
/// let plan = BucketPlan::from_sizes(&[64, 128, 64], 128);
/// assert_eq!(plan.num_buckets(), 2);
/// // Bucket 0: params from the tail of the canonical order.
/// assert_eq!(plan.buckets()[0].params, vec![2, 1]);
/// assert_eq!(plan.buckets()[1].params, vec![0]);
/// assert_eq!(plan.total_bytes(), 256);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketPlan {
    buckets: Vec<GradientBucket>,
    total_bytes: u64,
}

impl BucketPlan {
    /// Partitions parameters of the given byte sizes into buckets of at
    /// least `bucket_bytes` each (a bucket closes once it reaches the
    /// threshold; the final bucket may be smaller). `bucket_bytes == 0`
    /// or an empty size list yields a single bucket.
    pub fn from_sizes(sizes: &[u64], bucket_bytes: u64) -> Self {
        let total_bytes = sizes.iter().sum();
        if sizes.is_empty() || bucket_bytes == 0 {
            return BucketPlan::single(sizes);
        }
        let mut buckets = Vec::new();
        let mut current = GradientBucket { params: Vec::new(), bytes: 0 };
        for p in (0..sizes.len()).rev() {
            current.params.push(p);
            current.bytes += sizes[p];
            if current.bytes >= bucket_bytes {
                buckets.push(std::mem::replace(
                    &mut current,
                    GradientBucket { params: Vec::new(), bytes: 0 },
                ));
            }
        }
        if !current.params.is_empty() {
            buckets.push(current);
        }
        BucketPlan { buckets, total_bytes }
    }

    /// The degenerate one-bucket plan: every parameter in canonical order,
    /// synchronized after the full backward pass.
    pub fn single(sizes: &[u64]) -> Self {
        BucketPlan {
            buckets: vec![GradientBucket {
                params: (0..sizes.len()).collect(),
                bytes: sizes.iter().sum(),
            }],
            total_bytes: sizes.iter().sum(),
        }
    }

    /// The buckets, in launch order (bucket 0 first).
    pub fn buckets(&self) -> &[GradientBucket] {
        &self.buckets
    }

    /// Number of buckets (≥ 1).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Total gradient bytes across all buckets.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// Deterministic per-bucket gradient-ready times: bucket `b` of `n` becomes
/// ready at `window_start + (b/n) · window` — the backward tail streams
/// gradients out uniformly, and bucket 0 (the output-side gradients) is
/// available as soon as the overlappable window opens. With one bucket this
/// is the window start; the window itself models the *overlappable
/// backward*, so a schedule that keeps the lane busy from the first ready
/// time can hide at most `window` seconds of communication.
pub fn bucket_ready_times(window_start_s: f64, window_s: f64, n: usize) -> Vec<f64> {
    let n = n.max(1);
    (0..n)
        .map(|b| window_start_s + window_s * (b as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_plan_boundaries_are_fixed_and_exhaustive() {
        let sizes = [40u64, 100, 30, 30, 60];
        let plan = BucketPlan::from_sizes(&sizes, 64);
        // Reverse canonical order, each bucket closing once it reaches 64
        // bytes: [4,3] (90), [2,1] (130), then the [0] remainder (40).
        let got: Vec<Vec<usize>> =
            plan.buckets().iter().map(|b| b.params.clone()).collect();
        assert_eq!(got, vec![vec![4, 3], vec![2, 1], vec![0]]);
        let bytes: Vec<u64> = plan.buckets().iter().map(|b| b.bytes).collect();
        assert_eq!(bytes, vec![90, 130, 40]);
        assert_eq!(plan.total_bytes(), 260);
        // Every parameter appears exactly once.
        let mut all: Vec<usize> =
            plan.buckets().iter().flat_map(|b| b.params.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        // The plan is a pure function of its inputs.
        assert_eq!(plan, BucketPlan::from_sizes(&sizes, 64));
    }

    #[test]
    fn huge_threshold_degrades_to_a_single_bucket() {
        let sizes = [40u64, 100, 30];
        for plan in [
            BucketPlan::from_sizes(&sizes, u64::MAX),
            BucketPlan::from_sizes(&sizes, 0),
            BucketPlan::single(&sizes),
        ] {
            assert_eq!(plan.num_buckets(), 1);
            assert_eq!(plan.total_bytes(), 170);
        }
        // `single` keeps canonical (not reversed) order — it reproduces the
        // historical end-of-step reduction exactly.
        assert_eq!(BucketPlan::single(&sizes).buckets()[0].params, vec![0, 1, 2]);
    }

    #[test]
    fn ready_times_tile_the_window() {
        let r = bucket_ready_times(10.0, 2.0, 4);
        assert_eq!(r, vec![10.0, 10.5, 11.0, 11.5]);
        assert_eq!(bucket_ready_times(3.0, 1.0, 1), vec![3.0]);
    }
}
