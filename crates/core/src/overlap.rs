//! Bucketed comm/compute overlap on the simulated clock.
//!
//! The classic data-parallel throughput lever (TensorFlow, Horovod, DDP):
//! gradients are partitioned into **buckets** and each bucket's all-reduce
//! launches as soon as its gradients exist, overlapping the rest of the
//! backward pass. Here that overlap lives on the *simulated* clock and in
//! the trace; the host executor reduces after the last wave whatever the
//! plan (see [`crate::Trainer`]), so bucketing cannot touch a value.
//!
//! `pipeline_buckets` runs the simulated schedule for both of its users:
//! [`crate::perf_model::step_time`] (α–β priced collectives) and the chaos
//! supervisor (faulty, retried ones). Both cut the gradient into
//! fixed `split_bucket_bytes` chunks. [`BucketPlan`] is a second rule over
//! the same threshold: it cuts the canonical parameter list at parameter
//! boundaries and decides the trainer's `bucket{k}/reduce` trace spans.
//! Both cuts are pure functions of sizes and threshold, never of timing.

use serde::{Deserialize, Serialize};
use vf_device::TwoLaneClock;

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

/// Runs one step's bucketed sync on a [`TwoLaneClock`] whose lanes start
/// at `t0_s`. Compute occupies `compute_s`, whose last `window_s` is the
/// backward tail; it streams gradients out uniformly, so bucket `b` of `n`
/// is ready `b/n` of the way into the window and its collective starts once
/// the comm lane is free. `collective(b, bytes, start_s)` returns that
/// collective's duration. The returned clock's `join` ends the step.
///
/// # Errors
///
/// The first error `collective` returns; later buckets are not run.
pub(crate) fn pipeline_buckets<E>(
    t0_s: f64,
    compute_s: f64,
    window_s: f64,
    sizes: &[u64],
    mut collective: impl FnMut(usize, u64, f64) -> Result<f64, E>,
) -> Result<TwoLaneClock, E> {
    let window_start = t0_s + compute_s - window_s;
    let mut lanes = TwoLaneClock::new(t0_s);
    lanes.advance_compute(compute_s);
    for (b, &bytes) in sizes.iter().enumerate() {
        let ready = window_start + window_s * (b as f64 / sizes.len() as f64);
        let start = lanes.begin_comm(ready);
        lanes.advance_comm(collective(b, bytes, start)?);
    }
    Ok(lanes)
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

    /// Drives 4 one-megabyte buckets through a 2 s window at the end of
    /// 10 s of compute, each collective costing `comm_s`; returns the
    /// clock and the start time of each collective.
    fn pipeline(comm_s: f64) -> (TwoLaneClock, Vec<f64>) {
        let mut starts = Vec::new();
        let lanes = pipeline_buckets::<()>(0.0, 10.0, 2.0, &[1 << 20; 4], |b, bytes, start| {
            assert_eq!((b, bytes), (starts.len(), 1 << 20));
            starts.push(start);
            Ok(comm_s)
        })
        .unwrap();
        (lanes, starts)
    }

    #[test]
    fn exposed_comm_is_zero_when_comm_fits_under_backward() {
        // 0.1 s per bucket, far under the 0.5 s ready spacing: each
        // collective starts when its bucket is ready and hides completely.
        let (lanes, starts) = pipeline(0.1);
        assert_eq!(starts, vec![8.0, 8.5, 9.0, 9.5]);
        assert_eq!(lanes.exposed_comm_s(), 0.0);
        assert_eq!(lanes.join(), 10.0);
    }

    #[test]
    fn exposed_comm_is_comm_minus_backward_tail_when_it_does_not_fit() {
        // 1 s per bucket ≥ the 0.5 s ready spacing, so the comm lane runs
        // back-to-back from the first ready point: exactly total comm −
        // window seconds stick out past the end of compute.
        let (lanes, starts) = pipeline(1.0);
        assert_eq!(starts, vec![8.0, 9.0, 10.0, 11.0]);
        assert_eq!(lanes.exposed_comm_s(), 4.0 - 2.0);
        assert_eq!(lanes.join(), 12.0);
    }

    #[test]
    fn a_failed_collective_stops_the_pipeline() {
        let mut calls = 0;
        let r = pipeline_buckets(0.0, 1.0, 1.0, &[8; 3], |b, _, _| {
            calls += 1;
            if b == 1 { Err("partitioned") } else { Ok(0.1) }
        });
        assert_eq!(r, Err("partitioned"));
        assert_eq!(calls, 2);
    }
}
