//! Bucketed comm/compute overlap on the simulated clock.
//!
//! The classic data-parallel throughput lever (TensorFlow, Horovod, DDP):
//! gradients are partitioned into **buckets** and each bucket's all-reduce
//! launches as soon as its gradients exist, overlapping the rest of the
//! backward pass. Here that overlap lives on the *simulated* clock and in
//! the trace; the host executor reduces after the last wave whatever the
//! bucket size (see [`crate::Trainer`]), so bucketing cannot touch a value.
//!
//! `pipeline_buckets` is the one sync schedule, for both of its users:
//! [`crate::perf_model::step_time`] (α–β priced collectives) and the chaos
//! supervisor (faulty, retried ones). Both cut the gradient into fixed
//! `split_bucket_bytes` chunks, a pure function of the gradient's size and
//! the threshold, never of timing. One bucket is the paper's schedule: a
//! single all-reduce once the last backward pass has produced every
//! gradient.

use vf_device::TwoLaneClock;

/// Runs one step's bucketed sync on a [`TwoLaneClock`] whose lanes start
/// at `t0_s`. Compute occupies `compute_s`, whose last `window_s` is the
/// backward tail; it streams gradients out uniformly, so bucket `b` of `n`
/// is ready once its last gradient exists, `(b + 1)/n` of the way into the
/// window, and its collective starts once the comm lane is free. The last
/// bucket is ready when compute ends: one bucket is a single sync after
/// the final backward pass. `collective(b, bytes, start_s)` returns that
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
        let ready = window_start + window_s * ((b + 1) as f64 / sizes.len() as f64);
        let start = lanes.begin_comm(ready);
        lanes.advance_comm(collective(b, bytes, start)?);
    }
    Ok(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn only_the_last_collective_is_exposed_when_comm_fits_under_backward() {
        // 0.1 s per bucket, far under the 0.5 s ready spacing: each
        // collective starts when its bucket's last gradient exists. The
        // last bucket is ready as compute ends, so exactly its collective
        // sticks out.
        let (lanes, starts) = pipeline(0.1);
        assert_eq!(starts, vec![8.5, 9.0, 9.5, 10.0]);
        assert_eq!(lanes.exposed_comm_s(), (10.0 + 0.1) - 10.0);
        assert_eq!(lanes.join(), 10.0 + 0.1);
    }

    #[test]
    fn exposed_comm_is_comm_minus_the_first_slice_when_it_does_not_fit() {
        // 1 s per bucket ≥ the 0.5 s ready spacing, so the comm lane runs
        // back-to-back from bucket 0's ready point, one slice into the
        // window: total comm − (window − slice) seconds stick out.
        let (lanes, starts) = pipeline(1.0);
        assert_eq!(starts, vec![8.5, 9.5, 10.5, 11.5]);
        assert_eq!(lanes.exposed_comm_s(), 4.0 - (2.0 - 0.5));
        assert_eq!(lanes.join(), 12.5);
    }

    #[test]
    fn one_bucket_syncs_once_after_the_last_backward_pass() {
        // The paper's schedule: the single collective starts when compute
        // ends and all of it is exposed.
        let mut starts = Vec::new();
        let lanes = pipeline_buckets::<()>(1.0, 10.0, 2.0, &[1 << 20], |_, _, start| {
            starts.push(start);
            Ok(0.75)
        })
        .unwrap();
        assert_eq!(starts, vec![1.0 + 10.0]);
        assert_eq!(lanes.join(), 11.0 + 0.75);
        assert_eq!(lanes.exposed_comm_s(), 0.75);
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
