//! All-reduce: the communication cost model.
//!
//! VirtualFlow synchronizes gradients once per step via a Horovod-style ring
//! all-reduce (paper §2.3, §5). The numeric reduction lives in
//! `vf_tensor::reduce`, which the trainer calls directly; this module prices
//! it:
//!
//! * [`ring_allreduce_time_s`] — the standard α–β cost model for a ring
//!   all-reduce, used by the step-time simulator;
//! * [`split_bucket_bytes`] — the fixed gradient-bucket split behind the
//!   overlapped schedule.

use serde::{Deserialize, Serialize};

/// Network link characteristics between workers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Per-link bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl LinkProfile {
    /// The paper's testbed interconnect: 16 Gbps between the two 8-GPU
    /// servers.
    pub fn paper_testbed() -> Self {
        LinkProfile {
            latency_s: 50.0e-6,
            bandwidth: 16.0e9 / 8.0,
        }
    }

    /// An intra-machine NVLink-class interconnect.
    pub fn nvlink() -> Self {
        LinkProfile {
            latency_s: 5.0e-6,
            bandwidth: 150.0e9,
        }
    }
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile::paper_testbed()
    }
}

/// Time for a ring all-reduce of `bytes` across `workers` workers.
///
/// Uses the standard model: `2(N−1)` communication phases, each moving
/// `bytes/N` per link, plus per-phase latency. A single worker costs
/// nothing — there is nothing to synchronize.
pub fn ring_allreduce_time_s(bytes: u64, workers: usize, link: &LinkProfile) -> f64 {
    if workers <= 1 {
        return 0.0;
    }
    let n = workers as f64;
    let phases = 2.0 * (n - 1.0);
    phases * (link.latency_s + (bytes as f64 / n) / link.bandwidth)
}

/// Splits `total` bytes into fixed gradient buckets of at most `bucket`
/// bytes each: full buckets first, the remainder (if any) last. The split
/// is a pure function of the two sizes — never of arrival order — which is
/// what lets bucketed collectives overlap the backward pass without
/// perturbing the reduction order. A zero `bucket` degrades to one bucket.
pub fn split_bucket_bytes(total: u64, bucket: u64) -> Vec<u64> {
    if total == 0 || bucket == 0 || bucket >= total {
        return vec![total];
    }
    let mut out = Vec::with_capacity(total.div_ceil(bucket) as usize);
    let mut left = total;
    while left > 0 {
        let b = left.min(bucket);
        out.push(b);
        left -= b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_costs_nothing() {
        assert_eq!(ring_allreduce_time_s(1 << 30, 1, &LinkProfile::default()), 0.0);
    }

    #[test]
    fn cost_grows_with_bytes() {
        let l = LinkProfile::default();
        assert!(ring_allreduce_time_s(2 << 20, 4, &l) > ring_allreduce_time_s(1 << 20, 4, &l));
    }

    #[test]
    fn bandwidth_term_saturates_with_workers() {
        // For large messages the per-worker transferred volume approaches
        // 2*bytes/bandwidth regardless of N.
        let l = LinkProfile {
            latency_s: 0.0,
            bandwidth: 1e9,
        };
        let bytes = 1u64 << 30;
        let t4 = ring_allreduce_time_s(bytes, 4, &l);
        let t64 = ring_allreduce_time_s(bytes, 64, &l);
        let asymptote = 2.0 * bytes as f64 / l.bandwidth;
        assert!((t4 - asymptote * 0.75).abs() < 1e-6);
        assert!(t64 < asymptote * 1.01);
        assert!(t64 > t4);
    }

    #[test]
    fn latency_term_grows_linearly_with_workers() {
        let l = LinkProfile {
            latency_s: 1e-3,
            bandwidth: f64::INFINITY,
        };
        let t4 = ring_allreduce_time_s(1, 4, &l);
        let t8 = ring_allreduce_time_s(1, 8, &l);
        assert!((t4 - 6.0e-3).abs() < 1e-9);
        assert!((t8 - 14.0e-3).abs() < 1e-9);
    }

    #[test]
    fn bucket_split_is_exact_and_deterministic() {
        assert_eq!(split_bucket_bytes(100, 30), vec![30, 30, 30, 10]);
        assert_eq!(split_bucket_bytes(90, 30), vec![30, 30, 30]);
        assert_eq!(split_bucket_bytes(10, 30), vec![10]);
        assert_eq!(split_bucket_bytes(10, 0), vec![10]);
        assert_eq!(split_bucket_bytes(0, 30), vec![0]);
        for total in [1u64, 7, 64, 272, 1 << 20] {
            for bucket in [1u64, 3, 64, 1 << 10] {
                let parts = split_bucket_bytes(total, bucket);
                assert_eq!(parts.iter().sum::<u64>(), total);
                assert!(parts.iter().all(|&b| b <= bucket.max(total)));
            }
        }
    }

    #[test]
    fn bucketing_pays_extra_latency_but_same_volume() {
        // K bucketed all-reduces move the same bytes as one big one; only
        // the per-collective latency term is paid K times.
        let l = LinkProfile::paper_testbed();
        let total = 100u64 << 20;
        let parts = split_bucket_bytes(total, 10 << 20);
        let bucketed: f64 = parts.iter().map(|&b| ring_allreduce_time_s(b, 8, &l)).sum();
        let single = ring_allreduce_time_s(total, 8, &l);
        assert!(bucketed > single);
        let extra_latency = (parts.len() - 1) as f64 * 2.0 * 7.0 * l.latency_s;
        assert!((bucketed - single - extra_latency).abs() < 1e-9);
    }

    #[test]
    fn nvlink_is_faster_than_testbed() {
        let bytes = 100 << 20;
        assert!(
            ring_allreduce_time_s(bytes, 8, &LinkProfile::nvlink())
                < ring_allreduce_time_s(bytes, 8, &LinkProfile::paper_testbed())
        );
    }
}
