//! Cluster-level metrics: makespan, JCT, queuing delay, utilization.

use crate::job::{JobId, JobState};
use crate::scheduler::cmp_f64;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One allocation snapshot, taken after a scheduling event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationSample {
    /// Simulated time of the snapshot.
    pub time_s: f64,
    /// GPUs held by each job (absent = zero).
    pub allocations: BTreeMap<JobId, u32>,
}

/// Aggregate metrics of a completed trace, matching the quantities the
/// paper reports in §6.4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMetrics {
    /// Time from first arrival to last completion.
    pub makespan_s: f64,
    /// Mean job completion time.
    pub mean_jct_s: f64,
    /// Median job completion time.
    pub median_jct_s: f64,
    /// Mean queuing delay (arrival → first GPU).
    pub mean_queuing_delay_s: f64,
    /// Median queuing delay.
    pub median_queuing_delay_s: f64,
    /// Time-averaged fraction of GPUs in use over the makespan.
    pub avg_utilization: f64,
    /// Total resize events across jobs.
    pub total_resizes: u32,
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

impl TraceMetrics {
    /// Computes metrics from finished jobs.
    ///
    /// `busy_integral` is the ∫(GPUs in use)dt accumulated by the simulator.
    pub fn compute(
        jobs: &[JobState],
        num_gpus: u32,
        first_arrival_s: f64,
        end_s: f64,
        busy_integral: f64,
    ) -> Self {
        let mut jcts: Vec<f64> = jobs.iter().filter_map(JobState::jct_s).collect();
        jcts.sort_by(|a, b| cmp_f64(*a, *b));
        let mut delays: Vec<f64> = jobs.iter().filter_map(JobState::queuing_delay_s).collect();
        delays.sort_by(|a, b| cmp_f64(*a, *b));
        // Guard against degenerate traces: an empty trace gives
        // `end_s == first_arrival_s == 0`, and a caller feeding NaN/∞
        // times must still get finite metrics out (these numbers land in
        // JSON reports, where NaN is unrepresentable).
        let makespan = end_s - first_arrival_s;
        let makespan = if makespan.is_finite() {
            makespan.max(0.0)
        } else {
            0.0
        };
        let denom = makespan * num_gpus as f64;
        let utilization = if denom > 0.0 && busy_integral.is_finite() {
            (busy_integral / denom).max(0.0)
        } else {
            0.0
        };
        TraceMetrics {
            makespan_s: makespan,
            mean_jct_s: if jcts.is_empty() {
                0.0
            } else {
                jcts.iter().sum::<f64>() / jcts.len() as f64
            },
            median_jct_s: median(&jcts),
            mean_queuing_delay_s: if delays.is_empty() {
                0.0
            } else {
                delays.iter().sum::<f64>() / delays.len() as f64
            },
            median_queuing_delay_s: median(&delays),
            avg_utilization: utilization,
            total_resizes: jobs.iter().map(|j| j.resizes).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use vf_models::profile::resnet56;

    fn finished_job(id: u32, arrival: f64, start: f64, finish: f64) -> JobState {
        let mut st = JobState::new(JobSpec {
            id: JobId(id),
            name: format!("j{id}"),
            priority: 5,
            demand: 2,
            total_vns: 4,
            model: resnet56(),
            micro_batch: 32,
            total_steps: 10,
            arrival_s: arrival,
        });
        st.remaining_steps = 0.0;
        st.started_at_s = Some(start);
        st.finished_at_s = Some(finish);
        st
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metrics_from_two_jobs() {
        let jobs = vec![
            finished_job(0, 0.0, 0.0, 100.0),
            finished_job(1, 10.0, 30.0, 60.0),
        ];
        let m = TraceMetrics::compute(&jobs, 4, 0.0, 100.0, 200.0);
        assert_eq!(m.makespan_s, 100.0);
        assert_eq!(m.mean_jct_s, 75.0); // (100 + 50)/2
        assert_eq!(m.median_jct_s, 75.0);
        assert_eq!(m.mean_queuing_delay_s, 10.0); // (0 + 20)/2
        assert_eq!(m.avg_utilization, 0.5); // 200 / (100*4)
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let m = TraceMetrics::compute(&[], 4, 0.0, 0.0, 0.0);
        assert_eq!(m.makespan_s, 0.0);
        assert_eq!(m.avg_utilization, 0.0);
        assert_eq!(m.mean_jct_s, 0.0);
        assert_eq!(m.median_queuing_delay_s, 0.0);
    }

    #[test]
    fn instant_trace_with_zero_gpus_stays_finite() {
        // makespan 0 and num_gpus 0 both zero the utilization denominator;
        // neither may produce NaN/∞.
        let jobs = vec![finished_job(0, 5.0, 5.0, 5.0)];
        let m = TraceMetrics::compute(&jobs, 0, 5.0, 5.0, 1.0);
        assert_eq!(m.makespan_s, 0.0);
        assert_eq!(m.avg_utilization, 0.0);
        assert!(m.mean_jct_s.is_finite());
    }

    #[test]
    fn non_finite_inputs_are_pinned_to_finite_metrics() {
        let m = TraceMetrics::compute(&[], 4, f64::NAN, f64::INFINITY, f64::NAN);
        assert_eq!(m.makespan_s, 0.0);
        assert_eq!(m.avg_utilization, 0.0);
        let m = TraceMetrics::compute(&[], 4, 0.0, 100.0, f64::NAN);
        assert_eq!(m.avg_utilization, 0.0, "NaN busy integral is discarded");
        let m = TraceMetrics::compute(&[], 4, 100.0, 0.0, 50.0);
        assert_eq!(m.makespan_s, 0.0, "negative makespan clamps to zero");
        assert_eq!(m.avg_utilization, 0.0);
    }
}
