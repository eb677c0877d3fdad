//! Fairness analysis of allocation timelines.
//!
//! The paper's scheduler enforces *weighted* fair shares (§4.2): over time,
//! each outstanding job should receive GPU-time proportional to its
//! priority, capped by its demand. This module turns an allocation timeline
//! into per-job service integrals and standard fairness indices so that
//! claim can be quantified rather than eyeballed.

use crate::job::JobId;
use crate::metrics::AllocationSample;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// GPU·seconds of service each job received over a timeline.
///
/// The timeline is interpreted as a step function: the allocations of each
/// sample hold until the next sample's time; `end_s` closes the last
/// interval.
pub fn service_integrals(timeline: &[AllocationSample], end_s: f64) -> BTreeMap<JobId, f64> {
    let mut service: BTreeMap<JobId, f64> = BTreeMap::new();
    for (i, sample) in timeline.iter().enumerate() {
        let until = timeline.get(i + 1).map_or(end_s, |s| s.time_s);
        let dt = (until - sample.time_s).max(0.0);
        for (&job, &gpus) in &sample.allocations {
            *service.entry(job).or_insert(0.0) += gpus as f64 * dt;
        }
    }
    service
}

/// Jain's fairness index over a set of nonnegative values:
/// `(Σx)² / (n·Σx²)`, in `(0, 1]`, 1 = perfectly equal.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (values.len() as f64 * sum_sq)
}

/// Weighted fairness report: service per unit priority for every job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessReport {
    /// GPU·seconds per job.
    pub service: BTreeMap<JobId, f64>,
    /// GPU·seconds divided by the job's priority weight.
    pub normalized_service: BTreeMap<JobId, f64>,
    /// Jain index of the normalized service (1 = weighted-fair).
    pub weighted_jain: f64,
}

/// Builds a [`FairnessReport`] from a timeline and per-job priorities.
///
/// Jobs missing from `priorities` are weighted 1.
pub fn fairness_report(
    timeline: &[AllocationSample],
    end_s: f64,
    priorities: &BTreeMap<JobId, u32>,
) -> FairnessReport {
    let service = service_integrals(timeline, end_s);
    let normalized_service: BTreeMap<JobId, f64> = service
        .iter()
        .map(|(&id, &s)| {
            let w = priorities.get(&id).copied().unwrap_or(1).max(1) as f64;
            (id, s / w)
        })
        .collect();
    let values: Vec<f64> = normalized_service.values().copied().collect();
    FairnessReport {
        service,
        normalized_service,
        weighted_jain: jain_index(&values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, allocs: &[(u32, u32)]) -> AllocationSample {
        AllocationSample {
            time_s: t,
            allocations: allocs.iter().map(|&(j, g)| (JobId(j), g)).collect(),
        }
    }

    #[test]
    fn service_integrates_step_function() {
        let tl = vec![sample(0.0, &[(0, 2), (1, 2)]), sample(10.0, &[(0, 4)])];
        let s = service_integrals(&tl, 20.0);
        assert_eq!(s[&JobId(0)], 2.0 * 10.0 + 4.0 * 10.0);
        assert_eq!(s[&JobId(1)], 2.0 * 10.0);
    }

    #[test]
    fn empty_timeline_is_empty() {
        assert!(service_integrals(&[], 10.0).is_empty());
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        // One job hogging everything among n jobs → 1/n.
        let idx = jain_index(&[12.0, 0.0, 0.0]);
        assert!((idx - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn weighted_fairness_rewards_proportional_service() {
        // Job 1 has priority 2 and receives twice the service of job 0 →
        // perfectly weighted-fair.
        let tl = vec![sample(0.0, &[(0, 1), (1, 2)])];
        let mut prios = BTreeMap::new();
        prios.insert(JobId(0), 1);
        prios.insert(JobId(1), 2);
        let report = fairness_report(&tl, 10.0, &prios);
        assert!((report.weighted_jain - 1.0).abs() < 1e-12);
        // Unweighted, the same split is unfair.
        let raw: Vec<f64> = report.service.values().copied().collect();
        assert!(jain_index(&raw) < 1.0);
    }

    #[test]
    fn missing_priorities_default_to_one() {
        let tl = vec![sample(0.0, &[(0, 1), (7, 1)])];
        let report = fairness_report(&tl, 5.0, &BTreeMap::new());
        assert!((report.weighted_jain - 1.0).abs() < 1e-12);
    }
}
