//! Cluster schedulers: Elastic Weighted Fair Sharing and the static
//! priority baseline.
//!
//! [`ElasticWfs`] implements Algorithm 1 of the paper: on every job arrival,
//! completion, or resize event it recomputes weighted fair shares over the
//! outstanding jobs and issues resize requests — possible only because
//! virtual node processing makes resizes semantics-preserving. The
//! [`StaticPriority`] baseline orders jobs by priority but never resizes a
//! running job, reproducing the head-of-line blocking and idle GPUs of
//! Figures 12–13.

use crate::job::{JobId, JobState};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::BTreeMap;

/// A cluster scheduler: maps outstanding jobs to GPU allocations.
pub trait Scheduler: Send {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Computes allocations for the `jobs` (all arrived and unfinished)
    /// given `capacity` identical GPUs. Jobs absent from the result hold
    /// zero GPUs.
    ///
    /// Under [`run_trace`](crate::sim::run_trace) the slice is the
    /// simulator's live job table, not a snapshot: it happens to be sorted
    /// by id, but implementations must not depend on its order.
    fn allocate(&mut self, now_s: f64, jobs: &[JobState], capacity: u32) -> BTreeMap<JobId, u32>;
}

/// Orders floats, treating incomparable (NaN) pairs as equal.
fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// The non-zero `grants` (indexed like `jobs`), keyed by job id.
fn grants_by_id(jobs: &[JobState], grants: Vec<u32>) -> BTreeMap<JobId, u32> {
    let held = jobs.iter().zip(grants).filter(|&(_, g)| g > 0);
    held.map(|(j, g)| (j.spec.id, g)).collect()
}

/// How [`ElasticWfs`] weighs jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WeightPolicy {
    /// Use the job's static priority (the paper's main configuration).
    #[default]
    Priority,
    /// Shortest Remaining Time First: weight is inversely proportional to
    /// remaining work, one of the objectives §4.2 mentions.
    Srtf,
    /// Least Attained Service, the Tiresias-style objective (§8): jobs that
    /// have consumed the least service so far are favored, which bounds the
    /// damage long-running jobs can do to short ones without needing
    /// runtime estimates.
    Las,
}

/// Elastic weighted fair sharing (paper §4.2, Algorithm 1).
///
/// Every job gets at least one GPU whenever capacity permits (in weight
/// order); the rest of the capacity is water-filled proportionally to the
/// weights, capped by each job's demand.
#[derive(Debug, Clone, Default)]
pub struct ElasticWfs {
    policy: WeightPolicy,
}

impl ElasticWfs {
    /// WFS with static priorities.
    pub fn new() -> Self {
        ElasticWfs {
            policy: WeightPolicy::Priority,
        }
    }

    /// WFS with the given weight policy.
    pub fn with_policy(policy: WeightPolicy) -> Self {
        ElasticWfs { policy }
    }

    fn weight(&self, job: &JobState) -> f64 {
        match self.policy {
            WeightPolicy::Priority => job.spec.priority as f64,
            WeightPolicy::Srtf => 1.0 / job.remaining_steps.max(1.0),
            WeightPolicy::Las => {
                let attained = (job.spec.total_steps as f64 - job.remaining_steps).max(0.0);
                1.0 / (attained + 1.0)
            }
        }
    }
}

impl Scheduler for ElasticWfs {
    fn name(&self) -> &'static str {
        match self.policy {
            WeightPolicy::Priority => "elastic-wfs",
            WeightPolicy::Srtf => "elastic-srtf",
            WeightPolicy::Las => "elastic-las",
        }
    }

    fn allocate(&mut self, _now_s: f64, jobs: &[JobState], capacity: u32) -> BTreeMap<JobId, u32> {
        if jobs.is_empty() || capacity == 0 {
            return BTreeMap::new();
        }
        // Weights, shares and grants live in vectors indexed by position in
        // `jobs`; the passes below walk positions, not ids.
        let weight: Vec<f64> = jobs.iter().map(|j| self.weight(j)).collect();
        // Everyone is considered, highest weight first (ties by arrival
        // then id for determinism).
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            let (ja, jb) = (&jobs[a].spec, &jobs[b].spec);
            cmp_f64(weight[b], weight[a])
                .then(cmp_f64(ja.arrival_s, jb.arrival_s))
                .then(ja.id.cmp(&jb.id))
        });

        // Pass 1: one GPU each while capacity lasts — elasticity means a
        // newly arrived job can immediately carve out a slice.
        let mut grant = vec![0u32; jobs.len()];
        let mut free = capacity;
        for &i in &order {
            if free == 0 {
                break;
            }
            if jobs[i].spec.demand > 0 {
                grant[i] = 1;
                free -= 1;
            }
        }
        order.retain(|&i| grant[i] > 0);

        // Pass 2: water-fill the remainder proportionally to weights,
        // capping at each job's demand.
        let mut share = vec![0.0f64; jobs.len()];
        let mut active: Vec<usize> =
            order.iter().copied().filter(|&i| jobs[i].spec.demand > 1).collect();
        let mut pool = free as f64;
        while pool > 1e-9 && !active.is_empty() {
            let total_w: f64 = active.iter().map(|&i| weight[i]).sum();
            let mut next_active = Vec::with_capacity(active.len());
            let mut distributed = 0.0;
            for &i in &active {
                let headroom = (jobs[i].spec.demand - 1) as f64 - share[i];
                let extra = (pool * weight[i] / total_w).min(headroom);
                share[i] += extra;
                distributed += extra;
                if extra < headroom - 1e-12 {
                    next_active.push(i);
                }
            }
            pool -= distributed;
            if next_active.len() == active.len() {
                break; // nobody capped; shares are final
            }
            active = next_active;
        }

        // Integerize by largest remainder, respecting demand caps.
        let mut leftover = free;
        for &i in &order {
            let whole = share[i].floor();
            grant[i] += whole as u32;
            leftover -= whole as u32;
            share[i] -= whole; // keep the remainder
        }
        order.sort_by(|&a, &b| {
            let (ja, jb) = (&jobs[a].spec, &jobs[b].spec);
            cmp_f64(share[b], share[a])
                .then(jb.priority.cmp(&ja.priority))
                .then(ja.id.cmp(&jb.id))
        });
        for &i in &order {
            if leftover == 0 {
                break;
            }
            if grant[i] < jobs[i].spec.demand {
                grant[i] += 1;
                leftover -= 1;
            }
        }
        grants_by_id(jobs, grant)
    }
}

/// An Optimus-style throughput-optimizing scheduler (§8): each free GPU
/// goes to the job with the largest *marginal throughput gain*, estimated
/// from the step-time model. Unlike WFS it ignores priorities entirely —
/// it maximizes aggregate cluster progress.
#[derive(Debug, Clone)]
pub struct ThroughputOptimizer {
    device: vf_device::DeviceProfile,
    link: vf_comm::LinkProfile,
}

impl ThroughputOptimizer {
    /// A throughput optimizer modeling the given device/link.
    pub fn new(device: vf_device::DeviceProfile, link: vf_comm::LinkProfile) -> Self {
        ThroughputOptimizer { device, link }
    }

    /// Steps/second of `job` at `gpus` (0 at 0 GPUs).
    fn rate(&self, job: &JobState, gpus: u32) -> f64 {
        if gpus == 0 {
            0.0
        } else {
            1.0 / job.spec.step_time_on(gpus, self.device, &self.link)
        }
    }
}

impl Scheduler for ThroughputOptimizer {
    fn name(&self) -> &'static str {
        "throughput-optimizer"
    }

    fn allocate(&mut self, _now_s: f64, jobs: &[JobState], capacity: u32) -> BTreeMap<JobId, u32> {
        // Per-job grants and the marginal gain of one more GPU, indexed by
        // position in `jobs`; a grant changes only the granted job's gain.
        let gain_at = |j: &JobState, g: u32| {
            if g < j.spec.demand {
                self.rate(j, g + 1) - self.rate(j, g)
            } else {
                f64::NEG_INFINITY // at its demand: never the best
            }
        };
        let mut grant = vec![0u32; jobs.len()];
        let mut gain: Vec<f64> = jobs.iter().map(|j| gain_at(j, 0)).collect();
        for _ in 0..capacity {
            // Give the next GPU to the job with the best marginal gain
            // (ties to the smaller id).
            let best = (0..jobs.len()).max_by(|&a, &b| {
                cmp_f64(gain[a], gain[b]).then(jobs[b].spec.id.cmp(&jobs[a].spec.id))
            });
            match best {
                Some(i) if gain[i] > 0.0 => {
                    grant[i] += 1;
                    gain[i] = gain_at(&jobs[i], grant[i]);
                }
                _ => break, // no job benefits from another GPU
            }
        }
        grants_by_id(jobs, grant)
    }
}

/// A priority scheduler without elasticity: jobs start with their full
/// demand in priority order and hold it until completion; the queue head
/// blocks everything behind it.
#[derive(Debug, Clone, Default)]
pub struct StaticPriority {
    running: BTreeMap<JobId, u32>,
}

impl StaticPriority {
    /// A fresh baseline scheduler.
    pub fn new() -> Self {
        StaticPriority::default()
    }
}

impl Scheduler for StaticPriority {
    fn name(&self) -> &'static str {
        "static-priority"
    }

    fn allocate(&mut self, _now_s: f64, jobs: &[JobState], capacity: u32) -> BTreeMap<JobId, u32> {
        let by_id: BTreeMap<JobId, &JobState> = jobs.iter().map(|j| (j.spec.id, j)).collect();
        // Drop finished/absent jobs.
        self.running
            .retain(|id, _| by_id.get(id).is_some_and(|j| !j.is_finished()));
        // If the cluster shrank below what is running, this scheduler
        // cannot resize — it must evict whole jobs, lowest priority first
        // (they requeue and later restart at full demand).
        while self.running.values().sum::<u32>() > capacity {
            // The retain above keeps only ids present in `jobs`, so the
            // lookup can miss only if that invariant breaks; such ids sort
            // first so they are evicted, not kept.
            let victim = self
                .running
                .keys()
                .min_by_key(|id| by_id.get(id).map(|j| (j.spec.priority, Reverse(j.spec.id))))
                .copied();
            let Some(victim) = victim else {
                break;
            };
            self.running.remove(&victim);
        }
        let used: u32 = self.running.values().sum();
        let mut free = capacity.saturating_sub(used);
        // Queue in (priority desc, arrival asc, id asc) order; no backfill —
        // if the head does not fit, everything behind it waits.
        let mut queue: Vec<&JobState> = jobs
            .iter()
            .filter(|j| !j.is_finished() && !self.running.contains_key(&j.spec.id))
            .collect();
        queue.sort_by(|a, b| {
            (b.spec.priority.cmp(&a.spec.priority))
                .then(cmp_f64(a.spec.arrival_s, b.spec.arrival_s))
                .then(a.spec.id.cmp(&b.spec.id))
        });
        for job in queue {
            let demand = job.spec.demand;
            if demand <= free {
                self.running.insert(job.spec.id, demand);
                free -= demand;
            } else {
                break;
            }
        }
        self.running.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use proptest::prelude::*;
    use vf_models::profile::resnet56;

    fn job(id: u32, priority: u32, demand: u32, arrival: f64) -> JobState {
        JobState::new(JobSpec {
            id: JobId(id),
            name: format!("j{id}"),
            priority,
            demand,
            total_vns: demand * 4,
            model: resnet56(),
            micro_batch: 32,
            total_steps: 1000,
            arrival_s: arrival,
        })
    }

    #[test]
    fn wfs_gives_full_demand_when_uncontended() {
        let jobs = vec![job(0, 1, 4, 0.0), job(1, 5, 2, 0.0)];
        let alloc = ElasticWfs::new().allocate(0.0, &jobs, 16);
        assert_eq!(alloc[&JobId(0)], 4);
        assert_eq!(alloc[&JobId(1)], 2);
    }

    #[test]
    fn wfs_respects_capacity_and_demand() {
        let jobs = vec![job(0, 1, 4, 0.0), job(1, 5, 4, 0.0), job(2, 10, 4, 0.0)];
        let alloc = ElasticWfs::new().allocate(0.0, &jobs, 8);
        let total: u32 = alloc.values().sum();
        assert!(total <= 8);
        for (id, g) in &alloc {
            let demand = jobs.iter().find(|j| j.spec.id == *id).unwrap().spec.demand;
            assert!(*g <= demand);
        }
    }

    #[test]
    fn wfs_favors_high_priority_under_contention() {
        let jobs = vec![job(0, 1, 8, 0.0), job(1, 10, 8, 0.0)];
        let alloc = ElasticWfs::new().allocate(0.0, &jobs, 8);
        assert!(alloc[&JobId(1)] > alloc[&JobId(0)]);
        assert_eq!(alloc.values().sum::<u32>(), 8);
    }

    #[test]
    fn wfs_gives_everyone_at_least_one_gpu_when_possible() {
        let jobs: Vec<JobState> = (0..4).map(|i| job(i, 1 + i, 8, 0.0)).collect();
        let alloc = ElasticWfs::new().allocate(0.0, &jobs, 4);
        assert_eq!(alloc.len(), 4);
        assert!(alloc.values().all(|&g| g == 1));
    }

    #[test]
    fn wfs_is_work_conserving() {
        // All capacity is used whenever total demand allows it.
        let jobs = vec![job(0, 1, 3, 0.0), job(1, 5, 3, 0.0), job(2, 10, 3, 0.0)];
        let alloc = ElasticWfs::new().allocate(0.0, &jobs, 8);
        assert_eq!(alloc.values().sum::<u32>(), 8);
    }

    #[test]
    fn wfs_with_no_jobs_or_capacity_is_empty() {
        assert!(ElasticWfs::new().allocate(0.0, &[], 8).is_empty());
        let jobs = vec![job(0, 1, 4, 0.0)];
        assert!(ElasticWfs::new().allocate(0.0, &jobs, 0).is_empty());
    }

    #[test]
    fn srtf_policy_favors_short_jobs() {
        let mut long = job(0, 5, 8, 0.0);
        long.remaining_steps = 10_000.0;
        let mut short = job(1, 5, 8, 0.0);
        short.remaining_steps = 10.0;
        let alloc =
            ElasticWfs::with_policy(WeightPolicy::Srtf).allocate(0.0, &[long, short], 8);
        assert!(alloc[&JobId(1)] > alloc[&JobId(0)]);
    }

    #[test]
    fn throughput_optimizer_prefers_jobs_that_scale() {
        use vf_comm::LinkProfile;
        use vf_device::{DeviceProfile, DeviceType};
        // A small-gradient job (ResNet-56) scales nearly linearly; a
        // BERT-BASE job over a slow link saturates quickly. The optimizer
        // should pour GPUs into the scalable one.
        let mut scalable = job(0, 5, 8, 0.0);
        scalable.spec.total_vns = 8;
        let mut saturating = job(1, 5, 8, 0.0);
        saturating.spec.model = vf_models::profile::bert_base();
        saturating.spec.micro_batch = 8;
        saturating.spec.total_vns = 8;
        let mut sched = ThroughputOptimizer::new(
            DeviceProfile::of(DeviceType::V100),
            LinkProfile::paper_testbed(),
        );
        let alloc = sched.allocate(0.0, &[scalable, saturating], 8);
        assert!(
            alloc[&JobId(0)] > alloc[&JobId(1)],
            "scalable job should dominate: {alloc:?}"
        );
        assert!(alloc.values().sum::<u32>() <= 8);
    }

    #[test]
    fn throughput_optimizer_stops_when_gpus_stop_helping() {
        use vf_comm::LinkProfile;
        use vf_device::{DeviceProfile, DeviceType};
        // One job with 2 virtual nodes cannot use more than 2 GPUs.
        let mut j = job(0, 5, 8, 0.0);
        j.spec.total_vns = 2;
        let mut sched = ThroughputOptimizer::new(
            DeviceProfile::of(DeviceType::V100),
            LinkProfile::nvlink(),
        );
        let alloc = sched.allocate(0.0, &[j], 8);
        assert!(alloc[&JobId(0)] <= 2, "{alloc:?}");
    }

    #[test]
    fn las_policy_favors_jobs_with_least_attained_service() {
        let mut veteran = job(0, 5, 8, 0.0);
        veteran.remaining_steps = 100.0; // has run 900 steps
        let mut newcomer = job(1, 5, 8, 0.0);
        newcomer.remaining_steps = 1000.0; // has run nothing
        let alloc =
            ElasticWfs::with_policy(WeightPolicy::Las).allocate(0.0, &[veteran, newcomer], 8);
        assert!(
            alloc[&JobId(1)] > alloc[&JobId(0)],
            "the job with no attained service must be favored: {alloc:?}"
        );
    }

    #[test]
    fn static_priority_starts_jobs_in_priority_order() {
        let jobs = vec![job(0, 1, 4, 0.0), job(1, 10, 4, 0.0), job(2, 5, 4, 0.0)];
        let alloc = StaticPriority::new().allocate(0.0, &jobs, 8);
        assert_eq!(alloc.get(&JobId(1)), Some(&4));
        assert_eq!(alloc.get(&JobId(2)), Some(&4));
        assert_eq!(alloc.get(&JobId(0)), None);
    }

    #[test]
    fn static_priority_never_resizes_running_jobs() {
        let mut sched = StaticPriority::new();
        let jobs = vec![job(0, 1, 4, 0.0)];
        let a1 = sched.allocate(0.0, &jobs, 4);
        assert_eq!(a1[&JobId(0)], 4);
        // A higher-priority job arrives; the running job keeps its GPUs.
        let jobs2 = vec![job(0, 1, 4, 0.0), job(1, 10, 4, 10.0)];
        let a2 = sched.allocate(10.0, &jobs2, 4);
        assert_eq!(a2[&JobId(0)], 4);
        assert_eq!(a2.get(&JobId(1)), None, "no free GPUs, must queue");
    }

    #[test]
    fn static_priority_head_of_line_blocks() {
        // Head needs 4, only 2 free; a later 2-GPU job must NOT jump ahead.
        let jobs = vec![job(0, 10, 4, 0.0), job(1, 5, 2, 0.0), job(2, 10, 4, 0.0)];
        let mut sched = StaticPriority::new();
        let alloc = sched.allocate(0.0, &jobs, 6);
        assert_eq!(alloc.get(&JobId(0)), Some(&4));
        assert_eq!(alloc.get(&JobId(2)), None, "head of line blocks");
        assert_eq!(alloc.get(&JobId(1)), None);
    }

    #[test]
    fn static_priority_releases_finished_jobs() {
        let mut sched = StaticPriority::new();
        let mut j0 = job(0, 5, 4, 0.0);
        sched.allocate(0.0, std::slice::from_ref(&j0), 4);
        j0.remaining_steps = 0.0;
        let jobs = vec![j0, job(1, 1, 4, 1.0)];
        let alloc = sched.allocate(1.0, &jobs, 4);
        assert_eq!(alloc.get(&JobId(0)), None);
        assert_eq!(alloc.get(&JobId(1)), Some(&4));
    }

    proptest! {
        /// The laws of Algorithm 1, for any job set, capacity and weight
        /// policy — and for the job table in any order.
        #[test]
        fn prop_wfs_allocation_laws(
            // (priority, demand, arrival, steps done of 1000, shuffle key);
            // small integer ranges so that weights and arrivals tie often.
            rows in proptest::collection::vec(
                (1u32..=10, 0u32..=8, 0u32..4, 0u32..=1000, any::<u64>()),
                0..24,
            ),
            capacity in 0u32..64,
        ) {
            let jobs: Vec<JobState> = rows
                .iter()
                .enumerate()
                .map(|(id, &(priority, demand, arrival, done, _))| {
                    let mut j = job(id as u32, priority, demand, f64::from(arrival));
                    j.remaining_steps -= f64::from(done);
                    j
                })
                .collect();
            let mut shuffled: Vec<usize> = (0..jobs.len()).collect();
            shuffled.sort_by_key(|&i| rows[i].4);
            let shuffled: Vec<JobState> = shuffled.into_iter().map(|i| jobs[i].clone()).collect();
            let total_demand: u32 = jobs.iter().map(|j| j.spec.demand).sum();
            for policy in [WeightPolicy::Priority, WeightPolicy::Srtf, WeightPolicy::Las] {
                let alloc = ElasticWfs::with_policy(policy).allocate(0.0, &jobs, capacity);
                prop_assert_eq!(
                    alloc.values().sum::<u32>(),
                    capacity.min(total_demand),
                    "{:?}: capacity respected and work conserved", policy
                );
                prop_assert!(alloc.values().all(|&g| g > 0), "{policy:?}: zero entry");
                for j in &jobs {
                    let g = alloc.get(&j.spec.id).copied().unwrap_or(0);
                    prop_assert!(g <= j.spec.demand, "{policy:?}: {g} > demand of {}", j.spec.id);
                    if capacity as usize >= jobs.len() && j.spec.demand > 0 {
                        prop_assert!(g >= 1, "{policy:?}: {} starved", j.spec.id);
                    }
                }
                prop_assert_eq!(
                    ElasticWfs::with_policy(policy).allocate(0.0, &shuffled, capacity),
                    alloc,
                    "{:?}: result depends on the order of the job table", policy
                );
            }
        }
    }

    #[test]
    fn wfs_determinism() {
        let jobs = vec![job(0, 5, 4, 0.0), job(1, 5, 4, 0.0), job(2, 5, 4, 0.0)];
        let a = ElasticWfs::new().allocate(0.0, &jobs, 10);
        let b = ElasticWfs::new().allocate(0.0, &jobs, 10);
        assert_eq!(a, b);
    }
}
