//! `ElasticWfs::allocate` is the allocator it replaced, result for result.
//!
//! `reference` below is the previous body of `ElasticWfs::allocate`, as it
//! was written before the allocator kept its buffers between calls: a
//! stable index sort through `cmp_f64`, fresh vectors per call and a second
//! sort for the largest remainders. The tests compare its map with `==`
//! against a fresh scheduler's and against one warm scheduler's, reused
//! across tables of every size so that its buffers are always dirty, under
//! all three weight policies; and against every call of the `sched_elastic`
//! benchmark's simulation at two seeds.
//!
//! Both allocators subtract the water-filled whole GPUs from the free ones
//! in `u32`. A water-fill round whose active jobs all weigh 0 (priority 0
//! under `WeightPolicy::Priority`) divides 0 by 0, hands each of them its
//! whole headroom, and can so take more GPUs than are free: the subtraction
//! then overflows, a panic in debug builds (both wrap alike in release).
//! The comparison therefore covers the outcome, panic included; about one
//! generated case in eighty hits it.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vf_sched::sim::{run_trace, SimConfig};
use vf_sched::trace::poisson_trace;
use vf_sched::{ElasticWfs, JobId, JobSpec, JobState, Scheduler, WeightPolicy};

const POLICIES: [WeightPolicy; 3] = [
    WeightPolicy::Priority,
    WeightPolicy::Srtf,
    WeightPolicy::Las,
];

/// The allocator before this rewrite, kept as the oracle.
mod reference {
    use std::cmp::Ordering;
    use std::collections::BTreeMap;
    use vf_sched::{JobId, JobState, WeightPolicy};

    fn cmp_f64(a: f64, b: f64) -> Ordering {
        a.partial_cmp(&b).unwrap_or(Ordering::Equal)
    }

    fn grants_by_id(jobs: &[JobState], grants: Vec<u32>) -> BTreeMap<JobId, u32> {
        let held = jobs.iter().zip(grants).filter(|&(_, g)| g > 0);
        held.map(|(j, g)| (j.spec.id, g)).collect()
    }

    fn weight(policy: WeightPolicy, job: &JobState) -> f64 {
        match policy {
            WeightPolicy::Priority => job.spec.priority as f64,
            WeightPolicy::Srtf => 1.0 / job.remaining_steps.max(1.0),
            WeightPolicy::Las => {
                let attained = (job.spec.total_steps as f64 - job.remaining_steps).max(0.0);
                1.0 / (attained + 1.0)
            }
        }
    }

    pub fn allocate(
        policy: WeightPolicy,
        jobs: &[JobState],
        capacity: u32,
    ) -> BTreeMap<JobId, u32> {
        if jobs.is_empty() || capacity == 0 {
            return BTreeMap::new();
        }
        // Weights, shares and grants live in vectors indexed by position in
        // `jobs`; the passes below walk positions, not ids.
        let weight: Vec<f64> = jobs.iter().map(|j| weight(policy, j)).collect();
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
        let mut active: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| jobs[i].spec.demand > 1)
            .collect();
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

/// The map `allocate` returns, or `None` if it panicked.
type Outcome = Option<BTreeMap<JobId, u32>>;

fn outcome(f: impl FnOnce() -> BTreeMap<JobId, u32>) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn job(id: u32, priority: u32, demand: u32, arrival_s: f64, remaining_steps: f64) -> JobState {
    let mut state = JobState::new(JobSpec {
        id: JobId(id),
        name: format!("j{id}"),
        priority,
        demand,
        total_vns: demand.max(1) * 2,
        model: vf_models::profile::resnet56(),
        micro_batch: 32,
        total_steps: 1000,
        arrival_s,
    });
    state.remaining_steps = remaining_steps;
    state
}

/// A shuffled table of `n` jobs with ids `0..n`: priorities 0–10, demands
/// 0–8, arrivals from five values (−0.0 and +0.0 among them) so that ties
/// are common, and remaining work that gives SRTF and LAS weights of the
/// form 1/k — whose sums round differently in different orders — or with
/// long mantissas.
fn table(rng: &mut StdRng, n: u32) -> Vec<JobState> {
    const ARRIVALS: [f64; 5] = [-0.0, 0.0, 1.0, 2.5, 1e3];
    let mut jobs: Vec<JobState> = (0..n)
        .map(|id| {
            let remaining = match rng.gen_range(0u32..4) {
                0 => 1000.0,
                1 => f64::from(rng.gen_range(1u32..=12)),
                2 => f64::from(1000 - rng.gen_range(1u32..=12)),
                _ => rng.gen_range(0.0..1000.0),
            };
            job(
                id,
                rng.gen_range(0..=10),
                rng.gen_range(0..=8),
                ARRIVALS[rng.gen_range(0..ARRIVALS.len())],
                remaining,
            )
        })
        .collect();
    jobs.shuffle(rng);
    jobs
}

#[test]
fn generated_tables_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(43);
    // One warm scheduler per policy, reused across every table.
    let mut warm = POLICIES.map(ElasticWfs::with_policy);
    let (mut cases, mut panicked) = (0, 0);
    for round in 0..600 {
        // Mostly small tables, where one share's last bit decides more
        // often, and every few rounds one past the sorts' small-slice
        // thresholds, up to 300 jobs.
        let n = if round % 4 == 0 {
            rng.gen_range(0..=300)
        } else {
            rng.gen_range(0..=8)
        };
        let jobs = table(&mut rng, n);
        let total_demand: u32 = jobs.iter().map(|j| j.spec.demand).sum();
        let capacity = rng.gen_range(0..=2 * total_demand);
        for (policy, warm) in POLICIES.into_iter().zip(&mut warm) {
            let expected = outcome(|| reference::allocate(policy, &jobs, capacity));
            let fresh = outcome(|| ElasticWfs::with_policy(policy).allocate(0.0, &jobs, capacity));
            let reused = outcome(|| warm.allocate(0.0, &jobs, capacity));
            assert_eq!(fresh, expected, "{policy:?}, {n} jobs, capacity {capacity}");
            assert_eq!(
                reused, expected,
                "warm {policy:?}, {n} jobs, capacity {capacity}"
            );
            cases += 1;
            panicked += usize::from(expected.is_none());
        }
    }
    // Most cases are defined; the comparison must not be one of panics.
    assert!(
        panicked * 10 < cases,
        "{panicked} of {cases} cases panicked"
    );
}

/// A table on which summing the water-fill's weights in table order
/// instead of weight order changes the result: job 1 would get 5 GPUs and
/// job 3 one. (Found by a search over small LAS tables.)
#[test]
fn total_weight_is_summed_in_weight_order() {
    let jobs = [
        job(3, 8, 2, 1.0, 995.0),
        job(2, 5, 8, 0.0, 999.0),
        job(0, 8, 1, 1.0, 3.0),
        job(1, 2, 6, 1.0, 1000.0),
    ];
    let expected = BTreeMap::from([(JobId(0), 1), (JobId(1), 4), (JobId(2), 3), (JobId(3), 2)]);
    assert_eq!(reference::allocate(WeightPolicy::Las, &jobs, 10), expected);
    let mut wfs = ElasticWfs::with_policy(WeightPolicy::Las);
    assert_eq!(wfs.allocate(0.0, &jobs, 10), expected);
}

/// xorshift64*, as the `sched_elastic` benchmark jitters its arrivals.
struct XorShift(u64);

impl XorShift {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `sched_elastic` benchmark's trace and cluster at `seed`: 800 Poisson
/// jobs at 140 an hour, demand ≤ 8, base seed 2022, every arrival moved by
/// up to a minute either way, on 256 GPUs.
fn benchmark_trace(seed: u64) -> (Vec<JobSpec>, SimConfig) {
    let config = SimConfig::v100_cluster(256);
    let mut trace = poisson_trace(800, 140.0, 8, 2022, &config.link);
    let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    for job in &mut trace {
        let jitter = (2.0 * rng.unit() - 1.0) * 60.0;
        job.arrival_s = (job.arrival_s + jitter).max(0.0);
    }
    (trace, config)
}

/// Elastic WFS that checks every call against the reference.
#[derive(Default)]
struct Checked {
    inner: ElasticWfs,
    calls: u32,
}

impl Scheduler for Checked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, now_s: f64, jobs: &[JobState], capacity: u32) -> BTreeMap<JobId, u32> {
        let got = self.inner.allocate(now_s, jobs, capacity);
        let expected = reference::allocate(WeightPolicy::Priority, jobs, capacity);
        assert_eq!(got, expected, "call {} at {now_s} s", self.calls);
        self.calls += 1;
        got
    }
}

#[test]
fn every_call_of_the_benchmark_simulation_matches_the_reference() {
    // (seed, scheduling events, resizes), as the benchmark counts them.
    for (seed, events, resizes) in [(2022, 1600, 5587), (7, 1600, 5702)] {
        let (trace, config) = benchmark_trace(seed);
        let mut scheduler = Checked::default();
        let result = run_trace(&trace, &mut scheduler, &config);
        assert_eq!(scheduler.calls, events, "seed {seed}");
        let total: u32 = result.jobs.iter().map(|j| j.resizes).sum();
        assert_eq!(total, resizes, "seed {seed}");
    }
}
