//! Workload traces: the paper's Table 3 mix, the 3-job trace of Figure 12,
//! and the 20-job Poisson trace of Figures 13–14.

use crate::job::{JobId, JobSpec};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vf_comm::LinkProfile;
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::{bert_base, resnet50, resnet56, transformer_wmt};
use vf_models::ModelProfile;

/// One row of Table 3: a model/dataset with its candidate batch sizes and
/// virtual-nodes-per-GPU settings, plus the canonical per-VN micro-batch
/// that saturates a V100.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTemplate {
    /// Workload name, e.g. `"ResNet-50/ImageNet"`.
    pub name: String,
    /// Model cost profile.
    pub model: ModelProfile,
    /// Candidate global batch sizes.
    pub batch_sizes: Vec<usize>,
    /// Candidate virtual nodes per GPU.
    pub vn_per_gpu: Vec<u32>,
    /// Examples per virtual node (the device-saturating micro-batch).
    pub micro_batch: usize,
}

/// The workload mix of Table 3.
pub fn paper_workload_mix() -> Vec<WorkloadTemplate> {
    vec![
        WorkloadTemplate {
            name: "ResNet-56/cifar10".to_string(),
            model: resnet56(),
            batch_sizes: vec![64, 128],
            vn_per_gpu: vec![1],
            micro_batch: 64,
        },
        WorkloadTemplate {
            name: "ResNet-50/ImageNet".to_string(),
            model: resnet50(),
            batch_sizes: vec![256, 512, 1024, 2048, 4096, 8192],
            vn_per_gpu: vec![1, 2, 4],
            micro_batch: 256,
        },
        WorkloadTemplate {
            name: "BERT-BASE/CoLA".to_string(),
            model: bert_base(),
            batch_sizes: vec![8, 16, 32, 64, 128],
            vn_per_gpu: vec![1, 2],
            micro_batch: 8,
        },
        WorkloadTemplate {
            name: "BERT-BASE/SST-2".to_string(),
            model: bert_base(),
            batch_sizes: vec![8, 16, 32, 64, 128],
            vn_per_gpu: vec![1, 2],
            micro_batch: 8,
        },
        WorkloadTemplate {
            name: "Transformer/WMT".to_string(),
            model: transformer_wmt(),
            batch_sizes: vec![4096, 8192, 16384, 32768, 65536],
            vn_per_gpu: vec![1, 2],
            micro_batch: 4096,
        },
    ]
}

/// Builds a concrete job from a workload template.
///
/// The virtual node count is `batch_size / micro_batch` (floored at 1) and
/// the GPU demand follows from the requested virtual nodes per GPU; the
/// demand is capped at `max_demand`. `target_runtime_s` is converted into a
/// step count for the demanded allocation.
#[allow(
    clippy::too_many_arguments,
    reason = "a job is genuinely nine-dimensional"
)]
pub fn make_job(
    id: u32,
    template: &WorkloadTemplate,
    batch_size: usize,
    vn_per_gpu: u32,
    priority: u32,
    arrival_s: f64,
    target_runtime_s: f64,
    max_demand: u32,
    link: &LinkProfile,
) -> JobSpec {
    let total_vns = ((batch_size / template.micro_batch).max(1)) as u32;
    let vn_per_gpu = vn_per_gpu.clamp(1, total_vns);
    let demand = (total_vns.div_ceil(vn_per_gpu)).clamp(1, max_demand);
    let micro_batch = batch_size / total_vns as usize;
    let mut spec = JobSpec {
        id: JobId(id),
        name: format!("{}@bs{}", template.name, batch_size),
        priority,
        demand,
        total_vns,
        model: template.model.clone(),
        micro_batch,
        total_steps: 1,
        arrival_s,
    };
    let v100 = DeviceProfile::of(DeviceType::V100);
    let step = spec.step_time_on(demand, v100, link);
    spec.total_steps = ((target_runtime_s / step).round() as u64).max(1);
    spec
}

/// The 3-job trace of Figure 12: BERT-BASE/SST-2 (priority 1, 4 GPUs),
/// ResNet-56/cifar10 (priority 5, 2 GPUs), BERT-BASE/QNLI (priority 10,
/// 4 GPUs), arriving in increasing priority order on a 4-GPU machine.
pub fn three_job_trace(link: &LinkProfile) -> Vec<JobSpec> {
    let mix = paper_workload_mix();
    #[expect(
        clippy::expect_used,
        reason = "paper_workload_mix is a static table that always contains SST-2"
    )]
    let bert = mix.iter().find(|w| w.name.contains("SST-2")).expect("mix has SST-2");
    #[expect(
        clippy::expect_used,
        reason = "paper_workload_mix is a static table that always contains cifar10"
    )]
    let resnet = mix.iter().find(|w| w.name.contains("cifar10")).expect("mix has cifar10");
    let mut qnli = bert.clone();
    qnli.name = "BERT-BASE/QNLI".to_string();
    vec![
        // Job 0: long, low priority, wants the whole machine.
        make_job(0, bert, 32, 1, 1, 0.0, 1800.0, 4, link),
        // Job 1: medium, arrives while job 0 runs.
        make_job(1, resnet, 128, 1, 5, 120.0, 900.0, 4, link),
        // Job 2: high priority, arrives last, wants the whole machine.
        make_job(2, &qnli, 32, 1, 10, 240.0, 600.0, 4, link),
    ]
}

/// The 20-job Poisson trace of Figures 13–14: arrivals at `rate_per_hour`
/// (the paper uses 12), workloads drawn uniformly from Table 3, priorities
/// uniformly from {1, 5, 10}.
pub fn poisson_trace(
    num_jobs: u32,
    rate_per_hour: f64,
    max_demand: u32,
    seed: u64,
    link: &LinkProfile,
) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mix = paper_workload_mix();
    let priorities = [1u32, 5, 10];
    let mean_interarrival_s = 3600.0 / rate_per_hour;
    let mut now = 0.0f64;
    let mut jobs = Vec::with_capacity(num_jobs as usize);
    for id in 0..num_jobs {
        let template = &mix[rng.gen_range(0..mix.len())];
        let bs = template.batch_sizes[rng.gen_range(0..template.batch_sizes.len())];
        let vn = template.vn_per_gpu[rng.gen_range(0..template.vn_per_gpu.len())];
        let priority = priorities[rng.gen_range(0..priorities.len())];
        // Exponential interarrival via inverse transform.
        let u: f64 = rng.gen_range(1e-9..1.0);
        now += -mean_interarrival_s * u.ln();
        // Shortened jobs ("a subset of the steps needed for convergence").
        let target = rng.gen_range(600.0..3600.0);
        jobs.push(make_job(
            id, template, bs, vn, priority, now, target, max_demand, link,
        ));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkProfile {
        LinkProfile::nvlink()
    }

    #[test]
    fn mix_matches_table_3() {
        let mix = paper_workload_mix();
        assert_eq!(mix.len(), 5);
        let resnet50 = &mix[1];
        assert_eq!(resnet50.batch_sizes.len(), 6);
        assert_eq!(resnet50.vn_per_gpu, vec![1, 2, 4]);
        let transformer = &mix[4];
        assert_eq!(*transformer.batch_sizes.last().unwrap(), 65536);
    }

    #[test]
    fn make_job_derives_consistent_geometry() {
        let mix = paper_workload_mix();
        let j = make_job(0, &mix[1], 8192, 4, 5, 0.0, 600.0, 16, &link());
        assert_eq!(j.total_vns, 32);
        assert_eq!(j.demand, 8);
        assert_eq!(j.micro_batch, 256);
        assert!(j.total_steps > 0);
    }

    #[test]
    fn make_job_clamps_small_batches() {
        let mix = paper_workload_mix();
        // BERT at batch 8 is a single virtual node regardless of vn_per_gpu.
        let j = make_job(0, &mix[2], 8, 2, 1, 0.0, 600.0, 16, &link());
        assert_eq!(j.total_vns, 1);
        assert_eq!(j.demand, 1);
    }

    #[test]
    fn make_job_caps_demand() {
        let mix = paper_workload_mix();
        let j = make_job(0, &mix[1], 8192, 1, 5, 0.0, 600.0, 4, &link());
        assert_eq!(j.total_vns, 32);
        assert_eq!(j.demand, 4);
    }

    #[test]
    fn target_runtime_is_respected() {
        let mix = paper_workload_mix();
        let j = make_job(0, &mix[0], 128, 1, 5, 0.0, 900.0, 16, &link());
        let v100 = DeviceProfile::of(DeviceType::V100);
        let actual = j.runtime_on(j.demand, v100, &link());
        assert!((actual - 900.0).abs() / 900.0 < 0.05, "runtime {actual}");
    }

    #[test]
    fn three_job_trace_matches_figure_12() {
        let t = three_job_trace(&link());
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.iter().map(|j| j.priority).collect::<Vec<_>>(),
            vec![1, 5, 10]
        );
        assert_eq!(
            t.iter().map(|j| j.demand).collect::<Vec<_>>(),
            vec![4, 2, 4]
        );
        assert!(t[0].arrival_s < t[1].arrival_s);
        assert!(t[1].arrival_s < t[2].arrival_s);
    }

    #[test]
    fn poisson_trace_is_seeded_and_sized() {
        let a = poisson_trace(20, 12.0, 16, 7, &link());
        let b = poisson_trace(20, 12.0, 16, 7, &link());
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        // Arrivals strictly increase and average ~5 minutes apart.
        let mut prev = -1.0;
        for j in &a {
            assert!(j.arrival_s > prev);
            prev = j.arrival_s;
        }
        let mean_gap = a.last().unwrap().arrival_s / 19.0;
        assert!((100.0..900.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn poisson_trace_uses_varied_workloads_and_priorities() {
        let t = poisson_trace(20, 12.0, 16, 3, &link());
        let names: std::collections::BTreeSet<&str> =
            t.iter().map(|j| j.name.split('@').next().unwrap()).collect();
        assert!(names.len() >= 3, "workload variety {names:?}");
        let prios: std::collections::BTreeSet<u32> = t.iter().map(|j| j.priority).collect();
        assert!(prios.len() >= 2);
    }
}
