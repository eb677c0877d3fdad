//! Step-time model for virtual node execution.
//!
//! Combines the device cost primitives (`vf-device`), the communication cost
//! model (`vf-comm`) and a model profile (`vf-models`) into the per-step
//! timing of §3.2/Figure 5: `V` forward+backward passes per device, gradient
//! accumulation after each backward pass, then **one** synchronization and
//! **one** optimizer update per step. This is the machinery behind the
//! throughput results (Figs 9, 11, 16) and the job runtimes used by the
//! cluster scheduler (Figs 12–14).

use crate::overlap;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use vf_comm::allreduce::{ring_allreduce_time_s, split_bucket_bytes};
use vf_comm::{LinkProfile, Topology};
use vf_device::{cost, DeviceProfile};
use vf_models::ModelProfile;

/// How a step's gradient all-reduce is priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncSchedule {
    /// One flat ring over a single link class.
    Ring(LinkProfile),
    /// One flat ring across a two-level topology, gated by its slowest link.
    Flat(Topology),
    /// The hierarchical schedule over a two-level topology: intra-server
    /// reduce, inter-server ring over node leaders, intra-server broadcast.
    Hierarchical(Topology),
}

impl SyncSchedule {
    /// Simulated duration of one all-reduce of `bytes` across `workers`.
    fn allreduce_time_s(&self, bytes: u64, workers: usize) -> f64 {
        match self {
            SyncSchedule::Ring(link) => ring_allreduce_time_s(bytes, workers, link),
            SyncSchedule::Flat(topology) => topology.flat_allreduce_time_s(bytes, workers),
            SyncSchedule::Hierarchical(topology) => {
                topology.hierarchical_allreduce_time_s(bytes, workers)
            }
        }
    }
}

/// How [`step_time`] synchronizes a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOptions {
    /// The all-reduce schedule and the links it runs over.
    pub sync: SyncSchedule,
    /// Gradient-bucket byte threshold, as in `ChaosConfig::bucket_bytes`:
    /// `Some(b)` pipelines fixed `b`-byte buckets under the backward tail
    /// of the last wave. `None` is the closed form of one all-reduce after
    /// all compute, which the figures' bits rest on; the one-bucket
    /// pipeline, `Some(u64::MAX)`, equals it up to the clock's rounding.
    pub bucket_bytes: Option<u64>,
}

impl From<&LinkProfile> for StepOptions {
    /// The paper's schedule: one ring all-reduce over `link` after compute.
    fn from(link: &LinkProfile) -> Self {
        StepOptions { sync: SyncSchedule::Ring(*link), bucket_bytes: None }
    }
}

/// Per-phase breakdown of one training step's simulated duration. Only the
/// synchronization left on the critical path lengthens the step: all of it
/// without buckets, `max(0, comm_end − compute_end)` with them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTimeBreakdown {
    /// Forward+backward compute: max over devices of the sum over that
    /// device's virtual nodes.
    pub compute_s: f64,
    /// Gradient-buffer accumulation time (zero with one VN per device).
    pub accumulate_s: f64,
    /// The compute-gating device's last backward pass, within which bucket
    /// gradients become ready (zero without buckets).
    pub overlappable_s: f64,
    /// Cross-device gradient synchronization: the one all-reduce, or the
    /// comm lane's occupancy summed over the bucket collectives.
    pub sync_s: f64,
    /// Synchronization left on the critical path after overlap (all of
    /// `sync_s` without buckets).
    pub exposed_comm_s: f64,
    /// Optimizer update.
    pub update_s: f64,
    /// Number of collectives the sync ran as (1 without buckets).
    pub buckets: usize,
}

impl StepTimeBreakdown {
    /// Total step duration: compute + accumulate + *exposed* comm + update.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.accumulate_s + self.exposed_comm_s + self.update_s
    }
}

/// The execution shape of a job on a concrete cluster: for each device, its
/// profile and the number of virtual nodes it runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionShape {
    /// `(device profile, virtual nodes on that device)` for every device.
    pub devices: Vec<(DeviceProfile, usize)>,
    /// Examples processed by each virtual node per step.
    pub micro_batch: usize,
}

impl ExecutionShape {
    /// A homogeneous shape: `num_devices` copies of `profile`, each with
    /// `vn_per_device` virtual nodes.
    pub fn homogeneous(
        profile: DeviceProfile,
        num_devices: usize,
        vn_per_device: usize,
        micro_batch: usize,
    ) -> Self {
        ExecutionShape {
            devices: vec![(profile, vn_per_device); num_devices],
            micro_batch,
        }
    }

    /// Total virtual nodes across devices.
    pub fn total_vns(&self) -> usize {
        self.devices.iter().map(|(_, v)| v).sum()
    }

    /// The global batch size implied by this shape.
    pub fn global_batch(&self) -> usize {
        self.total_vns() * self.micro_batch
    }
}

/// One virtual node's forward+backward pass of `micro_batch` examples on
/// device `p`, and the backward part of it.
pub(crate) fn pass_time_s(model: &ModelProfile, p: &DeviceProfile, micro_batch: usize) -> (f64, f64) {
    let flops_per_vn = model.flops_forward_per_example * micro_batch as f64;
    let backward = cost::backward_time_s(p, flops_per_vn);
    (cost::forward_time_s(p, flops_per_vn) + backward, backward)
}

/// Simulated duration of one training step of `model` under `shape`.
///
/// Devices run their virtual nodes sequentially; the step's compute phase
/// ends when the *slowest* device finishes (synchronous training). The
/// gradient buffer is only maintained when a device runs more than one VN.
/// `opts` picks the all-reduce schedule and whether it is bucketed; a plain
/// `&LinkProfile` is the paper's additive ring sync.
pub fn step_time(
    model: &ModelProfile,
    shape: &ExecutionShape,
    opts: impl Into<StepOptions>,
) -> StepTimeBreakdown {
    let opts = opts.into();
    let mut compute_s: f64 = 0.0;
    let mut accumulate_s: f64 = 0.0;
    let mut update_s: f64 = 0.0;
    // The compute-gating device's backward pass: the overlappable tail of
    // the last wave.
    let mut gating_compute_s = f64::NEG_INFINITY;
    let mut window_s: f64 = 0.0;
    for &(profile, vns) in &shape.devices {
        let (pass, backward) = pass_time_s(model, &profile, shape.micro_batch);
        let device_compute = pass * vns as f64;
        if device_compute > gating_compute_s {
            gating_compute_s = device_compute;
            window_s = backward;
        }
        let device_accum = if vns > 1 {
            cost::accumulate_time_s(&profile, model.gradient_bytes()) * vns as f64
        } else {
            0.0
        };
        compute_s = compute_s.max(device_compute);
        accumulate_s = accumulate_s.max(device_accum);
        update_s = update_s.max(cost::update_time_s(
            &profile,
            model.param_bytes(),
            model.optimizer.update_traffic_factor(),
        ));
    }
    let workers = shape.devices.len();
    let Some(bucket_bytes) = opts.bucket_bytes else {
        let sync_s = opts.sync.allreduce_time_s(model.gradient_bytes(), workers);
        return StepTimeBreakdown {
            compute_s,
            accumulate_s,
            overlappable_s: 0.0,
            sync_s,
            exposed_comm_s: sync_s,
            update_s,
            buckets: 1,
        };
    };
    let compute_end = compute_s + accumulate_s;
    let window = window_s.max(0.0).min(compute_end);
    let sizes = split_bucket_bytes(model.gradient_bytes(), bucket_bytes);
    let mut sync_s = 0.0;
    let pipeline = overlap::pipeline_buckets::<Infallible>;
    let Ok(lanes) = pipeline(0.0, compute_end, window, &sizes, |_, bytes, start| {
        let comm_s = opts.sync.allreduce_time_s(bytes, workers);
        // Lane occupancy `(start + comm_s) − start` rather than the raw
        // cost: they differ in the last ulp, and the gated overlap_bench
        // baselines hold these bits.
        sync_s += (start + comm_s) - start;
        Ok(comm_s)
    });
    StepTimeBreakdown {
        compute_s,
        accumulate_s,
        overlappable_s: window,
        sync_s,
        exposed_comm_s: lanes.exposed_comm_s(),
        update_s,
        buckets: sizes.len(),
    }
}

/// Training throughput (examples/second) of `model` under `shape`.
pub fn throughput(model: &ModelProfile, shape: &ExecutionShape, link: &LinkProfile) -> f64 {
    let t = step_time(model, shape, link).total_s();
    shape.global_batch() as f64 / t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_device::DeviceType;
    use vf_models::profile::{bert_base, bert_large, resnet50};

    fn link() -> LinkProfile {
        LinkProfile::paper_testbed()
    }

    fn on(sync: SyncSchedule, bucket_bytes: Option<u64>) -> StepOptions {
        StepOptions { sync, bucket_bytes }
    }

    fn bucketed(bucket_bytes: u64) -> StepOptions {
        on(SyncSchedule::Ring(link()), Some(bucket_bytes))
    }

    #[test]
    fn single_device_has_no_sync_cost() {
        let shape = ExecutionShape::homogeneous(DeviceProfile::of(DeviceType::V100), 1, 4, 8);
        let t = step_time(&bert_base(), &shape, &link());
        assert_eq!(t.sync_s, 0.0);
        assert!(t.compute_s > 0.0);
    }

    #[test]
    fn one_vn_per_device_skips_accumulation() {
        let v100 = DeviceProfile::of(DeviceType::V100);
        let t1 = step_time(&resnet50(), &ExecutionShape::homogeneous(v100, 4, 1, 256), &link());
        assert_eq!(t1.accumulate_s, 0.0);
        let t2 = step_time(&resnet50(), &ExecutionShape::homogeneous(v100, 4, 2, 256), &link());
        assert!(t2.accumulate_s > 0.0);
    }

    #[test]
    fn compute_scales_with_vns_per_device() {
        let v100 = DeviceProfile::of(DeviceType::V100);
        let t1 = step_time(&resnet50(), &ExecutionShape::homogeneous(v100, 1, 1, 256), &link());
        let t4 = step_time(&resnet50(), &ExecutionShape::homogeneous(v100, 1, 4, 256), &link());
        let ratio = t4.compute_s / t1.compute_s;
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn slowest_device_gates_the_step() {
        let v100 = DeviceProfile::of(DeviceType::V100);
        let k80 = DeviceProfile::of(DeviceType::K80);
        let hetero = ExecutionShape {
            devices: vec![(v100, 2), (k80, 2)],
            micro_batch: 64,
        };
        let k80_only = ExecutionShape::homogeneous(k80, 1, 2, 64);
        let th = step_time(&resnet50(), &hetero, &link());
        let tk = step_time(&resnet50(), &k80_only, &link());
        assert!((th.compute_s - tk.compute_s).abs() < 1e-12);
    }

    #[test]
    fn large_model_throughput_rises_with_vn_count_fig16() {
        // Fig 16: BERT-LARGE throughput increases with VNs per device
        // because larger effective batches amortize the expensive update.
        let ti = DeviceProfile::of(DeviceType::Rtx2080Ti);
        let model = bert_large();
        let mb = model.max_micro_batch_virtual(&ti).max(1);
        let t1 = throughput(&model, &ExecutionShape::homogeneous(ti, 1, 1, mb), &link());
        let t8 = throughput(&model, &ExecutionShape::homogeneous(ti, 1, 8, mb), &link());
        assert!(
            t8 > t1 * 1.05,
            "BERT-LARGE throughput should rise ≥5% with 8 VNs: {t1} → {t8}"
        );
    }

    #[test]
    fn small_model_throughput_is_flat_in_vn_count_fig16() {
        // Fig 16: for ResNet-50 the update is cheap relative to a pass, so
        // throughput barely changes with VN count.
        let ti = DeviceProfile::of(DeviceType::Rtx2080Ti);
        let model = resnet50();
        let mb = 128;
        let t1 = throughput(&model, &ExecutionShape::homogeneous(ti, 1, 1, mb), &link());
        let t8 = throughput(&model, &ExecutionShape::homogeneous(ti, 1, 8, mb), &link());
        let ratio = t8 / t1;
        assert!((0.95..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn throughput_scales_with_devices_but_sublinearly() {
        // Within one server (NVLink-class interconnect) scaling is close to
        // linear; the sync term keeps it strictly below.
        let fast = LinkProfile::nvlink();
        let v100 = DeviceProfile::of(DeviceType::V100);
        let model = resnet50();
        let t1 = throughput(&model, &ExecutionShape::homogeneous(v100, 1, 1, 256), &fast);
        let t8 = throughput(&model, &ExecutionShape::homogeneous(v100, 8, 1, 256), &fast);
        assert!(t8 > 4.0 * t1, "8 devices should beat 4x one device");
        assert!(t8 < 8.0 * t1, "sync cost must make scaling sublinear");
    }

    #[test]
    fn cross_machine_sync_dominates_resnet_on_slow_links() {
        // Over the paper's 16 Gbps inter-server link, synchronizing 100 MB
        // of gradients every step is a major cost — the reason reducing the
        // number of synchronizations (more VNs) helps in the first place.
        let v100 = DeviceProfile::of(DeviceType::V100);
        let t = step_time(
            &resnet50(),
            &ExecutionShape::homogeneous(v100, 8, 1, 256),
            &link(),
        );
        assert!(t.sync_s > 0.5 * t.compute_s);
    }

    #[test]
    fn hierarchical_sync_beats_flat_across_servers() {
        let topo = vf_comm::Topology::paper_testbed();
        let shape = ExecutionShape::homogeneous(DeviceProfile::of(DeviceType::V100), 16, 2, 256);
        let model = resnet50();
        let flat = step_time(&model, &shape, on(SyncSchedule::Flat(topo), None));
        let hier = step_time(&model, &shape, on(SyncSchedule::Hierarchical(topo), None));
        assert!(hier.sync_s < flat.sync_s);
        assert_eq!(hier.compute_s, flat.compute_s, "only sync differs");
        assert!(hier.total_s() < flat.total_s());
    }

    #[test]
    fn within_one_server_topology_matches_plain_nvlink_model() {
        let topo = vf_comm::Topology::paper_testbed();
        let shape = ExecutionShape::homogeneous(DeviceProfile::of(DeviceType::V100), 8, 1, 256);
        let model = resnet50();
        let on_topo = step_time(&model, &shape, on(SyncSchedule::Hierarchical(topo), None));
        let plain = step_time(&model, &shape, &LinkProfile::nvlink());
        assert!((on_topo.total_s() - plain.total_s()).abs() / plain.total_s() < 1e-9);
    }

    #[test]
    fn overlapped_step_never_beats_compute_and_never_loses_to_additive() {
        // Across models, shapes, and bucket sizes the overlapped step is
        // bounded below by the non-comm phases and above by the additive
        // model (overlap can only help).
        let ti = DeviceProfile::of(DeviceType::Rtx2080Ti);
        let v100 = DeviceProfile::of(DeviceType::V100);
        for model in [resnet50(), bert_base()] {
            for shape in [
                ExecutionShape::homogeneous(ti, 4, 2, 64),
                ExecutionShape::homogeneous(v100, 8, 1, 128),
                ExecutionShape { devices: vec![(v100, 2), (ti, 2)], micro_batch: 64 },
            ] {
                let add = step_time(&model, &shape, &link());
                let floor = add.compute_s + add.accumulate_s + add.update_s;
                for bucket in [1u64 << 20, 4 << 20, 25 << 20, u64::MAX] {
                    let o = step_time(&model, &shape, bucketed(bucket));
                    assert!(o.total_s() >= floor - 1e-12);
                    // Overlap beats serializing the *same* bucketed comm
                    // after compute; bucketing itself pays extra latency,
                    // never less volume.
                    assert!(o.total_s() <= floor + o.sync_s + 1e-12);
                    assert!(o.exposed_comm_s <= o.sync_s + 1e-12);
                    assert!(o.sync_s >= add.sync_s - 1e-12);
                }
                // A single bucket moves identical bytes in one collective,
                // so overlap can only help vs. the additive model.
                let one = step_time(&model, &shape, bucketed(u64::MAX));
                assert_eq!(one.buckets, 1);
                assert!(one.total_s() <= add.total_s() + 1e-12);
            }
        }
    }

    #[test]
    fn overlap_strictly_improves_the_fig06_class_workload() {
        // ResNet-50 on RTX 2080 Ti across the paper's 16 Gbps link — the
        // comm-heavy regime overlap exists for. The overlapped step must be
        // strictly faster than the additive one.
        let ti = DeviceProfile::of(DeviceType::Rtx2080Ti);
        let model = resnet50();
        let shape = ExecutionShape::homogeneous(ti, 4, 2, 128);
        let add = step_time(&model, &shape, &link());
        let o = step_time(&model, &shape, bucketed(4 << 20));
        assert!(
            o.total_s() < add.total_s(),
            "overlap must shrink the step: {} vs {}",
            o.total_s(),
            add.total_s()
        );
        assert!(o.buckets > 1);
        assert!(o.exposed_comm_s < o.sync_s, "some comm must hide");
    }

    #[test]
    fn global_batch_is_vns_times_micro_batch() {
        let shape =
            ExecutionShape::homogeneous(DeviceProfile::of(DeviceType::V100), 4, 8, 256);
        assert_eq!(shape.total_vns(), 32);
        assert_eq!(shape.global_batch(), 8192);
    }
}
