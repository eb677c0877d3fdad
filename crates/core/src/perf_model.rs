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
use vf_comm::allreduce::{ring_allreduce_time_s, split_bucket_bytes};
use vf_comm::LinkProfile;
use vf_device::{cost, DeviceProfile, TwoLaneClock};
use vf_models::ModelProfile;

/// Per-phase breakdown of one training step's simulated duration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepTimeBreakdown {
    /// Forward+backward compute: max over devices of the sum over that
    /// device's virtual nodes.
    pub compute_s: f64,
    /// Gradient-buffer accumulation time (zero with one VN per device).
    pub accumulate_s: f64,
    /// Cross-device gradient synchronization.
    pub sync_s: f64,
    /// Optimizer update.
    pub update_s: f64,
}

impl StepTimeBreakdown {
    /// Total step duration.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.accumulate_s + self.sync_s + self.update_s
    }
}

/// Overlap-aware per-phase breakdown of one training step.
///
/// Unlike [`StepTimeBreakdown`], synchronization is *not* additive: bucketed
/// collectives are pipelined under the backward tail of the last wave, so
/// only the communication sticking out past the end of compute
/// (`exposed_comm_s = max(0, comm_end − compute_end)`) lengthens the step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapStepBreakdown {
    /// Forward+backward compute (same as the additive model).
    pub compute_s: f64,
    /// Gradient-buffer accumulation (same as the additive model).
    pub accumulate_s: f64,
    /// Overlappable backward window: the backward tail of the compute-gating
    /// device's last wave, within which bucket gradients become ready.
    pub overlappable_s: f64,
    /// Total communication across all bucket collectives.
    pub total_comm_s: f64,
    /// Communication left exposed on the critical path after overlap.
    pub exposed_comm_s: f64,
    /// Optimizer update.
    pub update_s: f64,
    /// Number of gradient buckets the sync ran as.
    pub buckets: usize,
}

impl OverlapStepBreakdown {
    /// Total step duration: compute + accumulate + *exposed* comm + update.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.accumulate_s + self.exposed_comm_s + self.update_s
    }

    /// Communication hidden under backward compute.
    pub fn hidden_comm_s(&self) -> f64 {
        self.total_comm_s - self.exposed_comm_s
    }

    /// Fraction of total communication left exposed (0 when there is no
    /// communication at all).
    pub fn exposed_fraction(&self) -> f64 {
        if self.total_comm_s > 0.0 {
            self.exposed_comm_s / self.total_comm_s
        } else {
            0.0
        }
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

/// Simulated duration of one training step of `model` under `shape`.
///
/// Devices run their virtual nodes sequentially; the step's compute phase
/// ends when the *slowest* device finishes (synchronous training). The
/// gradient buffer is only maintained when a device runs more than one VN.
pub fn step_time(model: &ModelProfile, shape: &ExecutionShape, link: &LinkProfile) -> StepTimeBreakdown {
    let flops_per_vn = model.flops_forward_per_example * shape.micro_batch as f64;
    let mut compute_s: f64 = 0.0;
    let mut accumulate_s: f64 = 0.0;
    let mut update_s: f64 = 0.0;
    for &(profile, vns) in &shape.devices {
        let pass =
            cost::forward_time_s(&profile, flops_per_vn) + cost::backward_time_s(&profile, flops_per_vn);
        let device_compute = pass * vns as f64;
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
    let sync_s = ring_allreduce_time_s(model.gradient_bytes(), shape.devices.len(), link);
    StepTimeBreakdown {
        compute_s,
        accumulate_s,
        sync_s,
        update_s,
    }
}

/// Training throughput (examples/second) of `model` under `shape`.
pub fn throughput(model: &ModelProfile, shape: &ExecutionShape, link: &LinkProfile) -> f64 {
    let t = step_time(model, shape, link).total_s();
    shape.global_batch() as f64 / t
}

/// The backward time of the device that gates the compute phase (the
/// slowest device) — the overlappable tail of the last wave.
fn overlappable_window_s(model: &ModelProfile, shape: &ExecutionShape) -> f64 {
    let flops_per_vn = model.flops_forward_per_example * shape.micro_batch as f64;
    let mut slowest_compute = f64::NEG_INFINITY;
    let mut window = 0.0;
    for &(profile, vns) in &shape.devices {
        let pass = cost::forward_time_s(&profile, flops_per_vn)
            + cost::backward_time_s(&profile, flops_per_vn);
        let device_compute = pass * vns as f64;
        if device_compute > slowest_compute {
            slowest_compute = device_compute;
            window = cost::backward_time_s(&profile, flops_per_vn);
        }
    }
    window.max(0.0)
}

/// Builds the overlap-aware breakdown from an additive one: buckets become
/// ready uniformly across the overlappable window (which ends when compute
/// ends) and a sequential comm lane serves them.
fn overlap_breakdown(
    base: StepTimeBreakdown,
    window_s: f64,
    bucket_sizes: &[u64],
    workers: usize,
    link: &LinkProfile,
) -> OverlapStepBreakdown {
    let compute_end = base.compute_s + base.accumulate_s;
    let window = window_s.min(compute_end);
    let ready = overlap::bucket_ready_times(compute_end - window, window, bucket_sizes.len());
    let mut lanes = TwoLaneClock::new(0.0);
    lanes.advance_compute(compute_end);
    let mut total_comm_s = 0.0;
    for (&bytes, &ready_s) in bucket_sizes.iter().zip(&ready) {
        let start = lanes.begin_comm(ready_s);
        lanes.advance_comm(ring_allreduce_time_s(bytes, workers, link));
        // Lane occupancy rather than the raw cost: they differ in the last
        // ulp, and the gated overlap_bench baselines hold these bits.
        total_comm_s += lanes.comm_now() - start;
    }
    OverlapStepBreakdown {
        compute_s: base.compute_s,
        accumulate_s: base.accumulate_s,
        overlappable_s: window,
        total_comm_s,
        exposed_comm_s: lanes.exposed_comm_s(),
        update_s: base.update_s,
        buckets: bucket_sizes.len(),
    }
}

/// Overlap-aware variant of [`step_time`]: the gradient is split into
/// fixed buckets of `bucket_bytes` and each bucket's ring all-reduce is
/// pipelined under the backward tail. With `bucket_bytes ≥ gradient_bytes`
/// the schedule degrades to one bucket launched when the window opens.
pub fn step_time_overlapped(
    model: &ModelProfile,
    shape: &ExecutionShape,
    link: &LinkProfile,
    bucket_bytes: u64,
) -> OverlapStepBreakdown {
    let base = step_time(model, shape, link);
    let sizes = split_bucket_bytes(model.gradient_bytes(), bucket_bytes);
    overlap_breakdown(
        base,
        overlappable_window_s(model, shape),
        &sizes,
        shape.devices.len(),
        link,
    )
}

/// Like [`step_time`], but synchronizing over a two-level [`vf_comm::Topology`]
/// (e.g. the paper's 2×8-GPU testbed), either with a flat ring spanning
/// both servers or with the hierarchical schedule.
pub fn step_time_on_topology(
    model: &ModelProfile,
    shape: &ExecutionShape,
    topology: &vf_comm::Topology,
    hierarchical: bool,
) -> StepTimeBreakdown {
    // Compute/accumulate/update phases are link-independent; reuse them.
    let mut t = step_time(model, shape, &topology.intra);
    let gpus = shape.devices.len();
    t.sync_s = if hierarchical {
        topology.hierarchical_allreduce_time_s(model.gradient_bytes(), gpus)
    } else {
        topology.flat_allreduce_time_s(model.gradient_bytes(), gpus)
    };
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_device::DeviceType;
    use vf_models::profile::{bert_base, bert_large, resnet50};

    fn link() -> LinkProfile {
        LinkProfile::paper_testbed()
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
        let flat = step_time_on_topology(&model, &shape, &topo, false);
        let hier = step_time_on_topology(&model, &shape, &topo, true);
        assert!(hier.sync_s < flat.sync_s);
        assert_eq!(hier.compute_s, flat.compute_s, "only sync differs");
        assert!(hier.total_s() < flat.total_s());
    }

    #[test]
    fn within_one_server_topology_matches_plain_nvlink_model() {
        let topo = vf_comm::Topology::paper_testbed();
        let shape = ExecutionShape::homogeneous(DeviceProfile::of(DeviceType::V100), 8, 1, 256);
        let model = resnet50();
        let on_topo = step_time_on_topology(&model, &shape, &topo, true);
        let plain = step_time(&model, &shape, &LinkProfile::nvlink());
        assert!((on_topo.total_s() - plain.total_s()).abs() / plain.total_s() < 1e-9);
    }

    #[test]
    fn exposed_comm_is_zero_when_comm_fits_under_backward() {
        // 4 equal buckets streaming through a 2s backward window; each
        // bucket costs 0.1s on the wire — far under the 0.5s ready spacing,
        // so every collective hides completely.
        let base = StepTimeBreakdown {
            compute_s: 10.0,
            accumulate_s: 0.0,
            sync_s: f64::NAN, // unused by the overlap path
            update_s: 0.25,
        };
        let bytes = 1u64 << 20;
        let wire = LinkProfile { latency_s: 0.0, bandwidth: bytes as f64 * 10.0 };
        // workers=2 ⇒ ring time = bytes / bandwidth = 0.1s per bucket.
        let o = overlap_breakdown(base, 2.0, &[bytes; 4], 2, &wire);
        assert_eq!(o.exposed_comm_s, 0.0);
        assert!((o.total_comm_s - 0.4).abs() < 1e-12);
        assert!((o.total_s() - (10.0 + 0.25)).abs() < 1e-12);
        assert!((o.hidden_comm_s() - 0.4).abs() < 1e-12);
        assert_eq!(o.exposed_fraction(), 0.0);
    }

    #[test]
    fn exposed_comm_is_comm_minus_backward_tail_when_it_does_not_fit() {
        // Each bucket costs 1.0s ≥ the 0.5s ready spacing, so the comm lane
        // runs back-to-back from the first ready point: exactly
        // total_comm − window seconds stick out past the end of compute.
        let base = StepTimeBreakdown {
            compute_s: 10.0,
            accumulate_s: 0.0,
            sync_s: f64::NAN,
            update_s: 0.0,
        };
        let bytes = 1u64 << 20;
        let wire = LinkProfile { latency_s: 0.0, bandwidth: bytes as f64 };
        let window = 2.0;
        let o = overlap_breakdown(base, window, &[bytes; 4], 2, &wire);
        assert!((o.total_comm_s - 4.0).abs() < 1e-12);
        assert!((o.exposed_comm_s - (o.total_comm_s - window)).abs() < 1e-12);
        assert!((o.total_s() - (10.0 + 4.0 - window)).abs() < 1e-12);
        assert!((o.exposed_fraction() - 0.5).abs() < 1e-12);
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
                    let o = step_time_overlapped(&model, &shape, &link(), bucket);
                    assert!(o.total_s() >= floor - 1e-12);
                    // Overlap beats serializing the *same* bucketed comm
                    // after compute; bucketing itself pays extra latency,
                    // never less volume.
                    assert!(o.total_s() <= floor + o.total_comm_s + 1e-12);
                    assert!(o.exposed_comm_s <= o.total_comm_s + 1e-12);
                    assert!(o.total_comm_s >= add.sync_s - 1e-12);
                }
                // A single bucket moves identical bytes in one collective,
                // so overlap can only help vs. the additive model.
                let one = step_time_overlapped(&model, &shape, &link(), u64::MAX);
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
        let o = step_time_overlapped(&model, &shape, &link(), 4 << 20);
        assert!(
            o.total_s() < add.total_s(),
            "overlap must shrink the step: {} vs {}",
            o.total_s(),
            add.total_s()
        );
        assert!(o.buckets > 1);
        assert!(o.hidden_comm_s() > 0.0);
    }

    #[test]
    fn global_batch_is_vns_times_micro_batch() {
        let shape =
            ExecutionShape::homogeneous(DeviceProfile::of(DeviceType::V100), 4, 8, 256);
        assert_eq!(shape.total_vns(), 32);
        assert_eq!(shape.global_batch(), 8192);
    }
}
