//! The one `step_time` is the three step-time functions it replaced, bit
//! for bit, over generated configurations.
//!
//! `reference` below holds the additive `step_time`, its bucketed variant
//! and its topology-priced variant exactly as they were written before they
//! were merged, renamed `additive`, `overlapped` and `on_topology`, with one
//! later change: a bucket is ready once its last gradient exists,
//! `(b + 1)/n` of the way into the backward window, not `b/n`. Every
//! reference property compares every breakdown field, and `total_s`, with
//! `to_bits`; one more holds the one-bucket pipeline to the closed form.

use proptest::prelude::*;
use proptest::TestRng;
use vf_comm::{LinkProfile, Topology};
use vf_core::perf_model::{step_time, ExecutionShape, StepOptions, StepTimeBreakdown, SyncSchedule};
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::{bert_base, bert_large, resnet50, resnet56, transformer_wmt};
use vf_models::ModelProfile;

/// The step-time model as it was before `StepOptions`.
mod reference {
    use vf_comm::allreduce::{ring_allreduce_time_s, split_bucket_bytes};
    use vf_comm::{LinkProfile, Topology};
    use vf_core::perf_model::ExecutionShape;
    use vf_device::cost;
    use vf_models::ModelProfile;

    /// `vf_device::TwoLaneClock` as the overlapped model drove it.
    struct Lanes {
        compute_s: f64,
        comm_s: f64,
    }

    impl Lanes {
        fn new(start_s: f64) -> Self {
            Lanes { compute_s: start_s, comm_s: start_s }
        }

        fn comm_now(&self) -> f64 {
            self.comm_s
        }

        fn advance_compute(&mut self, dt_s: f64) {
            self.compute_s += dt_s;
        }

        fn begin_comm(&mut self, ready_s: f64) -> f64 {
            self.comm_s = self.comm_s.max(ready_s);
            self.comm_s
        }

        fn advance_comm(&mut self, dt_s: f64) {
            self.comm_s += dt_s;
        }

        fn exposed_comm_s(&self) -> f64 {
            (self.comm_s - self.compute_s).max(0.0)
        }
    }

    #[derive(Debug, Clone, Copy)]
    pub struct Additive {
        pub compute_s: f64,
        pub accumulate_s: f64,
        pub sync_s: f64,
        pub update_s: f64,
    }

    impl Additive {
        pub fn total_s(&self) -> f64 {
            self.compute_s + self.accumulate_s + self.sync_s + self.update_s
        }
    }

    #[derive(Debug, Clone, Copy)]
    pub struct Overlapped {
        pub compute_s: f64,
        pub accumulate_s: f64,
        pub overlappable_s: f64,
        pub total_comm_s: f64,
        pub exposed_comm_s: f64,
        pub update_s: f64,
        pub buckets: usize,
    }

    impl Overlapped {
        pub fn total_s(&self) -> f64 {
            self.compute_s + self.accumulate_s + self.exposed_comm_s + self.update_s
        }
    }

    pub fn additive(model: &ModelProfile, shape: &ExecutionShape, link: &LinkProfile) -> Additive {
        let flops_per_vn = model.flops_forward_per_example * shape.micro_batch as f64;
        let mut compute_s: f64 = 0.0;
        let mut accumulate_s: f64 = 0.0;
        let mut update_s: f64 = 0.0;
        for &(profile, vns) in &shape.devices {
            let pass = cost::forward_time_s(&profile, flops_per_vn)
                + cost::backward_time_s(&profile, flops_per_vn);
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
        Additive { compute_s, accumulate_s, sync_s, update_s }
    }

    fn gating_backward_s(model: &ModelProfile, shape: &ExecutionShape) -> f64 {
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

    fn bucket_ready_times(window_start_s: f64, window_s: f64, n: usize) -> Vec<f64> {
        let n = n.max(1);
        (0..n)
            .map(|b| window_start_s + window_s * ((b + 1) as f64 / n as f64))
            .collect()
    }

    fn pipelined(
        base: Additive,
        window_s: f64,
        bucket_sizes: &[u64],
        workers: usize,
        link: &LinkProfile,
    ) -> Overlapped {
        let compute_end = base.compute_s + base.accumulate_s;
        let window = window_s.min(compute_end);
        let ready = bucket_ready_times(compute_end - window, window, bucket_sizes.len());
        let mut lanes = Lanes::new(0.0);
        lanes.advance_compute(compute_end);
        let mut total_comm_s = 0.0;
        for (&bytes, &ready_s) in bucket_sizes.iter().zip(&ready) {
            let start = lanes.begin_comm(ready_s);
            lanes.advance_comm(ring_allreduce_time_s(bytes, workers, link));
            total_comm_s += lanes.comm_now() - start;
        }
        Overlapped {
            compute_s: base.compute_s,
            accumulate_s: base.accumulate_s,
            overlappable_s: window,
            total_comm_s,
            exposed_comm_s: lanes.exposed_comm_s(),
            update_s: base.update_s,
            buckets: bucket_sizes.len(),
        }
    }

    pub fn overlapped(
        model: &ModelProfile,
        shape: &ExecutionShape,
        link: &LinkProfile,
        bucket_bytes: u64,
    ) -> Overlapped {
        let base = additive(model, shape, link);
        let sizes = split_bucket_bytes(model.gradient_bytes(), bucket_bytes);
        pipelined(
            base,
            gating_backward_s(model, shape),
            &sizes,
            shape.devices.len(),
            link,
        )
    }

    pub fn on_topology(
        model: &ModelProfile,
        shape: &ExecutionShape,
        topology: &Topology,
        hierarchical: bool,
    ) -> Additive {
        let mut t = additive(model, shape, &topology.intra);
        let gpus = shape.devices.len();
        t.sync_s = if hierarchical {
            topology.hierarchical_allreduce_time_s(model.gradient_bytes(), gpus)
        } else {
            topology.flat_allreduce_time_s(model.gradient_bytes(), gpus)
        };
        t
    }
}

const DEVICE_TYPES: [DeviceType; 5] = [
    DeviceType::V100,
    DeviceType::Rtx2080Ti,
    DeviceType::K80,
    DeviceType::A100,
    DeviceType::T4,
];

/// The largest gradient 1-byte buckets run on: one collective per byte of
/// a 100 MB gradient would be 100 M collectives per case.
const ONE_BYTE_BUCKET_GRADIENT_MAX: u64 = 4096;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn model(rng: &mut TestRng) -> ModelProfile {
    let models = [resnet50, resnet56, bert_base, bert_large, transformer_wmt];
    models[below(rng, models.len() as u64) as usize]()
}

/// 1–`max_devices` devices of mixed type with 0–16 VNs each, micro-batch
/// 1–256.
fn shape(rng: &mut TestRng, max_devices: usize) -> ExecutionShape {
    let devices = 1 + below(rng, max_devices as u64) as usize;
    ExecutionShape {
        devices: (0..devices)
            .map(|_| {
                let ty = DEVICE_TYPES[below(rng, DEVICE_TYPES.len() as u64) as usize];
                (DeviceProfile::of(ty), below(rng, 17) as usize)
            })
            .collect(),
        micro_batch: 1 + below(rng, 256) as usize,
    }
}

/// A finite link: latency 0–1 ms, bandwidth 1 kB/s–1 TB/s (log-uniform).
fn random_link(rng: &mut TestRng) -> LinkProfile {
    LinkProfile {
        latency_s: rng.unit_f64() * 1.0e-3,
        bandwidth: 10f64.powf(3.0 + 9.0 * rng.unit_f64()),
    }
}

fn link(rng: &mut TestRng) -> LinkProfile {
    match below(rng, 3) {
        0 => LinkProfile::paper_testbed(),
        1 => LinkProfile::nvlink(),
        _ => random_link(rng),
    }
}

fn assert_bits(name: &str, new: f64, old: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.to_bits(), old.to_bits(), "{}: new {} vs reference {}", name, new, old);
    Ok(())
}

/// An unbucketed breakdown equals the additive reference, and its sync is
/// entirely exposed.
fn assert_additive(
    new: &StepTimeBreakdown,
    old: &reference::Additive,
) -> Result<(), TestCaseError> {
    assert_bits("compute_s", new.compute_s, old.compute_s)?;
    assert_bits("accumulate_s", new.accumulate_s, old.accumulate_s)?;
    assert_bits("sync_s", new.sync_s, old.sync_s)?;
    assert_bits("exposed_comm_s", new.exposed_comm_s, old.sync_s)?;
    assert_bits("update_s", new.update_s, old.update_s)?;
    assert_bits("overlappable_s", new.overlappable_s, 0.0)?;
    assert_bits("total_s", new.total_s(), old.total_s())?;
    prop_assert_eq!(new.buckets, 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Ring sync, with and without buckets: the additive and the
    /// overlapped references.
    #[test]
    fn ring_step_time_matches_the_additive_and_overlapped_references(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let mut model = model(rng);
        let shape = shape(rng, 32);
        let link = link(rng);
        let bucket_bytes = match below(rng, 5) {
            0 => None,
            1 => Some(0),
            2 => {
                // Keep the gradient small enough to run one collective per byte.
                model.num_params = 1 + below(rng, ONE_BYTE_BUCKET_GRADIENT_MAX / 4);
                Some(1)
            }
            3 => {
                // 1 to ~2048 buckets, log-uniform in the bucket count.
                let grad = model.gradient_bytes();
                let lo = (grad >> 11).max(1);
                let span = lo << below(rng, 13);
                Some(lo + below(rng, span))
            }
            _ => Some(u64::MAX),
        };
        let opts = StepOptions { sync: SyncSchedule::Ring(link), bucket_bytes };
        let new = step_time(&model, &shape, opts);
        match bucket_bytes {
            None => {
                assert_additive(&new, &reference::additive(&model, &shape, &link))?;
                // A plain link is the same schedule.
                prop_assert_eq!(new, step_time(&model, &shape, &link));
            }
            Some(b) => {
                let old = reference::overlapped(&model, &shape, &link, b);
                assert_bits("compute_s", new.compute_s, old.compute_s)?;
                assert_bits("accumulate_s", new.accumulate_s, old.accumulate_s)?;
                assert_bits("overlappable_s", new.overlappable_s, old.overlappable_s)?;
                assert_bits("sync_s", new.sync_s, old.total_comm_s)?;
                assert_bits("exposed_comm_s", new.exposed_comm_s, old.exposed_comm_s)?;
                assert_bits("update_s", new.update_s, old.update_s)?;
                assert_bits("total_s", new.total_s(), old.total_s())?;
                prop_assert_eq!(new.buckets, old.buckets);
            }
        }
    }

    /// One bucket is the paper's single sync after the last backward pass:
    /// the pipeline with an unbounded threshold equals the closed form.
    /// They differ only by the clock's rounding (the collective starts at
    /// `window_start + window` and its exposure is measured against the
    /// compute lane's end), so the tolerance is relative to the step.
    #[test]
    fn one_bucket_pipeline_matches_the_closed_form(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let model = model(rng);
        let shape = shape(rng, 32);
        let sync = SyncSchedule::Ring(link(rng));
        let closed = step_time(&model, &shape, StepOptions { sync, bucket_bytes: None });
        let piped = step_time(&model, &shape, StepOptions { sync, bucket_bytes: Some(u64::MAX) });
        prop_assert_eq!(piped.buckets, 1);
        let scale = closed.total_s();
        for (name, new, old) in [
            ("sync_s", piped.sync_s, closed.sync_s),
            ("exposed_comm_s", piped.exposed_comm_s, closed.exposed_comm_s),
            ("total_s", piped.total_s(), closed.total_s()),
        ] {
            prop_assert!((new - old).abs() <= 1e-12 * scale, "{}: pipeline {} vs closed form {}", name, new, old);
        }
    }

    /// Flat and hierarchical sync over a two-level topology, with up to
    /// `total_gpus` devices: the topology reference.
    #[test]
    fn topology_step_time_matches_the_topology_reference(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let model = model(rng);
        let topology = if below(rng, 2) == 0 {
            Topology::paper_testbed()
        } else {
            Topology {
                nodes: 1 + below(rng, 4) as usize,
                gpus_per_node: 1 + below(rng, 8) as usize,
                intra: link(rng),
                inter: link(rng),
            }
        };
        let shape = shape(rng, topology.total_gpus());
        let hierarchical = below(rng, 2) == 0;
        let sync = if hierarchical {
            SyncSchedule::Hierarchical(topology)
        } else {
            SyncSchedule::Flat(topology)
        };
        let new = step_time(&model, &shape, StepOptions { sync, bucket_bytes: None });
        let old = reference::on_topology(&model, &shape, &topology, hierarchical);
        assert_additive(&new, &old)?;
    }
}
