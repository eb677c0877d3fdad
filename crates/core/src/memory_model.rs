//! Per-device memory simulation of virtual node execution.
//!
//! Implements the memory lifecycle of Figures 3 (vanilla) and 5 (virtual
//! nodes): parameters, optimizer state and — with more than one virtual node
//! per device — the gradient accumulation buffer are resident for the whole
//! step, while the input micro-batch, activations and transient gradients
//! cycle once per virtual node. The recorded timeline regenerates Figure 6;
//! the peak checks drive feasibility decisions everywhere else (what fits on
//! which GPU, which is the whole premise of the paper).

use crate::perf_model::ExecutionShape;
use crate::CoreError;
use vf_comm::LinkProfile;
use vf_device::{cost, DeviceProfile, MemoryCategory, MemorySnapshot, MemoryTracker, SimClock};
use vf_models::ModelProfile;

/// Verifies that running `model` with the given per-device configuration
/// fits in `device` memory, returning the simulated peak in bytes.
///
/// # Errors
///
/// Returns [`CoreError::MicroBatchTooLarge`] if the configuration cannot
/// fit.
pub fn check_fits(
    model: &ModelProfile,
    device: &DeviceProfile,
    micro_batch: usize,
    vn_per_device: usize,
) -> Result<u64, CoreError> {
    let peak = model.peak_bytes_virtual(micro_batch, vn_per_device);
    if peak > device.memory_bytes {
        let max = if vn_per_device > 1 {
            model.max_micro_batch_virtual(device)
        } else {
            model.max_micro_batch(device)
        };
        return Err(CoreError::MicroBatchTooLarge {
            micro_batch,
            max_micro_batch: max,
            device: device.device_type.to_string(),
        });
    }
    Ok(peak)
}

/// Verifies every device of `shape` can run `model`, returning the maximum
/// per-device peak.
///
/// # Errors
///
/// Returns [`CoreError::MicroBatchTooLarge`] for the first violating device.
pub fn check_shape_fits(model: &ModelProfile, shape: &ExecutionShape) -> Result<u64, CoreError> {
    let mut worst = 0u64;
    for &(profile, vns) in &shape.devices {
        let peak = check_fits(model, &profile, shape.micro_batch, vns)?;
        worst = worst.max(peak);
    }
    Ok(worst)
}

/// Simulates `steps` training steps of `model` on one device with
/// `vn_per_device` virtual nodes, recording the full memory timeline
/// (Figure 6). The first step is slowed by `first_step_slowdown` to model
/// the framework's one-time graph optimization, as the paper observes.
///
/// # Errors
///
/// Returns [`CoreError::Oom`] if any allocation exceeds device memory.
pub fn simulate_step_timeline(
    model: &ModelProfile,
    device: &DeviceProfile,
    micro_batch: usize,
    vn_per_device: usize,
    steps: usize,
    peers: usize,
    first_step_slowdown: f64,
) -> Result<Vec<MemorySnapshot>, CoreError> {
    let mut mem = MemoryTracker::new(device.memory_bytes).with_timeline();
    let mut clock = SimClock::new();
    let link = LinkProfile::paper_testbed();

    // Resident for the whole job.
    mem.alloc(MemoryCategory::Parameters, model.param_bytes(), clock.now())?;
    mem.alloc(
        MemoryCategory::OptimizerState,
        model.optimizer_state_bytes(),
        clock.now(),
    )?;
    if vn_per_device > 1 {
        mem.alloc(MemoryCategory::GradientBuffer, model.param_bytes(), clock.now())?;
    }

    let input_bytes = model.input_bytes_per_example * micro_batch as u64;
    let act_bytes = model.activation_bytes_per_example * micro_batch as u64;
    let flops = model.flops_forward_per_example * micro_batch as f64;

    for step in 0..steps {
        let slow = if step == 0 { first_step_slowdown } else { 1.0 };
        for _vn in 0..vn_per_device {
            // Step 1: prefetch the input micro-batch.
            mem.alloc(MemoryCategory::InputBatch, input_bytes, clock.now())?;
            clock.advance(cost::input_transfer_time_s(device, input_bytes) * slow);
            // Step 2: forward pass retains activations.
            mem.alloc(MemoryCategory::Activations, act_bytes, clock.now())?;
            clock.advance(cost::forward_time_s(device, flops) * slow);
            // Step 3: backward pass produces gradients, releases activations.
            mem.alloc(MemoryCategory::Gradients, model.gradient_bytes(), clock.now())?;
            clock.advance(cost::backward_time_s(device, flops) * slow);
            mem.free(MemoryCategory::Activations, act_bytes, clock.now());
            // Step 4: accumulate into the buffer, drop transient gradients
            // and the consumed input.
            if vn_per_device > 1 {
                clock.advance(cost::accumulate_time_s(device, model.gradient_bytes()) * slow);
            }
            mem.free(MemoryCategory::Gradients, model.gradient_bytes(), clock.now());
            mem.free(MemoryCategory::InputBatch, input_bytes, clock.now());
        }
        // Step 5: synchronize once per step, then update.
        clock.advance(vf_comm::allreduce::ring_allreduce_time_s(
            model.gradient_bytes(),
            peers,
            &link,
        ));
        clock.advance(cost::update_time_s(
            device,
            model.param_bytes(),
            model.optimizer.update_traffic_factor(),
        ));
    }
    Ok(mem.timeline().to_vec())
}

/// The peak total of a timeline.
pub fn timeline_peak(timeline: &[MemorySnapshot]) -> u64 {
    timeline.iter().map(MemorySnapshot::total).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_device::DeviceType;
    use vf_models::profile::{bert_large, resnet50};

    fn v100() -> DeviceProfile {
        DeviceProfile::of(DeviceType::V100)
    }

    fn ti() -> DeviceProfile {
        DeviceProfile::of(DeviceType::Rtx2080Ti)
    }

    #[test]
    fn fitting_config_passes() {
        assert!(check_fits(&resnet50(), &v100(), 256, 4).is_ok());
    }

    #[test]
    fn oversized_micro_batch_is_rejected_with_capacity_hint() {
        let err = check_fits(&resnet50(), &ti(), 256, 1).unwrap_err();
        match err {
            CoreError::MicroBatchTooLarge {
                micro_batch,
                max_micro_batch,
                ..
            } => {
                assert_eq!(micro_batch, 256);
                assert!(max_micro_batch < 256);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn timeline_peak_matches_analytical_peak() {
        let model = resnet50();
        let tl = simulate_step_timeline(&model, &v100(), 128, 2, 2, 1, 1.0).unwrap();
        assert_eq!(timeline_peak(&tl), model.peak_bytes_virtual(128, 2));
    }

    #[test]
    fn activations_dominate_peak_memory_fig6() {
        // Fig 6: at peak, activations are the largest category.
        let model = resnet50();
        let tl = simulate_step_timeline(&model, &v100(), 256, 1, 1, 1, 1.0).unwrap();
        let peak_snap = tl
            .iter()
            .max_by_key(|s| s.total())
            .expect("timeline non-empty");
        let act = peak_snap.get(MemoryCategory::Activations);
        for cat in MemoryCategory::ALL {
            assert!(act >= peak_snap.get(cat), "activations must dominate {cat}");
        }
    }

    #[test]
    fn peak_constant_in_vn_count_fig15() {
        let model = bert_large();
        let mb = model.max_micro_batch_virtual(&ti()).max(1);
        let peaks: Vec<u64> = [2usize, 4, 8, 16]
            .iter()
            .map(|&vn| {
                let tl =
                    simulate_step_timeline(&model, &ti(), mb, vn, 1, 1, 1.0).unwrap();
                timeline_peak(&tl)
            })
            .collect();
        assert!(peaks.windows(2).all(|w| w[0] == w[1]), "peaks {peaks:?}");
    }

    #[test]
    fn memory_cycles_per_virtual_node() {
        // Activations must return to zero between virtual nodes.
        let model = resnet50();
        let tl = simulate_step_timeline(&model, &v100(), 64, 3, 1, 1, 1.0).unwrap();
        let zero_act = tl
            .iter()
            .filter(|s| s.get(MemoryCategory::Activations) == 0)
            .count();
        assert!(zero_act >= 3, "activations should drop to zero between VNs");
    }

    #[test]
    fn first_step_takes_longer_than_later_steps() {
        let model = resnet50();
        let tl = simulate_step_timeline(&model, &v100(), 64, 2, 3, 1, 3.0).unwrap();
        // Find per-step boundaries by looking at InputBatch allocations.
        let alloc_times: Vec<f64> = tl
            .iter()
            .filter(|s| s.get(MemoryCategory::InputBatch) > 0 && s.get(MemoryCategory::Activations) == 0)
            .map(|s| s.time_s)
            .collect();
        // First VN of step 0 starts at ~0; step spacing must shrink later.
        assert!(alloc_times.len() >= 6);
        let first_gap = alloc_times[2] - alloc_times[0];
        let later_gap = alloc_times[4] - alloc_times[2];
        assert!(first_gap > later_gap, "{first_gap} vs {later_gap}");
    }

    #[test]
    fn simulation_reports_oom() {
        let model = bert_large();
        let err = simulate_step_timeline(&model, &ti(), 64, 2, 1, 1, 1.0).unwrap_err();
        assert!(matches!(err, CoreError::Oom(_)));
    }

    #[test]
    fn shape_check_flags_the_weakest_device() {
        let model = resnet50();
        let shape = ExecutionShape {
            devices: vec![(v100(), 1), (ti(), 1)],
            micro_batch: 250,
        };
        // 250 fits the V100 but not the 2080 Ti.
        assert!(matches!(
            check_shape_fits(&model, &shape).unwrap_err(),
            CoreError::MicroBatchTooLarge { .. }
        ));
    }
}
