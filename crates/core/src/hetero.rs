//! Heterogeneous training: proportional virtual node packing (paper §7).
//!
//! Homogeneity is an artifact of device-centric batch splitting. With
//! virtual nodes, a mixed cluster (say V100s and K80s) just assigns *more
//! virtual nodes to faster devices*, in proportion to their throughput on
//! the workload — the "classic resource packing problem" the paper points
//! at. This module computes such assignments and quantifies the wave-time
//! balance they achieve.

use crate::perf_model::{pass_time_s, ExecutionShape};
use crate::vnode::{VirtualNodeId, VnMapping};
use crate::CoreError;
use std::collections::BTreeMap;
use vf_device::Device;
use vf_models::ModelProfile;

/// Assigns `total_vns` virtual nodes to `devices` in proportion to each
/// device's sustained throughput, using the largest-remainder method, with
/// every device receiving at least one VN.
///
/// Returns the per-device VN counts in device-id order.
///
/// # Errors
///
/// Returns [`CoreError::NoDevices`], [`CoreError::NoVirtualNodes`], or
/// [`CoreError::TooManyDevices`] for degenerate inputs.
pub fn proportional_counts(
    total_vns: u32,
    devices: &[Device],
) -> Result<Vec<(Device, u32)>, CoreError> {
    if devices.is_empty() {
        return Err(CoreError::NoDevices);
    }
    if total_vns == 0 {
        return Err(CoreError::NoVirtualNodes);
    }
    if (devices.len() as u32) > total_vns {
        return Err(CoreError::TooManyDevices {
            devices: devices.len(),
            virtual_nodes: total_vns as usize,
        });
    }
    let mut sorted: Vec<Device> = devices.to_vec();
    sorted.sort_by_key(|d| d.id);
    let total_speed: f64 = sorted.iter().map(|d| d.profile.flops_per_sec).sum();
    // Ideal (fractional) share per device, floored with one VN reserved for
    // everyone; leftover VNs go to the largest remainders.
    let mut counts: Vec<u32> = Vec::with_capacity(sorted.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(sorted.len());
    let mut assigned = 0u32;
    for (i, d) in sorted.iter().enumerate() {
        let ideal = total_vns as f64 * d.profile.flops_per_sec / total_speed;
        let floor = (ideal.floor() as u32).max(1);
        counts.push(floor);
        assigned += floor;
        remainders.push((i, ideal - floor as f64));
    }
    // Largest remainders first for surplus; smallest counts first to shed
    // any overshoot (never below 1).
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut ri = 0;
    while assigned < total_vns {
        counts[remainders[ri % remainders.len()].0] += 1;
        assigned += 1;
        ri += 1;
    }
    while assigned > total_vns {
        // Shed from the fastest-loaded device with more than one VN.
        let i = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 1)
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .ok_or(CoreError::Internal {
                invariant: "total_vns >= devices, so some device holds more than one VN",
            })?;
        counts[i] -= 1;
        assigned -= 1;
    }
    Ok(sorted.into_iter().zip(counts).collect())
}

/// Builds a [`VnMapping`] from proportional counts: VN ids are dealt
/// contiguously in device-id order.
///
/// # Errors
///
/// Same as [`proportional_counts`].
pub fn proportional_mapping(total_vns: u32, devices: &[Device]) -> Result<VnMapping, CoreError> {
    let counts = proportional_counts(total_vns, devices)?;
    let mut assignments = BTreeMap::new();
    let mut next = 0u32;
    for (d, c) in counts {
        let vns: Vec<VirtualNodeId> = (next..next + c).map(VirtualNodeId).collect();
        next += c;
        assignments.insert(d.id, vns);
    }
    VnMapping::from_assignments(assignments)
}

/// The execution shape induced by a proportional assignment.
///
/// # Errors
///
/// Same as [`proportional_counts`].
pub fn proportional_shape(
    total_vns: u32,
    devices: &[Device],
    micro_batch: usize,
) -> Result<ExecutionShape, CoreError> {
    let counts = proportional_counts(total_vns, devices)?;
    Ok(ExecutionShape {
        devices: counts
            .into_iter()
            .map(|(d, c)| (d.profile, c as usize))
            .collect(),
        micro_batch,
    })
}

/// The wave-time imbalance of a shape for `model`: the ratio of the slowest
/// device's compute time to the fastest's, each priced as
/// [`crate::perf_model::step_time`] prices it. 1.0 is perfectly balanced.
pub fn imbalance(model: &ModelProfile, shape: &ExecutionShape) -> f64 {
    let times: Vec<f64> = shape
        .devices
        .iter()
        .map(|(p, vns)| pass_time_s(model, p, shape.micro_batch).0 * *vns as f64)
        .collect();
    let max = times.iter().copied().fold(f64::MIN, f64::max);
    let min = times.iter().copied().fold(f64::MAX, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_device::DeviceType;
    use vf_models::profile::resnet50;

    fn mixed(v100s: u32, k80s: u32) -> Vec<Device> {
        let mut out = Vec::new();
        for i in 0..v100s {
            out.push(Device::new(i, DeviceType::V100));
        }
        for i in 0..k80s {
            out.push(Device::new(v100s + i, DeviceType::K80));
        }
        out
    }

    #[test]
    fn fast_devices_get_more_vns() {
        let counts = proportional_counts(24, &mixed(1, 1)).unwrap();
        let v100_count = counts[0].1;
        let k80_count = counts[1].1;
        assert!(v100_count > k80_count, "{v100_count} vs {k80_count}");
        assert_eq!(v100_count + k80_count, 24);
        // 50 vs 6 TFLOPS ⇒ roughly 21:3.
        assert!(v100_count >= 20);
        assert!(k80_count >= 1);
    }

    #[test]
    fn homogeneous_devices_split_evenly() {
        let counts = proportional_counts(8, &mixed(4, 0)).unwrap();
        assert!(counts.iter().all(|&(_, c)| c == 2));
    }

    #[test]
    fn every_device_gets_at_least_one_vn() {
        // One very slow device among fast ones must still get a VN.
        let counts = proportional_counts(4, &mixed(3, 1)).unwrap();
        assert!(counts.iter().all(|&(_, c)| c >= 1));
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u32>(), 4);
    }

    #[test]
    fn counts_conserve_total_for_many_configs() {
        for total in [4u32, 7, 16, 33] {
            for (v, k) in [(1, 1), (2, 2), (3, 1), (1, 3)] {
                if total < v + k {
                    continue;
                }
                let counts = proportional_counts(total, &mixed(v, k)).unwrap();
                assert_eq!(
                    counts.iter().map(|&(_, c)| c).sum::<u32>(),
                    total,
                    "total={total} v={v} k={k}"
                );
            }
        }
    }

    #[test]
    fn proportional_mapping_is_valid() {
        let m = proportional_mapping(12, &mixed(2, 2)).unwrap();
        assert!(m.is_valid());
        assert_eq!(m.total_vns(), 12);
    }

    #[test]
    fn proportional_beats_uniform_on_mixed_clusters() {
        // The point of §7's example: packing 3:2 (here ~8:1) beats 1:1.
        let devices = mixed(1, 1);
        let model = resnet50();
        let prop = proportional_shape(18, &devices, 64).unwrap();
        let uniform = ExecutionShape {
            devices: devices.iter().map(|d| (d.profile, 9usize)).collect(),
            micro_batch: 64,
        };
        assert!(imbalance(&model, &prop) < imbalance(&model, &uniform));
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(proportional_counts(0, &mixed(1, 1)).is_err());
        assert!(proportional_counts(4, &[]).is_err());
        assert!(proportional_counts(1, &mixed(1, 1)).is_err());
    }
}
