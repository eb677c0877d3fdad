//! Analytical profiles of the paper's models.
//!
//! The performance experiments (Figs 6, 9, 11, 15, 16 and the scheduler
//! traces) do not need trainable networks — they need the *cost structure*
//! of the real models: parameter bytes, FLOPs per example, and activation
//! bytes per example. Profiles below are calibrated against the paper's own
//! observations (e.g. a V100 fits a micro-batch of 256 for ResNet-50 and 8
//! for BERT-BASE; ResNet-50 parameters are ~104 MB; BERT-LARGE's gradient
//! buffer is a visible fraction of a 2080 Ti).

use serde::{Deserialize, Serialize};
use vf_device::DeviceProfile;

/// One mebibyte, in bytes.
pub const MIB: u64 = 1024 * 1024;

/// The optimizer family a workload uses, which sets the memory-traffic cost
/// of a model update and the size of the optimizer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// SGD with momentum: one state tensor per parameter.
    SgdMomentum,
    /// Adam/AdamW: two state tensors per parameter.
    Adam,
}

impl OptimizerKind {
    /// Bytes of optimizer state per parameter byte.
    pub fn state_factor(self) -> f64 {
        match self {
            OptimizerKind::SgdMomentum => 1.0,
            OptimizerKind::Adam => 2.0,
        }
    }

    /// Bytes moved per parameter byte during one update.
    pub fn update_traffic_factor(self) -> f64 {
        match self {
            OptimizerKind::SgdMomentum => vf_device::cost::SGD_UPDATE_TRAFFIC_FACTOR,
            OptimizerKind::Adam => vf_device::cost::ADAM_UPDATE_TRAFFIC_FACTOR,
        }
    }
}

/// The cost structure of one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Human-readable name, e.g. `"ResNet-50"`.
    pub name: String,
    /// Number of parameters.
    pub num_params: u64,
    /// Forward-pass FLOPs per training example.
    pub flops_forward_per_example: f64,
    /// Activation bytes retained per example during the forward pass.
    pub activation_bytes_per_example: u64,
    /// Input bytes per example (the prefetched micro-batch).
    pub input_bytes_per_example: u64,
    /// Optimizer family used for this workload.
    pub optimizer: OptimizerKind,
}

impl ModelProfile {
    /// Parameter bytes (`f32` parameters).
    pub fn param_bytes(&self) -> u64 {
        self.num_params * 4
    }

    /// Gradient bytes (same as parameters).
    pub fn gradient_bytes(&self) -> u64 {
        self.param_bytes()
    }

    /// Optimizer state bytes.
    pub fn optimizer_state_bytes(&self) -> u64 {
        (self.param_bytes() as f64 * self.optimizer.state_factor()) as u64
    }

    /// Fixed per-device memory that does not scale with the micro-batch:
    /// parameters + transient gradients + optimizer state.
    pub fn fixed_bytes(&self) -> u64 {
        self.param_bytes() + self.gradient_bytes() + self.optimizer_state_bytes()
    }

    /// Peak device memory for a micro-batch of `micro_batch` examples
    /// *without* virtual node processing (vanilla execution, Fig 3).
    pub fn peak_bytes_vanilla(&self, micro_batch: usize) -> u64 {
        self.fixed_bytes()
            + (self.activation_bytes_per_example + self.input_bytes_per_example)
                * micro_batch as u64
    }

    /// Peak device memory for a micro-batch of `micro_batch` examples with
    /// virtual node processing: vanilla peak plus the per-device gradient
    /// buffer (one model-sized tensor), constant in the number of virtual
    /// nodes (paper §3.3). With a single virtual node per device the buffer
    /// is unnecessary and elided.
    pub fn peak_bytes_virtual(&self, micro_batch: usize, vn_per_device: usize) -> u64 {
        let buffer = if vn_per_device > 1 { self.param_bytes() } else { 0 };
        self.peak_bytes_vanilla(micro_batch) + buffer
    }

    /// The largest micro-batch that fits on `device` without virtual nodes.
    pub fn max_micro_batch(&self, device: &DeviceProfile) -> usize {
        let budget = device.memory_bytes.saturating_sub(self.fixed_bytes());
        let per = self.activation_bytes_per_example + self.input_bytes_per_example;
        budget.checked_div(per).unwrap_or(0) as usize
    }

    /// The largest micro-batch that fits on `device` when a gradient buffer
    /// is also resident (virtual node processing with `vn > 1`).
    pub fn max_micro_batch_virtual(&self, device: &DeviceProfile) -> usize {
        let budget = device
            .memory_bytes
            .saturating_sub(self.fixed_bytes() + self.param_bytes());
        let per = self.activation_bytes_per_example + self.input_bytes_per_example;
        budget.checked_div(per).unwrap_or(0) as usize
    }
}

/// ResNet-50 on ImageNet: 25.6 M parameters (~104 MB, matching §3.3),
/// ~4.1 GFLOPs per 224×224 example, activations sized so a 16 GB V100 fits a
/// micro-batch of 256 (paper §6.2.1) and an 11 GB RTX 2080 Ti fits 128.
pub fn resnet50() -> ModelProfile {
    ModelProfile {
        name: "ResNet-50".to_string(),
        num_params: 25_600_000,
        flops_forward_per_example: 4.1e9,
        activation_bytes_per_example: 56 * MIB,
        input_bytes_per_example: 602_112, // 224*224*3 floats
        optimizer: OptimizerKind::SgdMomentum,
    }
}

/// ResNet-56 on CIFAR-10: 0.85 M parameters, ~0.13 GFLOPs per 32×32 example.
pub fn resnet56() -> ModelProfile {
    ModelProfile {
        name: "ResNet-56".to_string(),
        num_params: 850_000,
        flops_forward_per_example: 0.13e9,
        activation_bytes_per_example: 2 * MIB,
        input_bytes_per_example: 12_288, // 32*32*3 floats
        optimizer: OptimizerKind::SgdMomentum,
    }
}

/// BERT-BASE finetuning on GLUE: 110 M parameters, ~22 GFLOPs per sequence,
/// activations sized so a V100 fits a micro-batch of 8 (paper §6.2.2: 8 GPUs
/// at batch 64 run one virtual node each; vanilla TF on one GPU "must use a
/// batch size of 8 or less", §6.2.3).
pub fn bert_base() -> ModelProfile {
    ModelProfile {
        name: "BERT-BASE".to_string(),
        num_params: 110_000_000,
        flops_forward_per_example: 22.0e9,
        activation_bytes_per_example: 1_600 * MIB,
        input_bytes_per_example: 2_048, // 512 token ids
        optimizer: OptimizerKind::Adam,
    }
}

/// BERT-LARGE finetuning on GLUE: 340 M parameters, ~78 GFLOPs per sequence,
/// activations sized so an 11 GB RTX 2080 Ti fits a micro-batch of 4
/// (paper §6.3: RTE at batch 16 "would require 4 GPUs without the use of
/// virtual nodes" and batch 4 is the maximum without them).
pub fn bert_large() -> ModelProfile {
    ModelProfile {
        name: "BERT-LARGE".to_string(),
        num_params: 340_000_000,
        flops_forward_per_example: 78.0e9,
        activation_bytes_per_example: 1_100 * MIB,
        input_bytes_per_example: 2_048,
        optimizer: OptimizerKind::Adam,
    }
}

/// Transformer (base) on WMT: 65 M parameters. Batch sizes for this workload
/// are in *tokens* (Table 3 uses 4096–65536), so the per-example numbers
/// here are per token.
pub fn transformer_wmt() -> ModelProfile {
    ModelProfile {
        name: "Transformer".to_string(),
        num_params: 65_000_000,
        flops_forward_per_example: 0.3e9,
        activation_bytes_per_example: MIB,
        input_bytes_per_example: 8,
        optimizer: OptimizerKind::Adam,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_device::{DeviceProfile, DeviceType};

    #[test]
    fn resnet50_params_match_paper_104mb() {
        let p = resnet50();
        let mb = p.param_bytes() as f64 / MIB as f64;
        assert!((mb - 104.0).abs() < 8.0, "param MB = {mb}");
    }

    #[test]
    fn v100_fits_256_resnet50_examples() {
        let p = resnet50();
        let v100 = DeviceProfile::of(DeviceType::V100);
        let mb = p.max_micro_batch(&v100);
        assert!((256..512).contains(&mb), "max micro-batch {mb}");
    }

    #[test]
    fn rtx2080ti_fits_128_but_not_256_resnet50_examples() {
        let p = resnet50();
        let ti = DeviceProfile::of(DeviceType::Rtx2080Ti);
        let mb = p.max_micro_batch(&ti);
        assert!((128..256).contains(&mb), "max micro-batch {mb}");
    }

    #[test]
    fn v100_fits_8_bert_base_sequences() {
        let p = bert_base();
        let v100 = DeviceProfile::of(DeviceType::V100);
        let mb = p.max_micro_batch(&v100);
        assert!((8..16).contains(&mb), "max micro-batch {mb}");
    }

    #[test]
    fn rtx2080ti_fits_4_bert_large_sequences() {
        let p = bert_large();
        let ti = DeviceProfile::of(DeviceType::Rtx2080Ti);
        let mb = p.max_micro_batch(&ti);
        assert!((4..8).contains(&mb), "max micro-batch {mb}");
    }

    #[test]
    fn virtual_peak_adds_exactly_one_model_of_overhead() {
        let p = bert_large();
        let base = p.peak_bytes_vanilla(4);
        for vn in 2..32 {
            let virt = p.peak_bytes_virtual(4, vn);
            assert_eq!(virt - base, p.param_bytes(), "vn={vn}");
        }
    }

    #[test]
    fn one_virtual_node_needs_no_buffer() {
        let p = resnet50();
        assert_eq!(p.peak_bytes_virtual(64, 1), p.peak_bytes_vanilla(64));
    }

    #[test]
    fn memory_overhead_is_below_20_percent_for_paper_models() {
        // Fig 15: normalized peak memory ≤ 1.2 for all three workloads at
        // their maximum vanilla micro-batch.
        let ti = DeviceProfile::of(DeviceType::Rtx2080Ti);
        for p in [resnet50(), bert_base(), bert_large()] {
            let mb = p.max_micro_batch_virtual(&ti).max(1);
            let ratio = p.peak_bytes_virtual(mb, 4) as f64 / p.peak_bytes_vanilla(mb) as f64;
            assert!(
                ratio <= 1.20,
                "{}: overhead ratio {ratio:.3}",
                p.name
            );
        }
    }

    #[test]
    fn adam_state_is_twice_sgd_state() {
        let sgd = resnet50();
        assert_eq!(sgd.optimizer_state_bytes(), sgd.param_bytes());
        let adam = bert_base();
        assert_eq!(adam.optimizer_state_bytes(), 2 * adam.param_bytes());
    }

    #[test]
    fn oversized_model_reports_zero_micro_batch() {
        let mut p = bert_large();
        p.num_params = 10_000_000_000; // 40 GB of parameters
        let ti = DeviceProfile::of(DeviceType::Rtx2080Ti);
        assert_eq!(p.max_micro_batch(&ti), 0);
    }
}
