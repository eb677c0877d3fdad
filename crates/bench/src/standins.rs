//! Calibrated stand-in workloads for the convergence experiments.
//!
//! Each paper workload is mapped to a synthetic task + small model whose
//! SGD dynamics expose the paper's phenomena (see DESIGN.md §1). The
//! calibration targets are the *shapes* of Tables 1–2 and Figures 2, 7, 8,
//! 10 — who wins, by roughly what factor — not the absolute numbers, since
//! the substrate is a simulator rather than the authors' testbed.

use crate::report::{Context, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vf_core::{OptimizerConfig, Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::DeviceId;
use vf_models::Mlp;
use vf_tensor::optim::LrSchedule;

/// A stand-in training workload: task, model, and hyperparameters. The
/// hyperparameters are tuned **once** (for the paper's headline batch size)
/// and then reused verbatim across every hardware configuration — that is
/// the experiment.
#[derive(Debug, Clone)]
pub struct Standin {
    /// Workload name as reported in tables.
    pub name: String,
    /// The synthetic dataset.
    pub task: ClusterTask,
    /// Student architecture.
    pub arch: Mlp,
    /// Optimizer family.
    pub optimizer: OptimizerConfig,
    /// Learning rate, tuned for `headline_batch`.
    pub lr: f32,
    /// The batch size the hyperparameters were tuned for.
    pub headline_batch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Fraction of the dataset held out for validation.
    pub val_fraction: f32,
}

/// The result of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceRun {
    /// Configuration label (e.g. "2 GPUs, 16 VN/GPU").
    pub label: String,
    /// Final top-1 validation accuracy in `[0, 1]`.
    pub final_accuracy: f32,
    /// Validation accuracy after each epoch.
    pub curve: Vec<f32>,
    /// Number of optimizer updates performed.
    pub updates: u64,
}

impl Standin {
    /// Generates the train/validation split (a pure function of the task).
    pub fn dataset(&self) -> Result<(Arc<Dataset>, Dataset)> {
        let full = self.task.generate().context("task generates")?;
        let (train, val) = full.split(self.val_fraction).context("split is valid")?;
        Ok((Arc::new(train), val))
    }

    /// Trains with `batch_size` split over `total_vns` virtual nodes on
    /// `devices` simulated devices, evaluating after every epoch. An
    /// invalid configuration (an indivisible batch etc.) is an error.
    pub fn train(
        &self,
        label: &str,
        batch_size: usize,
        total_vns: u32,
        devices: u32,
    ) -> Result<ConvergenceRun> {
        let (train, val) = self.dataset()?;
        let config = TrainerConfig {
            total_vns,
            batch_size,
            seed: self.task.seed,
            schedule: LrSchedule::Constant { lr: self.lr },
            optimizer: self.optimizer.clone(),
            reduction: Default::default(),
            distribution: Default::default(),
            clip_norm: None,
        };
        let ids: Vec<DeviceId> = (0..devices).map(DeviceId).collect();
        let mut trainer = Trainer::new(Arc::new(self.arch.clone()), train, config, &ids)
            .context("valid harness configuration")?;
        let mut curve = Vec::with_capacity(self.epochs);
        for _ in 0..self.epochs {
            trainer.run_epoch().context("training step succeeds")?;
            let eval = trainer.evaluate(&val).context("evaluation succeeds")?;
            curve.push(eval.accuracy);
        }
        // Report the mean accuracy over the last quarter of training: a
        // stable run scores its plateau, an unstable one pays for its
        // oscillation — the quantity the batch-size experiments compare.
        let tail = &curve[curve.len() - (curve.len() / 4).max(1)..];
        let final_accuracy = tail.iter().sum::<f32>() / tail.len() as f32;
        Ok(ConvergenceRun {
            label: label.to_string(),
            final_accuracy,
            curve,
            updates: trainer.steps_done(),
        })
    }
}

/// ResNet-50 on ImageNet (Table 1 / Figure 8 stand-in).
///
/// Hyperparameters (notably the large learning rate) are tuned for the
/// headline batch size of 8192; running smaller batches with the *same*
/// learning rate — the TF* baseline — raises the SGD noise floor η/B and
/// costs accuracy, reproducing the Table 1 gap.
pub fn resnet50_imagenet() -> Standin {
    Standin {
        name: "ResNet-50/ImageNet".to_string(),
        task: ClusterTask {
            num_examples: 20_480,
            dim: 32,
            num_classes: 8,
            separation: 0.70,
            spread: 1.0,
            label_noise: 0.20,
            seed: 50,
        },
        arch: Mlp::linear(32, 8),
        optimizer: OptimizerConfig::sgd_momentum(),
        lr: 3.2,
        headline_batch: 8192,
        epochs: 30,
        val_fraction: 0.2,
    }
}

/// BERT-BASE finetuning on one GLUE task (Table 2 / Figure 7 stand-in).
///
/// Low learning rate and mild noise: accuracy is insensitive to the batch
/// size in the 8–64 range, as the paper observes for these tasks.
pub fn bert_base_glue(task: GlueTask) -> Standin {
    let (name, seed, separation, noise) = match task {
        GlueTask::Qnli => ("BERT-BASE/QNLI", 71, 0.72, 0.12),
        GlueTask::Sst2 => ("BERT-BASE/SST-2", 72, 0.80, 0.11),
        GlueTask::Cola => ("BERT-BASE/CoLA", 73, 0.62, 0.20),
    };
    Standin {
        name: name.to_string(),
        task: ClusterTask {
            num_examples: 2_560,
            dim: 24,
            num_classes: 2,
            separation,
            spread: 1.0,
            label_noise: noise,
            seed,
        },
        arch: Mlp::new(24, vec![16], 2),
        optimizer: OptimizerConfig::adam(),
        lr: 2e-3,
        headline_batch: 64,
        epochs: 20,
        val_fraction: 0.25,
    }
}

/// GLUE tasks used in the BERT-BASE reproducibility experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlueTask {
    /// Question answering NLI.
    Qnli,
    /// Sentiment classification.
    Sst2,
    /// Linguistic acceptability.
    Cola,
}

/// GLUE tasks used in the BERT-LARGE batch-exploration experiment (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LargeTask {
    /// Textual entailment — tiny and noisy; batch size matters a lot.
    Rte,
    /// Sentiment classification.
    Sst2,
    /// Paraphrase classification.
    Mrpc,
}

/// BERT-LARGE finetuning (Figures 2, 10, 11 stand-in): small, noisy
/// datasets where tiny batches under a fixed learning rate are unstable, so
/// batch sizes only reachable through virtual nodes converge higher.
pub fn bert_large_task(task: LargeTask) -> Standin {
    let (name, seed, separation, noise, examples) = match task {
        LargeTask::Rte => ("BERT-LARGE/RTE", 92, 0.45, 0.33, 1_024),
        LargeTask::Sst2 => ("BERT-LARGE/SST-2", 82, 1.40, 0.08, 2_048),
        LargeTask::Mrpc => ("BERT-LARGE/MRPC", 83, 1.00, 0.18, 1_536),
    };
    Standin {
        name: name.to_string(),
        task: ClusterTask {
            num_examples: examples,
            dim: 24,
            num_classes: 2,
            separation,
            spread: 1.0,
            label_noise: noise,
            seed,
        },
        arch: Mlp::linear(24, 2),
        optimizer: OptimizerConfig::adam(),
        lr: 1.2e-1,
        headline_batch: 16,
        epochs: 20,
        val_fraction: 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standins_produce_valid_runs() {
        let mut w = bert_base_glue(GlueTask::Sst2);
        w.epochs = 2;
        let run = w.train("smoke", 64, 8, 2).unwrap();
        assert_eq!(run.curve.len(), 2);
        assert!(run.final_accuracy > 0.4);
        assert!(run.updates > 0);
    }

    #[test]
    fn same_config_same_run() {
        let mut w = bert_large_task(LargeTask::Rte);
        w.epochs = 2;
        let a = w.train("a", 16, 4, 1).unwrap();
        let b = w.train("b", 16, 4, 4).unwrap();
        assert_eq!(a.curve, b.curve, "device count must not matter");
    }
}
