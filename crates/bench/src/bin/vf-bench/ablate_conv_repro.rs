//! Ablation: the Table 1 reproducibility property with a *convolutional*
//! stand-in.
//!
//! The headline experiments use linear/MLP stand-ins for speed; this
//! harness repeats the core claim — fixed virtual node count ⇒ identical
//! training on any device count — with the residual CNN (`ConvNet`) on
//! synthetic images, demonstrating the guarantee is architecture-agnostic
//! (reshape, convolution, residual adds, pooling all run per virtual node).

use std::sync::Arc;
use vf_bench::report::{emit, pct, print_table, Context, Mode, Result};
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ImageTask;
use vf_device::DeviceId;
use vf_models::ConvNet;

pub fn run(_: Mode) -> Result {
    println!("== conv reproducibility: residual CNN, batch 32 over 8 VNs ==\n");
    let mut task = ImageTask::small(60);
    task.num_examples = 320;
    task.signal = 1.6;
    let full = task.generate().context("generates")?;
    let (train, val) = full.split(0.2).context("valid split")?;
    let train = Arc::new(train);
    let arch = Arc::new(ConvNet::new(1, 8, 8, 6, 1, 4));
    let config = TrainerConfig {
        schedule: vf_tensor::optim::LrSchedule::Constant { lr: 0.1 },
        optimizer: vf_core::OptimizerConfig::sgd_momentum(),
        ..TrainerConfig::simple(8, 32, 0.1, 60)
    };

    let mut rows = Vec::new();
    let mut finals: Vec<(u32, Vec<vf_tensor::Tensor>, f32)> = Vec::new();
    for gpus in [1u32, 2, 8] {
        let ids: Vec<DeviceId> = (0..gpus).map(DeviceId).collect();
        let mut trainer = Trainer::new(arch.clone(), train.clone(), config.clone(), &ids)
            .context("valid config")?;
        for _ in 0..8 {
            trainer.run_epoch().context("trains")?;
        }
        let acc = trainer.evaluate(&val).context("evals")?.accuracy;
        rows.push(vec![gpus.to_string(), (8 / gpus).to_string(), pct(acc)]);
        finals.push((gpus, trainer.params().to_vec(), acc));
    }
    print_table(&["GPUs", "VN/GPU", "val acc %"], &rows);

    let reference = &finals[0].1;
    for (gpus, params, _) in &finals[1..] {
        assert_eq!(reference, params, "{gpus} devices diverged");
    }
    println!("\nconvolutional parameters bit-identical across 1/2/8 devices ✓");
    emit(
        "ablate_conv_repro",
        &serde_json::json!({
            "accuracies": finals.iter().map(|(g, _, a)| (g, a)).collect::<Vec<_>>(),
        }),
    )?;
    Ok(())
}
