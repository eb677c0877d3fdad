//! A full job lifecycle on the VirtualFlow stack:
//!
//! 1. train on four GPUs next to an undisturbed single-GPU reference,
//! 2. checkpoint, and restart on a *different* cluster,
//! 3. inject failures from a seeded MTBF model and keep training,
//! 4. verify the final model is identical to the reference's.
//!
//! ```sh
//! cargo run --release --example job_lifecycle
//! ```

use std::sync::Arc;
use virtualflow::core::fault::fail_device;
use virtualflow::device::FailureModel;
use virtualflow::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train on four GPUs (numeric stand-in task).
    let dataset = Arc::new(
        ClusterTask {
            num_examples: 2048,
            dim: 16,
            num_classes: 4,
            separation: 2.0,
            spread: 1.0,
            label_noise: 0.1,
            seed: 33,
        }
        .generate()?,
    );
    let arch = Arc::new(Mlp::new(16, vec![16], 4).with_batch_norm());
    let mut config = TrainerConfig::simple(16, 128, 0.2, 33);
    config.clip_norm = Some(5.0);
    let devices: Vec<DeviceId> = (0..4).map(DeviceId).collect();

    let mut job = Trainer::new(arch.clone(), dataset.clone(), config.clone(), &devices)?;
    let mut reference = Trainer::new(arch.clone(), dataset.clone(), config, &[DeviceId(0)])?;

    job.run_steps(6)?;
    reference.run_steps(6)?;

    // 2. Checkpoint, "lose the cluster", restart elsewhere.
    let ckpt = job.to_checkpoint();
    println!(
        "checkpoint at step {}: {:.1} KiB of state",
        ckpt.step,
        ckpt.size_bytes() as f64 / 1024.0
    );
    let json = ckpt.to_json()?;
    let restored = virtualflow::core::Checkpoint::from_json(&json)?;
    let new_cluster: Vec<DeviceId> = (100..104).map(DeviceId).collect();
    let mut job = Trainer::from_checkpoint(arch, dataset.clone(), restored, &new_cluster)?;
    println!("restarted on a fresh 4-GPU cluster (ids 100..104)");

    // 3. Failure injection: an aggressive MTBF so something actually dies.
    let failures = FailureModel::new(400.0, 9)?
        .failures_before(&new_cluster, 1_000.0);
    println!("failure model schedules {} failure(s) in the window", failures.len());
    let mut clock = SimClock::new();
    for event in failures.iter().take(2) {
        clock.advance_to(event.at_s);
        if job.mapping().num_devices() > 1 {
            let r = fail_device(&mut job, event.device, None)?;
            println!(
                "t={:.0}s: {} failed; {} VNs migrated, training continues",
                clock.now(),
                event.device,
                r.plan.moves.len()
            );
        }
        job.run_steps(2)?;
        reference.run_steps(2)?;
    }
    let remaining = 6 + 2 * failures.len().min(2) as u64;
    while reference.steps_done() < remaining {
        reference.run_steps(1)?;
    }
    while job.steps_done() < remaining {
        job.run_steps(1)?;
    }

    // 4. The punchline: none of it changed the model.
    assert_eq!(job.params(), reference.params());
    let eval = job.evaluate(&dataset)?;
    println!(
        "\nafter checkpoint/restart + {} failure(s): parameters identical\n\
         to the undisturbed single-device run; accuracy {:.2}% ✓",
        failures.len().min(2),
        eval.accuracy * 100.0
    );
    Ok(())
}
