//! Figure 8: ResNet-50 convergence trajectories at batch 8192.
//!
//! All VirtualFlow runs trace each other exactly; TF* runs (unretuned
//! smaller batches) converge to visibly lower accuracies.

use vf_bench::report::{emit, Context, Mode, Result};
use vf_bench::standins::resnet50_imagenet;

pub fn run(_: Mode) -> Result {
    println!("== Figure 8: ResNet-50 convergence trajectories, batch 8192 ==\n");
    let w = resnet50_imagenet();
    let mut series = Vec::new();

    let sample = |curve: &[f32]| {
        curve
            .iter()
            .step_by(6)
            .map(|a| format!("{:5.1}", a * 100.0))
            .collect::<Vec<_>>()
            .join(" → ")
    };

    println!("VirtualFlow (bs 8192, 32 VNs):");
    let mut reference = None;
    for gpus in [1u32, 4, 16] {
        let run = w.train(&format!("VF {gpus} GPUs"), 8192, 32, gpus)?;
        println!("  {gpus:2} GPU(s): {}", sample(&run.curve));
        match &reference {
            None => reference = Some(run.curve.clone()),
            Some(r) => assert_eq!(r, &run.curve),
        }
        series.push(serde_json::json!({
            "system": "VirtualFlow", "gpus": gpus, "curve": run.curve,
        }));
    }
    println!("  → identical ✓\n");

    println!("TF* (bs 256 per GPU, LR not retuned):");
    let vf_final = reference
        .context("VF runs recorded")?
        .last()
        .copied()
        .context("a non-empty VF curve")?;
    for gpus in [1u32, 2, 4, 8] {
        let run = w.train(&format!("TF* {gpus} GPUs"), 256 * gpus as usize, gpus, gpus)?;
        println!("  {gpus:2} GPU(s): {}", sample(&run.curve));
        assert!(
            run.final_accuracy < vf_final,
            "TF* with {gpus} GPUs should stay below the VirtualFlow curve"
        );
        series.push(serde_json::json!({
            "system": "TF*", "gpus": gpus, "curve": run.curve,
        }));
    }
    println!("  → all conspicuously below the VirtualFlow target ✓");
    emit(
        "fig08_resnet_curves",
        &serde_json::json!({ "series": series }),
    )?;
    Ok(())
}
