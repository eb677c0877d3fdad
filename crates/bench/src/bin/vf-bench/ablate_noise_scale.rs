//! Ablation: gradient noise scale vs batch-size sensitivity.
//!
//! §6.3 observes that RTE rewards larger batches while SST-2 barely cares.
//! The gradient noise scale (estimated from per-virtual-node gradients,
//! which VirtualFlow computes anyway) predicts this: tasks whose noise
//! scale far exceeds the deployable batch gain from batching; tasks whose
//! noise scale is already below it do not.

use std::sync::Arc;
use vf_bench::report::{emit, print_table, Context, Mode, Result};
use vf_bench::standins::{bert_large_task, LargeTask};
use vf_core::diagnostics::estimate_noise_scale;
use vf_models::trainable::Architecture;

pub fn run(_: Mode) -> Result {
    println!("== ablation: gradient noise scale predicts batch sensitivity ==\n");
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for task in [LargeTask::Rte, LargeTask::Sst2, LargeTask::Mrpc] {
        let w = bert_large_task(task);
        let (train, _val) = w.dataset()?;
        let arch: Arc<dyn Architecture> = Arc::new(w.arch.clone());
        let params = arch.init_params(w.task.seed);
        let noise =
            estimate_noise_scale(&arch, &params, &train, 256, 64, w.task.seed).context("valid")?;
        // Batch sensitivity measured directly: accuracy(bs 64) − accuracy(bs 4).
        let small = w.train("bs4", 4, 1, 1)?.final_accuracy;
        let large = w.train("bs64", 64, 16, 1)?.final_accuracy;
        let gain_pp = (large - small) * 100.0;
        rows.push(vec![
            w.name.clone(),
            format!("{:.0}", noise.b_simple),
            format!("{:+.1}", gain_pp),
        ]);
        out.push(serde_json::json!({
            "task": w.name,
            "noise_scale_examples": noise.b_simple,
            "bs64_vs_bs4_gain_pp": gain_pp,
        }));
    }
    print_table(
        &["task", "noise scale (examples)", "bs64 − bs4 (pp)"],
        &rows,
    );

    // The noisiest task must be the one that gains most from batching.
    // The last of equal maxima wins, as with `Iterator::max_by`.
    let argmax = |key: &str| -> Result<&serde_json::Value> {
        let mut best: Option<(&serde_json::Value, f64)> = None;
        for row in &out {
            let v = row[key].as_f64().context(key)?;
            if let Some((_, b)) = best {
                if v.partial_cmp(&b).context("comparable")?.is_lt() {
                    continue;
                }
            }
            best = Some((row, v));
        }
        best.map(|(row, _)| row).context("non-empty")
    };
    let max_noise = argmax("noise_scale_examples")?;
    let max_gain = argmax("bs64_vs_bs4_gain_pp")?;
    println!(
        "\nhighest noise scale: {} | largest batching gain: {}",
        max_noise["task"], max_gain["task"]
    );
    assert_eq!(
        max_noise["task"], max_gain["task"],
        "the noise scale must single out the batch-hungry task"
    );
    emit("ablate_noise_scale", &serde_json::json!({ "rows": out }))?;
    Ok(())
}
