//! Figure 7: BERT-BASE convergence trajectories across GPU counts overlap
//! when the batch size (64) and virtual node count are fixed.

use vf_bench::report::{emit, Mode, Result};
use vf_bench::standins::{bert_base_glue, GlueTask};

pub fn run(_: Mode) -> Result {
    println!("== Figure 7: BERT-BASE convergence trajectories, batch 64 ==");
    let mut all = serde_json::Map::new();
    for task in [GlueTask::Qnli, GlueTask::Sst2, GlueTask::Cola] {
        let w = bert_base_glue(task);
        println!("\n{}:", w.name);
        let mut series = Vec::new();
        let mut reference: Option<Vec<f32>> = None;
        for gpus in [1u32, 2, 4, 8] {
            let run = w.train(&format!("{gpus} GPUs"), 64, 8, gpus)?;
            // Console sparkline: accuracy every 4 epochs.
            let picks: Vec<String> = run
                .curve
                .iter()
                .step_by(4)
                .map(|a| format!("{:5.1}", a * 100.0))
                .collect();
            println!("  {gpus} GPU(s): {}", picks.join(" → "));
            match &reference {
                None => reference = Some(run.curve.clone()),
                Some(r) => assert_eq!(
                    r, &run.curve,
                    "trajectories must be identical across GPU counts"
                ),
            }
            series.push(serde_json::json!({
                "gpus": gpus,
                "curve": run.curve,
            }));
        }
        println!("  → all four trajectories identical ✓");
        all.insert(w.name.clone(), serde_json::Value::Array(series));
    }
    emit("fig07_bert_curves", &serde_json::Value::Object(all))?;
    Ok(())
}
