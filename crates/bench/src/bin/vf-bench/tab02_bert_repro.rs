//! Table 2: BERT-BASE finetuning on GLUE (QNLI, SST-2, CoLA) across 1–8
//! GPUs at a fixed batch size of 64.
//!
//! VirtualFlow converges to the same accuracy on every GPU count within
//! each task — here *exactly* the same, since the executor is bit-level
//! deterministic.

use serde::Serialize;
use vf_bench::report::{emit, pct, print_table, Mode, Result};
use vf_bench::standins::{bert_base_glue, GlueTask};

#[derive(Serialize)]
struct Row {
    gpus: u32,
    batch_size: usize,
    vn_per_gpu: u32,
    qnli: f32,
    sst2: f32,
    cola: f32,
}

pub fn run(_: Mode) -> Result {
    println!("== Table 2: BERT-BASE finetuning on GLUE (stand-in), batch 64 ==\n");
    let tasks = [GlueTask::Qnli, GlueTask::Sst2, GlueTask::Cola];
    let total_vns = 8u32;
    let mut rows = Vec::new();
    for gpus in [1u32, 2, 4, 8] {
        let mut accs = [0.0f32; 3];
        for (i, &task) in tasks.iter().enumerate() {
            let w = bert_base_glue(task);
            let run = w.train(&format!("{} on {gpus} GPUs", w.name), 64, total_vns, gpus)?;
            accs[i] = run.final_accuracy;
        }
        rows.push(Row {
            gpus,
            batch_size: 64,
            vn_per_gpu: total_vns / gpus,
            qnli: accs[0],
            sst2: accs[1],
            cola: accs[2],
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.gpus.to_string(),
                r.batch_size.to_string(),
                r.vn_per_gpu.to_string(),
                pct(r.qnli),
                pct(r.sst2),
                pct(r.cola),
            ]
        })
        .collect();
    print_table(
        &["GPUs", "BS", "VN/GPU", "QNLI %", "SST-2 %", "CoLA %"],
        &table,
    );

    for col in 0..3 {
        let vals: Vec<f32> = rows.iter().map(|r| [r.qnli, r.sst2, r.cola][col]).collect();
        assert!(
            vals.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6),
            "accuracies must be identical across GPU counts"
        );
    }
    println!("\nwithin each task, every GPU count converges identically ✓");
    println!("(paper spread ≤1.6 pp from hardware nondeterminism; ours is exactly 0)");
    emit("tab02_bert_repro", &serde_json::json!({ "rows": rows }))?;
    Ok(())
}
