//! Figure 10: batch size exploration with VirtualFlow on a single
//! RTX 2080 Ti, finetuning BERT-LARGE stand-ins on RTE, SST-2, MRPC.
//!
//! Without virtual nodes the GPU caps the batch at 4; with them the user
//! explores [4, 8, 16, 32, 64, 128]. For RTE the larger batches converge
//! significantly higher (paper: +7.1 pp at batch 16).

use vf_bench::report::{emit, pct, print_table, Mode, Result};
use vf_bench::standins::{bert_large_task, LargeTask};

/// The micro-batch an RTX 2080 Ti natively holds for BERT-LARGE.
const NATIVE_MICRO_BATCH: usize = 4;

/// Batch sizes explored in the figure.
pub const BATCH_SIZES: [usize; 6] = [4, 8, 16, 32, 64, 128];

pub fn run(_: Mode) -> Result {
    println!("== Figure 10: batch exploration on one RTX 2080 Ti (BERT-LARGE) ==\n");
    let mut results = serde_json::Map::new();
    let mut rte_accs: Vec<f32> = Vec::new();
    for task in [LargeTask::Rte, LargeTask::Sst2, LargeTask::Mrpc] {
        let w = bert_large_task(task);
        println!("{}:", w.name);
        let mut rows = Vec::new();
        let mut series = Vec::new();
        for bs in BATCH_SIZES {
            let vns = (bs / NATIVE_MICRO_BATCH).max(1) as u32;
            let run = w.train(&format!("bs {bs}"), bs, vns, 1)?;
            rows.push(vec![
                bs.to_string(),
                vns.to_string(),
                if bs <= NATIVE_MICRO_BATCH {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
                pct(run.final_accuracy),
            ]);
            if task == LargeTask::Rte {
                rte_accs.push(run.final_accuracy);
            }
            series.push(serde_json::json!({
                "batch_size": bs,
                "virtual_nodes": vns,
                "final_accuracy": run.final_accuracy,
                "curve": run.curve,
            }));
        }
        print_table(&["BS", "VNs", "fits w/o VN", "acc %"], &rows);
        println!();
        results.insert(w.name.clone(), serde_json::Value::Array(series));
    }

    // The headline claim: RTE at batch 16 beats the native maximum (4).
    let acc4 = rte_accs[0];
    let acc16 = rte_accs[2];
    println!(
        "RTE: batch 16 vs batch 4 (native max): {:.2}% vs {:.2}% (+{:.1} pp; paper: +7.1)",
        acc16 * 100.0,
        acc4 * 100.0,
        (acc16 - acc4) * 100.0
    );
    assert!(
        acc16 > acc4 + 0.02,
        "RTE must gain visibly from the larger batch"
    );
    emit("fig10_bs_exploration", &serde_json::Value::Object(results))?;
    Ok(())
}
