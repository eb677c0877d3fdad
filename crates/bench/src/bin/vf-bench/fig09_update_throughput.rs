//! Figure 9: VirtualFlow's throughput advantage from reduced model update
//! frequency (§6.2.3), BERT-BASE finetuning at batch 64.
//!
//! At D GPUs, VirtualFlow runs batch 64 as 8/D virtual nodes per GPU and
//! updates once per 64 examples; TF* can only fit batch 8·D and updates
//! once per 8·D examples. The fewer GPUs, the larger VirtualFlow's edge
//! (paper: +16–19% at 1 GPU).

use vf_bench::report::{emit, print_table, Context, Mode, Result};
use vf_comm::LinkProfile;
use vf_core::perf_model::{throughput, ExecutionShape};
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::bert_base;

pub fn run(_: Mode) -> Result {
    println!("== Figure 9: model update frequency effect (BERT-BASE, batch 64) ==\n");
    let v100 = DeviceProfile::of(DeviceType::V100);
    let link = LinkProfile::nvlink(); // single-server GPU counts
    let model = bert_base();
    let micro = 8usize;
    let total_vns = 8usize; // batch 64 = 8 VNs x 8 examples

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for gpus in [1usize, 2, 4, 8] {
        let vn_per_gpu = total_vns / gpus;
        let vf = throughput(
            &model,
            &ExecutionShape::homogeneous(v100, gpus, vn_per_gpu, micro),
            &link,
        );
        // TF*: one native micro-batch per device, updates every step.
        let tf = throughput(
            &model,
            &ExecutionShape::homogeneous(v100, gpus, 1, micro),
            &link,
        );
        let gain = 100.0 * (vf / tf - 1.0);
        rows.push(vec![
            gpus.to_string(),
            format!("{}", 8 * gpus),
            "64".to_string(),
            format!("{tf:.1}"),
            format!("{vf:.1}"),
            format!("{gain:+.1}%"),
        ]);
        out.push(serde_json::json!({
            "gpus": gpus,
            "tf_batch": 8 * gpus,
            "vf_batch": 64,
            "tf_throughput": tf,
            "vf_throughput": vf,
            "gain_pct": gain,
        }));
    }
    print_table(
        &["GPUs", "TF* BS", "VF BS", "TF* ex/s", "VF ex/s", "VF gain"],
        &rows,
    );
    let gains = out
        .iter()
        .map(|r| r["gain_pct"].as_f64().context("numeric"))
        .collect::<Result<Vec<f64>>>()?;
    let last = *gains.last().context("non-empty")?;
    println!(
        "\ngain at 1 GPU: {:+.1}% (paper: +16.1–19.2%); at 8 GPUs VF and TF* coincide ✓",
        gains[0]
    );
    assert!(gains[0] > 5.0, "1-GPU gain must be visible");
    assert!(
        gains[0] > last,
        "fewer GPUs must benefit more than the VN-free configuration: {gains:?}"
    );
    assert!(
        last.abs() < 1.0,
        "at 8 GPUs VF runs 1 VN/GPU and must match TF*: {gains:?}"
    );
    emit(
        "fig09_update_throughput",
        &serde_json::json!({ "rows": out }),
    )?;
    Ok(())
}
