//! Figure 11: training throughput of the Figure 10 batch exploration on a
//! single RTX 2080 Ti.
//!
//! Larger batches (more virtual nodes) mean fewer model updates per
//! example; for BERT-LARGE the update is expensive, so throughput rises
//! with the batch size (paper: +18.5% at batch 16, +28.7% at 128).

use vf_bench::report::{emit, print_table, Context, Mode, Result};
use vf_comm::LinkProfile;
use vf_core::perf_model::{throughput, ExecutionShape};
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::bert_large;

pub fn run(_: Mode) -> Result {
    println!("== Figure 11: throughput of batch exploration (BERT-LARGE, 1x 2080 Ti) ==\n");
    let gpu = DeviceProfile::of(DeviceType::Rtx2080Ti);
    let link = LinkProfile::paper_testbed();
    let model = bert_large();
    let micro = 4usize; // the native per-pass capacity

    let base = throughput(
        &model,
        &ExecutionShape::homogeneous(gpu, 1, 1, micro),
        &link,
    );
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for bs in [4usize, 8, 16, 32, 64, 128] {
        let vns = bs / micro;
        let t = throughput(
            &model,
            &ExecutionShape::homogeneous(gpu, 1, vns, micro),
            &link,
        );
        let gain = 100.0 * (t / base - 1.0);
        rows.push(vec![
            bs.to_string(),
            vns.to_string(),
            format!("{t:.2}"),
            format!("{gain:+.1}%"),
        ]);
        out.push(serde_json::json!({
            "batch_size": bs,
            "virtual_nodes": vns,
            "throughput_ex_per_s": t,
            "gain_vs_tf_pct": gain,
        }));
    }
    print_table(&["BS", "VNs", "examples/s", "vs TF (bs 4)"], &rows);

    let t16 = out[2]["gain_vs_tf_pct"].as_f64().context("numeric")?;
    let t128 = out[5]["gain_vs_tf_pct"].as_f64().context("numeric")?;
    println!("\nbatch 16: {t16:+.1}% (paper +18.5%) | batch 128: {t128:+.1}% (paper +28.7%)");
    assert!(t16 > 5.0, "batch 16 must improve throughput noticeably");
    assert!(t128 > t16, "gains must grow with the batch size");
    emit("fig11_bs_throughput", &serde_json::json!({ "rows": out }))?;
    Ok(())
}
