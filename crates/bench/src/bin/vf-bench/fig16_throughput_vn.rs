//! Figure 16: training throughput on an RTX 2080 Ti across virtual node
//! counts, normalized by the no-virtual-node (TF) throughput.
//!
//! Large models (BERT-LARGE) gain up to ~1.3x because each step amortizes
//! one expensive model update over more examples; small models are flat.

use vf_bench::report::{emit, print_table, Context, Mode, Result};
use vf_comm::LinkProfile;
use vf_core::perf_model::{throughput, ExecutionShape};
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::{bert_base, bert_large, resnet50};

pub fn run(_: Mode) -> Result {
    println!("== Figure 16: normalized throughput vs virtual node count ==\n");
    let gpu = DeviceProfile::of(DeviceType::Rtx2080Ti);
    let link = LinkProfile::paper_testbed();
    let vn_counts = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for model in [resnet50(), bert_base(), bert_large()] {
        let micro = model.max_micro_batch_virtual(&gpu).max(1);
        let base = throughput(
            &model,
            &ExecutionShape::homogeneous(gpu, 1, 1, micro),
            &link,
        );
        let mut row = vec![model.name.clone()];
        let mut ratios = Vec::new();
        for &vn in &vn_counts {
            let t = throughput(
                &model,
                &ExecutionShape::homogeneous(gpu, 1, vn, micro),
                &link,
            );
            let r = t / base;
            row.push(format!("{r:.3}"));
            ratios.push(r);
        }
        assert!(
            ratios.iter().all(|&r| r >= 0.99),
            "{}: virtual nodes must never hurt throughput: {ratios:?}",
            model.name
        );
        assert!(
            ratios.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "{}: throughput must be non-decreasing in VN count",
            model.name
        );
        out.push(serde_json::json!({
            "model": model.name,
            "micro_batch": micro,
            "vn_counts": vn_counts,
            "normalized_throughput": ratios,
        }));
        rows.push(row);
    }
    print_table(&["model", "VN=1", "VN=2", "VN=4", "VN=8", "VN=16"], &rows);

    let at16 = |i: usize| {
        out[i]["normalized_throughput"][4]
            .as_f64()
            .context("numeric")
    };
    let (bert_large, resnet) = (at16(2)?, at16(0)?);
    println!(
        "\nBERT-LARGE reaches {:.2}x (paper: up to 1.3x); ResNet-50 stays ~flat at {:.2}x",
        bert_large, resnet
    );
    assert!(bert_large > 1.1, "BERT-LARGE must gain visibly");
    assert!(
        bert_large < 1.45,
        "gain must be bounded near the paper's 1.3x"
    );
    assert!(resnet < 1.1, "ResNet-50 must stay roughly flat");
    emit("fig16_throughput_vn", &serde_json::json!({ "rows": out }))?;
    Ok(())
}
