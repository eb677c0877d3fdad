//! Figure 15: peak memory on an RTX 2080 Ti across virtual node counts,
//! normalized by the no-virtual-node (TF) peak.
//!
//! The only overhead is the per-device gradient buffer — one model-sized
//! tensor — so the ratio jumps once between 1 and 2 virtual nodes, stays
//! constant afterwards, scales with the model size, and never exceeds 20%.

use vf_bench::report::{print_table, Context, Mode, Result};
use vf_core::memory_model::{simulate_step_timeline, timeline_peak};
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::{bert_base, bert_large, resnet50};
use vf_obs::Metrics;

pub fn run(_: Mode) -> Result {
    println!("== Figure 15: normalized peak memory vs virtual node count ==\n");
    let gpu = DeviceProfile::of(DeviceType::Rtx2080Ti);
    let vn_counts = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    // Headline numbers flow through the shared registry so this figure,
    // the traces, and the bench history speak one schema.
    let metrics = Metrics::new();
    for model in [resnet50(), bert_base(), bert_large()] {
        let micro = model.max_micro_batch_virtual(&gpu).max(1);
        let base = timeline_peak(
            &simulate_step_timeline(&model, &gpu, micro, 1, 1, 1, 1.0).context("fits")?,
        ) as f64;
        let mut row = vec![model.name.clone(), micro.to_string()];
        let mut ratios = Vec::new();
        for &vn in &vn_counts {
            let peak = timeline_peak(
                &simulate_step_timeline(&model, &gpu, micro, vn, 1, 1, 1.0).context("fits")?,
            ) as f64;
            let ratio = peak / base;
            row.push(format!("{ratio:.3}"));
            ratios.push(ratio);
        }
        // Paper's claims, asserted per model.
        assert!(
            (ratios[0] - 1.0).abs() < 1e-9,
            "{}: VN=1 is the baseline",
            model.name
        );
        assert!(
            ratios[1] > 1.0 && ratios[1] <= 1.20,
            "{}: overhead must be positive and ≤20%: {ratios:?}",
            model.name
        );
        assert!(
            ratios[1..].windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9),
            "{}: overhead must be constant beyond 2 VNs",
            model.name
        );
        metrics.set_gauge(&format!("mem/{}/micro_batch", model.name), micro as f64);
        metrics.set_gauge(&format!("mem/{}/overhead_ratio_vn2", model.name), ratios[1]);
        metrics.set_gauge(&format!("mem/{}/base_peak_bytes", model.name), base);
        out.push(serde_json::json!({
            "model": model.name,
            "micro_batch": micro,
            "vn_counts": vn_counts,
            "normalized_peak": ratios,
        }));
        rows.push(row);
    }
    print_table(
        &[
            "model",
            "micro-batch",
            "VN=1",
            "VN=2",
            "VN=4",
            "VN=8",
            "VN=16",
        ],
        &rows,
    );
    println!("\noverhead appears once (the gradient buffer), is constant in VN count,");
    println!("scales with model size, and stays below 20% — matching Figure 15.");
    // Larger models pay a larger relative overhead.
    let jump = |i: usize| out[i]["normalized_peak"][1].as_f64().context("numeric");
    let (bert_large_jump, resnet_jump) = (jump(2)?, jump(0)?);
    assert!(
        bert_large_jump > resnet_jump,
        "BERT-LARGE jump must exceed ResNet-50's"
    );
    // Pure simulated-time numbers: deterministic, and therefore gateable.
    Mode::Full.publish(
        "fig15_memory_overhead",
        "fig15_memory_overhead",
        serde_json::json!({ "rows": out }),
        &metrics,
    )?;
    Ok(())
}
