//! Figure 4: the resource/time trade-off that virtual nodes open up.
//!
//! The same ResNet-50 job (batch 8192 = 32 slices of 256) can run on 32,
//! 16, 8, … or 1 GPU by stacking more virtual nodes per device; step time
//! grows as devices shrink, while convergence is untouched. Today's
//! systems only offer the top-left point.

use vf_bench::report::{emit, print_table, Context, Mode, Result};
use vf_comm::LinkProfile;
use vf_core::memory_model::check_shape_fits;
use vf_core::perf_model::{step_time, ExecutionShape};
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::resnet50;

pub fn run(_: Mode) -> Result {
    println!("== Figure 4: the virtual-node design space (ResNet-50, batch 8192) ==\n");
    let v100 = DeviceProfile::of(DeviceType::V100);
    let link = LinkProfile::paper_testbed();
    let model = resnet50();
    let micro = 256usize;
    let total_vns = 32usize;

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut base_time = None;
    for gpus in [32usize, 16, 8, 4, 2, 1] {
        let vn_per_gpu = total_vns / gpus;
        let shape = ExecutionShape::homogeneous(v100, gpus, vn_per_gpu, micro);
        let peak = check_shape_fits(&model, &shape).context("config fits a V100")?;
        let t = step_time(&model, &shape, &link).total_s();
        let base = *base_time.get_or_insert(t);
        rows.push(vec![
            gpus.to_string(),
            vn_per_gpu.to_string(),
            format!("{:.3}", t),
            format!("{:.2}x", t / base),
            format!("{:.1}", peak as f64 / (1u64 << 30) as f64),
        ]);
        out.push(serde_json::json!({
            "gpus": gpus,
            "vn_per_gpu": vn_per_gpu,
            "step_time_s": t,
            "slowdown_vs_32": t / base,
            "peak_gib_per_gpu": peak as f64 / (1u64 << 30) as f64,
        }));
    }
    print_table(
        &["GPUs", "VN/GPU", "step (s)", "slowdown", "peak GiB/GPU"],
        &rows,
    );
    println!("\nresource requirement falls 32x while the job (and its result) stays the same;");
    println!("vanilla frameworks offer only the first row.");
    // Sanity: time monotonically increases as devices shrink; memory stays
    // bounded by the device.
    let times = out
        .iter()
        .map(|r| r["step_time_s"].as_f64().context("numeric"))
        .collect::<Result<Vec<f64>>>()?;
    assert!(times.windows(2).all(|w| w[1] > w[0]));
    emit("fig04_design_space", &serde_json::json!({ "rows": out }))?;
    Ok(())
}
