//! Figure 6: memory usage over the first 3 training steps of ResNet-50 on
//! a single RTX 2080 Ti, broken down by category.
//!
//! Activations dominate at the peak (they scale with the micro-batch), the
//! first step is slower (graph optimization), and usage cycles per step.

use vf_bench::report::{print_table, Context, Mode, Result};
use vf_core::memory_model::{simulate_step_timeline, timeline_peak};
use vf_device::{DeviceProfile, DeviceType, MemoryCategory};
use vf_models::profile::resnet50;
use vf_obs::Metrics;

pub fn run(_: Mode) -> Result {
    println!("== Figure 6: memory timeline, ResNet-50 on one RTX 2080 Ti ==\n");
    let gpu = DeviceProfile::of(DeviceType::Rtx2080Ti);
    let model = resnet50();
    let micro = model.max_micro_batch(&gpu);
    println!("micro-batch: {micro} examples (largest that fits)\n");

    let timeline =
        simulate_step_timeline(&model, &gpu, micro, 1, 3, 1, 3.0).context("configuration fits")?;

    // Print every snapshot as a row.
    let gib = |b: u64| format!("{:.2}", b as f64 / (1u64 << 30) as f64);
    let rows: Vec<Vec<String>> = timeline
        .iter()
        .map(|s| {
            vec![
                format!("{:.3}", s.time_s),
                gib(s.get(MemoryCategory::Parameters)),
                gib(s.get(MemoryCategory::OptimizerState)),
                gib(s.get(MemoryCategory::InputBatch)),
                gib(s.get(MemoryCategory::Activations)),
                gib(s.get(MemoryCategory::Gradients)),
                gib(s.total()),
            ]
        })
        .collect();
    print_table(
        &[
            "t (s)",
            "params",
            "opt",
            "input",
            "activations",
            "grads",
            "total GiB",
        ],
        &rows,
    );

    let peak_snapshot = timeline
        .iter()
        .max_by_key(|s| s.total())
        .context("non-empty timeline")?;
    let act = peak_snapshot.get(MemoryCategory::Activations);
    println!(
        "\npeak {:.2} GiB; activations are {:.0}% of it (paper: 'the vast majority')",
        timeline_peak(&timeline) as f64 / (1u64 << 30) as f64,
        100.0 * act as f64 / peak_snapshot.total() as f64
    );
    assert!(act * 2 > peak_snapshot.total(), "activations must dominate");

    // First step must take visibly longer than the second (graph warmup).
    // A step starts when the input batch goes from absent to present.
    let mut step_starts: Vec<f64> = Vec::new();
    let mut prev_input = 0u64;
    for s in &timeline {
        let input = s.get(MemoryCategory::InputBatch);
        if prev_input == 0 && input > 0 {
            step_starts.push(s.time_s);
        }
        prev_input = input;
    }
    assert!(step_starts.len() >= 3);
    let first = step_starts[1] - step_starts[0];
    let second = step_starts[2] - step_starts[1];
    println!(
        "step durations: {:.3}s (first, includes graph optimization) then {:.3}s",
        first, second
    );
    assert!(first > 1.5 * second);

    // Headline numbers through the shared vf-obs registry: one schema for
    // memory figures, traces, and the bench history.
    let metrics = Metrics::new();
    metrics.set_gauge("mem/micro_batch", micro as f64);
    metrics.set_gauge("mem/peak_bytes", timeline_peak(&timeline) as f64);
    metrics.set_gauge(
        "mem/activation_share",
        act as f64 / peak_snapshot.total() as f64,
    );
    metrics.set_gauge("mem/first_step_s", first);
    metrics.set_gauge("mem/steady_step_s", second);
    metrics.inc("mem/snapshots", timeline.len() as u64);
    // Pure simulated-time numbers: deterministic, and therefore gateable.
    Mode::Full.publish(
        "fig06_memory_timeline",
        "fig06_memory_timeline",
        serde_json::json!({ "micro_batch": micro, "timeline": timeline }),
        &metrics,
    )?;
    Ok(())
}
