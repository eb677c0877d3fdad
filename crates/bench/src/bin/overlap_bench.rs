//! Overlap bench: what bucketed comm/compute pipelining buys.
//!
//! Two measurements, coarse to fine (both on the simulated clock — host
//! time is `perf_bench`'s subject, and bucketing has no host effect):
//!
//! 1. **Perf model** — a Figure-6-class workload (ResNet-50 on four
//!    2080 Tis, two virtual nodes each) through the analytical step-time
//!    model, additive single-sync versus overlapped 25 MB buckets. Asserts
//!    a *strict* steady-step improvement and reports the exposed-comm
//!    fraction; both are deterministic and gated by `bench_gate`.
//! 2. **Simulated trainer** — the chaos supervisor's fault-free clock over
//!    a real training run, 64 B buckets versus one bucket (the single sync
//!    after the last backward pass). Asserts strictly less simulated time
//!    *and* bit-identical final parameters (schedule change, never a value
//!    change).
//!
//! Usage: `overlap_bench [--smoke]` — `--smoke` shrinks the runs for
//! tier-1 and skips the history append.

use std::sync::Arc;
use vf_bench::report::{print_table, Context, Mode, Result};
use vf_comm::LinkProfile;
use vf_core::chaos::{ChaosConfig, ChaosSupervisor};
use vf_core::perf_model::{step_time, ExecutionShape, StepOptions, StepTimeBreakdown, SyncSchedule};
use vf_core::TrainerConfig;
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::{DeviceId, DeviceProfile, DeviceType, FaultPlan};
use vf_models::profile::resnet50;
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_obs::Metrics;

const SEED: u64 = 2022;

/// DDP-style default bucket threshold for the perf-model workload.
const MODEL_BUCKET_BYTES: u64 = 25 << 20;

/// Small-tensor threshold for the MLP trainer: one parameter per bucket.
const TRAINER_BUCKET_BYTES: u64 = 64;

fn devices(range: std::ops::Range<u32>) -> Vec<DeviceId> {
    range.map(DeviceId).collect()
}

fn parts() -> Result<(Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig)> {
    let dataset = Arc::new(ClusterTask::easy(SEED).generate().context("generates")?);
    let arch: Arc<dyn Architecture> = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
    let config = TrainerConfig::simple(8, 64, 0.1, SEED);
    Ok((arch, dataset, config))
}

/// Fault-free chaos run with the given bucket threshold (`u64::MAX`: one
/// bucket, the single sync).
///
/// The bench MLP's gradient is under a kilobyte, so on the paper-testbed
/// link its sync is a rounding error next to the simulated compute. The
/// link here is scaled down to put sync and compute in the same ratio
/// regime as ResNet-50 on the real testbed (~20% of the step), which is
/// the regime overlap exists for.
fn sim_run(
    steps: u64,
    bucket_bytes: u64,
) -> Result<(vf_core::chaos::ChaosReport, Vec<Vec<u32>>)> {
    let (arch, dataset, config) = parts()?;
    let mut cfg = ChaosConfig::new(FaultPlan::new(SEED), steps);
    cfg.bucket_bytes = bucket_bytes;
    cfg.link = LinkProfile {
        latency_s: 100.0e-6,
        bandwidth: 2.0e3,
    };
    let out = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..12), cfg)
        .context("supervisor")?
        .run()
        .context("fault-free run survives")?;
    let params = out
        .trainer
        .params()
        .iter()
        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    Ok((out.report, params))
}

/// Fraction of `total_s` of communication left exposed (0 without any).
fn exposed_fraction(exposed_s: f64, total_s: f64) -> f64 {
    if total_s > 0.0 {
        exposed_s / total_s
    } else {
        0.0
    }
}

/// The additive breakdown's fields, under the keys the committed reports use.
fn additive_json(t: &StepTimeBreakdown) -> serde_json::Value {
    serde_json::json!({
        "compute_s": t.compute_s,
        "accumulate_s": t.accumulate_s,
        "sync_s": t.sync_s,
        "update_s": t.update_s,
    })
}

/// The overlapped breakdown's fields, under the keys the committed reports
/// use (`total_comm_s` is `sync_s`).
fn overlapped_json(t: &StepTimeBreakdown) -> serde_json::Value {
    serde_json::json!({
        "compute_s": t.compute_s,
        "accumulate_s": t.accumulate_s,
        "overlappable_s": t.overlappable_s,
        "total_comm_s": t.sync_s,
        "exposed_comm_s": t.exposed_comm_s,
        "update_s": t.update_s,
        "buckets": t.buckets,
    })
}

fn main() -> Result {
    let mode = Mode::from_args();
    let sim_steps: u64 = if mode == Mode::Smoke { 80 } else { 300 };
    println!("== overlap bench: bucketed pipelined sync vs single-sync ==\n");

    let metrics = Metrics::new();
    let mut failed = false;

    // -- Part 1: analytical perf model on a fig06-class workload ----------
    let model = resnet50();
    let shape = ExecutionShape::homogeneous(DeviceProfile::of(DeviceType::Rtx2080Ti), 4, 2, 128);
    let link = LinkProfile::paper_testbed();
    let additive = step_time(&model, &shape, &link);
    let overlapped = step_time(
        &model,
        &shape,
        StepOptions { sync: SyncSchedule::Ring(link), bucket_bytes: Some(MODEL_BUCKET_BYTES) },
    );
    if overlapped.total_s() >= additive.total_s() {
        eprintln!(
            "FAIL: overlapped step ({:.4}s) not strictly faster than additive ({:.4}s)",
            overlapped.total_s(),
            additive.total_s()
        );
        failed = true;
    }
    metrics.set_gauge("model/steady_step_s", overlapped.total_s());
    metrics.set_gauge("model/baseline_step_s", additive.total_s());
    metrics.set_gauge("model/speedup", additive.total_s() / overlapped.total_s());
    let model_exposed_frac = exposed_fraction(overlapped.exposed_comm_s, overlapped.sync_s);
    metrics.set_gauge("model/exposed_comm_frac", model_exposed_frac);
    metrics.set_gauge("model/hidden_comm_s", overlapped.sync_s - overlapped.exposed_comm_s);

    // -- Part 2: simulated-time trainer through the chaos clock -----------
    let (single, single_params) = sim_run(sim_steps, u64::MAX)?;
    let (overlap, overlap_params) = sim_run(sim_steps, TRAINER_BUCKET_BYTES)?;
    if overlap.sim_time_s >= single.sim_time_s {
        eprintln!(
            "FAIL: overlapped sim time ({:.2}s) not strictly below single sync ({:.2}s)",
            overlap.sim_time_s, single.sim_time_s
        );
        failed = true;
    }
    if overlap_params != single_params {
        eprintln!("FAIL: overlapped trainer diverged from the single-sync trajectory");
        failed = true;
    }
    let exposed_frac = exposed_fraction(overlap.comm_exposed_s, overlap.comm_total_s);
    metrics.set_gauge("sim/steady_step_s", overlap.sim_time_s / sim_steps as f64);
    metrics.set_gauge(
        "sim/baseline_step_s",
        single.sim_time_s / sim_steps as f64,
    );
    metrics.set_gauge("sim/speedup", single.sim_time_s / overlap.sim_time_s);
    metrics.set_gauge("sim/exposed_comm_frac", exposed_frac);

    print_table(
        &["measurement", "baseline", "overlapped", "speedup", "exposed-frac"],
        &[
            vec![
                "perf-model step (s)".into(),
                format!("{:.4}", additive.total_s()),
                format!("{:.4}", overlapped.total_s()),
                format!("{:.3}x", additive.total_s() / overlapped.total_s()),
                format!("{:.3}", model_exposed_frac),
            ],
            vec![
                "sim step (s)".into(),
                format!("{:.4}", single.sim_time_s / sim_steps as f64),
                format!("{:.4}", overlap.sim_time_s / sim_steps as f64),
                format!("{:.3}x", single.sim_time_s / overlap.sim_time_s),
                format!("{:.3}", exposed_frac),
            ],
        ],
    );

    mode.publish(
        "BENCH_overlap",
        "overlap_bench",
        serde_json::json!({
            "model": {
                "additive": additive_json(&additive),
                "overlapped": overlapped_json(&overlapped),
            },
            "sim": { "single": single, "overlapped": overlap, "steps": sim_steps },
        }),
        &metrics,
    )?;
    if failed {
        return Err("overlap checks failed (FAIL lines above)".into());
    }
    Ok(())
}
