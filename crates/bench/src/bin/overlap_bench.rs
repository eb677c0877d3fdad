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
//!    a real training run, overlapped versus legacy sync. Asserts strictly
//!    less simulated time *and* bit-identical final parameters (schedule
//!    change, never a value change).
//!
//! Usage: `overlap_bench [--smoke]` — `--smoke` shrinks the runs for
//! tier-1 and skips the history append.

use std::process::ExitCode;
use std::sync::Arc;
use vf_bench::report::{append_history, emit, print_table};
use vf_comm::LinkProfile;
use vf_core::chaos::{ChaosConfig, ChaosSupervisor};
use vf_core::perf_model::{step_time, step_time_overlapped, ExecutionShape};
use vf_core::TrainerConfig;
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::{DeviceId, DeviceProfile, DeviceType, FaultPlan};
use vf_models::profile::resnet50;
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_obs::{HistoryRecord, Metrics};

const SEED: u64 = 2022;

/// DDP-style default bucket threshold for the perf-model workload.
const MODEL_BUCKET_BYTES: u64 = 25 << 20;

/// Small-tensor threshold for the MLP trainer: one parameter per bucket.
const TRAINER_BUCKET_BYTES: u64 = 64;

fn devices(range: std::ops::Range<u32>) -> Vec<DeviceId> {
    range.map(DeviceId).collect()
}

fn parts() -> (Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig) {
    let dataset =
        // vf-lint: allow(panic-ratchet) — harness setup with fixed valid inputs
        Arc::new(ClusterTask::easy(SEED).generate().expect("generates"));
    let arch: Arc<dyn Architecture> = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
    let config = TrainerConfig::simple(8, 64, 0.1, SEED);
    (arch, dataset, config)
}

/// Fault-free chaos run; `bucket_bytes` selects overlapped vs legacy sync.
///
/// The bench MLP's gradient is under a kilobyte, so on the paper-testbed
/// link its sync is a rounding error next to the simulated compute. The
/// link here is scaled down to put sync and compute in the same ratio
/// regime as ResNet-50 on the real testbed (~20% of the step), which is
/// the regime overlap exists for.
fn sim_run(steps: u64, bucket_bytes: Option<u64>) -> (vf_core::chaos::ChaosReport, Vec<Vec<u32>>) {
    let (arch, dataset, config) = parts();
    let mut cfg = ChaosConfig::new(FaultPlan::new(SEED), steps);
    cfg.bucket_bytes = bucket_bytes;
    cfg.link = LinkProfile {
        latency_s: 100.0e-6,
        bandwidth: 2.0e3,
    };
    let out = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..12), cfg)
        // vf-lint: allow(panic-ratchet) — harness aborts loudly on setup failure
        .expect("supervisor")
        .run()
        // vf-lint: allow(panic-ratchet) — a dead fault-free run leaves nothing to bench
        .expect("fault-free run survives");
    let params = out
        .trainer
        .params()
        .iter()
        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    (out.report, params)
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sim_steps: u64 = if smoke { 80 } else { 300 };
    println!("== overlap bench: bucketed pipelined sync vs single-sync ==\n");

    let metrics = Metrics::new();
    let mut failed = false;

    // -- Part 1: analytical perf model on a fig06-class workload ----------
    let model = resnet50();
    let shape = ExecutionShape::homogeneous(DeviceProfile::of(DeviceType::Rtx2080Ti), 4, 2, 128);
    let link = LinkProfile::paper_testbed();
    let additive = step_time(&model, &shape, &link);
    let overlapped = step_time_overlapped(&model, &shape, &link, MODEL_BUCKET_BYTES);
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
    metrics.set_gauge("model/exposed_comm_frac", overlapped.exposed_fraction());
    metrics.set_gauge("model/hidden_comm_s", overlapped.hidden_comm_s());

    // -- Part 2: simulated-time trainer through the chaos clock -----------
    let (legacy, legacy_params) = sim_run(sim_steps, None);
    let (overlap, overlap_params) = sim_run(sim_steps, Some(TRAINER_BUCKET_BYTES));
    if overlap.sim_time_s >= legacy.sim_time_s {
        eprintln!(
            "FAIL: overlapped sim time ({:.2}s) not strictly below legacy ({:.2}s)",
            overlap.sim_time_s, legacy.sim_time_s
        );
        failed = true;
    }
    if overlap_params != legacy_params {
        eprintln!("FAIL: overlapped trainer diverged from the single-sync trajectory");
        failed = true;
    }
    let exposed_frac = if overlap.comm_total_s > 0.0 {
        overlap.comm_exposed_s / overlap.comm_total_s
    } else {
        0.0
    };
    metrics.set_gauge("sim/steady_step_s", overlap.sim_time_s / sim_steps as f64);
    metrics.set_gauge(
        "sim/baseline_step_s",
        legacy.sim_time_s / sim_steps as f64,
    );
    metrics.set_gauge("sim/speedup", legacy.sim_time_s / overlap.sim_time_s);
    metrics.set_gauge("sim/exposed_comm_frac", exposed_frac);

    print_table(
        &["measurement", "baseline", "overlapped", "speedup", "exposed-frac"],
        &[
            vec![
                "perf-model step (s)".into(),
                format!("{:.4}", additive.total_s()),
                format!("{:.4}", overlapped.total_s()),
                format!("{:.3}x", additive.total_s() / overlapped.total_s()),
                format!("{:.3}", overlapped.exposed_fraction()),
            ],
            vec![
                "sim step (s)".into(),
                format!("{:.4}", legacy.sim_time_s / sim_steps as f64),
                format!("{:.4}", overlap.sim_time_s / sim_steps as f64),
                format!("{:.3}x", legacy.sim_time_s / overlap.sim_time_s),
                format!("{:.3}", exposed_frac),
            ],
        ],
    );

    let metrics_json: serde_json::Value =
        // vf-lint: allow(panic-ratchet) — registry rendering is self-tested; abort loudly
        serde_json::from_str(&metrics.to_json()).expect("metrics registry renders valid JSON");
    emit(
        if smoke { "BENCH_overlap_smoke" } else { "BENCH_overlap" },
        &serde_json::json!({
            "model": { "additive": additive, "overlapped": overlapped },
            "sim": { "legacy": legacy, "overlapped": overlap, "steps": sim_steps },
            "metrics": metrics_json,
        }),
    );
    if !smoke {
        append_history(&HistoryRecord::from_metrics("overlap_bench", &metrics));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
