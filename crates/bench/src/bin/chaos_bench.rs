//! Chaos bench: goodput and recovery accounting under fault injection.
//!
//! Runs the same training job under several fault intensities — fault-free,
//! mild, heavy, savage — through the chaos supervisor, then reports for
//! each scenario the recoveries, retries, backoff time, checkpoint
//! fallbacks, and goodput relative to the fault-free run. The bench also
//! *asserts* the paper's core claim: every scenario that never empties the
//! fleet must finish with parameters bit-identical to the fault-free run,
//! and exits nonzero if any diverges.
//!
//! Usage: `chaos_bench [--smoke]` — `--smoke` shrinks the run for the
//! tier-1 suite (a few seconds of wall clock).

use std::sync::Arc;
use vf_bench::report::{print_table, Context, Mode, Result};
use vf_comm::chaos::CommFaultModel;
use vf_core::chaos::{ChaosConfig, ChaosReport, ChaosSupervisor};
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::{DeviceId, FailureModel, FaultPlan, SpotModel};
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_obs::Metrics;

const SEED: u64 = 2022;

#[derive(serde::Serialize)]
struct ScenarioResult {
    scenario: String,
    report: ChaosReport,
    goodput_vs_fault_free: f64,
    bit_identical_to_fault_free: bool,
}

/// The shared training-job ingredients every scenario starts from.
type JobParts = (Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig);

fn parts() -> Result<JobParts> {
    let dataset = Arc::new(ClusterTask::easy(SEED).generate().context("dataset")?);
    let arch: Arc<dyn Architecture> = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
    let config = TrainerConfig::simple(8, 64, 0.1, SEED);
    Ok((arch, dataset, config))
}

fn devices(range: std::ops::Range<u32>) -> Vec<DeviceId> {
    range.map(DeviceId).collect()
}

/// One fault intensity: crash/preemption mean intervals plus comm-fault
/// rates. `fault-free` carries no models at all.
struct Intensity {
    name: &'static str,
    crashes: Option<(f64, (f64, f64))>,
    comm: Option<(f64, f64, f64)>,
}

const INTENSITIES: &[Intensity] = &[
    Intensity { name: "fault-free", crashes: None, comm: None },
    Intensity {
        name: "mild",
        crashes: Some((400.0, (600.0, 60.0))),
        comm: Some((0.01, 0.002, 0.01)),
    },
    Intensity {
        name: "heavy",
        crashes: Some((180.0, (300.0, 45.0))),
        comm: Some((0.05, 0.01, 0.03)),
    },
    Intensity {
        name: "savage",
        crashes: Some((90.0, (180.0, 30.0))),
        comm: Some((0.10, 0.02, 0.05)),
    },
];

/// The fault plan for a named intensity, seeded off the bench seed.
fn plan_for(name: &str) -> Result<(FaultPlan, Option<CommFaultModel>)> {
    let spec = INTENSITIES
        .iter()
        .find(|i| i.name == name)
        .ok_or_else(|| format!("unknown scenario {name}"))?;
    let mut plan = FaultPlan::new(SEED);
    if let Some((mtbf_s, (preempt_s, notice_s))) = spec.crashes {
        plan = plan
            .with_crashes(FailureModel::new(mtbf_s, SEED).map_err(|e| format!("{name}: {e}"))?)
            .with_preemptions(
                SpotModel::new(preempt_s, notice_s).map_err(|e| format!("{name}: {e}"))?,
            );
    }
    let comm = spec.comm.map(|(drop, dup, delay)| CommFaultModel::new(SEED, drop, dup, delay));
    Ok((plan, comm))
}

fn run_scenario(name: &str, steps: u64) -> Result<(ChaosReport, Vec<vf_tensor::Tensor>)> {
    let (arch, dataset, config) = parts()?;
    let (plan, comm) = plan_for(name)?;
    let mut cfg = ChaosConfig::new(plan, steps);
    cfg.comm = comm;
    cfg.cooldown_s = 90.0;
    cfg.bootstrap_s = 20.0;
    let sup = ChaosSupervisor::new(
        arch,
        dataset,
        config,
        &devices(0..4),
        &devices(8..16),
        cfg,
    )
    .map_err(|e| format!("{name}: supervisor: {e}"))?;
    let out = sup
        .run()
        .map_err(|e| format!("{name}: scenario did not survive its fault plan: {e}"))?;
    let params = out.trainer.params().to_vec();
    Ok((out.report, params))
}

fn main() -> Result {
    let mode = Mode::from_args();
    let smoke = mode == Mode::Smoke;
    let steps: u64 = if smoke { 120 } else { 300 };
    println!("== chaos bench: {steps} steps per scenario ==\n");

    // Plain-trainer reference for the bit-equality assertion.
    let reference = {
        let (arch, dataset, config) = parts()?;
        let mut t =
            Trainer::new(arch, dataset, config, &devices(0..4)).context("reference trainer")?;
        t.run_steps(steps as usize).context("reference run")?;
        t.params().to_vec()
    };

    let scenarios: &[&str] = if smoke {
        &["fault-free", "mild", "heavy"]
    } else {
        &["fault-free", "mild", "heavy", "savage"]
    };
    // Plans that never empty the 4-device fleet (backed by 8 spares): for
    // these the checkpoint last resort must stay untouched. Heavy and
    // savage intensities *can* wipe the fleet — there the fallback is
    // allowed, but the trajectory must still be bit-exact.
    let non_emptying: &[&str] = &["fault-free", "mild"];

    // Headline numbers also flow through the shared vf-obs registry, so the
    // emitted JSON carries the same canonical metrics block as the trace
    // reports and kernel bench.
    let metrics = Metrics::new();
    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut fault_free: Option<ChaosReport> = None;
    let mut diverged = false;
    for &name in scenarios {
        let (report, params) = run_scenario(name, steps)?;
        if name == "fault-free" {
            fault_free = Some(report.clone());
        }
        let Some(base) = fault_free.as_ref() else {
            return Err("scenario list must start with fault-free".into());
        };
        let identical = params == reference;
        if !identical {
            eprintln!("FAIL: scenario '{name}' diverged from the fault-free trajectory");
            diverged = true;
        }
        if non_emptying.contains(&name) && report.checkpoint_fallbacks != 0 {
            eprintln!("FAIL: non-emptying scenario '{name}' used the checkpoint last resort");
            diverged = true;
        }
        metrics.set_gauge(&format!("{name}/goodput"), report.goodput_vs(base));
        metrics.set_gauge(&format!("{name}/sim_time_s"), report.sim_time_s);
        metrics.inc(&format!("{name}/faults"), report.faults_injected() as u64);
        metrics.inc(&format!("{name}/recoveries"), report.recoveries as u64);
        metrics.inc(
            &format!("{name}/checkpoint_fallbacks"),
            report.checkpoint_fallbacks as u64,
        );
        results.push(ScenarioResult {
            scenario: name.to_string(),
            goodput_vs_fault_free: report.goodput_vs(base),
            bit_identical_to_fault_free: identical,
            report,
        });
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.report.faults_injected().to_string(),
                r.report.recoveries.to_string(),
                r.report.drained.to_string(),
                r.report.recovery_retries.to_string(),
                format!("{:.0}", r.report.backoff_total_s),
                r.report.checkpoint_fallbacks.to_string(),
                format!("{:.3}", r.goodput_vs_fault_free),
                if r.bit_identical_to_fault_free { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "scenario", "faults", "recoveries", "drained", "retries", "backoff(s)",
            "ckpt-fallbacks", "goodput", "bit-identical",
        ],
        &rows,
    );

    mode.publish(
        "BENCH_chaos",
        "chaos_bench",
        serde_json::json!({ "scenarios": results }),
        &metrics,
    )?;
    if diverged {
        return Err("a scenario broke the fault-free trajectory (FAIL lines above)".into());
    }
    Ok(())
}
