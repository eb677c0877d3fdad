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
//! Usage: `vf-bench chaos_bench [--smoke]` — `--smoke` shrinks the run for the
//! tier-1 suite (a few seconds of wall clock).

use crate::{chaos_job, devices, fault_free_params};
use vf_bench::report::{print_table, Mode, Result};
use vf_comm::chaos::CommFaultModel;
use vf_core::chaos::{ChaosConfig, ChaosReport, ChaosSupervisor};
use vf_device::{FailureModel, FaultPlan, SpotModel};
use vf_obs::Metrics;

const SEED: u64 = 2022;

#[derive(serde::Serialize)]
struct ScenarioResult {
    scenario: String,
    report: ChaosReport,
    goodput_vs_fault_free: f64,
    bit_identical_to_fault_free: bool,
}

/// One fault intensity: crash/preemption mean intervals plus comm-fault
/// rates. `fault-free` carries no models at all, and comes first: every
/// goodput is relative to it.
struct Intensity {
    name: &'static str,
    crashes: Option<(f64, (f64, f64))>,
    comm: Option<(f64, f64, f64)>,
}

const INTENSITIES: &[Intensity] = &[
    Intensity {
        name: "fault-free",
        crashes: None,
        comm: None,
    },
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

/// Runs one intensity's fault plan, seeded off the bench seed.
fn run_scenario(spec: &Intensity, steps: u64) -> Result<(ChaosReport, Vec<vf_tensor::Tensor>)> {
    let name = spec.name;
    let (arch, dataset, config) = chaos_job(SEED)?;
    let mut plan = FaultPlan::new(SEED);
    if let Some((mtbf_s, (preempt_s, notice_s))) = spec.crashes {
        plan = plan
            .with_crashes(FailureModel::new(mtbf_s, SEED).map_err(|e| format!("{name}: {e}"))?)
            .with_preemptions(
                SpotModel::new(preempt_s, notice_s).map_err(|e| format!("{name}: {e}"))?,
            );
    }
    let mut cfg = ChaosConfig::new(plan, steps);
    cfg.comm = spec
        .comm
        .map(|(drop, dup, delay)| CommFaultModel::new(SEED, drop, dup, delay));
    cfg.cooldown_s = 90.0;
    cfg.bootstrap_s = 20.0;
    let sup = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..16), cfg)
        .map_err(|e| format!("{name}: supervisor: {e}"))?;
    let out = sup
        .run()
        .map_err(|e| format!("{name}: scenario did not survive its fault plan: {e}"))?;
    let params = out.trainer.params().to_vec();
    Ok((out.report, params))
}

pub fn run(mode: Mode) -> Result {
    let smoke = mode == Mode::Smoke;
    let steps: u64 = if smoke { 120 } else { 300 };
    println!("== chaos bench: {steps} steps per scenario ==\n");

    // Plain-trainer reference for the bit-equality assertion.
    let reference = fault_free_params(SEED, steps)?;

    // The smoke run leaves out the savage intensity.
    let intensities = if smoke {
        &INTENSITIES[..3]
    } else {
        INTENSITIES
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
    for spec in intensities {
        let name = spec.name;
        let (report, params) = run_scenario(spec, steps)?;
        let base = fault_free.get_or_insert_with(|| report.clone());
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
                if r.bit_identical_to_fault_free {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "scenario",
            "faults",
            "recoveries",
            "drained",
            "retries",
            "backoff(s)",
            "ckpt-fallbacks",
            "goodput",
            "bit-identical",
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
