//! Recovery drill: end-to-end checkpoint durability under combined
//! device + communication + storage fault schedules.
//!
//! Each scenario trains the same job through the chaos supervisor with a
//! durable checkpoint store wired in, then asserts the headline robustness
//! claims from DESIGN.md §15:
//!
//! 1. the run ends **bit-identical** to a fault-free plain trainer, even
//!    when recovery went through storage (restore + replay);
//! 2. **zero silent restores** — no restore ever served bytes the storage
//!    fault oracle knows were damaged;
//! 3. in the sabotage scenario, where every durable save after step 0 is
//!    corrupted post-commit, the restore *detects* the corruption and
//!    falls back to an older valid checkpoint rather than trusting the
//!    newest.
//!
//! Exits nonzero if any scenario violates any of the three. All times are
//! simulated, so full-mode metrics are deterministic and gate-safe.
//!
//! Usage: `vf-bench recovery_drill [--smoke]` — `--smoke` shrinks step counts for
//! tier-1 and skips the history append.

use crate::{chaos_job, devices, fault_free_params};
use vf_bench::report::{print_table, Context, Mode, Result};
use vf_comm::chaos::CommFaultModel;
use vf_core::chaos::{ChaosConfig, ChaosReport, ChaosSupervisor};
use vf_device::{FailureModel, FaultPlan, RackModel, SpotModel};
use vf_obs::Metrics;
use vf_store::{StorageFaultPlan, StoreConfig};

const SEED: u64 = 2022;

/// A faulty-but-survivable storage plan: saves occasionally tear, crash, or
/// flip bits, and every read/write pays stall and bandwidth costs.
fn faulty_storage(seed: u64) -> StoreConfig {
    let mut cfg = StoreConfig::quiet(seed);
    cfg.plan = StorageFaultPlan::quiet(seed)
        .with_torn_writes(0.05)
        .with_bit_flips(0.03)
        .with_crash_writes(0.04)
        .with_stalls(0.05, 2.0);
    cfg.shard_bytes = 16 * 1024;
    cfg
}

struct Scenario {
    name: &'static str,
    cfg: ChaosConfig,
    /// The drill must observe at least one durable fallback restore here.
    expect_fallback: bool,
}

fn scenarios(steps: u64) -> Result<Vec<Scenario>> {
    // 1. Whole-fleet rack wipe + storage faults: recovery *must* go through
    //    the store, and some saves along the way tear or crash (by seeded
    //    draw), so the restore path sweeps real debris.
    let rack = {
        let plan = FaultPlan::new(SEED).with_racks(RackModel::new(4, 90.0).context("valid")?);
        let mut cfg = ChaosConfig::new(plan, steps);
        cfg.checkpoint_every = 10;
        cfg.store = Some(faulty_storage(SEED));
        cfg
    };
    // 2. Crashes + preemptions + comm faults + storage faults: elastic
    //    recovery carries most of the load; the store absorbs the periodic
    //    saves under fire.
    let combined = {
        let plan = FaultPlan::new(SEED)
            .with_crashes(FailureModel::new(180.0, SEED).context("valid")?)
            .with_preemptions(SpotModel::new(300.0, 45.0).context("valid")?);
        let mut cfg = ChaosConfig::new(plan, steps);
        cfg.comm = Some(CommFaultModel::new(SEED, 0.05, 0.01, 0.03));
        cfg.checkpoint_every = 10;
        cfg.cooldown_s = 90.0;
        cfg.bootstrap_s = 20.0;
        cfg.store = Some(faulty_storage(SEED + 1));
        cfg
    };
    // 3. Sabotage: every durable save after the step-0 seed is corrupted
    //    post-commit, and a rack wipe forces a restore. The store must
    //    detect the damage and fall back — restoring the newest checkpoint
    //    blindly would poison the trajectory.
    let sabotage = {
        let plan = FaultPlan::new(SEED).with_racks(RackModel::new(4, 90.0).context("valid")?);
        let mut cfg = ChaosConfig::new(plan, steps);
        cfg.checkpoint_every = 10;
        let mut sc = StoreConfig::quiet(SEED + 2);
        sc.retention.keep_last = 64; // keep the step-0 seed restorable
        sc.sabotage_saves = (1..64).collect();
        cfg.store = Some(sc);
        cfg
    };
    Ok(vec![
        Scenario {
            name: "rack-wipe+storage",
            cfg: rack,
            expect_fallback: false,
        },
        Scenario {
            name: "crashes+comm+storage",
            cfg: combined,
            expect_fallback: false,
        },
        Scenario {
            name: "sabotaged-newest",
            cfg: sabotage,
            expect_fallback: true,
        },
    ])
}

#[derive(serde::Serialize)]
struct DrillResult {
    scenario: String,
    report: ChaosReport,
    bit_identical: bool,
}

pub fn run(mode: Mode) -> Result {
    // The rack wipe fires at 90 simulated seconds; steps must comfortably
    // outlast it so every scenario actually exercises a durable restore.
    let steps: u64 = if mode == Mode::Smoke { 60 } else { 120 };
    println!("== recovery drill: {steps} steps per scenario ==\n");

    let reference = fault_free_params(SEED, steps)?;

    let metrics = Metrics::new();
    let mut results = Vec::new();
    let mut failed = false;
    for scenario in scenarios(steps)? {
        let (arch, dataset, config) = chaos_job(SEED)?;
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &devices(100..104), // spares on a different rack
            scenario.cfg,
        )
        .context("supervisor")?;
        let out = sup.run().context("drill survives its fault plan")?;
        let report = out.report;
        let bit_identical = out.trainer.params() == &reference[..];

        if !bit_identical {
            eprintln!(
                "FAIL: '{}' diverged from the fault-free trajectory",
                scenario.name
            );
            failed = true;
        }
        if report.store_silent_restores != 0 {
            eprintln!(
                "FAIL: '{}' served {} silently-corrupted restore(s)",
                scenario.name, report.store_silent_restores
            );
            failed = true;
        }
        if scenario.expect_fallback
            && (report.store_fallback_restores == 0 || report.store_corruptions_detected == 0)
        {
            eprintln!(
                "FAIL: '{}' never detected the sabotage or never fell back ({report:?})",
                scenario.name
            );
            failed = true;
        }
        if report.checkpoint_fallbacks == 0 && scenario.expect_fallback {
            eprintln!("FAIL: '{}' never exercised a restore at all", scenario.name);
            failed = true;
        }

        let n = scenario.name;
        metrics.set_gauge(&format!("{n}/sim_time_s"), report.sim_time_s);
        metrics.set_gauge(&format!("{n}/mttr_s"), report.mttr_s());
        metrics.inc(&format!("{n}/store_saves"), report.store_saves);
        metrics.inc(&format!("{n}/store_restores"), report.store_restores);
        metrics.inc(
            &format!("{n}/fallback_restores"),
            report.store_fallback_restores,
        );
        metrics.inc(
            &format!("{n}/corruptions_detected"),
            report.store_corruptions_detected,
        );
        metrics.inc(
            &format!("{n}/silent_restores"),
            report.store_silent_restores,
        );
        metrics.inc(&format!("{n}/bit_identical"), bit_identical as u64);
        results.push(DrillResult {
            scenario: n.to_string(),
            report,
            bit_identical,
        });
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.report.store_saves.to_string(),
                r.report.store_save_failures.to_string(),
                r.report.store_restores.to_string(),
                r.report.store_fallback_restores.to_string(),
                r.report.store_corruptions_detected.to_string(),
                r.report.store_silent_restores.to_string(),
                format!("{:.1}", r.report.mttr_s()),
                if r.bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "scenario",
            "saves",
            "save-fail",
            "restores",
            "fallbacks",
            "corrupt-det",
            "silent",
            "mttr(s)",
            "bit-identical",
        ],
        &rows,
    );

    mode.publish(
        "BENCH_recovery",
        "recovery_drill",
        serde_json::json!({ "steps": steps, "scenarios": results }),
        &metrics,
    )?;
    if failed {
        return Err("recovery drill checks failed (FAIL lines above)".into());
    }
    Ok(())
}
