//! Monitor bench: alert recall, precision, and render determinism.
//!
//! Drives the `vf-obs` monitor through a battery of fault scenarios —
//! chaos-supervised training runs, cluster-scheduler traces, and a
//! diverging trainer — and *asserts* three properties of the alerting
//! pipeline:
//!
//! * **recall** — every scenario fires the alerts its fault class is
//!   supposed to fire (comm retry storms trip the retry-storm and SLO
//!   burn rules, rack wipes trip the checkpoint-fallback rule, corrupted
//!   stores additionally trip the corruption rule, scheduler overload
//!   trips queue-runaway, a capacity outage trips utilization-collapse,
//!   a diverging loss trips the non-finite rule);
//! * **precision** — the fault-free runs (one chaos, one scheduler)
//!   fire *zero* alerts;
//! * **determinism** — the Prometheus exposition, the HTML dashboard,
//!   and the status board are byte-identical when the same scenario is
//!   replayed under a different worker-thread count.
//!
//! A full run writes representative renders to
//! `results/MONITOR_*.{txt,html}` and feeds the headline counts into the
//! bench-gate history.
//!
//! Usage: `vf-bench monitor_bench [--smoke]` — `--smoke` writes only
//! `BENCH_monitor_smoke.json` for the tier-1 suite; scenario sizes are
//! identical in both modes so the gated counts never drift between smoke
//! and full runs.

use crate::{chaos_job, devices};
use std::sync::Arc;
use vf_bench::report::{print_table, Mode, Result};
use vf_comm::chaos::CommFaultModel;
use vf_core::chaos::{ChaosConfig, ChaosSupervisor};
use vf_device::{FaultPlan, RackModel};
use vf_models::profile::resnet56;
use vf_obs::{Metrics, Monitor, Recorder};
use vf_sched::sim::run_trace_recorded;
use vf_sched::{CapacityEvent, ElasticWfs, JobId, JobSpec, SimConfig};
use vf_store::StoreConfig;

const SEED: u64 = 2022;
/// Seed for the rack-wipe fault plans; matches the chaos-suite recipe
/// where `FaultPlan::new(5)` wipes the 4-device rack early in the run.
const RACK_SEED: u64 = 5;

/// Everything a scenario leaves behind for the gates: which rules fired
/// and the three deterministic renders.
struct ScenarioRun {
    fired: Vec<String>,
    status: String,
    prom: String,
    dashboard: String,
}

fn finish(name: &str, mon: &Monitor) -> ScenarioRun {
    ScenarioRun {
        fired: mon.fired_rules(),
        status: mon.render_status_board(),
        prom: mon.render_prometheus(),
        dashboard: mon.render_dashboard(&format!("vf monitor — {name}")),
    }
}

/// Chaos-supervised run: `plan`/`comm` drive the fault injection, the
/// supervisor publishes its signals into a fresh default-pack monitor
/// every step. A run with a `store` is a rack scenario: it checkpoints
/// every 10 steps, and its spares sit on another rack.
fn chaos_scenario(
    name: &str,
    seed: u64,
    steps: u64,
    plan: FaultPlan,
    comm: Option<CommFaultModel>,
    store: Option<StoreConfig>,
) -> Result<ScenarioRun> {
    let (arch, dataset, config) = chaos_job(seed)?;
    let mut cfg = ChaosConfig::new(plan, steps);
    cfg.comm = comm;
    let spares = if store.is_some() {
        cfg.checkpoint_every = 10;
        devices(100..104) // different rack: never part of rack 0's fault
    } else {
        cfg.cooldown_s = 90.0;
        cfg.bootstrap_s = 20.0;
        devices(8..16)
    };
    cfg.store = store;
    let mut sup = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &spares, cfg)
        .map_err(|e| format!("{name}: supervisor: {e}"))?;
    let mon = Arc::new(Monitor::with_default_pack());
    sup.set_recorder(Recorder::disabled().with_monitor(mon.clone()));
    sup.run()
        .map_err(|e| format!("{name}: scenario did not survive its fault plan: {e}"))?;
    Ok(finish(name, &mon))
}

/// A diverging training run. The tensor stack clamps cross-entropy away
/// from `-inf` (and the clamp's `max` swallows NaN probabilities), so a
/// real trainer here can never emit a non-finite loss; this scenario
/// replays the gauge sequence a diverging trainer *would* publish — a few
/// healthy steps, a blow-up, then NaN — straight into the registry, which
/// is exactly the surface a trainer whose recorder carries a monitor
/// writes to.
fn nonfinite_scenario(name: &str) -> Result<ScenarioRun> {
    let mon = Monitor::with_default_pack();
    let m = mon.metrics();
    for step in 0..20u64 {
        let loss = match step {
            0..=11 => 2.5 - 0.1 * step as f64,
            12..=15 => 10.0_f64.powi(step as i32 - 9),
            _ => f64::NAN,
        };
        m.set_gauge("train/loss", loss);
        m.set_counter("train/steps", step + 1);
        mon.tick(step as f64, &Recorder::disabled());
    }
    Ok(finish(name, &mon))
}

fn job(id: u32, demand: u32, steps: u64, arrival: f64) -> JobSpec {
    JobSpec {
        id: JobId(id),
        name: format!("j{id}"),
        priority: 1 + id % 4,
        demand,
        total_vns: demand * 2,
        model: resnet56(),
        micro_batch: 32,
        total_steps: steps,
        arrival_s: arrival,
    }
}

/// Scheduler trace replayed through `run_trace_recorded` with a fresh
/// default-pack monitor ticking at every scheduling event.
fn sched_scenario(name: &str, trace: &[JobSpec], config: &SimConfig) -> Result<ScenarioRun> {
    let mon = Arc::new(Monitor::with_default_pack());
    let obs = Recorder::disabled().with_monitor(mon.clone());
    run_trace_recorded(trace, &mut ElasticWfs::new(), config, &obs);
    Ok(finish(name, &mon))
}

/// A queue that outruns the cluster: sixteen long 4-GPU jobs land two
/// seconds apart on a 4-GPU cluster, so the backlog passes the runaway
/// threshold early and stays there for minutes of simulated time.
fn overload_trace() -> Vec<JobSpec> {
    (0..16)
        .map(|i| job(i, 4, 6000, 2.0 * f64::from(i)))
        .collect()
}

/// A capacity outage under sustained demand: the cluster drops to zero
/// GPUs at t=30s and returns at t=600s while jobs keep arriving, so the
/// starvation gauge pins at 1 for the whole outage.
fn outage_trace() -> (Vec<JobSpec>, SimConfig) {
    let mut trace = vec![job(0, 2, 200, 0.0), job(1, 2, 200, 5.0)];
    for i in 0..36u32 {
        trace.push(job(100 + i, 2, 50, 40.0 + 10.0 * f64::from(i)));
    }
    let mut config = SimConfig::v100_cluster(4);
    config.capacity_events = vec![
        CapacityEvent {
            at_s: 30.0,
            num_gpus: 0,
        },
        CapacityEvent {
            at_s: 600.0,
            num_gpus: 4,
        },
    ];
    (trace, config)
}

/// A healthy trace: four small jobs, generously spaced, that the cluster
/// absorbs without ever queueing deep or starving.
fn calm_trace() -> Vec<JobSpec> {
    (0..4).map(|i| job(i, 2, 60, 30.0 * f64::from(i))).collect()
}

/// One named scenario plus the alerts its fault class must fire.
struct Scenario {
    name: &'static str,
    /// Runs the scenario under its name.
    run: fn(&'static str) -> Result<ScenarioRun>,
    /// Rules that MUST be in the fired set (recall gate). Extra fired
    /// rules are fine for faulty scenarios.
    expect: &'static [&'static str],
    /// Fault-free scenario: ANY fired alert is a false positive.
    fault_free: bool,
}

/// A rack wipe early in the run, which forces a durable restore.
fn rack_wipe(name: &str) -> Result<FaultPlan> {
    let rack = RackModel::new(4, 90.0).map_err(|e| format!("{name}: rack model: {e}"))?;
    Ok(FaultPlan::new(RACK_SEED).with_racks(rack))
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "chaos-calm",
        run: |name| chaos_scenario(name, SEED, 120, FaultPlan::new(SEED), None, None),
        expect: &[],
        fault_free: true,
    },
    Scenario {
        name: "sched-calm",
        run: |name| sched_scenario(name, &calm_trace(), &SimConfig::v100_cluster(4)),
        expect: &[],
        fault_free: true,
    },
    Scenario {
        name: "comm-storm",
        run: |name| {
            let comm = CommFaultModel::new(SEED, 0.10, 0.02, 0.05);
            chaos_scenario(name, SEED, 240, FaultPlan::new(SEED), Some(comm), None)
        },
        expect: &["comm/retry-storm", "comm/slo-burn"],
        fault_free: false,
    },
    Scenario {
        name: "rack-wipe",
        run: |name| {
            let store = StoreConfig::quiet(RACK_SEED);
            chaos_scenario(name, RACK_SEED, 60, rack_wipe(name)?, None, Some(store))
        },
        expect: &["store/checkpoint-fallback"],
        fault_free: false,
    },
    Scenario {
        name: "corrupt-store",
        run: |name| {
            let mut store = StoreConfig::quiet(RACK_SEED);
            store.retention.keep_last = 64; // keep the step-0 seed restorable
            store.sabotage_saves = (1..64).collect();
            chaos_scenario(name, RACK_SEED, 60, rack_wipe(name)?, None, Some(store))
        },
        expect: &["store/checkpoint-fallback", "store/corruption"],
        fault_free: false,
    },
    Scenario {
        name: "sched-overload",
        run: |name| sched_scenario(name, &overload_trace(), &SimConfig::v100_cluster(4)),
        expect: &["sched/queue-runaway"],
        fault_free: false,
    },
    Scenario {
        name: "sched-outage",
        run: |name| {
            let (trace, config) = outage_trace();
            sched_scenario(name, &trace, &config)
        },
        expect: &["sched/util-collapse"],
        fault_free: false,
    },
    Scenario {
        name: "nonfinite-loss",
        run: nonfinite_scenario,
        expect: &["train/nonfinite-loss"],
        fault_free: false,
    },
];

pub fn run(mode: Mode) -> Result {
    println!("== monitor bench: {} scenarios ==\n", SCENARIOS.len());

    let metrics = Metrics::new();
    let mut failed = false;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut status_boards = String::new();
    let mut storm_renders: Option<(String, String)> = None;
    let orig_threads = vf_tensor::pool::num_threads();
    for sc in SCENARIOS {
        // Replay under two worker-thread counts: the monitor pipeline is
        // pure in sim time, so every render must be byte-stable.
        vf_tensor::pool::set_num_threads(1);
        let one = (sc.run)(sc.name)?;
        vf_tensor::pool::set_num_threads(4);
        let four = (sc.run)(sc.name)?;
        vf_tensor::pool::set_num_threads(orig_threads);

        let deterministic =
            one.status == four.status && one.prom == four.prom && one.dashboard == four.dashboard;
        if !deterministic {
            eprintln!(
                "FAIL: scenario '{}' renders differ across thread counts",
                sc.name
            );
            metrics.inc("monitor/render_mismatches", 1);
            failed = true;
        }
        let missed: Vec<&str> = sc
            .expect
            .iter()
            .filter(|r| !one.fired.iter().any(|f| f == *r))
            .copied()
            .collect();
        if !missed.is_empty() {
            eprintln!(
                "FAIL: scenario '{}' never fired {:?} (fired: {:?})",
                sc.name, missed, one.fired
            );
            metrics.inc("monitor/recall_misses", missed.len() as u64);
            failed = true;
        }
        if sc.fault_free && !one.fired.is_empty() {
            eprintln!(
                "FAIL: fault-free scenario '{}' fired {:?}",
                sc.name, one.fired
            );
            metrics.inc("monitor/false_positives", one.fired.len() as u64);
            failed = true;
        }
        metrics.inc(&format!("{}/alerts_fired", sc.name), one.fired.len() as u64);
        rows.push(vec![
            sc.name.to_string(),
            sc.expect.join(","),
            one.fired.join(","),
            if missed.is_empty() { "yes" } else { "NO" }.to_string(),
            if deterministic { "yes" } else { "NO" }.to_string(),
        ]);
        status_boards.push_str(&format!("--- {}\n{}\n", sc.name, one.status));
        if sc.name == "comm-storm" {
            storm_renders = Some((one.prom.clone(), one.dashboard.clone()));
        }
    }
    // Zero-initialise the gate counters so a clean run still publishes
    // them (the baseline pins all three at zero).
    for key in [
        "monitor/render_mismatches",
        "monitor/recall_misses",
        "monitor/false_positives",
    ] {
        metrics.inc(key, 0);
    }

    print_table(
        &["scenario", "expected", "fired", "recall", "deterministic"],
        &rows,
    );

    mode.write_artifact("MONITOR_status.txt", &status_boards)?;
    if let Some((prom, dash)) = &storm_renders {
        mode.write_artifact("MONITOR_prom.txt", prom)?;
        mode.write_artifact("MONITOR_dashboard.html", dash)?;
    }
    mode.publish(
        "BENCH_monitor",
        "monitor_bench",
        serde_json::json!({ "scenarios": rows }),
        &metrics,
    )?;
    if failed {
        return Err("monitor checks failed (FAIL lines above)".into());
    }
    Ok(())
}
