//! Trace report: export a chaos run as a Chrome trace plus a readable
//! timeline, and *prove* the export is deterministic while doing it.
//!
//! The harness drives one training job through a mild fault plan with the
//! vf-obs recorder attached, twice — once with the kernel pool chunking
//! 4 ways, once serial — and exits nonzero unless the two exports are
//! byte-identical. A full run writes the surviving trace as
//! `results/TRACE_chaos.json` (Chrome `trace_event` format: load it in
//! `chrome://tracing` or Perfetto) and `results/TRACE_chaos.txt` (a
//! per-step human-readable timeline). Headline numbers flow through the
//! vf-obs [`Metrics`] registry so the summary block shares the schema of
//! every other `results/*.json`.
//!
//! Usage: `vf-bench trace_report [--smoke]` — `--smoke` shrinks the run for tier-1
//! and writes nothing: it checks and prints only.

use crate::{chaos_job, devices};
use std::sync::Arc;
use vf_bench::report::{Context, Mode, Result};
use vf_comm::chaos::CommFaultModel;
use vf_core::chaos::{ChaosConfig, ChaosReport, ChaosSupervisor};
use vf_device::{FailureModel, FaultPlan, SpotModel};
use vf_obs::{chrome, ArgValue, Event, Metrics, Phase, Recorder, RingSink};
use vf_tensor::pool;

const SEED: u64 = 2022;

/// Runs the chaos scenario with gradient buckets of `bucket_bytes`,
/// recording into `obs`, and returns the run report. `trace_profile`
/// profiles the same run.
pub fn run_chaos(steps: u64, bucket_bytes: u64, obs: Recorder) -> Result<ChaosReport> {
    let (arch, dataset, config) = chaos_job(SEED)?;
    let plan = FaultPlan::new(SEED)
        .with_crashes(FailureModel::new(250.0, SEED).context("valid")?)
        .with_preemptions(SpotModel::new(400.0, 50.0).context("valid")?);
    let mut cfg = ChaosConfig::new(plan, steps);
    cfg.comm = Some(CommFaultModel::new(SEED, 0.03, 0.005, 0.02));
    cfg.bucket_bytes = bucket_bytes;
    cfg.cooldown_s = 90.0;
    cfg.bootstrap_s = 20.0;
    let mut sup = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..16), cfg)
        .context("supervisor")?;
    sup.set_recorder(obs);
    Ok(sup
        .run()
        .context("scenario survives its fault plan")?
        .report)
}

/// Runs the chaos scenario with one bucket (the single sync) and returns
/// every recorded event plus the run report.
fn run_traced(steps: u64) -> Result<(Vec<Event>, ChaosReport)> {
    let sink = Arc::new(RingSink::unbounded());
    let report = run_chaos(steps, u64::MAX, Recorder::with_sink(sink.clone()))?;
    Ok((sink.events(), report))
}

fn fmt_arg(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(x) => x.to_string(),
        ArgValue::I64(x) => x.to_string(),
        ArgValue::F64(x) => format!("{x:.4}"),
        ArgValue::Str(s) => s.clone(),
    }
}

/// Renders the human-readable timeline: one line per event, simulated
/// milliseconds on the left, grouped visually by category.
fn render_timeline(events: &[Event], report: &ChaosReport) -> String {
    let mut out = String::new();
    out.push_str("# vf trace timeline — chaos scenario, simulated time\n");
    out.push_str(&format!(
        "# steps={} faults={} recoveries={} checkpoint_fallbacks={}\n",
        report.steps,
        report.faults_injected(),
        report.recoveries,
        report.checkpoint_fallbacks
    ));
    out.push_str("#      time  cat    event\n");
    for e in events {
        let ms = e.ts_us as f64 / 1e3;
        let kind = match e.ph {
            Phase::Complete => format!("{} [{}us]", e.name, e.dur_us),
            Phase::Instant => e.name.clone(),
            Phase::Counter => format!("{} =", e.name),
        };
        let args: Vec<String> = e
            .args
            .iter()
            .map(|(k, v)| format!("{k}={}", fmt_arg(v)))
            .collect();
        out.push_str(&format!(
            "{ms:>11.3}  {:<5}  {kind} {}\n",
            e.cat,
            args.join(" ")
        ));
    }
    out
}

pub fn run(mode: Mode) -> Result {
    let steps: u64 = if mode == Mode::Smoke { 80 } else { 300 };
    println!("== trace report: {steps}-step chaos run, traced ==\n");

    // The determinism gate: chunking 4 ways vs serial must export the
    // exact same bytes. Anything less means thread state leaked into the
    // trace, and the report is not worth writing.
    pool::set_num_threads(4);
    let (events, report) = run_traced(steps)?;
    pool::set_num_threads(1);
    let (events_serial, _) = run_traced(steps)?;
    let jsonl = chrome::render_jsonl(&events);
    if jsonl != chrome::render_jsonl(&events_serial) {
        return Err("trace export differs between 4-way and serial kernel pools".into());
    }
    println!("determinism: 4-thread and serial exports are byte-identical");

    // Self-validate: the Chrome render must parse as JSON and carry every
    // event (the renderer is hand-rolled for byte stability, so check it
    // against serde_json, which shares no code with it, before shipping
    // the file).
    let trace = chrome::render_trace(&events);
    let parsed: serde_json::Value =
        serde_json::from_str(&trace).context("rendered trace is not valid JSON")?;
    let n_parsed = parsed
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .map_or(0, Vec::len);
    if n_parsed != events.len() {
        return Err(format!(
            "trace carries {n_parsed} events, recorder saw {}",
            events.len()
        )
        .into());
    }

    // Headline numbers through the shared metrics registry.
    let m = Metrics::new();
    m.inc("trace/events", events.len() as u64);
    for e in &events {
        match e.cat {
            "train" => m.inc("trace/events_train", 1),
            "comm" => m.inc("trace/events_comm", 1),
            "chaos" => m.inc("trace/events_chaos", 1),
            _ => m.inc("trace/events_other", 1),
        }
    }
    m.set_gauge("chaos/steps", report.steps as f64);
    m.set_gauge("chaos/faults", report.faults_injected() as f64);
    m.set_gauge("chaos/recoveries", report.recoveries as f64);
    m.set_gauge("chaos/sim_time_s", report.sim_time_s);
    let st = pool::stats();
    m.set_gauge("pool/jobs_submitted", st.jobs_submitted as f64);
    m.set_gauge("pool/chunks_executed", st.chunks_executed as f64);
    m.set_gauge("pool/serial_fallbacks", st.serial_fallbacks as f64);
    println!("\nmetrics: {}\n", m.to_json());
    mode.write_artifact("TRACE_chaos.json", &trace)?;
    mode.write_artifact("TRACE_chaos.txt", &render_timeline(&events, &report))?;
    mode.record("trace_report", &m)?;
    Ok(())
}
