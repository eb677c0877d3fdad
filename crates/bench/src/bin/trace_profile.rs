//! Trace profile: where did the time go?
//!
//! Records one combined scenario — a chaos-supervised training run (train
//! / comm / chaos spans), an elastic-scheduler simulation (per-job run
//! spans, cluster counters), and per-device memory timelines replayed
//! through `vf-device`'s `MemoryTracker` — then turns the recorded events
//! into the analysis artifacts the recording spine was built for:
//!
//! * `results/PROFILE_chaos.txt` — the exact critical path through
//!   trainer → allreduce → scheduler spans, the per-span self-time table,
//!   and per-track busy/utilization;
//! * `results/PROFILE_chaos.collapsed` — collapsed stacks (flamegraph
//!   format), weighted by self-time;
//! * `results/PROFILE_counters.txt` — every counter timeline, including
//!   the per-device `dev{N}/…` memory and busy series.
//!
//! Like `trace_report`, the harness is its own determinism gate: the
//! whole scenario runs twice (kernel pool chunking 4 ways, then serial)
//! and exits nonzero unless every artifact is byte-identical. It also
//! checks the profiler invariants on the real trace — critical-path
//! duration bounded by the traced window, self-times summing to the
//! traced total — and finishes by appending its headline numbers to
//! `results/BENCH_history.jsonl` for the `bench_gate` regression check.
//!
//! Usage: `trace_profile [--smoke]` — `--smoke` shrinks the run for tier-1
//! and writes nothing: it checks and prints only.

use std::sync::Arc;
use vf_bench::report::{Context, Mode, Result};
use vf_comm::chaos::CommFaultModel;
use vf_core::chaos::{ChaosConfig, ChaosReport, ChaosSupervisor};
use vf_core::memory_model::simulate_step_timeline;
use vf_core::TrainerConfig;
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::memory::{MemoryCategory, MemoryTracker};
use vf_device::obs::emit_memory_timeline;
use vf_device::{DeviceId, DeviceProfile, DeviceType, FailureModel, FaultPlan, SpotModel};
use vf_models::profile::resnet50;
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_obs::profile::{counter_series, render_counter_series};
use vf_obs::{Event, Metrics, Phase, Profile, Recorder, RingSink};
use vf_sched::trace::three_job_trace;
use vf_sched::{run_trace_recorded, ElasticWfs, SimConfig};
use vf_tensor::pool;

const SEED: u64 = 2022;

fn parts() -> Result<(Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig)> {
    let dataset = Arc::new(ClusterTask::easy(SEED).generate().context("generates")?);
    let arch: Arc<dyn Architecture> = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
    let config = TrainerConfig::simple(8, 64, 0.1, SEED);
    Ok((arch, dataset, config))
}

fn devices(range: std::ops::Range<u32>) -> Vec<DeviceId> {
    range.map(DeviceId).collect()
}

/// Replays a simulated memory timeline through a real [`MemoryTracker`]
/// (so per-category peaks come from the tracker, not recomputation) and
/// emits both the timeline counters and the tracker's peaks onto device
/// `index`'s trace track.
fn emit_device_memory(obs: &Recorder, index: usize, gpu: &DeviceProfile, vns: usize) -> Result {
    let model = resnet50();
    // Virtual-aware sizing: leaves room for the VN gradient buffer.
    let micro = model.max_micro_batch_virtual(gpu).max(1);
    let timeline = simulate_step_timeline(&model, gpu, micro, vns, 2, 2, 2.0)
        .context("memory configuration fits")?;
    emit_memory_timeline(obs, index, &timeline);
    let mut tracker = MemoryTracker::new(gpu.memory_bytes);
    let mut prev = [0u64; 6];
    for snap in &timeline {
        for (ci, cat) in MemoryCategory::ALL.iter().enumerate() {
            let cur = snap.by_category[ci];
            if cur > prev[ci] {
                tracker
                    .alloc(*cat, cur - prev[ci], snap.time_s)
                    .context("replayed timeline fits")?;
            } else if cur < prev[ci] {
                tracker.free(*cat, prev[ci] - cur, snap.time_s);
            }
        }
        prev = snap.by_category;
    }
    let end_s = timeline.last().map_or(0.0, |s| s.time_s);
    tracker.emit_peaks(obs, index, end_s);
    Ok(())
}

/// Runs the full recorded scenario: chaos training, scheduler sim, device
/// memory timelines — all into one sink, in one fixed order.
fn run_scenario(steps: u64) -> Result<(Vec<Event>, ChaosReport)> {
    let sink = Arc::new(RingSink::unbounded());
    let obs = Recorder::with_sink(sink.clone());

    // 1. Chaos-supervised training: train/comm/chaos spans + dev busy.
    let (arch, dataset, config) = parts()?;
    let plan = FaultPlan::new(SEED)
        .with_crashes(FailureModel::new(250.0, SEED).context("valid")?)
        .with_preemptions(SpotModel::new(400.0, 50.0).context("valid")?);
    let mut cfg = ChaosConfig::new(plan, steps);
    cfg.comm = Some(CommFaultModel::new(SEED, 0.03, 0.005, 0.02));
    // Overlapped execution: per-parameter buckets, collectives pipelined
    // under the backward window (asserted on the trace in `main`).
    cfg.bucket_bytes = 64;
    cfg.cooldown_s = 90.0;
    cfg.bootstrap_s = 20.0;
    let mut sup = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..16), cfg)
        .context("supervisor")?;
    sup.set_recorder(obs.clone());
    let out = sup.run().context("scenario survives its fault plan")?;

    // 2. Scheduler simulation, stamped after the training run (the sim
    // offsets its clock by the recorder's current time): the critical
    // path can then thread trainer -> allreduce -> scheduler spans.
    let sim = SimConfig::v100_cluster(4);
    let trace = three_job_trace(&sim.link);
    run_trace_recorded(&trace, &mut ElasticWfs::new(), &sim, &obs);

    // 3. Per-device memory timelines on the device tracks.
    emit_device_memory(&obs, 0, &DeviceProfile::of(DeviceType::V100), 1)?;
    emit_device_memory(&obs, 1, &DeviceProfile::of(DeviceType::Rtx2080Ti), 2)?;

    Ok((sink.events(), out.report))
}

/// Backward windows (`step/backward` spans) and bucket-collective start
/// times (`allreduce` spans) of a trace, in emission order.
fn overlap_spans(events: &[Event]) -> (Vec<(u64, u64)>, Vec<u64>) {
    let windows = events
        .iter()
        .filter(|e| e.name == "step/backward" && e.ph == Phase::Complete)
        .map(|e| (e.ts_us, e.ts_us + e.dur_us))
        .collect();
    let collectives = events
        .iter()
        .filter(|e| e.name == "allreduce" && e.ph == Phase::Complete)
        .map(|e| e.ts_us)
        .collect();
    (windows, collectives)
}

/// Checks the overlap structure of a bucketed trace: for every backward
/// window, the first collective launched at-or-after the window opens must
/// start *inside* it — bucket 0 of `K` is ready `1/K` of the way into the
/// backward tail, once its last gradient exists, so a first collective
/// outside its window means the pipelining silently degraded to
/// sync-after-compute.
fn check_first_collective_in_window(events: &[Event]) -> Result<usize> {
    let (windows, mut collectives) = overlap_spans(events);
    if windows.is_empty() {
        return Err("no step/backward windows in the trace".into());
    }
    if collectives.is_empty() {
        return Err("no allreduce spans in the trace".into());
    }
    collectives.sort_unstable();
    for &(lo, hi) in &windows {
        match collectives.iter().find(|&&ts| ts >= lo) {
            Some(&ts) if ts <= hi => {}
            got => {
                return Err(format!(
                    "window [{lo},{hi}]us: first collective at {got:?} — not inside"
                )
                .into())
            }
        }
    }
    Ok(windows.len())
}

/// A fault-free paired run proving the overlap claim on the trace itself:
/// same job, same (scaled) link, once with 64 B buckets pipelined under the
/// backward window and once with one bucket, the single sync after the last
/// backward pass. The bucketed trace must nest *every* collective inside a
/// backward window, and both its simulated time and its profile critical
/// path must not exceed the single sync's.
fn overlap_proof() -> Result<String> {
    const PROOF_STEPS: u64 = 8;
    let run = |bucket_bytes: u64| -> Result<(Vec<Event>, f64)> {
        let (arch, dataset, config) = parts()?;
        let mut cfg = ChaosConfig::new(FaultPlan::new(SEED), PROOF_STEPS);
        cfg.bucket_bytes = bucket_bytes;
        cfg.comm = Some(CommFaultModel::quiet(SEED));
        // The bench MLP's gradient is under a kilobyte; scale the link so
        // sync is a realistic ~12% of the step (see overlap_bench), while
        // keeping each bucket's collective shorter than the bucket ready
        // spacing — then every launch lands inside the backward window
        // instead of queueing on the comm lane past the end of compute.
        cfg.link = vf_comm::LinkProfile {
            latency_s: 100.0e-6,
            bandwidth: 4.0e3,
        };
        let sink = Arc::new(RingSink::unbounded());
        let mut sup = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &[], cfg)
            .context("supervisor")?;
        sup.set_recorder(Recorder::with_sink(sink.clone()));
        let out = sup.run().context("fault-free run survives")?;
        Ok((sink.events(), out.report.sim_time_s))
    };
    let (bucketed, sim_bucketed) = run(64)?;
    let (single, sim_single) = run(u64::MAX)?;

    let (windows, collectives) = overlap_spans(&bucketed);
    if windows.len() != PROOF_STEPS as usize {
        return Err(format!("want {PROOF_STEPS} backward windows, got {}", windows.len()).into());
    }
    for &ts in &collectives {
        if !windows.iter().any(|&(lo, hi)| ts >= lo && ts <= hi) {
            return Err(format!(
                "collective at {ts}us starts outside every backward window {windows:?}"
            )
            .into());
        }
    }
    if sim_bucketed >= sim_single {
        return Err(format!(
            "bucketed sim time {sim_bucketed:.4}s not below single sync {sim_single:.4}s"
        )
        .into());
    }
    let cp = |events: &[Event]| {
        let p = Profile::from_events(events);
        p.path_duration_us(&p.critical_path())
    };
    let (cp_bucketed, cp_single) = (cp(&bucketed), cp(&single));
    if cp_bucketed > cp_single {
        return Err(
            format!("bucketed critical path {cp_bucketed}us exceeds single sync {cp_single}us").into(),
        );
    }
    Ok(format!(
        "{} collectives inside {} windows; sim {:.2}s < {:.2}s; path {}us <= {}us",
        collectives.len(),
        windows.len(),
        sim_bucketed,
        sim_single,
        cp_bucketed,
        cp_single,
    ))
}

/// The human-readable label of a logical `tid` track.
fn track_label(tid: u32) -> String {
    match tid {
        0 => "control".to_string(),
        t if t >= 2000 => format!("job{}", t - 2000),
        t if t >= 1000 => format!("dev{}", t - 1000),
        t => format!("vn{}", t - 1),
    }
}

/// Renders the profile report: header, critical path, self-time table,
/// and per-track busy/utilization.
fn render_report(p: &Profile, report: &ChaosReport) -> String {
    let mut out = String::new();
    out.push_str("# vf trace profile — chaos + sched scenario, simulated time\n");
    let (lo, hi) = p.window_us().unwrap_or((0, 0));
    out.push_str(&format!(
        "# spans={} traced_us={} window_us=[{lo},{hi}] chaos_steps={} faults={}\n\n",
        p.spans().len(),
        p.total_traced_us(),
        report.steps,
        report.faults_injected(),
    ));
    out.push_str(&p.render_critical_path(60));
    out.push('\n');
    out.push_str(&p.render_self_time());
    out.push('\n');
    out.push_str("track                 busy_us       util%\n");
    let window = (hi - lo).max(1);
    for ((pid, tid), busy) in p.track_busy_us() {
        out.push_str(&format!(
            "pid={pid} tid={tid:<5} {:<9} {busy:>10}  {:>9.4}\n",
            track_label(tid),
            100.0 * busy as f64 / window as f64,
        ));
    }
    out
}

fn main() -> Result {
    let mode = Mode::from_args();
    let steps: u64 = if mode == Mode::Smoke { 60 } else { 240 };
    println!("== trace profile: {steps}-step chaos run + sched sim, profiled ==\n");

    // Determinism gate: the whole scenario and every derived artifact must
    // be byte-identical between a 4-way-chunking and a serial kernel pool.
    pool::set_num_threads(4);
    let (events, report) = run_scenario(steps)?;
    pool::set_num_threads(1);
    let (events_serial, _) = run_scenario(steps)?;

    let profile = Profile::from_events(&events);
    let report_txt = render_report(&profile, &report);
    let collapsed = profile.collapsed_stacks();
    let counters = render_counter_series(&counter_series(&events));
    {
        let p2 = Profile::from_events(&events_serial);
        let report2 = render_report(&p2, &report);
        let collapsed2 = p2.collapsed_stacks();
        let counters2 = render_counter_series(&counter_series(&events_serial));
        if report_txt != report2 || collapsed != collapsed2 || counters != counters2 {
            return Err("profile artifacts differ between 4-way and serial kernel pools".into());
        }
    }
    println!("determinism: 4-thread and serial profiles are byte-identical");

    // Profiler invariants, checked on the real trace (the unit suite
    // checks them on synthetic trees; here they guard the instrumentation:
    // children must tile inside parents, spans must not tear).
    let path = profile.critical_path();
    let on_path = profile.path_duration_us(&path);
    let (lo, hi) = profile.window_us().unwrap_or((0, 0));
    if on_path > hi - lo {
        return Err(format!(
            "critical path ({on_path} us) exceeds the traced window ({} us)",
            hi - lo
        )
        .into());
    }
    if profile.total_self_us() != profile.total_traced_us() {
        return Err(format!(
            "self-times sum to {} us, traced total is {} us — child spans escape parents",
            profile.total_self_us(),
            profile.total_traced_us()
        )
        .into());
    }
    println!(
        "invariants: path {} us <= window {} us; self-times sum to traced total {} us",
        on_path,
        hi - lo,
        profile.total_traced_us()
    );

    // Overlap structure on the faulty trace: every step's first bucket
    // collective must launch inside that step's backward window, even with
    // comm faults retrying collectives mid-flight.
    let n = check_first_collective_in_window(&events)
        .map_err(|e| format!("overlap structure broken on the chaos trace: {e:?}"))?;
    println!("overlap: first collective inside each of {n} backward windows");
    // And the quiet paired run: full nesting plus a critical path no longer
    // than the one-bucket single sync's.
    let proof = overlap_proof().map_err(|e| format!("overlap proof: {e:?}"))?;
    println!("overlap proof: {proof}");

    for (name, body) in [
        ("PROFILE_chaos.txt", &report_txt),
        ("PROFILE_chaos.collapsed", &collapsed),
        ("PROFILE_counters.txt", &counters),
    ] {
        mode.write_artifact(name, body)?;
    }

    // Sample of the collapsed-stack export for the console (and README).
    println!("\ncollapsed stacks (head):");
    for line in collapsed.lines().take(6) {
        println!("  {line}");
    }

    // Headline numbers through the shared registry, then into history.
    // Everything here is simulated-time and therefore gateable.
    let m = Metrics::new();
    m.inc("profile/events", events.len() as u64);
    m.inc("profile/spans", profile.spans().len() as u64);
    m.set_gauge("profile/critical_path_us", on_path as f64);
    m.set_gauge("profile/window_us", (hi - lo) as f64);
    m.set_gauge("profile/traced_total_us", profile.total_traced_us() as f64);
    m.set_gauge("profile/path_spans", path.len() as f64);
    m.set_gauge("chaos/steps", report.steps as f64);
    m.set_gauge("chaos/faults", report.faults_injected() as f64);
    m.set_gauge("chaos/sim_time_s", report.sim_time_s);
    let busy = profile.track_busy_us();
    let dev_busy: u64 = busy
        .iter()
        .filter(|((_, tid), _)| (1000..2000).contains(tid))
        .map(|(_, b)| b)
        .sum();
    m.set_gauge("profile/device_busy_us", dev_busy as f64);
    println!("\nmetrics: {}", m.to_json());
    mode.record("trace_profile", &m)?;
    Ok(())
}
