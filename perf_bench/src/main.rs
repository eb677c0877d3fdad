//! `perf_bench` — the host-time benchmark described by `BENCHMARK.json`.
//!
//! ```text
//! perf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf_bench [--seed <n>] [--seconds <s>] [--smoke]      # every workload, both ways
//! ```
//!
//! One invocation measures one workload and prints, as its last line of
//! standard output, one JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). The process you start is only the
//! parent: each measurement runs in a child of its own (this executable
//! again, with `--child`), because the vf-tensor pool is sized once per
//! process, peak memory is per process, and set-up time is "process start to
//! ready". The parent polls its children against a wall deadline and kills
//! one that overruns — `run_trace` can spin forever (see README) — without
//! spawning a thread.

mod alloc;
mod layers;
mod process;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use workloads::{Res, Workload, INFOS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The gated metrics, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("work_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, as in `BENCHMARK.json`. One that does not apply to
/// a workload reads 0 there.
const PER_LAYER: [(&str, &str); 43] = [
    ("core.engine.step_p50_ms", "ms"),
    ("core.engine.step_p90_ms", "ms"),
    ("core.engine.self_ms_per_step", "ms"),
    ("core.engine.waves_per_step", "count"),
    ("core.resize.ms_per_call", "ms"),
    ("data.gather.ms_per_step", "ms"),
    ("data.gather.bytes_per_step", "bytes"),
    ("models.grad.ms_per_step", "ms"),
    ("tensor.autograd.rest_ms_per_step", "ms"),
    ("tensor.gemm.ms_per_step", "ms"),
    ("tensor.gemm.gflops", "GFLOP/s"),
    ("tensor.gemm.vs_reference", "ratio"),
    ("tensor.conv.ms_per_step", "ms"),
    ("tensor.conv.gflops", "GFLOP/s"),
    ("tensor.conv.vs_reference", "ratio"),
    ("tensor.reduce.ms_per_step", "ms"),
    ("tensor.optim.ms_per_step", "ms"),
    ("tensor.pool.jobs_per_step", "count"),
    ("tensor.pool.chunks_per_step", "count"),
    ("tensor.pool.serial_fallbacks_per_step", "count"),
    ("tensor.pool.dispatch_us", "us"),
    ("bench.cores_busy", "cores"),
    ("bench.two_thread_speedup", "ratio"),
    ("bench.alloc.count_per_op", "count"),
    ("bench.alloc.bytes_per_op", "bytes"),
    ("obs.recorder.ms_per_step", "ms"),
    ("obs.recorder.events_per_step", "count"),
    ("sched.sim.run_p50_ms", "ms"),
    ("sched.sim.run_p90_ms", "ms"),
    ("sched.sim.events_per_run", "count"),
    ("sched.sim.us_per_event", "us"),
    ("sched.sim.self_ms_per_run", "ms"),
    ("sched.scheduler.allocate_calls_per_run", "count"),
    ("sched.scheduler.allocate_ms_per_run", "ms"),
    ("sched.scheduler.mean_jobs_per_call", "count"),
    ("sched.job.step_time_on_ns", "ns"),
    ("sched.job.step_time_on_ms_est_per_run", "ms"),
    ("sched.metrics.compute_ms", "ms"),
    ("sched.trace.gen_ms", "ms"),
    ("sched.sim.makespan_s", "s"),
    ("sched.sim.avg_utilization", "ratio"),
    ("sched.sim.resizes_per_run", "count"),
    ("bench.trace.overhead_pct", "%"),
];

const DEFAULT_SEED: u64 = 2022;
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke`: all four workloads, both ways, in about fifteen seconds.
const SMOKE_SECONDS: f64 = 0.25;
/// Runs shorter than this warm up with one batch and check only that one.
const QUICK_BELOW_SECONDS: f64 = 1.0;
/// Set-up is timed in this many processes at least, and in more (up to the
/// maximum) while they take under a second together; the median is reported.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 21;
const SPAWNED_AT_ENV: &str = "PERF_BENCH_SPAWNED_AT_NS";
/// Where traced runs leave their Chrome trace files.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    child: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--child" => args.child = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if workloads::info(w).is_none() {
            let names: Vec<&str> = INFOS.iter().map(|i| i.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(args)
}

// ---------------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------------

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Seconds since the parent spawned this process, by the parent's stamp in
/// the environment, so that exec and loading count; 0 for a child started by
/// hand.
fn since_spawn() -> f64 {
    let spawned_at = std::env::var(SPAWNED_AT_ENV)
        .ok()
        .and_then(|s| s.parse::<u128>().ok());
    spawned_at.map_or(0.0, |at| unix_ns().saturating_sub(at) as f64 / 1e9)
}

/// Round trip in µs of handing the pool two empty tasks.
fn pool_dispatch_us() -> f64 {
    const ROUNDS: u32 = 2000;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(vf_tensor::pool::parallel_tasks(2, |_| ()));
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
}

/// What `setup_s` covers: generate the inputs, build the trainer or the
/// simulator configuration, and run the first batch, after which the pool is
/// up and the working set is resident.
fn set_up(name: &str, seed: u64) -> Res<Workload> {
    let mut w = Workload::setup(name, seed, false)?;
    w.run_batch()?;
    println!("setup_s {}", since_spawn());
    Ok(w)
}

/// The measured child: set up, warm up, run batches for `seconds`, check the
/// outputs. Prints `key value` lines for the parent. `quick` cuts the
/// warm-up, and with it the check, down to the first batch.
fn child_measure(name: &str, seed: u64, seconds: f64, quick: bool) -> Res<bool> {
    let mut w = set_up(name, seed)?;
    w.warm_up(quick)?;

    let pool0 = vf_tensor::pool::stats();
    let cpu0 = process::cpu_seconds();
    let window = Instant::now();
    let mut batches = Vec::new();
    let mut failed = 0u64;
    while window.elapsed().as_secs_f64() < seconds {
        match w.run_batch() {
            Ok(batch) => batches.push(batch),
            Err(e) => {
                eprintln!("perf_bench: {name}: op failed: {e}");
                failed = w.batch_ops();
                break;
            }
        }
    }
    let wall_s = window.elapsed().as_secs_f64();
    let cpu_s = process::cpu_seconds() - cpu0;
    let pool1 = vf_tensor::pool::stats();
    let peak_rss_mib = process::peak_rss_mib().unwrap_or(0.0);
    let dispatch_us = pool_dispatch_us();

    let ops: u64 = batches.iter().map(|b| b.ops).sum();
    let attempted = ops + failed;
    if let Err(e) = w.check() {
        eprintln!("perf_bench: {name}: output check failed: {e}");
        failed = attempted;
    }
    println!("attempted {attempted}");
    println!("failed {failed}");
    println!("digest {:016x}", w.digest());

    let per_op = |v: f64| if ops > 0 { v / ops as f64 } else { 0.0 };
    let (rate, beyond) = stats::fast_decile_rate(&batches);
    println!("batches {} beyond {beyond}", batches.len());
    println!("m work_per_s {rate}");
    println!(
        "m cpu_ms_per_op {}",
        stats::fast_decile_cpu_ms_per_op(&batches)
    );
    println!("m peak_rss_mib {peak_rss_mib}");
    println!(
        "m bench.cores_busy {}",
        if wall_s > 0.0 { cpu_s / wall_s } else { 0.0 }
    );
    println!("m tensor.pool.dispatch_us {dispatch_us}");
    let (p50, p90) = stats::p50_p90(w.op_ms());
    match &w {
        Workload::Train(t) => {
            println!("m core.engine.step_p50_ms {p50}");
            println!("m core.engine.step_p90_ms {p90}");
            println!("m core.engine.waves_per_step {}", per_op(t.waves as f64));
            println!("m core.resize.ms_per_call {}", stats::median(&t.resize_ms));
            let jobs = pool1.jobs_submitted - pool0.jobs_submitted;
            let chunks = pool1.chunks_executed - pool0.chunks_executed;
            let serial = pool1.serial_fallbacks - pool0.serial_fallbacks;
            println!("m tensor.pool.jobs_per_step {}", per_op(jobs as f64));
            println!("m tensor.pool.chunks_per_step {}", per_op(chunks as f64));
            println!(
                "m tensor.pool.serial_fallbacks_per_step {}",
                per_op(serial as f64)
            );
        }
        Workload::Sched(_) => {
            println!("m sched.sim.run_p50_ms {p50}");
            println!("m sched.sim.run_p90_ms {p90}");
        }
    }
    Ok(failed == 0)
}

fn run_child(mode: &str, args: &Args) -> Res<bool> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    match mode {
        "setup" => set_up(name, args.seed).map(|_| true),
        "measure" | "rate" => {
            let quick = mode == "rate" || args.seconds < QUICK_BELOW_SECONDS;
            child_measure(name, args.seed, args.seconds, quick)
        }
        "traced" => {
            for (metric, value) in layers::run(name, args.seed, args.seconds, TRACE_DIR)? {
                println!("m {metric} {value}");
            }
            Ok(true)
        }
        other => Err(format!("unknown child mode {other}").into()),
    }
}

// ---------------------------------------------------------------------------
// Parent
// ---------------------------------------------------------------------------

/// What a child printed, parsed.
#[derive(Debug, Default, PartialEq)]
struct ChildReport {
    /// Exited with code 0 before the deadline.
    ok: bool,
    setup_s: Option<f64>,
    attempted: u64,
    failed: u64,
    digest: String,
    batches: String,
    metrics: BTreeMap<String, f64>,
}

fn parse_report(stdout: &str, ok: bool) -> ChildReport {
    let mut report = ChildReport {
        ok,
        ..ChildReport::default()
    };
    for line in stdout.lines() {
        let mut words = line.split_ascii_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("m"), Some(name), Some(v)) => {
                if let Ok(v) = v.parse::<f64>() {
                    report.metrics.insert(name.to_string(), v);
                }
            }
            (Some("setup_s"), Some(v), None) => report.setup_s = v.parse().ok(),
            (Some("attempted"), Some(v), None) => report.attempted = v.parse().unwrap_or(0),
            (Some("failed"), Some(v), None) => report.failed = v.parse().unwrap_or(0),
            (Some("digest"), Some(v), None) => report.digest = v.to_string(),
            (Some("batches"), _, _) => report.batches = line.to_string(),
            _ => {}
        }
    }
    report
}

/// Spawns this executable as a child and polls it until it exits or
/// `deadline` passes, in which case it is killed.
fn spawn_child(
    mode: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    threads: usize,
    deadline: Duration,
) -> Res<ChildReport> {
    let exe = std::env::current_exe()?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", mode, "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .env("VF_NUM_THREADS", threads.to_string())
        .env(SPAWNED_AT_ENV, unix_ns().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    // A child prints a few KiB at most, which the pipe holds, so it is safe
    // to read only once the child has gone.
    let ok = loop {
        if let Some(status) = child.try_wait()? {
            break status.success();
        }
        if started.elapsed() > deadline {
            eprintln!("perf_bench: {workload}: {mode} child overran {deadline:?}; killing it");
            child.kill()?;
            child.wait()?;
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)?;
    }
    Ok(parse_report(&stdout, ok))
}

/// The outcome of one workload, one way.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    digest: String,
    batches: String,
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let info = workloads::info(name).ok_or("unknown workload")?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Ten times the sized run, and inside the 180 s a run may take.
    let deadline = Duration::from_secs_f64((10.0 * seconds).clamp(30.0, 150.0));

    let mut found: BTreeMap<String, f64> = BTreeMap::new();
    let mut measure = if trace {
        // Step percentiles and pool counters come from a shorter run at the
        // thread count the workload is about; the layer split from a
        // one-thread child, where spans nest.
        let threads = info.layer_threads.min(cores);
        let measure = spawn_child("measure", name, seed, seconds / 2.0, threads, deadline)?;
        let traced = spawn_child("traced", name, seed, seconds, 1, deadline)?;
        if !traced.ok {
            return Err("the traced child failed".into());
        }
        found.extend(traced.metrics);
        if cores >= 2 {
            // The same loop at the other thread count, for what a second
            // core buys (or costs).
            let other = spawn_child("rate", name, seed, seconds / 4.0, 3 - threads, deadline)?;
            let rate = |r: &ChildReport| r.metrics.get("work_per_s").copied().unwrap_or(0.0);
            let (one, two) = if threads == 1 {
                (&measure, &other)
            } else {
                (&other, &measure)
            };
            if rate(one) > 0.0 {
                found.insert("bench.two_thread_speedup".into(), rate(two) / rate(one));
            }
        }
        measure
    } else {
        let threads = 1;
        let mut setups = Vec::new();
        let setting_up = Instant::now();
        while setups.len() + 1 < MIN_SETUPS
            || (setups.len() + 1 < MAX_SETUPS && setting_up.elapsed() < Duration::from_secs(1))
        {
            let report = spawn_child("setup", name, seed, seconds, threads, deadline)?;
            setups.push(
                report
                    .setup_s
                    .filter(|_| report.ok)
                    .ok_or("a set-up child failed")?,
            );
        }
        let measure = spawn_child("measure", name, seed, seconds, threads, deadline)?;
        setups.extend(measure.setup_s);
        found.insert("setup_s".into(), stats::median(&setups));
        measure
    };
    found.extend(std::mem::take(&mut measure.metrics));

    // A child that was killed or crashed reports nothing: all its ops failed.
    let (attempted, failed) = if measure.ok || measure.attempted > 0 {
        (measure.attempted.max(1), measure.failed)
    } else {
        (1, 1)
    };
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = wanted
        .iter()
        .map(|&(metric, unit)| {
            let v = found
                .get(metric)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            (metric, unit, v)
        })
        .collect();
    Ok(Outcome {
        correct: measure.ok && failed == 0,
        attempted,
        failed,
        metrics,
        digest: measure.digest,
        batches: measure.batches,
    })
}

fn print_outcome(name: &str, seed: u64, seconds: f64, trace: bool, sized: bool, o: &Outcome) {
    let info = workloads::info(name);
    println!(
        "== {name} | seed {seed} | {seconds} s{} | {} | work = {} | {} ==",
        if sized {
            ""
        } else {
            " (unsized: too short to compare)"
        },
        if trace { "per-layer" } else { "end-to-end" },
        info.map_or("?", |i| i.work_unit),
        o.batches,
    );
    for (metric, unit, v) in &o.metrics {
        println!("  {metric:<42} {v:>18.6} {unit}");
    }
    println!(
        "  ops attempted {} failed {} | outputs {} | digest {}",
        o.attempted,
        o.failed,
        if o.correct { "correct" } else { "WRONG" },
        o.digest
    );
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(metric, unit, v)| format!("\"{metric}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn run_parent(args: &Args) -> Res<bool> {
    let seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        args.seconds
    };
    let sized = !args.smoke;
    if let Some(name) = &args.workload {
        let outcome = run_workload(name, args.seed, seconds, args.trace)?;
        print_outcome(name, args.seed, seconds, args.trace, sized, &outcome);
        println!("{}", json_line(&outcome));
        return Ok(outcome.correct);
    }
    let mut all_correct = true;
    for info in &INFOS {
        for trace in [false, true] {
            let outcome = run_workload(info.name, args.seed, seconds, trace)?;
            print_outcome(info.name, args.seed, seconds, trace, sized, &outcome);
            all_correct &= outcome.correct;
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.child {
        Some(mode) => run_child(mode, &args),
        None => run_parent(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(&[
            "--workload",
            "train_conv",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("train_conv"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 12.0, true, false)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--trace", "yes"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn child_reports_parse_and_ignore_noise() {
        let out = "setup_s 0.25\nhello world\nattempted 640\nfailed 0\ndigest 00ff\n\
                   batches 160 beyond 16\nm work_per_s 123.5\nm bad nan-ish\nm peak_rss_mib 41\n";
        let r = parse_report(out, true);
        assert_eq!(r.setup_s, Some(0.25));
        assert_eq!((r.attempted, r.failed), (640, 0));
        assert_eq!(r.digest, "00ff");
        assert_eq!(r.batches, "batches 160 beyond 16");
        assert_eq!(r.metrics.len(), 2);
        assert_eq!(r.metrics["work_per_s"], 123.5);
        assert_eq!(parse_report("", false), ChildReport::default());
    }

    #[test]
    fn the_result_line_is_the_contracts_json() {
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("work_per_s", "1/s", 1.5), ("setup_s", "s", 0.000001)],
            digest: String::new(),
            batches: String::new(),
        };
        assert_eq!(
            json_line(&o),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"work_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.000001, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps its metric names,
    /// units and workloads in step with what the binary prints.
    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for (metric, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{metric}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for info in &INFOS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", info.name)));
        }
        assert_eq!(json.matches("\"why\"").count(), INFOS.len());
    }
}
