//! Obs-scale bench: dimensional observability under a 50k-job load.
//!
//! Drives the full labeled-metrics pipeline — families with a cardinality
//! budget, quantile sketches, head-sampled trace recording, and bounded
//! series retention — with a synthetic scheduler trace of 50 000 completed
//! jobs across 97 tenants, and *asserts* the scale properties the design
//! promises:
//!
//! * **bounded registry** — the per-tenant family stays at its cardinality
//!   budget no matter how many tenants exist, with every folded sample
//!   counted in the overflow series (`silent_drops == 0`);
//! * **determinism** — the Prometheus exposition, the HTML dashboard, and
//!   the registry JSON are byte-identical when the workload is replayed
//!   under a different worker-thread count, and the head sampler admits
//!   the same job set;
//! * **self-overhead** — the fully-instrumented run is timed against a
//!   disabled-recorder, no-monitor run of the same workload, and the
//!   overhead percentage is published (and loosely gated) so obs cost
//!   regressions surface in the bench history.
//!
//! A full run writes representative renders to
//! `results/OBS_SCALE_*.{txt,html}` and feeds the headline counts into the
//! bench-gate history.
//!
//! Usage: `obs_scale_bench [--smoke]` — `--smoke` writes only
//! `BENCH_obs_scale_smoke.json` for the tier-1 suite; the workload is
//! identical in both modes so the gated counts never drift between smoke
//! and full runs.

use std::sync::Arc;
use std::time::Instant;
use vf_bench::report::{print_table, Mode, Result};
use vf_obs::scale::mix64;
use vf_obs::{Event, Metrics, Monitor, Recorder, RingSink};

const SEED: u64 = 2022;
/// Completed jobs in the synthetic trace.
const JOBS: u64 = 50_000;
/// Distinct tenants — deliberately above the family budget so the
/// overflow path is exercised at scale.
const TENANTS: u64 = 97;
/// Cardinality budget for the per-tenant family.
const TENANT_BUDGET: usize = 64;
/// Head-sampling keep rate: 2% of job trace events.
const KEEP_PPM: u32 = 20_000;
/// Monitor tick cadence (jobs per tick).
const TICK_EVERY: u64 = 500;
/// SeriesStore retention cap — low enough that the 100 ticks decimate.
const RETENTION: usize = 64;
/// Synthetic per-job bookkeeping rounds: the denominator of the overhead
/// measurement, sized to approximate real scheduler work per completion.
const WORK_ROUNDS: u32 = 1500;
/// Hard ceiling on acceptable obs overhead over the bare workload.
const MAX_OVERHEAD_PCT: f64 = 150.0;

/// One synthetic completed job, a pure function of its index.
struct Job {
    id: u64,
    priority: u64,
    tenant: u64,
    jct_s: f64,
    queue_delay_s: f64,
}

fn job(i: u64) -> Job {
    let h = mix64(SEED ^ i);
    Job {
        id: i,
        priority: 1 + h % 4,
        tenant: (h >> 8) % TENANTS,
        jct_s: 1.0 + ((h >> 16) % 10_000) as f64 / 100.0,
        queue_delay_s: ((h >> 32) % 1_000) as f64 / 100.0,
    }
}

/// Replays the synthetic trace. A disabled recorder without a monitor
/// publishes nothing — the bare-workload baseline for the overhead
/// measurement. Returns a checksum so the bookkeeping loop cannot be
/// optimized away.
fn workload(rec: &Recorder) -> u64 {
    let mut checksum = 0u64;
    for i in 0..JOBS {
        let j = job(i);
        // Stand-in for the scheduler's own per-completion bookkeeping.
        let mut acc = j.id ^ SEED;
        for _ in 0..WORK_ROUNDS {
            acc = mix64(acc);
        }
        checksum ^= acc;

        rec.record_sampled(j.id, || {
            Event::complete(format!("job{}/run", j.id), "sched", j.id * 1_000, 500)
        });
        if let Some(mon) = rec.monitor() {
            let m = mon.metrics();
            m.counter_with("sched/completions", &[("priority", &j.priority.to_string())], 1);
            m.counter_with("sched/tenant_done", &[("tenant", &format!("t{}", j.tenant))], 1);
            m.observe_sketch("sched/jct_s", j.jct_s);
            m.observe_sketch("sched/queue_delay_s", j.queue_delay_s);
            if i % TICK_EVERY == 0 {
                mon.tick(i as f64 * 0.05, rec);
            }
        }
    }
    checksum
}

/// Everything one fully-instrumented replay leaves behind for the gates.
struct ObsRun {
    prom: String,
    dashboard: String,
    json: String,
    recorded: u64,
    dropped: u64,
    silent_drops: u64,
    labeled_series: u64,
    families: u64,
    tenant_series: u64,
    tenant_overflow: u64,
    tenant_unaccounted: u64,
    points_decimated: u64,
    checksum: u64,
}

/// The fully-instrumented handle: a head-sampled ring sink carrying a
/// default-pack monitor with bounded retention and a tenant budget.
fn instrumented_recorder() -> (Arc<Monitor>, Recorder) {
    let mon = Arc::new(Monitor::with_default_pack());
    mon.set_retention(RETENTION);
    mon.metrics().set_cardinality_budget("sched/tenant_done", TENANT_BUDGET);
    let rec = Recorder::new(RingSink::with_capacity(4096)).with_monitor(mon.clone());
    rec.set_head_sampling(SEED, KEEP_PPM);
    (mon, rec)
}

fn instrumented() -> ObsRun {
    let (mon, rec) = instrumented_recorder();
    let m = mon.metrics();

    let checksum = workload(&rec);

    let snaps = m.labeled_snapshot();
    let tenant = snaps.iter().find(|f| f.name == "sched/tenant_done");
    let stats = m.registry_stats();
    ObsRun {
        prom: mon.render_prometheus(),
        dashboard: mon.render_dashboard("obs scale bench"),
        json: m.to_json(),
        recorded: rec.events_recorded(),
        dropped: rec.events_dropped(),
        silent_drops: m.silent_drops(),
        labeled_series: stats.labeled_series as u64,
        families: stats.families as u64,
        tenant_series: tenant.map_or(0, |f| f.series.len() as u64),
        tenant_overflow: tenant.map_or(0, |f| f.overflow_samples),
        tenant_unaccounted: tenant.map_or(u64::MAX, |f| f.unaccounted()),
        points_decimated: mon.points_decimated(),
        checksum,
    }
}

/// Minimum wall seconds over `reps` runs of `f` (minimum, not mean: load
/// spikes only ever add time).
fn min_wall(reps: u32, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        checksum = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, checksum)
}

fn main() -> Result {
    let mode = Mode::from_args();
    println!(
        "== obs scale bench: {JOBS} jobs, {TENANTS} tenants (budget {TENANT_BUDGET}), \
         {}ppm trace sampling ==\n",
        KEEP_PPM
    );
    let metrics = Metrics::new();
    let mut failed = false;
    let fail = |metrics: &Metrics, key: &str, msg: String| {
        eprintln!("FAIL: {msg}");
        metrics.inc(key, 1);
    };

    // Determinism: the full pipeline replayed under two worker-thread
    // counts must render byte-identical output and admit the same events.
    let orig_threads = vf_tensor::pool::num_threads();
    vf_tensor::pool::set_num_threads(1);
    let one = instrumented();
    vf_tensor::pool::set_num_threads(4);
    let four = instrumented();
    vf_tensor::pool::set_num_threads(orig_threads);

    metrics.inc("obs/render_mismatches", 0);
    metrics.inc("obs/sampler_mismatches", 0);
    if one.prom != four.prom || one.dashboard != four.dashboard || one.json != four.json {
        fail(&metrics, "obs/render_mismatches", "renders differ across thread counts".into());
        failed = true;
    }
    if (one.recorded, one.dropped) != (four.recorded, four.dropped) {
        fail(&metrics, "obs/sampler_mismatches", "head sampler admitted different sets".into());
        failed = true;
    }
    assert_eq!(one.checksum, four.checksum, "synthetic workload diverged");

    // Bounded registry with exact accounting: the tenant family must sit
    // at its budget, fold the rest into overflow, and lose nothing.
    metrics.inc("obs/series_over_budget", 0);
    metrics.inc("obs/silent_drops", 0);
    if one.tenant_series > TENANT_BUDGET as u64 {
        fail(
            &metrics,
            "obs/series_over_budget",
            format!("tenant family holds {} series over budget {TENANT_BUDGET}", one.tenant_series),
        );
        failed = true;
    }
    if one.tenant_overflow == 0 {
        fail(
            &metrics,
            "obs/series_over_budget",
            format!("{TENANTS} tenants over budget {TENANT_BUDGET} produced no overflow"),
        );
        failed = true;
    }
    if one.silent_drops != 0 || one.tenant_unaccounted != 0 {
        metrics.inc("obs/silent_drops", one.silent_drops + one.tenant_unaccounted);
        eprintln!(
            "FAIL: {} samples vanished without accounting (unaccounted {})",
            one.silent_drops, one.tenant_unaccounted
        );
        failed = true;
    }
    // The head sampler must both keep and drop, and account for every key.
    if one.recorded == 0 || one.dropped == 0 || one.recorded + one.dropped < JOBS {
        fail(
            &metrics,
            "obs/sampler_mismatches",
            format!("sampler kept {} / dropped {} of {JOBS} events", one.recorded, one.dropped),
        );
        failed = true;
    }

    // Self-overhead: fully instrumented vs disabled-recorder replays of
    // the identical workload. Warm runs, best-of-3 each.
    let disabled = Recorder::disabled();
    let (off_s, off_sum) = min_wall(3, || workload(&disabled));
    let (on_s, _) = min_wall(3, || workload(&instrumented_recorder().1));
    assert_eq!(off_sum, one.checksum, "bare workload diverged from instrumented");
    let overhead_pct = if off_s > 0.0 { (on_s - off_s) / off_s * 100.0 } else { 0.0 };
    metrics.inc("obs/overhead_breaches", 0);
    if overhead_pct > MAX_OVERHEAD_PCT {
        fail(
            &metrics,
            "obs/overhead_breaches",
            format!("obs overhead {overhead_pct:.1}% exceeds ceiling {MAX_OVERHEAD_PCT}%"),
        );
        failed = true;
    }

    // Publish the headline counts (deterministic) and timings (trend).
    metrics.set_counter("sched/jobs", JOBS);
    metrics.set_counter("trace/events_recorded", one.recorded);
    metrics.set_counter("trace/events_dropped", one.dropped);
    metrics.set_counter("registry/labeled_series", one.labeled_series);
    metrics.set_counter("registry/families", one.families);
    metrics.set_counter("registry/tenant_series", one.tenant_series);
    metrics.set_counter("registry/tenant_overflow_samples", one.tenant_overflow);
    metrics.set_counter("retention/points_decimated", one.points_decimated);
    metrics.set_counter(
        "obs/render_bytes",
        (one.prom.len() + one.dashboard.len() + one.json.len()) as u64,
    );
    metrics.set_gauge("obs/overhead_pct", overhead_pct);
    metrics.set_gauge("obs/instrumented_wall_s", on_s);
    metrics.set_gauge("obs/bare_wall_s", off_s);

    print_table(
        &["check", "value"],
        &[
            vec!["jobs".into(), JOBS.to_string()],
            vec!["tenant series (budget 64)".into(), one.tenant_series.to_string()],
            vec!["tenant overflow samples".into(), one.tenant_overflow.to_string()],
            vec!["silent drops".into(), one.silent_drops.to_string()],
            vec!["trace recorded / dropped".into(), format!("{} / {}", one.recorded, one.dropped)],
            vec!["series points decimated".into(), one.points_decimated.to_string()],
            vec!["render bytes".into(), (one.prom.len() + one.dashboard.len() + one.json.len()).to_string()],
            vec!["obs overhead".into(), format!("{overhead_pct:.1}% ({on_s:.3}s vs {off_s:.3}s)")],
        ],
    );

    mode.write_artifact("OBS_SCALE_prom.txt", &one.prom)?;
    mode.write_artifact("OBS_SCALE_dashboard.html", &one.dashboard)?;
    mode.publish(
        "BENCH_obs_scale",
        "obs_scale_bench",
        serde_json::json!({}),
        &metrics,
    )?;
    if failed {
        return Err("obs scale checks failed (FAIL lines above)".into());
    }
    Ok(())
}
