//! Event-driven cluster simulation.
//!
//! Replays a trace of job arrivals on a fixed pool of GPUs under a pluggable
//! [`Scheduler`], advancing simulated time between scheduling events (job
//! arrivals and completions) and accounting GPU usage continuously. This is
//! the harness behind Figures 12–14.
//!
//! The event loop owns the one job table, a `Vec<JobState>` sorted by id,
//! and lends it to [`Scheduler::allocate`] as it stands. Beside it sits each
//! job's step time at its current allocation, recomputed only when the
//! allocation changes to a non-zero value (it is a pure function of spec,
//! allocation, device and link). There is no event heap: SRTF and LAS read
//! every job's current `remaining_steps` at every event, so each event must
//! advance every running job anyway, and that scan finds the next completion.

use crate::job::{JobId, JobSpec, JobState};
use crate::metrics::{AllocationSample, TraceMetrics};
use crate::scheduler::{cmp_f64, Scheduler};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vf_comm::LinkProfile;
use vf_device::{DeviceId, DeviceProfile, DeviceType, FaultPlan};
use vf_obs::{Event, Recorder};

/// Configuration of a cluster simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of identical GPUs in the cluster.
    pub num_gpus: u32,
    /// GPU type.
    pub device_type: DeviceType,
    /// Interconnect between devices.
    pub link: LinkProfile,
    /// Wall-clock overhead charged to a job each time its allocation
    /// changes while running (VirtualFlow's resizes are cheap — virtual
    /// nodes redistribute without graph rebuilds; checkpoint/restart
    /// systems would put minutes here).
    pub resize_penalty_s: f64,
    /// Optional periodic rescheduling interval. Event-driven scheduling
    /// (arrivals/completions only) is enough for static priorities, but
    /// progress-sensitive policies such as LAS need the scheduler to
    /// reevaluate as jobs accumulate service.
    #[serde(default)]
    pub resched_interval_s: Option<f64>,
    /// Scheduled capacity changes (e.g. a server leaving for maintenance or
    /// rejoining). The cluster starts at `num_gpus`; each event sets the
    /// capacity to its value at its time. Capacities above `num_gpus` are
    /// clamped.
    #[serde(default)]
    pub capacity_events: Vec<CapacityEvent>,
}

/// A scheduled change of cluster capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityEvent {
    /// Simulated time the change takes effect.
    pub at_s: f64,
    /// New cluster capacity in GPUs.
    pub num_gpus: u32,
}

/// Translates a seeded [`FaultPlan`] into the capacity timeline the
/// simulator understands: each fault takes its devices down at its fault
/// time, and each device returns to service `outage_s` seconds later.
///
/// Devices are `DeviceId(0..num_gpus)`. A fault striking a device already
/// in repair is absorbed by the ongoing repair (no extension). The
/// resulting events let [`run_trace`] subject any scheduler to the same
/// reproducible fault stream the chaos supervisor uses: elastic jobs
/// downsize through the dips, non-elastic ones are evicted and requeued,
/// and either way jobs wait for repaired capacity instead of dying.
pub fn capacity_events_from_faults(
    plan: &FaultPlan,
    num_gpus: u32,
    horizon_s: f64,
    outage_s: f64,
) -> Vec<CapacityEvent> {
    let devices: Vec<DeviceId> = (0..num_gpus).map(DeviceId).collect();
    let mut faults = plan.events(&devices, horizon_s);
    faults.sort_by(|a, b| cmp_f64(a.at_s, b.at_s));
    // Per-device merged outage windows → a stream of ±1 capacity deltas.
    let mut deltas: Vec<(f64, i64)> = Vec::new();
    let mut down_until: BTreeMap<DeviceId, f64> = BTreeMap::new();
    for fault in &faults {
        for &d in &fault.devices {
            let until = down_until.get(&d).copied().unwrap_or(f64::NEG_INFINITY);
            if fault.at_s >= until {
                deltas.push((fault.at_s, -1));
                deltas.push((fault.at_s + outage_s, 1));
                down_until.insert(d, fault.at_s + outage_s);
            }
        }
    }
    deltas.sort_by(|a, b| cmp_f64(a.0, b.0));
    let mut events: Vec<CapacityEvent> = Vec::new();
    let mut healthy = num_gpus as i64;
    for (at_s, delta) in deltas {
        healthy += delta;
        let capacity = healthy.clamp(0, num_gpus as i64) as u32;
        match events.last_mut() {
            // Coalesce simultaneous deltas into one event.
            Some(last) if last.at_s == at_s => last.num_gpus = capacity,
            _ => events.push(CapacityEvent {
                at_s,
                num_gpus: capacity,
            }),
        }
    }
    events
}

impl SimConfig {
    /// The paper's main testbed: `num_gpus` V100s, cheap resizes.
    pub fn v100_cluster(num_gpus: u32) -> Self {
        SimConfig {
            num_gpus,
            device_type: DeviceType::V100,
            link: LinkProfile::nvlink(),
            resize_penalty_s: 1.0,
            resched_interval_s: None,
            capacity_events: Vec::new(),
        }
    }
}

/// The completed simulation: final job states, metrics, and the allocation
/// timeline (Figure 13's boxes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Scheduler name.
    pub scheduler: String,
    /// Final state of every job.
    pub jobs: Vec<JobState>,
    /// Allocation snapshot after every scheduling event.
    pub timeline: Vec<AllocationSample>,
    /// Aggregate metrics.
    pub metrics: TraceMetrics,
}

/// Runs `trace` (job specs with arrival times) to completion under
/// `scheduler`.
///
/// # Panics
///
/// Panics if the trace contains a job whose demand exceeds the cluster, a
/// non-finite arrival time (a NaN one would never arrive, an infinite one
/// would finish at once), or duplicate job ids — malformed traces are a
/// programming error — or if `config.resched_interval_s` is not positive
/// and finite (a zero interval would never advance the clock). Every check
/// runs before the first event.
pub fn run_trace(
    trace: &[JobSpec],
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
) -> SimResult {
    run_trace_recorded(trace, scheduler, config, &Recorder::disabled())
}

/// Logical `tid` block for per-job tracks (`job N` → `JOB_TID_BASE + N`),
/// disjoint from trainer VN tracks (small integers) and per-device tracks
/// (`vf_device::obs::DEVICE_TID_BASE` block).
const JOB_TID_BASE: u32 = 2000;

/// [`run_trace`] with an observability handle attached: a trace sink, a
/// live monitor ([`Recorder::with_monitor`]), both or neither.
///
/// Emits `sched` events on the simulator's own clock, offset by the
/// recorder's clock at entry (so a simulation recorded after a training
/// run lands *after* it on the timeline, like every other traced
/// component): one instant per job arrival and completion, a
/// `job{N}/run` complete span over each job's service interval (first
/// allocation → completion, on its own track), and `queue_depth` /
/// `running` / `capacity` / `gpus_busy` / `busy_gpu_s` counters after
/// every scheduling event.
///
/// With a monitor, after every scheduling event the simulator publishes
/// its cluster-state gauges into the monitor's registry —
/// `sched/queue_depth`, `sched/running`, `sched/capacity`,
/// `sched/gpus_busy`, the cumulative `sched/busy_gpu_ms` counter, and `sched/starvation` (1 exactly when
/// jobs are queued and nothing runs, so an idle-but-empty cluster never
/// reads as starved) — then ticks the monitor at the event's simulated
/// time, driving the sampler and alert rules in event order (alert edges
/// land on `obs` as trace instants). Completions
/// additionally feed the bounded `sched/jct_s` / `sched/queue_delay_s`
/// quantile sketches and the priority-labeled `sched/completions` counter
/// family, so distribution telemetry stays O(1) however many jobs the
/// trace carries. The simulator is single-threaded and event-ordered, so
/// the emitted stream, the monitor's series and its alert log are
/// bit-identical across repeat runs and thread-count settings.
///
/// # Panics
///
/// Same conditions as [`run_trace`].
pub fn run_trace_recorded(
    trace: &[JobSpec],
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
    obs: &Recorder,
) -> SimResult {
    let device = DeviceProfile::of(config.device_type);
    // Everything below stamps simulated seconds relative to this base, so
    // back-to-back recorded components never interleave on the timeline.
    let base_us = obs.now_us();
    let mut arrivals: Vec<JobSpec> = trace.to_vec();
    for j in &arrivals {
        assert!(
            j.demand <= config.num_gpus,
            "{} demands {} GPUs on a {}-GPU cluster",
            j.id,
            j.demand,
            config.num_gpus
        );
        let (id, at) = (j.id, j.arrival_s);
        assert!(at.is_finite(), "{id} arrives at {at}");
    }
    assert!(
        config
            .resched_interval_s
            .is_none_or(|dt| dt.is_finite() && dt > 0.0),
        "resched_interval_s must be positive and finite, got {:?}",
        config.resched_interval_s
    );
    {
        let mut ids: Vec<JobId> = arrivals.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), arrivals.len(), "duplicate job ids in trace");
    }
    arrivals.sort_by(|a, b| cmp_f64(a.arrival_s, b.arrival_s).then(a.id.cmp(&b.id)));
    let mut pending = arrivals.into_iter().peekable();
    // The job table, sorted by id, and each job's step time at its current
    // allocation (unused while that is 0).
    let mut active: Vec<JobState> = Vec::new();
    let mut step_s: Vec<f64> = Vec::new();
    let mut done: Vec<JobState> = Vec::new();
    let mut timeline: Vec<AllocationSample> = Vec::new();
    let mut now = 0.0f64;
    let mut busy_integral = 0.0f64; // GPU·seconds in use
    let first_arrival = pending.peek().map_or(0.0, |j| j.arrival_s);
    let mut capacity = config.num_gpus;
    let mut capacity_events: Vec<CapacityEvent> = config.capacity_events.clone();
    capacity_events.sort_by(|a, b| cmp_f64(a.at_s, b.at_s));
    let mut capacity_iter = capacity_events.into_iter().peekable();

    loop {
        // Next completion among running jobs.
        let mut next_completion: Option<f64> = None;
        for (job, &st) in active.iter().zip(&step_s) {
            if job.allocation == 0 {
                continue;
            }
            let t = now + job.remaining_steps * st;
            if next_completion.is_none_or(|best| t < best) {
                next_completion = Some(t);
            }
        }
        let next_arrival = pending.peek().map(|j| j.arrival_s);
        let next_capacity = capacity_iter.peek().map(|e| e.at_s);
        let next_timer = match config.resched_interval_s {
            // Timers only matter while something is running.
            Some(dt) if next_completion.is_some() => Some(now + dt),
            _ => None,
        };
        let event_time = match (next_arrival, next_completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            // Nothing is running or arriving — but if jobs are queued and
            // capacity is scheduled to change, wait for it: a total outage
            // pauses the cluster, it does not kill the queued jobs.
            (None, None) => match next_capacity {
                Some(t) if !active.is_empty() => t,
                _ => break,
            },
        };
        let event_time = match next_timer {
            Some(t) => event_time.min(t),
            None => event_time,
        };
        let event_time = match next_capacity {
            // Capacity changes matter even while everything is queued.
            Some(t) if t <= event_time || next_arrival.is_some() || next_completion.is_some() => {
                event_time.min(t)
            }
            _ => event_time,
        };

        // Advance running jobs to the event time.
        let dt = (event_time - now).max(0.0);
        for (job, &st) in active.iter_mut().zip(&step_s) {
            if job.allocation > 0 {
                job.remaining_steps = (job.remaining_steps - dt / st).max(0.0);
                // A residual too small to move the f64 clock would be this
                // job's "next completion" forever: it finishes now.
                if event_time + job.remaining_steps * st <= event_time {
                    job.remaining_steps = 0.0;
                }
                busy_integral += job.allocation as f64 * dt;
            }
        }
        now = event_time;

        // Absorb all events at this instant: capacity changes, arrivals,
        // completions.
        while let Some(e) = capacity_iter.next_if(|e| e.at_s <= now) {
            capacity = e.num_gpus.min(config.num_gpus);
        }
        // Simulated seconds → event-timestamp microseconds.
        let now_us = base_us + (now.max(0.0) * 1e6).round() as u64;
        obs.set_time_us(now_us);
        while let Some(spec) = pending.next_if(|j| j.arrival_s <= now) {
            // Per-job instants go through head-based sampling keyed on the
            // job id: at the keep-all default this is byte-identical to
            // unconditional recording, and at scale a sampled run keeps a
            // deterministic job subset with every drop counted.
            obs.record_sampled(u64::from(spec.id.0), || {
                Event::instant(format!("job{}/arrival", spec.id.0), "sched", now_us)
                    .with_arg("demand", spec.demand)
                    .with_arg("priority", spec.priority)
            });
            let at = active.partition_point(|j| j.spec.id < spec.id);
            active.insert(at, JobState::new(spec));
            step_s.insert(at, f64::NAN);
        }
        // Lowest id first: the order of `done` is the summation order of
        // the metrics.
        while let Some(i) = active.iter().position(JobState::is_finished) {
            let mut job = active.remove(i);
            step_s.remove(i);
            let id = job.spec.id;
            job.finished_at_s = Some(now);
            job.allocation = 0;
            obs.record_sampled(u64::from(id.0), || {
                let mut e = Event::instant(format!("job{}/completion", id.0), "sched", now_us);
                if let Some(jct) = job.jct_s() {
                    e = e.with_arg("jct_s", jct);
                }
                e.with_arg("resizes", job.resizes)
            });
            // The job's whole service interval as a complete span on its
            // own track, so the profiler sees scheduler occupancy (queue
            // time excluded: the span starts at first allocation).
            if let Some(started) = job.started_at_s {
                let start_us = base_us + (started.max(0.0) * 1e6).round() as u64;
                obs.record_sampled(u64::from(id.0), || {
                    Event::complete(
                        format!("job{}/run", id.0),
                        "sched",
                        start_us,
                        now_us.saturating_sub(start_us).max(1),
                    )
                    .with_tid(JOB_TID_BASE + id.0)
                    .with_arg("resizes", job.resizes)
                });
            }
            if let Some(mon) = obs.monitor() {
                // Distribution telemetry is aggregate by construction:
                // bounded sketches for the JCT / queue-delay curves the
                // paper's Figs 12–14 report, and a labeled completion
                // counter dimensioned by priority class (bounded, unlike
                // per-job metric names which the metric-cardinality lint
                // now bans).
                let m = mon.metrics();
                if let Some(jct) = job.jct_s() {
                    m.observe_sketch("sched/jct_s", jct);
                }
                if let Some(delay) = job.queuing_delay_s() {
                    m.observe_sketch("sched/queue_delay_s", delay);
                }
                m.counter_with(
                    "sched/completions",
                    &[("priority", &job.spec.priority.to_string())],
                    1,
                );
            }
            done.push(job);
        }

        // Reschedule.
        let alloc = scheduler.allocate(now, &active, capacity);
        let total: u32 = alloc.values().sum();
        assert!(
            total <= capacity,
            "{} over-allocated {total}/{capacity} GPUs",
            scheduler.name(),
        );
        // The map and the job table are both sorted by id: one merge-walk
        // reads every grant.
        let mut grants = alloc.iter().peekable();
        for (job, st) in active.iter_mut().zip(&mut step_s) {
            while grants.next_if(|g| *g.0 < job.spec.id).is_some() {}
            let new_alloc = grants.next_if(|g| *g.0 == job.spec.id).map_or(0, |g| *g.1);
            if new_alloc != job.allocation && new_alloc > 0 {
                // The one event that makes a cached step time stale.
                *st = job.spec.step_time_on(new_alloc, device, &config.link);
                job.started_at_s.get_or_insert(now);
            }
            if new_alloc != job.allocation && job.allocation > 0 {
                job.resizes += 1;
                obs.record_sampled(u64::from(job.spec.id.0), || {
                    Event::instant(format!("job{}/resize", job.spec.id.0), "sched", now_us)
                        .with_arg("from", job.allocation)
                        .with_arg("to", new_alloc)
                });
                // Charge the resize penalty as extra remaining work.
                if new_alloc > 0 && config.resize_penalty_s > 0.0 {
                    job.remaining_steps += config.resize_penalty_s / *st;
                }
            }
            job.allocation = new_alloc;
        }
        let queued = active.iter().filter(|j| j.allocation == 0).count();
        let running = active.len() - queued;
        if obs.is_enabled() {
            obs.emit(Event::counter("sched/queue_depth", "sched", now_us, queued));
            obs.emit(Event::counter("sched/running", "sched", now_us, running));
            obs.emit(Event::counter("sched/capacity", "sched", now_us, capacity));
            obs.emit(Event::counter("sched/gpus_busy", "sched", now_us, total));
            obs.emit(Event::counter(
                "sched/busy_gpu_s",
                "sched",
                now_us,
                busy_integral,
            ));
        }
        if let Some(mon) = obs.monitor() {
            let m = mon.metrics();
            m.set_gauge("sched/queue_depth", queued as f64);
            m.set_gauge("sched/running", running as f64);
            m.set_gauge("sched/capacity", capacity as f64);
            m.set_gauge("sched/gpus_busy", f64::from(total));
            m.set_counter("sched/busy_gpu_ms", (busy_integral * 1e3).round() as u64);
            m.set_gauge(
                "sched/starvation",
                if queued > 0 && running == 0 { 1.0 } else { 0.0 },
            );
            mon.tick(now_us as f64 / 1e6, obs);
        }
        timeline.push(AllocationSample {
            time_s: now,
            allocations: alloc,
        });
    }

    // Jobs still queued when the simulation ends (e.g. capacity never
    // returned) are reported unfinished rather than silently dropped.
    done.extend(active);
    let metrics = TraceMetrics::compute(&done, config.num_gpus, first_arrival, now, busy_integral);
    done.sort_by_key(|j| j.spec.id);
    SimResult {
        scheduler: scheduler.name().to_string(),
        jobs: done,
        timeline,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{ElasticWfs, StaticPriority};
    use vf_models::profile::resnet56;

    fn spec(id: u32, priority: u32, demand: u32, steps: u64, arrival: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            name: format!("j{id}"),
            priority,
            demand,
            total_vns: demand * 2,
            model: resnet56(),
            micro_batch: 32,
            total_steps: steps,
            arrival_s: arrival,
        }
    }

    fn config() -> SimConfig {
        SimConfig::v100_cluster(4)
    }

    #[test]
    fn single_job_runs_to_completion() {
        let trace = vec![spec(0, 5, 2, 100, 0.0)];
        let r = run_trace(&trace, &mut ElasticWfs::new(), &config());
        assert_eq!(r.jobs.len(), 1);
        let j = &r.jobs[0];
        assert!(j.is_finished());
        assert_eq!(j.started_at_s, Some(0.0));
        let expected = j
            .spec
            .runtime_on(2, DeviceProfile::of(DeviceType::V100), &config().link);
        assert!((j.jct_s().unwrap() - expected).abs() / expected < 0.01);
    }

    #[test]
    fn residual_below_clock_resolution_finishes_the_job() {
        // Past 2^15 simulated seconds a residual of ~1e-9 steps no longer
        // advances the f64 clock; the run used to spin on it forever.
        let config = SimConfig::v100_cluster(128);
        for max_demand in [4, 8] {
            let trace = crate::trace::poisson_trace(450, 45.0, max_demand, 7, &config.link);
            let r = run_trace(&trace, &mut ElasticWfs::new(), &config);
            assert!(r.jobs.iter().all(|j| j.finished_at_s.is_some()));
        }
    }

    #[test]
    fn all_jobs_finish_under_both_schedulers() {
        let trace: Vec<JobSpec> = (0..5)
            .map(|i| spec(i, 1 + i, 2, 50 + 20 * i as u64, 5.0 * i as f64))
            .collect();
        for sched in [
            &mut ElasticWfs::new() as &mut dyn Scheduler,
            &mut StaticPriority::new(),
        ] {
            let r = run_trace(&trace, sched, &config());
            assert_eq!(r.jobs.len(), 5, "{}", r.scheduler);
            assert!(r.jobs.iter().all(|j| j.is_finished()));
            assert!(r.jobs.iter().all(|j| j.finished_at_s.is_some()));
        }
    }

    #[test]
    fn elastic_scheduler_resizes_static_does_not() {
        // Two jobs overlapping: elastic downsizes the first on arrival of
        // the second; static never does.
        let trace = vec![spec(0, 1, 4, 2000, 0.0), spec(1, 10, 4, 200, 1.0)];
        let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config());
        let static_ = run_trace(&trace, &mut StaticPriority::new(), &config());
        assert!(elastic.jobs[0].resizes > 0);
        assert_eq!(static_.jobs[0].resizes, 0);
    }

    #[test]
    fn elastic_cuts_queuing_delay_of_late_high_priority_jobs() {
        let trace = vec![spec(0, 1, 4, 3000, 0.0), spec(1, 10, 4, 300, 1.0)];
        let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config());
        let static_ = run_trace(&trace, &mut StaticPriority::new(), &config());
        let eq = elastic.jobs[1].queuing_delay_s().unwrap();
        let sq = static_.jobs[1].queuing_delay_s().unwrap();
        assert!(eq < sq, "elastic {eq} should beat static {sq}");
        assert!(eq < 2.0, "elastic queuing delay should be ~0, got {eq}");
    }

    #[test]
    fn timeline_never_exceeds_capacity() {
        let trace: Vec<JobSpec> = (0..6)
            .map(|i| spec(i, 1 + (i % 3) * 4, 1 + i % 4, 100, 3.0 * i as f64))
            .collect();
        let r = run_trace(&trace, &mut ElasticWfs::new(), &config());
        for sample in &r.timeline {
            assert!(sample.allocations.values().sum::<u32>() <= 4);
        }
    }

    #[test]
    fn utilization_is_within_unit_interval() {
        let trace = vec![spec(0, 5, 2, 500, 0.0), spec(1, 5, 2, 500, 0.0)];
        let r = run_trace(&trace, &mut ElasticWfs::new(), &config());
        assert!(r.metrics.avg_utilization > 0.0);
        assert!(r.metrics.avg_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn capacity_loss_downsizes_elastic_jobs_and_evicts_static_ones() {
        // Two 2-GPU jobs on 4 GPUs; at t=10 the cluster halves.
        let mk_config = || {
            let mut c = config();
            c.capacity_events = vec![
                CapacityEvent {
                    at_s: 10.0,
                    num_gpus: 2,
                },
                CapacityEvent {
                    at_s: 4000.0,
                    num_gpus: 4,
                },
            ];
            c
        };
        let trace = vec![spec(0, 10, 2, 2000, 0.0), spec(1, 1, 2, 2000, 0.0)];
        let elastic = run_trace(&trace, &mut ElasticWfs::new(), &mk_config());
        let static_ = run_trace(&trace, &mut StaticPriority::new(), &mk_config());
        for r in [&elastic, &static_] {
            assert!(r.jobs.iter().all(|j| j.is_finished()), "{}", r.scheduler);
            // During the dip, usage never exceeds 2 GPUs.
            for s in &r.timeline {
                if (10.0..4000.0).contains(&s.time_s) {
                    assert!(s.allocations.values().sum::<u32>() <= 2);
                }
            }
        }
        // Elastic keeps both jobs running (1 GPU each) through the dip;
        // static must evict the low-priority job entirely.
        let dip_sample = elastic
            .timeline
            .iter()
            .find(|s| s.time_s >= 10.0)
            .expect("dip event recorded");
        assert_eq!(dip_sample.allocations.len(), 2, "elastic shares the dip");
        let static_dip = static_
            .timeline
            .iter()
            .find(|s| s.time_s >= 10.0)
            .expect("dip event recorded");
        assert_eq!(static_dip.allocations.len(), 1, "static evicts one job");
        assert!(
            static_dip.allocations.contains_key(&JobId(0)),
            "high priority survives"
        );
    }

    #[test]
    fn capacity_above_initial_is_clamped() {
        let mut c = config();
        c.capacity_events = vec![CapacityEvent {
            at_s: 1.0,
            num_gpus: 99,
        }];
        let trace = vec![spec(0, 5, 4, 200, 0.0)];
        let r = run_trace(&trace, &mut ElasticWfs::new(), &c);
        for s in &r.timeline {
            assert!(s.allocations.values().sum::<u32>() <= 4);
        }
    }

    #[test]
    fn fault_driven_capacity_dips_requeue_jobs_instead_of_killing_them() {
        use vf_device::FailureModel;
        let plan = FaultPlan::new(11).with_crashes(FailureModel::new(900.0, 11).unwrap());
        let events = capacity_events_from_faults(&plan, 4, 50_000.0, 200.0);
        assert!(!events.is_empty(), "the plan must actually produce faults");
        assert!(
            events.iter().any(|e| e.num_gpus < 4),
            "some fault must reduce capacity"
        );
        let mut c = config();
        c.capacity_events = events;
        let trace: Vec<JobSpec> = (0..4)
            .map(|i| spec(i, 1 + i, 2, 400, 10.0 * i as f64))
            .collect();
        for sched in [
            &mut ElasticWfs::new() as &mut dyn Scheduler,
            &mut StaticPriority::new(),
        ] {
            let r = run_trace(&trace, sched, &c);
            assert_eq!(r.jobs.len(), 4, "{}: no job may be lost", r.scheduler);
            assert!(
                r.jobs.iter().all(|j| j.is_finished()),
                "{}: every job finishes despite the faults",
                r.scheduler
            );
        }
    }

    #[test]
    fn fault_capacity_events_are_deterministic_and_bounded() {
        use vf_device::{FailureModel, RackModel};
        let plan = FaultPlan::new(3)
            .with_crashes(FailureModel::new(500.0, 3).unwrap())
            .with_racks(RackModel::new(2, 2000.0).unwrap());
        let a = capacity_events_from_faults(&plan, 8, 20_000.0, 300.0);
        let b = capacity_events_from_faults(&plan, 8, 20_000.0, 300.0);
        assert_eq!(a, b);
        for e in &a {
            assert!(e.num_gpus <= 8);
        }
        // Every outage ends: the final event restores full capacity.
        assert_eq!(a.last().unwrap().num_gpus, 8);
    }

    #[test]
    fn total_outage_pauses_the_cluster_rather_than_killing_the_job() {
        let mut c = config();
        c.capacity_events = vec![
            CapacityEvent {
                at_s: 5.0,
                num_gpus: 0,
            },
            CapacityEvent {
                at_s: 5_000.0,
                num_gpus: 4,
            },
        ];
        let trace = vec![spec(0, 5, 2, 2000, 0.0)];
        let r = run_trace(&trace, &mut ElasticWfs::new(), &c);
        assert_eq!(r.jobs.len(), 1);
        assert!(r.jobs[0].is_finished());
        assert!(
            r.jobs[0].finished_at_s.unwrap() > 5_000.0,
            "the job waited out the outage and resumed"
        );
    }

    #[test]
    fn permanent_outage_reports_the_job_unfinished_instead_of_dropping_it() {
        let mut c = config();
        c.capacity_events = vec![CapacityEvent {
            at_s: 5.0,
            num_gpus: 0,
        }];
        let trace = vec![spec(0, 5, 2, 100_000, 0.0)];
        let r = run_trace(&trace, &mut ElasticWfs::new(), &c);
        assert_eq!(r.jobs.len(), 1, "the stuck job still appears in results");
        assert!(!r.jobs[0].is_finished());
        assert!(r.jobs[0].finished_at_s.is_none());
    }

    #[test]
    #[should_panic]
    fn oversized_demand_is_rejected() {
        let trace = vec![spec(0, 5, 99, 10, 0.0)];
        run_trace(&trace, &mut ElasticWfs::new(), &config());
    }

    fn run_with_interval(interval_s: f64) {
        let mut c = config();
        c.resched_interval_s = Some(interval_s);
        run_trace(&[spec(0, 5, 2, 100, 0.0)], &mut ElasticWfs::new(), &c);
    }

    #[test]
    #[should_panic(expected = "resched_interval_s")]
    fn zero_resched_interval_is_rejected() {
        run_with_interval(0.0);
    }

    #[test]
    #[should_panic(expected = "resched_interval_s")]
    fn negative_resched_interval_is_rejected() {
        run_with_interval(-1.0);
    }

    #[test]
    #[should_panic(expected = "resched_interval_s")]
    fn nan_resched_interval_is_rejected() {
        run_with_interval(f64::NAN);
    }

    // The checks run before the event loop, so a regression fails these
    // tests instead of hanging them.
    #[test]
    #[should_panic(expected = "job1 arrives at NaN")]
    fn nan_arrival_is_rejected() {
        let trace = vec![spec(0, 5, 1, 10, 0.0), spec(1, 5, 1, 10, f64::NAN)];
        run_trace(&trace, &mut ElasticWfs::new(), &config());
    }

    #[test]
    #[should_panic(expected = "job0 arrives at inf")]
    fn infinite_arrival_is_rejected() {
        let trace = vec![spec(0, 5, 1, 10, f64::INFINITY), spec(1, 5, 1, 10, 0.0)];
        run_trace(&trace, &mut ElasticWfs::new(), &config());
    }

    #[test]
    #[should_panic]
    fn duplicate_ids_are_rejected() {
        let trace = vec![spec(0, 5, 1, 10, 0.0), spec(0, 5, 1, 10, 1.0)];
        run_trace(&trace, &mut ElasticWfs::new(), &config());
    }
}
