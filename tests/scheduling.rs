//! Integration tests for the elastic scheduling layer (paper §4, §6.4).

use proptest::prelude::*;
use virtualflow::sched::trace::{make_job, paper_workload_mix, poisson_trace, three_job_trace};
use virtualflow::sched::{CapacityEvent, SimResult, ThroughputOptimizer, WeightPolicy};
use virtualflow::prelude::*;

#[test]
fn three_job_trace_elastic_beats_static_on_every_headline_metric() {
    let config = SimConfig::v100_cluster(4);
    let trace = three_job_trace(&config.link);
    let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
    let static_ = run_trace(&trace, &mut StaticPriority::new(), &config);

    // Fig 12's claims: lower makespan, much lower JCT for the high-priority
    // job, higher utilization.
    assert!(elastic.metrics.makespan_s < static_.metrics.makespan_s);
    let e_top = elastic.jobs[2].jct_s().unwrap();
    let s_top = static_.jobs[2].jct_s().unwrap();
    assert!(
        e_top < 0.7 * s_top,
        "high-priority JCT should drop sharply: {e_top} vs {s_top}"
    );
    assert!(elastic.metrics.avg_utilization > static_.metrics.avg_utilization);
    assert!(elastic.metrics.total_resizes > 0);
    assert_eq!(static_.metrics.total_resizes, 0);
}

#[test]
fn twenty_job_trace_shows_fig13_fig14_shape() {
    let config = SimConfig::v100_cluster(16);
    let trace = poisson_trace(20, 12.0, 16, 2022, &config.link);
    let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
    let static_ = run_trace(&trace, &mut StaticPriority::new(), &config);
    assert_eq!(elastic.jobs.len(), 20);
    assert_eq!(static_.jobs.len(), 20);
    assert!(elastic.metrics.makespan_s < static_.metrics.makespan_s);
    assert!(elastic.metrics.avg_utilization > static_.metrics.avg_utilization);
    assert!(elastic.metrics.median_jct_s < static_.metrics.median_jct_s);
    assert!(
        elastic.metrics.median_queuing_delay_s <= static_.metrics.median_queuing_delay_s
    );
}

#[test]
fn static_scheduler_leaves_gpus_idle_under_head_of_line_blocking() {
    // The Fig 12 pathology: a 2-GPU job holds the head of the queue's
    // 4-GPU job back, idling 2 GPUs for its whole duration.
    let config = SimConfig::v100_cluster(4);
    let mix = paper_workload_mix();
    let resnet56 = &mix[0]; // batch 128 → demand 2
    let resnet50 = &mix[1]; // batch 1024 → demand 4
    let trace = vec![
        make_job(0, resnet56, 128, 1, 10, 0.0, 600.0, 4, &config.link),
        make_job(1, resnet50, 1024, 1, 1, 1.0, 600.0, 4, &config.link),
    ];
    assert_eq!(trace[0].demand, 2);
    assert_eq!(trace[1].demand, 4);
    let static_ = run_trace(&trace, &mut StaticPriority::new(), &config);
    assert!(static_.metrics.avg_utilization < 0.8);
    let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
    assert!(elastic.metrics.avg_utilization > static_.metrics.avg_utilization);
}

#[test]
fn srtf_policy_prefers_short_jobs_end_to_end() {
    let config = SimConfig::v100_cluster(4);
    let mix = paper_workload_mix();
    let resnet = &mix[0];
    // Same priority; one short, one long, both want the whole cluster.
    let trace = vec![
        make_job(0, resnet, 128, 1, 5, 0.0, 3000.0, 4, &config.link),
        make_job(1, resnet, 128, 1, 5, 1.0, 120.0, 4, &config.link),
    ];
    let srtf = run_trace(
        &trace,
        &mut ElasticWfs::with_policy(WeightPolicy::Srtf),
        &config,
    );
    let short = srtf.jobs[1].jct_s().unwrap();
    let long = srtf.jobs[0].jct_s().unwrap();
    assert!(short < long / 4.0, "short job should finish fast: {short} vs {long}");
}

#[test]
fn wfs_is_weighted_fair_over_time() {
    // Three long jobs with priorities 1/2/4 contending for 8 GPUs: the
    // service each receives, normalized by priority, should be close to
    // equal (weighted Jain index near 1).
    use std::collections::BTreeMap;
    use virtualflow::sched::fairness::fairness_report;
    let config = SimConfig::v100_cluster(8);
    let mix = paper_workload_mix();
    let resnet = &mix[0];
    let trace: Vec<JobSpec> = [(0u32, 1u32), (1, 2), (2, 4)]
        .iter()
        .map(|&(id, prio)| {
            let mut j = make_job(id, resnet, 128, 1, prio, 0.0, 1200.0, 8, &config.link);
            j.demand = 8; // all of them want the whole cluster
            j
        })
        .collect();
    let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
    let priorities: BTreeMap<_, _> = trace.iter().map(|j| (j.id, j.priority)).collect();
    let end = elastic.metrics.makespan_s;
    let report = fairness_report(&elastic.timeline, end, &priorities);
    assert!(
        report.weighted_jain > 0.85,
        "weighted Jain {:.3}, normalized {:?}",
        report.weighted_jain,
        report.normalized_service
    );
}

#[test]
fn periodic_rescheduling_lets_las_rotate_service() {
    // Without timers LAS only reevaluates at arrivals/completions; with a
    // rescheduling interval it rebalances as attained service accumulates,
    // so both equal-priority jobs make interleaved progress.
    let mut config = SimConfig::v100_cluster(4);
    config.resched_interval_s = Some(30.0);
    let mix = paper_workload_mix();
    let resnet = &mix[0];
    // Three equal jobs on 4 GPUs: the indivisible fourth GPU must rotate
    // to whichever job has the least attained service.
    let trace: Vec<JobSpec> = (0..3)
        .map(|i| make_job(i, resnet, 128, 1, 5, 0.0, 900.0, 4, &config.link))
        .collect();
    let r = run_trace(
        &trace,
        &mut ElasticWfs::with_policy(WeightPolicy::Las),
        &config,
    );
    assert!(r.jobs.iter().all(|j| j.is_finished()));
    // Timer events appear in the timeline (many more samples than the 6
    // arrival/completion events).
    assert!(r.timeline.len() > 10, "only {} samples", r.timeline.len());
    // The extra GPU rotates: multiple resizes across the jobs.
    assert!(
        r.metrics.total_resizes >= 4,
        "only {} resizes",
        r.metrics.total_resizes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary Poisson traces: the simulation always terminates with
    /// every job finished, allocations never exceed capacity, and elastic
    /// WFS never loses to the static baseline on makespan by more than the
    /// resize overhead margin.
    #[test]
    fn prop_traces_complete_and_respect_capacity(
        seed in 0u64..200,
        num_jobs in 3u32..12,
        gpus in 4u32..17,
    ) {
        let config = SimConfig::v100_cluster(gpus);
        let trace = poisson_trace(num_jobs, 20.0, gpus, seed, &config.link);
        for sched_kind in 0..2 {
            let result = if sched_kind == 0 {
                run_trace(&trace, &mut ElasticWfs::new(), &config)
            } else {
                run_trace(&trace, &mut StaticPriority::new(), &config)
            };
            prop_assert_eq!(result.jobs.len(), num_jobs as usize);
            prop_assert!(result.jobs.iter().all(|j| j.is_finished()));
            for sample in &result.timeline {
                prop_assert!(sample.allocations.values().sum::<u32>() <= gpus);
            }
            // JCT ≥ queuing delay ≥ 0 for every job.
            for j in &result.jobs {
                let q = j.queuing_delay_s().unwrap();
                let jct = j.jct_s().unwrap();
                prop_assert!(q >= -1e-9);
                prop_assert!(jct + 1e-9 >= q);
            }
        }
    }

    /// Elastic WFS makespan is never dramatically worse than static (it can
    /// differ slightly through resize penalties and fair-sharing effects on
    /// per-job efficiency).
    #[test]
    fn prop_elastic_is_competitive_on_makespan(seed in 0u64..60) {
        let config = SimConfig::v100_cluster(8);
        let trace = poisson_trace(8, 15.0, 8, seed, &config.link);
        let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
        let static_ = run_trace(&trace, &mut StaticPriority::new(), &config);
        prop_assert!(
            elastic.metrics.makespan_s <= static_.metrics.makespan_s * 1.25,
            "elastic {} vs static {}",
            elastic.metrics.makespan_s,
            static_.metrics.makespan_s
        );
    }
}

/// FNV-1a over every job's `finished_at_s` bits, the makespan bits and the
/// resize count: one reordered floating-point operation anywhere in the
/// event loop or a scheduler moves it.
fn sim_fingerprint(r: &SimResult) -> u64 {
    let words = r
        .jobs
        .iter()
        .map(|j| j.finished_at_s.map_or(u64::MAX, f64::to_bits))
        .chain([r.metrics.makespan_s.to_bits(), u64::from(r.metrics.total_resizes)]);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Bit-stability tripwire: the simulator and the schedulers may be
/// restructured freely, but the sequence of float operations each job sees
/// must not change. The constants are those of PR 13's event loop (which
/// re-evaluated the step-time model at every use and cloned the job table
/// per event); only a deliberate change of model re-captures them — the
/// failure message prints the new values.
#[test]
fn simulations_are_bit_stable() {
    let v100 = DeviceProfile::of(DeviceType::V100);
    let mut failures = Vec::new();
    let mut check = |name: &str, r: SimResult, expected: u64| {
        assert!(r.jobs.iter().all(|j| j.is_finished()), "{name}: unfinished jobs");
        let got = sim_fingerprint(&r);
        if got != expected {
            failures.push(format!("{name}: {got:#018x}"));
        }
        r
    };

    let config = SimConfig::v100_cluster(128);
    let trace = poisson_trace(240, 150.0, 8, 31, &config.link);
    check(
        "elastic-wfs",
        run_trace(&trace, &mut ElasticWfs::new(), &config),
        0x156d_bac4_5513_df2f,
    );
    check(
        "elastic-srtf",
        run_trace(&trace, &mut ElasticWfs::with_policy(WeightPolicy::Srtf), &config),
        0xe299_164f_45f7_be40,
    );

    // Timer events: LAS reads every job's progress between arrivals.
    let mut config = SimConfig::v100_cluster(64);
    config.resched_interval_s = Some(45.0);
    let trace = poisson_trace(120, 90.0, 8, 32, &config.link);
    check(
        "elastic-las+timer",
        run_trace(&trace, &mut ElasticWfs::with_policy(WeightPolicy::Las), &config),
        0xae06_73e2_3641_f5bf,
    );

    // Evict → requeue → restart: a job's allocation passes through zero and
    // comes back, so whatever the loop remembers about its step time must
    // survive (or be rebuilt across) the gap.
    let mut config = SimConfig::v100_cluster(64);
    config.capacity_events = vec![
        CapacityEvent { at_s: 1500.0, num_gpus: 20 },
        CapacityEvent { at_s: 4000.0, num_gpus: 64 },
    ];
    let trace = poisson_trace(120, 120.0, 8, 33, &config.link);
    let r = check(
        "static-priority+dip",
        run_trace(&trace, &mut StaticPriority::new(), &config),
        0x4862_08ec_49ca_e03c,
    );
    assert!(r.metrics.total_resizes > 0, "the dip must evict at least one running job");

    let config = SimConfig::v100_cluster(64);
    let trace = poisson_trace(100, 120.0, 8, 34, &config.link);
    check(
        "throughput-optimizer",
        run_trace(&trace, &mut ThroughputOptimizer::new(v100, config.link), &config),
        0x4e55_46cb_3ac7_2eb1,
    );

    assert!(failures.is_empty(), "fingerprints moved:\n{}", failures.join("\n"));
}
