//! Figure 13: 20 jobs arriving as a Poisson process (12 jobs/hour) on 16
//! V100 GPUs, drawn from the Table 3 workload mix.
//!
//! Elasticity raises average utilization (paper: 71.1% → 90.6%) and cuts
//! the makespan (paper: −45.5%). The harness also prints the allocation
//! timeline — the "boxes" of Figure 13 — as a GPU-count strip chart.

use vf_bench::report::{emit, improvement_pct, Mode, Result};
use vf_sched::trace::poisson_trace;
use vf_sched::{run_trace, ElasticWfs, SimConfig, SimResult, StaticPriority};

/// The trace seed used throughout the Figure 13/14 experiments.
const TRACE_SEED: u64 = 17;

/// The Figure 13/14 trace on 16 V100s, run under Elastic WFS and under
/// static priority.
pub fn elastic_and_static() -> (SimResult, SimResult) {
    let config = SimConfig::v100_cluster(16);
    let trace = poisson_trace(20, 12.0, 16, TRACE_SEED, &config.link);
    let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
    let static_ = run_trace(&trace, &mut StaticPriority::new(), &config);
    (elastic, static_)
}

fn strip_chart(result: &SimResult, gpus: u32) {
    // One character per timeline sample: total GPUs in use, hex-ish.
    let chars: String = result
        .timeline
        .iter()
        .map(|s| {
            let used: u32 = s.allocations.values().sum();
            char::from_digit(used.min(15), 16).unwrap_or('?')
        })
        .collect();
    println!(
        "  {:16} |{}| (digits = GPUs of {gpus} in use per event)",
        result.scheduler, chars
    );
}

pub fn run(_: Mode) -> Result {
    println!("== Figure 13: 20-job Poisson trace on 16 V100s ==\n");
    let (elastic, static_) = elastic_and_static();

    strip_chart(&elastic, 16);
    strip_chart(&static_, 16);

    let util_e = 100.0 * elastic.metrics.avg_utilization;
    let util_s = 100.0 * static_.metrics.avg_utilization;
    let makespan_gain = improvement_pct(elastic.metrics.makespan_s, static_.metrics.makespan_s);
    println!(
        "\navg utilization: {util_s:.1}% → {util_e:.1}% (+{:.1} pp; paper: 71.1% → 90.6%)",
        util_e - util_s
    );
    println!(
        "makespan: {:.0}s → {:.0}s (−{makespan_gain:.1}%; paper: −45.5%)",
        static_.metrics.makespan_s, elastic.metrics.makespan_s
    );
    println!(
        "total resizes performed by the elastic scheduler: {}",
        elastic.metrics.total_resizes
    );
    assert!(util_e > util_s + 5.0, "utilization must rise materially");
    assert!(makespan_gain > 15.0, "makespan must fall materially");
    emit(
        "fig13_twenty_jobs",
        &serde_json::json!({
            "trace_seed": TRACE_SEED,
            "elastic": { "metrics": elastic.metrics, "timeline": elastic.timeline },
            "static": { "metrics": static_.metrics, "timeline": static_.timeline },
            "utilization_gain_pp": util_e - util_s,
            "makespan_gain_pct": makespan_gain,
        }),
    )?;
    Ok(())
}
