//! Figure 14: JCT and queuing-delay distributions of the 20-job trace.
//!
//! Elasticity's biggest win is queuing delay: jobs get GPUs the moment they
//! arrive instead of waiting behind long jobs (paper: median JCT −47.6%,
//! median queuing delay −99.3%).

use crate::fig13_twenty_jobs::elastic_and_static;
use vf_bench::report::{emit, improvement_pct, print_table, Mode, Result};
use vf_sched::SimResult;

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

fn cdf_row(label: &str, v: &[f64]) -> Vec<String> {
    let q = |p: f64| v[((v.len() - 1) as f64 * p) as usize];
    vec![
        label.to_string(),
        format!("{:.0}", q(0.25)),
        format!("{:.0}", q(0.5)),
        format!("{:.0}", q(0.75)),
        format!("{:.0}", q(0.95)),
    ]
}

fn collect(result: &SimResult) -> (Vec<f64>, Vec<f64>) {
    let jct = sorted(result.jobs.iter().filter_map(|j| j.jct_s()).collect());
    let delay = sorted(
        result
            .jobs
            .iter()
            .filter_map(|j| j.queuing_delay_s())
            .collect(),
    );
    (jct, delay)
}

pub fn run(_: Mode) -> Result {
    println!("== Figure 14: JCT and queuing delay CDFs (20-job trace) ==\n");
    let (elastic, static_) = elastic_and_static();
    let (e_jct, e_delay) = collect(&elastic);
    let (s_jct, s_delay) = collect(&static_);

    println!("JCT quantiles (s):");
    print_table(
        &["scheduler", "p25", "p50", "p75", "p95"],
        &[
            cdf_row("elastic-wfs", &e_jct),
            cdf_row("static-priority", &s_jct),
        ],
    );
    println!("\nqueuing delay quantiles (s):");
    print_table(
        &["scheduler", "p25", "p50", "p75", "p95"],
        &[
            cdf_row("elastic-wfs", &e_delay),
            cdf_row("static-priority", &s_delay),
        ],
    );

    let jct_gain = improvement_pct(elastic.metrics.median_jct_s, static_.metrics.median_jct_s);
    let delay_gain = improvement_pct(
        elastic.metrics.median_queuing_delay_s,
        static_.metrics.median_queuing_delay_s.max(1e-9),
    );
    println!(
        "\nmedian JCT: −{jct_gain:.1}% (paper: −47.6%) | median queuing delay: −{delay_gain:.1}% (paper: −99.3%)"
    );
    assert!(jct_gain > 10.0, "median JCT must drop");
    assert!(
        elastic.metrics.median_queuing_delay_s
            < 0.1 * static_.metrics.median_queuing_delay_s.max(1.0),
        "elastic queuing delay must be near zero"
    );
    emit(
        "fig14_jct_cdf",
        &serde_json::json!({
            "elastic": { "jct": e_jct, "queuing_delay": e_delay },
            "static": { "jct": s_jct, "queuing_delay": s_delay },
            "median_jct_gain_pct": jct_gain,
            "median_delay_gain_pct": delay_gain,
        }),
    )?;
    Ok(())
}
