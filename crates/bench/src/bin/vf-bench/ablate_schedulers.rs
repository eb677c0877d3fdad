//! Ablation: scheduling policies on the 20-job trace.
//!
//! Compares the paper's Elastic WFS against the SRTF and LAS weightings
//! (§4.2 mentions both as expressible priorities), an Optimus-style
//! throughput optimizer (§8), and the static priority baseline. Elasticity
//! itself is the common enabler — every elastic policy beats the rigid
//! baseline — while the policies trade off JCT vs priority fidelity.

use vf_bench::report::{emit, print_table, Context, Mode, Result};
use vf_comm::LinkProfile;
use vf_device::{DeviceProfile, DeviceType};
use vf_sched::trace::poisson_trace;
use vf_sched::{
    run_trace, ElasticWfs, Scheduler, SimConfig, StaticPriority, ThroughputOptimizer, WeightPolicy,
};

pub fn run(_: Mode) -> Result {
    println!("== ablation: scheduling policies, 20-job trace on 16 V100s ==\n");
    let mut config = SimConfig::v100_cluster(16);
    config.resched_interval_s = Some(120.0); // LAS needs periodic reevaluation
    let trace = poisson_trace(20, 12.0, 16, 17, &config.link);

    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(ElasticWfs::new()),
        Box::new(ElasticWfs::with_policy(WeightPolicy::Srtf)),
        Box::new(ElasticWfs::with_policy(WeightPolicy::Las)),
        Box::new(ThroughputOptimizer::new(
            DeviceProfile::of(DeviceType::V100),
            LinkProfile::nvlink(),
        )),
        Box::new(StaticPriority::new()),
    ];

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for sched in schedulers.iter_mut() {
        let r = run_trace(&trace, sched.as_mut(), &config);
        rows.push(vec![
            r.scheduler.clone(),
            format!("{:.0}", r.metrics.makespan_s),
            format!("{:.0}", r.metrics.median_jct_s),
            format!("{:.0}", r.metrics.median_queuing_delay_s),
            format!("{:.1}", 100.0 * r.metrics.avg_utilization),
            r.metrics.total_resizes.to_string(),
        ]);
        out.push(serde_json::json!({
            "scheduler": r.scheduler,
            "makespan_s": r.metrics.makespan_s,
            "median_jct_s": r.metrics.median_jct_s,
            "median_queuing_delay_s": r.metrics.median_queuing_delay_s,
            "avg_utilization": r.metrics.avg_utilization,
            "resizes": r.metrics.total_resizes,
        }));
    }
    print_table(
        &[
            "scheduler",
            "makespan s",
            "med JCT s",
            "med queue s",
            "util %",
            "resizes",
        ],
        &rows,
    );

    // Every fair-sharing elastic policy must beat the static baseline on
    // makespan. The throughput optimizer is *not* asserted: maximizing
    // aggregate steps/second starves poorly-scaling jobs, and on this trace
    // it loses on makespan — a cautionary result worth keeping visible.
    let metric = |scheduler: &str, key: &str| {
        out.iter()
            .find(|r| r["scheduler"] == scheduler)
            .context("present")?[key]
            .as_f64()
            .context("numeric")
    };
    let static_makespan = metric("static-priority", "makespan_s")?;
    for r in &out {
        let name = r["scheduler"].as_str().context("string")?;
        if name.starts_with("elastic-") {
            let makespan = r["makespan_s"].as_f64().context("numeric")?;
            assert!(makespan < static_makespan, "{name} must beat static");
        }
    }
    let srtf_jct = metric("elastic-srtf", "median_jct_s")?;
    let wfs_jct = metric("elastic-wfs", "median_jct_s")?;
    println!(
        "\nSRTF median JCT {srtf_jct:.0}s vs WFS {wfs_jct:.0}s — SRTF trades priority fidelity for JCT"
    );
    emit("ablate_schedulers", &serde_json::json!({ "rows": out }))?;
    Ok(())
}
