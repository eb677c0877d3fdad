//! Figure 12: elastic scheduling with three jobs on 4 V100 GPUs.
//!
//! Jobs arrive in increasing priority (1, 5, 10) with demands (4, 2, 4).
//! The VirtualFlow scheduler downsizes running jobs when higher-priority
//! work arrives; the static priority scheduler strands the high-priority
//! job behind the queue and idles GPUs. The paper reports makespan −38%
//! and top-priority JCT −45%, with accuracies preserved.
//!
//! The accuracy-preservation half is checked numerically: each job is
//! replayed through the real `Trainer` with the resize schedule the
//! simulator produced, and its parameters compared to a fixed-allocation
//! run.

use std::sync::Arc;
use vf_bench::report::{emit, improvement_pct, print_table, Context, Mode, Result};
use vf_bench::standins::{bert_base_glue, GlueTask};
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_device::{DeviceId, DeviceProfile};
use vf_models::Mlp;
use vf_sched::trace::three_job_trace;
use vf_sched::{run_trace, ElasticWfs, SimConfig, SimResult, StaticPriority};

/// Reconstructs each job's work-completed fraction over simulated time from
/// the allocation timeline.
fn progress_series(result: &SimResult, config: &SimConfig) -> Vec<Vec<(f64, f64)>> {
    let device = DeviceProfile::of(config.device_type);
    result
        .jobs
        .iter()
        .map(|job| {
            let mut done = 0.0f64;
            let mut series = vec![(job.spec.arrival_s, 0.0)];
            for (i, sample) in result.timeline.iter().enumerate() {
                let until = result
                    .timeline
                    .get(i + 1)
                    .map_or(job.finished_at_s.unwrap_or(sample.time_s), |s| s.time_s);
                let gpus = sample.allocations.get(&job.spec.id).copied().unwrap_or(0);
                if gpus > 0 && until > sample.time_s {
                    let st = job.spec.step_time_on(gpus, device, &config.link);
                    done += (until - sample.time_s) / st;
                }
                let frac = (done / job.spec.total_steps as f64).min(1.0);
                series.push((until, frac));
                if frac >= 1.0 {
                    break;
                }
            }
            series
        })
        .collect()
}

/// Maps a work fraction onto a precomputed per-epoch accuracy curve
/// (convergence depends only on work done — the VirtualFlow guarantee).
fn accuracy_at(curve: &[f32], work_fraction: f64) -> f32 {
    if curve.is_empty() || work_fraction <= 0.0 {
        return 0.0;
    }
    let idx = ((work_fraction * curve.len() as f64).ceil() as usize).min(curve.len()) - 1;
    curve[idx]
}

pub fn run(_: Mode) -> Result {
    println!("== Figure 12: 3-job elastic trace on 4 V100s ==\n");
    let config = SimConfig::v100_cluster(4);
    let trace = three_job_trace(&config.link);
    let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
    let static_ = run_trace(&trace, &mut StaticPriority::new(), &config);

    let mut rows = Vec::new();
    for (e, s) in elastic.jobs.iter().zip(static_.jobs.iter()) {
        rows.push(vec![
            e.spec.name.clone(),
            e.spec.priority.to_string(),
            e.spec.demand.to_string(),
            format!("{:.0}", e.jct_s().unwrap_or(0.0)),
            format!("{:.0}", s.jct_s().unwrap_or(0.0)),
            e.resizes.to_string(),
        ]);
    }
    print_table(
        &[
            "job",
            "prio",
            "demand",
            "elastic JCT (s)",
            "static JCT (s)",
            "resizes",
        ],
        &rows,
    );

    let makespan_gain = improvement_pct(elastic.metrics.makespan_s, static_.metrics.makespan_s);
    let elastic_top_jct = elastic.jobs[2]
        .jct_s()
        .context("elastic run never finished the high-priority job")?;
    let static_top_jct = static_.jobs[2]
        .jct_s()
        .context("static run never finished the high-priority job")?;
    let top_jct_gain = improvement_pct(elastic_top_jct, static_top_jct);
    println!(
        "\nmakespan: {:.0}s vs {:.0}s ({:.0}% lower; paper: 38%)",
        elastic.metrics.makespan_s, static_.metrics.makespan_s, makespan_gain
    );
    println!(
        "high-priority JCT: {:.0}s vs {:.0}s ({:.0}% lower; paper: 45%)",
        elastic_top_jct, static_top_jct, top_jct_gain
    );
    assert!(makespan_gain > 10.0);
    assert!(top_jct_gain > 25.0);

    // Accuracy preservation: replay job 0's actual resize schedule (its
    // allocation after every scheduling event) through the numeric trainer.
    println!("\naccuracy preservation check (numeric replay of job 0's resizes):");
    let dataset = Arc::new(ClusterTask::easy(99).generate().context("dataset")?);
    let arch = Arc::new(Mlp::linear(16, 4));
    let tc = TrainerConfig::simple(8, 64, 0.2, 99);
    let mut resized = Trainer::new(arch.clone(), dataset.clone(), tc.clone(), &[DeviceId(0)])
        .context("resized trainer")?;
    let mut fixed =
        Trainer::new(arch, dataset.clone(), tc, &[DeviceId(0)]).context("fixed trainer")?;
    // Walk the recorded allocations of job 0 in the elastic run.
    let allocs: Vec<u32> = elastic
        .timeline
        .iter()
        .filter_map(|s| s.allocations.get(&trace[0].id).copied())
        .filter(|&g| g > 0)
        .collect();
    for &gpus in allocs.iter().take(6) {
        let ids: Vec<DeviceId> = (0..gpus.min(8)).map(DeviceId).collect();
        resized
            .resize(&ids)
            .map_err(|e| format!("resize to {gpus} devices: {e}"))?;
        resized.run_steps(2).context("resized train")?;
        fixed.run_steps(2).context("fixed train")?;
    }
    assert_eq!(resized.params(), fixed.params());
    let acc = resized.evaluate(&dataset).context("eval")?.accuracy;
    println!(
        "  replayed {} allocation changes: parameters identical, accuracy {:.2}% ✓",
        allocs.len().min(6),
        acc * 100.0
    );

    // Panels (a)/(b): accuracy over simulated wall-clock time per job.
    // Because VF convergence depends only on work done, each job has ONE
    // accuracy curve; the schedulers differ only in how fast they traverse
    // it. Jobs 0/2 use GLUE stand-ins, job 1 a ResNet-56-like stand-in.
    println!("\naccuracy-over-time (panels a/b):");
    let mut curves: Vec<Vec<f32>> = Vec::new();
    for task in [GlueTask::Sst2, GlueTask::Cola, GlueTask::Qnli] {
        let mut w = bert_base_glue(task);
        w.epochs = 10;
        curves.push(w.train("curve", 64, 8, 1)?.curve);
    }
    let mut panels = serde_json::Map::new();
    for (label, result) in [("elastic", &elastic), ("static", &static_)] {
        let progress = progress_series(result, &config);
        let mut jobs_json = Vec::new();
        for (j, (series, curve)) in progress.iter().zip(curves.iter()).enumerate() {
            let acc_series: Vec<(f64, f32)> = series
                .iter()
                .map(|&(t, frac)| (t, accuracy_at(curve, frac)))
                .collect();
            let (t_final, acc_final) = *acc_series
                .last()
                .context("progress series lost its arrival sample")?;
            println!(
                "  {label:7} {}: reaches {:.1}% at t={:.0}s",
                result.jobs[j].spec.name,
                acc_final * 100.0,
                t_final
            );
            jobs_json.push(serde_json::json!({
                "job": result.jobs[j].spec.name,
                "series": acc_series,
            }));
        }
        panels.insert(label.to_string(), serde_json::Value::Array(jobs_json));
    }
    // Final accuracies are identical under both schedulers (same curve,
    // full work) — the "accuracies preserved" claim of the figure.
    for curve in &curves {
        let last = *curve.last().context("stand-in produced an empty curve")?;
        assert_eq!(accuracy_at(curve, 1.0), last);
    }

    emit(
        "fig12_three_jobs",
        &serde_json::json!({
            "elastic": { "metrics": elastic.metrics, "timeline": elastic.timeline },
            "static": { "metrics": static_.metrics, "timeline": static_.timeline },
            "makespan_gain_pct": makespan_gain,
            "top_priority_jct_gain_pct": top_jct_gain,
            "accuracy_over_time": panels,
        }),
    )?;
    Ok(())
}
