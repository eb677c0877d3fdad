//! Ablation: riding out a capacity dip (a server leaves for maintenance
//! and later returns) with elastic virtual node resizing vs whole-job
//! eviction.
//!
//! This exercises the future-work direction the paper gestures at: because
//! resizes are semantics-preserving and cheap, an elastic job can shrink
//! through a capacity loss and grow back, while a rigid scheduler must
//! evict whole jobs and restart them later.

use vf_bench::report::{emit, improvement_pct, print_table, Context, Mode, Result};
use vf_sched::trace::poisson_trace;
use vf_sched::{run_trace, CapacityEvent, ElasticWfs, SimConfig, StaticPriority};

pub fn run(_: Mode) -> Result {
    println!("== ablation: capacity dip (16 → 8 → 16 GPUs) ==\n");
    let mk_config = |dip: bool| {
        let mut c = SimConfig::v100_cluster(16);
        if dip {
            c.capacity_events = vec![
                CapacityEvent {
                    at_s: 1800.0,
                    num_gpus: 8,
                },
                CapacityEvent {
                    at_s: 5400.0,
                    num_gpus: 16,
                },
            ];
        }
        c
    };
    let trace = poisson_trace(20, 12.0, 8, 17, &mk_config(false).link);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (label, dip) in [("steady 16 GPUs", false), ("dip to 8 GPUs", true)] {
        let elastic = run_trace(&trace, &mut ElasticWfs::new(), &mk_config(dip));
        let static_ = run_trace(&trace, &mut StaticPriority::new(), &mk_config(dip));
        let gain = improvement_pct(elastic.metrics.makespan_s, static_.metrics.makespan_s);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", elastic.metrics.makespan_s),
            format!("{:.0}", static_.metrics.makespan_s),
            format!("{gain:+.1}%"),
            format!("{:.0}", elastic.metrics.median_jct_s),
            format!("{:.0}", static_.metrics.median_jct_s),
        ]);
        out.push(serde_json::json!({
            "scenario": label,
            "elastic_makespan_s": elastic.metrics.makespan_s,
            "static_makespan_s": static_.metrics.makespan_s,
            "makespan_gain_pct": gain,
            "elastic_median_jct_s": elastic.metrics.median_jct_s,
            "static_median_jct_s": static_.metrics.median_jct_s,
        }));
    }
    print_table(
        &[
            "scenario",
            "elastic makespan",
            "static makespan",
            "gain",
            "elastic med JCT",
            "static med JCT",
        ],
        &rows,
    );
    let steady = out[0]["makespan_gain_pct"].as_f64().context("numeric")?;
    let dipped = out[1]["makespan_gain_pct"].as_f64().context("numeric")?;
    println!(
        "\nelasticity's edge grows under churn: {steady:+.1}% steady → {dipped:+.1}% with the dip"
    );
    assert!(
        dipped > steady,
        "the dip must widen the gap: steady {steady} vs dipped {dipped}"
    );
    emit("ablate_capacity_dip", &serde_json::json!({ "rows": out }))?;
    Ok(())
}
