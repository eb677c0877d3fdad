//! Ablation: asynchronous vs blocking worker bootstrap on resizes
//! (paper §5, following Or et al. 2020), plus a resize-penalty sweep.
//!
//! With async bootstrap, new devices warm up in the background and the
//! running group never stalls; a blocking join stalls every worker for the
//! full bootstrap. The second half sweeps the per-resize penalty in the
//! cluster simulator to show how cheap resizes must be for elasticity to
//! pay off — the reason checkpoint/restart-based elasticity (minutes per
//! resize) underdelivers.

use vf_bench::report::{emit, print_table, Context, Mode, Result};
use vf_comm::{BootstrapPolicy, ElasticGroup, WorkerId};
use vf_sched::trace::poisson_trace;
use vf_sched::{run_trace, ElasticWfs, SimConfig, StaticPriority};

pub fn run(_: Mode) -> Result {
    println!("== ablation: bootstrap policy and resize cost ==\n");

    // Part 1: group-level stall accounting over a burst of joins.
    const BOOTSTRAP_S: f64 = 30.0; // process start + graph build
    let mut rows = Vec::new();
    for policy in [BootstrapPolicy::Async, BootstrapPolicy::Blocking] {
        let mut group = ElasticGroup::new((0..4).map(WorkerId));
        let mut stall = 0.0;
        let mut now = 0.0;
        for burst in 0..4u32 {
            now += 100.0;
            for j in 0..2 {
                group.request_join(WorkerId(10 + burst * 2 + j), now, BOOTSTRAP_S);
            }
            stall += group.stall_time_s(policy, now);
            group.admit_ready(now + BOOTSTRAP_S);
        }
        rows.push(vec![
            format!("{policy:?}"),
            format!("{stall:.0}"),
            group.active().len().to_string(),
        ]);
    }
    print_table(&["policy", "whole-group stall (s)", "final workers"], &rows);
    println!("\nasync bootstrap keeps the group busy through every join ✓\n");

    // Part 2: elasticity gains vs the per-resize penalty.
    println!("elastic-WFS makespan gain vs static, by resize penalty:");
    let mut sweep = Vec::new();
    let mut table = Vec::new();
    for penalty_s in [0.0, 1.0, 10.0, 60.0, 300.0, 1800.0] {
        let mut config = SimConfig::v100_cluster(16);
        config.resize_penalty_s = penalty_s;
        let trace = poisson_trace(20, 12.0, 16, 17, &config.link);
        let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
        let static_ = run_trace(&trace, &mut StaticPriority::new(), &config);
        let gain = 100.0 * (static_.metrics.makespan_s - elastic.metrics.makespan_s)
            / static_.metrics.makespan_s;
        table.push(vec![format!("{penalty_s:.0}"), format!("{gain:+.1}%")]);
        sweep.push(serde_json::json!({
            "resize_penalty_s": penalty_s,
            "makespan_gain_pct": gain,
        }));
    }
    print_table(&["penalty (s)", "makespan gain"], &table);
    let cheap = sweep[0]["makespan_gain_pct"].as_f64().context("numeric")?;
    let expensive = sweep.last().context("non-empty")?["makespan_gain_pct"]
        .as_f64()
        .context("numeric")?;
    println!(
        "\ncheap resizes gain {cheap:.1}%; checkpoint-restart-class resizes (30 min) gain {expensive:.1}%"
    );
    assert!(cheap > expensive, "elasticity must depend on cheap resizes");
    emit(
        "ablate_bootstrap",
        &serde_json::json!({ "bootstrap": rows, "penalty_sweep": sweep }),
    )?;
    Ok(())
}
