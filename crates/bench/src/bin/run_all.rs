//! Runs every table/figure harness and ablation in sequence, summarizing
//! pass/fail — the one-command reproduction entry point.
//!
//! ```sh
//! cargo run --release -p vf-bench --bin run_all
//! ```
//!
//! Each harness binary asserts its own qualitative claims; this driver
//! invokes the already-built binaries and reports which held.

use std::process::Command;
use std::time::Instant;
use vf_bench::report::{Context, Result};

/// Every experiment binary, in paper order.
const EXPERIMENTS: &[&str] = &[
    "fig02_rte_finetune",
    "fig04_design_space",
    "fig06_memory_timeline",
    "tab01_resnet_repro",
    "tab02_bert_repro",
    "fig07_bert_curves",
    "fig08_resnet_curves",
    "fig09_update_throughput",
    "fig10_bs_exploration",
    "fig11_bs_throughput",
    "fig12_three_jobs",
    "fig13_twenty_jobs",
    "fig14_jct_cdf",
    "fig15_memory_overhead",
    "fig16_throughput_vn",
    "ablate_bootstrap",
    "ablate_hierarchical",
    "ablate_capacity_dip",
    "ablate_noise_scale",
    "ablate_schedulers",
    "ablate_conv_repro",
    "kernel_bench",
    "chaos_bench",
    "overlap_bench",
    "trace_report",
    "trace_profile",
    "store_bench",
    "recovery_drill",
    "monitor_bench",
    "obs_scale_bench",
    // Last: audit the tree just run, then diff the fresh history records
    // (the audit's among them) against the committed baseline.
    "lint_gate",
    "bench_gate",
];

fn main() -> Result {
    let mut bin_dir = std::env::current_exe().context("current exe path")?;
    bin_dir.pop();
    println!("== VirtualFlow reproduction: running all {} experiments ==\n", EXPERIMENTS.len());
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        let start = Instant::now();
        let status = Command::new(bin_dir.join(name))
            .stdout(std::process::Stdio::null())
            .status();
        let elapsed = start.elapsed().as_secs_f64();
        match status {
            Ok(s) if s.success() => {
                println!("  ok   {name:<28} ({elapsed:.1}s)");
            }
            Ok(s) => {
                println!("  FAIL {name:<28} (exit {s})");
                failures.push(*name);
            }
            Err(e) => {
                println!("  FAIL {name:<28} (could not run: {e}; build with `cargo build --release -p vf-bench` first)");
                failures.push(*name);
            }
        }
    }
    println!();
    if failures.is_empty() {
        println!(
            "all {} experiments reproduced their claims; outputs in results/",
            EXPERIMENTS.len()
        );
        Ok(())
    } else {
        Err(format!("{} experiment(s) failed: {failures:?}", failures.len()).into())
    }
}
