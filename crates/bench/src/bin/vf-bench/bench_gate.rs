//! Bench gate: fail the build when performance regresses.
//!
//! Reads the append-only `results/BENCH_history.jsonl` (each bench
//! harness appends one schema-versioned headline record per full run)
//! and the committed `results/BENCH_baseline.json` (blessed value,
//! direction, and tolerance per gated metric), diffs the **latest**
//! record of each bench against the baseline, and exits nonzero on any
//! regression beyond tolerance — or on a baselined metric that has
//! vanished from history.
//!
//! Only deterministic simulated-time metrics are baselined (goodput,
//! span/event counts, critical-path totals); wall-clock numbers stay in
//! the history file for trend-watching but are never gated, so tier-1
//! cannot flake on a loaded machine.
//!
//! Usage: `vf-bench bench_gate`. After an intentional perf change,
//! re-bless by updating `results/BENCH_baseline.json` to the new
//! values in the same commit that explains them.

use vf_bench::report::{history_path, results_dir, Context, Mode, Result};
use vf_obs::history::{gate, parse_history, Baseline};

pub fn run(_: Mode) -> Result {
    let history = history_path();
    let baseline_path = results_dir().join("BENCH_baseline.json");
    println!("== bench gate ==");
    println!("history:  {}", history.display());
    println!("baseline: {}", baseline_path.display());

    let history_text = std::fs::read_to_string(&history).context("cannot read history")?;
    let baseline_text = std::fs::read_to_string(&baseline_path).context("cannot read baseline")?;
    let records = parse_history(&history_text).context("malformed history")?;
    let baseline = Baseline::parse(&baseline_text).context("malformed baseline")?;
    println!("records:  {}\n", records.len());

    let outcome = gate(&records, &baseline);
    print!("{}", outcome.render());
    if !outcome.pass() {
        return Err("regression beyond tolerance — if intentional, re-bless \
                    results/BENCH_baseline.json in this change"
            .into());
    }
    Ok(())
}
