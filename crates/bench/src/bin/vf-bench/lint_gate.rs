//! Lint gate: feed the semantic audit's headline numbers to the bench gate.
//!
//! Runs the full `vf-lint` audit (per-file rules plus the semantic passes
//! of DESIGN.md §16), appends a `lint_gate` record — error and
//! semantic-finding counts, per-site clippy waivers (DESIGN.md §11), files
//! scanned, the public-surface counts (`pub_items`, `uncalled_pub`), each
//! library crate's non-test line count (`lines/<crate>`), analysis wall
//! time — to `results/BENCH_history.jsonl`, and exits nonzero on any error. The
//! committed `results/BENCH_baseline.json` pins `lint_gate/errors` and
//! `lint_gate/semantic_findings` at zero with zero tolerance, so
//! `bench_gate` fails the build if a finding ever lands, and pins `waived`,
//! `pub_items` and `uncalled_pub` so they may only fall, while `wall_ms`
//! stays ungated (wall clock must never flake tier-1) but is recorded for
//! trend-watching as the analyzed workspace grows. The line counts are
//! recorded and never pinned: a line ratchet would make every feature
//! change loosen a gate.
//!
//! Usage: `vf-bench lint_gate` (workspace root discovered from the cwd).

use std::time::Instant;
use vf_bench::report::{append_history, Context, Mode, Result};
use vf_lint::semantic::SEMANTIC_RULE_IDS;
use vf_lint::workspace;
use vf_obs::HistoryRecord;

pub fn run(_: Mode) -> Result {
    println!("== lint gate ==");
    let root = std::env::current_dir()
        .and_then(|d| workspace::find_root(&d))
        .context("locating workspace root")?;
    let t0 = Instant::now();
    let outcome = workspace::audit(&root).context("audit")?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let errors = outcome.diagnostics.len();
    let semantic_findings = outcome
        .diagnostics
        .iter()
        .filter(|d| SEMANTIC_RULE_IDS.contains(&d.rule))
        .count();

    let mut rec = HistoryRecord::new("lint_gate");
    rec.set("errors", errors as f64);
    rec.set("semantic_findings", semantic_findings as f64);
    rec.set("waived", outcome.waived as f64);
    rec.set("files_scanned", outcome.files_scanned as f64);
    rec.set("pub_items", outcome.pub_items as f64);
    rec.set("uncalled_pub", outcome.uncalled_pub.len() as f64);
    for (krate, lines) in &outcome.lines {
        rec.set(&format!("lines/{krate}"), *lines as f64);
    }
    rec.set("wall_ms", wall_ms);
    append_history(&rec)?;

    println!(
        "{} file(s) analyzed in {wall_ms:.0} ms: {errors} error(s) \
         ({semantic_findings} semantic), {} waived; {} public item(s), {} uncalled",
        outcome.files_scanned,
        outcome.waived,
        outcome.pub_items,
        outcome.uncalled_pub.len()
    );
    if errors > 0 {
        for d in &outcome.diagnostics {
            eprintln!("{d}");
        }
        return Err(format!("{errors} lint error(s)").into());
    }
    Ok(())
}
