//! Lint gate: feed the semantic audit's headline numbers to the bench gate.
//!
//! Runs the full `vf-lint` audit (per-file rules plus the semantic passes
//! of DESIGN.md §16), appends a `lint_gate` record — error and
//! semantic-finding counts, waivers, files scanned, the public-surface
//! counts (`pub_items`, `uncalled_pub`), analysis wall time —
//! to `results/BENCH_history.jsonl`, and exits nonzero on any error. The
//! committed `results/BENCH_baseline.json` pins `lint_gate/errors` and
//! `lint_gate/semantic_findings` at zero with zero tolerance, so
//! `bench_gate` fails the build if a finding ever lands, and pins `waived`,
//! `pub_items` and `uncalled_pub` so they may only fall, while `wall_ms`
//! stays ungated (wall clock must never flake tier-1) but is recorded for
//! trend-watching as the analyzed workspace grows.
//!
//! Usage: `lint_gate` (workspace root discovered from the cwd).

use std::process::ExitCode;
use std::time::Instant;
use vf_bench::report::append_history;
use vf_lint::diag::Severity;
use vf_lint::semantic::SEMANTIC_RULE_IDS;
use vf_lint::workspace;
use vf_obs::HistoryRecord;

fn main() -> ExitCode {
    println!("== lint gate ==");
    let root = match std::env::current_dir().and_then(|d| workspace::find_root(&d)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: locating workspace root: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    let outcome = match workspace::audit(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("FAIL: audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let errors = outcome
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let semantic_findings = outcome
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error && SEMANTIC_RULE_IDS.contains(&d.rule))
        .count();

    let mut rec = HistoryRecord::new("lint_gate");
    rec.set("errors", errors as f64);
    rec.set("semantic_findings", semantic_findings as f64);
    rec.set("waived", outcome.waived as f64);
    rec.set("files_scanned", outcome.files_scanned as f64);
    rec.set("pub_items", outcome.pub_items as f64);
    rec.set("uncalled_pub", outcome.uncalled_pub.len() as f64);
    rec.set("wall_ms", wall_ms);
    append_history(&rec);

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
            if d.severity == Severity::Error {
                eprintln!("{d}");
            }
        }
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
