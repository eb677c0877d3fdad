//! The machine-readable audit report (`results/LINT_report.json`).
//!
//! Rule-hit counts are routed through a [`vf_obs::Metrics`] registry —
//! the same canonical-JSON renderer every bench artifact uses — so the
//! report is byte-stable across runs and `bench_gate` can pin
//! `lint_gate/semantic_findings` at zero. The full diagnostic list rides
//! along for human consumption; every series and every list is sorted,
//! so two audits of the same tree render identical bytes.

use vf_obs::json::escape_into;
use vf_obs::Metrics;

use crate::rules;
use crate::semantic::SEMANTIC_RULE_IDS;
use crate::workspace::Outcome;

/// Builds the metrics registry summarizing an audit outcome: scan
/// counters, the error total, the clippy-waiver count, the
/// semantic-findings headline, the public-surface counts
/// (`lint/pub_items`, `lint/uncalled_pub`), the non-test line count of
/// each library crate (`lint/lines/<crate>`), and one `lint/rule/<id>`
/// counter per catalog rule (declared at zero so the schema is identical
/// on clean and dirty trees).
pub fn metrics(outcome: &Outcome) -> Metrics {
    let m = Metrics::new();
    m.inc("lint/files_scanned", outcome.files_scanned as u64);
    m.inc("lint/manifests_scanned", outcome.manifests_scanned as u64);
    m.inc("lint/waived", outcome.waived as u64);
    m.inc("lint/pub_items", outcome.pub_items as u64);
    m.inc("lint/uncalled_pub", outcome.uncalled_pub.len() as u64);
    for (krate, lines) in &outcome.lines {
        m.inc(&format!("lint/lines/{krate}"), *lines as u64);
    }
    m.inc("lint/errors", outcome.diagnostics.len() as u64);
    m.inc("lint/semantic_findings", 0);
    for rule in rules::RULE_IDS {
        m.inc(&format!("lint/rule/{rule}"), 0);
    }
    for d in &outcome.diagnostics {
        m.inc(&format!("lint/rule/{}", d.rule), 1);
        if SEMANTIC_RULE_IDS.contains(&d.rule) {
            m.inc("lint/semantic_findings", 1);
        }
    }
    m
}

/// Renders the full report as canonical JSON (no trailing newline).
pub fn render(outcome: &Outcome) -> String {
    let mut out = String::from("{\"schema\":1,\"metrics\":");
    out.push_str(&metrics(outcome).to_json());
    out.push_str(",\"diagnostics\":[");
    for (i, d) in outcome.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":\"");
        escape_into(d.rule, &mut out);
        out.push_str("\",\"path\":\"");
        escape_into(&d.path, &mut out);
        out.push_str("\",\"line\":");
        out.push_str(&d.line.to_string());
        out.push_str(",\"message\":\"");
        escape_into(&d.message, &mut out);
        out.push_str("\"}");
    }
    out.push_str("],\"uncalled_pub\":[");
    for (i, name) in outcome.uncalled_pub.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(name, &mut out);
        out.push('"');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    fn outcome_with(diags: Vec<Diagnostic>) -> Outcome {
        Outcome {
            diagnostics: diags,
            files_scanned: 2,
            manifests_scanned: 1,
            ..Outcome::default()
        }
    }

    #[test]
    fn report_counts_semantic_findings_and_rule_hits() {
        let o = outcome_with(vec![
            Diagnostic::error("lock-order", "a.rs", 1, "cycle"),
            Diagnostic::error("registry-dep", "b/Cargo.toml", 2, "serde"),
        ]);
        let json = render(&o);
        assert!(json.contains("\"lint/semantic_findings\":{\"type\":\"counter\",\"value\":1}"));
        assert!(json.contains("\"lint/errors\":{\"type\":\"counter\",\"value\":2}"));
        assert!(json.contains("\"lint/rule/lock-order\":{\"type\":\"counter\",\"value\":1}"));
        assert!(json.contains("\"lint/rule/claim-coverage\":{\"type\":\"counter\",\"value\":0}"));
    }

    #[test]
    fn rendering_is_byte_stable() {
        let o = outcome_with(vec![Diagnostic::error("metric-cardinality", "a \"quoted\".rs", 3, "msg")]);
        assert_eq!(render(&o), render(&o));
        assert!(render(&o).contains("a \\\"quoted\\\".rs"));
    }

    #[test]
    fn every_catalog_rule_appears_even_on_a_clean_tree() {
        let json = render(&outcome_with(Vec::new()));
        for rule in crate::rules::RULE_IDS {
            assert!(json.contains(&format!("\"lint/rule/{rule}\"")), "{rule}");
        }
        assert!(json.ends_with("\"diagnostics\":[],\"uncalled_pub\":[]}"));
    }
}
