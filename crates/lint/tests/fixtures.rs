//! Fixture-driven conformance tests for the semantic passes and the
//! `metric-cardinality` rule.
//!
//! Every directory under `tests/fixtures/<rule>/<case>/` is a miniature
//! workspace (its own `[workspace]` manifest plus `crates/*/src/*.rs`)
//! and an `EXPECT` file listing, one per line, the `path:line` errors the
//! rule named by the parent directory must produce on it — an empty
//! `EXPECT` asserts the fixture is clean. The runner audits each fixture
//! with the full pipeline and compares the rule's error set exactly, so a
//! pass that goes quiet (false-negative regression) fails as loudly as
//! one that starts over-reporting.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use vf_lint::rules::RULE_IDS;
use vf_lint::semantic::SEMANTIC_RULE_IDS;
use vf_lint::workspace;

fn sorted_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

fn name_of(path: &Path) -> String {
    path.file_name().expect("dir name").to_string_lossy().into_owned()
}

#[test]
fn fixtures_match_expectations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut positives = 0usize;
    let mut negatives = 0usize;
    let mut rules_seen: BTreeSet<String> = BTreeSet::new();

    for rule_dir in sorted_dirs(&root) {
        let rule = name_of(&rule_dir);
        assert!(
            RULE_IDS.contains(&rule.as_str()),
            "fixture directory {rule} does not name a known rule"
        );
        rules_seen.insert(rule.clone());
        let (mut pos, mut neg) = (0usize, 0usize);

        for case in sorted_dirs(&rule_dir) {
            let label = format!("{rule}/{}", name_of(&case));
            let expect = case.join("EXPECT");
            let expected: BTreeSet<String> = fs::read_to_string(&expect)
                .unwrap_or_else(|e| panic!("{label}: reading EXPECT: {e}"))
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(String::from)
                .collect();

            let outcome = workspace::audit(&case)
                .unwrap_or_else(|e| panic!("{label}: audit failed: {e}"));
            let actual: BTreeSet<String> = outcome
                .diagnostics
                .iter()
                .filter(|d| d.rule == rule)
                .map(|d| format!("{}:{}", d.path, d.line))
                .collect();

            assert_eq!(
                actual, expected,
                "{label}: `{rule}` errors diverge from EXPECT"
            );
            if expected.is_empty() {
                neg += 1;
            } else {
                pos += 1;
            }
        }

        assert!(
            pos >= 2 && neg >= 2,
            "rule {rule} needs at least 2 positive and 2 negative fixtures \
             (found {pos} positive, {neg} negative)"
        );
        positives += pos;
        negatives += neg;
    }

    for rule in SEMANTIC_RULE_IDS {
        assert!(rules_seen.contains(*rule), "no fixtures for rule {rule}");
    }
    assert!(positives + negatives >= 12, "fixture suite shrank");
}

#[test]
fn fixture_reports_are_byte_stable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let case = root.join("lock-order/cycle_two_orders");
    let a = vf_lint::report::render(&workspace::audit(&case).expect("audit"));
    let b = vf_lint::report::render(&workspace::audit(&case).expect("audit"));
    assert_eq!(a, b, "two audits of the same tree must render identical bytes");
    assert!(a.contains("\"lint/rule/lock-order\":{\"type\":\"counter\",\"value\":1}"));
}
