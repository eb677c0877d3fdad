//! The per-file rules, and the count of clippy waivers.
//!
//! vf-lint keeps the rules that clippy cannot check with types:
//! `metric-cardinality` and `registry-dep` here, `lock-order` and
//! `claim-coverage` in [`crate::semantic`]. The determinism rules (no
//! hash-ordered collections, wall-clock reads, threads outside the pool
//! or raw filesystem I/O), the panic rule, the print rule, the `SAFETY`
//! comment rule and the discarded-`Result` rule are clippy lints,
//! configured in the root `Cargo.toml` and `clippy.toml` (DESIGN.md §11).
//! A deliberate exception to one of them is an
//! `#[expect(clippy::…, reason = "…")]` at the site, which fails the build
//! once it no longer fires; [`waivers`] counts those attributes.

use crate::diag::Diagnostic;
use crate::lexer::LexedFile;

/// Every rule id the auditor reports.
pub const RULE_IDS: &[&str] = &[
    "registry-dep",
    "metric-cardinality",
    // Semantic passes (workspace-wide; see crate::semantic).
    "lock-order",
    "claim-coverage",
];

/// The clippy lints that hold the rules vf-lint once checked from tokens:
/// the `[workspace.lints.clippy]` table of the root `Cargo.toml`. An
/// `expect` or `allow` of one of them in library code is a waiver.
pub const MOVED_LINTS: &[&str] = &[
    "disallowed_types",
    "disallowed_methods",
    "print_stdout",
    "print_stderr",
    "dbg_macro",
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "undocumented_unsafe_blocks",
    "missing_safety_doc",
    "let_underscore_must_use",
    "allow_attributes_without_reason",
];

/// Paths where dynamically built metric names are tolerated: the bench
/// binaries label ad-hoc experiment outputs, and the lint crate's own
/// fixtures exercise the pattern. Library code must register metrics under
/// static names and express per-entity dimensions through the labeled API
/// (`counter_with` and friends), whose cardinality budget accounts for
/// every series; a `format!`-built name is an unbounded registry leak.
const METRIC_CARDINALITY_ALLOWED: &[&str] = &["crates/bench/", "crates/lint/"];

/// Metric-registering methods whose first argument is a metric name. A
/// `format!(...)` in that position defeats the cardinality budget, so the
/// `metric-cardinality` rule bans it in library code. Bare `set` is
/// deliberately absent: `HistoryRecord::set` and `SeriesStore::push`
/// legitimately take derived series names.
const METRIC_NAME_METHODS: &[&str] = &[
    "inc",
    "set_gauge",
    "set_counter",
    "observe",
    "observe_sketch",
    "counter_with",
    "set_counter_with",
    "set_gauge_with",
    "observe_with",
    "observe_sketch_with",
];

/// Runs the `metric-cardinality` rule over one lexed file. `path` must be
/// workspace-relative with forward slashes (it drives the allowlist).
///
/// The rule flags `.observe(format!(…))`-style calls: a metric-registering
/// method whose name argument is built with `format!` creates one registry
/// series per distinct interpolation, which no cardinality budget can see.
/// The check matches `.<method>(` followed by an optional `&` and then
/// `format !` — the name position only, so `format!` in later arguments
/// (e.g. a label value) stays legal.
pub fn check_source(path: &str, lexed: &LexedFile) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    if METRIC_CARDINALITY_ALLOWED.iter().any(|p| path.starts_with(p)) {
        return diagnostics;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if !METRIC_NAME_METHODS.contains(&toks[i].text.as_str())
            || i == 0
            || toks[i - 1].text != "."
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
            || lexed.is_test_line(toks[i].line)
        {
            continue;
        }
        let mut j = i + 2;
        if toks.get(j).map(|t| t.text.as_str()) == Some("&") {
            j += 1;
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("format")
            || toks.get(j + 1).map(|t| t.text.as_str()) != Some("!")
        {
            continue;
        }
        diagnostics.push(Diagnostic::error(
            "metric-cardinality",
            path,
            toks[i].line,
            format!(
                "`{}` called with a `format!`-built metric name; register a \
                 static name and move the dynamic part into a label via the \
                 labeled API so the cardinality budget accounts for it",
                toks[i].text
            ),
        ));
    }
    diagnostics
}

/// Audits one `Cargo.toml` for the `registry-dep` rule: every dependency in
/// this offline workspace must resolve by `path` (directly or via
/// `workspace = true` inheritance into the path-only root table). A bare
/// version requirement means a registry fetch, which the build environment
/// cannot perform and which would smuggle unaudited code past the lints.
pub fn check_manifest(path: &str, toml: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut in_dep_section = false;
    // Header-form dependency tables (`[dependencies.foo]`) accumulate keys
    // until the next header; flushed on section change and at EOF.
    let mut pending: Option<(String, u32, bool)> = None;

    let flush = |pending: &mut Option<(String, u32, bool)>, diags: &mut Vec<Diagnostic>| {
        if let Some((name, line, ok)) = pending.take() {
            if !ok {
                diags.push(registry_dep_error(path, line, &name));
            }
        }
    };

    for (idx, raw) in toml.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut pending, &mut diags);
            let section = line.trim_matches(['[', ']']).trim();
            let is_dep = section.ends_with("dependencies") || section.contains("dependencies.");
            in_dep_section = is_dep;
            if let Some((_, name)) = section.split_once("dependencies.") {
                pending = Some((name.to_string(), line_no, false));
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        if let Some(p) = pending.as_mut() {
            if key == "path" || (key == "workspace" && value == "true") {
                p.2 = true;
            }
            continue;
        }
        let name = key.split('.').next().unwrap_or(key).trim();
        let ok = value.contains("path") && value.contains('=')
            || key.ends_with(".workspace") && value == "true"
            || value.contains("workspace = true")
            || value.contains("workspace=true");
        if !ok {
            diags.push(registry_dep_error(path, line_no, name));
        }
    }
    flush(&mut pending, &mut diags);
    diags
}

fn registry_dep_error(path: &str, line: u32, name: &str) -> Diagnostic {
    Diagnostic::error(
        "registry-dep",
        path,
        line,
        format!(
            "dependency `{name}` does not resolve by path; registry crates \
             are vendored as std-only shims under shims/ (see DESIGN.md §11)"
        ),
    )
}

/// Counts the waiver attributes of one lexed file outside test code:
/// each `#[expect(…)]`, `#[allow(…)]` or inner `#![…]` form that names
/// `clippy::<lint>` for a lint in [`MOVED_LINTS`] counts once.
pub fn waivers(lexed: &LexedFile) -> usize {
    let toks = &lexed.tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut count = 0;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "#" || lexed.is_test_line(t.line) {
            continue;
        }
        let open = if text(i + 1) == "!" { i + 2 } else { i + 1 };
        if text(open) != "[" || !matches!(text(open + 1), "expect" | "allow") {
            continue;
        }
        let mut j = open + 2;
        while j < toks.len() && text(j) != "]" {
            if text(j) == "clippy" && text(j + 1) == "::" && MOVED_LINTS.contains(&text(j + 2)) {
                count += 1;
                break;
            }
            j += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        check_source(path, &lex(src))
    }

    #[test]
    fn format_metric_name_is_flagged_in_library_code() {
        let r = check(
            "crates/core/src/engine.rs",
            "fn f(m: &M, j: u32) { m.inc(format!(\"job{j}/steps\"), 1); }\n",
        );
        assert_eq!(r.len(), 1, "{:?}", r);
        assert_eq!(r[0].rule, "metric-cardinality");
        // `&format!` through the labeled API is the same leak.
        let r = check(
            "crates/sched/src/sim.rs",
            "fn f(m: &M, t: &str) { m.counter_with(&format!(\"t/{t}\"), &[], 1); }\n",
        );
        assert_eq!(r.len(), 1, "{:?}", r);
        assert_eq!(r[0].rule, "metric-cardinality");
    }

    #[test]
    fn format_outside_the_name_position_is_fine() {
        // Static name, format! in a label value: legal.
        let r = check(
            "crates/core/src/engine.rs",
            "fn f(m: &M, j: u32) { m.counter_with(\"s/done\", &[(\"job\", &format!(\"j{j}\"))], 1); }\n",
        );
        assert!(r.is_empty(), "{:?}", r);
        // Non-metric methods may take derived series keys.
        let r = check(
            "crates/obs/src/history.rs",
            "fn f(r: &mut R, j: u32) { r.set(format!(\"job{j}/loss\"), 1.0); }\n",
        );
        assert!(r.is_empty(), "{:?}", r);
        // Bench code labels ad-hoc experiment outputs; tests probe freely.
        let src = "fn f(m: &M, j: u32) { m.observe(format!(\"j{j}\"), 1.0); }\n";
        assert!(check("crates/bench/src/bin/b.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(m: &M) { m.observe(format!(\"p{}\", 1), 1.0); }\n}\n";
        assert!(check("crates/core/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn waivers_count_attributes_naming_a_moved_lint_outside_tests() {
        let src = "#[expect(clippy::expect_used, reason = \"checked above\")]\n\
                   fn a() {}\n\
                   #[allow(clippy::too_many_arguments, reason = \"ABI\")]\n\
                   fn b() {}\n\
                   #![allow(clippy::unwrap_used, clippy::panic, reason = \"one attribute\")]\n\
                   fn c() { #[expect(clippy::disallowed_methods, reason = \"pool\")] let t = 1; }\n\
                   #[cfg(test)]\nmod tests {\n    #[expect(clippy::panic, reason = \"test\")]\n    fn t() {}\n}\n";
        assert_eq!(waivers(&lex(src)), 3);
    }

    #[test]
    fn manifest_with_version_dep_is_flagged() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\nserde = \"1.0\"\n";
        let d = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "registry-dep");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn manifest_with_path_and_workspace_deps_is_clean() {
        let toml = "[dependencies]\nvf-tensor.workspace = true\n\
                    rand = { path = \"../../shims/rand\" }\n\
                    [dev-dependencies]\nproptest = { workspace = true }\n";
        let d = check_manifest("crates/x/Cargo.toml", toml);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn header_form_dep_table_requires_path() {
        let toml = "[dependencies.serde]\nversion = \"1\"\nfeatures = [\"derive\"]\n";
        let d = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(d.len(), 1);
        let toml_ok = "[dependencies.serde]\npath = \"../../shims/serde\"\n";
        assert!(check_manifest("crates/x/Cargo.toml", toml_ok).is_empty());
    }
}
