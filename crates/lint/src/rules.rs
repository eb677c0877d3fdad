//! The rule catalog.
//!
//! Two families of rules keep the workspace honest about its headline
//! invariant — bit-exact execution regardless of physical parallelism:
//!
//! * **Determinism rules** ban constructs whose observable behavior depends
//!   on ambient state: hash-ordered collections, wall-clock reads outside
//!   the bench crate, and threads spawned outside the audited worker pool.
//! * The **panic ratchet** counts `unwrap()`/`expect()`/`panic!`-family
//!   macros in non-test library code against a checked-in per-file baseline
//!   that may only shrink (see [`crate::baseline`]).
//!
//! Every rule honors inline suppressions (see [`crate::suppress`]); the
//! allowlists below encode the few places a construct is *supposed* to
//! live, so moving such code elsewhere fails the audit instead of silently
//! expanding the trusted surface.

use crate::diag::Diagnostic;
use crate::lexer::{self, LexedFile};
use crate::suppress::{self, Suppression};

/// Every rule id the auditor knows, including the meta rule for malformed
/// suppressions. Unknown ids in `allow(…)` directives are rejected.
pub const RULE_IDS: &[&str] = &[
    "hash-iteration",
    "ambient-time",
    "ad-hoc-thread",
    "stray-print",
    "registry-dep",
    "panic-ratchet",
    "raw-fs",
    "metric-cardinality",
    "bad-suppression",
    // Semantic passes (workspace-wide; see crate::semantic).
    "lock-order",
    "claim-coverage",
    "safety-comment",
    "discarded-result",
];

/// True when `rule` names a rule in the catalog.
pub fn is_known_rule(rule: &str) -> bool {
    RULE_IDS.contains(&rule)
}

/// Paths (workspace-relative prefixes) where wall-clock reads are expected:
/// benchmarks measure real elapsed time by definition. Everything else must
/// go through `vf_device::SimClock` so simulated runs are replayable.
const AMBIENT_TIME_ALLOWED: &[&str] = &["crates/bench/"];

/// The one module allowed to create threads: the deterministic worker pool.
/// All other parallelism must be expressed as pool jobs, which the
/// pool-race sanitizer can audit for overlapping output regions.
const AD_HOC_THREAD_ALLOWED: &[&str] = &["crates/tensor/src/pool.rs"];

/// Paths where direct stdout/stderr output is the job: the bench binaries
/// print their reports, and the lint binary prints its findings. Library
/// crates must route observable output through `vf_obs` sinks instead, so
/// runs stay quiet by default and traces stay deterministic.
const STRAY_PRINT_ALLOWED: &[&str] = &["crates/bench/", "crates/lint/"];

/// Macros the `stray-print` rule forbids in library code.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// Paths allowed to touch the real filesystem: the bench binaries write
/// reports, and the lint binary reads the sources it audits. No library
/// crate does — durable state flows through `vf_store`, whose medium is
/// simulated so fault injection stays deterministic, and a bare `std::fs`
/// call anywhere else is un-simulated I/O that dodges the storage fault
/// plan and the integrity checks.
const RAW_FS_ALLOWED: &[&str] = &["crates/bench/", "crates/lint/"];

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

/// Identifiers whose presence in non-test library code violates
/// `hash-iteration`: these collections iterate in hash order, which is
/// nondeterministic across processes unless every key's hash is pinned.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Identifiers whose presence violates `ambient-time` outside the
/// allowlist. `Instant`/`SystemTime` reads make simulated trajectories
/// unreproducible; simulations advance `vf_device::SimClock` instead.
const AMBIENT_TIME_TYPES: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];

/// The audit result for one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations and notes found in the file.
    pub diagnostics: Vec<Diagnostic>,
    /// Panic-family call sites in non-test, non-suppressed code, with their
    /// lines — the input to the baseline ratchet.
    pub panic_sites: Vec<(u32, String)>,
    /// How many findings were waived by inline suppressions.
    pub waived: usize,
}

/// Runs every code rule over one source file. `path` must be
/// workspace-relative with forward slashes (it drives the allowlists).
pub fn check_source(path: &str, src: &str) -> FileReport {
    check_source_lexed(path, &lexer::lex(src))
}

/// [`check_source`] over an already-lexed file, so the audit can share
/// one lex between the per-file rules and the semantic parser.
pub fn check_source_lexed(path: &str, lexed: &LexedFile) -> FileReport {
    let (sups, mut diagnostics) = suppress::collect(path, &lexed.comments);
    let mut report = FileReport::default();

    check_identifier_rule(
        path,
        lexed,
        &sups,
        &mut report,
        "hash-iteration",
        HASH_TYPES,
        &[],
        "has nondeterministic iteration order; use BTreeMap/BTreeSet or a Vec, \
         or suppress with a reason if no iteration can reach observable state",
    );
    check_identifier_rule(
        path,
        lexed,
        &sups,
        &mut report,
        "ambient-time",
        AMBIENT_TIME_TYPES,
        AMBIENT_TIME_ALLOWED,
        "reads ambient wall-clock time; simulations must advance \
         vf_device::SimClock (only crates/bench may measure real time)",
    );
    check_identifier_rule(
        path,
        lexed,
        &sups,
        &mut report,
        "raw-fs",
        &["fs"],
        RAW_FS_ALLOWED,
        "touches the real filesystem; no library crate does — durable I/O goes \
         through vf-store's simulated medium (only crates/bench and the lint \
         binary may use std::fs)",
    );
    check_thread_spawn(path, lexed, &sups, &mut report);
    check_stray_print(path, lexed, &sups, &mut report);
    check_metric_cardinality(path, lexed, &sups, &mut report);
    count_panic_sites(lexed, &sups, &mut report);

    report.diagnostics.append(&mut diagnostics);
    report
        .diagnostics
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report
}

fn allowed(path: &str, allowlist: &[&str]) -> bool {
    allowlist.iter().any(|p| path.starts_with(p))
}

/// Flags any occurrence of `idents` outside test code, the allowlist, and
/// suppressions. At most one diagnostic per (line, identifier).
#[allow(clippy::too_many_arguments)]
fn check_identifier_rule(
    path: &str,
    lexed: &LexedFile,
    sups: &[Suppression],
    report: &mut FileReport,
    rule: &'static str,
    idents: &[&str],
    allowlist: &[&str],
    message: &str,
) {
    if allowed(path, allowlist) {
        return;
    }
    let mut last: Option<(u32, String)> = None;
    for t in &lexed.tokens {
        if !idents.contains(&t.text.as_str()) || lexed.is_test_line(t.line) {
            continue;
        }
        if last.as_ref() == Some(&(t.line, t.text.clone())) {
            continue;
        }
        last = Some((t.line, t.text.clone()));
        if suppress::is_suppressed(sups, rule, t.line) {
            report.waived += 1;
            continue;
        }
        report.diagnostics.push(Diagnostic::error(
            rule,
            path,
            t.line,
            format!("`{}` {message}", t.text),
        ));
    }
}

/// Flags `spawn(` calls outside the worker pool: a thread the pool does not
/// own can write overlapping output regions with no sanitizer watching.
fn check_thread_spawn(
    path: &str,
    lexed: &LexedFile,
    sups: &[Suppression],
    report: &mut FileReport,
) {
    if allowed(path, AD_HOC_THREAD_ALLOWED) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].text != "spawn"
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
            || lexed.is_test_line(toks[i].line)
        {
            continue;
        }
        if suppress::is_suppressed(sups, "ad-hoc-thread", toks[i].line) {
            report.waived += 1;
            continue;
        }
        report.diagnostics.push(Diagnostic::error(
            "ad-hoc-thread",
            path,
            toks[i].line,
            "thread spawned outside vf_tensor::pool; route parallel work \
             through the pool so the race sanitizer can audit it",
        ));
    }
}

/// Flags `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in non-test
/// library code: ad-hoc prints bypass the `vf_obs` sinks (losing the
/// events from exported traces) and leave debug noise in callers' stdout.
fn check_stray_print(
    path: &str,
    lexed: &LexedFile,
    sups: &[Suppression],
    report: &mut FileReport,
) {
    if allowed(path, STRAY_PRINT_ALLOWED) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if !PRINT_MACROS.contains(&toks[i].text.as_str())
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("!")
            || lexed.is_test_line(toks[i].line)
        {
            continue;
        }
        if suppress::is_suppressed(sups, "stray-print", toks[i].line) {
            report.waived += 1;
            continue;
        }
        report.diagnostics.push(Diagnostic::error(
            "stray-print",
            path,
            toks[i].line,
            format!(
                "`{}!` in library code; route output through vf_obs sinks \
                 (prints belong only in crates/bench and crates/lint binaries)",
                toks[i].text
            ),
        ));
    }
}

/// Flags `.observe(format!(…))`-style calls: a metric-registering method
/// whose name argument is built with `format!` creates one registry series
/// per distinct interpolation, which no cardinality budget can see. The
/// check matches `.<method>(` followed by an optional `&` and then
/// `format !` — the name position only, so `format!` in later arguments
/// (e.g. a label value) stays legal.
fn check_metric_cardinality(
    path: &str,
    lexed: &LexedFile,
    sups: &[Suppression],
    report: &mut FileReport,
) {
    if allowed(path, METRIC_CARDINALITY_ALLOWED) {
        return;
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
        if suppress::is_suppressed(sups, "metric-cardinality", toks[i].line) {
            report.waived += 1;
            continue;
        }
        report.diagnostics.push(Diagnostic::error(
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
}

/// Macros counted by the panic ratchet alongside `.unwrap()`/`.expect()`.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Records every panic-family call site in non-test, non-suppressed code.
fn count_panic_sites(lexed: &LexedFile, sups: &[Suppression], report: &mut FileReport) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.is_test_line(toks[i].line) {
            continue;
        }
        let what = &toks[i].text;
        let site = if (what == "unwrap" || what == "expect")
            && i > 0
            && matches!(toks[i - 1].text.as_str(), "." | "::")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        {
            Some(format!("{what}()"))
        } else if PANIC_MACROS.contains(&what.as_str())
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!")
        {
            Some(format!("{what}!"))
        } else {
            None
        };
        let Some(site) = site else { continue };
        if suppress::is_suppressed(sups, "panic-ratchet", toks[i].line) {
            report.waived += 1;
            continue;
        }
        report.panic_sites.push((toks[i].line, site));
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_map_in_library_code_is_flagged() {
        let r = check_source("crates/x/src/lib.rs", "use std::collections::HashMap;\n");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "hash-iteration");
    }

    #[test]
    fn hash_map_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let r = check_source("crates/x/src/lib.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn instant_is_flagged_outside_bench() {
        let r = check_source("crates/core/src/engine.rs", "let t = Instant::now();\n");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "ambient-time");
    }

    #[test]
    fn instant_is_allowed_in_bench() {
        let r = check_source("crates/bench/src/bin/b.rs", "let t = Instant::now();\n");
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn spawn_is_flagged_outside_pool() {
        let r = check_source("crates/comm/src/lib.rs", "std::thread::spawn(|| {});\n");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "ad-hoc-thread");
    }

    #[test]
    fn spawn_is_allowed_in_pool() {
        let r = check_source("crates/tensor/src/pool.rs", "builder.spawn(f);\n");
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn println_in_library_code_is_flagged() {
        let r = check_source("crates/core/src/engine.rs", "println!(\"step {s}\");\n");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "stray-print");
        let r = check_source("crates/comm/src/lib.rs", "let x = dbg!(compute());\n");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "stray-print");
    }

    #[test]
    fn println_is_allowed_in_bench_lint_and_tests() {
        let src = "println!(\"report\");\n";
        assert!(check_source("crates/bench/src/bin/b.rs", src).diagnostics.is_empty());
        assert!(check_source("crates/lint/src/main.rs", src).diagnostics.is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { println!(\"dbg\"); }\n}\n";
        assert!(check_source("crates/core/src/x.rs", test_src).diagnostics.is_empty());
    }

    #[test]
    fn suppressed_print_is_waived_and_idents_without_bang_are_fine() {
        let src = "// vf-lint: allow(stray-print) — CLI surface documented in DESIGN.md\n\
                   fn f() { println!(\"allowed\"); }\n";
        let r = check_source("crates/core/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.waived, 1);
        // A function *named* println (no `!`) is not the macro.
        let r = check_source("crates/core/src/x.rs", "fn println_like() { println_like_call(); }\n");
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn format_metric_name_is_flagged_in_library_code() {
        let r = check_source(
            "crates/core/src/engine.rs",
            "fn f(m: &M, j: u32) { m.inc(format!(\"job{j}/steps\"), 1); }\n",
        );
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "metric-cardinality");
        // `&format!` through the labeled API is the same leak.
        let r = check_source(
            "crates/sched/src/sim.rs",
            "fn f(m: &M, t: &str) { m.counter_with(&format!(\"t/{t}\"), &[], 1); }\n",
        );
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "metric-cardinality");
    }

    #[test]
    fn format_outside_the_name_position_is_fine() {
        // Static name, format! in a label value: legal.
        let r = check_source(
            "crates/core/src/engine.rs",
            "fn f(m: &M, j: u32) { m.counter_with(\"s/done\", &[(\"job\", &format!(\"j{j}\"))], 1); }\n",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        // Non-metric methods may take derived series keys.
        let r = check_source(
            "crates/obs/src/history.rs",
            "fn f(r: &mut R, j: u32) { r.set(format!(\"job{j}/loss\"), 1.0); }\n",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        // Bench code labels ad-hoc experiment outputs; tests probe freely.
        let src = "fn f(m: &M, j: u32) { m.observe(format!(\"j{j}\"), 1.0); }\n";
        assert!(check_source("crates/bench/src/bin/b.rs", src).diagnostics.is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(m: &M) { m.observe(format!(\"p{}\", 1), 1.0); }\n}\n";
        assert!(check_source("crates/core/src/x.rs", test_src).diagnostics.is_empty());
    }

    #[test]
    fn suppressed_metric_name_is_waived() {
        let src = "// vf-lint: allow(metric-cardinality) — bounded by construction\n\
                   fn f(m: &M) { m.observe(format!(\"p{}\", 1), 1.0); }\n";
        let r = check_source("crates/core/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn raw_fs_is_flagged_outside_the_storage_layer() {
        let r = check_source("crates/core/src/engine.rs", "use std::fs;\nfn f() { fs::write(\"x\", b\"y\").unwrap(); }\n");
        assert!(r.diagnostics.iter().any(|d| d.rule == "raw-fs"), "{:?}", r.diagnostics);
        // One diagnostic per line, not per token.
        assert_eq!(r.diagnostics.iter().filter(|d| d.rule == "raw-fs").count(), 2);
    }

    #[test]
    fn raw_fs_is_allowed_in_bench_and_lint_only() {
        let src = "use std::fs;\n";
        let store = check_source("crates/store/src/sim.rs", src);
        assert_eq!(store.diagnostics.len(), 1, "{:?}", store.diagnostics);
        assert_eq!(store.diagnostics[0].rule, "raw-fs");
        assert!(check_source("crates/bench/src/bin/b.rs", src).diagnostics.is_empty());
        assert!(check_source("crates/lint/src/workspace.rs", src).diagnostics.is_empty());
        // Test code may use the filesystem for scratch space.
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::fs;\n}\n";
        assert!(check_source("crates/core/src/x.rs", test_src).diagnostics.is_empty());
    }

    #[test]
    fn raw_fs_suppression_is_waived_and_lookalikes_pass() {
        let src = "// vf-lint: allow(raw-fs) — documented bridge, validated downstream\n\
                   fn f() { std::fs::read(\"x\").unwrap(); }\n";
        let r = check_source("crates/core/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.waived, 1);
        // `fs` only matches as a whole token: ElasticWfs and offsets pass.
        let r = check_source("crates/sched/src/lib.rs", "let w = ElasticWfs::new(offsets);\n");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn panic_sites_are_counted_outside_tests_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g() { panic!(\"boom\"); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        let r = check_source("crates/x/src/lib.rs", src);
        assert_eq!(
            r.panic_sites,
            vec![(1, "unwrap()".to_string()), (2, "panic!".to_string())]
        );
    }

    #[test]
    fn suppressed_panic_site_is_waived() {
        let src = "// vf-lint: allow(panic-ratchet) — contract documented above\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let r = check_source("crates/x/src/lib.rs", src);
        assert!(r.panic_sites.is_empty());
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn strings_never_trip_rules() {
        let src = "fn f() { let s = \"HashMap Instant spawn( unwrap()\"; let _ = s; }\n";
        let r = check_source("crates/x/src/lib.rs", src);
        assert!(r.diagnostics.is_empty());
        assert!(r.panic_sites.is_empty());
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
