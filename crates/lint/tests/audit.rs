//! End-to-end tests for the workspace auditor: each rule must fire on a
//! minimal fixture tree, suppressions must waive findings, the baseline
//! ratchet must reject regressions, and the real workspace must be clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use vf_lint::{audit, baseline::Baseline, write_baseline, Severity, BASELINE_FILE};

static NEXT_FIXTURE: AtomicUsize = AtomicUsize::new(0);

/// A throwaway workspace on disk, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    /// Creates `root/Cargo.toml` ([workspace]) plus one member crate `foo`
    /// whose `src/lib.rs` holds `lib_src`.
    fn new(lib_src: &str) -> Fixture {
        let id = NEXT_FIXTURE.fetch_add(1, Ordering::SeqCst);
        let root = std::env::temp_dir().join(format!(
            "vf-lint-fixture-{}-{id}",
            std::process::id()
        ));
        if root.exists() {
            fs::remove_dir_all(&root).unwrap();
        }
        fs::create_dir_all(root.join("crates/foo/src")).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/foo\"]\n",
        )
        .unwrap();
        fs::write(
            root.join("crates/foo/Cargo.toml"),
            "[package]\nname = \"foo\"\nversion = \"0.1.0\"\n\n[dependencies]\n",
        )
        .unwrap();
        fs::write(root.join("crates/foo/src/lib.rs"), lib_src).unwrap();
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }

    fn root(&self) -> &Path {
        &self.root
    }

    /// Error diagnostics for a given rule, as `(path, line)` pairs.
    fn errors(&self, rule: &str) -> Vec<(String, u32)> {
        let outcome = audit(self.root()).unwrap();
        outcome
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error && d.rule == rule)
            .map(|d| (d.path.clone(), d.line))
            .collect()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn hash_iteration_fires_on_hashmap_in_library_code() {
    let fx = Fixture::new(
        "use std::collections::HashMap;\n\
         pub fn f() -> usize { HashMap::<u32, u32>::new().len() }\n",
    );
    let errs = fx.errors("hash-iteration");
    assert!(
        errs.iter().any(|(p, _)| p == "crates/foo/src/lib.rs"),
        "expected hash-iteration error, got {errs:?}"
    );
}

#[test]
fn hash_iteration_ignores_test_code() {
    let fx = Fixture::new(
        "pub fn f() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             use std::collections::HashMap;\n\
             #[test]\n\
             fn t() { let _ = HashMap::<u32, u32>::new(); }\n\
         }\n",
    );
    assert!(fx.errors("hash-iteration").is_empty());
}

#[test]
fn ambient_time_fires_outside_bench() {
    let fx = Fixture::new(
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let errs = fx.errors("ambient-time");
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].0, "crates/foo/src/lib.rs");
}

#[test]
fn ambient_time_allows_bench_crate() {
    let fx = Fixture::new("pub fn f() {}\n");
    fx.write(
        "crates/bench/Cargo.toml",
        "[package]\nname = \"bench\"\nversion = \"0.1.0\"\n",
    );
    fx.write(
        "crates/bench/src/lib.rs",
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    assert!(fx.errors("ambient-time").is_empty());
}

#[test]
fn ad_hoc_thread_fires_outside_the_pool() {
    let fx = Fixture::new(
        "pub fn f() { std::thread::spawn(|| {}); }\n",
    );
    let errs = fx.errors("ad-hoc-thread");
    assert_eq!(errs.len(), 1, "{errs:?}");
}

#[test]
fn stray_print_fires_in_library_code() {
    let fx = Fixture::new(
        "pub fn f() { println!(\"dbg\"); }\n\
         pub fn g(x: u32) -> u32 { dbg!(x) }\n",
    );
    let errs = fx.errors("stray-print");
    assert_eq!(errs.len(), 2, "{errs:?}");
    assert_eq!(errs[0], ("crates/foo/src/lib.rs".to_string(), 1));
    assert_eq!(errs[1], ("crates/foo/src/lib.rs".to_string(), 2));
}

#[test]
fn stray_print_allows_bench_tests_and_suppressions() {
    let fx = Fixture::new(
        "pub fn f() {}\n\
         pub fn g() {\n\
             // vf-lint: allow(stray-print) — operator-facing banner\n\
             eprintln!(\"boot\");\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { println!(\"test output is fine\"); }\n\
         }\n",
    );
    fx.write(
        "crates/bench/Cargo.toml",
        "[package]\nname = \"bench\"\nversion = \"0.1.0\"\n",
    );
    fx.write(
        "crates/bench/src/main.rs",
        "fn main() { println!(\"headline: 1.0\"); }\n",
    );
    assert!(fx.errors("stray-print").is_empty());
    let outcome = audit(fx.root()).unwrap();
    assert_eq!(outcome.waived, 1);
}

#[test]
fn stray_print_exemption_stays_scoped_to_the_bench_crate() {
    // The bench-harness carve-out must not leak: the same println-heavy
    // binary shape is exempt under crates/bench/src/bin/ and flagged
    // anywhere else — bin targets of other crates included.
    let fx = Fixture::new("pub fn f() {}\n");
    fx.write(
        "crates/bench/Cargo.toml",
        "[package]\nname = \"bench\"\nversion = \"0.1.0\"\n",
    );
    fx.write(
        "crates/bench/src/bin/trace_profile.rs",
        "fn main() { println!(\"critical path: 12 spans\"); }\n",
    );
    fx.write(
        "crates/bench/src/bin/monitor_bench.rs",
        "fn main() { println!(\"== monitor bench ==\"); eprintln!(\"FAIL: recall\"); }\n",
    );
    fx.write(
        "crates/foo/src/bin/tool.rs",
        "fn main() { println!(\"not a bench harness\"); }\n",
    );
    let errs = fx.errors("stray-print");
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0], ("crates/foo/src/bin/tool.rs".to_string(), 1));
}

#[test]
fn raw_fs_fires_outside_the_storage_layer() {
    let fx = Fixture::new(
        "use std::fs;\n\
         pub fn f() { let _ = fs::read(\"state.json\"); }\n",
    );
    let errs = fx.errors("raw-fs");
    assert_eq!(errs.len(), 2, "{errs:?}");
    assert!(errs.iter().all(|(p, _)| p == "crates/foo/src/lib.rs"));
}

#[test]
fn raw_fs_allows_the_bench_crate_and_flags_the_store() {
    let fx = Fixture::new("pub fn f() {}\n");
    for krate in ["store", "bench"] {
        fx.write(
            &format!("crates/{krate}/Cargo.toml"),
            &format!("[package]\nname = \"{krate}\"\nversion = \"0.1.0\"\n"),
        );
        fx.write(
            &format!("crates/{krate}/src/lib.rs"),
            "pub fn dump(bytes: &[u8]) { std::fs::write(\"out\", bytes).unwrap(); }\n",
        );
    }
    assert_eq!(fx.errors("raw-fs"), [("crates/store/src/lib.rs".to_string(), 1)]);
}

#[test]
fn registry_dep_fires_on_version_only_dependency() {
    let fx = Fixture::new("pub fn f() {}\n");
    fx.write(
        "crates/foo/Cargo.toml",
        "[package]\nname = \"foo\"\nversion = \"0.1.0\"\n\n\
         [dependencies]\nserde = \"1\"\n",
    );
    let errs = fx.errors("registry-dep");
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].0, "crates/foo/Cargo.toml");
}

#[test]
fn registry_dep_accepts_path_and_workspace_dependencies() {
    let fx = Fixture::new("pub fn f() {}\n");
    fx.write(
        "crates/foo/Cargo.toml",
        "[package]\nname = \"foo\"\nversion = \"0.1.0\"\n\n\
         [dependencies]\n\
         bar = { path = \"../bar\" }\n\
         baz = { workspace = true }\n",
    );
    assert!(fx.errors("registry-dep").is_empty());
}

#[test]
fn panic_ratchet_counts_against_missing_baseline() {
    let fx = Fixture::new(
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    let errs = fx.errors("panic-ratchet");
    assert_eq!(errs.len(), 1, "{errs:?}");
}

#[test]
fn panic_ratchet_ignores_test_functions() {
    let fx = Fixture::new(
        "pub fn f() {}\n\
         #[test]\n\
         fn t() { Some(1).unwrap(); }\n",
    );
    assert!(fx.errors("panic-ratchet").is_empty());
}

#[test]
fn suppression_with_reason_waives_a_finding() {
    let fx = Fixture::new(
        "pub fn f(v: Option<u32>) -> u32 {\n\
             // vf-lint: allow(panic-ratchet) — caller guarantees Some\n\
             v.unwrap()\n\
         }\n",
    );
    assert!(fx.errors("panic-ratchet").is_empty());
    let outcome = audit(fx.root()).unwrap();
    assert_eq!(outcome.waived, 1);
}

#[test]
fn suppression_without_reason_is_rejected() {
    let fx = Fixture::new(
        "pub fn f(v: Option<u32>) -> u32 {\n\
             // vf-lint: allow(panic-ratchet)\n\
             v.unwrap()\n\
         }\n",
    );
    let errs = fx.errors("bad-suppression");
    assert_eq!(errs.len(), 1, "{errs:?}");
}

#[test]
fn suppression_of_unknown_rule_is_rejected() {
    let fx = Fixture::new(
        "// vf-lint: allow(made-up-rule) — because\npub fn f() {}\n",
    );
    let errs = fx.errors("bad-suppression");
    assert_eq!(errs.len(), 1, "{errs:?}");
}

#[test]
fn baseline_ratchet_rejects_an_increase() {
    let fx = Fixture::new(
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n\
         pub fn g(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    fx.write(BASELINE_FILE, "\"crates/foo/src/lib.rs\" = 1\n");
    let errs = fx.errors("panic-ratchet");
    assert_eq!(errs.len(), 1, "{errs:?}");
}

#[test]
fn baseline_ratchet_demands_tightening_when_counts_drop() {
    let fx = Fixture::new("pub fn f() {}\n");
    fx.write(BASELINE_FILE, "\"crates/foo/src/lib.rs\" = 3\n");
    // The file is clean but the baseline still allows 3: the ratchet
    // requires committing the improvement via --write-baseline.
    let errs = fx.errors("panic-ratchet");
    assert_eq!(errs.len(), 1, "{errs:?}");
}

#[test]
fn baseline_at_exact_counts_is_clean() {
    let fx = Fixture::new(
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    fx.write(BASELINE_FILE, "\"crates/foo/src/lib.rs\" = 1\n");
    assert!(fx.errors("panic-ratchet").is_empty());
}

#[test]
fn write_baseline_refuses_to_grow_an_existing_entry() {
    let fx = Fixture::new(
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n\
         pub fn g(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    fx.write(BASELINE_FILE, "\"crates/foo/src/lib.rs\" = 1\n");
    let refused = write_baseline(fx.root()).unwrap();
    let increases = refused.expect_err("an increase must be refused");
    assert!(
        increases.iter().any(|m| m.contains("crates/foo/src/lib.rs")),
        "{increases:?}"
    );
    // The file on disk is untouched.
    let kept = fs::read_to_string(fx.root().join(BASELINE_FILE)).unwrap();
    let kept = Baseline::parse(&kept).unwrap();
    assert_eq!(kept.entries.get("crates/foo/src/lib.rs"), Some(&1));
}

#[test]
fn write_baseline_bootstraps_when_no_file_exists() {
    let fx = Fixture::new(
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    let written = write_baseline(fx.root()).unwrap().expect("bootstrap");
    assert_eq!(written.entries.get("crates/foo/src/lib.rs"), Some(&1));
    let on_disk = fs::read_to_string(fx.root().join(BASELINE_FILE)).unwrap();
    assert!(on_disk.contains("\"crates/foo/src/lib.rs\" = 1"));
}

#[test]
fn shim_sources_are_exempt_but_shim_manifests_are_not() {
    let fx = Fixture::new("pub fn f() {}\n");
    fx.write(
        "shims/fake/Cargo.toml",
        "[package]\nname = \"fake\"\nversion = \"0.1.0\"\n\n\
         [dependencies]\nrand = \"0.8\"\n",
    );
    fx.write(
        "shims/fake/src/lib.rs",
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    // Shim source escapes ambient-time, but its manifest may not pull a
    // registry dependency.
    assert!(fx.errors("ambient-time").is_empty());
    assert_eq!(fx.errors("registry-dep").len(), 1);
}

#[test]
fn public_surface_count_reads_examples_and_ignores_tests() {
    let fx = Fixture::new(
        "pub fn only_tested() {}\n\
         pub fn used_by_example() {}\n\
         pub fn used_by_bench() {}\n\
         pub(crate) fn internal() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { super::only_tested(); super::internal(); }\n\
         }\n",
    );
    fx.write("examples/demo.rs", "fn main() { foo::used_by_example(); }\n");
    fx.write("perf_bench/src/main.rs", "fn main() { foo::used_by_bench(); }\n");
    // Integration tests are tests: a call from there is not a caller.
    fx.write("crates/foo/tests/it.rs", "#[test]\nfn t() { foo::only_tested(); }\n");
    let outcome = audit(fx.root()).unwrap();
    assert_eq!(outcome.pub_items, 3, "pub(crate) is not public surface");
    assert_eq!(outcome.uncalled_pub, ["crates/foo/src/lib.rs::only_tested"]);
    // Reference-only sources are read, never audited.
    assert_eq!(outcome.files_scanned, 1);
}

#[test]
fn line_counts_are_per_library_crate_outside_tests_and_binaries() {
    let fx = Fixture::new(
        "pub fn a() {}\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() {}\n\
         }\n",
    );
    fx.write("crates/foo/src/more.rs", "// a comment counts\nfn b() {}\n");
    fx.write("crates/foo/src/bin/tool.rs", "fn main() {}\n");
    fx.write("crates/bar/src/lib.rs", "fn c() {}\n");
    fx.write("src/lib.rs", "pub use foo;\n");
    let outcome = audit(fx.root()).unwrap();
    let lines: Vec<(&str, usize)> =
        outcome.lines.iter().map(|(k, &n)| (k.as_str(), n)).collect();
    // foo: `pub fn a` and the blank line, then both lines of more.rs.
    assert_eq!(lines, [("bar", 1), ("foo", 4)]);
}

/// The acceptance check: the real workspace this crate ships in must audit
/// clean, so `cargo run -p vf-lint -- --deny` stays a tier-1 gate.
#[test]
fn the_real_workspace_audits_clean() {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = vf_lint::find_root(&manifest_dir).unwrap();
    let outcome = audit(&root).unwrap();
    let errors: Vec<_> = outcome
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "the workspace must satisfy its own lints:\n{}",
        errors
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
