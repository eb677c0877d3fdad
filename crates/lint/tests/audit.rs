//! End-to-end tests for the workspace auditor: each rule must fire on a
//! minimal fixture tree, the counts must read what they promise, and the
//! real workspace must be clean.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use vf_lint::audit;

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

    /// Diagnostics for a given rule, as `(path, line)` pairs.
    fn errors(&self, rule: &str) -> Vec<(String, u32)> {
        let outcome = audit(self.root()).unwrap();
        outcome
            .diagnostics
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| (d.path.clone(), d.line))
            .collect()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // Best effort: a leftover temp directory fails nothing.
        fs::remove_dir_all(&self.root).ok();
    }
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
fn shim_sources_are_exempt_but_shim_manifests_are_not() {
    let fx = Fixture::new("pub fn f() {}\n");
    fx.write(
        "shims/fake/Cargo.toml",
        "[package]\nname = \"fake\"\nversion = \"0.1.0\"\n\n\
         [dependencies]\nrand = \"0.8\"\n",
    );
    fx.write(
        "shims/fake/src/lib.rs",
        "pub fn f(m: &M, j: u32) { m.inc(format!(\"job{j}\"), 1); }\n",
    );
    // Shim source escapes metric-cardinality, but its manifest may not
    // pull a registry dependency.
    assert!(fx.errors("metric-cardinality").is_empty());
    assert_eq!(fx.errors("registry-dep").len(), 1);
}

#[test]
fn waived_counts_clippy_waivers_in_audited_non_test_code() {
    let fx = Fixture::new(
        "#[expect(clippy::expect_used, reason = \"validated by the constructor\")]\n\
         pub fn f(v: Option<u32>) -> u32 { v.expect(\"validated\") }\n\
         #[allow(clippy::too_many_arguments, reason = \"not a moved lint\")]\n\
         pub fn g() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[expect(clippy::panic, reason = \"test code is not counted\")]\n\
             fn t() {}\n\
         }\n",
    );
    fx.write(
        "crates/foo/src/pool.rs",
        "pub fn spawn() {\n\
             #[expect(clippy::disallowed_methods, reason = \"the pool owns its threads\")]\n\
             std::thread::spawn(|| {});\n\
         }\n",
    );
    // Integration tests and shims are not audited.
    fx.write("crates/foo/tests/it.rs", "#![allow(clippy::unwrap_used, reason = \"test\")]\n");
    fx.write("shims/fake/src/lib.rs", "#![allow(clippy::disallowed_types, reason = \"shim\")]\n");
    assert_eq!(audit(fx.root()).unwrap().waived, 2);
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
    assert!(
        outcome.diagnostics.is_empty(),
        "the workspace must satisfy its own lints:\n{}",
        outcome
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
