//! Workspace discovery and the full audit pass.
//!
//! The auditor scans every first-party source file — `crates/*/src/**.rs`
//! plus the root facade `src/` — and every workspace `Cargo.toml`
//! (including the `shims/` manifests, which must themselves be path-only).
//! Shim *sources* are exempt from the code rules: they are std-only
//! stand-ins for external crates, and their API surface is what the lints
//! police at the call sites in `crates/`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::baseline::{Baseline, BASELINE_FILE};
use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::parse::{self, ParsedFile};
use crate::surface::Surface;
use crate::symbols::SymbolIndex;
use crate::{lexer, rules, semantic};

/// The result of auditing the whole workspace.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every finding, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// Source files scanned.
    pub files_scanned: usize,
    /// Manifests scanned.
    pub manifests_scanned: usize,
    /// Findings waived by inline suppressions.
    pub waived: usize,
    /// Per-file panic-site counts (input to the ratchet).
    pub counts: BTreeMap<String, usize>,
    /// Per-file panic-site locations, for messages.
    pub sites: BTreeMap<String, Vec<(u32, String)>>,
    /// Non-test `pub` items declared in `crates/*/src` outside `src/bin/`.
    pub pub_items: usize,
    /// Those of them that no non-test code names, as sorted `path::name`.
    pub uncalled_pub: Vec<String>,
    /// Non-test lines per library crate: lines of `crates/<name>/src`
    /// outside `src/bin/` and outside test regions, keyed by `<name>`.
    pub lines: BTreeMap<String, usize>,
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no workspace root above {}: no Cargo.toml with [workspace]",
                    start.display()
                ),
            ));
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Immediate subdirectories of `dir`, sorted; empty if `dir` is absent
/// (a workspace need not have a `shims/` area, and fixtures may omit the
/// root `src/`).
fn subdirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The first-party source files the code rules cover.
pub fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for krate in subdirs(&root.join("crates"))? {
        rust_files_under(&krate.join("src"), &mut files)?;
    }
    rust_files_under(&root.join("src"), &mut files)?;
    Ok(files)
}

/// Sources that are read for the references they make to library items
/// and never audited: the examples and the host-time benchmark.
fn reference_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    rust_files_under(&root.join("examples"), &mut files)?;
    rust_files_under(&root.join("perf_bench").join("src"), &mut files)?;
    Ok(files)
}

/// Every workspace manifest the `registry-dep` rule covers.
pub fn manifest_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = vec![root.join("Cargo.toml")];
    for area in ["crates", "shims"] {
        for dir in subdirs(&root.join(area))? {
            let m = dir.join("Cargo.toml");
            if m.is_file() {
                files.push(m);
            }
        }
    }
    Ok(files)
}

/// Runs every rule over the workspace at `root`: the per-file rules,
/// the workspace-wide semantic passes (lock-order, claim-coverage,
/// safety-comment, discarded-result; DESIGN.md §16), and the baseline
/// ratchet against `lint-baseline.toml`.
pub fn audit(root: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();

    // Each file is lexed once; the token stream feeds both the per-file
    // rules and the semantic parser.
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut surface = Surface::default();
    for path in source_files(root)? {
        let rel_path = rel(root, &path);
        let src = fs::read_to_string(&path)?;
        let lexed = lexer::lex(&src);
        let report = rules::check_source_lexed(&rel_path, &lexed);
        out.files_scanned += 1;
        out.waived += report.waived;
        out.counts.insert(rel_path.clone(), report.panic_sites.len());
        out.sites.insert(rel_path.clone(), report.panic_sites);
        out.diagnostics.extend(report.diagnostics);
        let library = rel_path.starts_with("crates/") && !rel_path.contains("/src/bin/");
        surface.add(&rel_path, &lexed, library);
        if library {
            let krate = rel_path["crates/".len()..].split('/').next().unwrap_or_default();
            let non_test = lexed.test_lines.iter().filter(|&&test| !test).count();
            *out.lines.entry(krate.to_string()).or_default() += non_test;
        }
        parsed.push(parse::parse_file(&rel_path, &lexed));
    }
    for path in reference_files(root)? {
        let lexed = lexer::lex(&fs::read_to_string(&path)?);
        surface.add(&rel(root, &path), &lexed, false);
    }
    out.pub_items = surface.pub_items();
    out.uncalled_pub = surface.uncalled();

    // Semantic passes run over the whole parsed workspace at once: call
    // resolution and lock propagation need every file's symbols.
    let index = SymbolIndex::build(&parsed);
    let graph = CallGraph::build(&parsed, &index);
    let sem = semantic::check_all(&parsed, &index, &graph);
    out.waived += sem.waived;
    out.diagnostics.extend(sem.diagnostics);

    for path in manifest_files(root)? {
        let rel_path = rel(root, &path);
        let toml = fs::read_to_string(&path)?;
        out.diagnostics
            .extend(rules::check_manifest(&rel_path, &toml));
        out.manifests_scanned += 1;
    }

    let baseline_path = root.join(BASELINE_FILE);
    let baseline = if baseline_path.is_file() {
        match Baseline::parse(&fs::read_to_string(&baseline_path)?) {
            Ok(b) => b,
            Err(e) => {
                out.diagnostics.push(Diagnostic::error(
                    "panic-ratchet",
                    BASELINE_FILE,
                    e.line,
                    e.message,
                ));
                Baseline::default()
            }
        }
    } else {
        out.diagnostics.push(Diagnostic::note(
            "panic-ratchet",
            BASELINE_FILE,
            0,
            "baseline file missing; bootstrap it with `cargo run -p vf-lint -- --write-baseline`",
        ));
        Baseline::default()
    };
    out.diagnostics
        .extend(baseline.compare(&out.counts, &out.sites));

    out.diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(out)
}

/// Regenerates `lint-baseline.toml` from current counts. Refuses to raise
/// any existing entry (or add a new nonzero one) unless no baseline exists
/// yet: the ratchet only turns one way. Returns the offending paths on
/// refusal.
pub fn write_baseline(root: &Path) -> io::Result<Result<Baseline, Vec<String>>> {
    let out = audit(root)?;
    let new = Baseline::from_counts(&out.counts);
    let baseline_path = root.join(BASELINE_FILE);
    if baseline_path.is_file() {
        let old = Baseline::parse(&fs::read_to_string(&baseline_path)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let increases = old.increases_in(&new);
        if !increases.is_empty() {
            return Ok(Err(increases));
        }
    }
    fs::write(&baseline_path, new.render())?;
    Ok(Ok(new))
}
