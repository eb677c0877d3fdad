//! The rules vf-lint once checked from tokens are clippy lints now
//! (DESIGN.md §11). This test holds the shipped configuration to them: it
//! copies the root `clippy.toml` and `[workspace.lints.clippy]` table, and
//! the crate-scoped ones of `crates/bench` and `crates/lint`, into a
//! throwaway workspace whose sources are the cases of the deleted rules'
//! tests and fixtures, runs clippy on it and asserts the exact set of
//! `(file, line, lint)` findings. A ban dropped from a config file, a lint
//! dropped from a table or an allowlist that widens fails here.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use vf_lint::rules::MOVED_LINTS;
use vf_obs::json::{self, JsonValue};

// Case sources. A `//~ lint…` marker names the lints that must fire on its
// line. A `//~?` marker does the same in a crate whose configuration bans
// the construct, and is dropped in one whose configuration allows it. Each
// banned path sits alone on its line, so dropping any one ban from a
// configuration fails the test.

/// Hash-ordered collections (`hash-iteration`).
const HASH: &str = r#"
pub fn table() -> std::collections::HashMap<u32, u32> { //~? clippy::disallowed_types
    Default::default()
}
pub fn distinct(keys: &[u32]) -> usize {
    keys.iter().collect::<std::collections::HashSet<_>>().len() //~? clippy::disallowed_types
}
pub fn ordered() -> std::collections::BTreeMap<u32, u32> {
    std::collections::BTreeMap::new()
}
"#;

/// Wall-clock reads (`ambient-time`).
const CLOCK: &str = r#"
pub fn elapsed_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos() //~? clippy::disallowed_types
}
pub fn is_past(t: u64) -> bool {
    std::time::SystemTime::now() //~? clippy::disallowed_types
        .duration_since(std::time::UNIX_EPOCH)
        .is_ok_and(|d| d.as_secs() > t)
}
pub fn epoch_s() -> u64 {
    std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_secs()) //~? clippy::disallowed_methods
}
"#;

/// Threads outside the pool (`ad-hoc-thread`).
const THREADS: &str = r#"
pub fn ad_hoc() -> bool {
    std::thread::spawn(|| {}).join().is_ok() //~? clippy::disallowed_methods
}
pub fn built() -> bool {
    std::thread::Builder::new().spawn(|| {}).is_ok() //~? clippy::disallowed_methods
}
pub fn scoped() -> bool {
    std::thread::scope(|s| { //~? clippy::disallowed_methods
        std::thread::Builder::new().spawn_scoped(s, || {}).is_ok() //~? clippy::disallowed_methods
    })
}
"#;

/// Real filesystem I/O (`raw-fs`).
const FS: &str = r#"
#[expect(deprecated, reason = "std::fs::soft_link is deprecated, and banned all the same")]
pub fn raw_fs(p: &std::path::Path, perms: &std::fs::Permissions) -> usize {
    let ok = [
        std::fs::canonicalize(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::copy(p, p).is_ok(), //~? clippy::disallowed_methods
        std::fs::create_dir(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::create_dir_all(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::exists(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::hard_link(p, p).is_ok(), //~? clippy::disallowed_methods
        std::fs::metadata(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::read(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::read_dir(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::read_link(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::read_to_string(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::remove_dir(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::remove_dir_all(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::remove_file(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::rename(p, p).is_ok(), //~? clippy::disallowed_methods
        std::fs::set_permissions(p, perms.clone()).is_ok(), //~? clippy::disallowed_methods
        std::fs::soft_link(p, p).is_ok(), //~? clippy::disallowed_methods
        std::fs::symlink_metadata(p).is_ok(), //~? clippy::disallowed_methods
        std::fs::write(p, b"x").is_ok(), //~? clippy::disallowed_methods
        std::fs::File::open(p).is_ok(), //~? clippy::disallowed_types
        std::fs::OpenOptions::new().read(true).open(p).is_ok(), //~? clippy::disallowed_types
        std::fs::DirBuilder::new().create(p).is_ok(), //~? clippy::disallowed_types
    ];
    ok.iter().filter(|&&b| b).count()
}
"#;

/// Prints (`stray-print`).
const PRINTS: &str = r#"
pub fn chatty(x: u32) -> u32 {
    println!("step {x}"); //~? clippy::print_stdout
    eprintln!("warn {x}"); //~? clippy::print_stderr
    dbg!(x) //~? clippy::dbg_macro
}
"#;

/// Panic sites (`panic-ratchet`), banned in every crate's library code.
const PANICS: &str = r#"
pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap() //~ clippy::unwrap_used
}
pub fn parse(s: &str) -> u32 {
    Result::expect(s.parse::<u32>(), "a number") //~ clippy::expect_used
}
pub fn pick(k: u8) -> u32 {
    match k {
        0 => panic!("zero"), //~ clippy::panic
        1 => unreachable!(), //~ clippy::unreachable
        2 => todo!(), //~ clippy::todo
        _ => unimplemented!(), //~ clippy::unimplemented
    }
}
pub fn fallback(v: Option<u32>) -> u32 {
    let s = "unwrap() expect( panic!";
    v.unwrap_or(s.len() as u32)
}
"#;

/// The rest of the library crates' rules, and test code.
const APP_ONLY: &str = r#"
// The pool's thread: a per-site waiver.
pub fn pool_worker() -> bool {
    #[expect(clippy::disallowed_methods, reason = "the pool owns its threads")]
    let worker = std::thread::Builder::new().spawn(|| {});
    worker.is_ok()
}

// safety-comment
pub fn reads(x: &u8) -> u8 {
    bare(x) + justified(x) + shared(x) + unsafe_twice(x)
}
fn bare(p: *const u8) -> u8 {
    unsafe { *p } //~ clippy::undocumented_unsafe_blocks
}
fn justified(p: *const u8) -> u8 {
    // SAFETY: `p` comes from a reference.
    unsafe { *p }
}
fn shared(p: *const u8) -> u8 {
    // SAFETY: `p` comes from a reference.
    let a = unsafe { *p };
    let b = unsafe { *p }; //~ clippy::undocumented_unsafe_blocks
    a.wrapping_add(b)
}
fn unsafe_twice(p: *const u8) -> u8 {
    // SAFETY: `p` comes from a reference.
    unsafe { undocumented(p) }.wrapping_add(unsafe { documented(p) })
}
unsafe fn undocumented(p: *const u8) -> u8 { //~ clippy::missing_safety_doc
    // SAFETY: the caller passes a readable pointer.
    unsafe { *p }
}
/// Reads `p`.
///
/// # Safety
///
/// `p` must be valid for reads.
unsafe fn documented(p: *const u8) -> u8 {
    // SAFETY: the contract above.
    unsafe { *p }
}
pub struct Raw(pub *mut u8);
unsafe impl Send for Raw {} //~ clippy::undocumented_unsafe_blocks
// SAFETY: `Raw` is only an address.
unsafe impl Sync for Raw {}

// discarded-result
pub fn save() -> Result<u32, String> {
    Ok(7)
}
pub fn objects() -> usize {
    0
}
pub fn tick() {
    let _ = save(); //~ clippy::let_underscore_must_use
    let _ = objects();
    #[expect(clippy::let_underscore_must_use, reason = "warm-up save; the periodic save retries")]
    let _ = save();
}

// bad-suppression, and a waiver that no longer fires
#[allow(clippy::too_many_arguments)] //~ clippy::allow_attributes_without_reason
pub fn reasonless() {}
#[expect(clippy::unwrap_used, reason = "stale: nothing here unwraps")] //~ unfulfilled_lint_expectations
pub fn stale() {}

// Test code may panic and print; it may not hash, read the clock or
// spawn.
#[cfg(test)]
mod tests {
    fn helper(s: &str) -> u32 {
        s.parse().expect("test input is a number")
    }

    #[test]
    fn parses() {
        assert_eq!(super::first(&[3]), helper("3"));
        println!("{}", helper("4"));
        if helper("4") != 4 {
            panic!("not a number");
        }
        assert!(std::time::Instant::now().elapsed().as_secs() < 60); //~ clippy::disallowed_types
    }
}
"#;

/// A binary is not test code.
const APP_BIN: &str = r#"fn main() {
    let text = std::fs::read_to_string("input.json").expect("input present"); //~ clippy::disallowed_methods clippy::expect_used
    print!("{text}"); //~ clippy::print_stdout
}
"#;

/// `snippet` with its `//~?` markers kept when the crate bans what they
/// mark, and dropped when it allows it.
fn gated(snippet: &str, banned: bool) -> String {
    snippet
        .lines()
        .map(|line| match line.split_once("//~?") {
            Some((code, lints)) if banned => format!("{code}//~{lints}\n"),
            Some((code, _)) => format!("{}\n", code.trim_end()),
            None => format!("{line}\n"),
        })
        .collect()
}

/// The cases, by the path they take in the throwaway workspace. The
/// library crates ban everything; `crates/bench` measures time, writes
/// reports and prints; `crates/lint` reads files and prints.
fn cases() -> Vec<(&'static str, String)> {
    let lib = |hash, clock, threads, fs, prints, rest: &str| {
        [
            gated(HASH, hash),
            gated(CLOCK, clock),
            gated(THREADS, threads),
            gated(FS, fs),
            gated(PRINTS, prints),
            PANICS.to_string(),
            rest.to_string(),
        ]
        .concat()
    };
    vec![
        (
            "app/src/lib.rs",
            lib(true, true, true, true, true, APP_ONLY),
        ),
        ("app/src/bin/report.rs", APP_BIN.to_string()),
        ("bench/src/lib.rs", lib(true, false, true, false, false, "")),
        ("lint/src/lib.rs", lib(true, true, true, false, false, "")),
    ]
}

/// Every finding the configuration must produce on the cases: each
/// `//~ lint…` marker names the lints that must fire on its line, and no
/// other line may draw one.
fn expected(cases: &[(&str, String)]) -> BTreeSet<(String, u32, String)> {
    let mut out = BTreeSet::new();
    for (path, src) in cases {
        for (i, line) in src.lines().enumerate() {
            let Some((_, lints)) = line.split_once("//~") else {
                continue;
            };
            for lint in lints.split_whitespace() {
                out.insert((path.to_string(), i as u32 + 1, lint.to_string()));
            }
        }
    }
    out
}

fn repo_root() -> PathBuf {
    vf_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn write(path: &Path, text: &str) {
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// The text of the TOML table headed `header`, without the header line:
/// every line up to the next table header.
fn toml_table(manifest: &str, header: &str) -> String {
    let mut lines = manifest.lines().skip_while(|l| l.trim() != header);
    assert!(lines.next().is_some(), "no {header} table");
    lines
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The lint names a table switches on.
fn table_lints(table: &str) -> BTreeSet<String> {
    table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split('=').next().unwrap().trim().to_string())
        .collect()
}

/// A package manifest that takes its lint levels from `lints` (a
/// `[lints.clippy]` body) or, when `None`, from the workspace table.
fn package(ws: &Path, name: &str, lints: Option<&str>) {
    let lints = match lints {
        Some(table) => format!("[lints.clippy]\n{table}"),
        None => "[lints]\nworkspace = true\n".to_string(),
    };
    write(
        &ws.join(name).join("Cargo.toml"),
        &format!(
            "[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n{lints}"
        ),
    );
}

/// Every `(file, line, lint)` that clippy reports on the workspace at `ws`.
fn clippy_findings(ws: &Path, target: &Path) -> BTreeSet<(String, u32, String)> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args([
            "clippy",
            "--offline",
            "--all-targets",
            "--message-format=json",
        ])
        .current_dir(ws)
        .env("CARGO_TARGET_DIR", target)
        .env_remove("CLIPPY_CONF_DIR")
        .env_remove("RUSTFLAGS")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .output()
        .expect("running cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut found = BTreeSet::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let record = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let Some(msg) = record.get("message") else {
            continue;
        };
        let Some(code) = msg
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(JsonValue::as_str)
        else {
            continue;
        };
        let spans = msg
            .get("spans")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        let primary = spans
            .iter()
            .find(|s| s.get("is_primary") == Some(&JsonValue::Bool(true)))
            .unwrap_or_else(|| panic!("{code} has no primary span: {line}"));
        let file = primary
            .get("file_name")
            .and_then(JsonValue::as_str)
            .unwrap();
        let line_no = primary
            .get("line_start")
            .and_then(JsonValue::as_f64)
            .unwrap();
        found.insert((file.to_string(), line_no as u32, code.to_string()));
    }
    found
}

#[test]
fn clippy_rejects_every_case_of_the_deleted_rules() {
    let root = repo_root();
    let manifest = read(&root.join("Cargo.toml"));
    let workspace_lints = toml_table(&manifest, "[workspace.lints.clippy]");

    // The waiver count follows the configuration: vf-lint counts waivers
    // of exactly the lints the workspace switches on.
    let on: BTreeSet<String> = table_lints(&workspace_lints);
    let moved: BTreeSet<String> = MOVED_LINTS.iter().map(|l| l.to_string()).collect();
    assert_eq!(
        on, moved,
        "[workspace.lints.clippy] and rules::MOVED_LINTS differ"
    );

    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy_twins");
    if tmp.exists() {
        fs::remove_dir_all(&tmp).unwrap();
    }
    let ws = tmp.join("ws");
    write(
        &ws.join("Cargo.toml"),
        &format!(
            "[workspace]\nmembers = [\"app\", \"bench\", \"lint\"]\nresolver = \"2\"\n\n\
             [workspace.lints.clippy]\n{workspace_lints}"
        ),
    );
    write(&ws.join("clippy.toml"), &read(&root.join("clippy.toml")));
    package(&ws, "app", None);
    for name in ["bench", "lint"] {
        let crate_dir = root.join("crates").join(name);
        let table = toml_table(&read(&crate_dir.join("Cargo.toml")), "[lints.clippy]");
        // The crate tables are the workspace table minus the print lints.
        let mut expected_on = on.clone();
        for print in ["print_stdout", "print_stderr", "dbg_macro"] {
            expected_on.remove(print);
        }
        assert_eq!(
            table_lints(&table),
            expected_on,
            "crates/{name}'s [lints.clippy]"
        );
        package(&ws, name, Some(&table));
        write(
            &ws.join(name).join("clippy.toml"),
            &read(&crate_dir.join("clippy.toml")),
        );
    }

    let cases = cases();
    for (path, src) in &cases {
        write(&ws.join(path), src);
    }

    let found = clippy_findings(&ws, &tmp.join("target"));
    let expected = expected(&cases);
    assert!(expected.len() >= 30, "the cases lost their markers");
    let missing: Vec<_> = expected.difference(&found).collect();
    let extra: Vec<_> = found.difference(&expected).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "clippy findings diverge from the twins' expectations\n  missing: {missing:?}\n  extra: {extra:?}"
    );
}
