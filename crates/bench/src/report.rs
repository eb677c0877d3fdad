//! Experiment reporting, and the conventions every harness shares
//! (DESIGN.md §4).
//!
//! A harness prints its rows as aligned console tables and leaves its
//! machine-readable output under `results/` through this module, which
//! owns the output rules:
//!
//! * `--smoke` is the only argument a harness takes, and only one with a
//!   smoke mode: `vf-bench` parses it into the [`Mode`] the harness runs in;
//! * a result that carries a metrics registry embeds the registry's JSON
//!   under `"metrics"` ([`Mode::publish`]);
//! * a smoke run writes its result as `<id>_smoke.json`, appends no
//!   history record and writes no other artifact, so it never overwrites
//!   a full run's committed output;
//! * a harness returns [`Result`]: a step that fails returns an [`Error`]
//!   carrying its message instead of panicking. The claim `assert!`s are
//!   the harness's checks and stay assertions.

use serde::Serialize;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use vf_obs::{HistoryRecord, Metrics};

/// A harness step that failed. Returned from `vf-bench`'s `main`, it is
/// printed as `Error: <message>` and the process exits 1.
pub struct Error(String);

// `main` prints the `Debug` form. `Error` deliberately has no `Display`:
// that keeps the blanket `From` below coherent with `From<Error> for Error`.
impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Any printable error converts with `?`: `io::Error`, a library's typed
/// error, a message.
impl<E: fmt::Display> From<E> for Error {
    fn from(e: E) -> Self {
        Error(e.to_string())
    }
}

/// What every harness returns.
pub type Result<T = ()> = std::result::Result<T, Error>;

/// Names the step that failed: `.context("what")?` is a harness's
/// `.expect("what")` that returns instead of panicking.
pub trait Context<T> {
    /// The value, or an [`Error`] reading `what: <cause>` (`what` alone
    /// for a `None`).
    fn context(self, what: &str) -> Result<T>;
}

impl<T, E: fmt::Display> Context<T> for std::result::Result<T, E> {
    fn context(self, what: &str) -> Result<T> {
        self.map_err(|e| Error(format!("{what}: {e}")))
    }
}

impl<T> Context<T> for Option<T> {
    fn context(self, what: &str) -> Result<T> {
        self.ok_or_else(|| Error(what.to_string()))
    }
}

/// How a harness was started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The run that writes the committed artifacts and history records.
    Full,
    /// A run shrunk for tier 1: it checks and prints, and writes only its
    /// `<id>_smoke.json` result.
    Smoke,
}

impl Mode {
    /// Writes `result` (a JSON object) with the registry's JSON embedded
    /// under `"metrics"` to `results/<id>.json` — `<id>_smoke.json` in a
    /// smoke run — and then [`record`](Mode::record)s `metrics` as
    /// `bench`'s history record. The artifact id and the history name are
    /// separate because they differ for some harnesses (`BENCH_chaos` is
    /// recorded as `chaos_bench`).
    pub fn publish(
        self,
        id: &str,
        bench: &str,
        result: serde_json::Value,
        metrics: &Metrics,
    ) -> io::Result<()> {
        let serde_json::Value::Object(mut fields) = result else {
            return Err(invalid(format!("{id}: a result must be a JSON object")));
        };
        let registry = serde_json::from_str(&metrics.to_json())
            .map_err(|e| invalid(format!("metrics registry rendered invalid JSON: {e}")))?;
        fields.insert("metrics".to_string(), registry);
        let fields = serde_json::Value::Object(fields);
        match self {
            Mode::Full => emit(id, &fields)?,
            Mode::Smoke => emit(&format!("{id}_smoke"), &fields)?,
        }
        self.record(bench, metrics)
    }

    /// In a full run, appends `metrics` to the bench history as `bench`'s
    /// record. A smoke run's numbers come from a shrunk run, so it appends
    /// nothing.
    pub fn record(self, bench: &str, metrics: &Metrics) -> io::Result<()> {
        match self {
            Mode::Full => append_history(&HistoryRecord::from_metrics(bench, metrics)),
            Mode::Smoke => {
                println!("[smoke run: history not appended]");
                Ok(())
            }
        }
    }

    /// In a full run, writes a text artifact (a `.txt`, `.html`,
    /// `.collapsed` or trace file) to `results/<name>`. A smoke run writes
    /// none.
    pub fn write_artifact(self, name: &str, body: &str) -> io::Result<()> {
        if self == Mode::Smoke {
            println!("[smoke run: {name} not written]");
            return Ok(());
        }
        let path = results_dir().join(name);
        write(&path, body.as_bytes())?;
        println!("[wrote {}]", path.display());
        Ok(())
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// An I/O error that names the file it happened on.
fn at(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Writes `body` to `path`, creating the results directory first.
fn write(path: &Path, body: &[u8]) -> io::Result<()> {
    let dir = results_dir();
    fs::create_dir_all(&dir).map_err(|e| at(&dir, e))?;
    fs::write(path, body).map_err(|e| at(path, e))
}

/// Directory where experiment outputs are written (workspace `results/`).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Serializes `value` to `results/<id>.json`.
pub fn emit<T: Serialize>(id: &str, value: &T) -> io::Result<()> {
    let path = results_dir().join(format!("{id}.json"));
    let json = serde_json::to_string_pretty(value).map_err(|e| invalid(e.to_string()))?;
    write(&path, json.as_bytes())?;
    println!("\n[wrote {}]", path.display());
    Ok(())
}

/// Path of the append-only bench history file.
pub fn history_path() -> PathBuf {
    results_dir().join("BENCH_history.jsonl")
}

/// Appends one headline record to `results/BENCH_history.jsonl` (creating
/// it on first use), so the repo accumulates a trajectory the `bench_gate`
/// experiment can diff against the committed baseline. Harnesses that publish
/// a metrics registry go through [`Mode::record`], which skips smoke runs.
pub fn append_history(record: &HistoryRecord) -> io::Result<()> {
    let dir = results_dir();
    fs::create_dir_all(&dir).map_err(|e| at(&dir, e))?;
    let path = history_path();
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| writeln!(file, "{}", record.to_line()))
        .map_err(|e| at(&path, e))?;
    println!("[appended {} record to {}]", record.bench, path.display());
    Ok(())
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        println!("{out}");
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f32) -> String {
    format!("{:.2}", x * 100.0)
}

/// Relative improvement of `new` over `old`, in percent (positive = lower
/// is better and `new` is lower).
pub fn improvement_pct(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        100.0 * (old - new) / old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_is_signed() {
        assert_eq!(improvement_pct(50.0, 100.0), 50.0);
        assert_eq!(improvement_pct(150.0, 100.0), -50.0);
        assert_eq!(improvement_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.7592), "75.92");
    }

    #[test]
    fn emit_writes_json() {
        emit("selftest", &serde_json::json!({"ok": true})).unwrap();
        let p = results_dir().join("selftest.json");
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.contains("ok"));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn a_smoke_run_writes_only_its_smoke_result() {
        let m = Metrics::new();
        m.inc("selftest/count", 3);
        let history = std::fs::read_to_string(history_path()).unwrap_or_default();
        Mode::Smoke
            .publish(
                "selftest_publish",
                "selftest",
                serde_json::json!({"rows": [1]}),
                &m,
            )
            .unwrap();
        Mode::Smoke
            .write_artifact("selftest_publish.txt", "body")
            .unwrap();
        let smoke = results_dir().join("selftest_publish_smoke.json");
        let json = std::fs::read_to_string(&smoke).unwrap();
        std::fs::remove_file(smoke).unwrap();
        assert!(json.contains("\"rows\""), "{json}");
        assert!(
            json.contains("\"selftest/count\""),
            "metrics embedded: {json}"
        );
        assert!(!results_dir().join("selftest_publish.json").exists());
        assert!(!results_dir().join("selftest_publish.txt").exists());
        let after = std::fs::read_to_string(history_path()).unwrap_or_default();
        assert_eq!(history, after, "a smoke run appends no history record");
    }

    #[test]
    fn failures_carry_their_message() {
        let e = "x"
            .parse::<u32>()
            .context("parse the step count")
            .unwrap_err();
        assert_eq!(
            format!("{e:?}"),
            "parse the step count: invalid digit found in string"
        );
        let e = None::<u32>.context("a non-empty sweep").unwrap_err();
        assert_eq!(format!("{e:?}"), "a non-empty sweep");
        assert!(Mode::Full
            .publish("x", "x", serde_json::json!([1]), &Metrics::new())
            .is_err());
    }
}
