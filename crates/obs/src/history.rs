//! Bench history and the perf regression gate.
//!
//! Every bench/trace harness appends one schema-versioned
//! [`HistoryRecord`] — a flat `metric name → f64` snapshot of its headline
//! numbers — to `results/BENCH_history.jsonl`. A committed
//! [`Baseline`] (`results/BENCH_baseline.json`) states, for a curated
//! subset of those metrics, the expected value, which direction is better,
//! and a tolerance; [`gate`] diffs the **latest** record of each bench
//! against the baseline and reports regressions. The `bench_gate` binary
//! wires this into tier-1: a regression beyond tolerance fails the build.
//!
//! Only *deterministic* metrics belong in the committed baseline —
//! simulated-time goodput, event counts, critical-path totals, memory
//! ratios. Wall-clock numbers (GFLOPS, speedups) still land in the history
//! file for trend-watching, but gating on them would make tier-1 flaky on
//! a loaded machine.
//!
//! Records and baselines render through the same canonical-JSON helpers as
//! every other vf-obs artifact, so a record is byte-stable: re-serializing
//! a parsed record reproduces the input line exactly.

use crate::json::{self, escape_into, push_f64, JsonValue};
use std::collections::BTreeMap;

/// The current history record schema version. Parsers reject records with
/// a newer major version rather than misreading them.
pub const SCHEMA_VERSION: u64 = 1;

/// One appended bench result: the headline numbers of a single harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this crate).
    pub schema: u64,
    /// Which harness produced the record (e.g. `"trace_profile"`).
    pub bench: String,
    /// Headline metrics, name → value. Only finite values are kept.
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryRecord {
    /// A new record at the current schema version.
    pub fn new(bench: &str) -> Self {
        HistoryRecord {
            schema: SCHEMA_VERSION,
            bench: bench.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Inserts a metric; non-finite values are dropped (the JSONL encoding
    /// has no NaN, and a gap is more honest than a placeholder).
    pub fn set(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name.to_string(), value);
        }
    }

    /// Builds a record from a [`crate::Metrics`] snapshot: counters widen
    /// to `f64`, finite gauges copy over, sketches contribute `<name>/p50`,
    /// `<name>/p99`, and `<name>/count`, and labeled families contribute
    /// their bounded-registry accounting (`<name>/series_count`,
    /// `<name>/overflow_samples`, `<name>/counted_drops`,
    /// `<name>/total_samples`).
    pub fn from_metrics(bench: &str, metrics: &crate::Metrics) -> Self {
        let mut rec = HistoryRecord::new(bench);
        for (name, metric) in metrics.snapshot() {
            match metric {
                crate::Metric::Counter(c) => rec.set(&name, c as f64),
                crate::Metric::Gauge(g) => rec.set(&name, g),
                crate::Metric::Sketch(s) => {
                    if let Some(p50) = s.quantile(0.50) {
                        rec.set(&format!("{name}/p50"), p50);
                    }
                    if let Some(p99) = s.quantile(0.99) {
                        rec.set(&format!("{name}/p99"), p99);
                    }
                    rec.set(&format!("{name}/count"), s.total() as f64);
                }
            }
        }
        for family in metrics.labeled_snapshot() {
            let name = &family.name;
            rec.set(&format!("{name}/series_count"), family.series.len() as f64);
            rec.set(
                &format!("{name}/overflow_samples"),
                family.overflow_samples as f64,
            );
            rec.set(&format!("{name}/counted_drops"), family.counted_drops as f64);
            rec.set(&format!("{name}/total_samples"), family.total_samples as f64);
        }
        rec
    }

    /// Renders the record as one canonical JSONL line (no trailing
    /// newline): fixed key order, sorted metric names, shortest-roundtrip
    /// floats.
    pub fn to_line(&self) -> String {
        let mut out = String::from("{\"schema\":");
        out.push_str(&self.schema.to_string());
        out.push_str(",\"bench\":\"");
        escape_into(&self.bench, &mut out);
        out.push_str("\",\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(name, &mut out);
            out.push_str("\":");
            push_f64(*value, &mut out);
        }
        out.push_str("}}");
        out
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a description when the line is not JSON, lacks a required
    /// field, or carries an unknown schema version.
    pub fn parse_line(line: &str) -> Result<HistoryRecord, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_f64)
            .ok_or("record is missing \"schema\"")? as u64;
        if schema > SCHEMA_VERSION {
            return Err(format!(
                "record schema {schema} is newer than supported {SCHEMA_VERSION}"
            ));
        }
        let bench = v
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("record is missing \"bench\"")?
            .to_string();
        let mut metrics = BTreeMap::new();
        let map = v
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("record is missing \"metrics\"")?;
        for (name, value) in map {
            if let Some(x) = value.as_f64() {
                metrics.insert(name.clone(), x);
            }
        }
        Ok(HistoryRecord { schema, bench, metrics })
    }
}

/// Parses a whole history file (JSONL; blank lines ignored), in order.
///
/// # Errors
///
/// Returns the first malformed line's error, 1-indexed.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = HistoryRecord::parse_line(line)
            .map_err(|e| format!("history line {}: {e}", i + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// The most recent record for `bench`, if any (later lines win).
pub fn latest_for<'a>(records: &'a [HistoryRecord], bench: &str) -> Option<&'a HistoryRecord> {
    records.iter().rev().find(|r| r.bench == bench)
}

/// Which way a metric is allowed to drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, goodput): a drop beyond tolerance
    /// regresses.
    HigherIsBetter,
    /// Smaller is better (latency, memory): a rise beyond tolerance
    /// regresses.
    LowerIsBetter,
}

impl Direction {
    fn parse(s: &str) -> Result<Direction, String> {
        match s {
            "higher" => Ok(Direction::HigherIsBetter),
            "lower" => Ok(Direction::LowerIsBetter),
            other => Err(format!("unknown direction {other:?} (want \"higher\"/\"lower\")")),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher",
            Direction::LowerIsBetter => "lower",
        }
    }
}

/// One gated metric in the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineMetric {
    /// The blessed value.
    pub value: f64,
    /// Which drift direction counts as a regression.
    pub direction: Direction,
    /// Allowed drift in the bad direction, percent of the blessed value.
    pub tolerance_pct: f64,
}

/// The committed perf baseline: `"bench/metric"` → expectation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Gated metrics, keyed `"<bench>/<metric>"`.
    pub metrics: BTreeMap<String, BaselineMetric>,
}

impl Baseline {
    /// Parses the baseline JSON:
    /// `{"schema":1,"metrics":{"bench/metric":{"value":..,"direction":"lower","tolerance_pct":..},..}}`.
    ///
    /// # Errors
    ///
    /// Returns a description for malformed JSON or missing fields.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_f64)
            .ok_or("baseline is missing \"schema\"")? as u64;
        if schema > SCHEMA_VERSION {
            return Err(format!(
                "baseline schema {schema} is newer than supported {SCHEMA_VERSION}"
            ));
        }
        let map = v
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("baseline is missing \"metrics\"")?;
        let mut metrics = BTreeMap::new();
        for (key, entry) in map {
            let value = entry
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("baseline {key:?} is missing \"value\""))?;
            let direction = entry
                .get("direction")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("baseline {key:?} is missing \"direction\""))
                .and_then(Direction::parse)?;
            let tolerance_pct = entry
                .get("tolerance_pct")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("baseline {key:?} is missing \"tolerance_pct\""))?;
            metrics.insert(key.clone(), BaselineMetric { value, direction, tolerance_pct });
        }
        Ok(Baseline { metrics })
    }

    /// Renders the baseline in its canonical committed form (pretty,
    /// sorted, trailing newline) — handy for regenerating the file after
    /// an intentional perf change.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"metrics\": {\n");
        for (i, (key, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("    \"");
            escape_into(key, &mut out);
            out.push_str("\": {\"value\": ");
            push_f64(m.value, &mut out);
            out.push_str(", \"direction\": \"");
            out.push_str(m.direction.as_str());
            out.push_str("\", \"tolerance_pct\": ");
            push_f64(m.tolerance_pct, &mut out);
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// One gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// `"<bench>/<metric>"`.
    pub key: String,
    /// The blessed value.
    pub baseline: f64,
    /// The latest observed value.
    pub observed: f64,
    /// Signed drift, percent of the blessed value (positive = observed
    /// above baseline).
    pub delta_pct: f64,
    /// True when the drift exceeds tolerance in the bad direction.
    pub regression: bool,
}

/// The gate verdict across every baselined metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Per-metric comparisons, in baseline key order.
    pub checks: Vec<GateCheck>,
    /// Baselined metrics with no history record to compare (also a
    /// failure: a silently vanished bench must not pass the gate).
    pub missing: Vec<String>,
}

impl GateOutcome {
    /// True when nothing regressed and nothing was missing.
    pub fn pass(&self) -> bool {
        self.missing.is_empty() && self.checks.iter().all(|c| !c.regression)
    }

    /// Renders the verdict as an aligned, deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&format!(
                "{} {:<44} baseline={:<12} observed={:<12} delta={:+.2}%\n",
                if c.regression { "FAIL" } else { "ok  " },
                c.key,
                c.baseline,
                c.observed,
                c.delta_pct,
            ));
        }
        for key in &self.missing {
            out.push_str(&format!("FAIL {key:<44} missing from history\n"));
        }
        out.push_str(&format!(
            "bench gate: {} ({} checked, {} regressed, {} missing)\n",
            if self.pass() { "PASS" } else { "FAIL" },
            self.checks.len(),
            self.checks.iter().filter(|c| c.regression).count(),
            self.missing.len(),
        ));
        out
    }
}

/// Diffs the latest history record of each baselined bench against the
/// baseline. A metric regresses when it drifts past `tolerance_pct` in
/// the bad direction; drift in the good direction never fails (it only
/// suggests re-blessing the baseline). A zero baseline value compares
/// absolutely: any bad-direction move off zero is a regression.
pub fn gate(records: &[HistoryRecord], baseline: &Baseline) -> GateOutcome {
    let mut checks = Vec::new();
    let mut missing = Vec::new();
    for (key, expect) in &baseline.metrics {
        let Some((bench, metric)) = key.split_once('/') else {
            missing.push(key.clone());
            continue;
        };
        let observed = latest_for(records, bench).and_then(|r| r.metrics.get(metric));
        let Some(&observed) = observed else {
            missing.push(key.clone());
            continue;
        };
        let delta_pct = if expect.value == 0.0 {
            if observed == 0.0 {
                0.0
            } else {
                100.0 * observed.signum()
            }
        } else {
            100.0 * (observed - expect.value) / expect.value.abs()
        };
        let regression = match expect.direction {
            Direction::HigherIsBetter => delta_pct < -expect.tolerance_pct,
            Direction::LowerIsBetter => delta_pct > expect.tolerance_pct,
        };
        checks.push(GateCheck {
            key: key.clone(),
            baseline: expect.value,
            observed,
            delta_pct,
            regression,
        });
    }
    GateOutcome { checks, missing }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, pairs: &[(&str, f64)]) -> HistoryRecord {
        let mut r = HistoryRecord::new(bench);
        for (k, v) in pairs {
            r.set(k, *v);
        }
        r
    }

    fn baseline_one(key: &str, value: f64, direction: Direction, tol: f64) -> Baseline {
        let mut b = Baseline::default();
        b.metrics.insert(
            key.to_string(),
            BaselineMetric { value, direction, tolerance_pct: tol },
        );
        b
    }

    #[test]
    fn record_round_trips_byte_identically() {
        let r = record("trace_profile", &[("path_us", 1234.0), ("spans", 80.0)]);
        let line = r.to_line();
        assert_eq!(
            line,
            r#"{"schema":1,"bench":"trace_profile","metrics":{"path_us":1234,"spans":80}}"#
        );
        let back = HistoryRecord::parse_line(&line).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.to_line(), line, "re-serialization is byte-stable");
    }

    #[test]
    fn non_finite_metrics_are_dropped_on_insert() {
        let mut r = HistoryRecord::new("x");
        r.set("ok", 1.0);
        r.set("nan", f64::NAN);
        r.set("inf", f64::INFINITY);
        assert_eq!(r.metrics.len(), 1);
    }

    #[test]
    fn parser_rejects_future_schema_and_garbage() {
        assert!(HistoryRecord::parse_line("{\"schema\":999,\"bench\":\"x\",\"metrics\":{}}")
            .unwrap_err()
            .contains("newer"));
        assert!(HistoryRecord::parse_line("not json").is_err());
        assert!(HistoryRecord::parse_line("{\"bench\":\"x\"}").is_err());
        let err = parse_history("{\"schema\":1,\"bench\":\"a\",\"metrics\":{}}\nbroken\n")
            .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn history_parses_and_latest_wins() {
        let text = format!(
            "{}\n{}\n{}\n",
            record("a", &[("m", 1.0)]).to_line(),
            record("b", &[("m", 5.0)]).to_line(),
            record("a", &[("m", 2.0)]).to_line(),
        );
        let records = parse_history(&text).expect("parses");
        assert_eq!(records.len(), 3);
        assert_eq!(latest_for(&records, "a").unwrap().metrics["m"], 2.0);
        assert_eq!(latest_for(&records, "b").unwrap().metrics["m"], 5.0);
        assert!(latest_for(&records, "c").is_none());
    }

    #[test]
    fn baseline_parses_and_round_trips() {
        let b = baseline_one("bench/goodput", 0.8, Direction::HigherIsBetter, 2.0);
        let rendered = b.render();
        let back = Baseline::parse(&rendered).expect("parses");
        assert_eq!(back, b);
        assert!(Baseline::parse("{\"schema\":1}").is_err());
        assert!(Baseline::parse(
            "{\"schema\":1,\"metrics\":{\"k\":{\"value\":1,\"direction\":\"sideways\",\"tolerance_pct\":1}}}"
        )
        .unwrap_err()
        .contains("direction"));
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = baseline_one("b/goodput", 100.0, Direction::HigherIsBetter, 5.0);
        // 96 is a 4% drop: inside tolerance.
        let ok = gate(&[record("b", &[("goodput", 96.0)])], &base);
        assert!(ok.pass(), "{}", ok.render());
        // 90 is a 10% drop: regression.
        let bad = gate(&[record("b", &[("goodput", 90.0)])], &base);
        assert!(!bad.pass());
        assert!(bad.checks[0].regression);
        assert!(bad.render().contains("FAIL b/goodput"));
        // Improvement far past tolerance still passes.
        let up = gate(&[record("b", &[("goodput", 200.0)])], &base);
        assert!(up.pass());
    }

    #[test]
    fn gate_lower_is_better_flips_the_bad_direction() {
        let base = baseline_one("b/mem", 100.0, Direction::LowerIsBetter, 5.0);
        assert!(gate(&[record("b", &[("mem", 104.0)])], &base).pass());
        assert!(!gate(&[record("b", &[("mem", 106.0)])], &base).pass());
        assert!(gate(&[record("b", &[("mem", 10.0)])], &base).pass());
    }

    #[test]
    fn gate_fails_on_missing_bench_or_metric() {
        let base = baseline_one("ghost/m", 1.0, Direction::LowerIsBetter, 5.0);
        let out = gate(&[record("b", &[("m", 1.0)])], &base);
        assert!(!out.pass());
        assert_eq!(out.missing, vec!["ghost/m".to_string()]);
        assert!(out.render().contains("missing from history"));
    }

    #[test]
    fn gate_uses_the_latest_record_only() {
        let base = baseline_one("b/m", 100.0, Direction::HigherIsBetter, 5.0);
        // An old regression followed by a recovered run passes ...
        let records = vec![record("b", &[("m", 50.0)]), record("b", &[("m", 100.0)])];
        assert!(gate(&records, &base).pass());
        // ... and a doctored latest record fails, whatever came before.
        let doctored = vec![record("b", &[("m", 100.0)]), record("b", &[("m", 50.0)])];
        assert!(!gate(&doctored, &base).pass());
    }

    #[test]
    fn zero_baseline_compares_absolutely() {
        let base = baseline_one("b/errors", 0.0, Direction::LowerIsBetter, 5.0);
        assert!(gate(&[record("b", &[("errors", 0.0)])], &base).pass());
        assert!(!gate(&[record("b", &[("errors", 1.0)])], &base).pass());
    }

    #[test]
    fn from_metrics_flattens_every_series_kind() {
        let m = crate::Metrics::new();
        m.inc("events", 42);
        m.set_gauge("goodput", 0.9);
        m.set_gauge("bad", f64::NAN);
        m.observe_sketch("lat", 1.5);
        let r = HistoryRecord::from_metrics("b", &m);
        assert_eq!(r.metrics["events"], 42.0);
        assert_eq!(r.metrics["goodput"], 0.9);
        assert_eq!(r.metrics["lat/count"], 1.0);
        assert!(r.metrics.contains_key("lat/p50") && r.metrics.contains_key("lat/p99"));
        assert!(!r.metrics.contains_key("bad"));
    }
}
