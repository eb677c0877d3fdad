//! A deterministic metrics registry: counters, gauges, and quantile
//! sketches.
//!
//! Everything is `BTreeMap`-backed (the workspace's `hash-iteration` lint
//! forbids hash-ordered collections in library code), so snapshots and the
//! JSON rendering enumerate series in one canonical order. The bench
//! harnesses route their headline numbers through a registry so
//! `results/BENCH_*.json` files and traces share one schema.

use crate::json::{escape_into, push_f64};
use crate::scale::{FamilyKind, FamilySnapshot, FamilyValue, LabeledStore, Sketch};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// One metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-value-wins sample.
    Gauge(f64),
    /// A deterministic relative-error quantile sketch
    /// ([`crate::scale::Sketch`]): bounded state for unbounded streams.
    Sketch(Sketch),
}

impl Metric {
    /// The series kind as its canonical exposition name.
    pub fn type_str(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Sketch(_) => "sketch",
        }
    }
}

/// A thread-safe registry of named metrics.
///
/// # Examples
///
/// ```
/// use vf_obs::Metrics;
///
/// let m = Metrics::new();
/// m.inc("steps", 3);
/// m.set_gauge("gemm.256.fast_gflops", 12.5);
/// m.observe_sketch("speedup", 5.3);
/// assert!(m.to_json().contains("\"steps\""));
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    series: Mutex<BTreeMap<String, Metric>>,
    labeled: Mutex<LabeledStore>,
}

/// Point-in-time size accounting of a registry — the obs layer metering
/// its own footprint (DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Flat (unlabeled) series.
    pub flat_series: usize,
    /// Labeled metric families.
    pub families: usize,
    /// Concrete labeled series across all families (excluding overflow).
    pub labeled_series: usize,
    /// Distinct interned label strings.
    pub interned_strings: usize,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Metric>) -> R) -> R {
        let mut map = self.series.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut map)
    }

    fn with_labeled<R>(&self, f: impl FnOnce(&mut LabeledStore) -> R) -> R {
        let mut store = self.labeled.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut store)
    }

    /// Adds `delta` to counter `name` (created at zero), saturating at
    /// `u64::MAX` — a counter that has run for a very long time pins at the
    /// ceiling instead of wrapping (or panicking in debug builds). If
    /// `name` exists with a different type it is replaced — last writer
    /// wins, loudly visible in the snapshot rather than silently dropped.
    pub fn inc(&self, name: &str, delta: u64) {
        self.with(|map| {
            match map.get_mut(name) {
                Some(Metric::Counter(c)) => *c = c.saturating_add(delta),
                _ => {
                    map.insert(name.to_string(), Metric::Counter(delta));
                }
            };
        });
    }

    /// Sets gauge `name` to `value` (last value wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.with(|map| {
            map.insert(name.to_string(), Metric::Gauge(value));
        });
    }

    /// Sets counter `name` to the absolute cumulative `value`, keeping the
    /// counter monotone (a stale mirror never rewinds it). This is the
    /// bridge for components that accumulate their own cumulative counts
    /// (chaos reports, store counters) and republish them into a shared
    /// registry each tick — the monitor's sampler then derives windowed
    /// rates from the deltas. If `name` exists with a different type it is
    /// replaced, matching [`Metrics::inc`] semantics.
    pub fn set_counter(&self, name: &str, value: u64) {
        self.with(|map| {
            match map.get_mut(name) {
                Some(Metric::Counter(c)) => *c = (*c).max(value),
                _ => {
                    map.insert(name.to_string(), Metric::Counter(value));
                }
            };
        });
    }

    /// The current value of series `name`, if present.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.with(|map| map.get(name).cloned())
    }

    /// Observes `value` into the deterministic quantile sketch `name`
    /// (created on first touch). Sketches hold bounded state for unbounded
    /// streams — the right shape for JCT / step-time distributions on
    /// 100k-job runs where raw-sample retention would grow without bound.
    pub fn observe_sketch(&self, name: &str, value: f64) {
        self.with(|map| {
            let metric = map
                .entry(name.to_string())
                .or_insert_with(|| Metric::Sketch(Sketch::new()));
            match metric {
                Metric::Sketch(s) => s.observe(value),
                other => {
                    let mut s = Sketch::new();
                    s.observe(value);
                    *other = Metric::Sketch(s);
                }
            }
        });
    }

    /// Adds `delta` to the labeled counter `name{labels}`. Per-entity
    /// dimensions (job ids, tenants, device classes) go here instead of
    /// into metric names: the family enforces a hard cardinality budget
    /// and folds over-budget label sets into a counted `__overflow__`
    /// series, so registry size is bounded and no sample is silently lost.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.with_labeled(|store| {
            store.route(name, FamilyKind::Counter, labels, |v| {
                if let FamilyValue::Counter(c) = v {
                    *c = c.saturating_add(delta);
                }
            });
        });
    }

    /// Sets the labeled counter `name{labels}` to the absolute cumulative
    /// `value`, keeping it monotone — the labeled twin of
    /// [`Metrics::set_counter`].
    pub fn set_counter_with(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.with_labeled(|store| {
            store.route(name, FamilyKind::Counter, labels, |v| {
                if let FamilyValue::Counter(c) = v {
                    *c = (*c).max(value);
                }
            });
        });
    }

    /// Sets the labeled gauge `name{labels}` to `value` (last value wins
    /// per label set; the fleet rollup aggregates by sum).
    pub fn set_gauge_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.with_labeled(|store| {
            store.route(name, FamilyKind::Gauge, labels, |v| {
                if let FamilyValue::Gauge(g) = v {
                    *g = value;
                }
            });
        });
    }

    /// Observes `value` into the labeled sketch `name{labels}` — per-label
    /// quantile distributions (JCT by tenant, step time by device class)
    /// under the family's cardinality budget.
    pub fn observe_sketch_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.with_labeled(|store| {
            store.route(name, FamilyKind::Sketch, labels, |v| {
                if let FamilyValue::Sketch(s) = v {
                    s.observe(value);
                }
            });
        });
    }

    /// Sets the cardinality budget of labeled family `name` (default
    /// [`crate::scale::DEFAULT_CARDINALITY_BUDGET`]). Shrinking below the
    /// current series count keeps recorded series; only *new* label sets
    /// fold into overflow.
    pub fn set_cardinality_budget(&self, name: &str, budget: usize) {
        self.with_labeled(|store| store.set_budget(name, budget));
    }

    /// Resolved snapshots of every labeled family, canonically ordered.
    pub fn labeled_snapshot(&self) -> Vec<FamilySnapshot> {
        self.with_labeled(|store| store.snapshot())
    }

    /// Samples unaccounted for across all labeled families — the "zero
    /// silent drops" invariant. Anything non-zero is a registry bug; the
    /// bench gate pins it at zero.
    pub fn silent_drops(&self) -> u64 {
        self.labeled_snapshot()
            .iter()
            .map(FamilySnapshot::unaccounted)
            .fold(0u64, u64::saturating_add)
    }

    /// The registry's own size accounting (obs self-overhead metering).
    pub fn registry_stats(&self) -> RegistryStats {
        let flat_series = self.with(|map| map.len());
        self.with_labeled(|store| RegistryStats {
            flat_series,
            families: store.family_count(),
            labeled_series: store.series_count(),
            interned_strings: store.interned_strings(),
        })
    }

    /// A point-in-time copy of every series, in name order.
    pub fn snapshot(&self) -> BTreeMap<String, Metric> {
        self.with(|map| map.clone())
    }

    /// Renders the registry as a canonical JSON object:
    /// `{"name": {"type": "...", ...}, ...}` — flat series and labeled
    /// families merged in name order. Non-finite gauge values render as
    /// `null`.
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut entries: BTreeMap<String, String> = BTreeMap::new();
        for (name, metric) in &snap {
            let mut out = String::new();
            render_metric_json(metric, &mut out);
            entries.insert(name.clone(), out);
        }
        for family in self.labeled_snapshot() {
            let mut out = String::from("{\"type\":\"family\",\"kind\":\"");
            out.push_str(family.kind.type_str());
            out.push_str("\",\"keys\":[");
            for (i, k) in family.keys.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(k, &mut out);
                out.push('"');
            }
            out.push_str("],\"budget\":");
            out.push_str(&family.budget.to_string());
            out.push_str(",\"series\":[");
            for (i, (values, v)) in family.series.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":[");
                for (j, val) in values.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(val, &mut out);
                    out.push('"');
                }
                out.push_str("],\"value\":");
                render_family_value_json(v, &mut out);
                out.push('}');
            }
            out.push_str("],\"overflow\":");
            match &family.overflow {
                Some(v) => render_family_value_json(v, &mut out),
                None => out.push_str("null"),
            }
            out.push_str(&format!(
                ",\"overflow_samples\":{},\"counted_drops\":{},\"total_samples\":{}}}",
                family.overflow_samples, family.counted_drops, family.total_samples
            ));
            entries.entry(family.name.clone()).or_insert(out);
        }
        let mut out = String::from("{");
        for (i, (name, rendered)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(name, &mut out);
            out.push_str("\":");
            out.push_str(rendered);
        }
        out.push('}');
        out
    }
}

/// Renders one flat metric's JSON value (the part after `"name":`).
fn render_metric_json(metric: &Metric, out: &mut String) {
    match metric {
        Metric::Counter(c) => {
            out.push_str("{\"type\":\"counter\",\"value\":");
            out.push_str(&c.to_string());
            out.push('}');
        }
        Metric::Gauge(g) => {
            out.push_str("{\"type\":\"gauge\",\"value\":");
            push_f64(*g, out);
            out.push('}');
        }
        Metric::Sketch(s) => out.push_str(&s.render()),
    }
}

/// Renders one labeled series value: counters as bare integers, gauges as
/// canonical floats (non-finite → `null`), sketches as their canonical
/// object render.
fn render_family_value_json(v: &FamilyValue, out: &mut String) {
    match v {
        FamilyValue::Counter(c) => out.push_str(&c.to_string()),
        FamilyValue::Gauge(g) => push_f64(*g, out),
        FamilyValue::Sketch(s) => out.push_str(&s.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let m = Metrics::new();
        m.inc("steps", 2);
        m.inc("steps", 3);
        m.set_gauge("loss", 0.5);
        m.set_gauge("loss", 0.25);
        let snap = m.snapshot();
        assert_eq!(snap["steps"], Metric::Counter(5));
        assert_eq!(snap["loss"], Metric::Gauge(0.25));
    }

    #[test]
    fn json_rendering_is_canonical_and_name_ordered() {
        let m = Metrics::new();
        m.set_gauge("b", 2.0);
        m.inc("a", 1);
        m.set_gauge("c", f64::INFINITY);
        let json = m.to_json();
        assert_eq!(
            json,
            r#"{"a":{"type":"counter","value":1},"b":{"type":"gauge","value":2},"c":{"type":"gauge","value":null}}"#
        );
        // Two registries built in different orders render identically.
        let m2 = Metrics::new();
        m2.set_gauge("c", f64::INFINITY);
        m2.set_gauge("b", 2.0);
        m2.inc("a", 1);
        assert_eq!(json, m2.to_json());
    }

    #[test]
    fn type_conflicts_resolve_last_writer_wins() {
        let m = Metrics::new();
        m.set_gauge("x", 1.0);
        m.inc("x", 2);
        assert_eq!(m.snapshot()["x"], Metric::Counter(2));
        m.observe_sketch("x", 0.5);
        assert!(matches!(m.snapshot()["x"], Metric::Sketch(_)));
    }

    #[test]
    fn set_counter_mirrors_monotonically() {
        let m = Metrics::new();
        m.set_counter("c", 5);
        assert_eq!(m.get("c"), Some(Metric::Counter(5)));
        m.set_counter("c", 9);
        assert_eq!(m.get("c"), Some(Metric::Counter(9)));
        // A stale mirror never rewinds the counter.
        m.set_counter("c", 3);
        assert_eq!(m.get("c"), Some(Metric::Counter(9)));
        // Mixing with inc keeps working: inc adds on top of the mirror.
        m.inc("c", 1);
        assert_eq!(m.get("c"), Some(Metric::Counter(10)));
        // Type conflicts resolve last-writer-wins like every other setter.
        m.set_gauge("g", 1.0);
        m.set_counter("g", 2);
        assert_eq!(m.get("g"), Some(Metric::Counter(2)));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn sketch_metric_registers_and_renders_canonically() {
        let m = Metrics::new();
        m.observe_sketch("jct", 1.0);
        m.observe_sketch("jct", f64::NAN);
        let Metric::Sketch(s) = m.get("jct").unwrap() else {
            panic!("sketch expected");
        };
        assert_eq!(s.total(), 2);
        let json = m.to_json();
        assert!(json.contains("\"jct\":{\"type\":\"sketch\""), "{json}");
        assert!(json.contains("\"nonfinite\":1"), "{json}");
        // Type conflicts resolve last-writer-wins like every other kind.
        m.inc("jct", 1);
        assert!(matches!(m.get("jct"), Some(Metric::Counter(1))));
        m.observe_sketch("jct", 2.0);
        assert!(matches!(m.get("jct"), Some(Metric::Sketch(_))));
    }

    #[test]
    fn labeled_families_render_into_json_and_account_exactly() {
        let m = Metrics::new();
        m.set_cardinality_budget("sched/completions", 2);
        for (tenant, n) in [("t0", 1), ("t1", 2), ("t2", 4), ("t0", 8)] {
            m.counter_with("sched/completions", &[("tenant", tenant)], n);
        }
        m.set_gauge_with("util", &[("device_class", "v100")], 0.5);
        m.observe_sketch_with("jct", &[("tenant", "t0")], 3.0);
        let json = m.to_json();
        assert!(
            json.contains(
                "\"sched/completions\":{\"type\":\"family\",\"kind\":\"counter\",\"keys\":[\"tenant\"],\"budget\":2"
            ),
            "{json}"
        );
        // t2 arrived past the budget → overflow carries its 4.
        assert!(json.contains("\"overflow\":4,\"overflow_samples\":1"), "{json}");
        assert_eq!(m.silent_drops(), 0);
        let stats = m.registry_stats();
        assert_eq!(stats.families, 3);
        assert_eq!(stats.labeled_series, 4); // 2 + 1 + 1
        assert!(stats.interned_strings >= 6);
        // set_counter_with mirrors monotonically like set_counter.
        m.set_counter_with("mir", &[("job", "1")], 5);
        m.set_counter_with("mir", &[("job", "1")], 3);
        let fam = m
            .labeled_snapshot()
            .into_iter()
            .find(|f| f.name == "mir")
            .unwrap();
        assert!(matches!(fam.series[0].1, crate::FamilyValue::Counter(5)));
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let m = Metrics::new();
        m.inc("c", u64::MAX - 1);
        m.inc("c", 5);
        assert_eq!(m.snapshot()["c"], Metric::Counter(u64::MAX));
        m.inc("c", u64::MAX);
        assert_eq!(m.snapshot()["c"], Metric::Counter(u64::MAX), "stays pinned");
    }
}
