//! Byte-stable exporters: Prometheus text exposition and a self-contained
//! HTML dashboard.
//!
//! Both render from canonically-ordered inputs (`Metrics::snapshot`, a
//! `BTreeMap` of series) with fixed-precision or shortest-roundtrip number
//! formatting, so identical runs produce identical bytes — the monitor
//! bench diffs the renders across `VF_NUM_THREADS` settings.
//!
//! Non-finite values part ways at this boundary, deliberately: the
//! Prometheus text format *has* spellings for them (`NaN`, `+Inf`, `-Inf`)
//! so the exporter emits those per spec, while the dashboard's sparklines
//! have no sensible pixel for an infinity and skip non-finite points
//! instead.

use super::health::ComponentHealth;
use crate::metrics::{Metric, Metrics};
use crate::scale::{FamilyKind, FamilyValue, OVERFLOW_LABEL};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum points per sparkline; longer series are downsampled with a
/// deterministic stride that always keeps the last point.
const SPARK_MAX_POINTS: usize = 160;

/// Sanitizes a metric name for the Prometheus exposition format: every
/// character outside `[a-zA-Z0-9_:]` becomes `_` (dots and slashes
/// included), and a name whose first character may not lead (digits) gets
/// a `_` prefix. Empty names become `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    let leads = out
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !leads {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline get backslash escapes; everything else passes
/// through verbatim.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats one label set as `k="v",k2="v2"` (keys sanitized, values
/// escaped), in the family's canonical key order.
fn format_labels(pairs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}=\"{}\"",
            sanitize_metric_name(k),
            escape_label_value(v)
        ));
    }
    out
}

/// Formats a sample value per the exposition format: finite values use
/// Rust's shortest-roundtrip rendering; non-finite values use the spec
/// literals `NaN`, `+Inf`, `-Inf`.
pub fn format_prom_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the full registry in Prometheus text exposition format, in
/// canonical name order.
///
/// Sketches render as summaries (quantile-labeled samples). When two raw
/// names sanitize to the same exposition name only the first emits a
/// `# TYPE` header (duplicate headers are invalid); both still emit their
/// samples.
pub fn render_prometheus(metrics: &Metrics) -> String {
    let mut out = String::new();
    let mut typed: BTreeSet<String> = BTreeSet::new();
    for (raw, metric) in metrics.snapshot() {
        let name = sanitize_metric_name(&raw);
        if typed.insert(name.clone()) {
            // Sketches expose as Prometheus summaries (quantile-labeled
            // samples); every other kind keeps its own exposition name.
            let type_str = match &metric {
                Metric::Sketch(_) => "summary",
                m => m.type_str(),
            };
            out.push_str(&format!("# TYPE {name} {type_str}\n"));
        }
        match metric {
            Metric::Counter(c) => out.push_str(&format!("{name} {c}\n")),
            Metric::Gauge(g) => {
                out.push_str(&format!("{name} {}\n", format_prom_value(g)));
            }
            Metric::Sketch(s) => render_prom_sketch(&name, "", &s, &mut out),
        }
    }
    for family in metrics.labeled_snapshot() {
        let name = sanitize_metric_name(&family.name);
        if typed.insert(name.clone()) {
            let type_str = match family.kind {
                FamilyKind::Counter => "counter",
                FamilyKind::Gauge => "gauge",
                FamilyKind::Sketch => "summary",
            };
            out.push_str(&format!("# TYPE {name} {type_str}\n"));
        }
        let mut rows: Vec<(Vec<(String, String)>, &FamilyValue)> = family
            .series
            .iter()
            .map(|(values, v)| {
                (
                    family.keys.iter().cloned().zip(values.iter().cloned()).collect(),
                    v,
                )
            })
            .collect();
        if let Some(ov) = &family.overflow {
            // The folded over-budget mass stays visible in the exposition
            // under the reserved overflow label value.
            rows.push((
                family
                    .keys
                    .iter()
                    .map(|k| (k.clone(), OVERFLOW_LABEL.to_string()))
                    .collect(),
                ov,
            ));
        }
        for (pairs, v) in rows {
            let labels = format_labels(&pairs);
            match v {
                FamilyValue::Counter(c) => {
                    out.push_str(&format!("{name}{{{labels}}} {c}\n"));
                }
                FamilyValue::Gauge(g) => {
                    out.push_str(&format!("{name}{{{labels}}} {}\n", format_prom_value(*g)));
                }
                FamilyValue::Sketch(s) => render_prom_sketch(&name, &labels, s, &mut out),
            }
        }
    }
    out
}

/// Renders one sketch as Prometheus summary samples: `quantile="0.5"` /
/// `quantile="0.99"` rows (merged with `labels` when present) plus a
/// `_count` row. No `_sum` row: the sketch keeps integer-only state so
/// its renders stay byte-identical under any merge order, and a float sum
/// would break that.
fn render_prom_sketch(name: &str, labels: &str, s: &crate::scale::Sketch, out: &mut String) {
    for (q, q_str) in [(0.50, "0.5"), (0.99, "0.99")] {
        if let Some(est) = s.quantile(q) {
            let merged = if labels.is_empty() {
                format!("quantile=\"{q_str}\"")
            } else {
                format!("{labels},quantile=\"{q_str}\"")
            };
            out.push_str(&format!("{name}{{{merged}}} {}\n", format_prom_value(est)));
        }
    }
    if labels.is_empty() {
        out.push_str(&format!("{name}_count {}\n", s.total()));
    } else {
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", s.total()));
    }
}

/// Escapes `&`, `<`, `>` for embedding in HTML text nodes.
fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// One series' inline SVG sparkline, or a note when nothing is drawable.
/// Only finite points are drawn; coordinates are fixed-precision so the
/// markup is byte-stable.
///
/// Long series downsample deterministically to the [`SPARK_MAX_POINTS`]
/// budget by fixed stride over the finite points, always keeping the most
/// recent one; the only materialized buffer is the sampled set, so a
/// 100k-point series renders in O(budget) memory.
fn sparkline(points: &[(u64, f64)]) -> String {
    let finite_count = points.iter().filter(|p| p.1.is_finite()).count();
    let skipped = points.len() - finite_count;
    if finite_count == 0 {
        return "<span class=\"empty\">no finite samples</span>".to_string();
    }
    // Deterministic downsample: fixed stride, always keep the last point.
    let stride = if finite_count > SPARK_MAX_POINTS {
        finite_count.div_ceil(SPARK_MAX_POINTS)
    } else {
        1
    };
    let mut sampled: Vec<(u64, f64)> = Vec::with_capacity(finite_count.div_ceil(stride) + 1);
    let mut last = (0u64, 0.0_f64);
    for (i, p) in points.iter().filter(|p| p.1.is_finite()).enumerate() {
        if i % stride == 0 {
            sampled.push(*p);
        }
        if i == finite_count - 1 {
            last = *p;
        }
    }
    if sampled.last() != Some(&last) {
        sampled.push(last);
    }
    let (w, h, pad) = (240.0, 48.0, 4.0);
    let t0 = sampled[0].0 as f64;
    let t1 = sampled[sampled.len() - 1].0 as f64;
    let t_span = (t1 - t0).max(1.0);
    let vmin = sampled.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let vmax = sampled.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let v_span = (vmax - vmin).max(1e-12);
    let coords: Vec<String> = sampled
        .iter()
        .map(|&(t, v)| {
            let x = pad + (t as f64 - t0) / t_span * (w - 2.0 * pad);
            let y = h - pad - (v - vmin) / v_span * (h - 2.0 * pad);
            format!("{x:.2},{y:.2}")
        })
        .collect();
    let mut out = format!(
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\">\
         <polyline fill=\"none\" stroke=\"#2a6\" stroke-width=\"1.5\" points=\"{}\"/></svg>",
        coords.join(" ")
    );
    out.push_str(&format!(
        "<span class=\"stats\">last={} min={} max={} n={}{}</span>",
        format_prom_value(sampled[sampled.len() - 1].1),
        format_prom_value(vmin),
        format_prom_value(vmax),
        points.len(),
        if skipped > 0 {
            format!(" (skipped {skipped} non-finite)")
        } else {
            String::new()
        },
    ));
    out
}

/// Renders a self-contained HTML dashboard: a health badge strip followed
/// by one card per series with an inline SVG sparkline. `series` is the
/// `counter_series`-shaped map `(name → [(t_us, value)])` that both the
/// monitor's store and the trace profiler produce. Byte-stable for equal
/// inputs; non-finite points are skipped (and counted) per card.
pub fn render_dashboard(
    title: &str,
    series: &BTreeMap<String, Vec<(u64, f64)>>,
    health: &[ComponentHealth],
) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>");
    out.push_str(&escape_html(title));
    out.push_str(
        "</title><style>\
         body{font-family:monospace;background:#111;color:#ddd;margin:1em}\
         h1{font-size:1.2em}\
         .badge{display:inline-block;padding:2px 8px;margin-right:6px;border-radius:3px}\
         .HEALTHY{background:#183}.DEGRADED{background:#a70}.UNHEALTHY{background:#a22}\
         .card{border:1px solid #333;padding:6px;margin:4px 0}\
         .card h2{font-size:0.9em;margin:0 0 4px 0}\
         .stats,.empty{color:#888;font-size:0.8em;margin-left:8px}\
         </style></head>\n<body>\n<h1>",
    );
    out.push_str(&escape_html(title));
    out.push_str("</h1>\n<p>");
    for row in health {
        out.push_str(&format!(
            "<span class=\"badge {level}\">{name}: {level}</span>",
            level = row.level.name(),
            name = row.component.name(),
        ));
        if !row.firing.is_empty() {
            out.push_str(&format!(
                "<span class=\"stats\">firing: {}</span>",
                escape_html(&row.firing.join(", "))
            ));
        }
    }
    out.push_str("</p>\n");
    for (name, points) in series {
        out.push_str(&format!(
            "<div class=\"card\"><h2>{}</h2>{}</div>\n",
            escape_html(name),
            sparkline(points)
        ));
    }
    out.push_str(&format!("<p class=\"stats\">{} series</p>\n</body></html>\n", series.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_sanitization_maps_dots_and_slashes_to_underscores() {
        assert_eq!(sanitize_metric_name("gemm.256.fast_gflops"), "gemm_256_fast_gflops");
        assert_eq!(sanitize_metric_name("comm/retries"), "comm_retries");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("ns:total"), "ns:total");
    }

    #[test]
    fn name_sanitization_fixes_invalid_leading_chars() {
        assert_eq!(sanitize_metric_name("2xx"), "_2xx");
        assert_eq!(sanitize_metric_name(".lead"), "_lead");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("_ok"), "_ok");
    }

    #[test]
    fn prom_values_spell_nonfinite_per_spec() {
        assert_eq!(format_prom_value(f64::NAN), "NaN");
        assert_eq!(format_prom_value(f64::INFINITY), "+Inf");
        assert_eq!(format_prom_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_prom_value(1.5), "1.5");
        assert_eq!(format_prom_value(-0.25), "-0.25");
    }

    #[test]
    fn prometheus_export_emits_nonfinite_gauges_not_null() {
        let m = Metrics::new();
        m.set_gauge("train/loss", f64::NAN);
        m.set_gauge("util", f64::INFINITY);
        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE train_loss gauge\ntrain_loss NaN\n"), "{text}");
        assert!(text.contains("# TYPE util gauge\nutil +Inf\n"), "{text}");
        assert!(!text.contains("null"), "JSON's null spelling must not leak: {text}");
    }

    #[test]
    fn prometheus_counters_and_name_collisions() {
        let m = Metrics::new();
        m.inc("a.b", 3);
        m.inc("a/b", 4);
        let text = render_prometheus(&m);
        // Both samples present, but only one TYPE header for the shared
        // sanitized name.
        assert_eq!(text.matches("# TYPE a_b counter").count(), 1);
        assert_eq!(text.matches("a_b 3").count(), 1);
        assert_eq!(text.matches("a_b 4").count(), 1);
    }

    #[test]
    fn prometheus_renders_labeled_families_with_escaped_values() {
        let m = Metrics::new();
        m.set_cardinality_budget("sched/done", 2);
        m.counter_with("sched/done", &[("tenant", "a\"b\\c\nd")], 3);
        m.counter_with("sched/done", &[("tenant", "t1")], 5);
        m.counter_with("sched/done", &[("tenant", "t2")], 7); // over budget
        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE sched_done counter\n"), "{text}");
        assert!(
            text.contains("sched_done{tenant=\"a\\\"b\\\\c\\nd\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("sched_done{tenant=\"t1\"} 5\n"), "{text}");
        assert!(
            text.contains("sched_done{tenant=\"__overflow__\"} 7\n"),
            "over-budget mass stays visible: {text}"
        );
        // Byte-stable however the samples arrived.
        let m2 = Metrics::new();
        m2.set_cardinality_budget("sched/done", 2);
        m2.counter_with("sched/done", &[("tenant", "t1")], 5);
        m2.counter_with("sched/done", &[("tenant", "a\"b\\c\nd")], 3);
        m2.counter_with("sched/done", &[("tenant", "t2")], 7);
        assert_eq!(text, render_prometheus(&m2));
    }

    #[test]
    fn prometheus_renders_sketches_as_summaries() {
        let m = Metrics::new();
        for v in [0.010, 0.012, 5.0] {
            m.observe_sketch("jct_s", v);
        }
        m.observe_sketch_with("step_s", &[("job", "1")], 0.25);
        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE jct_s summary\n"), "{text}");
        assert!(text.contains("jct_s{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("jct_s{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("jct_s_count 3\n"), "{text}");
        assert!(text.contains("# TYPE step_s summary\n"), "{text}");
        assert!(text.contains("step_s{job=\"1\",quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("step_s_count{job=\"1\"} 1\n"), "{text}");
    }

    #[test]
    fn sparkline_pins_its_svg_for_a_100k_sample_series() {
        // 100k points stride down to the fixed budget in O(budget) memory,
        // and the exact SVG bytes are pinned so any renderer change that
        // shifts sampling or precision is caught here.
        let mut series = BTreeMap::new();
        let long: Vec<(u64, f64)> =
            (0..100_000u64).map(|i| (i * 1_000, (i % 97) as f64)).collect();
        series.insert("big".to_string(), long.clone());
        let html = render_dashboard("t", &series, &[]);
        let points = html.split("points=\"").nth(1).unwrap().split('"').next().unwrap();
        let n = points.split(' ').count();
        assert!(n <= SPARK_MAX_POINTS + 1, "budgeted to {n}");
        let first_pairs: Vec<&str> = points.split(' ').take(3).collect();
        assert_eq!(
            first_pairs,
            vec!["4.00,44.00", "5.45,26.08", "6.90,8.17"],
            "pinned SVG head moved: {first_pairs:?}"
        );
        assert!(points.ends_with("236.00,6.92"), "last point pinned: {points}");
        assert!(html.contains("n=100000"), "{html}");
        // Same input renders the same bytes, every time.
        assert_eq!(html, render_dashboard("t", &series, &[]));
    }

    #[test]
    fn dashboard_skips_nonfinite_points_and_counts_them() {
        let mut series = BTreeMap::new();
        series.insert(
            "loss".to_string(),
            vec![(0u64, 1.0), (1_000_000, f64::NAN), (2_000_000, 0.5)],
        );
        let html = render_dashboard("t", &series, &[]);
        assert!(html.contains("skipped 1 non-finite"), "{html}");
        // Two finite points → polyline with exactly two coordinate pairs.
        let points = html.split("points=\"").nth(1).unwrap().split('"').next().unwrap();
        assert_eq!(points.split(' ').count(), 2, "points: {points}");
        assert!(!html.contains("NaN,"), "no NaN coordinate may reach the SVG");
    }

    #[test]
    fn dashboard_with_only_nonfinite_points_renders_a_note() {
        let mut series = BTreeMap::new();
        series.insert("bad".to_string(), vec![(0u64, f64::INFINITY)]);
        let html = render_dashboard("t", &series, &[]);
        assert!(html.contains("no finite samples"), "{html}");
        assert!(!html.contains("<polyline"), "nothing drawable: {html}");
    }

    #[test]
    fn dashboard_is_byte_stable_and_downsamples_long_series() {
        let mut series = BTreeMap::new();
        let long: Vec<(u64, f64)> =
            (0..1000u64).map(|i| (i * 1_000, (i % 7) as f64)).collect();
        series.insert("busy".to_string(), long);
        let a = render_dashboard("t", &series, &[]);
        let b = render_dashboard("t", &series, &[]);
        assert_eq!(a, b);
        let points = a.split("points=\"").nth(1).unwrap().split('"').next().unwrap();
        let n = points.split(' ').count();
        assert!(n <= SPARK_MAX_POINTS + 1, "downsampled to {n}");
        // The last point always survives downsampling.
        assert!(a.contains("n=1000"), "{a}");
    }

    #[test]
    fn dashboard_escapes_html_in_titles_and_names() {
        let mut series = BTreeMap::new();
        series.insert("a<b".to_string(), vec![(0u64, 1.0)]);
        let html = render_dashboard("x & <y>", &series, &[]);
        assert!(html.contains("x &amp; &lt;y&gt;"));
        assert!(html.contains("<h2>a&lt;b</h2>"));
    }
}
