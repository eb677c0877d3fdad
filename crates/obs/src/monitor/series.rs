//! The deterministic time-series store behind the monitor.
//!
//! [`SeriesStore::sample`] snapshots a [`Metrics`](crate::Metrics) registry
//! at one simulated-time tick and appends, per series, the points the
//! alerting rules and exporters consume:
//!
//! * **counters** — the cumulative value under the metric's own name, plus
//!   a per-tick rate under `<name>/rate` (delta over the tick interval,
//!   per second);
//! * **gauges** — the raw value, *including* non-finite samples: a NaN
//!   loss is exactly the signal the `train/nonfinite-loss` rule exists to
//!   see, so the store keeps it and the exporters skip it instead;
//! * **sketches** — `<name>/p50`, `<name>/p99`, and `<name>/count` from
//!   [`Sketch::quantile`](crate::scale::Sketch::quantile);
//! * **labeled families** — fleet-level aggregates only (`<name>/sum`
//!   plus the bounded-registry accounting series
//!   `<name>/overflow_samples` and `<name>/counted_drops`): per-label
//!   time series would reintroduce the cardinality explosion the labeled
//!   store exists to prevent, so dimensional drill-down stays in
//!   snapshot/rollup views.
//!
//! For long runs the store supports **bounded retention**
//! ([`SeriesStore::set_retention`]): when a series exceeds the cap it is
//! decimated deterministically — every other point is dropped, the most
//! recent point is always kept — and every dropped point is counted in
//! [`SeriesStore::points_decimated`] (zero silent drops). `latest` stays
//! exact, so alert rules keyed on current values are unaffected.
//!
//! Everything is `BTreeMap`-keyed in canonical name order and every
//! derived number is a pure function of (registry contents, tick times),
//! so two identical runs — whatever `VF_NUM_THREADS` says — produce
//! byte-identical series, and therefore byte-identical alerts, dashboards,
//! and status boards downstream.

use crate::metrics::{Metric, Metrics};
use std::collections::BTreeMap;

/// One sampled point: (simulated microseconds, value).
pub type Point = (u64, f64);

/// Rolling-window summary of one series (finite samples only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Finite samples inside the window.
    pub count: usize,
    /// First finite value in the window.
    pub first: f64,
    /// Last finite value in the window.
    pub last: f64,
    /// Smallest finite value in the window.
    pub min: f64,
    /// Largest finite value in the window.
    pub max: f64,
    /// Mean of the finite values in the window.
    pub mean: f64,
}

/// Append-only store of sampled series, keyed in canonical name order.
#[derive(Debug, Clone, Default)]
pub struct SeriesStore {
    series: BTreeMap<String, Vec<Point>>,
    prev_counters: BTreeMap<String, u64>,
    last_sample_us: Option<u64>,
    /// Per-series point cap; `None` retains everything (the historical
    /// default, right for short runs and byte-identity tests).
    retention: Option<usize>,
    /// Points dropped by retention decimation — counted, never silent.
    points_decimated: u64,
}

impl SeriesStore {
    /// An empty store.
    pub fn new() -> Self {
        SeriesStore::default()
    }

    /// Caps every series at `cap` points (floor 2, so the first and most
    /// recent samples always survive). When a series grows past the cap it
    /// is halved deterministically: even-indexed points are kept, plus
    /// always the most recent point; the drop count lands in
    /// [`SeriesStore::points_decimated`]. Decimation is a pure function of
    /// the sample sequence, so two identical runs decimate identically.
    pub fn set_retention(&mut self, cap: usize) {
        self.retention = Some(cap.max(2));
    }

    /// Points dropped so far by retention decimation.
    pub fn points_decimated(&self) -> u64 {
        self.points_decimated
    }

    /// Timestamp of the most recent sample, if any.
    pub fn last_sample_us(&self) -> Option<u64> {
        self.last_sample_us
    }

    /// Samples every series of `metrics` at simulated time `t_us`.
    ///
    /// Ticks must not go backwards (the clock they mirror is monotonic); a
    /// stale tick is ignored. Re-sampling at the *same* timestamp replaces
    /// that tick's points instead of duplicating them, so an event-driven
    /// caller may tick once per coalesced event batch.
    pub fn sample(&mut self, t_us: u64, metrics: &Metrics) {
        match self.last_sample_us {
            Some(last) if t_us < last => return, // stale tick: ignore
            _ => {}
        }
        let same_tick = self.last_sample_us == Some(t_us);
        let dt_s = match self.last_sample_us {
            Some(last) if t_us > last => (t_us - last) as f64 / 1e6,
            _ => 0.0,
        };
        for (name, metric) in metrics.snapshot() {
            match metric {
                Metric::Counter(c) => {
                    let prev = self.prev_counters.get(&name).copied().unwrap_or(0);
                    let delta = c.saturating_sub(prev);
                    let rate = if dt_s > 0.0 { delta as f64 / dt_s } else { 0.0 };
                    self.push(&name, t_us, c as f64, same_tick);
                    self.push(&format!("{name}/rate"), t_us, rate, same_tick);
                    self.prev_counters.insert(name, c);
                }
                Metric::Gauge(g) => self.push(&name, t_us, g, same_tick),
                Metric::Sketch(s) => {
                    if let Some(p50) = s.quantile(0.50) {
                        self.push(&format!("{name}/p50"), t_us, p50, same_tick);
                    }
                    if let Some(p99) = s.quantile(0.99) {
                        self.push(&format!("{name}/p99"), t_us, p99, same_tick);
                    }
                    self.push(&format!("{name}/count"), t_us, s.total() as f64, same_tick);
                }
            }
        }
        for family in metrics.labeled_snapshot() {
            let name = &family.name;
            self.push(&format!("{name}/sum"), t_us, family.scalar_sum(), same_tick);
            self.push(
                &format!("{name}/overflow_samples"),
                t_us,
                family.overflow_samples as f64,
                same_tick,
            );
            self.push(
                &format!("{name}/counted_drops"),
                t_us,
                family.counted_drops as f64,
                same_tick,
            );
        }
        self.last_sample_us = Some(t_us);
    }

    fn push(&mut self, name: &str, t_us: u64, value: f64, same_tick: bool) {
        let points = self.series.entry(name.to_string()).or_default();
        match points.last_mut() {
            Some(last) if same_tick && last.0 == t_us => last.1 = value,
            _ => points.push((t_us, value)),
        }
        if let Some(cap) = self.retention {
            if points.len() > cap {
                self.points_decimated =
                    self.points_decimated.saturating_add(decimate(points) as u64);
            }
        }
    }

    /// Every stored series, in canonical name order.
    pub fn series(&self) -> &BTreeMap<String, Vec<Point>> {
        &self.series
    }

    /// The most recent sample of `name` (which may be non-finite).
    pub fn latest(&self, name: &str) -> Option<Point> {
        self.series.get(name)?.last().copied()
    }

    /// The value of `name` at or before `t_us`, if any sample qualifies.
    pub fn value_at_or_before(&self, name: &str, t_us: u64) -> Option<f64> {
        let points = self.series.get(name)?;
        let idx = points.partition_point(|&(ts, _)| ts <= t_us);
        idx.checked_sub(1).map(|i| points[i].1)
    }

    /// Increase of a *cumulative* series over the trailing window
    /// `(now_us - window_us, now_us]`: latest value minus the value at or
    /// before the window start. A series younger than the window is
    /// measured from zero — cumulative counters logically start there —
    /// and a decrease (which a monotone mirror never produces) clamps to
    /// zero. Returns 0 for an absent series.
    pub fn delta_over(&self, name: &str, now_us: u64, window_us: u64) -> f64 {
        let Some((_, last)) = self.latest(name) else {
            return 0.0;
        };
        if !last.is_finite() {
            return 0.0;
        }
        let start = now_us.saturating_sub(window_us);
        let then = self
            .value_at_or_before(name, start)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        (last - then).max(0.0)
    }

    /// Per-second rate of a cumulative series over the trailing window:
    /// [`SeriesStore::delta_over`] divided by the window span.
    pub fn rate_over(&self, name: &str, now_us: u64, window_us: u64) -> f64 {
        if window_us == 0 {
            return 0.0;
        }
        self.delta_over(name, now_us, window_us) / (window_us as f64 / 1e6)
    }

    /// Summary of the finite samples of `name` inside the trailing window
    /// `(now_us - window_us, now_us]`, or `None` when no finite sample
    /// falls there.
    pub fn window_stats(&self, name: &str, now_us: u64, window_us: u64) -> Option<WindowStats> {
        let points = self.series.get(name)?;
        let start = now_us.saturating_sub(window_us);
        let mut stats: Option<WindowStats> = None;
        let mut sum = 0.0;
        for &(ts, v) in points {
            if ts <= start || ts > now_us || !v.is_finite() {
                continue;
            }
            sum += v;
            match stats.as_mut() {
                None => {
                    stats = Some(WindowStats {
                        count: 1,
                        first: v,
                        last: v,
                        min: v,
                        max: v,
                        mean: v,
                    });
                }
                Some(s) => {
                    s.count += 1;
                    s.last = v;
                    s.min = s.min.min(v);
                    s.max = s.max.max(v);
                    s.mean = sum / s.count as f64;
                }
            }
        }
        stats
    }
}

/// Halves a series in place for retention: even-indexed points are kept
/// and the most recent point always survives (so `latest` stays exact).
/// Returns how many points were dropped.
fn decimate(points: &mut Vec<Point>) -> usize {
    let before = points.len();
    if before < 3 {
        return 0;
    }
    let last = points[before - 1];
    let mut keep = 0;
    for i in (0..before).step_by(2) {
        points[keep] = points[i];
        keep += 1;
    }
    points.truncate(keep);
    if points.last() != Some(&last) {
        points.push(last);
    }
    before - points.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_produce_cumulative_and_rate_series() {
        let m = Metrics::new();
        let mut s = SeriesStore::new();
        m.inc("reqs", 10);
        s.sample(1_000_000, &m);
        m.inc("reqs", 30);
        s.sample(3_000_000, &m); // 30 more over 2 s → 15/s
        assert_eq!(s.series()["reqs"], vec![(1_000_000, 10.0), (3_000_000, 40.0)]);
        assert_eq!(
            s.series()["reqs/rate"],
            vec![(1_000_000, 0.0), (3_000_000, 15.0)]
        );
        assert_eq!(s.latest("reqs"), Some((3_000_000, 40.0)));
    }

    #[test]
    fn gauges_keep_nonfinite_samples() {
        let m = Metrics::new();
        let mut s = SeriesStore::new();
        m.set_gauge("loss", 0.5);
        s.sample(0, &m);
        m.set_gauge("loss", f64::NAN);
        s.sample(1_000_000, &m);
        let points = &s.series()["loss"];
        assert_eq!(points[0], (0, 0.5));
        assert!(points[1].1.is_nan(), "the store must keep the NaN sample");
    }

    #[test]
    fn stale_ticks_are_ignored_and_equal_ticks_replace() {
        let m = Metrics::new();
        let mut s = SeriesStore::new();
        m.set_gauge("g", 1.0);
        s.sample(5_000_000, &m);
        m.set_gauge("g", 2.0);
        s.sample(4_000_000, &m); // stale: dropped
        assert_eq!(s.series()["g"].len(), 1);
        s.sample(5_000_000, &m); // same tick: replaced, not duplicated
        assert_eq!(s.series()["g"], vec![(5_000_000, 2.0)]);
        assert_eq!(s.last_sample_us(), Some(5_000_000));
    }

    #[test]
    fn delta_and_rate_measure_the_trailing_window() {
        let m = Metrics::new();
        let mut s = SeriesStore::new();
        for (t, total) in [(0u64, 0u64), (10, 5), (20, 5), (30, 25)] {
            m.set_counter("errs", total);
            s.sample(t * 1_000_000, &m);
        }
        // Window (10s, 30s]: 25 - value@10s(=5) = 20 → 1/s over 20 s.
        assert_eq!(s.delta_over("errs", 30_000_000, 20_000_000), 20.0);
        assert_eq!(s.rate_over("errs", 30_000_000, 20_000_000), 1.0);
        // A window covering the whole series measures from zero.
        assert_eq!(s.delta_over("errs", 30_000_000, 60_000_000), 25.0);
        // Absent series and zero windows are quiet zeros.
        assert_eq!(s.delta_over("ghost", 30_000_000, 10_000_000), 0.0);
        assert_eq!(s.rate_over("errs", 30_000_000, 0), 0.0);
    }

    #[test]
    fn sketches_extract_quantiles_and_counts() {
        let m = Metrics::new();
        let mut s = SeriesStore::new();
        for v in [0.5, 0.5, 1.5, f64::NAN] {
            m.observe_sketch("jct", v);
        }
        s.sample(1_000_000, &m);
        let (_, p50) = s.latest("jct/p50").unwrap();
        assert!((0.49..0.52).contains(&p50), "~0.5 within 2%: {p50}");
        assert!(s.latest("jct/p99").is_some());
        assert_eq!(s.latest("jct/count"), Some((1_000_000, 4.0)));
    }

    #[test]
    fn labeled_families_sample_as_fleet_aggregates() {
        let m = Metrics::new();
        let mut s = SeriesStore::new();
        m.set_cardinality_budget("done", 1);
        m.counter_with("done", &[("tenant", "a")], 3);
        m.counter_with("done", &[("tenant", "b")], 4); // folds into overflow
        s.sample(1_000_000, &m);
        assert_eq!(s.latest("done/sum"), Some((1_000_000, 7.0)));
        assert_eq!(s.latest("done/overflow_samples"), Some((1_000_000, 1.0)));
        assert_eq!(s.latest("done/counted_drops"), Some((1_000_000, 0.0)));
        // No per-label series leaks into the store.
        assert!(!s.series().keys().any(|k| k.contains("tenant")));
    }

    #[test]
    fn retention_decimates_deterministically_and_counts_drops() {
        let m = Metrics::new();
        let mut a = SeriesStore::new();
        a.set_retention(8);
        for t in 0..100u64 {
            m.set_gauge("g", t as f64);
            a.sample(t * 1_000_000, &m);
        }
        let points = &a.series()["g"];
        assert!(points.len() <= 8, "cap holds: {}", points.len());
        // The most recent point is always exact.
        assert_eq!(a.latest("g"), Some((99_000_000, 99.0)));
        assert!(a.points_decimated() > 0);
        // Timestamps stay strictly increasing after decimation.
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0));
        // Decimation is a pure function of the sample sequence.
        let m2 = Metrics::new();
        let mut b = SeriesStore::new();
        b.set_retention(8);
        for t in 0..100u64 {
            m2.set_gauge("g", t as f64);
            b.sample(t * 1_000_000, &m2);
        }
        assert_eq!(a.series(), b.series());
        assert_eq!(a.points_decimated(), b.points_decimated());
        // Floor of 2: first and last survive even an absurd cap.
        let mut c = SeriesStore::new();
        c.set_retention(0);
        for t in 0..10u64 {
            m.set_gauge("g", t as f64);
            c.sample(t * 1_000_000, &m);
        }
        assert!(c.series()["g"].len() >= 2);
    }

    #[test]
    fn window_queries_honor_exact_tick_edges() {
        let m = Metrics::new();
        let mut s = SeriesStore::new();
        for (t, total) in [(10u64, 10u64), (20, 30), (30, 60)] {
            m.set_counter("c", total);
            s.sample(t * 1_000_000, &m);
        }
        // Window (10s, 30s]: the sample exactly at the start (10s) is the
        // "then" reference, the one exactly at the end is included.
        assert_eq!(s.delta_over("c", 30_000_000, 20_000_000), 50.0);
        let w = s.window_stats("c", 30_000_000, 20_000_000).unwrap();
        assert_eq!(w.count, 2, "start-edge sample excluded, end included");
        assert_eq!((w.first, w.last), (30.0, 60.0));
        // A window ending before every sample is empty.
        assert!(s.window_stats("c", 5_000_000, 4_000_000).is_none());
        // now exactly on the only covered sample: still included.
        let one = s.window_stats("c", 10_000_000, 1_000_000).unwrap();
        assert_eq!((one.count, one.first), (1, 10.0));
        // Zero-width window at a sample: (t, t] is empty.
        assert!(s.window_stats("c", 10_000_000, 0).is_none());
        // delta over a window whose start predates the series measures
        // from zero; rate divides by the window, not the data span.
        assert_eq!(s.delta_over("c", 30_000_000, 25_000_000), 60.0);
        assert_eq!(s.rate_over("c", 30_000_000, 25_000_000), 60.0 / 25.0);
    }

    #[test]
    fn window_stats_cover_finite_samples_only() {
        let m = Metrics::new();
        let mut s = SeriesStore::new();
        for (t, v) in [(1u64, 4.0), (2, f64::NAN), (3, 2.0), (4, 6.0)] {
            m.set_gauge("g", v);
            s.sample(t * 1_000_000, &m);
        }
        let w = s.window_stats("g", 4_000_000, 3_000_000).unwrap();
        assert_eq!((w.count, w.first, w.last), (2, 2.0, 6.0));
        assert_eq!((w.min, w.max, w.mean), (2.0, 6.0, 4.0));
        assert!(s.window_stats("g", 4_000_000, 0).is_none());
        assert!(s.window_stats("ghost", 4_000_000, 1_000_000).is_none());
    }
}
