//! Scale-ready dimensional observability: interned label sets with hard
//! cardinality budgets, and deterministic merge-associative quantile
//! sketches.
//!
//! ROADMAP item 1 (100k-job / 10k-GPU simulations) needs telemetry whose
//! cost is *bounded by construction*. Two failure modes of naive metric
//! pipelines are addressed here:
//!
//! * **Cardinality explosions.** Encoding a job id into a metric *name*
//!   (`job42/steps`) makes the registry grow with the workload. The
//!   dimensional API keeps one *family* per metric name and attaches
//!   label sets (`[("job", "42")]`) to it. Label strings are interned
//!   once, every family carries a hard budget on distinct label sets, and
//!   sets past the budget fold deterministically into a counted
//!   `__overflow__` series — **zero silent drops**: the accounting
//!   invariant `Σ series + overflow == total samples` holds for counter
//!   families and is checked by [`FamilySnapshot::unaccounted`].
//! * **Unbounded distribution state.** Retaining raw latency/JCT samples
//!   grows without bound. [`Sketch`] is a DDSketch-style fixed-comb
//!   quantile sketch: logarithmic buckets with fixed relative accuracy
//!   [`SKETCH_ALPHA`], state that is *integers only* (bucket counts), so
//!   merging per-shard sketches is associative and commutative and every
//!   render is byte-identical regardless of merge order or thread count.
//!
//! Everything here follows the workspace determinism rules: `BTreeMap`
//! storage, canonical (label-string) render order, no ambient time, no
//! randomness.

use crate::metrics::Metric;
use std::collections::BTreeMap;

/// Relative-accuracy parameter of [`Sketch`]: the comb is fixed at
/// `gamma = (1 + α) / (1 - α)` with α = 1%, so a reported quantile `b`
/// bounds the true value `v` by `b / gamma <= v <= b` — at most ~2%
/// above the true value, never below its bucket floor.
pub const SKETCH_ALPHA: f64 = 0.01;

/// Default hard cardinality budget for a labeled metric family: distinct
/// label sets beyond this fold into the counted `__overflow__` series.
pub const DEFAULT_CARDINALITY_BUDGET: usize = 64;

/// The label value reported for series that were folded past a family's
/// cardinality budget.
pub const OVERFLOW_LABEL: &str = "__overflow__";

fn gamma() -> f64 {
    (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA)
}

/// A deterministic quantile sketch over a fixed logarithmic comb
/// (DDSketch-style relative-error buckets).
///
/// The mutable state is integer bucket counts only — no stored floats, no
/// randomness — so [`Sketch::merge`] is associative and commutative and
/// renders are byte-identical however per-shard sketches are combined.
/// Positive observations land in bucket `ceil(ln v / ln gamma)`; zeros and
/// negatives are counted in their own buckets (the latency/JCT domain
/// treats them as "at most zero"), non-finite observations are counted but
/// excluded from quantiles.
///
/// # Examples
///
/// ```
/// use vf_obs::Sketch;
///
/// let mut a = Sketch::new();
/// let mut b = Sketch::new();
/// for v in [0.010, 0.011, 0.012] { a.observe(v); }
/// for v in [0.5, 120.0] { b.observe(v); }
/// let mut ab = a.clone();
/// ab.merge(&b);
/// let mut ba = b.clone();
/// ba.merge(&a);
/// assert_eq!(ab.render(), ba.render(), "merge order is invisible");
/// let p50 = ab.quantile(0.5).unwrap();
/// assert!((0.012..0.0125).contains(&p50), "p50 within 2%: {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sketch {
    /// Sparse log-comb buckets: index → count. Bucket `i` covers
    /// `(gamma^(i-1), gamma^i]`.
    buckets: BTreeMap<i32, u64>,
    /// Observations exactly zero.
    zero: u64,
    /// Finite negative observations (counted; quantiles report their
    /// conservative upper bound `0`).
    negative: u64,
    /// Non-finite observations (counted, never ranked).
    nonfinite: u64,
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Sketch::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite = self.nonfinite.saturating_add(1);
        } else if v == 0.0 {
            self.zero = self.zero.saturating_add(1);
        } else if v < 0.0 {
            self.negative = self.negative.saturating_add(1);
        } else {
            let idx = (v.ln() / gamma().ln()).ceil() as i32;
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
    }

    /// Folds `other` into `self` (bucket-wise addition — associative and
    /// commutative, so shard merge order never shows in a render).
    pub fn merge(&mut self, other: &Sketch) {
        for (&idx, &c) in &other.buckets {
            let e = self.buckets.entry(idx).or_insert(0);
            *e = e.saturating_add(c);
        }
        self.zero = self.zero.saturating_add(other.zero);
        self.negative = self.negative.saturating_add(other.negative);
        self.nonfinite = self.nonfinite.saturating_add(other.nonfinite);
    }

    /// Total observations, including non-finite ones.
    pub fn total(&self) -> u64 {
        self.rankable().saturating_add(self.nonfinite)
    }

    /// Observations that participate in quantiles (finite ones).
    fn rankable(&self) -> u64 {
        self.buckets
            .values()
            .fold(self.zero.saturating_add(self.negative), |acc, &c| {
                acc.saturating_add(c)
            })
    }

    /// Conservative quantile estimate: the upper bound of the bucket the
    /// rank-`ceil(q·n)` finite observation landed in (`gamma^idx`), within
    /// [`SKETCH_ALPHA`]-relative error of the true value. Negative and
    /// zero observations report `0.0` (their smallest known upper bound).
    /// Returns `None` when no finite observation was recorded; `q` is
    /// clamped to `[0, 1]` and non-finite `q` degrades to the top.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.rankable();
        if n == 0 {
            return None;
        }
        let q = if q.is_finite() { q.clamp(0.0, 1.0) } else { 1.0 };
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = self.negative.saturating_add(self.zero);
        if cum >= rank {
            return Some(0.0);
        }
        for (&idx, &c) in &self.buckets {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return Some(gamma().powi(idx));
            }
        }
        // Unreachable: cum == n >= rank by construction.
        None
    }

    /// Canonical byte-stable render of the full sketch state, used by the
    /// merge-associativity assertions and the JSON exporter.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"type\":\"sketch\",\"buckets\":[");
        for (i, (idx, c)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{idx},{c}]"));
        }
        out.push_str(&format!(
            "],\"zero\":{},\"negative\":{},\"nonfinite\":{},\"total\":{}}}",
            self.zero,
            self.negative,
            self.nonfinite,
            self.total()
        ));
        out
    }
}

/// String interner for label keys and values: each distinct string is
/// stored once and referenced by a dense id, so a 100k-job run carrying a
/// bounded set of *live* label strings does not re-allocate them per
/// sample.
#[derive(Debug, Default)]
pub struct LabelInterner {
    by_id: Vec<String>,
    by_str: BTreeMap<String, u32>,
}

impl LabelInterner {
    /// An empty interner.
    pub fn new() -> Self {
        LabelInterner::default()
    }

    /// The id of `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_str.get(s) {
            return id;
        }
        let id = self.by_id.len() as u32;
        self.by_id.push(s.to_string());
        self.by_str.insert(s.to_string(), id);
        id
    }

    /// The string behind `id` (empty for an unknown id — interner ids are
    /// produced only by [`LabelInterner::intern`], so this is defensive).
    pub fn resolve(&self, id: u32) -> &str {
        self.by_id.get(id as usize).map_or("", String::as_str)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

/// The metric kind a labeled family holds. Families are homogeneous: a
/// sample of a different kind is a programming error, counted (never
/// silently dropped) and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotone counts (`counter_with`, `set_counter_with`).
    Counter,
    /// Last-value-wins samples (`set_gauge_with`).
    Gauge,
    /// Quantile sketches (`observe_sketch_with`).
    Sketch,
}

impl FamilyKind {
    /// A new series of this kind: a zero count, a zero gauge, an empty
    /// sketch.
    fn zero(self) -> Metric {
        match self {
            FamilyKind::Counter => Metric::Counter(0),
            FamilyKind::Gauge => Metric::Gauge(0.0),
            FamilyKind::Sketch => Metric::Sketch(Sketch::new()),
        }
    }

    /// The kind's canonical exposition name.
    pub fn type_str(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Sketch => "sketch",
        }
    }
}

/// One dimensional metric family: a fixed label-key schema, at most
/// `budget` concrete label sets, and a counted overflow series.
#[derive(Debug)]
pub struct Family {
    kind: FamilyKind,
    /// Interned label key ids, in the canonical (name-sorted) order fixed
    /// by the first sample.
    keys: Vec<u32>,
    budget: usize,
    /// Interned label value ids (aligned with `keys`) → series value.
    series: BTreeMap<Vec<u32>, Metric>,
    /// Aggregate of every sample whose label set arrived past the budget.
    overflow: Option<Metric>,
    /// Samples folded into the overflow series.
    overflow_samples: u64,
    /// Samples rejected for schema mismatch (wrong label keys or wrong
    /// kind) — counted, never silent. A mismatch is a bug in the caller.
    counted_drops: u64,
    /// Every sample routed at this family, however it was resolved.
    total_samples: u64,
}

impl Family {
    fn new(kind: FamilyKind, keys: Vec<u32>, budget: usize) -> Self {
        Family {
            kind,
            keys,
            budget: budget.max(1),
            series: BTreeMap::new(),
            overflow: None,
            overflow_samples: 0,
            counted_drops: 0,
            total_samples: 0,
        }
    }

    /// Routes one sample: into its concrete series while under budget,
    /// into the counted overflow series past it. `values` must align with
    /// the family's keys (the registry sorts and interns before calling).
    fn route(&mut self, kind: FamilyKind, values: Vec<u32>, apply: impl FnOnce(&mut Metric)) {
        self.total_samples = self.total_samples.saturating_add(1);
        if kind != self.kind {
            self.counted_drops = self.counted_drops.saturating_add(1);
            return;
        }
        if let Some(v) = self.series.get_mut(&values) {
            apply(v);
            return;
        }
        if self.series.len() < self.budget {
            let v = self
                .series
                .entry(values)
                .or_insert_with(|| self.kind.zero());
            apply(v);
            return;
        }
        self.overflow_samples = self.overflow_samples.saturating_add(1);
        let v = self.overflow.get_or_insert_with(|| self.kind.zero());
        apply(v);
    }
}

/// A resolved, render-ready copy of one labeled family, with series in
/// canonical label-string order.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Metric family name.
    pub name: String,
    /// The metric kind every series holds.
    pub kind: FamilyKind,
    /// Label key names in canonical (sorted) order.
    pub keys: Vec<String>,
    /// Concrete series: label values (aligned with `keys`) → value,
    /// sorted by label values.
    pub series: Vec<(Vec<String>, Metric)>,
    /// Aggregate of over-budget samples, if any arrived.
    pub overflow: Option<Metric>,
    /// The family's cardinality budget.
    pub budget: usize,
    /// Samples folded into the overflow series.
    pub overflow_samples: u64,
    /// Schema-mismatch samples (counted drops).
    pub counted_drops: u64,
    /// Every sample routed at the family.
    pub total_samples: u64,
}

impl FamilySnapshot {
    /// The overflow accounting invariant for counter families: every
    /// routed sample must be visible as a series increment, an overflow
    /// increment, or a counted drop. Returns the number of *unaccounted*
    /// samples — zero on any correct run ("zero silent drops"); non-zero
    /// only for non-counter kinds (where sample counts are not recoverable
    /// from values) or a registry bug.
    pub fn unaccounted(&self) -> u64 {
        let samples = |v: &Metric| match v {
            Metric::Counter(c) => *c,
            Metric::Sketch(s) => s.total(),
            Metric::Gauge(_) => 0,
        };
        match self.kind {
            FamilyKind::Counter | FamilyKind::Sketch => {
                let visible = (self.series.iter().map(|(_, v)| samples(v)))
                    .chain(self.overflow.iter().map(samples))
                    .fold(0u64, u64::saturating_add);
                self.total_samples
                    .saturating_sub(visible)
                    .saturating_sub(self.counted_drops)
            }
            // Gauges are last-value-wins: sample counts are not
            // recoverable from values, so the invariant is vacuous.
            FamilyKind::Gauge => 0,
        }
    }

    /// Aggregates the family's series over `keep` label keys, in canonical
    /// order: the fleet view (`keep = []`) folds everything into one
    /// value, a per-tenant view (`keep = ["tenant"]`) groups by tenant,
    /// and so on. The overflow series participates under the
    /// [`OVERFLOW_LABEL`] value for every kept key, so no rollup loses the
    /// folded mass. Unknown keys in `keep` are ignored.
    pub fn rollup(&self, keep: &[&str]) -> Vec<(Vec<(String, String)>, Metric)> {
        let kept: Vec<usize> = self
            .keys
            .iter()
            .enumerate()
            .filter(|(_, k)| keep.contains(&k.as_str()))
            .map(|(i, _)| i)
            .collect();
        let mut grouped: BTreeMap<Vec<(String, String)>, Metric> = BTreeMap::new();
        for (values, v) in &self.series {
            let group: Vec<(String, String)> = kept
                .iter()
                .map(|&i| (self.keys[i].clone(), values[i].clone()))
                .collect();
            grouped
                .entry(group)
                .or_insert_with(|| self.kind.zero())
                .fold(v);
        }
        if let Some(ov) = &self.overflow {
            let group: Vec<(String, String)> = kept
                .iter()
                .map(|&i| (self.keys[i].clone(), OVERFLOW_LABEL.to_string()))
                .collect();
            grouped
                .entry(group)
                .or_insert_with(|| self.kind.zero())
                .fold(ov);
        }
        grouped.into_iter().collect()
    }

    /// A scalar summary of the family for time-series sampling: counters
    /// and gauges report the sum over every series plus overflow; sketch
    /// families report total observations.
    pub fn scalar_sum(&self) -> f64 {
        let mut acc = self.kind.zero();
        for (_, v) in &self.series {
            acc.fold(v);
        }
        if let Some(ov) = &self.overflow {
            acc.fold(ov);
        }
        match acc {
            Metric::Counter(c) => c as f64,
            Metric::Gauge(g) => g,
            Metric::Sketch(s) => s.total() as f64,
        }
    }
}

/// The dimensional half of the registry: interner plus families. Lives
/// behind the registry's own lock in [`crate::Metrics`].
#[derive(Debug, Default)]
pub struct LabeledStore {
    interner: LabelInterner,
    families: BTreeMap<String, Family>,
    /// Budgets configured before a family's first sample.
    pending_budgets: BTreeMap<String, usize>,
}

impl LabeledStore {
    /// An empty store.
    pub fn new() -> Self {
        LabeledStore::default()
    }

    /// Sets the cardinality budget of family `name`. Effective immediately
    /// for future *new* label sets; series already stored are kept even if
    /// the budget shrinks below the current count (shrinking never drops
    /// recorded data).
    pub fn set_budget(&mut self, name: &str, budget: usize) {
        let budget = budget.max(1);
        if let Some(f) = self.families.get_mut(name) {
            f.budget = budget;
        } else {
            self.pending_budgets.insert(name.to_string(), budget);
        }
    }

    /// Canonicalizes a label slice: sorted by key, duplicate keys last-
    /// writer-wins, then interned.
    fn canonical(&mut self, labels: &[(&str, &str)]) -> (Vec<u32>, Vec<u32>) {
        let mut sorted: Vec<(&str, &str)> = labels.to_vec();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        // Last writer wins on duplicate keys.
        sorted.reverse();
        sorted.dedup_by(|a, b| a.0 == b.0);
        sorted.reverse();
        let keys = sorted.iter().map(|(k, _)| self.interner.intern(k)).collect();
        let values = sorted.iter().map(|(_, v)| self.interner.intern(v)).collect();
        (keys, values)
    }

    /// Routes one sample into family `name`, creating the family (with its
    /// pending or default budget) on first sight.
    pub fn route(
        &mut self,
        name: &str,
        kind: FamilyKind,
        labels: &[(&str, &str)],
        apply: impl FnOnce(&mut Metric),
    ) {
        let (keys, values) = self.canonical(labels);
        let family = match self.families.get_mut(name) {
            Some(f) => f,
            None => {
                let budget = self
                    .pending_budgets
                    .remove(name)
                    .unwrap_or(DEFAULT_CARDINALITY_BUDGET);
                self.families
                    .entry(name.to_string())
                    .or_insert_with(|| Family::new(kind, keys.clone(), budget))
            }
        };
        if family.keys != keys {
            family.total_samples = family.total_samples.saturating_add(1);
            family.counted_drops = family.counted_drops.saturating_add(1);
            return;
        }
        family.route(kind, values, apply);
    }

    /// Number of families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Total concrete series across every family (excluding overflow).
    pub fn series_count(&self) -> usize {
        self.families.values().map(|f| f.series.len()).sum()
    }

    /// Distinct interned label strings.
    pub fn interned_strings(&self) -> usize {
        self.interner.len()
    }

    /// Resolved, canonically ordered snapshots of every family, in family
    /// name order; series inside each family sort by label values.
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        self.families
            .iter()
            .map(|(name, f)| {
                let keys: Vec<String> = f
                    .keys
                    .iter()
                    .map(|&k| self.interner.resolve(k).to_string())
                    .collect();
                let mut series: Vec<(Vec<String>, Metric)> = f
                    .series
                    .iter()
                    .map(|(vals, v)| {
                        (
                            vals.iter()
                                .map(|&id| self.interner.resolve(id).to_string())
                                .collect(),
                            v.clone(),
                        )
                    })
                    .collect();
                series.sort_by(|a, b| a.0.cmp(&b.0));
                FamilySnapshot {
                    name: name.clone(),
                    kind: f.kind,
                    keys,
                    series,
                    overflow: f.overflow.clone(),
                    budget: f.budget,
                    overflow_samples: f.overflow_samples,
                    counted_drops: f.counted_drops,
                    total_samples: f.total_samples,
                }
            })
            .collect()
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer) behind the head-based
/// trace-sampling decision: a pure function of its input, stable across
/// platforms, threads, and runs.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The head-based sampling decision: whether the trace unit `key` (a job
/// id, a request id) is kept at `keep_ppm` parts-per-million under `seed`.
/// Pure function of `(seed, key)` — every thread, run, and replica agrees,
/// which is what makes sampled traces deterministic.
pub fn admits(seed: u64, key: u64, keep_ppm: u32) -> bool {
    if keep_ppm >= 1_000_000 {
        return true;
    }
    (mix64(seed ^ mix64(key)) % 1_000_000) < u64::from(keep_ppm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_quantiles_respect_the_relative_error_bound() {
        let mut s = Sketch::new();
        for i in 1..=1000u32 {
            s.observe(f64::from(i) / 100.0); // 0.01 .. 10.0
        }
        for (q, truth) in [(0.5, 5.0), (0.99, 9.9), (1.0, 10.0)] {
            let est = s.quantile(q).unwrap();
            assert!(est >= truth * (1.0 - 2.0 * SKETCH_ALPHA), "q={q}: {est} vs {truth}");
            assert!(est <= truth * (1.0 + 3.0 * SKETCH_ALPHA), "q={q}: {est} vs {truth}");
        }
    }

    #[test]
    fn sketch_merge_is_associative_and_commutative() {
        let shard = |lo: u32, hi: u32| {
            let mut s = Sketch::new();
            for i in lo..hi {
                s.observe(f64::from(i) * 0.37 + 0.001);
            }
            s
        };
        let (a, b, c) = (shard(0, 100), shard(100, 250), shard(250, 400));
        // (a + b) + c
        let mut l = a.clone();
        l.merge(&b);
        l.merge(&c);
        // c + (b + a), built in a different order.
        let mut r = c.clone();
        let mut ba = b.clone();
        ba.merge(&a);
        r.merge(&ba);
        assert_eq!(l.render(), r.render(), "merge order must be invisible");
        assert_eq!(l.quantile(0.5), r.quantile(0.5));
        // And matches observing everything into one sketch directly.
        let all = shard(0, 400);
        assert_eq!(l.render(), all.render());
    }

    #[test]
    fn sketch_edge_domains_are_counted_not_ranked_away() {
        let mut s = Sketch::new();
        assert_eq!(s.quantile(0.5), None, "empty sketch has no quantile");
        s.observe(f64::NAN);
        assert_eq!(s.quantile(0.5), None, "non-finite mass never ranks");
        assert_eq!(s.total(), 1);
        s.observe(-3.0);
        s.observe(0.0);
        assert_eq!(s.quantile(0.5), Some(0.0), "zero/negative bound is 0");
        s.observe(100.0);
        assert_eq!(s.quantile(1.0).map(|v| v > 100.0), Some(true));
        assert_eq!(s.total(), 4);
        // Non-finite q degrades to the top quantile.
        assert_eq!(s.quantile(f64::NAN), s.quantile(1.0));
    }

    #[test]
    fn interner_is_idempotent_and_dense() {
        let mut i = LabelInterner::new();
        assert!(i.is_empty());
        let a = i.intern("job");
        let b = i.intern("tenant");
        assert_eq!(i.intern("job"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(i.resolve(a), "job");
        assert_eq!(i.resolve(99), "", "unknown ids resolve defensively");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn family_budget_folds_overflow_with_exact_accounting() {
        let mut store = LabeledStore::new();
        store.set_budget("jobs", 4);
        for j in 0..10u32 {
            let v = j.to_string();
            store.route("jobs", FamilyKind::Counter, &[("job", &v)], |c| {
                if let Metric::Counter(n) = c {
                    *n += 1;
                }
            });
        }
        let snap = &store.snapshot()[0];
        assert_eq!(snap.series.len(), 4, "hard cap holds");
        assert_eq!(snap.overflow_samples, 6);
        assert_eq!(snap.total_samples, 10);
        assert_eq!(snap.unaccounted(), 0, "zero silent drops");
        assert!(matches!(snap.overflow, Some(Metric::Counter(6))));
        // Existing series keep absorbing samples after the cap trips.
        store.route("jobs", FamilyKind::Counter, &[("job", "0")], |c| {
            if let Metric::Counter(n) = c {
                *n += 1;
            }
        });
        let snap = &store.snapshot()[0];
        assert_eq!(snap.total_samples, 11);
        assert_eq!(snap.unaccounted(), 0);
    }

    #[test]
    fn schema_and_kind_mismatches_are_counted_drops() {
        let mut store = LabeledStore::new();
        store.route("x", FamilyKind::Counter, &[("job", "1")], |c| {
            if let Metric::Counter(n) = c {
                *n += 1;
            }
        });
        // Wrong label keys.
        store.route("x", FamilyKind::Counter, &[("tenant", "a")], |_| {});
        // Wrong kind.
        store.route("x", FamilyKind::Gauge, &[("job", "2")], |_| {});
        let snap = &store.snapshot()[0];
        assert_eq!(snap.counted_drops, 2);
        assert_eq!(snap.total_samples, 3);
        assert_eq!(snap.unaccounted(), 0, "drops are counted, not silent");
    }

    #[test]
    fn labels_canonicalize_order_and_duplicate_keys() {
        let mut store = LabeledStore::new();
        let bump = |c: &mut Metric| {
            if let Metric::Counter(n) = c {
                *n += 1;
            }
        };
        store.route(
            "y",
            FamilyKind::Counter,
            &[("b", "2"), ("a", "1")],
            bump,
        );
        store.route(
            "y",
            FamilyKind::Counter,
            &[("a", "1"), ("b", "2")],
            bump,
        );
        // Duplicate key: last writer wins.
        store.route(
            "y",
            FamilyKind::Counter,
            &[("a", "0"), ("b", "2"), ("a", "1")],
            bump,
        );
        let snap = &store.snapshot()[0];
        assert_eq!(snap.keys, vec!["a", "b"]);
        assert_eq!(snap.series.len(), 1, "one canonical series");
        assert!(matches!(snap.series[0].1, Metric::Counter(3)));
    }

    #[test]
    fn rollups_aggregate_in_canonical_order_and_keep_overflow() {
        let mut store = LabeledStore::new();
        store.set_budget("req", 3);
        let cases = [
            ("t0", "v100"),
            ("t0", "k80"),
            ("t1", "v100"),
            ("t1", "k80"), // 4th set: overflow
        ];
        for (tenant, dev) in cases {
            store.route(
                "req",
                FamilyKind::Counter,
                &[("tenant", tenant), ("device_class", dev)],
                |c| {
                    if let Metric::Counter(n) = c {
                        *n += 2;
                    }
                },
            );
        }
        let snap = &store.snapshot()[0];
        let by_tenant = snap.rollup(&["tenant"]);
        let labels: Vec<String> = by_tenant
            .iter()
            .map(|(g, _)| g.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>().join(","))
            .collect();
        assert_eq!(labels, vec![OVERFLOW_LABEL.to_string(), "t0".into(), "t1".into()]);
        let fleet = snap.rollup(&[]);
        assert_eq!(fleet.len(), 1);
        assert!(matches!(fleet[0].1, Metric::Counter(8)), "fleet view keeps folded mass");
        assert_eq!(snap.scalar_sum(), 8.0);
        // Unknown keys are ignored.
        assert_eq!(snap.rollup(&["nope"]).len(), 1);
    }

    #[test]
    fn budget_shrink_never_drops_recorded_series() {
        let mut store = LabeledStore::new();
        for j in 0..5u32 {
            let v = j.to_string();
            store.route("z", FamilyKind::Counter, &[("job", &v)], |c| {
                if let Metric::Counter(n) = c {
                    *n += 1;
                }
            });
        }
        store.set_budget("z", 2);
        let snap = &store.snapshot()[0];
        assert_eq!(snap.series.len(), 5, "shrinking keeps existing series");
        // But new sets fold from now on.
        store.route("z", FamilyKind::Counter, &[("job", "9")], |c| {
            if let Metric::Counter(n) = c {
                *n += 1;
            }
        });
        assert_eq!(store.snapshot()[0].overflow_samples, 1);
    }

    #[test]
    fn sampling_decision_is_pure_and_respects_rates() {
        assert!(admits(1, 42, 1_000_000), "keep-all admits everything");
        assert!(!admits(1, u64::MAX, 0) || admits(1, u64::MAX, 0) == admits(1, u64::MAX, 0));
        // Pure: same inputs, same answer.
        for key in 0..100u64 {
            assert_eq!(admits(7, key, 10_000), admits(7, key, 10_000));
        }
        // ~1% keep rate lands in a loose band over 100k keys.
        let kept = (0..100_000u64).filter(|&k| admits(2022, k, 10_000)).count();
        assert!((500..2000).contains(&kept), "1% of 100k ≈ 1000, got {kept}");
        // Different seeds disagree on at least some keys.
        let differs = (0..1000u64).any(|k| admits(1, k, 500_000) != admits(2, k, 500_000));
        assert!(differs);
    }
}
