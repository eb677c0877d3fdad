//! The active monitoring subsystem: time-series sampling, alerting,
//! health rollups, and exporters over one shared [`Metrics`] registry.
//!
//! The passive spine (recorder → sink → trace) records what happened; the
//! [`Monitor`] *evaluates* it as it happens. Components publish their
//! existing signals into the monitor's registry (gauges and monotone
//! counter mirrors), and the driver calls [`Monitor::tick`] on simulated-
//! time ticks. Each tick:
//!
//! 1. the [`SeriesStore`] samples the registry (counter deltas → windowed
//!    rates, gauges verbatim, sketch p50/p99),
//! 2. the [`AlertEngine`] advances every rule's pending→firing→resolved
//!    state machine against the sampled series,
//! 3. transitions are published back as `alerts/*` counters, emitted as
//!    trace instants on the attached [`Recorder`], and appended to the
//!    transition log.
//!
//! Everything downstream of the registry is a pure function of
//! (rules, sampled series, sim-time), so a run's alert log, status board,
//! Prometheus render, and HTML dashboard are byte-identical across thread
//! counts and repeat runs — which the monitor bench enforces.

pub mod alert;
pub mod export;
pub mod health;
pub mod series;

pub use alert::{AlertEngine, AlertRule, AlertState, Component, Condition, Phase as AlertPhase, Severity, Transition};
pub use export::{format_prom_value, render_dashboard, render_prometheus, sanitize_metric_name};
pub use health::{render_status_board, rollup, ComponentHealth, HealthLevel};
pub use series::{Point, SeriesStore, WindowStats};

use crate::{Event, Metrics, Recorder};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

struct Inner {
    store: SeriesStore,
    engine: AlertEngine,
    obs: Recorder,
    transitions: Vec<Transition>,
}

/// The monitoring facade components publish into and drivers tick.
///
/// Thread-safe: publishing goes through the lock-free-enough [`Metrics`]
/// registry, and ticking serializes on an internal mutex. Deterministic:
/// see the module docs.
///
/// # Examples
///
/// ```
/// use vf_obs::monitor::Monitor;
///
/// let mon = Monitor::with_default_pack();
/// mon.metrics().set_gauge("train/loss", f64::NAN);
/// let edges = mon.tick(1.0);
/// assert_eq!(edges.len(), 1);
/// assert_eq!(edges[0].rule, "train/nonfinite-loss");
/// assert!(mon.render_status_board().contains("UNHEALTHY"));
/// ```
pub struct Monitor {
    metrics: Metrics,
    inner: Mutex<Inner>,
}

impl Monitor {
    /// A monitor over `rules` with a fresh registry and no recorder.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        Monitor {
            metrics: Metrics::new(),
            inner: Mutex::new(Inner {
                store: SeriesStore::new(),
                engine: AlertEngine::new(rules),
                obs: Recorder::disabled(),
                transitions: Vec::new(),
            }),
        }
    }

    /// A monitor armed with [`default_alert_pack`].
    pub fn with_default_pack() -> Self {
        Monitor::new(default_alert_pack())
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut inner)
    }

    /// The registry components publish into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attaches a recorder; alert transitions emit as trace instants
    /// (category `"alert"`) from then on.
    pub fn set_recorder(&self, obs: Recorder) {
        self.with_inner(|inner| inner.obs = obs);
    }

    /// Caps every sampled series at `cap` points with deterministic
    /// decimation (see [`SeriesStore::set_retention`]) — required for
    /// 100k-job runs where unbounded retention would dominate memory.
    pub fn set_retention(&self, cap: usize) {
        self.with_inner(|inner| inner.store.set_retention(cap));
    }

    /// Points dropped so far by series retention decimation.
    pub fn points_decimated(&self) -> u64 {
        self.with_inner(|inner| inner.store.points_decimated())
    }

    /// Samples the registry at simulated time `t_s`, evaluates every rule,
    /// publishes `alerts/*` counters, and returns the transitions taken
    /// this tick. Non-finite or negative times are ignored (no tick).
    pub fn tick(&self, t_s: f64) -> Vec<Transition> {
        if !t_s.is_finite() || t_s < 0.0 {
            return Vec::new();
        }
        let t_us = (t_s * 1e6).round() as u64;
        let (edges, firing) = self.with_inner(|inner| {
            inner.store.sample(t_us, &self.metrics);
            let edges = inner.engine.evaluate(t_us, &inner.store);
            for edge in &edges {
                inner.obs.set_time_us(edge.at_us);
                inner.obs.record_with(|| {
                    Event::instant(
                        format!("alert/{}/{}", edge.phase.name(), edge.rule),
                        "alert",
                        edge.at_us,
                    )
                    .with_arg("severity", edge.severity.name())
                    .with_arg("component", edge.component.name())
                    .with_arg("value", edge.value)
                });
            }
            inner.transitions.extend(edges.iter().cloned());
            (edges, inner.engine.firing())
        });
        for edge in &edges {
            match edge.phase {
                AlertPhase::Pending => self.metrics.inc("alerts/pending_total", 1),
                AlertPhase::Firing => {
                    self.metrics.inc("alerts/fired_total", 1);
                    // Per-rule counts are a dimension, not a name: the
                    // labeled family keeps the registry bounded however
                    // many rules a pack carries.
                    self.metrics
                        .counter_with("alerts/fired", &[("rule", &edge.rule)], 1);
                }
                AlertPhase::Resolved => self.metrics.inc("alerts/resolved_total", 1),
            }
        }
        self.metrics.set_gauge("alerts/firing", firing as f64);
        edges
    }

    /// Every transition taken so far, in tick order.
    pub fn transitions(&self) -> Vec<Transition> {
        self.with_inner(|inner| inner.transitions.clone())
    }

    /// Names of the rules that have *fired* at least once, in name order.
    pub fn fired_rules(&self) -> Vec<String> {
        let mut names: Vec<String> = self.with_inner(|inner| {
            inner
                .transitions
                .iter()
                .filter(|t| t.phase == AlertPhase::Firing)
                .map(|t| t.rule.clone())
                .collect()
        });
        names.sort();
        names.dedup();
        names
    }

    /// Current per-component health rollup, in canonical component order.
    pub fn health(&self) -> Vec<ComponentHealth> {
        self.with_inner(|inner| rollup(&inner.engine))
    }

    /// A copy of every sampled series (`counter_series` shape).
    pub fn series(&self) -> BTreeMap<String, Vec<Point>> {
        self.with_inner(|inner| inner.store.series().clone())
    }

    /// The rendered text status board for the latest tick.
    pub fn render_status_board(&self) -> String {
        self.with_inner(|inner| {
            let t_s = inner.store.last_sample_us().unwrap_or(0) as f64 / 1e6;
            render_status_board(t_s, &rollup(&inner.engine), inner.engine.rules().len())
        })
    }

    /// The registry rendered in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.metrics)
    }

    /// The sampled series rendered as a self-contained HTML dashboard.
    pub fn render_dashboard(&self, title: &str) -> String {
        self.with_inner(|inner| {
            render_dashboard(title, inner.store.series(), &rollup(&inner.engine))
        })
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.with_inner(|inner| {
            f.debug_struct("Monitor")
                .field("rules", &inner.engine.rules().len())
                .field("firing", &inner.engine.firing())
                .field("transitions", &inner.transitions.len())
                .field("last_sample_us", &inner.store.last_sample_us())
                .finish()
        })
    }
}

/// The default alert pack wired across the stack. Series names match what
/// the chaos supervisor (`chaos/*`, `train/*`, `store/*`) and the sched
/// simulator (`sched/*`) publish through their monitor hooks; a rule whose
/// series never appears simply stays Idle, so one pack serves every
/// driver.
pub fn default_alert_pack() -> Vec<AlertRule> {
    vec![
        // Comm retry storm: collective timeouts/aborts arriving faster
        // than ~1 per 50 simulated seconds, sustained for a minute.
        AlertRule {
            name: "comm/retry-storm".into(),
            component: Component::Comm,
            series: "chaos/comm_retries".into(),
            condition: Condition::RateAbove {
                trip_per_s: 0.02,
                clear_per_s: 0.005,
                window_s: 120.0,
            },
            for_s: 60.0,
            severity: Severity::Warn,
        },
        // Comm SLO burn: against a 99% first-try collective success
        // objective, the 5-minute error fraction burns budget at >5x.
        AlertRule {
            name: "comm/slo-burn".into(),
            component: Component::Comm,
            series: "chaos/comm_retries".into(),
            condition: Condition::BurnRateAbove {
                total_series: "chaos/comm_attempts".into(),
                objective: 0.99,
                trip: 5.0,
                clear: 1.0,
                window_s: 300.0,
            },
            for_s: 0.0,
            severity: Severity::Critical,
        },
        // Checkpoint fallback-restore: the last resort ran. Any use pages
        // immediately and stays up while one sits in the 5-minute window.
        AlertRule {
            name: "store/checkpoint-fallback".into(),
            component: Component::Store,
            series: "chaos/checkpoint_fallbacks".into(),
            condition: Condition::RateAbove {
                trip_per_s: 0.0,
                clear_per_s: 0.0,
                window_s: 300.0,
            },
            for_s: 0.0,
            severity: Severity::Critical,
        },
        // Store integrity: a verified-corrupt artifact was detected.
        AlertRule {
            name: "store/corruption".into(),
            component: Component::Store,
            series: "store/corruptions_detected".into(),
            condition: Condition::RateAbove {
                trip_per_s: 0.0,
                clear_per_s: 0.0,
                window_s: 300.0,
            },
            for_s: 0.0,
            severity: Severity::Warn,
        },
        // Fleet collapse: under 45% of desired devices active for two
        // minutes (spares and cooldowns should refill faster than this).
        AlertRule {
            name: "chaos/fleet-collapse".into(),
            component: Component::Chaos,
            series: "chaos/fleet_frac".into(),
            condition: Condition::Below { trip: 0.45, clear: 0.7 },
            for_s: 120.0,
            severity: Severity::Critical,
        },
        // Queue-depth runaway: backlog ≥ 8 jobs for a minute.
        AlertRule {
            name: "sched/queue-runaway".into(),
            component: Component::Sched,
            series: "sched/queue_depth".into(),
            condition: Condition::Above { trip: 8.0, clear: 4.0 },
            for_s: 60.0,
            severity: Severity::Warn,
        },
        // Utilization collapse: work is queued but nothing runs. The
        // starvation gauge is 1 exactly when (queued > 0 && running == 0),
        // so an idle-but-empty cluster never trips it.
        AlertRule {
            name: "sched/util-collapse".into(),
            component: Component::Sched,
            series: "sched/starvation".into(),
            condition: Condition::Above { trip: 0.5, clear: 0.5 },
            for_s: 120.0,
            severity: Severity::Critical,
        },
        // Non-finite loss: training has diverged; page instantly.
        AlertRule {
            name: "train/nonfinite-loss".into(),
            component: Component::Trainer,
            series: "train/loss".into(),
            condition: Condition::NonFinite,
            for_s: 0.0,
            severity: Severity::Critical,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;
    use std::sync::Arc;

    #[test]
    fn default_pack_rule_names_are_unique() {
        let pack = default_alert_pack();
        let mut names: Vec<&str> = pack.iter().map(|r| r.name.as_str()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate rule names");
    }

    #[test]
    fn quiet_registry_fires_nothing() {
        let mon = Monitor::with_default_pack();
        mon.metrics().set_gauge("train/loss", 0.5);
        mon.metrics().set_counter("chaos/comm_retries", 0);
        mon.metrics().set_gauge("chaos/fleet_frac", 1.0);
        for t in 0..200 {
            assert!(mon.tick(t as f64 * 2.0).is_empty(), "tick {t} fired");
        }
        assert!(mon.fired_rules().is_empty());
        for row in mon.health() {
            assert_eq!(row.level, HealthLevel::Healthy);
        }
    }

    #[test]
    fn retry_storm_fires_resolves_and_publishes_counters() {
        let ring = Arc::new(RingSink::unbounded());
        let mon = Monitor::with_default_pack();
        mon.set_recorder(Recorder::with_sink(ring.clone()));
        let mut retries = 0u64;
        // Storm: one retry per 10 simulated seconds for 300 s.
        for t in (0..=300u64).step_by(10) {
            retries += 1;
            mon.metrics().set_counter("chaos/comm_retries", retries);
            mon.metrics().set_counter("chaos/comm_attempts", retries * 2);
            mon.tick(t as f64);
        }
        let fired = mon.fired_rules();
        assert!(
            fired.contains(&"comm/retry-storm".to_string()),
            "storm must fire, got {fired:?}"
        );
        assert!(
            fired.contains(&"comm/slo-burn".to_string()),
            "50% error rate vs 1% budget must burn, got {fired:?}"
        );
        let snap = mon.metrics().snapshot();
        assert!(matches!(
            snap.get("alerts/fired_total"),
            Some(crate::Metric::Counter(n)) if *n >= 2
        ));
        assert!(ring
            .events()
            .iter()
            .any(|e| e.cat == "alert" && e.name == "alert/firing/comm/retry-storm"));
        // Storm over: no retries for two windows → resolve.
        for t in (310..=700u64).step_by(10) {
            mon.metrics().set_counter("chaos/comm_retries", retries);
            mon.metrics().set_counter("chaos/comm_attempts", retries * 2 + (t - 300) / 10);
            mon.tick(t as f64);
        }
        assert!(mon
            .transitions()
            .iter()
            .any(|tr| tr.rule == "comm/retry-storm" && tr.phase == AlertPhase::Resolved));
    }

    #[test]
    fn renders_are_deterministic_for_identical_feeds() {
        let run = || {
            let mon = Monitor::with_default_pack();
            for t in 0..50u64 {
                mon.metrics().set_gauge("train/loss", 1.0 / (t + 1) as f64);
                mon.metrics().set_counter("train/steps", t);
                mon.metrics().observe_sketch("step_ms", (t % 5) as f64);
                mon.tick(t as f64);
            }
            (
                mon.render_prometheus(),
                mon.render_dashboard("test"),
                mon.render_status_board(),
            )
        };
        let (p1, d1, s1) = run();
        let (p2, d2, s2) = run();
        assert_eq!(p1, p2);
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert!(p1.contains("# TYPE step_ms summary"));
        assert!(d1.contains("train/steps/rate"), "sampler derives rate series");
    }
}
