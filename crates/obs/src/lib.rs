//! # vf-obs
//!
//! The observability spine of the workspace: structured span/event tracing
//! plus a metrics registry, both **deterministic by construction**.
//!
//! The paper's entire evaluation is timeline-shaped — per-step memory
//! footprints (Fig 6), update throughput (Fig 9), elastic resize and JCT
//! traces (Figs 12–14) — and TensorFlow itself treats tracing/visualization
//! (TensorBoard, per-op timelines) as a first-class subsystem. This crate
//! gives the Rust stack the equivalent, with one crucial twist: every
//! timestamp is **simulated time** (`vf_device::SimClock` seconds or step
//! indices), never wall clock, so an exported trace is a pure function of
//! the run's inputs. That makes the trace itself a determinism oracle: the
//! integration suite exports the same chaos run under different
//! `VF_NUM_THREADS` settings and asserts the JSONL is *byte-identical*.
//!
//! Pieces:
//!
//! * [`Event`] — one trace event in Chrome `trace_event` shape (complete
//!   span, instant, or counter sample) with typed args.
//! * [`Sink`] — where events go: [`RingSink`] (an in-memory buffer,
//!   bounded or not) is the one the workspace uses.
//! * [`Recorder`] — the cheap cloneable handle instrumented code holds. A
//!   disabled recorder is a `None`: emission sites gate on
//!   [`Recorder::is_enabled`] (or use [`Recorder::record_with`]) so the
//!   hot path neither formats names nor allocates events when tracing is
//!   off.
//! * [`Metrics`] — a `BTreeMap`-backed registry of counters, gauges, and
//!   quantile sketches ([`Sketch`], the one distribution type) whose JSON
//!   rendering is deterministic, shared by the bench harnesses so
//!   `results/BENCH_*.json` and traces speak one schema.
//! * [`chrome`] — renders events to Chrome `trace_event` JSONL / JSON.
//! * [`monitor`] — the *active* layer over the registry: deterministic
//!   time-series sampling, an alerting rules engine with debounce and
//!   hysteresis, per-component health rollups, and byte-stable Prometheus
//!   / HTML-dashboard exporters.
//! * [`scale`] — the dimensional layer for 100k-job runs: labeled metric
//!   families over interned label sets with hard cardinality budgets and
//!   counted `__overflow__` folding (zero silent drops), deterministic
//!   merge-associative quantile sketches, and the pure head-based
//!   trace-sampling decision.
//!
//! Determinism rules instrumented code must follow (audited by the trace
//! determinism tests and documented in DESIGN.md §12):
//!
//! 1. events are emitted only from a step's *coordinating* thread, in a
//!    fixed logical order (virtual-node order, event-queue order) — worker
//!    threads never write to sinks;
//! 2. timestamps come from [`SimClock`](Recorder::set_time_s) or logical
//!    step offsets, never `Instant`/`SystemTime` (the `ambient-time` lint
//!    enforces this workspace-wide);
//! 3. anything that legitimately varies with physical parallelism (e.g.
//!    worker-pool chunk counts) belongs in bench-side [`Metrics`], never in
//!    the trace.

#![warn(missing_docs)]

pub mod chrome;
mod event;
pub mod history;
pub mod json;
mod metrics;
pub mod monitor;
pub mod profile;
mod recorder;
pub mod scale;
mod sink;

pub use event::{ArgValue, Event, Phase};
pub use history::{Baseline, BaselineMetric, Direction, GateOutcome, HistoryRecord};
pub use metrics::{Metric, Metrics, RegistryStats};
pub use scale::{FamilyKind, FamilySnapshot, FamilyValue, Sketch, DEFAULT_CARDINALITY_BUDGET};
pub use monitor::{default_alert_pack, AlertRule, Monitor};
pub use profile::Profile;
pub use recorder::Recorder;
pub use sink::{RingSink, Sink};
