//! The *analyzed* profile is a determinism oracle too.
//!
//! `trace_determinism.rs` proves the raw Chrome export is byte-identical
//! across worker-pool sizes; this file proves the same for everything the
//! `vf-obs` analyzer derives from it — the rendered critical path, the
//! collapsed flamegraph stacks, and the counter timelines — and checks the
//! profiler's structural invariants on a real chaos trace rather than a
//! synthetic one:
//!
//! * the critical path is a non-overlapping chain, so its duration can
//!   never exceed the traced window;
//! * per-span self-times sum exactly to the total traced time (children
//!   tile inside parents — no span escapes, none double-counts).
//!
//! Like the other determinism suites, this file owns its process so it can
//! pin the worker-pool size before any kernel runs.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::sync::Arc;
use vf_core::chaos::{ChaosConfig, ChaosSupervisor};
use vf_core::TrainerConfig;
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::{DeviceId, FailureModel, FaultPlan, SpotModel};
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_obs::profile::{counter_series, render_counter_series};
use vf_obs::{Event, Profile, Recorder, RingSink};
use vf_tensor::pool;

fn devices(range: std::ops::Range<u32>) -> Vec<DeviceId> {
    range.map(DeviceId).collect()
}

fn parts(seed: u64) -> (Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig) {
    let dataset = Arc::new(ClusterTask::easy(seed).generate().expect("generates"));
    let arch: Arc<dyn Architecture> = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
    let config = TrainerConfig::simple(8, 64, 0.1, seed);
    (arch, dataset, config)
}

/// Runs a 60-step chaos plan with tracing on and returns the raw events.
fn traced_chaos_events() -> Vec<Event> {
    let (arch, dataset, config) = parts(42);
    let plan = FaultPlan::new(42)
        .with_crashes(FailureModel::new(200.0, 42).expect("valid mtbf"))
        .with_preemptions(SpotModel::new(350.0, 40.0).expect("valid spot model"));
    let mut cfg = ChaosConfig::new(plan, 60);
    cfg.comm = Some(vf_comm::chaos::CommFaultModel::new(42, 0.04, 0.01, 0.02));
    let mut sup = ChaosSupervisor::new(
        arch,
        dataset,
        config,
        &devices(0..4),
        &devices(8..14),
        cfg,
    )
    .expect("supervisor");
    let sink = Arc::new(RingSink::unbounded());
    sup.set_recorder(Recorder::with_sink(sink.clone()));
    let out = sup.run().expect("survives the plan");
    assert_eq!(out.report.steps, 60);
    sink.events()
}

/// Every artifact the analyzer derives from one run, concatenated.
fn derived_artifacts(events: &[Event]) -> String {
    let p = Profile::from_events(events);
    let mut out = String::new();
    out.push_str(&p.render_critical_path(40));
    out.push_str(&p.render_self_time());
    out.push_str(&p.collapsed_stacks());
    out.push_str(&render_counter_series(&counter_series(events)));
    out
}

#[test]
fn profile_artifacts_are_byte_identical_across_thread_counts_and_repeats() {
    pool::set_num_threads(4);
    let events_4 = traced_chaos_events();
    let events_4_again = traced_chaos_events();

    pool::set_num_threads(1);
    let events_1 = traced_chaos_events();

    let (a4, a4b, a1) = (
        derived_artifacts(&events_4),
        derived_artifacts(&events_4_again),
        derived_artifacts(&events_1),
    );
    assert!(!a4.is_empty(), "analyzer must derive something");
    assert_eq!(a4, a4b, "profile artifacts diverged across repeat runs");
    assert_eq!(a4, a1, "profile artifacts diverged across pool sizes");

    // Structural invariants, on the real trace (the vf-obs unit suite
    // checks them on synthetic trees; here they guard the trainer/comm
    // instrumentation itself).
    let p = Profile::from_events(&events_4);
    assert!(!p.spans().is_empty(), "a chaos run must produce spans");
    let path = p.critical_path();
    assert!(!path.is_empty());
    let on_path = p.path_duration_us(&path);
    let (lo, hi) = p.window_us().expect("non-empty profile has a window");
    assert!(
        on_path <= hi - lo,
        "critical path ({on_path} us) exceeds the traced window ({} us)",
        hi - lo
    );
    // The path is ordered and strictly non-overlapping.
    for w in path.windows(2) {
        let (a, b) = (&p.spans()[w[0]], &p.spans()[w[1]]);
        assert!(
            a.end_us() <= b.ts_us,
            "path steps overlap: {} ends at {} but {} starts at {}",
            a.name,
            a.end_us(),
            b.name,
            b.ts_us
        );
    }
    assert_eq!(
        p.total_self_us(),
        p.total_traced_us(),
        "self-times must sum to the traced total: child spans escape parents"
    );
    // Every trainer VN track and the control track must appear in the
    // busy table; busy time can never exceed the window.
    let busy = p.track_busy_us();
    assert!(busy.contains_key(&(1, 0)), "control track missing: {busy:?}");
    for b in busy.values() {
        assert!(*b <= hi - lo, "track busy time exceeds the window");
    }
}
