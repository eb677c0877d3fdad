//! The exported trace is itself a determinism oracle.
//!
//! ISSUE/PR invariant: a chaos run's Chrome `trace_event` export must be
//! **bit-identical** across `VF_NUM_THREADS` settings and across repeat
//! runs — not "equivalent modulo reordering", byte-for-byte the same JSONL.
//! That holds because every event is emitted from the supervisor's single
//! control loop in a fixed logical order, timestamped on simulated time;
//! physical parallelism only changes how kernel work is chunked, which is
//! invisible to the trace (thread-dependent pool counters go to bench-side
//! `Metrics`, never into the event stream).
//!
//! Like `determinism_threads.rs`, this file owns its process so it can pin
//! the worker-pool size before any kernel runs.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::sync::Arc;
use vf_core::chaos::{ChaosConfig, ChaosSupervisor};
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::{DeviceId, FailureModel, FaultPlan, SpotModel};
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_obs::{chrome, Event, Recorder, RingSink, Sink};
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

/// Runs a 60-step chaos plan with tracing on and returns the full export
/// as JSONL bytes plus the number of events recorded.
fn traced_chaos_jsonl() -> (String, u64) {
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
    let obs = Recorder::with_sink(sink.clone());
    sup.set_recorder(obs.clone());
    let out = sup.run().expect("survives the plan");
    assert_eq!(out.report.steps, 60);
    assert!(
        out.report.faults_injected() > 0,
        "the plan must actually inject faults: {:?}",
        out.report
    );
    (chrome::render_jsonl(&sink.events()), obs.events_recorded())
}

#[test]
fn chaos_trace_is_byte_identical_across_thread_counts_and_repeats() {
    pool::set_num_threads(4);
    let (jsonl_4, n_4) = traced_chaos_jsonl();
    let (jsonl_4_again, _) = traced_chaos_jsonl();

    pool::set_num_threads(1);
    let (jsonl_1, n_1) = traced_chaos_jsonl();

    assert!(n_4 > 0, "tracing must record events");
    assert_eq!(n_4, n_1, "event counts diverged across thread counts");
    assert_eq!(
        jsonl_4, jsonl_4_again,
        "repeat runs at the same thread count produced different traces"
    );
    assert_eq!(
        jsonl_1, jsonl_4,
        "VF_NUM_THREADS=1 vs 4 produced byte-different traces"
    );
    // Sanity: the export really covers every instrumented subsystem.
    for needle in ["\"cat\":\"train\"", "\"cat\":\"comm\"", "\"cat\":\"chaos\""] {
        assert!(jsonl_1.contains(needle), "trace is missing {needle}");
    }
}

/// A counting sink: proves the disabled-recorder fast path never even
/// reaches a sink, and `record_with` never builds the event.
#[derive(Default)]
struct CountingSink(std::sync::atomic::AtomicU64);

impl Sink for CountingSink {
    fn record(&self, _event: &Event) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[test]
fn disabled_recorder_builds_no_events_and_reaches_no_sink() {
    // record_with on a disabled recorder must not invoke the builder at
    // all — the closure allocates, and the no-op path must be free of it.
    let obs = Recorder::disabled();
    let mut built = false;
    obs.record_with(|| {
        built = true;
        Event::instant(String::from("never"), "train", 0)
    });
    assert!(!built, "a disabled recorder invoked the event builder");
    assert_eq!(obs.events_recorded(), 0);

    // A full training run with the default (disabled) recorder: the
    // trainer's instrumentation sites all gate on is_enabled(), so no
    // event is constructed and no sink sees traffic.
    let (arch, dataset, config) = parts(7);
    let mut t = Trainer::new(arch, dataset, config, &devices(0..4)).expect("trainer");
    assert!(!t.recorder().is_enabled(), "trainers start untraced");
    t.run_steps(10).expect("runs");
    assert_eq!(t.recorder().events_recorded(), 0);

    // And an explicitly attached sink observes exactly as many deliveries
    // as the recorder claims — nothing is double-recorded or dropped.
    let sink = Arc::new(CountingSink::default());
    let obs = Recorder::with_sink(sink.clone());
    t.set_recorder(obs.clone());
    t.run_steps(5).expect("runs traced");
    let delivered = sink.0.load(std::sync::atomic::Ordering::Relaxed);
    assert!(delivered > 0, "an enabled recorder must deliver events");
    assert_eq!(delivered, obs.events_recorded());
}
