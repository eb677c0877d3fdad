//! Observability wiring for simulated devices: per-device trace tracks and
//! memory-timeline counters.
//!
//! The trainer puts each *virtual node* on trace `tid` VN-index + 1 and
//! control flow on `tid` 0; per-*device* series live on their own track
//! block starting at [`DEVICE_TID_BASE`] so device timelines never collide
//! with VN spans however many virtual nodes a run packs. All emission here
//! follows the vf-obs determinism rules: timestamps are simulated seconds
//! converted with one rounding rule, emission happens from coordinating
//! code in fixed device order, and nothing reads a wall clock.

use crate::memory::{MemoryCategory, MemorySnapshot, MemoryTracker};
use vf_obs::{Event, Recorder};

/// First logical `tid` used for per-device tracks (device 0 →
/// `DEVICE_TID_BASE`, device 1 → `DEVICE_TID_BASE + 1`, ...). Virtual-node
/// tracks count up from 1, so the bases stay disjoint for any realistic
/// virtual-node count.
pub const DEVICE_TID_BASE: u32 = 1000;

/// The trace `tid` for device `index`.
pub fn device_tid(index: usize) -> u32 {
    DEVICE_TID_BASE + index as u32
}

/// Converts simulated seconds to the trace's integer microseconds (round
/// to nearest, negative/non-finite clamp to 0) — the same rule
/// [`Recorder::set_time_s`] applies, so device samples line up with spans.
pub fn sim_us(time_s: f64) -> u64 {
    if time_s.is_finite() && time_s > 0.0 {
        (time_s * 1e6).round() as u64
    } else {
        0
    }
}

/// Emits the backward tail of one step — the window bucketed collectives
/// may overlap — as a `step/backward` complete span on the control track.
/// The span is what trace-structure checks match comm spans against: a
/// collective whose span starts inside this window is provably pipelined
/// with backward compute rather than serialized after it.
pub fn emit_backward_window(obs: &Recorder, step: u64, start_s: f64, dur_s: f64) {
    obs.record_with(|| {
        let start = sim_us(start_s);
        let dur = sim_us(start_s + dur_s).saturating_sub(start).max(1);
        Event::complete("step/backward", "train", start, dur).with_arg("step", step)
    });
}

impl MemoryCategory {
    /// A short machine-friendly name for metric/counter series.
    pub fn slug(self) -> &'static str {
        match self {
            MemoryCategory::Parameters => "params",
            MemoryCategory::Activations => "acts",
            MemoryCategory::Gradients => "grads",
            MemoryCategory::GradientBuffer => "gradbuf",
            MemoryCategory::InputBatch => "input",
            MemoryCategory::OptimizerState => "optstate",
        }
    }
}

/// Emits a recorded memory timeline as `dev{d}/mem_total_bytes` counter
/// samples on device `index`'s track, one per snapshot, in timeline order.
pub fn emit_memory_timeline(obs: &Recorder, index: usize, timeline: &[MemorySnapshot]) {
    if !obs.is_enabled() {
        return;
    }
    let name = format!("dev{index}/mem_total_bytes");
    for snap in timeline {
        obs.emit(
            Event::counter(name.clone(), "device", sim_us(snap.time_s), snap.total())
                .with_tid(device_tid(index)),
        );
    }
}

impl MemoryTracker {
    /// Emits this tracker's per-category peaks and total peak as
    /// `dev{d}/peak/{category}` / `dev{d}/peak_total_bytes` counters at
    /// simulated time `time_s` on device `index`'s track, plus a capacity
    /// counter so utilization is computable straight from the trace.
    pub fn emit_peaks(&self, obs: &Recorder, index: usize, time_s: f64) {
        if !obs.is_enabled() {
            return;
        }
        let ts = sim_us(time_s);
        let tid = device_tid(index);
        for cat in MemoryCategory::ALL {
            obs.emit(
                Event::counter(
                    format!("dev{index}/peak/{}", cat.slug()),
                    "device",
                    ts,
                    self.peak_for(cat),
                )
                .with_tid(tid),
            );
        }
        obs.emit(
            Event::counter(format!("dev{index}/peak_total_bytes"), "device", ts, self.peak_total())
                .with_tid(tid),
        );
        obs.emit(
            Event::counter(format!("dev{index}/capacity_bytes"), "device", ts, self.capacity())
                .with_tid(tid),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vf_obs::{Phase, RingSink};

    #[test]
    fn device_tids_are_disjoint_from_vn_tracks() {
        assert_eq!(device_tid(0), 1000);
        assert_eq!(device_tid(7), 1007);
    }

    #[test]
    fn sim_us_rounds_and_clamps() {
        assert_eq!(sim_us(1.5), 1_500_000);
        assert_eq!(sim_us(0.000_000_4), 0);
        assert_eq!(sim_us(-3.0), 0);
        assert_eq!(sim_us(f64::NAN), 0);
    }

    #[test]
    fn memory_timeline_becomes_per_device_counters() {
        let mut mem = MemoryTracker::new(1000).with_timeline();
        mem.alloc(MemoryCategory::Parameters, 100, 0.0).unwrap();
        mem.alloc(MemoryCategory::Activations, 50, 1.0).unwrap();
        mem.free(MemoryCategory::Activations, 50, 2.0);
        let ring = Arc::new(RingSink::unbounded());
        let obs = Recorder::with_sink(ring.clone());
        emit_memory_timeline(&obs, 3, mem.timeline());
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.ph == Phase::Counter));
        assert!(events.iter().all(|e| e.tid == device_tid(3)));
        assert_eq!(events[1].name, "dev3/mem_total_bytes");
        assert_eq!(events[1].ts_us, 1_000_000);
        let series = vf_obs::profile::counter_series(&events);
        assert_eq!(
            series["dev3/mem_total_bytes"],
            vec![(0, 100.0), (1_000_000, 150.0), (2_000_000, 100.0)]
        );
    }

    #[test]
    fn peaks_emit_every_category_plus_totals() {
        let mut mem = MemoryTracker::new(1000);
        mem.alloc(MemoryCategory::Gradients, 70, 0.0).unwrap();
        mem.free(MemoryCategory::Gradients, 70, 0.5);
        let ring = Arc::new(RingSink::unbounded());
        let obs = Recorder::with_sink(ring.clone());
        mem.emit_peaks(&obs, 0, 2.0);
        let events = ring.events();
        assert_eq!(events.len(), MemoryCategory::ALL.len() + 2);
        let series = vf_obs::profile::counter_series(&events);
        assert_eq!(series["dev0/peak/grads"], vec![(2_000_000, 70.0)]);
        assert_eq!(series["dev0/peak_total_bytes"], vec![(2_000_000, 70.0)]);
        assert_eq!(series["dev0/capacity_bytes"], vec![(2_000_000, 1000.0)]);
    }

    #[test]
    fn disabled_recorder_swallows_everything() {
        let obs = Recorder::disabled();
        emit_memory_timeline(&obs, 0, &[]);
        MemoryTracker::new(10).emit_peaks(&obs, 0, 0.0);
        emit_backward_window(&obs, 0, 1.0, 0.5);
        assert_eq!(obs.events_recorded(), 0);
    }

    #[test]
    fn backward_window_span_covers_the_tail() {
        let ring = Arc::new(RingSink::unbounded());
        let obs = Recorder::with_sink(ring.clone());
        emit_backward_window(&obs, 7, 1.5, 0.5);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "step/backward");
        assert_eq!(events[0].cat, "train");
        assert_eq!((events[0].ts_us, events[0].dur_us), (1_500_000, 500_000));
        // Sub-microsecond windows still render as a visible span.
        emit_backward_window(&obs, 8, 2.0, 1e-9);
        assert_eq!(ring.events()[1].dur_us, 1);
    }

    #[test]
    fn category_slugs_are_unique() {
        let mut slugs: Vec<&str> = MemoryCategory::ALL.iter().map(|c| c.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), MemoryCategory::ALL.len());
    }
}
