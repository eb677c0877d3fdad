//! The [`Recorder`]: the handle instrumented code holds.
//!
//! A recorder is either *disabled* (the default — a `None`, so cloning and
//! carrying one costs a pointer and emission sites cost one branch) or
//! *enabled* around a shared [`Sink`]. It also carries the **simulated
//! clock** for timestamps: the chaos supervisor and cluster simulator push
//! `SimClock` seconds into it, while a bare trainer advances it by a fixed
//! logical step width, so every event gets a deterministic `ts` without any
//! wall-clock read.
//!
//! The time setter is a monotonic max: an outer driver setting absolute
//! sim time always wins over inner logical advances, and time never goes
//! backwards (Chrome renders backwards timestamps as garbage).

use crate::event::Event;
use crate::scale;
use crate::sink::Sink;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

struct Inner {
    sink: Box<dyn Sink>,
    now_us: AtomicU64,
    recorded: AtomicU64,
    /// Events rejected by head-based sampling — counted, never silent.
    dropped: AtomicU64,
    /// Seed of the sampling decision ([`scale::admits`]).
    sample_seed: AtomicU64,
    /// Keep rate in parts-per-million; 1_000_000 keeps everything (the
    /// default, so un-sampled traces stay byte-identical to before).
    keep_ppm: AtomicU32,
}

/// A cheap cloneable tracing handle. See the module docs.
///
/// # Examples
///
/// ```
/// use vf_obs::{Event, Recorder, RingSink};
/// use std::sync::Arc;
///
/// let ring = Arc::new(RingSink::unbounded());
/// let obs = Recorder::with_sink(ring.clone());
/// obs.set_time_s(1.5);
/// if obs.is_enabled() {
///     obs.emit(Event::instant("fault/crash", "chaos", obs.now_us()));
/// }
/// assert_eq!(ring.events()[0].ts_us, 1_500_000);
///
/// // Disabled recorders never touch their closure:
/// Recorder::disabled().record_with(|| unreachable!("not built"));
/// ```
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The disabled recorder: every operation is a no-op.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder owning its sink.
    pub fn new(sink: impl Sink + 'static) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                sink: Box::new(sink),
                now_us: AtomicU64::new(0),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                sample_seed: AtomicU64::new(0),
                keep_ppm: AtomicU32::new(1_000_000),
            })),
        }
    }

    /// A recorder over a shared sink, letting the caller keep a handle to
    /// collect events later (the usual pattern with [`crate::RingSink`]).
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        struct Shared(Arc<dyn Sink>);
        impl Sink for Shared {
            fn record(&self, event: &Event) {
                self.0.record(event);
            }
            fn flush(&self) {
                self.0.flush();
            }
        }
        Recorder::new(Shared(sink))
    }

    /// True when events will actually be delivered. Hot paths gate on this
    /// before formatting names or gathering args.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.now_us.load(Ordering::Relaxed))
    }

    /// Sets the clock to `t_s` simulated seconds if that is in the future
    /// (monotonic max; fractional microseconds round to nearest).
    pub fn set_time_s(&self, t_s: f64) {
        if t_s.is_finite() && t_s >= 0.0 {
            self.set_time_us((t_s * 1e6).round() as u64);
        }
    }

    /// Sets the clock to `t_us` microseconds if that is in the future.
    pub fn set_time_us(&self, t_us: u64) {
        if let Some(i) = &self.inner {
            i.now_us.fetch_max(t_us, Ordering::Relaxed);
        }
    }

    /// Advances the clock by `dt_us` microseconds.
    pub fn advance_us(&self, dt_us: u64) {
        if let Some(i) = &self.inner {
            i.now_us.fetch_add(dt_us, Ordering::Relaxed);
        }
    }

    /// Delivers `event` to the sink (dropped when disabled).
    pub fn emit(&self, event: Event) {
        if let Some(i) = &self.inner {
            i.recorded.fetch_add(1, Ordering::Relaxed);
            i.sink.record(&event);
        }
    }

    /// Builds the event lazily: `build` runs only when enabled, so a
    /// disabled recorder allocates nothing.
    #[inline]
    pub fn record_with(&self, build: impl FnOnce() -> Event) {
        if self.is_enabled() {
            self.emit(build());
        }
    }

    /// Configures head-based trace sampling: the trace unit `key` (a job
    /// id) is kept iff [`scale::admits`]`(seed, key, keep_ppm)` — a pure
    /// function, so every thread, run, and replica keeps the *same* subset
    /// and sampled traces stay deterministic. The default `keep_ppm` of
    /// 1_000_000 keeps everything (existing traces are unaffected until a
    /// caller opts in). No-op when disabled.
    pub fn set_head_sampling(&self, seed: u64, keep_ppm: u32) {
        if let Some(i) = &self.inner {
            i.sample_seed.store(seed, Ordering::Relaxed);
            i.keep_ppm.store(keep_ppm.min(1_000_000), Ordering::Relaxed);
        }
    }

    /// The sampling decision for trace unit `key`: true when its events
    /// should be recorded. Always false when disabled (nothing records),
    /// true for every key at the default keep-all rate.
    pub fn admits(&self, key: u64) -> bool {
        match &self.inner {
            Some(i) => scale::admits(
                i.sample_seed.load(Ordering::Relaxed),
                key,
                i.keep_ppm.load(Ordering::Relaxed),
            ),
            None => false,
        }
    }

    /// Like [`Recorder::record_with`], but subject to head-based sampling
    /// on `key`: a rejected key's event is not built, and the rejection is
    /// counted in [`Recorder::events_dropped`] — sampled away, never
    /// silently lost.
    #[inline]
    pub fn record_sampled(&self, key: u64, build: impl FnOnce() -> Event) {
        if let Some(i) = &self.inner {
            if self.admits(key) {
                self.emit(build());
            } else {
                i.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total events delivered through this recorder (0 when disabled).
    pub fn events_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.recorded.load(Ordering::Relaxed))
    }

    /// Events rejected by head-based sampling (0 when disabled — a
    /// disabled recorder records nothing and samples nothing).
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        if let Some(i) = &self.inner {
            i.sink.flush();
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("now_us", &self.now_us())
            .field("events_recorded", &self.events_recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    #[test]
    fn disabled_recorder_never_builds_events() {
        let obs = Recorder::disabled();
        assert!(!obs.is_enabled());
        let mut built = false;
        obs.record_with(|| {
            built = true;
            Event::instant("x", "train", 0)
        });
        assert!(!built, "a disabled recorder must not construct events");
        assert_eq!(obs.events_recorded(), 0);
        obs.set_time_s(5.0);
        assert_eq!(obs.now_us(), 0);
    }

    #[test]
    fn clock_is_monotonic_max() {
        let obs = Recorder::new(RingSink::unbounded());
        obs.set_time_s(2.0);
        obs.set_time_s(1.0); // ignored: time never rewinds
        assert_eq!(obs.now_us(), 2_000_000);
        obs.advance_us(5);
        assert_eq!(obs.now_us(), 2_000_005);
        obs.set_time_s(f64::NAN); // ignored: non-finite input
        obs.set_time_s(-1.0); // ignored: negative input
        assert_eq!(obs.now_us(), 2_000_005);
    }

    #[test]
    fn clock_stays_monotonic_under_interleaved_set_and_advance() {
        // The contract profiled traces rely on: however absolute sets and
        // relative advances interleave, now_us() never decreases, absolute
        // sets act as a monotonic max, and advances always move forward.
        let obs = Recorder::new(RingSink::unbounded());
        let mut last = obs.now_us();
        let ops: &[(&str, u64)] = &[
            ("set", 100),
            ("adv", 10),   // 110
            ("set", 50),   // ignored: in the past
            ("adv", 5),    // 115
            ("set", 115),  // exact-present set is a no-op
            ("set", 200),  // jumps forward
            ("adv", 0),    // zero advance holds position
            ("adv", 1),    // 201
            ("set", 201),  // no-op again
        ];
        for &(op, v) in ops {
            match op {
                "set" => obs.set_time_us(v),
                _ => obs.advance_us(v),
            }
            let now = obs.now_us();
            assert!(now >= last, "clock went backwards: {last} -> {now} after {op}({v})");
            last = now;
        }
        assert_eq!(obs.now_us(), 201);
        // Seconds-based sets share the same max semantics, with rounding.
        obs.set_time_s(0.000_1); // 100us, far in the past
        assert_eq!(obs.now_us(), 201);
        obs.set_time_s(0.001); // 1000us, future
        assert_eq!(obs.now_us(), 1_000);
    }

    #[test]
    fn default_sampling_keeps_everything_and_counts_nothing() {
        let ring = Arc::new(RingSink::unbounded());
        let obs = Recorder::with_sink(ring.clone());
        for key in 0..50u64 {
            obs.record_sampled(key, || Event::instant("e", "sched", 0));
        }
        assert_eq!(ring.len(), 50, "keep-all default records every key");
        assert_eq!(obs.events_dropped(), 0);
    }

    #[test]
    fn head_sampling_drops_deterministically_and_counts_drops() {
        let ring = Arc::new(RingSink::unbounded());
        let obs = Recorder::with_sink(ring.clone());
        obs.set_head_sampling(42, 250_000); // keep ~25%
        let mut built = 0u64;
        for key in 0..1000u64 {
            obs.record_sampled(key, || {
                built += 1;
                Event::instant("e", "sched", 0)
            });
        }
        let kept = ring.len() as u64;
        assert_eq!(built, kept, "rejected keys never build their event");
        assert_eq!(obs.events_recorded() + obs.events_dropped(), 1000);
        assert!((100..500).contains(&kept), "~25% of 1000, got {kept}");
        // The decision is shared by clones and repeatable per key.
        let clone = obs.clone();
        for key in 0..1000u64 {
            assert_eq!(obs.admits(key), clone.admits(key));
        }
        // A disabled recorder neither records nor counts drops.
        let off = Recorder::disabled();
        off.set_head_sampling(42, 0);
        let mut built = false;
        off.record_sampled(7, || {
            built = true;
            Event::instant("e", "sched", 0)
        });
        assert!(!built, "a disabled recorder never builds the event");
        assert_eq!(off.events_dropped(), 0);
        assert!(!off.admits(7));
    }

    #[test]
    fn shared_sink_sees_events_from_clones() {
        let ring = Arc::new(RingSink::unbounded());
        let a = Recorder::with_sink(ring.clone());
        let b = a.clone();
        a.emit(Event::instant("from-a", "train", 0));
        b.emit(Event::instant("from-b", "train", 1));
        assert_eq!(ring.len(), 2);
        assert_eq!(a.events_recorded(), 2, "clones share one counter");
    }
}
