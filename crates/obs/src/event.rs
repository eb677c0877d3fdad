//! Trace events in Chrome `trace_event` shape.
//!
//! The field set mirrors the subset of the Chrome tracing JSON schema the
//! workspace needs: complete spans (`ph: "X"` with a duration), instants
//! (`ph: "i"`), and counter samples (`ph: "C"`). Timestamps are integer
//! microseconds of *simulated* time; `pid`/`tid` are logical tracks (the
//! trainer puts each virtual node on its own `tid`), not OS identifiers.

/// The Chrome `trace_event` phase of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`"X"`): begins at `ts`, lasts `dur` microseconds.
    Complete,
    /// A point-in-time marker (`"i"`).
    Instant,
    /// A counter sample (`"C"`): args carry the sampled series values.
    Counter,
}

impl Phase {
    /// The single-character Chrome phase code.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }
}

/// A typed argument value attached to an event.
///
/// Floats render through Rust's shortest-roundtrip formatter, which is
/// deterministic; non-finite values render as JSON `null` (Chrome treats
/// them as gaps) so an exported trace is always valid JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point value.
    F64(f64),
    /// A string.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<f32> for ArgValue {
    fn from(v: f32) -> Self {
        ArgValue::F64(f64::from(v))
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// One trace event.
///
/// # Examples
///
/// ```
/// use vf_obs::{Event, Phase};
///
/// let e = Event::complete("vn0/grad", "train", 1_000, 250)
///     .with_tid(1)
///     .with_arg("loss", 0.25f64);
/// assert_eq!(e.ph, Phase::Complete);
/// assert_eq!(e.dur_us, 250);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (e.g. `"vn3/grad"`, `"fault/crash"`).
    pub name: String,
    /// Category: `"train"`, `"comm"`, `"chaos"`, or `"sched"`.
    pub cat: &'static str,
    /// Phase.
    pub ph: Phase,
    /// Start timestamp, microseconds of simulated time.
    pub ts_us: u64,
    /// Duration in microseconds (complete spans only; 0 otherwise).
    pub dur_us: u64,
    /// Logical process track (1 for the single simulated job).
    pub pid: u32,
    /// Logical thread track (the trainer uses VN index + 1; 0 = control).
    pub tid: u32,
    /// Typed arguments, rendered in insertion order.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    fn new(name: impl Into<String>, cat: &'static str, ph: Phase, ts_us: u64) -> Self {
        Event {
            name: name.into(),
            cat,
            ph,
            ts_us,
            dur_us: 0,
            pid: 1,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// A complete span starting at `ts_us` lasting `dur_us`.
    pub fn complete(name: impl Into<String>, cat: &'static str, ts_us: u64, dur_us: u64) -> Self {
        let mut e = Event::new(name, cat, Phase::Complete, ts_us);
        e.dur_us = dur_us;
        e
    }

    /// An instant marker at `ts_us`.
    pub fn instant(name: impl Into<String>, cat: &'static str, ts_us: u64) -> Self {
        Event::new(name, cat, Phase::Instant, ts_us)
    }

    /// A counter sample: `name` is the series, `value` the sampled value.
    pub fn counter(
        name: impl Into<String>,
        cat: &'static str,
        ts_us: u64,
        value: impl Into<ArgValue>,
    ) -> Self {
        Event::new(name, cat, Phase::Counter, ts_us).with_arg("value", value)
    }

    /// Sets the logical thread track.
    #[must_use]
    pub fn with_tid(mut self, tid: u32) -> Self {
        self.tid = tid;
        self
    }

    /// Appends a typed argument.
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes_match_chrome() {
        assert_eq!(Phase::Complete.code(), "X");
        assert_eq!(Phase::Instant.code(), "i");
        assert_eq!(Phase::Counter.code(), "C");
    }

    #[test]
    fn builders_fill_fields() {
        let e = Event::instant("x", "chaos", 7).with_tid(3).with_arg("n", 2u32);
        assert_eq!(e.ts_us, 7);
        assert_eq!(e.tid, 3);
        assert_eq!(e.args, vec![("n", ArgValue::U64(2))]);
        let c = Event::counter("loss", "train", 1, 0.5f64);
        assert_eq!(c.ph, Phase::Counter);
        assert_eq!(c.args, vec![("value", ArgValue::F64(0.5))]);
    }
}
