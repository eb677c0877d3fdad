//! Event sinks: where a [`Recorder`](crate::Recorder) delivers events.
//!
//! One implementation covers the workspace's needs: [`RingSink`], an
//! in-memory ring buffer holding the most recent `cap` events (unbounded
//! mode keeps them all). The determinism tests and the `trace_report`
//! harness collect from here and render with [`crate::chrome`]; tracing
//! that is off costs nothing because a disabled recorder has no sink.
//!
//! Sinks are `Send + Sync` so one recorder can be cloned across the
//! supervisor and its trainer; interior mutability is a plain `Mutex`
//! (poisoning is absorbed — a sink holds no invariants a panicked writer
//! could break).

use crate::event::Event;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// A destination for trace events.
pub trait Sink: Send + Sync {
    /// Delivers one event.
    fn record(&self, event: &Event);
    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// An in-memory ring buffer of the most recent events.
#[derive(Debug, Default)]
pub struct RingSink {
    /// 0 = unbounded.
    cap: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// A sink keeping every event (unbounded growth).
    pub fn unbounded() -> Self {
        RingSink::default()
    }

    /// A sink keeping only the most recent `cap` events (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::with_capacity(cap.clamp(1, 4096))),
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        buf.iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for RingSink {
    fn record(&self, event: &Event) {
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        if self.cap > 0 && buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent() {
        let s = RingSink::with_capacity(2);
        for i in 0..5u64 {
            s.record(&Event::instant(format!("e{i}"), "train", i));
        }
        let names: Vec<String> = s.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["e3", "e4"]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn unbounded_ring_keeps_everything() {
        let s = RingSink::unbounded();
        assert!(s.is_empty());
        for i in 0..100u64 {
            s.record(&Event::instant("e", "train", i));
        }
        assert_eq!(s.len(), 100);
    }
}
