//! In-memory spans recorded by the harness around its calls into each layer.
//!
//! The traced child runs with one thread, so spans nest as a stack: the span
//! open when another starts is its parent, and a layer's self time is its
//! duration minus its direct children's, which is never negative.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans in start order (`id` is the index) plus the stack of open ones.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn open(&mut self, name: &'static str, now_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now_ns,
            end_ns: now_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` and any span still open inside it.
    pub fn close(&mut self, id: u32, now_ns: u64) {
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now_ns;
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the direct children's durations.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own_ns;
    }
    out
}

/// Durations in ms of the spans called `name`, in start order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// For each span called `parent`, the summed ms of its direct children
/// called `child`.
pub fn child_ms_per_parent(spans: &[Span], parent: &str, child: &str) -> Vec<f64> {
    let mut sums: BTreeMap<u32, f64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| (s.id, 0.0))
        .collect();
    for s in spans.iter().filter(|s| s.name == child) {
        if let Some(sum) = s.parent.and_then(|p| sums.get_mut(&p)) {
            *sum += s.dur_ns() as f64 / 1e6;
        }
    }
    sums.into_values().collect()
}

/// The first `limit` spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete events in µs on one track, `args` carrying `id` and `parent`.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        // Writing to a String cannot fail.
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent
        );
    }
    let _ = write!(
        out,
        "\n],\"otherData\":{{\"spans_recorded\":{},\"spans_written\":{}}}}}\n",
        spans.len(),
        spans.len().min(limit)
    );
    out
}

// ---------------------------------------------------------------------------
// The process-wide log the harness records into.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static LOG: Mutex<Option<(Instant, SpanLog)>> = Mutex::new(None);

/// Turns recording on or off; while off, [`enter`] costs one relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn with_log<T>(f: impl FnOnce(&mut SpanLog, u64) -> T) -> T {
    // A panic while the lock is held cannot leave the log inconsistent (every
    // update is a push or a field store), so a poisoned lock is still usable.
    let mut guard = LOG.lock().unwrap_or_else(|e| e.into_inner());
    let (epoch, log) = guard.get_or_insert_with(|| (Instant::now(), SpanLog::default()));
    let now_ns = epoch.elapsed().as_nanos() as u64;
    f(log, now_ns)
}

/// An open span; closes when dropped.
pub struct Guard(Option<u32>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            with_log(|log, now| log.close(id, now));
        }
    }
}

/// Opens a span under the innermost open one. A no-op while recording is off.
pub fn enter(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    Guard(Some(with_log(|log, now| log.open(name, now))))
}

/// A copy of everything recorded so far.
pub fn snapshot() -> Vec<Span> {
    with_log(|log, _| log.spans().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// step[0,100] { grad[10,40] { gemm[15,25] } grad[40,70] }  step[100,130]
    fn log() -> SpanLog {
        let mut log = SpanLog::default();
        let step = log.open("step", 0);
        let g1 = log.open("grad", 10);
        let k = log.open("gemm", 15);
        log.close(k, 25);
        log.close(g1, 40);
        let g2 = log.open("grad", 40);
        log.close(g2, 70);
        log.close(step, 100);
        let step2 = log.open("step", 100);
        log.close(step2, 130);
        log
    }

    #[test]
    fn parents_follow_the_open_stack() {
        let log = log();
        let parents: Vec<Option<u32>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0), None]);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let log = log();
        // step: 100 - (30 + 30); first grad: 30 - 10; adjacent grads do not
        // overlap, and the grandchild gemm is not subtracted from step twice.
        assert_eq!(self_ns(log.spans()), vec![40, 20, 10, 30, 30]);
        let totals = totals_by_name(log.spans());
        assert_eq!(
            totals["step"],
            NameTotal {
                count: 2,
                total_ns: 130,
                self_ns: 70
            }
        );
        assert_eq!(
            totals["grad"],
            NameTotal {
                count: 2,
                total_ns: 60,
                self_ns: 50
            }
        );
        // Children + self = parent, by construction.
        let all_self: u64 = self_ns(log.spans()).iter().sum();
        assert_eq!(all_self, 130);
    }

    #[test]
    fn closing_a_parent_closes_what_is_still_open_inside_it() {
        let mut log = SpanLog::default();
        let outer = log.open("outer", 0);
        let _leaked = log.open("inner", 5);
        log.close(outer, 9);
        assert_eq!(log.spans()[1].end_ns, 9);
        assert_eq!(self_ns(log.spans()), vec![5, 4]);
    }

    #[test]
    fn children_are_summed_per_parent() {
        let log = log();
        assert_eq!(
            child_ms_per_parent(log.spans(), "step", "grad"),
            vec![60e-6, 0.0]
        );
        assert_eq!(durations_ms(log.spans(), "gemm"), vec![10e-6]);
    }

    #[test]
    fn chrome_trace_is_capped_and_says_so() {
        let log = log();
        let json = chrome_trace(log.spans(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"spans_recorded\":5,\"spans_written\":2"));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0}"));
    }
}
