//! Per-device memory accounting.
//!
//! Reproduces the memory structure of Figures 3, 5, 6 and 15 of the paper:
//! device memory is occupied by categories that scale differently —
//! activations scale with the *per-virtual-node* batch, while parameters,
//! gradients, the optimizer state and VirtualFlow's gradient buffer scale
//! with the *model*. The tracker enforces the device capacity (allocations
//! beyond it fail like a real OOM) and records peaks and an optional
//! timeline for the memory-footprint figures.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Categories of device memory usage, mirroring Figure 6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryCategory {
    /// Model parameters (replicated on every device).
    Parameters,
    /// Layer activations retained for the backward pass.
    Activations,
    /// Gradients produced by the current backward pass.
    Gradients,
    /// VirtualFlow's per-device gradient accumulation buffer.
    GradientBuffer,
    /// The prefetched input micro-batch.
    InputBatch,
    /// Optimizer state (momentum / Adam moments).
    OptimizerState,
}

impl MemoryCategory {
    /// All categories, in display order.
    pub const ALL: [MemoryCategory; 6] = [
        MemoryCategory::Parameters,
        MemoryCategory::Activations,
        MemoryCategory::Gradients,
        MemoryCategory::GradientBuffer,
        MemoryCategory::InputBatch,
        MemoryCategory::OptimizerState,
    ];

    fn index(self) -> usize {
        match self {
            MemoryCategory::Parameters => 0,
            MemoryCategory::Activations => 1,
            MemoryCategory::Gradients => 2,
            MemoryCategory::GradientBuffer => 3,
            MemoryCategory::InputBatch => 4,
            MemoryCategory::OptimizerState => 5,
        }
    }
}

impl fmt::Display for MemoryCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MemoryCategory::Parameters => "parameters",
            MemoryCategory::Activations => "activations",
            MemoryCategory::Gradients => "gradients",
            MemoryCategory::GradientBuffer => "gradient buffer",
            MemoryCategory::InputBatch => "input batch",
            MemoryCategory::OptimizerState => "optimizer state",
        };
        f.write_str(name)
    }
}

/// A point-in-time snapshot of memory usage by category.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySnapshot {
    /// Simulated time of the snapshot, in seconds.
    pub time_s: f64,
    /// Bytes in use per category, indexed as [`MemoryCategory::ALL`].
    pub by_category: [u64; 6],
}

impl MemorySnapshot {
    /// Total bytes across all categories.
    pub fn total(&self) -> u64 {
        self.by_category.iter().sum()
    }

    /// Bytes in use for one category.
    pub fn get(&self, cat: MemoryCategory) -> u64 {
        self.by_category[cat.index()]
    }
}

/// Error returned when an allocation would exceed device capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes already in use.
    pub in_use: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
    /// The category of the failing allocation.
    pub category: MemoryCategory,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes for {} with {}/{} bytes in use",
            self.requested, self.category, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// Tracks memory usage of one simulated device.
///
/// # Examples
///
/// ```
/// use vf_device::memory::{MemoryCategory, MemoryTracker};
///
/// let mut mem = MemoryTracker::new(1024);
/// mem.alloc(MemoryCategory::Parameters, 512, 0.0)?;
/// mem.alloc(MemoryCategory::Activations, 256, 1.0)?;
/// assert_eq!(mem.in_use(), 768);
/// mem.free(MemoryCategory::Activations, 256, 2.0);
/// assert_eq!(mem.peak_total(), 768);
/// # Ok::<(), vf_device::memory::OomError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    capacity: u64,
    by_category: [u64; 6],
    peak_total: u64,
    peak_by_category: [u64; 6],
    timeline: Vec<MemorySnapshot>,
    record_timeline: bool,
}

impl MemoryTracker {
    /// A tracker with the given capacity in bytes; timeline recording off.
    pub fn new(capacity: u64) -> Self {
        MemoryTracker {
            capacity,
            by_category: [0; 6],
            peak_total: 0,
            peak_by_category: [0; 6],
            timeline: Vec::new(),
            record_timeline: false,
        }
    }

    /// Enables timeline recording (used by the Figure 6 harness).
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently in use.
    pub fn in_use(&self) -> u64 {
        self.by_category.iter().sum()
    }

    /// Bytes currently in use for `cat`.
    pub fn in_use_for(&self, cat: MemoryCategory) -> u64 {
        self.by_category[cat.index()]
    }

    /// Highest total usage observed.
    pub fn peak_total(&self) -> u64 {
        self.peak_total
    }

    /// Highest usage observed for `cat`.
    pub fn peak_for(&self, cat: MemoryCategory) -> u64 {
        self.peak_by_category[cat.index()]
    }

    /// The recorded timeline (empty unless [`with_timeline`](Self::with_timeline)).
    pub fn timeline(&self) -> &[MemorySnapshot] {
        &self.timeline
    }

    /// Allocates `bytes` in `cat` at simulated time `time_s`.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the allocation would exceed capacity; usage is
    /// unchanged on error.
    pub fn alloc(
        &mut self,
        cat: MemoryCategory,
        bytes: u64,
        time_s: f64,
    ) -> Result<(), OomError> {
        let in_use = self.in_use();
        if in_use + bytes > self.capacity {
            return Err(OomError {
                requested: bytes,
                in_use,
                capacity: self.capacity,
                category: cat,
            });
        }
        self.by_category[cat.index()] += bytes;
        let total = in_use + bytes;
        self.peak_total = self.peak_total.max(total);
        let c = cat.index();
        self.peak_by_category[c] = self.peak_by_category[c].max(self.by_category[c]);
        self.snapshot(time_s);
        Ok(())
    }

    /// Frees `bytes` from `cat` at simulated time `time_s`, saturating at
    /// zero if over-freed.
    pub fn free(&mut self, cat: MemoryCategory, bytes: u64, time_s: f64) {
        let c = cat.index();
        self.by_category[c] = self.by_category[c].saturating_sub(bytes);
        self.snapshot(time_s);
    }

    fn snapshot(&mut self, time_s: f64) {
        if self.record_timeline {
            self.timeline.push(MemorySnapshot {
                time_s,
                by_category: self.by_category,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip() {
        let mut m = MemoryTracker::new(100);
        m.alloc(MemoryCategory::Parameters, 40, 0.0).unwrap();
        m.alloc(MemoryCategory::Activations, 50, 0.1).unwrap();
        assert_eq!(m.in_use(), 90);
        m.free(MemoryCategory::Activations, 50, 0.2);
        assert_eq!(m.in_use(), 40);
        assert_eq!(m.peak_total(), 90);
    }

    #[test]
    fn oom_is_rejected_and_leaves_state_unchanged() {
        let mut m = MemoryTracker::new(100);
        m.alloc(MemoryCategory::Parameters, 80, 0.0).unwrap();
        let err = m.alloc(MemoryCategory::Activations, 30, 0.1).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(m.in_use(), 80);
        assert_eq!(m.in_use_for(MemoryCategory::Activations), 0);
    }

    #[test]
    fn exact_fit_is_allowed() {
        let mut m = MemoryTracker::new(100);
        assert!(m.alloc(MemoryCategory::Parameters, 100, 0.0).is_ok());
        assert!(m.alloc(MemoryCategory::Gradients, 1, 0.1).is_err());
    }

    #[test]
    fn per_category_peaks_are_independent() {
        let mut m = MemoryTracker::new(100);
        m.alloc(MemoryCategory::Activations, 60, 0.0).unwrap();
        m.free(MemoryCategory::Activations, 60, 0.1);
        m.alloc(MemoryCategory::Gradients, 20, 0.2).unwrap();
        assert_eq!(m.peak_for(MemoryCategory::Activations), 60);
        assert_eq!(m.peak_for(MemoryCategory::Gradients), 20);
        assert_eq!(m.peak_total(), 60);
    }

    #[test]
    fn over_free_saturates() {
        let mut m = MemoryTracker::new(100);
        m.alloc(MemoryCategory::InputBatch, 10, 0.0).unwrap();
        m.free(MemoryCategory::InputBatch, 99, 0.1);
        assert_eq!(m.in_use(), 0);
    }

    #[test]
    fn timeline_records_every_event() {
        let mut m = MemoryTracker::new(100).with_timeline();
        m.alloc(MemoryCategory::Parameters, 10, 0.0).unwrap();
        m.alloc(MemoryCategory::Activations, 20, 1.0).unwrap();
        m.free(MemoryCategory::Activations, 20, 2.0);
        let tl = m.timeline();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[1].total(), 30);
        assert_eq!(tl[2].get(MemoryCategory::Parameters), 10);
        assert_eq!(tl[2].time_s, 2.0);
    }

    #[test]
    fn timeline_off_by_default() {
        let mut m = MemoryTracker::new(100);
        m.alloc(MemoryCategory::Parameters, 10, 0.0).unwrap();
        assert!(m.timeline().is_empty());
    }
}
