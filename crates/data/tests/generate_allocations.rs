//! What generating a synthetic dataset holds in host memory.
//!
//! A dataset is generated into the buffer it is returned in: each example's
//! noise is drawn straight into its row, and the shuffle of example order
//! moves rows in place, one permutation cycle at a time. So the peak of the
//! bytes live during `generate()` is the features once, plus the order and
//! the labels (`n` words each) and a few rows of scratch. Shuffling into a
//! second feature buffer, as the generator once did, holds the features
//! twice.
//!
//! This file owns its process — the counting allocator is this binary's
//! global allocator — and holds a single test, so nothing else allocates
//! while counting is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use vf_data::synthetic::{ClusterTask, ImageTask};
use vf_data::Dataset;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting was armed.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The highest [`LIVE`] since counting was armed.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Moves the live bytes by `delta` and the peak with them.
fn live(delta: i64) {
    if ARMED.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// updating counters, which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        live(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        live(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Scratch allowed beside the features, order and labels: centers or
/// prototypes, one row, the RNG, with room to spare.
const SCRATCH_BUDGET: u64 = 64 * 1024;

/// The peak bytes live while `generate` runs, and the dataset it returned.
fn peak_while(generate: impl FnOnce() -> Dataset) -> (u64, Dataset) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let dataset = generate();
    ARMED.store(false, Ordering::Relaxed);
    (PEAK.load(Ordering::Relaxed) as u64, dataset)
}

#[test]
fn generation_holds_the_features_once() {
    let word = std::mem::size_of::<usize>() as u64;
    let (n, dim) = (16_384, 32);
    let features = (n * dim * 4) as u64;

    // The shuffled task: features, then the order and the labels.
    let (peak, dataset) = peak_while(|| {
        ClusterTask {
            num_examples: n,
            dim,
            num_classes: 8,
            separation: 1.0,
            spread: 1.0,
            label_noise: 0.1,
            seed: 5,
        }
        .generate()
        .expect("generates")
    });
    assert_eq!(dataset.len(), n);
    let budget = features + 3 * n as u64 * word + SCRATCH_BUDGET;
    assert!(
        peak <= budget,
        "ClusterTask {n} × {dim}: {peak} bytes live at the peak, budget {budget} \
         ({features} bytes of features)"
    );

    // The unshuffled task: features and labels.
    let (peak, dataset) = peak_while(|| {
        ImageTask {
            num_examples: n,
            channels: 2,
            height: 4,
            width: 4,
            num_classes: 8,
            signal: 0.8,
            label_noise: 0.1,
            seed: 5,
        }
        .generate()
        .expect("generates")
    });
    assert_eq!(dataset.len(), n);
    let budget = features + n as u64 * word + SCRATCH_BUDGET;
    assert!(
        peak <= budget,
        "ImageTask {n} × 2 × 4 × 4: {peak} bytes live at the peak, budget {budget} \
         ({features} bytes of features)"
    );
}
