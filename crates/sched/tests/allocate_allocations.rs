//! What a warm `ElasticWfs::allocate` asks of the allocator.
//!
//! Elastic WFS recomputes every share at every scheduling event, so its
//! per-call scratch — the compact rows it sorts, the ranks it water-fills
//! and selects over, the grants in table order — lives in the scheduler
//! and is reused. Once warm, a call asks the allocator only for the map it
//! returns: no more calls than collecting an equal `BTreeMap` makes. A
//! fresh vector per pass, or a sort buffer, fails it.
//!
//! This file owns its process — the counting allocator is this binary's
//! global allocator — and holds a single test, so nothing else allocates
//! while counting is armed.

#![allow(clippy::unwrap_used, clippy::panic, reason = "integration test")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use vf_sched::{ElasticWfs, JobId, JobSpec, JobState, Scheduler, WeightPolicy};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// updating a counter, which neither allocates nor touches the returned
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocator calls `f` makes, and what it returned.
fn calls_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    CALLS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (CALLS.load(Ordering::Relaxed), out)
}

/// `n` jobs in id order, as the simulator lends its table: priorities 1, 5
/// and 10, demands 1–8, some work already done.
fn table(n: u32) -> Vec<JobState> {
    (0..n)
        .map(|id| {
            let mut state = JobState::new(JobSpec {
                id: JobId(id),
                name: format!("j{id}"),
                priority: [1, 5, 10][id as usize % 3],
                demand: 1 + id * 7 % 8,
                total_vns: 16,
                model: vf_models::profile::resnet56(),
                micro_batch: 32,
                total_steps: 1000,
                arrival_s: f64::from(id % 13),
            });
            state.remaining_steps -= f64::from(id * 37 % 1000);
            state
        })
        .collect()
}

/// The allocator calls that collecting a map equal to `map` makes.
fn collect_calls(map: &BTreeMap<JobId, u32>) -> u64 {
    let (calls, copy): (_, BTreeMap<_, _>) =
        calls_of(|| map.iter().map(|(&id, &g)| (id, g)).collect());
    assert_eq!(&copy, map);
    calls
}

#[test]
fn warm_allocate_asks_only_for_the_map_it_returns() {
    let jobs = table(100);
    let demand: u32 = jobs.iter().map(|j| j.spec.demand).sum();
    // Contended (the water-fill and the remainder pass both run) and not.
    for capacity in [256, demand] {
        for policy in [
            WeightPolicy::Priority,
            WeightPolicy::Srtf,
            WeightPolicy::Las,
        ] {
            let mut wfs = ElasticWfs::with_policy(policy);
            wfs.allocate(0.0, &jobs, capacity);
            let (calls, alloc) = calls_of(|| wfs.allocate(0.0, &jobs, capacity));
            let map_calls = collect_calls(&alloc);
            assert!(
                calls <= map_calls,
                "{policy:?} at {capacity} GPUs: {calls} allocator calls, \
                 collecting the same map takes {map_calls}"
            );
            // A smaller table after a larger one fits the same buffers.
            let (calls, alloc) = calls_of(|| wfs.allocate(0.0, &jobs[..60], capacity / 2));
            let map_calls = collect_calls(&alloc);
            assert!(
                calls <= map_calls,
                "{policy:?}, 60 jobs: {calls} > {map_calls}"
            );
        }
    }
}
