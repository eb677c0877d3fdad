//! What one steady-state `Trainer::step` allocates.
//!
//! A step looks its shards up in the epoch's cached index order, so its
//! allocations are a function of (model, batch, virtual nodes) and not of
//! the dataset: the same calls and the same bytes over 4 096 examples as
//! over 65 536. (Reshuffling the dataset per step, as the trainer once did,
//! costs `8 · dataset_len` bytes a step for the permutation alone.) The
//! per-VN call count of the paper's many-small-VNs shape is pinned too, so
//! a copy creeping back into the tape or the gather shows up as a number.
//!
//! This file owns its process — the counting allocator is this binary's
//! global allocator — and holds a single test, so nothing else allocates
//! while counting is armed. The pool is pinned to one logical thread: no
//! workers, no job hand-off, device tasks inline in device order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_device::DeviceId;
use vf_models::Mlp;
use vf_tensor::pool;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// updating counters, which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

const VNS: u32 = 64;
const MICRO_BATCH: usize = 8;

/// Allocator calls one step of this shape may make per virtual node (gather,
/// tape, backward, and the step's own bookkeeping spread over the 64 VNs).
/// Measured: 3 938 a step (3 936 in release builds) = 61.5 per VN, so the
/// budget has 7 % slack. (When every VN still copied the parameters, its
/// micro-batch and each node's gradient: 7 461 a step, 116.6 per VN.)
const CALLS_PER_VN_BUDGET: u64 = 66;

/// `(calls, bytes)` of the third step of the `train_many_vn` shape — `Mlp
/// 32-[32]-8` with batch norm, 64 VNs of micro-batch 8 on 4 devices — over a
/// dataset of `dataset_len` examples. Step 0 builds the epoch's order and
/// the optimizer's state; by step 2 the trainer is in steady state, and
/// 4 096 / 512 = 8 steps an epoch keeps it clear of an epoch change.
fn third_step_allocations(dataset_len: usize) -> (u64, u64) {
    let dataset = ClusterTask {
        num_examples: dataset_len,
        dim: 32,
        num_classes: 8,
        separation: 1.0,
        spread: 1.0,
        label_noise: 0.1,
        seed: 5,
    }
    .generate()
    .expect("generates");
    let arch = Arc::new(Mlp::new(32, vec![32], 8).with_batch_norm());
    let config = TrainerConfig::simple(VNS, VNS as usize * MICRO_BATCH, 0.05, 5);
    let devices: Vec<DeviceId> = (0..4).map(DeviceId).collect();
    let mut trainer = Trainer::new(arch, Arc::new(dataset), config, &devices).expect("trainer");
    trainer.run_steps(2).expect("warm-up");

    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ARMED.store(true, Ordering::Relaxed);
    let report = trainer.step();
    ARMED.store(false, Ordering::Relaxed);
    report.expect("step");
    (
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn a_step_allocates_by_the_batch_not_by_the_dataset() {
    pool::set_num_threads(1);
    let small = third_step_allocations(4_096);
    let large = third_step_allocations(65_536);
    assert_eq!(
        small, large,
        "(calls, bytes) of one step over 4 096 vs 65 536 examples"
    );
    assert!(
        small.0 <= CALLS_PER_VN_BUDGET * u64::from(VNS),
        "{} allocator calls a step = {:.1} per VN, budget {CALLS_PER_VN_BUDGET} per VN",
        small.0,
        small.0 as f64 / f64::from(VNS)
    );
}
