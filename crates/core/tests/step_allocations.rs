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

/// One trainer shape: `Mlp input-hidden-classes` stepped as `vns` virtual
/// nodes of `micro_batch` examples on 4 devices.
struct Workload {
    input: usize,
    hidden: &'static [usize],
    classes: usize,
    batch_norm: bool,
    vns: u32,
    micro_batch: usize,
}

/// perf_bench's `train_many_vn`: kernels are tiny, so the per-VN overhead —
/// gather, tape, backward, bookkeeping — is the step.
const MANY_VN: Workload = Workload {
    input: 32,
    hidden: &[32],
    classes: 8,
    batch_norm: true,
    vns: 64,
    micro_batch: 8,
};

/// perf_bench's `train_dense`: eight GEMMs a VN over 512-wide layers, so a
/// pack buffer or a zero-filled output per call shows up in the bytes.
const DENSE: Workload = Workload {
    input: 256,
    hidden: &[512, 512],
    classes: 32,
    batch_norm: false,
    vns: 8,
    micro_batch: 128,
};

/// Allocator calls one step of [`MANY_VN`] may make per virtual node (gather,
/// tape, backward, and the step's own bookkeeping spread over the 64 VNs).
/// Measured: 2 010 a step (2 008 in release builds) = 31.4 per VN, so the
/// budget has 8 % slack. What is left is one allocation per tensor an op
/// produces — its data. (When every GEMM call still allocated two pack
/// buffers and every `Shape` a heap word: 3 938 a step, 61.5 per VN; when
/// every VN also copied the parameters, its micro-batch and each node's
/// gradient: 7 461 a step, 116.6 per VN.)
const CALLS_PER_VN_BUDGET: u64 = 34;

/// What one step of [`DENSE`] may ask of the allocator. Measured: 264 calls
/// and 35.8 MB in release builds; debug builds add the pool-race
/// sanitizer's claim set, two calls per pool job, for 400. With a packed
/// copy of `B`, a packed `A` block and a zero-filled output per GEMM call it
/// was 560 calls (release) and 62.7 MB.
const DENSE_CALLS_BUDGET: u64 = if cfg!(debug_assertions) { 440 } else { 300 };
const DENSE_BYTES_BUDGET: u64 = 40_000_000;

/// `(calls, bytes)` of the third step of `shape` over a dataset of
/// `dataset_len` examples. Step 0 builds the epoch's order and the
/// optimizer's state and grows each thread's pack scratch to its working
/// size; by step 2 the trainer is in steady state, and at least 8 steps an
/// epoch keep it clear of an epoch change.
fn third_step_allocations(shape: &Workload, dataset_len: usize) -> (u64, u64) {
    let dataset = ClusterTask {
        num_examples: dataset_len,
        dim: shape.input,
        num_classes: shape.classes,
        separation: 1.0,
        spread: 1.0,
        label_noise: 0.1,
        seed: 5,
    }
    .generate()
    .expect("generates");
    let mlp = Mlp::new(shape.input, shape.hidden.to_vec(), shape.classes);
    let arch = Arc::new(if shape.batch_norm {
        mlp.with_batch_norm()
    } else {
        mlp
    });
    let batch = shape.vns as usize * shape.micro_batch;
    let config = TrainerConfig::simple(shape.vns, batch, 0.05, 5);
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
    let small = third_step_allocations(&MANY_VN, 4_096);
    let large = third_step_allocations(&MANY_VN, 65_536);
    assert_eq!(
        small, large,
        "(calls, bytes) of one step over 4 096 vs 65 536 examples"
    );
    assert!(
        small.0 <= CALLS_PER_VN_BUDGET * u64::from(MANY_VN.vns),
        "{} allocator calls a step = {:.1} per VN, budget {CALLS_PER_VN_BUDGET} per VN",
        small.0,
        small.0 as f64 / f64::from(MANY_VN.vns)
    );

    let (calls, bytes) = third_step_allocations(&DENSE, 8_192);
    assert!(
        calls <= DENSE_CALLS_BUDGET && bytes <= DENSE_BYTES_BUDGET,
        "a dense step made {calls} allocator calls for {bytes} bytes, \
         budget {DENSE_CALLS_BUDGET} calls and {DENSE_BYTES_BUDGET} bytes"
    );
}
