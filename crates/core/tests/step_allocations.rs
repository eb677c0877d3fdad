//! What one steady-state `Trainer::step` allocates.
//!
//! A step looks its shards up in the epoch's cached index order, so its
//! allocations are a function of (model, batch, virtual nodes) and not of
//! the dataset: the same calls and the same bytes over 4 096 examples as
//! over 65 536. (Reshuffling the dataset per step, as the trainer once did,
//! costs `8 · dataset_len` bytes a step for the permutation alone.) The
//! per-VN call count of the paper's many-small-VNs shape is pinned too, so
//! a copy creeping back into the tape or the gather shows up as a number,
//! and so are the calls and bytes of a dense and of a convolutional step,
//! where a buffer copy shows up in the bytes.
//!
//! This file owns its process — the counting allocator is this binary's
//! global allocator — and holds a single test, so nothing else allocates
//! while counting is armed. The pool is pinned to one logical thread: no
//! workers, no job hand-off, device tasks inline in device order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::{ClusterTask, ImageTask};
use vf_data::Dataset;
use vf_device::DeviceId;
use vf_models::{Architecture, ConvNet, Mlp};
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

/// A stand-in model of one of perf_bench's training workloads.
enum Model {
    /// `Mlp input-hidden-classes`, over a `ClusterTask`.
    Mlp {
        input: usize,
        hidden: &'static [usize],
        classes: usize,
        batch_norm: bool,
    },
    /// `ConvNet` over `channels × side × side` images of an `ImageTask`.
    Conv {
        channels: usize,
        side: usize,
        filters: usize,
        blocks: usize,
        classes: usize,
    },
}

/// One trainer shape: `model` stepped as `vns` virtual nodes of
/// `micro_batch` examples on `devices` devices.
struct Workload {
    model: Model,
    vns: u32,
    micro_batch: usize,
    devices: u32,
}

/// perf_bench's `train_many_vn`: kernels are tiny, so the per-VN overhead —
/// gather, tape, backward, bookkeeping — is the step.
const MANY_VN: Workload = Workload {
    model: Model::Mlp {
        input: 32,
        hidden: &[32],
        classes: 8,
        batch_norm: true,
    },
    vns: 64,
    micro_batch: 8,
    devices: 4,
};

/// perf_bench's `train_dense`: eight GEMMs a VN over 512-wide layers, so a
/// pack buffer or a zero-filled output per call shows up in the bytes.
const DENSE: Workload = Workload {
    model: Model::Mlp {
        input: 256,
        hidden: &[512, 512],
        classes: 32,
        batch_norm: false,
    },
    vns: 8,
    micro_batch: 128,
    devices: 4,
};

/// perf_bench's `train_conv`: 8 VNs of 16 images time-sliced on one device,
/// each through five convolutions and their gradients.
const CONV: Workload = Workload {
    model: Model::Conv {
        channels: 3,
        side: 16,
        filters: 16,
        blocks: 2,
        classes: 8,
    },
    vns: 8,
    micro_batch: 16,
    devices: 1,
};

/// Allocator calls one step of [`MANY_VN`] may make per virtual node (gather,
/// tape, backward, and the step's own bookkeeping spread over the 64 VNs).
/// Measured: 1 588 a step (1 590 in debug builds) = 24.8 per VN. What is
/// left is one allocation per tensor an op produces — its data — except
/// where the backward pass writes into a buffer it owns: the softmax
/// probabilities become the logits' gradient, batch norm's x̂ its input's,
/// and ReLU's mask is multiplied into the gradient it receives. (With a
/// separate bias-add node, a batch norm that recomputed x̂ and allocated
/// every temporary, and a tree reduction that allocated a vector per level:
/// 2 008 a step, 31.4 per VN; when every GEMM call still allocated two pack
/// buffers and every `Shape` a heap word: 3 938, 61.5 per VN; when every VN
/// also copied the parameters, its micro-batch and each node's gradient:
/// 7 461, 116.6 per VN.)
const CALLS_PER_VN_BUDGET: u64 = 25;

/// What one step of [`DENSE`] may ask of the allocator, with ~8 % slack.
/// Measured: 198 calls and 27.1 MB in release builds; debug builds add the
/// pool-race sanitizer's claim set, two calls per pool job, for 334. With a
/// bias pass copying every layer's output and ReLU's gradient in a fresh
/// buffer it was 264 calls and 35.8 MB; with a packed copy of `B`, a packed
/// `A` block and a zero-filled output per GEMM call, 560 calls and 62.7 MB.
const DENSE_CALLS_BUDGET: u64 = if cfg!(debug_assertions) { 360 } else { 214 };
const DENSE_BYTES_BUDGET: u64 = 29_300_000;

/// What one step of [`CONV`] may ask of the allocator, with ~8 % slack.
/// Measured: 701 calls and 45.8 MB in release builds, 959 calls in debug
/// builds (the sanitizer's claim sets). With ReLU's gradient in a fresh
/// buffer — 256 KiB a time, five per VN — it was 778 calls and 56.3 MB.
const CONV_CALLS_BUDGET: u64 = if cfg!(debug_assertions) { 1_035 } else { 757 };
const CONV_BYTES_BUDGET: u64 = 49_400_000;

/// `(calls, bytes)` of the third step of `shape` over a dataset of
/// `dataset_len` examples. Step 0 builds the epoch's order and the
/// optimizer's state and grows each thread's pack scratch to its working
/// size; by step 2 the trainer is in steady state, and at least 8 steps an
/// epoch keep it clear of an epoch change.
fn third_step_allocations(shape: &Workload, dataset_len: usize) -> (u64, u64) {
    let (arch, dataset): (Arc<dyn Architecture>, Dataset) = match shape.model {
        Model::Mlp {
            input,
            hidden,
            classes,
            batch_norm,
        } => {
            let mlp = Mlp::new(input, hidden.to_vec(), classes);
            let dataset = ClusterTask {
                num_examples: dataset_len,
                dim: input,
                num_classes: classes,
                separation: 1.0,
                spread: 1.0,
                label_noise: 0.1,
                seed: 5,
            }
            .generate();
            (
                Arc::new(if batch_norm {
                    mlp.with_batch_norm()
                } else {
                    mlp
                }),
                dataset.expect("generates"),
            )
        }
        Model::Conv {
            channels,
            side,
            filters,
            blocks,
            classes,
        } => {
            let dataset = ImageTask {
                num_examples: dataset_len,
                channels,
                height: side,
                width: side,
                num_classes: classes,
                signal: 0.8,
                label_noise: 0.1,
                seed: 5,
            }
            .generate();
            let net = ConvNet::new(channels, side, side, filters, blocks, classes);
            (Arc::new(net), dataset.expect("generates"))
        }
    };
    let batch = shape.vns as usize * shape.micro_batch;
    let config = TrainerConfig::simple(shape.vns, batch, 0.05, 5);
    let devices: Vec<DeviceId> = (0..shape.devices).map(DeviceId).collect();
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

    for (name, shape, dataset_len, calls_budget, bytes_budget) in [
        (
            "dense",
            &DENSE,
            8_192,
            DENSE_CALLS_BUDGET,
            DENSE_BYTES_BUDGET,
        ),
        ("conv", &CONV, 2_048, CONV_CALLS_BUDGET, CONV_BYTES_BUDGET),
    ] {
        let (calls, bytes) = third_step_allocations(shape, dataset_len);
        assert!(
            calls <= calls_budget && bytes <= bytes_budget,
            "a {name} step made {calls} allocator calls for {bytes} bytes, \
             budget {calls_budget} calls and {bytes_budget} bytes"
        );
    }
}
