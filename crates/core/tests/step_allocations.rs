//! What one steady-state `Trainer::step` allocates.
//!
//! A step looks its shards up in the epoch's cached index order, so its
//! allocations are a function of (model, batch, virtual nodes) and not of
//! the dataset: the same calls and the same bytes over 4 096 examples as
//! over 65 536. (Reshuffling the dataset per step, as the trainer once did,
//! costs `8 · dataset_len` bytes a step for the permutation alone.) The step
//! that starts a new epoch writes the new order over the old one, so it too
//! allocates what a mid-epoch step does. The
//! per-VN call count of the paper's many-small-VNs shape is pinned too, so
//! a copy creeping back into the tape or the gather shows up as a number,
//! and so are the calls and bytes of a dense and of a convolutional step,
//! where a buffer copy shows up in the bytes.
//!
//! The peak of the bytes live during a step is the paper's memory claim: a
//! device keeps partial gradient sums that grow with the logarithm of its
//! VN count, not a gradient per VN, so on one device the peak over 512 VNs
//! exceeds that over one VN by at most `(1 + ⌈log₂ 512⌉)` gradients.
//!
//! This file owns its process — the counting allocator is this binary's
//! global allocator — and holds a single test, so nothing else allocates
//! while counting is armed. The pool is pinned to one logical thread: no
//! workers, no job hand-off, device tasks inline in device order.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::{ClusterTask, ImageTask};
use vf_data::{Dataset, DistributionMode};
use vf_device::DeviceId;
use vf_models::{Architecture, ConvNet, Mlp};
use vf_tensor::pool;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting was armed.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The highest [`LIVE`] since counting was armed.
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

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
        note(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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
/// Measured: 1 567 a step (1 569 in debug builds) = 24.5 per VN. What is
/// left is one allocation per tensor an op produces — its data — except
/// where the backward pass writes into a buffer it owns: the softmax
/// probabilities become the logits' gradient, batch norm's x̂ its input's,
/// and ReLU's mask is multiplied into the gradient it receives. (With a
/// separate bias-add node, a batch norm that recomputed x̂ and allocated
/// every temporary, and a tree reduction that allocated a vector per level:
/// 2 008 a step, 31.4 per VN; when the step kept every VN's gradient list
/// and a vector of parts per parameter for the reduction: 1 588, 24.8 per
/// VN; when every GEMM call still allocated two pack
/// buffers and every `Shape` a heap word: 3 938, 61.5 per VN; when every VN
/// also copied the parameters, its micro-batch and each node's gradient:
/// 7 461, 116.6 per VN.)
const CALLS_PER_VN_BUDGET: u64 = 25;

/// What one step of [`DENSE`] may ask of the allocator, with ~8 % slack.
/// Measured: 191 calls and 27.1 MB in release builds; debug builds add the
/// pool-race sanitizer's claim set, two calls per pool job, for 327. With
/// every VN's gradients kept for a reduction per parameter it was 198
/// calls; with a bias pass copying every layer's output and ReLU's gradient in a fresh
/// buffer it was 264 calls and 35.8 MB; with a packed copy of `B`, a packed
/// `A` block and a zero-filled output per GEMM call, 560 calls and 62.7 MB.
const DENSE_CALLS_BUDGET: u64 = if cfg!(debug_assertions) { 353 } else { 206 };
const DENSE_BYTES_BUDGET: u64 = 29_300_000;

/// What one step of [`CONV`] may ask of the allocator, with ~8 % slack.
/// Measured: 688 calls and 45.8 MB in release builds, 946 calls in debug
/// builds (the sanitizer's claim sets); 701 and 959 with every VN's
/// gradients kept for a reduction per parameter. With ReLU's gradient in a fresh
/// buffer — 256 KiB a time, five per VN — it was 778 calls and 56.3 MB.
const CONV_CALLS_BUDGET: u64 = if cfg!(debug_assertions) { 1_022 } else { 743 };
const CONV_BYTES_BUDGET: u64 = 49_400_000;

/// The most bytes one step of [`DENSE`] and of [`CONV`] may hold live at
/// once, with ~8 % slack. A dense device folds its two VNs into one partial
/// sum as soon as the second gradient exists; the conv device holds at most
/// three partials besides the VN it is running. Measured: 9.14 MB dense and
/// 3.70 MB conv, in release and debug builds alike. Holding every VN's
/// gradients until the last device finished, the dense peak was 14.07 MB.
const DENSE_PEAK_LIVE_BUDGET: u64 = 9_900_000;
const CONV_PEAK_LIVE_BUDGET: u64 = 4_000_000;

/// The model of the VN-count sweep: an MLP without batch norm, so a VN's
/// gradient is its parameters' size and nothing a device keeps across VNs
/// is not gradient.
const VN_SWEEP_MODEL: Model = Model::Mlp {
    input: 32,
    hidden: &[512],
    classes: 8,
    batch_norm: false,
};

/// Examples of the sweep's dataset: eight steps of the 512-VN batch.
const VN_SWEEP_DATASET: usize = 8 * 512 * 2;

/// Bytes of one gradient of [`VN_SWEEP_MODEL`]: its parameters' bytes.
fn vn_sweep_param_bytes() -> u64 {
    let Model::Mlp {
        input,
        hidden,
        classes,
        ..
    } = VN_SWEEP_MODEL
    else {
        panic!("the sweep's model is an MLP")
    };
    Mlp::new(input, hidden.to_vec(), classes)
        .init_params(0)
        .iter()
        .map(|p| p.size_bytes() as u64)
        .sum()
}

/// What one step asked of the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepAllocations {
    /// Allocator calls (allocations and reallocations).
    calls: u64,
    /// Bytes those calls asked for.
    bytes: u64,
    /// The most bytes live at once during the step, beyond those live
    /// when it began.
    peak_live: u64,
}

/// The model of `shape` and its dataset of `dataset_len` examples.
fn model_and_dataset(shape: &Workload, dataset_len: usize) -> (Arc<dyn Architecture>, Arc<Dataset>) {
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
    (arch, Arc::new(dataset))
}

/// The trainer configuration of `shape`, its data distributed as
/// `distribution`.
fn config(shape: &Workload, distribution: DistributionMode) -> TrainerConfig {
    let batch = shape.vns as usize * shape.micro_batch;
    let mut config = TrainerConfig::simple(shape.vns, batch, 0.05, 5);
    config.distribution = distribution;
    config
}

/// The devices `shape` runs on.
fn devices(shape: &Workload) -> Vec<DeviceId> {
    (0..shape.devices).map(DeviceId).collect()
}

/// What `trainer`'s next step asks of the allocator.
fn next_step_allocations(trainer: &mut Trainer) -> StepAllocations {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let report = trainer.step();
    ARMED.store(false, Ordering::Relaxed);
    report.expect("step");
    StepAllocations {
        calls: CALLS.load(Ordering::Relaxed) - calls,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
        peak_live: PEAK.load(Ordering::Relaxed) as u64,
    }
}

/// What the third step of `shape` over a dataset of `dataset_len` examples
/// asks of the allocator. Step 0 builds the epoch's order and the
/// optimizer's state and grows each thread's pack scratch to its working
/// size; by step 2 the trainer is in steady state, and at least 8 steps an
/// epoch keep it clear of an epoch change.
fn third_step_allocations(shape: &Workload, dataset_len: usize) -> StepAllocations {
    let (arch, dataset) = model_and_dataset(shape, dataset_len);
    let config = config(shape, DistributionMode::Replicated);
    let mut trainer = Trainer::new(arch, dataset, config, &devices(shape)).expect("trainer");
    trainer.run_steps(2).expect("warm-up");
    next_step_allocations(&mut trainer)
}

/// What the next-to-last step of epoch 0 and the first step of epoch 1 of
/// [`MANY_VN`] over `dataset_len` examples ask of the allocator, as
/// `(mid_epoch, boundary)`. The trainer jumps close to the end of epoch 0
/// through a checkpoint, and two steps bring it to steady state there.
fn epoch_boundary_allocations(
    dataset_len: usize,
    distribution: DistributionMode,
) -> (StepAllocations, StepAllocations) {
    let (arch, dataset) = model_and_dataset(&MANY_VN, dataset_len);
    let devices = devices(&MANY_VN);
    let config = config(&MANY_VN, distribution);
    let fresh =
        Trainer::new(arch.clone(), dataset.clone(), config, &devices).expect("trainer");
    let mut checkpoint = fresh.to_checkpoint();
    checkpoint.step = fresh.steps_per_epoch() as u64 - 4;
    let mut trainer =
        Trainer::from_checkpoint(arch, dataset, checkpoint, &devices).expect("restore");
    trainer.run_steps(2).expect("warm-up");
    let mid = next_step_allocations(&mut trainer);
    trainer.step().expect("last step of epoch 0");
    assert!(trainer.at_epoch_boundary());
    (mid, next_step_allocations(&mut trainer))
}

/// [`VN_SWEEP_MODEL`] as `vns` virtual nodes of two examples on one device.
fn vn_sweep(vns: u32) -> Workload {
    Workload {
        model: VN_SWEEP_MODEL,
        vns,
        micro_batch: 2,
        devices: 1,
    }
}

#[test]
fn a_step_allocates_by_the_batch_not_by_the_dataset() {
    pool::set_num_threads(1);
    let small = third_step_allocations(&MANY_VN, 4_096);
    let large = third_step_allocations(&MANY_VN, 65_536);
    assert_eq!(small, large, "one step over 4 096 vs 65 536 examples");
    assert!(
        small.calls <= CALLS_PER_VN_BUDGET * u64::from(MANY_VN.vns),
        "{} allocator calls a step = {:.1} per VN, budget {CALLS_PER_VN_BUDGET} per VN",
        small.calls,
        small.calls as f64 / f64::from(MANY_VN.vns)
    );

    for (name, shape, dataset_len, calls_budget, bytes_budget, peak_budget) in [
        (
            "dense",
            &DENSE,
            8_192,
            DENSE_CALLS_BUDGET,
            DENSE_BYTES_BUDGET,
            DENSE_PEAK_LIVE_BUDGET,
        ),
        (
            "conv",
            &CONV,
            2_048,
            CONV_CALLS_BUDGET,
            CONV_BYTES_BUDGET,
            CONV_PEAK_LIVE_BUDGET,
        ),
    ] {
        let step = third_step_allocations(shape, dataset_len);
        assert!(
            step.calls <= calls_budget
                && step.bytes <= bytes_budget
                && step.peak_live <= peak_budget,
            "a {name} step made {} allocator calls for {} bytes, {} bytes live at its peak; \
             budget {calls_budget} calls, {bytes_budget} bytes, {peak_budget} bytes live",
            step.calls,
            step.bytes,
            step.peak_live,
        );
    }

    // The gradient a device holds grows with log₂ of its VN count. On one
    // device, one VN's step holds one gradient plus what is not gradient
    // (activations, tape, the optimizer's update); V VNs add at most
    // 1 + ⌈log₂ V⌉ partial sums. Holding a gradient per VN until the last
    // one finished, the peak over 512 VNs was 512 gradients.
    let param_bytes = vn_sweep_param_bytes();
    let one = third_step_allocations(&vn_sweep(1), VN_SWEEP_DATASET);
    let not_gradient = one.peak_live - param_bytes;
    for vns in [8u32, 64, 512] {
        let step = third_step_allocations(&vn_sweep(vns), VN_SWEEP_DATASET);
        let budget =
            u64::from(2 + vns.next_power_of_two().trailing_zeros()) * param_bytes + not_gradient;
        assert!(
            step.peak_live <= budget,
            "{vns} VNs on one device: {} bytes live at the step's peak, budget {budget} \
             ({param_bytes} bytes a gradient, {not_gradient} bytes beside one gradient at 1 VN)",
            step.peak_live,
        );
    }

    // Each epoch's order overwrites the last one in place: a step that
    // crosses an epoch boundary allocates what a mid-epoch step does, and
    // never holds two orders. Building the new order beside the old one,
    // the boundary step asked for one more permutation, `8 · n` bytes, and
    // that permutation set its peak.
    for distribution in [DistributionMode::Replicated, DistributionMode::Partitioned] {
        let n = 65_536;
        let permutation = 8 * n as u64;
        let (mid, boundary) = epoch_boundary_allocations(n, distribution);
        assert!(
            boundary.bytes == mid.bytes && boundary.peak_live < mid.peak_live + permutation / 2,
            "{distribution:?} over {n} examples: the epoch-boundary step asked for {} bytes \
             with {} live at its peak, a mid-epoch step {} bytes with {} live; one \
             permutation is {permutation} bytes",
            boundary.bytes,
            boundary.peak_live,
            mid.bytes,
            mid.peak_live,
        );
    }
}
