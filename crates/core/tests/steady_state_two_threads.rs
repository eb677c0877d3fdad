//! A trainer on two pool threads stops asking the allocator for gradient
//! storage once warm.
//!
//! Each thread recycles its tensors' storage on shelves of its own, and a
//! buffer made on one thread but dropped on the other — a device's partial
//! gradient that a task on the worker pushed onto the step's fold, consumed
//! by a combine on the submitting thread — goes back to the thread that
//! made it. Were it freed there instead, its maker would create a new one
//! every step: about two gradients a step for the shape below (31–35 MB over
//! its 47 steps), with the live bytes flat all the while.
//!
//! Which thread runs which device is up to the schedule, so each thread's
//! shelves grow to the most it has had in use at once over the schedules it
//! has met, and the live bytes after step 50 may exceed those after step 3
//! (`step_allocations.rs` holds them equal at one thread). That growth is
//! bounded by what a step uses at once, so over the 47 steps the allocator
//! is asked for less than one gradient a step: measured 3.2–3.5 MB, the
//! tape's node vectors and the other per-VN bookkeeping, against 15.8 MB.
//!
//! This file owns its process: the counting allocator is this binary's
//! global allocator, the first line fixes the pool at two logical threads
//! (one worker) before any kernel runs, and it holds a single test, so
//! nothing else allocates while it counts. A process has one pool, so the
//! two thread counts need two processes.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_device::DeviceId;
use vf_models::{Architecture, Mlp};
use vf_tensor::{pool, Tensor};

struct Counting;

/// Bytes asked for, on every thread.
static ASKED: AtomicU64 = AtomicU64::new(0);

/// Notes a request for `bytes`.
fn note(bytes: usize) {
    ASKED.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// updating a counter, which neither allocates nor touches the returned
// memory.
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

#[test]
fn a_warm_trainer_on_two_threads_asks_for_less_than_a_gradient_a_step() {
    pool::set_num_threads(2);
    // 8 VNs of 2 examples of an MLP 32-2048-8 on 4 devices, whose tasks the
    // two threads share: 336 kB of gradient a VN, and little else.
    let dataset = ClusterTask {
        num_examples: 4_096,
        dim: 32,
        num_classes: 8,
        separation: 1.0,
        spread: 1.0,
        label_noise: 0.1,
        seed: 5,
    }
    .generate()
    .expect("dataset");
    let mlp = Mlp::new(32, vec![2_048], 8);
    let gradient: usize = mlp.init_params(0).iter().map(Tensor::size_bytes).sum();
    let config = TrainerConfig::simple(8, 16, 0.05, 5);
    let devices: Vec<DeviceId> = (0..4).map(DeviceId).collect();
    let mut trainer =
        Trainer::new(Arc::new(mlp), Arc::new(dataset), config, &devices).expect("trainer");
    trainer.run_steps(3).expect("three steps");
    let asked = ASKED.load(Ordering::Relaxed);
    trainer.run_steps(47).expect("47 more steps");
    let asked = ASKED.load(Ordering::Relaxed) - asked;
    let budget = 47 * gradient as u64;
    assert!(
        asked < budget,
        "steps 4 to 50 asked the allocator for {asked} bytes; one {gradient}-byte gradient a \
         step is {budget}"
    );
}
