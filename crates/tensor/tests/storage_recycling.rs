//! What a thread's recycled tensor storage asks of the allocator, and how
//! much it keeps.
//!
//! A dropped tensor's buffer goes to a shelf of the thread that made the
//! tensor, keyed by exact length, and a new tensor of that length takes it
//! back. Per length a thread's held and checked-out buffers add up to those
//! it created, and it creates one only when it holds none, so it never
//! keeps more of a length than it once had in use at the same time. A
//! tensor dropped on another thread sends its buffer home; one whose home
//! thread has exited is freed.
//!
//! This file owns its process: the counting allocator is this binary's
//! global allocator. It counts per thread, and each test runs on a thread
//! of its own, so the tests may run in parallel.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vf_tensor::Tensor;

struct Counting;

thread_local! {
    /// Allocations this thread made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Frees this thread made.
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, frees: u64, bytes: i64) {
    // Const-initialized cells without destructors: always accessible, and
    // touching them allocates nothing.
    ALLOCS.with(|c| c.set(c.get() + allocs));
    FREES.with(|c| c.set(c.get() + frees));
    LIVE.with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the only addition is
// updating thread-local counters, which neither allocates nor touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, 0, layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, 0, layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, 0, new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 1, -(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// This thread's `(allocations, frees)` so far.
fn calls() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

/// Allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = calls().0;
    let out = f();
    (out, calls().0 - before)
}

fn zeros(count: usize, len: usize) -> Vec<Tensor> {
    (0..count).map(|_| Tensor::zeros([len])).collect()
}

#[test]
fn a_thread_creates_a_buffer_only_when_it_holds_none_of_its_length() {
    const LEN: usize = 1_000;
    let (three, made) = allocations_of(|| zeros(3, LEN));
    assert!(made >= 3, "three new buffers");
    drop(three);
    // Held 3, checked out 0: three tensors and the vector of them.
    let (again, made) = allocations_of(|| zeros(3, LEN));
    assert_eq!(
        made, 1,
        "the three held buffers are taken; only the Vec is new"
    );
    // Held 0, checked out 3: a fourth is created.
    let (fourth, made) = allocations_of(|| Tensor::zeros([LEN]));
    assert_eq!(made, 1, "a buffer is created when none is held");
    drop((again, fourth));
    // Held 4, checked out 0: four at once now need nothing new.
    let (four, made) = allocations_of(|| zeros(4, LEN));
    assert_eq!(made, 1, "only the Vec is new");
    // Another length shares nothing with this one.
    let (other, made) = allocations_of(|| Tensor::zeros([LEN + 1]));
    assert_eq!(made, 1, "lengths are kept apart");
    drop((four, other));
}

/// Runs `f` on a second thread, to its exit, and returns what it returned
/// with the `(frees, live bytes)` it made there.
fn on_second_thread<T: Send>(f: impl FnOnce() -> T + Send) -> (T, (u64, i64)) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the test is about a second thread's storage"
    )]
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            let (frees, bytes) = (FREES.with(Cell::get), LIVE.with(Cell::get));
            let out = f();
            (
                out,
                (FREES.with(Cell::get) - frees, LIVE.with(Cell::get) - bytes),
            )
        })
        .join()
        .expect("second thread")
    });
    out
}

#[test]
fn a_buffer_dropped_on_another_thread_returns_to_its_home_shelf() {
    const LEN: usize = 2_000;
    // One round trip first, so the shelf's list of held buffers has room.
    drop(Tensor::zeros([LEN]));
    let t = Tensor::full([LEN], 1.5);
    let ((), (frees, _)) = on_second_thread(move || drop(t));
    assert_eq!(frees, 0, "the buffer was sent home, not freed");
    // The home thread's next tensor of that length is the same buffer.
    let (_t, made) = allocations_of(|| Tensor::zeros([LEN]));
    assert_eq!(made, 0, "the returned buffer is taken");
}

#[test]
fn a_buffer_whose_home_thread_has_exited_is_freed() {
    const LEN: usize = 3_000;
    let (t, _) = on_second_thread(|| Tensor::full([LEN], 2.5));
    let (frees, bytes) = (FREES.with(Cell::get), LIVE.with(Cell::get));
    drop(t);
    assert!(
        FREES.with(Cell::get) > frees,
        "the orphaned buffer went to the allocator"
    );
    assert!(
        LIVE.with(Cell::get) - bytes <= -(4 * LEN as i64),
        "and its bytes with it"
    );
}

#[test]
fn alternating_shapes_hold_no_more_than_each_lengths_peak_use() {
    // Two phases that use different lengths at different times; each
    // length's peak use, in elements: 3 × 1 024 + 2 × 512 + 1 × 4 096.
    let phase_a = || (zeros(3, 1_024), zeros(1, 512));
    let phase_b = || (zeros(2, 512), zeros(1, 4_096));
    let peak_elements = 3 * 1_024 + 2 * 512 + 4_096;
    let live = || LIVE.with(Cell::get);

    let start = live();
    drop(phase_a());
    drop(phase_b());
    let after_one = live() - start;
    for _ in 0..50 {
        drop(phase_a());
        drop(phase_b());
    }
    let after_many = live() - start;
    assert_eq!(
        after_many, after_one,
        "alternating 50 more times holds nothing more"
    );
    // The shelves' own bookkeeping (map nodes, the held lists) is the slack.
    let bound = 4 * peak_elements as i64 + 4_096;
    assert!(
        after_one <= bound,
        "{after_one} bytes held after the phases end, bound {bound}"
    );
    assert!(
        after_one >= 4 * peak_elements as i64,
        "every buffer is held for reuse"
    );
}
