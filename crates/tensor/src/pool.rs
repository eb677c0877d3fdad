//! A process-wide worker pool for deterministic data parallelism.
//!
//! VirtualFlow's reproducibility story (paper §3.2) requires that the *same
//! logical computation* produce bit-identical results no matter how much
//! physical parallelism executes it. This pool delivers that by construction:
//! work is only ever partitioned over *independent output regions* (disjoint
//! row ranges, disjoint tasks), and each output element is computed by exactly
//! the same sequence of floating-point operations regardless of which thread
//! runs it or how the range is chunked. Threads change *who* computes, never
//! *what* is computed.
//!
//! Design:
//!
//! * One lazily-created pool per process. Worker count is
//!   `VF_NUM_THREADS − 1` (env, default: available parallelism), fixed at
//!   first use; the submitting thread always participates, so a pool with
//!   zero workers degrades to plain sequential execution with no queueing.
//! * [`set_num_threads`] changes only the *logical* chunk count used by
//!   [`parallel_rows`]. Because chunk boundaries never affect per-element
//!   FLOP order, this is safe to vary at runtime — which is exactly what the
//!   kernel-equivalence tests exploit to compare 1/2/8-way chunking
//!   bit-for-bit inside one process.
//! * Submitters help drain their own job, so nested submissions (a parallel
//!   kernel inside a parallel device step) cannot deadlock: the inner
//!   submitter completes its own chunks even if every worker is busy.
//! * Worker panics are caught, recorded, and re-raised on the submitting
//!   thread (original payload preserved) once the job has fully drained.
//! * In debug builds a race sanitizer audits the disjointness contract:
//!   each chunk registers the output region it writes via [`claim_region`],
//!   and any overlap between chunks of one job aborts with a diagnostic
//!   (see [`crate::sanitizer`]). Release builds compile the checks out.

#[cfg(debug_assertions)]
use crate::sanitizer;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A raw pointer wrapper that may be sent across pool threads.
///
/// Used by kernels to hand each chunk a mutable view of a *disjoint* region
/// of one output buffer. Safety rests entirely on disjointness: callers must
/// guarantee no two chunks touch the same element.
pub(crate) struct SendPtr<T>(pub *mut T);

// SAFETY: SendPtr is a plain address; the soundness obligation (no two
// threads touch the same element) is the caller's disjointness contract
// stated above, enforced in debug builds by the claim-set sanitizer.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: sharing the address is sound for the same reason as sending it:
// every access through it is bound by the disjointness contract above.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// Logical thread count: 0 means "not yet initialized from the environment".
static LOGICAL: AtomicUsize = AtomicUsize::new(0);

/// Jobs submitted through [`run_job`] (including the sequential fast path).
static JOBS_SUBMITTED: AtomicUsize = AtomicUsize::new(0);
/// Chunks executed across all jobs.
static CHUNKS_EXECUTED: AtomicUsize = AtomicUsize::new(0);
/// Kernel invocations that ran whole on the caller's thread ([`run_serial`]).
static SERIAL_FALLBACKS: AtomicUsize = AtomicUsize::new(0);

/// A point-in-time snapshot of the pool's activity counters.
///
/// These numbers depend on thread count and workload shape, so they feed the
/// *metrics* side of observability (bench JSON), never the deterministic
/// trace stream — traces must be bit-identical across `VF_NUM_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Jobs submitted via the pool (each `parallel_rows`/`parallel_tasks`).
    pub jobs_submitted: usize,
    /// Total chunks executed across all jobs.
    pub chunks_executed: usize,
    /// Kernel invocations that ran whole on the caller's thread instead of
    /// becoming a pool job: every [`run_serial`] call, whoever the caller
    /// is. A kernel below its parallel threshold counts here once per call —
    /// also when the caller is itself a chunk of an enclosing job, which is
    /// by design and not a missed opportunity — so the count can exceed
    /// `jobs_submitted`. A kernel that loops over its own batch inside one
    /// job or one fallback (the convolutions) counts once, not per image.
    pub serial_fallbacks: usize,
}

/// Snapshots the process-wide pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        jobs_submitted: JOBS_SUBMITTED.load(Ordering::Relaxed),
        chunks_executed: CHUNKS_EXECUTED.load(Ordering::Relaxed),
        serial_fallbacks: SERIAL_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// The number of logical threads parallel kernels chunk their work into.
///
/// Initialized from `VF_NUM_THREADS` (if set to a positive integer) or the
/// machine's available parallelism, and overridable via [`set_num_threads`].
pub fn num_threads() -> usize {
    let n = LOGICAL.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let n = std::env::var("VF_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    // A benign race: concurrent first calls compute the same value.
    LOGICAL.store(n, Ordering::Relaxed);
    n
}

/// Overrides the logical thread count used for chunking.
///
/// This does not grow or shrink the physical worker set (fixed at first pool
/// use); it only changes how many chunks [`parallel_rows`] splits work into.
/// Results are bit-identical under any setting — that invariant is what the
/// equivalence tests assert.
pub fn set_num_threads(n: usize) {
    LOGICAL.store(n.max(1), Ordering::Relaxed);
}

/// One submitted parallel job: `total` chunks drained by an atomic claim
/// counter. `func` is a type-erased borrow of the submitter's closure; the
/// submitter blocks until `done == total`, which keeps the borrow alive for
/// as long as any worker can dereference it.
struct Job {
    func: *const (dyn Fn(usize) + Sync),
    total: usize,
    next: AtomicUsize,
    done: Mutex<usize>,
    complete: Condvar,
    /// First chunk panic, re-raised on the submitter with its payload
    /// intact — so a sanitizer abort keeps its diagnostic message.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Output regions claimed by this job's chunks (race sanitizer).
    #[cfg(debug_assertions)]
    claims: Arc<sanitizer::ClaimSet>,
}

// SAFETY: the only non-Send/Sync field is `func`, a borrow of a `Sync`
// closure owned by the submitter, which blocks in `run_job` until
// `done == total` — no worker can hold the pointer past that wait.
unsafe impl Send for Job {}
// SAFETY: every field but `func` is `Sync`; `func` points to a `Sync`
// closure that workers only call through a shared reference, for no
// longer than the wait described above.
unsafe impl Sync for Job {}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    workers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = num_threads().saturating_sub(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers,
        }));
        for i in 0..workers {
            #[expect(
                clippy::disallowed_methods,
                reason = "the pool is the one place that creates threads; its jobs are what the race sanitizer audits"
            )]
            #[expect(
                clippy::expect_used,
                reason = "failing to spawn a pool worker at startup is unrecoverable"
            )]
            std::thread::Builder::new()
                .name(format!("vf-pool-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("spawn vf-tensor pool worker");
        }
        pool
    })
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            #[expect(
                clippy::expect_used,
                reason = "poisoned pool lock means a worker already aborted; propagate"
            )]
            let mut q = pool.queue.lock().expect("pool queue poisoned");
            loop {
                // Discard fully-claimed jobs; their chunks are finishing on
                // the threads that claimed them.
                while let Some(front) = q.front() {
                    if front.next.load(Ordering::SeqCst) >= front.total {
                        q.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(front) = q.front() {
                    break Arc::clone(front);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "poisoned pool lock means a worker already aborted; propagate"
                )]
                let woken = pool.available.wait(q).expect("pool queue poisoned");
                q = woken;
            }
        };
        run_chunks(&job);
    }
}

/// Claims and executes chunks of `job` until none remain unclaimed.
fn run_chunks(job: &Job) {
    loop {
        let c = job.next.fetch_add(1, Ordering::SeqCst);
        if c >= job.total {
            break;
        }
        // SAFETY: the submitter keeps the closure alive until every claimed
        // chunk has been counted in `done`, which happens after this call.
        let f = unsafe { &*job.func };
        #[cfg(debug_assertions)]
        let _ctx = sanitizer::enter(&job.claims, c);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(c))) {
            #[expect(
                clippy::expect_used,
                reason = "this lock is only poisoned if the runtime itself panicked; nothing sane to do"
            )]
            let mut slot = job.panic_payload.lock().expect("job panic slot poisoned");
            slot.get_or_insert(payload);
        }
        #[expect(
            clippy::expect_used,
            reason = "chunk bodies run under catch_unwind, so this lock cannot be poisoned by user code"
        )]
        let mut done = job.done.lock().expect("job completion lock poisoned");
        *done += 1;
        if *done == job.total {
            job.complete.notify_all();
        }
    }
}

/// Runs `body(0..total)` chunk indices across the pool, helping from the
/// submitting thread, and returns once every chunk has finished.
fn run_job(body: &(dyn Fn(usize) + Sync), total: usize) {
    if total == 0 {
        return;
    }
    JOBS_SUBMITTED.fetch_add(1, Ordering::Relaxed);
    CHUNKS_EXECUTED.fetch_add(total, Ordering::Relaxed);
    let pool = pool();
    if pool.workers == 0 || total == 1 {
        // Sequential fast path: same chunks, same order, same arithmetic.
        // The sanitizer still audits chunk claims, so a disjointness bug is
        // caught even when no physical parallelism backs the job.
        #[cfg(debug_assertions)]
        let claims = Arc::new(sanitizer::ClaimSet::default());
        for c in 0..total {
            #[cfg(debug_assertions)]
            let _ctx = sanitizer::enter(&claims, c);
            body(c);
        }
        return;
    }
    // SAFETY: the lifetime erasure is sound because `run_job` blocks until
    // `done == total`, i.e. until no thread can still dereference `func`.
    let func = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job {
        func: func as *const (dyn Fn(usize) + Sync),
        total,
        next: AtomicUsize::new(0),
        done: Mutex::new(0),
        complete: Condvar::new(),
        panic_payload: Mutex::new(None),
        #[cfg(debug_assertions)]
        claims: Arc::new(sanitizer::ClaimSet::default()),
    });
    #[expect(
        clippy::expect_used,
        reason = "poisoned pool lock means a worker already aborted; propagate"
    )]
    pool.queue
        .lock()
        .expect("pool queue poisoned")
        .push_back(Arc::clone(&job));
    pool.available.notify_all();
    run_chunks(&job);
    #[expect(
        clippy::expect_used,
        reason = "chunk bodies run under catch_unwind, so this lock cannot be poisoned by user code"
    )]
    let mut done = job.done.lock().expect("job completion lock poisoned");
    while *done < job.total {
        #[expect(
            clippy::expect_used,
            reason = "chunk bodies run under catch_unwind, so this lock cannot be poisoned by user code"
        )]
        let woken = job
            .complete
            .wait(done)
            .expect("job completion lock poisoned");
        done = woken;
    }
    drop(done);
    #[expect(
        clippy::expect_used,
        reason = "this lock is only poisoned if the runtime itself panicked; nothing sane to do"
    )]
    let payload = job
        .panic_payload
        .lock()
        .expect("job panic slot poisoned")
        .take();
    if let Some(payload) = payload {
        // Re-raise with the original payload so the panic message (e.g. a
        // sanitizer overlap diagnostic) reaches the submitting thread.
        resume_unwind(payload);
    }
}

/// Records that the chunk this thread is executing will write elements
/// `elems` of the buffer at `base`.
///
/// Debug builds feed this to the pool-race sanitizer, which aborts if the
/// interval overlaps a region claimed by a different chunk of the same job
/// (see [`crate::sanitizer`]); release builds compile it to nothing.
/// Calling outside a pool job is a no-op. Kernels should claim at the top
/// of each chunk, before writing.
#[inline]
pub fn claim_region<T>(base: *const T, elems: Range<usize>) {
    #[cfg(debug_assertions)]
    {
        let start = base as usize + elems.start * std::mem::size_of::<T>();
        let end = base as usize + elems.end * std::mem::size_of::<T>();
        sanitizer::claim_bytes(start..end);
    }
    #[cfg(not(debug_assertions))]
    let _ = (base, elems);
}

/// Runs `body(0..rows)` on the calling thread with the race sanitizer
/// muted.
///
/// Kernels use this for their too-small-to-parallelize fallback instead of
/// calling the work closure directly: when the caller is itself inside a
/// pool job (e.g. a serial matmul inside a device task), claims made by
/// the closure would attach to that *enclosing* job, and since a serial
/// kernel's output may be a temporary freed long before the enclosing job
/// completes, allocator reuse would make stale claims on dead memory alias
/// fresh allocations and report false races. The enclosing chunk's own
/// claim already covers everything it writes.
pub fn run_serial(rows: usize, body: impl FnOnce(Range<usize>)) {
    SERIAL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
    #[cfg(debug_assertions)]
    let _quiet = crate::sanitizer::enter_quiet();
    body(0..rows);
}

/// Splits `rows` into at most [`num_threads`] contiguous ranges and runs
/// `body` on each, possibly concurrently.
///
/// Each range is independent: `body` must only write output locations owned
/// by its range. Under that contract the result is bit-identical to calling
/// `body(0..rows)` sequentially, because no per-element operation order
/// changes — the partition only decides which thread computes which rows.
pub fn parallel_rows(rows: usize, body: impl Fn(Range<usize>) + Sync) {
    if rows == 0 {
        return;
    }
    let chunks = num_threads().min(rows);
    let base = rows / chunks;
    let rem = rows % chunks;
    let range_of = move |c: usize| {
        let start = c * base + c.min(rem);
        let len = base + usize::from(c < rem);
        start..start + len
    };
    let run = move |c: usize| body(range_of(c));
    run_job(&run, chunks);
}

/// Runs `n` independent tasks, one chunk each, and collects their results in
/// task order.
///
/// This is the engine's device fan-out: each device processes its virtual
/// nodes in a task, results come back positionally, and the caller reduces
/// them in a fixed order — so scheduling never affects the outcome.
#[expect(
    clippy::expect_used,
    reason = "run_job returns only after every slot was written; an empty slot is a pool bug"
)]
pub fn parallel_tasks<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let slots = SendPtr(out.as_mut_ptr());
        let run = move |i: usize| {
            claim_region(slots.get(), i..i + 1);
            let v = f(i);
            // SAFETY: each task index writes only its own slot.
            unsafe { *slots.get().add(i) = Some(v) };
        };
        run_job(&run, n);
    }
    out.into_iter()
        .map(|o| o.expect("pool task completed without a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_rows_covers_every_row_exactly_once() {
        let rows = 1003;
        let hits: Vec<AtomicUsize> = (0..rows).map(|_| AtomicUsize::new(0)).collect();
        parallel_rows(rows, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_tasks_returns_results_in_task_order() {
        let out = parallel_tasks(17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn chunking_is_identical_for_any_thread_count() {
        // The partition must tile [0, rows) in order, for every chunk count.
        for rows in [1usize, 2, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 8, 64] {
                let chunks = chunks.min(rows);
                let base = rows / chunks;
                let rem = rows % chunks;
                let mut next = 0;
                for c in 0..chunks {
                    let start = c * base + c.min(rem);
                    let len = base + usize::from(c < rem);
                    assert_eq!(start, next);
                    next = start + len;
                }
                assert_eq!(next, rows);
            }
        }
    }

    /// Forces a known chunk count for sanitizer tests, restoring on drop so
    /// concurrently running tests see a sane value afterwards.
    struct ThreadCountGuard(usize);
    impl ThreadCountGuard {
        fn force(n: usize) -> Self {
            let orig = num_threads();
            set_num_threads(n);
            ThreadCountGuard(orig)
        }
    }
    impl Drop for ThreadCountGuard {
        fn drop(&mut self) {
            set_num_threads(self.0);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn sanitizer_accepts_disjoint_claims() {
        let _guard = ThreadCountGuard::force(4);
        let mut buf = vec![0f32; 64];
        let base = SendPtr(buf.as_mut_ptr());
        parallel_rows(64, move |r| {
            claim_region(base.get(), r.clone());
            for i in r {
                // SAFETY: ranges from parallel_rows are disjoint.
                unsafe { *base.get().add(i) = i as f32 };
            }
        });
        assert_eq!(buf[63], 63.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pool-race sanitizer")]
    fn sanitizer_aborts_on_overlapping_claims() {
        let _guard = ThreadCountGuard::force(4);
        let mut buf = vec![0f32; 64];
        let base = SendPtr(buf.as_mut_ptr());
        // Every chunk claims the whole buffer: any second chunk must abort.
        parallel_rows(64, move |_r| {
            claim_region(base.get(), 0..64);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pool-race sanitizer")]
    fn sanitizer_catches_overlap_through_different_base_pointers() {
        let _guard = ThreadCountGuard::force(2);
        let mut buf = vec![0u8; 64];
        let base = SendPtr(buf.as_mut_ptr());
        // Chunk claims use shifted bases whose absolute intervals collide
        // even though (base, range) pairs look distinct.
        parallel_rows(2, move |r| {
            // SAFETY: pointer arithmetic stays inside the buffer.
            let shifted = unsafe { base.get().add(r.start * 8) };
            claim_region(shifted, 0..32);
        });
    }

    #[test]
    #[should_panic(expected = "original chunk panic message survives")]
    fn chunk_panics_keep_their_payload() {
        let _guard = ThreadCountGuard::force(4);
        parallel_rows(64, |r| {
            if r.start == 0 {
                panic!("original chunk panic message survives");
            }
        });
    }

    #[test]
    fn stats_count_jobs_chunks_and_serial_fallbacks() {
        let before = stats();
        parallel_rows(64, |_r| {});
        run_serial(8, |_r| {});
        let after = stats();
        assert!(after.jobs_submitted > before.jobs_submitted);
        assert!(after.chunks_executed > before.chunks_executed);
        assert!(after.serial_fallbacks > before.serial_fallbacks);
    }

    #[test]
    fn zero_rows_and_zero_tasks_are_noops() {
        parallel_rows(0, |_| panic!("must not run"));
        let out: Vec<u8> = parallel_tasks(0, |_| panic!("must not run"));
        assert!(out.is_empty());
    }
}
