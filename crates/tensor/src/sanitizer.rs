//! A debug-build pool-race sanitizer.
//!
//! The worker pool's safety story (and VirtualFlow's bit-exactness story)
//! rests on one contract: every chunk of a parallel job writes only output
//! regions *disjoint* from every other chunk's. The workspace's clippy
//! configuration keeps thread creation confined to the pool, and
//! `vf-lint`'s `claim-coverage` pass makes pool writes claim; this module
//! enforces the disjointness contract itself at runtime, in debug builds
//! only.
//!
//! Kernels call [`crate::pool::claim_region`] at the top of each chunk with
//! the output range they are about to write. Claims are recorded per job as
//! absolute byte intervals; a claim that overlaps an interval already
//! claimed by a *different* chunk of the same job aborts the process with a
//! panic naming both chunks and both intervals. Release builds compile all
//! of this to nothing.
//!
//! Tracking absolute addresses (not buffer handles) means two claims
//! through different base pointers into one allocation still collide —
//! exactly the aliasing bug a refactor is most likely to introduce.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// One chunk's claimed output interval.
#[derive(Debug, Clone)]
struct Claim {
    /// Absolute byte interval `[start, end)`.
    bytes: Range<usize>,
    /// The chunk index that claimed it.
    chunk: usize,
}

/// All claims recorded for one pool job.
#[derive(Debug, Default)]
pub(crate) struct ClaimSet {
    regions: Mutex<Vec<Claim>>,
}

impl ClaimSet {
    /// Registers `bytes` for `chunk`, panicking on overlap with a claim
    /// from any other chunk of the same job.
    #[expect(
        clippy::panic,
        reason = "the sanitizer's entire purpose is to abort on a claim overlap"
    )]
    fn claim(&self, bytes: Range<usize>, chunk: usize) {
        if bytes.is_empty() {
            return;
        }
        // The conflict is raised only after the guard drops: panicking
        // while holding the lock would poison it and turn every later
        // chunk's diagnostic into a useless poison message.
        let conflict = {
            #[expect(
                clippy::expect_used,
                reason = "lock is never held across a panic (see above), so poisoning means the runtime itself is broken"
            )]
            let mut regions = self
                .regions
                .lock()
                .expect("vf-tensor pool-race sanitizer: claim lock poisoned");
            let hit = regions
                .iter()
                .find(|c| {
                    c.chunk != chunk && c.bytes.start < bytes.end && bytes.start < c.bytes.end
                })
                .cloned();
            if hit.is_none() {
                regions.push(Claim {
                    bytes: bytes.clone(),
                    chunk,
                });
            }
            hit
        };
        if let Some(c) = conflict {
            panic!(
                "vf-tensor pool-race sanitizer: chunk {chunk} claimed output bytes \
                 {:#x}..{:#x}, overlapping bytes {:#x}..{:#x} already claimed by \
                 chunk {} of the same job — parallel chunks must write disjoint regions",
                bytes.start, bytes.end, c.bytes.start, c.bytes.end, c.chunk
            );
        }
    }
}

/// One entry in a thread's execution-context stack: the claims of the job
/// and the chunk index being run, or `None` when claiming is muted.
type ContextFrame = Option<(Arc<ClaimSet>, usize)>;

thread_local! {
    /// The stack of (job claims, chunk index) this thread is executing.
    /// A stack, not a slot: a submitter helping drain a nested job keeps
    /// the outer job's context underneath the inner one. A `None` entry
    /// mutes claiming (see [`enter_quiet`]).
    static CONTEXT: RefCell<Vec<ContextFrame>> = const { RefCell::new(Vec::new()) };
}

/// Marks this thread as executing `chunk` of the job tracked by `claims`
/// until the returned guard drops.
pub(crate) fn enter(claims: &Arc<ClaimSet>, chunk: usize) -> ContextGuard {
    CONTEXT.with(|c| c.borrow_mut().push(Some((Arc::clone(claims), chunk))));
    ContextGuard
}

/// Mutes claiming until the returned guard drops.
///
/// Used by kernels' serial fallback paths: their writes would otherwise be
/// attributed to whatever *enclosing* job is running, and since a serial
/// kernel's output may be a temporary freed long before that job ends,
/// allocator reuse would turn stale claims on dead memory into false
/// overlap reports. A claim is only sound for buffers that outlive the job
/// it is registered with; serial paths inside a chunk are already covered
/// by that chunk's own claim.
pub(crate) fn enter_quiet() -> ContextGuard {
    CONTEXT.with(|c| c.borrow_mut().push(None));
    ContextGuard
}

/// Pops the sanitizer context on drop (unwind-safe: the pool catches chunk
/// panics, so the stack must stay balanced).
pub(crate) struct ContextGuard;

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Records the absolute byte interval `bytes` as written by the chunk this
/// thread is currently executing. No-op outside a pool job or under a
/// quiet guard.
pub(crate) fn claim_bytes(bytes: Range<usize>) {
    let ctx = CONTEXT.with(|c| c.borrow().last().cloned());
    if let Some(Some((claims, chunk))) = ctx {
        claims.claim(bytes, chunk);
    }
}
