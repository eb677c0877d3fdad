//! Tensor storage that a thread recycles instead of returning to the
//! allocator.
//!
//! A step's working set is fixed: the same activations, gradients and
//! temporaries, of the same lengths, every step and every virtual node.
//! Handing each buffer back to `malloc` lets the allocator trim the heap
//! and then fault the same pages in again on the next VN. Instead a dropped
//! [`Tensor`](crate::Tensor) (or a kernel's scratch) [gives](give) its
//! buffer to a free list of its thread, keyed by exact length, and every
//! buffer a kernel makes is [taken](take) from that list first.
//!
//! The bound is demand. Per length, a thread's held and checked-out
//! buffers add up to those it created, and it creates one only when it
//! holds none of that length, so it never keeps more buffers of a length
//! than it once had in use at the same time. A buffer given back on a
//! thread that has none of its length checked out — one that no take
//! handed out — goes to the allocator.
//!
//! A buffer goes home. A tensor remembers the thread it was made on (its
//! [`Home`]); dropped on another thread — a gradient partial that a device
//! task on a pool worker made and the step's fold consumed elsewhere — its
//! buffer is posted to that thread's inbox, and the home thread shelves its
//! mail on its next [`take`]. Until then the buffer still counts as checked
//! out there, so the bound holds on every thread. Mail for a thread that
//! has exited is freed.
//!
//! A taken buffer has length 0, so stale values can never be read: callers
//! fill it ([`zeroed`] writes the zeros a fresh `vec!` would have).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The buffers of one length on one thread.
#[derive(Default)]
struct Shelf {
    /// Returned buffers, cleared, ready to be taken again.
    held: Vec<Vec<f32>>,
    /// Buffers taken on this thread and not yet given back to it.
    out: usize,
}

/// Buffers dropped on other threads, on their way back to one thread.
#[derive(Default)]
struct Inbox {
    /// The posted buffers.
    mail: Mutex<Vec<Vec<f32>>>,
    /// Set after every post, under the lock, so a `take` locks `mail` only
    /// when there is some: a plain load on every take, never a
    /// read-modify-write. The mutex orders the buffers themselves, so the
    /// flag needs no ordering of its own; the owner clears it before it
    /// locks, so a post it misses sets it again.
    posted: AtomicBool,
}

/// The inbox of every live thread that has storage, by [thread
/// number](this_thread). A thread removes its own as it exits, so a buffer
/// posted to a thread that is gone finds none and is freed.
static INBOXES: Mutex<BTreeMap<u64, Arc<Inbox>>> = Mutex::new(BTreeMap::new());

/// The next thread number to hand out; 0 means "none yet".
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's number, once it has asked for one.
    static THREAD: Cell<u64> = const { Cell::new(0) };
    static LOCAL: Local = Local::registered();
}

/// This thread's number: unique in the process, never reused.
fn this_thread() -> u64 {
    THREAD.with(|id| {
        if id.get() == 0 {
            id.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// One thread's storage: its shelves, and the inbox other threads post its
/// buffers to.
struct Local {
    shelves: RefCell<BTreeMap<usize, Shelf>>,
    inbox: Arc<Inbox>,
}

impl Local {
    /// Empty shelves, and an inbox the other threads can find.
    fn registered() -> Local {
        let local = Local {
            shelves: RefCell::new(BTreeMap::new()),
            inbox: Arc::default(),
        };
        INBOXES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(this_thread(), Arc::clone(&local.inbox));
        local
    }

    /// Shelves `buf` if this thread has one of its length checked out, and
    /// frees it otherwise.
    fn shelve(&self, mut buf: Vec<f32>) {
        let len = buf.len();
        buf.clear();
        if let Some(shelf) = self
            .shelves
            .borrow_mut()
            .get_mut(&len)
            .filter(|s| s.out > 0)
        {
            shelf.out -= 1;
            shelf.held.push(buf);
        }
    }

    /// Shelves what other threads posted home since the last call.
    fn collect_mail(&self) {
        if !self.inbox.posted.load(Ordering::Relaxed) {
            return;
        }
        self.inbox.posted.store(false, Ordering::Relaxed);
        let mut mail = self
            .inbox
            .mail
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // `drain` keeps the inbox's capacity for the next step's mail.
        for buf in mail.drain(..) {
            self.shelve(buf);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // The thread is exiting: no buffer can be posted to it from now on,
        // and what is in its inbox is freed with it.
        INBOXES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&this_thread());
    }
}

/// The thread a tensor's buffer goes back to when the tensor is dropped:
/// the one it was made on.
pub(crate) struct Home(u64);

impl Default for Home {
    /// This thread.
    fn default() -> Home {
        Home(this_thread())
    }
}

impl Home {
    /// Gives `buf` back: to this thread's shelf if it is home, to its home
    /// thread's inbox if not, and to the allocator if that thread has
    /// exited.
    pub(crate) fn give(&self, buf: Vec<f32>) {
        if self.0 == this_thread() {
            give(buf);
        } else if !buf.is_empty() {
            // Posting under the registry's lock: the home thread cannot
            // exit, and free its inbox, halfway through.
            let inboxes = INBOXES.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(inbox) = inboxes.get(&self.0) {
                inbox
                    .mail
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(buf);
                inbox.posted.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// An empty buffer with room for `len` elements: a held one of exactly that
/// length if the thread has one, a new allocation otherwise.
pub(crate) fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let held = LOCAL.try_with(|local| {
        local.collect_mail();
        let mut shelves = local.shelves.borrow_mut();
        let shelf = shelves.entry(len).or_default();
        shelf.out += 1;
        shelf.held.pop()
    });
    held.ok()
        .flatten()
        .unwrap_or_else(|| Vec::with_capacity(len))
}

/// `len` zeros, in a [taken](take) buffer.
pub(crate) fn zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.resize(len, 0.0);
    buf
}

/// Returns `buf`, taken on this thread, to this thread's shelf of its
/// length if the thread has one of that length checked out, and to the
/// allocator otherwise.
pub(crate) fn give(buf: Vec<f32>) {
    if buf.is_empty() {
        return;
    }
    // During thread teardown the shelves may already be gone: free instead.
    LOCAL
        .try_with(|local| local.shelve(buf))
        .unwrap_or_default();
}

/// This thread's `(held, checked out)` buffers of length `len`.
#[cfg(test)]
fn counts(len: usize) -> (usize, usize) {
    LOCAL.with(|local| {
        local
            .shelves
            .borrow()
            .get(&len)
            .map_or((0, 0), |s| (s.held.len(), s.out))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn held_plus_out_is_what_was_created() {
        let a = zeroed(7);
        let b = zeroed(7);
        assert_eq!(counts(7), (0, 2));
        give(a);
        assert_eq!(counts(7), (1, 1));
        let c = zeroed(7);
        assert_eq!(
            counts(7),
            (0, 2),
            "a held buffer is taken before one is created"
        );
        give(b);
        give(c);
        assert_eq!(counts(7), (2, 0));
    }

    #[test]
    fn a_buffer_nothing_took_is_freed() {
        give(vec![1.0; 5]);
        assert_eq!(counts(5), (0, 0));
        let a = zeroed(5);
        give(vec![2.0; 5]);
        give(a);
        assert_eq!(counts(5), (1, 0), "one taken, so one held");
    }

    #[test]
    fn taken_buffers_are_empty_and_zeroed_ones_are_zero() {
        let mut a = take(4);
        a.extend_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        give(a);
        let b = take(4);
        assert!(b.is_empty() && b.capacity() >= 4);
        give(b);
        assert_eq!(zeroed(4), vec![0.0; 4]);
        assert!(take(0).is_empty() && counts(0) == (0, 0));
    }

    #[test]
    fn a_buffer_given_on_another_thread_is_shelved_at_home_on_its_next_take() {
        let (home, buf) = (Home::default(), zeroed(9));
        let ptr = buf.as_ptr();
        assert_eq!(counts(9), (0, 1));
        #[expect(
            clippy::disallowed_methods,
            reason = "the test is about a buffer dropped on a second thread"
        )]
        std::thread::scope(|s| s.spawn(|| home.give(buf)).join().expect("second thread"));
        assert_eq!(counts(9), (0, 1), "posted, not yet collected");
        let again = zeroed(9);
        assert_eq!(counts(9), (0, 1), "collected, then taken again");
        assert_eq!(again.as_ptr(), ptr, "the same buffer");
        give(again);
        assert_eq!(counts(9), (1, 0));
    }
}
