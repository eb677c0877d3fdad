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
//! thread that has none of its length checked out — one that migrated from
//! another thread, or that no take handed out — goes to the allocator.
//!
//! A taken buffer has length 0, so stale values can never be read: callers
//! fill it ([`zeroed`] writes the zeros a fresh `vec!` would have).

use std::cell::RefCell;
use std::collections::BTreeMap;

/// The buffers of one length on one thread.
#[derive(Default)]
struct Shelf {
    /// Returned buffers, cleared, ready to be taken again.
    held: Vec<Vec<f32>>,
    /// Buffers taken on this thread and not yet given back to it.
    out: usize,
}

thread_local! {
    static SHELVES: RefCell<BTreeMap<usize, Shelf>> = const { RefCell::new(BTreeMap::new()) };
}

/// An empty buffer with room for `len` elements: a held one of exactly that
/// length if the thread has one, a new allocation otherwise.
pub(crate) fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let held = SHELVES.try_with(|shelves| {
        let mut shelves = shelves.borrow_mut();
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

/// Returns `buf` to this thread's shelf of its length if the thread has one
/// of that length checked out, and to the allocator otherwise.
pub(crate) fn give(mut buf: Vec<f32>) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    buf.clear();
    // During thread teardown the shelves may already be gone: free instead.
    SHELVES
        .try_with(|shelves| {
            if let Some(shelf) = shelves.borrow_mut().get_mut(&len).filter(|s| s.out > 0) {
                shelf.out -= 1;
                shelf.held.push(std::mem::take(&mut buf));
            }
        })
        .unwrap_or_default();
}

/// This thread's `(held, checked out)` buffers of length `len`.
#[cfg(test)]
fn counts(len: usize) -> (usize, usize) {
    SHELVES.with(|s| {
        s.borrow()
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
}
