//! Deterministic reduction strategies for gradient aggregation.
//!
//! VirtualFlow's reproducibility guarantee rests on gradients being combined
//! in a *fixed* order regardless of how virtual nodes are mapped to devices.
//! Every sum here is one fold, [`fold_partial`]: partial sums, each over a
//! range of virtual nodes (VNs), are inserted at their place in VN order,
//! and neighbours combine (`left += right`, tensor by tensor) while their
//! union is a node of the order's combine tree:
//!
//! * [`ReductionOrder::Tree`] — pairwise summation in VN order, the tree of
//!   adjacent pairs with the odd one carried up a level: `[a, b) + [b, c)`
//!   combine when `b − a = 2ᵏ`, `a` is a multiple of `2ᵏ⁺¹` and
//!   `c = min(a + 2ᵏ⁺¹, total)`. Deterministic and numerically well
//!   conditioned; the default.
//! * [`ReductionOrder::Sequential`] — left-to-right summation in VN order:
//!   a partial combines only into the prefix `[0, b)`. Deterministic but
//!   accumulates rounding error linearly.
//! * [`ReductionOrder::ArrivalOrder`] — summation in the order devices
//!   finish, given as a permutation, standing in for a non-deterministic
//!   all-reduce: the parts are reordered, then summed sequentially. Without
//!   a permutation it is sequential order.
//!
//! Partials that are not a tree node's two children wait, so partials may
//! arrive in any order — each device folds the VNs it runs, in whatever
//! pattern the mapping gives it, and pushes its partials onto the step's
//! one fold when it finishes — and every combine is still one the fold of
//! all parts in VN order would make, on the same two operands: the bits
//! are the same. Pushed in VN order, the fold is a binary counter and
//! holds at most `⌈log₂ V⌉ + 1` partials.

use crate::tensor::Tensor;
use crate::TensorError;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The order in which per-virtual-node gradients are summed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReductionOrder {
    /// Pairwise tree reduction in virtual-node order (default).
    #[default]
    Tree,
    /// Sequential left-to-right reduction in virtual-node order.
    Sequential,
    /// Reduction in arrival order (caller-provided permutation); models a
    /// non-deterministic collective.
    ArrivalOrder,
}

/// Inserts the partial sums `sums` over virtual nodes `vns` into a fold of
/// `total` virtual nodes, at its place in VN order, then combines
/// neighbouring partials while `order` says they form one node of its
/// combine tree (see the module docs).
///
/// `sums` holds one tensor per summed quantity — one per parameter for a
/// gradient — and every partial of a fold must hold the same number, of the
/// same shapes. Partials may be pushed in any order, and the sum has the
/// same bits for every order. A fold that has seen every VN holds exactly
/// one partial, over `0..total`.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] if `vns` is empty,
/// [`TensorError::OutOfBounds`] if it ends past `total`,
/// [`TensorError::NotAPermutation`] if it overlaps a range already in the
/// fold (a VN summed twice), and [`TensorError::ShapeMismatch`] if two
/// partials that combine disagree in length or shapes; the fold is then
/// left part-combined.
///
/// # Examples
///
/// ```
/// use vf_tensor::reduce::{self, ReductionOrder};
/// use vf_tensor::Tensor;
///
/// // Two devices of a 4-VN fold, one running VNs 0 and 2, the other 1 and
/// // 3, finishing in the order 2, 3, 1, 0.
/// let mut fold = Vec::new();
/// for v in [2, 3, 1, 0] {
///     let sums = vec![Tensor::full([2], v as f32)];
///     reduce::fold_partial(&mut fold, ReductionOrder::Tree, 4, v..v + 1, sums)?;
/// }
/// assert_eq!(fold.len(), 1);
/// assert_eq!(fold[0].0, 0..4);
/// assert_eq!(fold[0].1[0].data(), &[6.0, 6.0]);
/// # Ok::<(), vf_tensor::TensorError>(())
/// ```
pub fn fold_partial(
    partials: &mut Vec<(Range<usize>, Vec<Tensor>)>,
    order: ReductionOrder,
    total: usize,
    vns: Range<usize>,
    sums: Vec<Tensor>,
) -> Result<(), TensorError> {
    const CONTEXT: &str = "reduce::fold_partial";
    if vns.is_empty() {
        return Err(TensorError::Empty { context: CONTEXT });
    }
    if vns.end > total {
        return Err(TensorError::OutOfBounds {
            index: vns.end,
            len: total,
            context: CONTEXT,
        });
    }
    // The first partial that ends after `vns` starts; it and the one before
    // it are the neighbours, and neither may overlap.
    let mut at = partials.partition_point(|(p, _)| p.end <= vns.start);
    if partials.get(at).is_some_and(|(p, _)| p.start < vns.end) {
        return Err(TensorError::NotAPermutation {
            len: total,
            context: CONTEXT,
        });
    }
    partials.insert(at, (vns, sums));
    // Combine with the left neighbour, then the right, until neither forms
    // a tree node with the partial at `at`.
    loop {
        if at > 0 && joins(partials, order, total, at - 1) {
            combine(partials, at - 1)?;
            at -= 1;
        } else if joins(partials, order, total, at) {
            combine(partials, at)?;
        } else {
            return Ok(());
        }
    }
}

/// Whether partials `i` and `i + 1` are adjacent and their union is a node
/// of `order`'s tree over `total` VNs.
fn joins(
    partials: &[(Range<usize>, Vec<Tensor>)],
    order: ReductionOrder,
    total: usize,
    i: usize,
) -> bool {
    match partials.get(i..i + 2) {
        Some([(left, _), (right, _)]) => {
            left.end == right.start && combines(order, total, left.start, left.end, right.end)
        }
        _ => false,
    }
}

/// `partials[i] += partials[i + 1]`, tensor by tensor, the right one
/// removed.
fn combine(partials: &mut Vec<(Range<usize>, Vec<Tensor>)>, i: usize) -> Result<(), TensorError> {
    let (right, right_sums) = partials.remove(i + 1);
    let (left, left_sums) = &mut partials[i];
    if left_sums.len() != right_sums.len() {
        return Err(TensorError::ShapeMismatch {
            expected: left_sums.len(),
            actual: right_sums.len(),
            context: "reduce::fold_partial",
        });
    }
    for (sum, part) in left_sums.iter_mut().zip(&right_sums) {
        sum.add_assign(part)?;
    }
    left.end = right.end;
    Ok(())
}

/// Whether `[a, b)` and `[b, c)` of a `total`-VN fold combine under `order`.
fn combines(order: ReductionOrder, total: usize, a: usize, b: usize, c: usize) -> bool {
    match order {
        ReductionOrder::Tree => {
            let width = b - a;
            width.is_power_of_two() && a.is_multiple_of(2 * width) && c == total.min(a + 2 * width)
        }
        ReductionOrder::Sequential | ReductionOrder::ArrivalOrder => a == 0,
    }
}

/// Sums a list of same-shaped tensors with the given strategy.
///
/// For [`ReductionOrder::ArrivalOrder`], `arrival` gives the permutation in
/// which the parts are summed; it is ignored by the other strategies. If
/// `arrival` is `None`, arrival order degrades to sequential order.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] if `parts` is empty,
/// [`TensorError::ShapeMismatch`] if shapes disagree, and
/// [`TensorError::NotAPermutation`] if an arrival order is given that is
/// not a permutation of `0..parts.len()`.
///
/// # Examples
///
/// ```
/// use vf_tensor::{reduce, Tensor};
/// use vf_tensor::reduce::ReductionOrder;
///
/// let parts = vec![Tensor::ones([2]), Tensor::ones([2]), Tensor::ones([2])];
/// let sum = reduce::reduce_sum(&parts, ReductionOrder::Tree, None)?;
/// assert_eq!(sum.data(), &[3.0, 3.0]);
/// # Ok::<(), vf_tensor::TensorError>(())
/// ```
pub fn reduce_sum(
    parts: &[Tensor],
    order: ReductionOrder,
    arrival: Option<&[usize]>,
) -> Result<Tensor, TensorError> {
    match (order, arrival) {
        (ReductionOrder::ArrivalOrder, Some(idx)) => {
            let mut seen = vec![false; parts.len()];
            let is_permutation = idx.len() == parts.len()
                && idx
                    .iter()
                    .all(|&i| seen.get_mut(i).is_some_and(|s| !std::mem::replace(s, true)));
            if !is_permutation {
                return Err(TensorError::NotAPermutation {
                    len: parts.len(),
                    context: "reduce::reduce_sum",
                });
            }
            fold_all(idx.iter().map(|&i| parts[i].clone()), order)
        }
        _ => fold_all(parts.iter().cloned(), order),
    }
}

/// Folds `parts` as VNs `0..parts.len()` and returns the one sum.
fn fold_all(
    parts: impl ExactSizeIterator<Item = Tensor>,
    order: ReductionOrder,
) -> Result<Tensor, TensorError> {
    let total = parts.len();
    let mut partials = Vec::new();
    for (vn, part) in parts.enumerate() {
        fold_partial(&mut partials, order, total, vn..vn + 1, vec![part])?;
    }
    // A fold that has seen every VN holds one partial, so anything else
    // means there were no parts.
    match partials.as_mut_slice() {
        [(_, sums)] => sums.pop(),
        _ => None,
    }
    .ok_or(TensorError::Empty {
        context: "reduce::reduce_sum",
    })
}

/// Averages a list of same-shaped tensors with the given strategy.
///
/// # Errors
///
/// Same as [`reduce_sum`].
pub fn reduce_mean(
    parts: &[Tensor],
    order: ReductionOrder,
    arrival: Option<&[usize]>,
) -> Result<Tensor, TensorError> {
    let mut s = reduce_sum(parts, order, arrival)?;
    s.scale_assign(1.0 / parts.len() as f32);
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_vec(vec![i as f32, 2.0 * i as f32], [2]).unwrap())
            .collect()
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(reduce_sum(&[], ReductionOrder::Tree, None).is_err());
        for order in [ReductionOrder::Tree, ReductionOrder::Sequential] {
            assert!(reduce_mean(&[], order, None).is_err());
        }
    }

    #[test]
    fn a_bad_arrival_order_is_an_error() {
        let p = parts(4);
        let bad: [&[usize]; 5] = [
            &[],
            &[0, 1, 2, 4],
            &[0, 1, 2],
            &[0, 1, 1, 3],
            &[0, 1, 2, 3, 3],
        ];
        for arrival in bad {
            let expected = Err(TensorError::NotAPermutation {
                len: 4,
                context: "reduce::reduce_sum",
            });
            let sum = reduce_sum(&p, ReductionOrder::ArrivalOrder, Some(arrival));
            let mean = reduce_mean(&p, ReductionOrder::ArrivalOrder, Some(arrival));
            assert_eq!(sum, expected, "{arrival:?}");
            assert_eq!(mean, expected, "{arrival:?}");
        }
    }

    #[test]
    fn fold_rejects_ranges_outside_the_fold_and_mismatched_partials() {
        let mut partials = Vec::new();
        let one = || vec![Tensor::ones([2])];
        assert!(fold_partial(&mut partials, ReductionOrder::Tree, 4, 2..2, one()).is_err());
        assert!(fold_partial(&mut partials, ReductionOrder::Tree, 4, 3..5, one()).is_err());
        assert!(partials.is_empty());
        fold_partial(&mut partials, ReductionOrder::Tree, 4, 0..1, one()).unwrap();
        let two = vec![Tensor::ones([2]), Tensor::ones([2])];
        assert!(fold_partial(&mut partials, ReductionOrder::Tree, 4, 1..2, two).is_err());
    }

    #[test]
    fn single_part_is_identity() {
        let p = parts(1);
        let s = reduce_sum(&p, ReductionOrder::Tree, None).unwrap();
        assert_eq!(s, p[0]);
    }

    #[test]
    fn tree_and_sequential_agree_on_exact_values() {
        // Integer-valued f32 sums are exact, so all orders agree.
        let p = parts(7);
        let t = reduce_sum(&p, ReductionOrder::Tree, None).unwrap();
        let s = reduce_sum(&p, ReductionOrder::Sequential, None).unwrap();
        assert_eq!(t, s);
        assert_eq!(t.data(), &[21.0, 42.0]);
    }

    #[test]
    fn arrival_order_uses_the_permutation() {
        // With values where rounding matters, a different order can change
        // the f32 result; here we just verify the permutation is honored by
        // using values where it does not, then checking exactness.
        let p = parts(4);
        let a = reduce_sum(&p, ReductionOrder::ArrivalOrder, Some(&[3, 1, 0, 2])).unwrap();
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn tree_reduction_is_stable_under_rounding() {
        // 1e8 + 1.0 rounds away the 1.0 in f32. Tree reduction of
        // [1e8, 1, 1, ..., 1] (pairing the small parts together first at
        // deeper levels) loses less than pure sequential accumulation.
        let mut p = vec![Tensor::scalar(1e8)];
        p.extend((0..15).map(|_| Tensor::scalar(1.0)));
        let seq = reduce_sum(&p, ReductionOrder::Sequential, None)
            .unwrap()
            .item()
            .unwrap();
        let tree = reduce_sum(&p, ReductionOrder::Tree, None)
            .unwrap()
            .item()
            .unwrap();
        // Sequential loses every +1.0 (each is below the ulp of 1e8).
        assert_eq!(seq, 1e8);
        // Tree sums the 1.0s together first, recovering (most of) them.
        assert!(tree > 1e8, "tree sum {tree} should retain small addends");
    }

    #[test]
    fn mean_divides_by_count() {
        let p = parts(4);
        let m = reduce_mean(&p, ReductionOrder::Tree, None).unwrap();
        assert_eq!(m.data(), &[1.5, 3.0]);
    }

    #[test]
    fn mismatched_shapes_error() {
        let p = vec![Tensor::zeros([2]), Tensor::zeros([3])];
        assert!(reduce_sum(&p, ReductionOrder::Tree, None).is_err());
        assert!(reduce_sum(&p, ReductionOrder::Sequential, None).is_err());
    }
}
