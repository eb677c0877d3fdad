//! Property-based tests of the tensor substrate's algebraic invariants.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use proptest::prelude::*;
use vf_tensor::reduce::{fold_partial, reduce_mean, reduce_sum, ReductionOrder};
use vf_tensor::{init, ops, Shape, Tensor};

fn small_tensor(max_len: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_len, any::<u64>()).prop_map(|(n, seed)| {
        init::normal(&mut init::rng(seed), [n], 0.0, 1.0)
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The pairwise tree the reduction has always summed in: adjacent pairs,
/// an odd last part carried up a level unchanged.
fn pairwise_reference(mut level: Vec<Tensor>) -> Tensor {
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => a.add(b).unwrap(),
                _ => pair[0].clone(),
            })
            .collect();
    }
    level.pop().unwrap()
}

/// Left-to-right summation of `parts` taken in `order`.
fn sequential_reference(parts: &[Tensor], order: impl Iterator<Item = usize>) -> Tensor {
    let mut order = order;
    let mut acc = parts[order.next().unwrap()].clone();
    for i in order {
        acc.add_assign(&parts[i]).unwrap();
    }
    acc
}

/// How many partials a tree fold may hold for one contiguous run of `k`
/// VNs from `start`: the popcount of `k`, at most `1 + ⌈log₂ k⌉`, when the
/// run starts on a multiple of `k.next_power_of_two()`; otherwise up to a
/// rising and a falling staircase of dyadic blocks, `2⌊log₂ k⌋` (VNs 1..15
/// of 16 are `[1,2) [2,4) [4,8) [8,12) [12,14) [14,15)`).
fn tree_partials_bound(start: usize, k: usize) -> usize {
    if start.is_multiple_of(k.next_power_of_two()) {
        1 + k.next_power_of_two().trailing_zeros() as usize
    } else {
        (2 * k.ilog2() as usize).max(1)
    }
}

fn matrix(rows: std::ops::RangeInclusive<usize>, cols: std::ops::RangeInclusive<usize>)
    -> impl Strategy<Value = Tensor>
{
    (rows, cols, any::<u64>()).prop_map(|(r, c, seed)| {
        init::normal(&mut init::rng(seed), [r, c], 0.0, 1.0)
    })
}

proptest! {
    #[test]
    fn add_is_commutative(a in small_tensor(64), b_seed in any::<u64>()) {
        let b = init::normal(&mut init::rng(b_seed), a.shape().clone(), 0.0, 1.0);
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn scale_by_zero_is_zero(a in small_tensor(64)) {
        let z = a.scale(0.0);
        prop_assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn add_assign_matches_add(a in small_tensor(64), b_seed in any::<u64>()) {
        let b = init::normal(&mut init::rng(b_seed), a.shape().clone(), 0.0, 1.0);
        let mut acc = a.clone();
        acc.add_assign(&b).unwrap();
        prop_assert_eq!(acc, a.add(&b).unwrap());
    }

    #[test]
    fn row_slices_tile_the_matrix(m in matrix(1..=12, 1..=6)) {
        let (rows, cols) = m.shape().as_rows_cols();
        let mut tiled = Vec::new();
        for r in 0..rows {
            let row = m.slice_rows(r, 1).unwrap();
            prop_assert_eq!(row.shape().dims(), &[1, cols]);
            tiled.extend_from_slice(row.data());
        }
        prop_assert_eq!(tiled.as_slice(), m.data());
    }

    #[test]
    fn matmul_identity_is_noop(m in matrix(1..=8, 1..=8)) {
        let n = m.shape().dim(1);
        let mut eye = Tensor::zeros([n, n]);
        for i in 0..n {
            eye.data_mut()[i * n + i] = 1.0;
        }
        let r = ops::matmul(&m, &eye).unwrap();
        prop_assert!(r.approx_eq(&m, 1e-5));
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(1..=6, 1..=6), b_seed in any::<u64>()) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let k = a.shape().dim(1);
        let b = init::normal(&mut init::rng(b_seed), [k, 5], 0.0, 1.0);
        let left = ops::transpose(&ops::matmul(&a, &b).unwrap());
        let right = ops::matmul(&ops::transpose(&b), &ops::transpose(&a)).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-4));
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix(1..=8, 2..=8)) {
        let p = ops::softmax_rows(&m);
        let (rows, cols) = p.shape().as_rows_cols();
        for i in 0..rows {
            let row = &p.data()[i * cols..(i + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative(m in matrix(1..=8, 2..=6)) {
        let cols = m.shape().dim(1);
        let labels: Vec<usize> = (0..m.shape().dim(0)).map(|i| i % cols).collect();
        let (loss, _) = ops::softmax_cross_entropy(&m, &labels).unwrap();
        prop_assert!(loss >= 0.0);
    }

    #[test]
    fn accuracy_is_a_fraction(m in matrix(1..=10, 2..=6)) {
        let cols = m.shape().dim(1);
        let labels: Vec<usize> = (0..m.shape().dim(0)).map(|i| (i * 7) % cols).collect();
        let acc = ops::accuracy(&m, &labels).unwrap();
        prop_assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn batch_norm_output_has_unit_stats(m in matrix(4..=16, 1..=4)) {
        let (mean, var) = ops::batch_stats(&m);
        // Skip degenerate constant columns.
        prop_assume!(var.data().iter().all(|&v| v > 1e-4));
        let n = m.shape().dim(1);
        let y = ops::batch_norm_apply(
            &m, &mean, &var, &Tensor::ones([n]), &Tensor::zeros([n]), 1e-6,
        ).unwrap();
        let (ym, yv) = ops::batch_stats(&y);
        prop_assert!(ym.data().iter().all(|&v| v.abs() < 1e-3), "mean {:?}", ym);
        prop_assert!(yv.data().iter().all(|&v| (v - 1.0).abs() < 1e-2), "var {:?}", yv);
    }

    #[test]
    fn reduce_sum_exact_on_integers(parts_n in 1usize..=17, len in 1usize..32, seed in any::<u64>()) {
        // Integer-valued f32 sums are exact, so every order agrees exactly.
        let parts: Vec<Tensor> = (0..parts_n)
            .map(|i| Tensor::full([len], i as f32))
            .collect();
        let tree = reduce_sum(&parts, ReductionOrder::Tree, None).unwrap();
        let seq = reduce_sum(&parts, ReductionOrder::Sequential, None).unwrap();
        prop_assert_eq!(&tree, &seq);
        let expected = (parts_n * (parts_n - 1) / 2) as f32;
        prop_assert!(tree.data().iter().all(|&v| v == expected));
        // …and so does the mean: both orders scale the same exact sum.
        for order in [ReductionOrder::Tree, ReductionOrder::Sequential] {
            let mean = reduce_mean(&parts, order, None).unwrap();
            prop_assert!(mean.data().iter().all(|&v| v == expected * (1.0 / parts_n as f32)));
        }

        // On parts where rounding matters, every order sums in the order it
        // always has (1..=17 parts puts odd carries at several tree levels).
        let mut rng = init::rng(seed);
        let parts: Vec<Tensor> =
            (0..parts_n).map(|_| init::normal(&mut rng, [len], 0.0, 1.0)).collect();
        let arrival: Vec<usize> = (0..parts_n).rev().map(|i| (i + 3) % parts_n).collect();
        for (order, arr, expected) in [
            (ReductionOrder::Tree, None, pairwise_reference(parts.clone())),
            (ReductionOrder::Sequential, None, sequential_reference(&parts, 0..parts_n)),
            (
                ReductionOrder::ArrivalOrder,
                Some(arrival.as_slice()),
                sequential_reference(&parts, arrival.iter().copied()),
            ),
        ] {
            let sum = reduce_sum(&parts, order, arr).unwrap();
            prop_assert_eq!(bits(&sum), bits(&expected), "{:?}", order);
        }
    }

    #[test]
    fn reduce_mean_of_identical_parts_is_identity(t in small_tensor(32), n in 1usize..9) {
        let parts = vec![t.clone(); n];
        let m = reduce_mean(&parts, ReductionOrder::Tree, None).unwrap();
        prop_assert!(m.approx_eq(&t, 1e-5));
    }

    #[test]
    fn shape_strides_address_every_element(dims in proptest::collection::vec(1usize..5, 0..4)) {
        let shape = Shape::new(dims.clone());
        let strides = shape.strides();
        let n = shape.num_elements();
        // The set of addresses {sum_i idx_i * stride_i} must be 0..n.
        let mut seen = vec![false; n];
        let mut idx = vec![0usize; dims.len()];
        loop {
            let addr: usize = idx.iter().zip(strides.iter()).map(|(i, s)| i * s).sum();
            prop_assert!(!seen[addr], "duplicate address {addr}");
            seen[addr] = true;
            // Odometer increment.
            let mut k = dims.len();
            loop {
                if k == 0 {
                    break;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < dims[k] {
                    break;
                }
                idx[k] = 0;
                if k == 0 {
                    k = usize::MAX;
                    break;
                }
            }
            if k == usize::MAX || dims.is_empty() {
                break;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn clip_global_norm_never_exceeds_bound(seeds in proptest::collection::vec(any::<u64>(), 1..5)) {
        let mut grads: Vec<Tensor> = seeds
            .iter()
            .map(|&s| init::normal(&mut init::rng(s), [16], 0.0, 10.0))
            .collect();
        ops::clip_global_norm(&mut grads, 1.0);
        let norm: f32 = grads.iter().map(|g| g.data().iter().map(|v| v * v).sum::<f32>()).sum::<f32>().sqrt();
        prop_assert!(norm <= 1.0 + 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every VN count 1..=300, each over one random assignment of VNs to 8
    /// devices and over the same owners sorted into contiguous blocks.
    #[test]
    fn folding_per_device_then_across_devices_is_the_vn_order_reduction(
        owners in proptest::collection::vec(0usize..8, 300..301),
        seed in any::<u64>(),
    ) {
        let mut rng = init::rng(seed);
        let all_parts: Vec<Tensor> =
            (0..300).map(|_| init::normal(&mut rng, [3], 0.0, 1.0)).collect();
        for (total, contiguous) in (1..=300).flat_map(|v| [(v, false), (v, true)]) {
            let parts = &all_parts[..total];
            // The device of each VN: anywhere at all (as a resize leaves
            // them), or blocks in VN order.
            let mut owners = owners[..total].to_vec();
            if contiguous {
                owners.sort_unstable();
            }
            for order in [ReductionOrder::Tree, ReductionOrder::Sequential] {
                let mut partials = Vec::new();
                for device in 0..8 {
                    let mut held = Vec::new();
                    // `(first VN, length)` of the device's contiguous runs so far.
                    let mut runs: Vec<(usize, usize)> = Vec::new();
                    for vn in (0..total).filter(|&vn| owners[vn] == device) {
                        match runs.last_mut() {
                            Some((first, k)) if *first + *k == vn => *k += 1,
                            _ => runs.push((vn, 1)),
                        }
                        fold_partial(&mut held, order, total, vn..vn + 1, vec![parts[vn].clone()])
                            .unwrap();
                        if order == ReductionOrder::Tree {
                            let bound: usize =
                                runs.iter().map(|&(first, k)| tree_partials_bound(first, k)).sum();
                            prop_assert!(
                                held.len() <= bound,
                                "{} partials over runs {:?} of {}", held.len(), runs, total
                            );
                        }
                    }
                    partials.extend(held);
                }
                partials.sort_by_key(|(vns, _)| vns.start);
                let mut joined = Vec::new();
                for (vns, sums) in partials {
                    fold_partial(&mut joined, order, total, vns, sums).unwrap();
                }
                prop_assert_eq!(joined.len(), 1);
                let (vns, mut sums) = joined.pop().unwrap();
                prop_assert_eq!(vns, 0..total);
                let mut mean = sums.pop().unwrap();
                mean.scale_assign(1.0 / total as f32);
                let expected = reduce_mean(parts, order, None).unwrap();
                prop_assert_eq!(bits(&mean), bits(&expected), "{:?} over {} VNs", order, total);
            }
        }
    }
}
