//! Property-based bit-equivalence of the fast kernels and their references.
//!
//! The determinism contract of the kernel layer is *exact*: for every shape
//! and every logical thread count, the blocked/SIMD/parallel GEMM and the
//! packed convolution lowering must produce bitwise-identical outputs to the
//! naive reference kernels retained in `gemm::reference` and
//! `conv::reference`. These properties drive random shapes through both
//! paths under thread counts 1, 2, and 8 and compare with `==` (no
//! tolerance) — the convolutions by bit pattern, so NaN payloads and the
//! sign of zero count too. Chunking is varied inside one process via
//! `pool::set_num_threads`, which only changes how work is partitioned —
//! never per-element FLOP order.

use proptest::prelude::*;
use vf_tensor::{conv, gemm, init, pool, Tensor};

/// Thread counts each property is exercised under. 1 is the sequential
/// baseline, 2 splits work, 8 exceeds this machine's core count (chunks
/// queue and drain in any order, which must not matter).
const THREADS: [usize; 3] = [1, 2, 8];

fn tensor(dims: [usize; 2], seed: u64) -> Tensor {
    init::normal(&mut init::rng(seed), dims, 0.0, 1.0)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Overwrites every `every`-th element with NaN, ±∞, ±0 in rotation.
fn sprinkle_specials(t: &mut Tensor, every: usize) {
    let specials = [f32::NAN, -0.0, f32::INFINITY, 0.0, f32::NEG_INFINITY];
    for (i, v) in t
        .data_mut()
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| i % every == 0)
    {
        *v = specials[(i / every) % specials.len()];
    }
}

/// Forward, grad-input and grad-kernel of one convolution against the
/// references, bit for bit, under every thread count. `[n, ic, oc, h, w]`.
///
/// With `special`, operands carry NaN, ±∞ and −0.0: an explicit-zero padding
/// tap times a NaN or ∞ weight must poison the border outputs exactly as the
/// reference's `fma(k, 0, acc)` does, which a lowering that *skips* pads
/// instead of storing zeros gets wrong.
fn check_conv(
    [n, ic, oc, h, w]: [usize; 5],
    (kh, kw): (usize, usize),
    seed: u64,
    special: bool,
) -> Result<(), String> {
    let mut rng = init::rng(seed);
    let mut x = init::normal(&mut rng, [n, ic, h, w], 0.0, 1.0);
    let mut kern = init::normal(&mut rng, [oc, ic, kh, kw], 0.0, 0.5);
    let mut g = init::normal(&mut rng, [n, oc, h, w], 0.0, 1.0);
    if special {
        sprinkle_specials(&mut x, 7);
        sprinkle_specials(&mut kern, 5);
        sprinkle_specials(&mut g, 11);
    }
    let want_fwd = bits(&conv::reference::conv2d(&x, &kern).unwrap());
    let want_gi = bits(&conv::reference::conv2d_grad_input(&g, &kern).unwrap());
    let want_gk = bits(&conv::reference::conv2d_grad_kernel(&x, &g, kh, kw).unwrap());
    for t in THREADS {
        pool::set_num_threads(t);
        let what =
            format!("n={n} ic={ic} oc={oc} {h}x{w} k{kh}x{kw} special={special} threads={t}");
        if bits(&conv::conv2d(&x, &kern).unwrap()) != want_fwd {
            return Err(format!("conv2d {what}"));
        }
        if bits(&conv::conv2d_grad_input(&g, &kern).unwrap()) != want_gi {
            return Err(format!("grad_input {what}"));
        }
        if bits(&conv::conv2d_grad_kernel(&x, &g, kh, kw).unwrap()) != want_gk {
            return Err(format!("grad_kernel {what}"));
        }
    }
    Ok(())
}

/// perf_bench's `train_conv` trunk layer, exactly: 16 → 16 channels, 16×16
/// images, micro-batch 16. Above `PARALLEL_MIN_FLOPS` with several chunks per
/// job, so under the debug profile this is the parallel lowering running
/// with the pool-race sanitizer armed.
#[test]
fn conv2d_at_the_benchmark_shape_is_bitwise_equal_to_reference() {
    check_conv([16, 16, 16, 16, 16], (3, 3), 2022, false).unwrap();
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_is_bitwise_equal_to_reference(
        m in 1usize..=80,
        k in 1usize..=80,
        n in 1usize..=80,
        seed in any::<u64>(),
    ) {
        let a = tensor([m, k], seed);
        let b = tensor([k, n], seed.wrapping_add(1));
        let want = gemm::reference::matmul(a.data(), b.data(), m, k, n);
        for t in THREADS {
            pool::set_num_threads(t);
            let got = gemm::matmul(a.data(), b.data(), m, k, n);
            prop_assert_eq!(&got, &want, "matmul {}x{}x{} threads={}", m, k, n, t);
        }
    }

    #[test]
    fn matmul_nt_is_bitwise_equal_to_reference(
        m in 1usize..=48,
        k in 1usize..=48,
        n in 1usize..=48,
        seed in any::<u64>(),
    ) {
        let a = tensor([m, k], seed);
        let b = tensor([n, k], seed.wrapping_add(1));
        let want = gemm::reference::matmul_nt(a.data(), b.data(), m, k, n);
        for t in THREADS {
            pool::set_num_threads(t);
            let got = gemm::matmul_nt(a.data(), b.data(), m, k, n);
            prop_assert_eq!(&got, &want, "matmul_nt {}x{}x{} threads={}", m, k, n, t);
        }
    }

    #[test]
    fn matmul_tn_is_bitwise_equal_to_reference(
        m in 1usize..=48,
        k in 1usize..=48,
        n in 1usize..=48,
        seed in any::<u64>(),
    ) {
        let a = tensor([k, m], seed);
        let b = tensor([k, n], seed.wrapping_add(1));
        let want = gemm::reference::matmul_tn(a.data(), b.data(), m, k, n);
        for t in THREADS {
            pool::set_num_threads(t);
            let got = gemm::matmul_tn(a.data(), b.data(), m, k, n);
            prop_assert_eq!(&got, &want, "matmul_tn {}x{}x{} threads={}", m, k, n, t);
        }
    }

    #[test]
    fn conv2d_forward_and_backward_are_bitwise_equal_to_reference(
        n in 1usize..=5,
        ic in 1usize..=20,
        oc in 1usize..=20,
        h in 1usize..=20,
        w in 1usize..=40,
        ks in 0usize..=3,
        small in any::<bool>(),
        special in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Half the cases stay in the old tiny range (≤ 3 images of ≤ 4
        // channels and ≤ 9×9: every tile partial, `w < kw` common); the
        // rest fill MR row blocks, cross NR panel edges mid-row (`w` not a
        // divisor of NR, `w > NR`) and reach the parallel threshold.
        let fold = |v: usize, max: usize| if small { (v - 1) % max + 1 } else { v };
        let dims = [fold(n, 3), fold(ic, 4), fold(oc, 4), fold(h, 9), fold(w, 9)];
        let kernel = [(1, 1), (3, 3), (5, 3), (3, 5)][ks];
        let outcome = check_conv(dims, kernel, seed, special);
        prop_assert!(outcome.is_ok(), "{} differs from the reference", outcome.unwrap_err());
    }

    #[test]
    fn matmul_special_values_match_reference(
        m in 1usize..=16,
        k in 1usize..=16,
        n in 1usize..=16,
        seed in any::<u64>(),
    ) {
        // Sprinkle zeros, NaN, and infinities: the fast path must propagate
        // them exactly as the reference FMA chain does (no zero-skipping).
        let specials = [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = init::rng(seed);
        let mut a = init::normal(&mut rng, [m, k], 0.0, 1.0);
        let mut b = init::normal(&mut rng, [k, n], 0.0, 1.0);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = specials[i % specials.len()];
            }
        }
        for (i, v) in b.data_mut().iter_mut().enumerate() {
            if i % 4 == 0 {
                *v = specials[(i / 4) % specials.len()];
            }
        }
        let want = gemm::reference::matmul(a.data(), b.data(), m, k, n);
        for t in THREADS {
            pool::set_num_threads(t);
            let got = gemm::matmul(a.data(), b.data(), m, k, n);
            // NaN != NaN, so compare bit patterns.
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got_bits, &want_bits, "special {}x{}x{} threads={}", m, k, n, t);
        }
    }
}
