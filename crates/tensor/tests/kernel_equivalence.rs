//! Property-based bit-equivalence of the fast kernels and their references.
//!
//! The determinism contract of the kernel layer is *exact*: for every shape
//! and every logical thread count, the blocked/SIMD/parallel GEMM and the
//! packed convolution lowering must produce bitwise-identical outputs to the
//! naive reference kernels retained in `gemm::reference` and
//! `conv::reference`. These properties drive random shapes through both
//! paths under thread counts 1, 2, and 8 and compare with `==` (no
//! tolerance). Chunking is varied inside one process via
//! `pool::set_num_threads`, which only changes how work is partitioned —
//! never per-element FLOP order.
//!
//! Where operands carry special values the comparison is by bit pattern, so
//! ±0, ±∞ and subnormals count — with one exception. Against a *reference*
//! every NaN compares as one canonical NaN ([`value_bits`]): Rust leaves the
//! sign and payload of a NaN produced by arithmetic unspecified, and the
//! optimizer may commute the operands of the reference's `+`/`mul_add`, so
//! under `--release` the reference and the microkernel legitimately disagree
//! on a NaN's sign bit (x86 propagates the first NaN operand's). *That* an
//! element is NaN is the contract; which NaN is not. Where one code path is
//! compared with itself — thread counts here, device counts in the trainer's
//! determinism tests — the comparison stays exact, NaN bits included.

use proptest::prelude::*;
use vf_tensor::{conv, gemm, init, pool, Tensor};

/// Thread counts each property is exercised under. 1 is the sequential
/// baseline, 2 splits work, 8 exceeds this machine's core count (chunks
/// queue and drain in any order, which must not matter).
const THREADS: [usize; 3] = [1, 2, 8];

fn tensor(dims: [usize; 2], seed: u64) -> Tensor {
    init::normal(&mut init::rng(seed), dims, 0.0, 1.0)
}

/// Bit patterns for comparing a fast kernel against a reference: every NaN
/// maps to the one canonical pattern, everything else — ±0, ±∞, subnormals
/// — to its own bits. See the module doc for why NaNs are not compared
/// bit for bit across two code paths.
fn value_bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

/// Exact bit patterns, NaNs included: for comparing one code path with
/// itself.
fn exact_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
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
    let want_fwd = value_bits(conv::reference::conv2d(&x, &kern).unwrap().data());
    let want_gi = value_bits(
        conv::reference::conv2d_grad_input(&g, &kern)
            .unwrap()
            .data(),
    );
    let want_gk = value_bits(
        conv::reference::conv2d_grad_kernel(&x, &g, kh, kw)
            .unwrap()
            .data(),
    );
    // The same lowering under another chunking must agree with itself to
    // the bit, NaN signs and payloads included.
    let mut first: Option<[Vec<u32>; 3]> = None;
    for t in THREADS {
        pool::set_num_threads(t);
        let what =
            format!("n={n} ic={ic} oc={oc} {h}x{w} k{kh}x{kw} special={special} threads={t}");
        let fwd = conv::conv2d(&x, &kern).unwrap();
        let gi = conv::conv2d_grad_input(&g, &kern).unwrap();
        let gk = conv::conv2d_grad_kernel(&x, &g, kh, kw).unwrap();
        if value_bits(fwd.data()) != want_fwd {
            return Err(format!("conv2d {what}"));
        }
        if value_bits(gi.data()) != want_gi {
            return Err(format!("grad_input {what}"));
        }
        if value_bits(gk.data()) != want_gk {
            return Err(format!("grad_kernel {what}"));
        }
        let exact = [fwd, gi, gk].map(|t| exact_bits(t.data()));
        if *first.get_or_insert_with(|| exact.clone()) != exact {
            return Err(format!("thread counts disagree: {what}"));
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

/// The layouts — of `nn`, `nt`, `tn` — in which the fast kernel and its
/// reference differ on one seeded `m×k×n` problem. Empty is the contract.
fn gemm_mismatches(m: usize, k: usize, n: usize, seed: u64) -> Vec<String> {
    type Gemm = fn(&[f32], &[f32], usize, usize, usize) -> Vec<f32>;
    let layouts: [(&str, Gemm, Gemm); 3] = [
        ("nn", gemm::matmul, gemm::reference::matmul),
        ("nt", gemm::matmul_nt, gemm::reference::matmul_nt),
        ("tn", gemm::matmul_tn, gemm::reference::matmul_tn),
    ];
    // `m·k` and `k·n` values: each layout reads them in its own order.
    let a = tensor([m, k], seed);
    let b = tensor([k, n], seed.wrapping_add(1));
    layouts
        .iter()
        .filter(|(_, fast, reference)| {
            fast(a.data(), b.data(), m, k, n) != reference(a.data(), b.data(), m, k, n)
        })
        .map(|(name, ..)| format!("{name} {m}x{k}x{n}"))
        .collect()
}

/// Shapes the random properties below are too small to reach: panel
/// boundaries that fall mid-row-block on every tile geometry, chunks of
/// several row blocks walking several panels, and packs larger than the
/// scratch a thread retains between calls (264·520 + 520·32 elements is
/// 600 KiB at one chunk), which are allocated for the call and given back.
#[test]
fn gemm_across_panel_boundaries_and_past_the_retained_scratch() {
    for t in THREADS {
        pool::set_num_threads(t);
        // The last call finds the scratch cut back after the oversized one.
        for (m, k, n) in [(19, 70, 45), (67, 33, 97), (264, 520, 40), (13, 9, 35)] {
            assert_eq!(gemm_mismatches(m, k, n, 1), [""; 0], "threads={t}");
        }
    }
}

/// Pack scratch is reused, never cleared: a GEMM over NaN operands leaves
/// its thread's scratch full of NaN, and the small ragged ones that follow
/// on the same thread — every tile partial, so most of what the microkernel
/// reads is padding — must not see any of it. All are below the parallel
/// threshold, so all run on this thread.
#[test]
fn a_gemm_inherits_nothing_from_the_previous_call_on_its_thread() {
    let (m, k, n) = (40, 40, 40);
    let poison = vec![f32::NAN; m * k];
    for op in [gemm::matmul, gemm::matmul_nt, gemm::matmul_tn] {
        assert!(op(&poison, &poison, m, k, n).iter().all(|v| v.is_nan()));
        for (m, k, n) in [(3, 5, 7), (9, 1, 33), (1, 13, 2)] {
            assert_eq!(gemm_mismatches(m, k, n, 11), [""; 0]);
        }
    }
}

/// A GEMM issued from inside a pool task — the trainer's shape: device
/// tasks fan out, each runs its virtual nodes' kernels. Small ones run
/// whole on the task's thread, large ones submit a nested job that the
/// task's thread helps drain; either way each chunk packs into the scratch
/// of whichever thread runs it.
#[test]
fn gemm_nested_in_a_pool_task_is_bitwise_equal_to_reference() {
    let shapes = [(8, 32, 32), (5, 9, 40), (72, 64, 96)];
    for t in THREADS {
        pool::set_num_threads(t);
        let mismatches = pool::parallel_tasks(6, |task| {
            let (m, k, n) = shapes[task % shapes.len()];
            gemm_mismatches(m, k, n, task as u64)
        });
        assert_eq!(mismatches.concat(), [""; 0], "threads={t}");
    }
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
        let want = value_bits(&gemm::reference::matmul(a.data(), b.data(), m, k, n));
        let single = exact_bits(&gemm::matmul(a.data(), b.data(), m, k, n));
        for t in THREADS {
            pool::set_num_threads(t);
            let got = gemm::matmul(a.data(), b.data(), m, k, n);
            // NaN != NaN, so compare bit patterns: canonical NaN against
            // the reference, exact against the fast path itself.
            prop_assert_eq!(&value_bits(&got), &want, "special {}x{}x{} threads={}", m, k, n, t);
            prop_assert_eq!(&exact_bits(&got), &single, "special {}x{}x{} threads={}", m, k, n, t);
        }
    }
}
