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

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use proptest::prelude::*;
use vf_tensor::autograd::Tape;
use vf_tensor::{conv, gemm, init, ops, pool, Tensor};

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

/// The same model's stem: 3 → 16 channels, so a grad-kernel panel holds
/// 27 taps and its last lanes are ragged.
#[test]
fn conv2d_at_the_benchmark_stem_shape_is_bitwise_equal_to_reference() {
    check_conv([16, 3, 16, 16, 16], (3, 3), 2022, false).unwrap();
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

/// `ops::linear` adds the bias in the GEMM's tile store; the reference is a
/// matmul followed by a separate `+=` pass, as `add_bias` did. Ragged widths
/// (`n` against every tile geometry's `NR`), a NaN and a −0.0 in the bias,
/// and one shape above the parallel threshold.
#[test]
fn linear_is_bitwise_a_matmul_then_a_bias_add() {
    for t in THREADS {
        pool::set_num_threads(t);
        for n in [1usize, 8, 31, 33] {
            for (m, k) in [(8usize, 32usize), (13, 5), (130, 64)] {
                let seed = (m * 1000 + k * 10 + n) as u64;
                let mut x = tensor([m, k], seed);
                // A zero row: its chains are ±0.0, so a −0.0 bias shows.
                x.data_mut()[..k].fill(-0.0);
                let w = tensor([k, n], seed + 1);
                let mut b = init::normal(&mut init::rng(seed + 2), [n], 0.0, 1.0);
                b.data_mut()[0] = -0.0;
                if n > 2 {
                    b.data_mut()[n / 2] = f32::NAN;
                }
                let mut want = ops::matmul(&x, &w).unwrap();
                for row in want.data_mut().chunks_exact_mut(n) {
                    for (o, &bias) in row.iter_mut().zip(b.data()) {
                        *o += bias;
                    }
                }
                let got = ops::linear(&x, &w, &b).unwrap();
                assert_eq!(got.shape(), want.shape());
                assert_eq!(
                    value_bits(got.data()),
                    value_bits(want.data()),
                    "linear {m}x{k}x{n} threads={t}"
                );
            }
        }
    }
}

/// Batch norm as it was before the row-slice rewrite, kept as the reference
/// the tape op is held to bit for bit: `[i * n + j]` loops, `√(var + ε)` and
/// a divide per element, x̂ recomputed in backward, and the column sums of
/// `dβ`/`dγ` computed again for the input gradient's means.
mod bn_reference {
    /// `(out, mean, var)` of training-mode batch norm over `m × n`.
    pub fn forward(
        x: &[f32],
        (m, n): (usize, usize),
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut mean = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                mean[j] += x[i * n + j];
            }
        }
        let inv_m = 1.0 / m as f32;
        for v in &mut mean {
            *v *= inv_m;
        }
        let mut var = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                let d = x[i * n + j] - mean[j];
                var[j] += d * d;
            }
        }
        for v in &mut var {
            *v *= inv_m;
        }
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let xhat = (x[i * n + j] - mean[j]) / (var[j] + eps).sqrt();
                out[i * n + j] = gamma[j] * xhat + beta[j];
            }
        }
        (out, mean, var)
    }

    /// `(dx, dγ, dβ)` for the upstream gradient `gd`.
    pub fn backward(
        x: &[f32],
        (m, n): (usize, usize),
        (mean, var): (&[f32], &[f32]),
        gamma: &[f32],
        gd: &[f32],
        eps: f32,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut xhat = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                xhat[i * n + j] = (x[i * n + j] - mean[j]) / (var[j] + eps).sqrt();
            }
        }
        let mut db = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                db[j] += gd[i * n + j];
            }
        }
        let mut dg = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                dg[j] += gd[i * n + j] * xhat[i * n + j];
            }
        }
        let mut mean_dy = vec![0.0f32; n];
        let mut mean_dyxhat = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                mean_dy[j] += gd[i * n + j];
                mean_dyxhat[j] += gd[i * n + j] * xhat[i * n + j];
            }
        }
        let inv_m = 1.0 / m as f32;
        for j in 0..n {
            mean_dy[j] *= inv_m;
            mean_dyxhat[j] *= inv_m;
        }
        let mut dx = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let s = gamma[j] / (var[j] + eps).sqrt();
                dx[i * n + j] = s * (gd[i * n + j] - mean_dy[j] - xhat[i * n + j] * mean_dyxhat[j]);
            }
        }
        (dx, dg, db)
    }
}

/// One batch norm through the tape — forward output, the mean and variance
/// nodes, `dx`, `dγ`, `dβ` under the upstream gradient `gout` — against
/// [`bn_reference`]. With `special`, the input and `gout` carry NaN, ±∞ and
/// −0.0, one γ is 0 and one column is constant (zero variance).
fn check_batch_norm(m: usize, n: usize, seed: u64, special: bool) -> Result<(), String> {
    let eps = 1e-5;
    let mut rng = init::rng(seed);
    let mut x = init::normal(&mut rng, [m, n], 0.5, 2.0);
    let mut gamma = init::normal(&mut rng, [n], 1.0, 0.5);
    let beta = init::normal(&mut rng, [n], 0.0, 0.5);
    let mut gout = init::normal(&mut rng, [m, n], 0.0, 1.0);
    if special {
        sprinkle_specials(&mut x, 7);
        sprinkle_specials(&mut gout, 5);
        for row in x.data_mut().chunks_exact_mut(n) {
            row[n - 1] = 3.25;
        }
        gamma.data_mut()[n / 2] = 0.0;
    }

    let mut tape = Tape::new();
    let (xv, gv, bv) = (tape.leaf(&x), tape.leaf(&gamma), tape.leaf(&beta));
    let (y, mean, var) = tape
        .batch_norm(xv, gv, bv, eps)
        .map_err(|e| e.to_string())?;
    // sum(y ⊙ gout) hands the batch norm exactly `1.0 · gout` as upstream.
    let c = tape.constant(&gout);
    let weighted = tape.mul(y, c).map_err(|e| e.to_string())?;
    let loss = tape.sum_all(weighted);
    let [out, mean, var] = [y, mean, var].map(|v| value_bits(tape.value(v).data()));
    let grads = tape.backward(loss).map_err(|e| e.to_string())?;
    let grad = |v| value_bits(grads.get(v).expect("leaf gradient").data());

    let (want_out, want_mean, want_var) =
        bn_reference::forward(x.data(), (m, n), gamma.data(), beta.data(), eps);
    let (want_dx, want_dg, want_db) = bn_reference::backward(
        x.data(),
        (m, n),
        (&want_mean, &want_var),
        gamma.data(),
        gout.data(),
        eps,
    );
    let what = format!("m={m} n={n} special={special}");
    for (name, got, want) in [
        ("out", out, value_bits(&want_out)),
        ("mean", mean, value_bits(&want_mean)),
        ("var", var, value_bits(&want_var)),
        ("dx", grad(xv), value_bits(&want_dx)),
        ("dgamma", grad(gv), value_bits(&want_dg)),
        ("dbeta", grad(bv), value_bits(&want_db)),
    ] {
        if got != want {
            return Err(format!("batch norm {name} differs: {what}"));
        }
    }
    Ok(())
}

#[test]
fn batch_norm_forward_and_backward_are_bitwise_the_reference_loops() {
    for m in [1usize, 2, 8, 33] {
        for n in [1usize, 7, 32, 33, 513] {
            for special in [false, true] {
                check_batch_norm(m, n, (m * 1000 + n) as u64, special).unwrap();
            }
        }
    }
}

/// Eval-mode batch norm shares the training kernel; against the reference
/// forward with the same statistics, including special values and a
/// zero-variance column.
#[test]
fn batch_norm_apply_is_bitwise_the_reference_loop() {
    for (m, n) in [(1usize, 7usize), (8, 32), (33, 513)] {
        let mut rng = init::rng((m + n) as u64);
        let mut x = init::normal(&mut rng, [m, n], 0.0, 3.0);
        sprinkle_specials(&mut x, 3);
        let (mean, mut var) = ops::batch_stats(&init::normal(&mut rng, [4, n], 0.0, 1.0));
        var.data_mut()[0] = 0.0;
        let gamma = init::normal(&mut rng, [n], 1.0, 0.5);
        let beta = init::normal(&mut rng, [n], 0.0, 0.5);
        let got = ops::batch_norm_apply(&x, &mean, &var, &gamma, &beta, 1e-3).unwrap();
        let mut want = vec![0.0f32; m * n];
        let (xd, md, vd, gd, bd) = (x.data(), mean.data(), var.data(), gamma.data(), beta.data());
        for i in 0..m {
            for j in 0..n {
                let xhat = (xd[i * n + j] - md[j]) / (vd[j] + 1e-3).sqrt();
                want[i * n + j] = gd[j] * xhat + bd[j];
            }
        }
        assert_eq!(value_bits(got.data()), value_bits(&want), "m={m} n={n}");
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
        ks in 0usize..=7,
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
        // Even kernels border one side only, and unequally when kh ≠ kw; a
        // 7×7 kernel overhangs every image of the small half.
        let kernel = [(1, 1), (3, 3), (5, 3), (3, 5), (2, 2), (4, 2), (2, 4), (7, 7)][ks];
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
