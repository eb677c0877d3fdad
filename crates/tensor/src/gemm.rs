//! High-performance, bit-deterministic matrix multiplication.
//!
//! The kernel layer that backs [`crate::ops::matmul`], the matmul-shaped
//! autograd backward paths, and the convolution lowering in [`crate::conv`].
//!
//! # Determinism contract
//!
//! Every output element is a single fused-multiply-add chain over the inner
//! dimension in ascending order:
//!
//! ```text
//! out[i][j] = fma(a[i][K-1], b[K-1][j], … fma(a[i][1], b[1][j],
//!             fma(a[i][0], b[0][j], 0.0)) …)
//! ```
//!
//! There is deliberately **no k-blocking**: accumulators live in registers
//! across the whole inner loop, so the chain is never split or reassociated.
//! Scalar [`f32::mul_add`], AVX2 `vfmadd`, and AVX-512 `vfmadd` are all
//! exactly-rounded IEEE-754 FMAs, so every dispatch path — and the naive
//! [`reference`] kernels — produce bit-identical results. Parallelism
//! partitions *output rows* across the [`crate::pool`]; row ownership never
//! changes an element's FLOP sequence, so results are independent of
//! `VF_NUM_THREADS`.
//!
//! # Speed
//!
//! Speed comes from the classic BLIS-style decomposition minus k-blocking:
//! `B` is packed once per call into column micro-panels (`k × NR`,
//! zero-padded tails), `A` is packed per row block (`k × MR`) by the chunk
//! that owns the block, and a register-tiled microkernel walks the full
//! inner dimension. The `cargo run --release --bin kernel_bench` harness
//! records the resulting throughput against the seed naive kernel in
//! `results/BENCH_kernels.json`.
//!
//! # One panel walk
//!
//! Everything that reaches a microkernel goes through `walk_panels`: one
//! packed `A` block against a run of consecutive packed `B` panels, and the
//! only `match` on the detected instruction set. The dense driver here is
//! "pack, then walk" per row block; [`crate::conv`] packs its operands
//! itself — the kernel tensor once per call with `pack_a`, the unfolded
//! image straight from NCHW into panel layout — and calls the same walk, so
//! there is no second GEMM loop nest to keep in step. Scratch belongs to
//! whoever packs: the driver's `B` pack lives for the call, its `A` block
//! for the chunk.

use crate::pool::{self, SendPtr};
use std::ops::Range;
use std::sync::OnceLock;

/// Operand layout of a GEMM call. The letters follow BLAS: `N` is row-major
/// as stored, `T` means the operand is logically transposed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `a (m×k) · b (k×n)`.
    Nn,
    /// `a (m×k) · bᵀ` with `b` stored `(n×k)`.
    Nt,
    /// `aᵀ · b` with `a` stored `(k×m)`, `b` stored `(k×n)`.
    Tn,
}

/// Instruction set the microkernel dispatches to, detected once per process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Scalar,
}

impl Isa {
    /// Rows of the register tile: the width of a packed `A` block.
    pub(crate) fn mr(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => 8,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => 4,
            Isa::Scalar => 8,
        }
    }

    /// Columns of the register tile: the width of a packed `B` panel.
    pub(crate) fn nr(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => 32,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => 16,
            Isa::Scalar => 8,
        }
    }
}

pub(crate) fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// Problems smaller than this many multiply-adds are not worth a trip
/// through the pool queue; they run on the submitting thread. A pure
/// shape-based policy, so the decision itself is deterministic.
const PARALLEL_MIN_FLOPS: usize = 64 * 64 * 64;

// ---------------------------------------------------------------------------
// Microkernels: out[r][x] (+)= Σ_p apanel[p][r] · bpanel[p][x]
//
// `apanel` is `k × MR` (row-broadcast operand), `bpanel` is `k × NR`
// (vector operand), both readable at full tile width. `mr`/`nr` bound the
// rows/columns actually stored to `out` (leading dimension `ldout`); lanes
// past them are computed and discarded, so what the packers leave there
// (zeros here, a previous panel's values in conv's reused scratch) never
// reaches an output. When `accumulate` is set the accumulators initialize
// from `out` instead of zero — bitwise equal to continuing the FMA chain.
// ---------------------------------------------------------------------------

// SAFETY: callers guarantee AVX-512F was detected at runtime, `apanel` and
// `bpanel` are valid for `k` full tiles (zero-padded by the packers), and
// `out` is valid for `mr × nr` writes at leading dimension `ldout` with
// exclusive access to that tile (pool claims are per output region).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)] // microkernel ABI: flat scalars keep the hot call cheap
unsafe fn micro_avx512(
    apanel: *const f32,
    bpanel: *const f32,
    k: usize,
    out: *mut f32,
    ldout: usize,
    mr: usize,
    nr: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 32;
    let mut acc0 = [_mm512_setzero_ps(); MR];
    let mut acc1 = [_mm512_setzero_ps(); MR];
    if accumulate {
        if mr == MR && nr == NR {
            for r in 0..MR {
                acc0[r] = _mm512_loadu_ps(out.add(r * ldout));
                acc1[r] = _mm512_loadu_ps(out.add(r * ldout + 16));
            }
        } else {
            for r in 0..mr {
                let mut tmp = [0.0f32; NR];
                for (x, t) in tmp.iter_mut().enumerate().take(nr) {
                    *t = *out.add(r * ldout + x);
                }
                acc0[r] = _mm512_loadu_ps(tmp.as_ptr());
                acc1[r] = _mm512_loadu_ps(tmp.as_ptr().add(16));
            }
        }
    }
    for p in 0..k {
        let b0 = _mm512_loadu_ps(bpanel.add(p * NR));
        let b1 = _mm512_loadu_ps(bpanel.add(p * NR + 16));
        let ap = apanel.add(p * MR);
        for r in 0..MR {
            let av = _mm512_set1_ps(*ap.add(r));
            acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
            acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
        }
    }
    if mr == MR && nr == NR {
        for r in 0..MR {
            _mm512_storeu_ps(out.add(r * ldout), acc0[r]);
            _mm512_storeu_ps(out.add(r * ldout + 16), acc1[r]);
        }
    } else {
        for r in 0..mr {
            let mut tmp = [0.0f32; NR];
            _mm512_storeu_ps(tmp.as_mut_ptr(), acc0[r]);
            _mm512_storeu_ps(tmp.as_mut_ptr().add(16), acc1[r]);
            for (x, t) in tmp.iter().enumerate().take(nr) {
                *out.add(r * ldout + x) = *t;
            }
        }
    }
}

// SAFETY: callers guarantee AVX2+FMA were detected at runtime, the panels
// are valid for `k` full zero-padded tiles, and `out` is valid for
// `mr × nr` exclusive writes at leading dimension `ldout`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)] // microkernel ABI: flat scalars keep the hot call cheap
unsafe fn micro_avx2(
    apanel: *const f32,
    bpanel: *const f32,
    k: usize,
    out: *mut f32,
    ldout: usize,
    mr: usize,
    nr: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    const MR: usize = 4;
    const NR: usize = 16;
    let mut acc0 = [_mm256_setzero_ps(); MR];
    let mut acc1 = [_mm256_setzero_ps(); MR];
    if accumulate {
        if mr == MR && nr == NR {
            for r in 0..MR {
                acc0[r] = _mm256_loadu_ps(out.add(r * ldout));
                acc1[r] = _mm256_loadu_ps(out.add(r * ldout + 8));
            }
        } else {
            for r in 0..mr {
                let mut tmp = [0.0f32; NR];
                for (x, t) in tmp.iter_mut().enumerate().take(nr) {
                    *t = *out.add(r * ldout + x);
                }
                acc0[r] = _mm256_loadu_ps(tmp.as_ptr());
                acc1[r] = _mm256_loadu_ps(tmp.as_ptr().add(8));
            }
        }
    }
    for p in 0..k {
        let b0 = _mm256_loadu_ps(bpanel.add(p * NR));
        let b1 = _mm256_loadu_ps(bpanel.add(p * NR + 8));
        let ap = apanel.add(p * MR);
        for r in 0..MR {
            let av = _mm256_set1_ps(*ap.add(r));
            acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
            acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
        }
    }
    if mr == MR && nr == NR {
        for r in 0..MR {
            _mm256_storeu_ps(out.add(r * ldout), acc0[r]);
            _mm256_storeu_ps(out.add(r * ldout + 8), acc1[r]);
        }
    } else {
        for r in 0..mr {
            let mut tmp = [0.0f32; NR];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc0[r]);
            _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc1[r]);
            for (x, t) in tmp.iter().enumerate().take(nr) {
                *out.add(r * ldout + x) = *t;
            }
        }
    }
}

/// Portable fallback: the same packed walk with scalar [`f32::mul_add`].
// SAFETY: `unsafe` only to share the microkernel ABI — callers uphold the
// same panel-validity and exclusive `mr × nr` output-tile contract as the
// SIMD variants; no target features are required here.
#[allow(clippy::too_many_arguments)] // microkernel ABI: flat scalars keep the hot call cheap
unsafe fn micro_scalar(
    apanel: *const f32,
    bpanel: *const f32,
    k: usize,
    out: *mut f32,
    ldout: usize,
    mr: usize,
    nr: usize,
    accumulate: bool,
) {
    const MR: usize = 8;
    const NR: usize = 8;
    let mut acc = [[0.0f32; NR]; MR];
    if accumulate {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            for (x, a) in row.iter_mut().enumerate().take(nr) {
                *a = *out.add(r * ldout + x);
            }
        }
    }
    for p in 0..k {
        for (r, row) in acc.iter_mut().enumerate() {
            let av = *apanel.add(p * MR + r);
            for (x, a) in row.iter_mut().enumerate() {
                *a = av.mul_add(*bpanel.add(p * NR + x), *a);
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        for (x, a) in row.iter().enumerate().take(nr) {
            *out.add(r * ldout + x) = *a;
        }
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Packs the vector operand into `n.div_ceil(NR)` micro-panels of layout
/// `k × NR`, zero-padding the final partial panel.
fn pack_b(op: Op, b: &[f32], k: usize, n: usize, nr_max: usize) -> Vec<f32> {
    let mut bpack = vec![0.0f32; n.div_ceil(nr_max).max(1) * k * nr_max];
    pack_b_into(op, b, k, n, nr_max, &mut bpack);
    bpack
}

/// [`pack_b`] into caller-owned scratch of at least `n.div_ceil(NR) · k · NR`
/// elements. Only the `n` live columns are written, so scratch that starts
/// zeroed keeps its zero tail across calls of one shape.
pub(crate) fn pack_b_into(op: Op, b: &[f32], k: usize, n: usize, nr_max: usize, bpack: &mut [f32]) {
    for jp in 0..n.div_ceil(nr_max) {
        let jc = jp * nr_max;
        let nr = nr_max.min(n - jc);
        let panel = &mut bpack[jp * k * nr_max..(jp + 1) * k * nr_max];
        match op {
            // b is (k × n): copy row slices.
            Op::Nn | Op::Tn => {
                for p in 0..k {
                    panel[p * nr_max..p * nr_max + nr]
                        .copy_from_slice(&b[p * n + jc..p * n + jc + nr]);
                }
            }
            // b is (n × k): transpose while packing.
            Op::Nt => {
                for jl in 0..nr {
                    let row = &b[(jc + jl) * k..(jc + jl + 1) * k];
                    for (p, &v) in row.iter().enumerate() {
                        panel[p * nr_max + jl] = v;
                    }
                }
            }
        }
    }
}

/// Packs one `mr`-row block of the broadcast operand into `k × MR` layout,
/// zero-padding rows past `mr`.
fn pack_a_block(op: Op, a: &[f32], m: usize, k: usize, ir: usize, mr: usize, apack: &mut [f32]) {
    let mr_max = apack.len() / k.max(1);
    match op {
        // a is (m × k): gather columns.
        Op::Nn | Op::Nt => {
            for p in 0..k {
                for r in 0..mr {
                    apack[p * mr_max + r] = a[(ir + r) * k + p];
                }
                for r in mr..mr_max {
                    apack[p * mr_max + r] = 0.0;
                }
            }
        }
        // a is (k × m): rows are already inner-dimension-major.
        Op::Tn => {
            for p in 0..k {
                for r in 0..mr {
                    apack[p * mr_max + r] = a[p * m + ir + r];
                }
                for r in mr..mr_max {
                    apack[p * mr_max + r] = 0.0;
                }
            }
        }
    }
}

/// Packs every row block of the broadcast operand, block `i` at
/// `apack[i · k · MR..]`: what a caller that reuses one operand across many
/// walks (the convolution kernel tensor across a batch) does once up front.
pub(crate) fn pack_a(op: Op, a: &[f32], m: usize, k: usize, mr_max: usize, apack: &mut [f32]) {
    debug_assert_eq!(
        apack.len(),
        m.div_ceil(mr_max) * k * mr_max,
        "pack_a: scratch"
    );
    for (blk, block) in apack.chunks_exact_mut(k * mr_max).enumerate() {
        let ir = blk * mr_max;
        pack_a_block(op, a, m, k, ir, mr_max.min(m - ir), block);
    }
}

// ---------------------------------------------------------------------------
// The panel walk: the one place a microkernel is chosen and called
// ---------------------------------------------------------------------------

/// Multiplies one packed `k × MR` block of the broadcast operand by the
/// `n.div_ceil(NR)` consecutive `k × NR` panels at `bpack`, storing (or, with
/// `accumulate`, continuing from) the `mr × n` output tile row at `out`.
///
/// # Safety
///
/// `isa` must be what [`isa`] detected. `apanel` must be readable for
/// `k · MR` elements and `bpack` for `n.div_ceil(NR) · k · NR`. `out` must be
/// valid for reads and writes of `mr` rows of `n` elements at leading
/// dimension `ldout`, and nothing else may access that tile during the call
/// (pool chunks claim disjoint output regions).
#[allow(clippy::too_many_arguments)] // microkernel ABI: flat scalars keep the hot call cheap
pub(crate) unsafe fn walk_panels(
    isa: Isa,
    apanel: *const f32,
    bpack: *const f32,
    k: usize,
    n: usize,
    out: *mut f32,
    ldout: usize,
    mr: usize,
    accumulate: bool,
) {
    let nr_max = isa.nr();
    for jp in 0..n.div_ceil(nr_max) {
        let jc = jp * nr_max;
        let nr = nr_max.min(n - jc);
        let dst = out.add(jc);
        let bp = bpack.add(jp * k * nr_max);
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => micro_avx512(apanel, bp, k, dst, ldout, mr, nr, accumulate),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => micro_avx2(apanel, bp, k, dst, ldout, mr, nr, accumulate),
            Isa::Scalar => micro_scalar(apanel, bp, k, dst, ldout, mr, nr, accumulate),
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

fn gemm(op: Op, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "gemm: output length");
    // An empty output never reads the operands, so their lengths are
    // unconstrained (callers may legitimately pass empty slices).
    if m == 0 || n == 0 {
        return;
    }
    debug_assert_eq!(a.len(), m * k, "gemm: a operand length");
    debug_assert_eq!(b.len(), k * n, "gemm: b operand length");
    let isa = isa();
    let (mr_max, nr_max) = (isa.mr(), isa.nr());
    let bpack = pack_b(op, b, k, n, nr_max);
    let nblocks = m.div_ceil(mr_max);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let work = |blocks: Range<usize>| {
        // Race sanitizer (debug): this chunk owns output rows
        // [blocks.start·MR, min(blocks.end·MR, m)).
        pool::claim_region(
            out_ptr.get(),
            blocks.start * mr_max * n..(blocks.end * mr_max).min(m) * n,
        );
        let mut apack = vec![0.0f32; k.max(1) * mr_max];
        for blk in blocks {
            let ir = blk * mr_max;
            let mr = mr_max.min(m - ir);
            pack_a_block(op, a, m, k, ir, mr, &mut apack);
            // SAFETY: this block owns output rows [ir, ir + mr); the packs
            // are sized k × MR and npanels × k × NR; the walk writes only
            // `mr × n` elements at leading dimension `n`.
            unsafe {
                let dst = out_ptr.get().add(ir * n);
                walk_panels(isa, apack.as_ptr(), bpack.as_ptr(), k, n, dst, n, mr, false);
            }
        }
    };
    let flops = m.saturating_mul(k.max(1)).saturating_mul(n);
    if flops >= PARALLEL_MIN_FLOPS {
        pool::parallel_rows(nblocks, work);
    } else {
        pool::run_serial(nblocks, work);
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `a (m×k) · b (k×n) → (m×n)`, parallel over output-row blocks.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    gemm(Op::Nn, a, b, m, k, n, &mut out);
    out
}

/// `a (m×k) · bᵀ → (m×n)` with `b` stored `(n×k)` — the `dA = dC·Bᵀ`
/// backward shape, computed without materializing the transpose.
pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    gemm(Op::Nt, a, b, m, k, n, &mut out);
    out
}

/// `aᵀ · b → (m×n)` with `a` stored `(k×m)`, `b` stored `(k×n)` — the
/// `dB = Aᵀ·dC` backward shape, computed without materializing the transpose.
pub fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    gemm(Op::Tn, a, b, m, k, n, &mut out);
    out
}

/// Naive reference kernels: one `mul_add` chain per element, ascending inner
/// index. These define the semantics the packed/SIMD/parallel paths must
/// reproduce bit-for-bit; the property tests in `tests/kernel_equivalence.rs`
/// and the benchmark harness both compare against them.
pub mod reference {
    /// `a (m×k) · b (k×n)` — per-element ascending-`p` `mul_add` chain.
    pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
        out
    }

    /// `a (m×k) · bᵀ` with `b` stored `(n×k)`.
    pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[i * k + p].mul_add(b[j * k + p], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// `aᵀ · b` with `a` stored `(k×m)`, `b` stored `(k×n)`.
    pub fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[p * m + i].mul_add(b[p * n + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / 4e9) - 0.25
            })
            .collect()
    }

    #[test]
    fn packed_gemm_is_bitwise_equal_to_reference() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (8, 32, 32),
            (17, 9, 33),
            (64, 64, 64),
            (33, 77, 129),
        ] {
            let a = fill(m as u64 * 31 + 1, m * k);
            let b = fill(n as u64 * 17 + 2, k * n);
            assert_eq!(
                matmul(&a, &b, m, k, n),
                reference::matmul(&a, &b, m, k, n),
                "NN {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn nt_and_tn_match_their_references() {
        for &(m, k, n) in &[(5usize, 11usize, 9usize), (16, 32, 24), (33, 8, 65)] {
            let a_nt = fill(3, m * k);
            let b_nt = fill(4, n * k);
            assert_eq!(
                matmul_nt(&a_nt, &b_nt, m, k, n),
                reference::matmul_nt(&a_nt, &b_nt, m, k, n),
                "NT {m}x{k}x{n}"
            );
            let a_tn = fill(5, k * m);
            let b_tn = fill(6, k * n);
            assert_eq!(
                matmul_tn(&a_tn, &b_tn, m, k, n),
                reference::matmul_tn(&a_tn, &b_tn, m, k, n),
                "TN {m}x{k}x{n}"
            );
        }
    }

    /// `out += a · bᵀ` by the driver's own pack-then-walk, accumulating.
    fn nt_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        let isa = isa();
        let bpack = pack_b(Op::Nt, b, k, n, isa.nr());
        let mut apack = vec![0.0f32; m.div_ceil(isa.mr()) * k * isa.mr()];
        pack_a(Op::Nt, a, m, k, isa.mr(), &mut apack);
        for (blk, block) in apack.chunks_exact(k * isa.mr()).enumerate() {
            let ir = blk * isa.mr();
            let mr = isa.mr().min(m - ir);
            // SAFETY: `out` is m × n and exclusively borrowed; the packs are
            // sized by the same tile geometry the walk reads them with.
            unsafe {
                let dst = out.as_mut_ptr().add(ir * n);
                walk_panels(isa, block.as_ptr(), bpack.as_ptr(), k, n, dst, n, mr, true);
            }
        }
    }

    #[test]
    fn accumulate_continues_the_chain_bitwise() {
        // Two accumulating walks must equal one reference chain over the
        // concatenated inner dimension.
        let (m, k, n) = (9usize, 13usize, 21usize);
        let a1 = fill(7, m * k);
        let a2 = fill(8, m * k);
        let b1 = fill(9, n * k);
        let b2 = fill(10, n * k);
        let mut out = vec![0.0f32; m * n];
        nt_acc(&a1, &b1, m, k, n, &mut out);
        nt_acc(&a2, &b2, m, k, n, &mut out);
        // Reference: one chain over a1·b1ᵀ's k terms then a2·b2ᵀ's.
        let mut expect = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a1[i * k + p].mul_add(b1[j * k + p], acc);
                }
                for p in 0..k {
                    acc = a2[i * k + p].mul_add(b2[j * k + p], acc);
                }
                expect[i * n + j] = acc;
            }
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn results_are_identical_for_any_logical_thread_count() {
        let (m, k, n) = (70usize, 64usize, 96usize);
        let a = fill(11, m * k);
        let b = fill(12, k * n);
        let baseline = matmul(&a, &b, m, k, n);
        for threads in [1usize, 2, 8] {
            pool::set_num_threads(threads);
            assert_eq!(matmul(&a, &b, m, k, n), baseline, "threads={threads}");
        }
        pool::set_num_threads(1);
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        assert!(matmul(&[], &[], 0, 4, 5).is_empty());
        assert!(matmul(&[], &[], 3, 0, 0).is_empty());
        // k == 0 with nonempty output: all zeros.
        assert_eq!(matmul(&[], &[], 2, 0, 3), vec![0.0; 6]);
    }

    #[test]
    fn nan_and_inf_propagate() {
        // 0 · NaN must be NaN and 0 · ∞ must be NaN — a zero-skip
        // "optimization" would silently drop them.
        let a = vec![0.0f32, 1.0];
        let b = vec![f32::NAN, f32::INFINITY, 5.0, 7.0];
        let out = matmul(&a, &b, 1, 2, 2);
        assert!(out[0].is_nan(), "0·NaN + 1·5 must stay NaN, got {}", out[0]);
        assert!(out[1].is_nan(), "0·∞ + 1·7 must stay NaN, got {}", out[1]);
    }
}
