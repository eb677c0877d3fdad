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
//! the chunk that owns a run of output-row blocks packs its rows of `A` once
//! (`k × MR` per block), then packs `B` **one `k × NR` micro-panel at a
//! time** (zero-padded tail) and walks every one of its `A` blocks against
//! that panel while it is hot, with a register-tiled microkernel over the
//! full inner dimension. A call costs its FMAs plus one pass over each
//! operand: the two packs whose source already has the tile's lanes side by
//! side are run copies, the two that transpose go through one routine
//! (`transpose_strip`: 8×8 tiles in registers where AVX is detected), and
//! the output is allocated uninitialised and written exactly once — a
//! ragged tile (`n` not a multiple of `NR`, as in a layer 8 wide) with
//! masked vector stores. A dense layer's bias rides on that store
//! (`Tile::Bias`): each element is its chain plus one rounded add, so
//! [`crate::ops::linear`] needs no second pass over its output. The
//! `vf-bench kernel_bench` harness records the resulting
//! throughput against the seed naive kernel in `results/BENCH_kernels.json`.
//!
//! # One panel walk
//!
//! Everything that reaches a microkernel goes through `walk_panels`: one
//! packed `A` block against a run of consecutive packed `B` panels, and the
//! only `match` on the detected instruction set. The dense driver here is
//! "pack a panel, walk the chunk's blocks against it"; [`crate::conv`] packs
//! its operands itself — the kernel tensor once per call with `pack_a`, the
//! unfolded image straight from NCHW into panel layout — and calls the same
//! walk, so there is no second GEMM loop nest to keep in step.
//!
//! # Scratch
//!
//! Scratch belongs to the thread that packs. The driver's packs live in a
//! private `thread_local` buffer that a chunk takes for the duration of its
//! work and puts back afterwards, so a GEMM whose packs fit allocates
//! nothing but its output, and nothing packed is ever shared between
//! threads. The buffer starts on a cache line, with the `B` panel first, so
//! the microkernel's vector loads never straddle two lines. It is never
//! zero-filled — the packers write every element they are handed, pad lanes
//! included — and what a thread retains between calls is capped at
//! `SCRATCH_KEEP` whatever `m`, `k`, `n` were: a larger call grows the
//! buffer for the call and gives the excess back. `B` is deliberately never
//! packed whole: keeping a whole-operand pack (1 MiB for a 512×512 weight)
//! resident per thread measured +4 % peak RSS on `train_dense`; a panel is
//! `k · NR` elements. [`crate::conv`] takes its per-chunk buffers from the
//! thread's recycled tensor storage, as `gemm` takes its output.

use crate::pool::{self, SendPtr};
use crate::storage;
use std::cell::Cell;
use std::mem::MaybeUninit;
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
// past them are computed and discarded — a ragged tile's loads and stores
// are masked to its `nr` live lanes — so what the packers leave there
// (zeros here, a previous panel's values in conv's reused scratch) never
// reaches an output. `Tile` says how the accumulators start and what is
// added once the chain is complete.
// ---------------------------------------------------------------------------

/// How a microkernel starts its accumulators and what it adds to them once
/// the FMA chain over `k` is complete.
#[derive(Clone, Copy)]
pub(crate) enum Tile {
    /// Start from zero and store the chain.
    Store,
    /// Start from the stored output: bitwise equal to continuing its chain.
    Accumulate,
    /// Start from zero and store `chain + bias[x]` — one rounded add per
    /// element, exactly the add a separate bias pass makes. Points at the
    /// bias of the tile's (or walk's) first column.
    Bias(*const f32),
}

impl Tile {
    /// The same tile `cols` columns further right.
    fn shifted(self, cols: usize) -> Tile {
        match self {
            Tile::Bias(bias) => Tile::Bias(bias.wrapping_add(cols)),
            other => other,
        }
    }
}

/// The AVX-512F microkernel.
///
/// # Safety
///
/// Callers guarantee AVX-512F was detected at runtime, `apanel` and
/// `bpanel` are valid for `k` full tiles (zero-padded by the packers), `out`
/// is valid for `mr × nr` writes at leading dimension `ldout` with exclusive
/// access to that tile (pool claims are per output region), and a
/// `Tile::Bias` pointer is readable for `nr` elements. Masked lanes are
/// never accessed, so the pointers past `nr` are formed with `wrapping_add`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: flat scalars keep the hot call cheap"
)]
unsafe fn micro_avx512(
    apanel: *const f32,
    bpanel: *const f32,
    k: usize,
    out: *mut f32,
    ldout: usize,
    mr: usize,
    nr: usize,
    tile: Tile,
) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 32;
    // Live lanes `[0, nr)` of the tile's two 16-lane halves.
    let live = if nr >= NR { u32::MAX } else { (1u32 << nr) - 1 };
    let (m0, m1) = (live as __mmask16, (live >> 16) as __mmask16);
    let full = mr == MR && nr == NR;
    let mut acc0 = [_mm512_setzero_ps(); MR];
    let mut acc1 = [_mm512_setzero_ps(); MR];
    if let Tile::Accumulate = tile {
        if full {
            for r in 0..MR {
                acc0[r] = _mm512_loadu_ps(out.add(r * ldout));
                acc1[r] = _mm512_loadu_ps(out.add(r * ldout + 16));
            }
        } else {
            for r in 0..mr {
                let row = out.add(r * ldout);
                acc0[r] = _mm512_maskz_loadu_ps(m0, row);
                acc1[r] = _mm512_maskz_loadu_ps(m1, row.wrapping_add(16));
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
    if let Tile::Bias(bias) = tile {
        let b0 = _mm512_maskz_loadu_ps(m0, bias);
        let b1 = _mm512_maskz_loadu_ps(m1, bias.wrapping_add(16));
        for r in 0..MR {
            acc0[r] = _mm512_add_ps(acc0[r], b0);
            acc1[r] = _mm512_add_ps(acc1[r], b1);
        }
    }
    if full {
        for r in 0..MR {
            _mm512_storeu_ps(out.add(r * ldout), acc0[r]);
            _mm512_storeu_ps(out.add(r * ldout + 16), acc1[r]);
        }
    } else {
        for r in 0..mr {
            let row = out.add(r * ldout);
            _mm512_mask_storeu_ps(row, m0, acc0[r]);
            _mm512_mask_storeu_ps(row.wrapping_add(16), m1, acc1[r]);
        }
    }
}

/// The AVX2+FMA microkernel.
///
/// # Safety
///
/// Callers guarantee AVX2+FMA were detected at runtime, the panels
/// are valid for `k` full zero-padded tiles, `out` is valid for `mr × nr`
/// exclusive writes at leading dimension `ldout`, and a `Tile::Bias` pointer
/// is readable for `nr` elements; masked lanes are never accessed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: flat scalars keep the hot call cheap"
)]
unsafe fn micro_avx2(
    apanel: *const f32,
    bpanel: *const f32,
    k: usize,
    out: *mut f32,
    ldout: usize,
    mr: usize,
    nr: usize,
    tile: Tile,
) {
    use std::arch::x86_64::*;
    const MR: usize = 4;
    const NR: usize = 16;
    // Live lanes `[0, nr)` of the tile's two 8-lane halves, as sign masks.
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr as i32), lane);
    let m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr as i32 - 8), lane);
    let full = mr == MR && nr == NR;
    let mut acc0 = [_mm256_setzero_ps(); MR];
    let mut acc1 = [_mm256_setzero_ps(); MR];
    if let Tile::Accumulate = tile {
        if full {
            for r in 0..MR {
                acc0[r] = _mm256_loadu_ps(out.add(r * ldout));
                acc1[r] = _mm256_loadu_ps(out.add(r * ldout + 8));
            }
        } else {
            for r in 0..mr {
                let row = out.add(r * ldout);
                acc0[r] = _mm256_maskload_ps(row, m0);
                acc1[r] = _mm256_maskload_ps(row.wrapping_add(8), m1);
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
    if let Tile::Bias(bias) = tile {
        let b0 = _mm256_maskload_ps(bias, m0);
        let b1 = _mm256_maskload_ps(bias.wrapping_add(8), m1);
        for r in 0..MR {
            acc0[r] = _mm256_add_ps(acc0[r], b0);
            acc1[r] = _mm256_add_ps(acc1[r], b1);
        }
    }
    if full {
        for r in 0..MR {
            _mm256_storeu_ps(out.add(r * ldout), acc0[r]);
            _mm256_storeu_ps(out.add(r * ldout + 8), acc1[r]);
        }
    } else {
        for r in 0..mr {
            let row = out.add(r * ldout);
            _mm256_maskstore_ps(row, m0, acc0[r]);
            _mm256_maskstore_ps(row.wrapping_add(8), m1, acc1[r]);
        }
    }
}

/// Portable fallback: the same packed walk with scalar [`f32::mul_add`].
///
/// # Safety
///
/// `unsafe` only to share the microkernel ABI — callers uphold the
/// same panel-validity, bias-readability and exclusive `mr × nr`
/// output-tile contract as the SIMD variants; no target features are
/// required here.
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: flat scalars keep the hot call cheap"
)]
unsafe fn micro_scalar(
    apanel: *const f32,
    bpanel: *const f32,
    k: usize,
    out: *mut f32,
    ldout: usize,
    mr: usize,
    nr: usize,
    tile: Tile,
) {
    const MR: usize = 8;
    const NR: usize = 8;
    let mut acc = [[0.0f32; NR]; MR];
    if let Tile::Accumulate = tile {
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
            *out.add(r * ldout + x) = match tile {
                Tile::Bias(bias) => *a + *bias.add(x),
                _ => *a,
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Packing
//
// A pack moves values and nothing else. Destinations are write-only
// `MaybeUninit` views, because thread scratch is never zero-filled: a packer
// initialises every element of the tile it is handed — `live` lanes from the
// operand, the `width − live` pad lanes of a ragged last tile as zeros — so
// nothing an earlier call left in the buffer is ever read.
//
// Both operands pack the same way. A tile is `k` rows of `width` lanes (`MR`
// rows of `A`, `NR` columns of `B`); either the operand already stores a
// tile row's lanes side by side (`copy_strip`) or it stores each lane as a
// contiguous run of `k` (`transpose_strip`).
// ---------------------------------------------------------------------------

/// A pack destination: storage the packer must fully initialise.
type Scratch = [MaybeUninit<f32>];

const ZERO: MaybeUninit<f32> = MaybeUninit::new(0.0);

/// Views operand values as pack-destination elements, for run copies.
fn as_uninit(src: &[f32]) -> &Scratch {
    // SAFETY: `MaybeUninit<f32>` has the layout of `f32`, and nothing can be
    // de-initialised through a shared view.
    unsafe { &*(src as *const [f32] as *const Scratch) }
}

/// Views a caller's initialised buffer as a pack destination.
fn as_scratch(dst: &mut [f32]) -> &mut Scratch {
    // SAFETY: same layout; this module's packers only ever store initialised
    // values through the view, so `dst` is still initialised when it ends.
    unsafe { &mut *(dst as *mut [f32] as *mut Scratch) }
}

/// `dst[p][l] = src[p · pitch + first + l]`: lanes `[first, first + live)`
/// of a `k × pitch` operand, one run copy per tile row.
fn copy_strip(
    src: &[f32],
    pitch: usize,
    first: usize,
    live: usize,
    width: usize,
    dst: &mut Scratch,
) {
    for (p, row) in dst.chunks_exact_mut(width).enumerate() {
        let (run, pad) = row.split_at_mut(live);
        run.copy_from_slice(as_uninit(&src[p * pitch + first..][..live]));
        pad.fill(ZERO);
    }
}

/// `dst[p][l] = src[(first + l) · k + p]`: rows `[first, first + live)` of an
/// operand stored `lanes × k`, transposed while packing.
///
/// Whole 8×8 tiles go through registers where AVX is detected; the ragged
/// edges — and everything on other targets — take the scalar loop, which is
/// cache-blocked by construction: a strip is at most `width ≤ 32` source
/// rows, so consecutive `p` re-read the same few lines.
fn transpose_strip(
    src: &[f32],
    k: usize,
    first: usize,
    live: usize,
    width: usize,
    dst: &mut Scratch,
) {
    let src = &src[first * k..(first + live) * k];
    assert!(
        live <= width && dst.len() == k * width,
        "transpose_strip: tile"
    );
    let (tile_lanes, tile_k) = if isa() == Isa::Scalar {
        (0, 0)
    } else {
        (live - live % 8, k - k % 8)
    };
    #[cfg(target_arch = "x86_64")]
    for p0 in (0..tile_k).step_by(8) {
        for l0 in (0..tile_lanes).step_by(8) {
            // SAFETY: a non-scalar `isa()` means AVX was detected. The source
            // tile is rows [l0, l0 + 8) × columns [p0, p0 + 8) of the
            // `live × k` slice above and the destination tile rows
            // [p0, p0 + 8) × lanes [l0, l0 + 8) of the `k × width` `dst`
            // (asserted), with l0 + 8 ≤ live ≤ width and p0 + 8 ≤ k.
            unsafe {
                transpose_8x8(
                    src.as_ptr().add(l0 * k + p0),
                    k,
                    dst.as_mut_ptr().add(p0 * width + l0).cast(),
                    width,
                );
            }
        }
    }
    // Rows the tiles filled from edge to edge need nothing more.
    let whole_rows = if tile_lanes == width { tile_k } else { 0 };
    for (p, row) in dst.chunks_exact_mut(width).enumerate().skip(whole_rows) {
        let tiled = if p < tile_k { tile_lanes } else { 0 };
        for (l, slot) in row.iter_mut().enumerate().take(live).skip(tiled) {
            *slot = MaybeUninit::new(src[l * k + p]);
        }
        row[live..].fill(ZERO);
    }
}

/// Transposes the 8×8 tile at `src` (row pitch `src_pitch`) into the tile at
/// `dst` (row pitch `dst_pitch`) in registers. Shuffles move bit patterns:
/// NaN payloads and signed zeros arrive as they left.
///
/// # Safety
///
/// Callers guarantee AVX was detected at runtime, `src` is readable
/// for 8 rows of 8 elements at pitch `src_pitch`, and `dst` is writable for
/// 8 rows of 8 elements at pitch `dst_pitch`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn transpose_8x8(src: *const f32, src_pitch: usize, dst: *mut f32, dst_pitch: usize) {
    use std::arch::x86_64::*;
    let mut r = [_mm256_setzero_ps(); 8];
    for (i, v) in r.iter_mut().enumerate() {
        *v = _mm256_loadu_ps(src.add(i * src_pitch));
    }
    // Interleave row pairs by element, then pairs of pairs by 64 bits, then
    // swap the 128-bit halves: out[j] = (r[0][j], r[1][j], …, r[7][j]).
    let t = [
        _mm256_unpacklo_ps(r[0], r[1]),
        _mm256_unpackhi_ps(r[0], r[1]),
        _mm256_unpacklo_ps(r[2], r[3]),
        _mm256_unpackhi_ps(r[2], r[3]),
        _mm256_unpacklo_ps(r[4], r[5]),
        _mm256_unpackhi_ps(r[4], r[5]),
        _mm256_unpacklo_ps(r[6], r[7]),
        _mm256_unpackhi_ps(r[6], r[7]),
    ];
    let u = [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
        _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
        _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
    ];
    for j in 0..4 {
        let lo = _mm256_permute2f128_ps::<0x20>(u[j], u[j + 4]);
        let hi = _mm256_permute2f128_ps::<0x31>(u[j], u[j + 4]);
        _mm256_storeu_ps(dst.add(j * dst_pitch), lo);
        _mm256_storeu_ps(dst.add((j + 4) * dst_pitch), hi);
    }
}

/// Packs columns `[jc, jc + nr)` of the vector operand into one `k × NR`
/// micro-panel, zero-padding lanes past `nr`.
fn pack_b_panel(
    op: Op,
    b: &[f32],
    k: usize,
    n: usize,
    jc: usize,
    nr_max: usize,
    panel: &mut Scratch,
) {
    let nr = nr_max.min(n - jc);
    match op {
        // b is (k × n): a panel row is a run of a stored row.
        Op::Nn | Op::Tn => copy_strip(b, n, jc, nr, nr_max, panel),
        // b is (n × k): transpose while packing.
        Op::Nt => transpose_strip(b, k, jc, nr, nr_max, panel),
    }
}

/// Packs the vector operand into caller-owned scratch of
/// `n.div_ceil(NR) · k · NR` elements: `n.div_ceil(NR)` micro-panels of
/// layout `k × NR`, the final partial panel zero-padded. Every element of
/// `bpack` is written.
pub(crate) fn pack_b_into(op: Op, b: &[f32], k: usize, n: usize, nr_max: usize, bpack: &mut [f32]) {
    debug_assert_eq!(
        bpack.len(),
        n.div_ceil(nr_max) * k * nr_max,
        "pack_b_into: scratch"
    );
    for jp in 0..n.div_ceil(nr_max) {
        let panel = &mut bpack[jp * k * nr_max..(jp + 1) * k * nr_max];
        pack_b_panel(op, b, k, n, jp * nr_max, nr_max, as_scratch(panel));
    }
}

/// Packs row blocks `blocks` of the broadcast operand into `k × MR` layout,
/// block `blocks.start + i` at `apack[i · k · MR..]`, zero-padding the rows
/// past `m` in the last block.
fn pack_a_blocks(
    op: Op,
    a: &[f32],
    m: usize,
    k: usize,
    blocks: Range<usize>,
    mr_max: usize,
    apack: &mut Scratch,
) {
    for (i, blk) in blocks.enumerate() {
        let ir = blk * mr_max;
        let mr = mr_max.min(m - ir);
        let block = &mut apack[i * k * mr_max..(i + 1) * k * mr_max];
        match op {
            // a is (m × k): gather columns.
            Op::Nn | Op::Nt => transpose_strip(a, k, ir, mr, mr_max, block),
            // a is (k × m): rows are already inner-dimension-major.
            Op::Tn => copy_strip(a, m, ir, mr, mr_max, block),
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
    pack_a_blocks(
        op,
        a,
        m,
        k,
        0..m.div_ceil(mr_max),
        mr_max,
        as_scratch(apack),
    );
}

// ---------------------------------------------------------------------------
// The panel walk: the one place a microkernel is chosen and called
// ---------------------------------------------------------------------------

/// Multiplies one packed `k × MR` block of the broadcast operand by the
/// `n.div_ceil(NR)` consecutive `k × NR` panels at `bpack`, storing (or
/// continuing from, or adding a bias to — see [`Tile`]) the `mr × n` output
/// tile row at `out`.
///
/// # Safety
///
/// `isa` must be what [`isa`] detected. `apanel` must be readable for
/// `k · MR` elements and `bpack` for `n.div_ceil(NR) · k · NR`. `out` must be
/// valid for reads and writes of `mr` rows of `n` elements at leading
/// dimension `ldout`, and nothing else may access that tile during the call
/// (pool chunks claim disjoint output regions). A `Tile::Bias` pointer must
/// be readable for `n` elements.
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: flat scalars keep the hot call cheap"
)]
pub(crate) unsafe fn walk_panels(
    isa: Isa,
    apanel: *const f32,
    bpack: *const f32,
    k: usize,
    n: usize,
    out: *mut f32,
    ldout: usize,
    mr: usize,
    tile: Tile,
) {
    let nr_max = isa.nr();
    for jp in 0..n.div_ceil(nr_max) {
        let jc = jp * nr_max;
        let nr = nr_max.min(n - jc);
        let dst = out.add(jc);
        let bp = bpack.add(jp * k * nr_max);
        let tile = tile.shifted(jc);
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => micro_avx512(apanel, bp, k, dst, ldout, mr, nr, tile),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => micro_avx2(apanel, bp, k, dst, ldout, mr, nr, tile),
            Isa::Scalar => micro_scalar(apanel, bp, k, dst, ldout, mr, nr, tile),
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Elements of pack scratch a thread keeps between calls (512 KiB): every
/// pack of the benchmark workloads fits, and no call, however large, leaves
/// a thread holding more.
const SCRATCH_KEEP: usize = 128 * 1024;

thread_local! {
    /// This thread's pack scratch, parked here between calls with length 0.
    static SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Elements in a cache line: the allocator aligns a `Vec<f32>` to 16 bytes
/// at best, so scratch carries this much slack to start on a line.
const LINE: usize = 64 / std::mem::size_of::<f32>();

/// Runs `body` on `len` elements of this thread's pack scratch,
/// uninitialised and starting on a cache line. The buffer is *taken* for the
/// duration, so a GEMM issued from inside `body` would find an empty `Vec`
/// and allocate its own rather than alias this one.
fn with_scratch(len: usize, body: impl FnOnce(&mut Scratch)) {
    let mut buf = SCRATCH.take();
    buf.reserve(len + LINE);
    let spare = buf.spare_capacity_mut();
    // `align_offset` may decline (`usize::MAX`): the slack bounds the skip,
    // and a start that is not on a line only costs speed.
    let skip = spare.as_ptr().align_offset(64).min(LINE);
    body(&mut spare[skip..skip + len]);
    buf.shrink_to(SCRATCH_KEEP);
    SCRATCH.set(buf);
}

/// `op(a) · op(b)`, plus `bias` on every row when given (length `n`), added
/// to each tile as its chains complete.
fn gemm(
    op: Op,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = storage::take(m * n);
    // An empty output never reads the operands, so their lengths are
    // unconstrained (callers may legitimately pass empty slices).
    if m == 0 || n == 0 {
        return out;
    }
    debug_assert_eq!(a.len(), m * k, "gemm: a operand length");
    debug_assert_eq!(b.len(), k * n, "gemm: b operand length");
    assert!(bias.is_none_or(|bias| bias.len() == n), "gemm: bias length");
    let isa = isa();
    let (mr_max, nr_max) = (isa.mr(), isa.nr());
    let nblocks = m.div_ceil(mr_max);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let work = |blocks: Range<usize>| {
        // Race sanitizer (debug): this chunk owns output rows
        // [blocks.start·MR, min(blocks.end·MR, m)).
        pool::claim_region(
            out_ptr.get(),
            blocks.start * mr_max * n..(blocks.end * mr_max).min(m) * n,
        );
        let ablock = k * mr_max;
        with_scratch(k * nr_max + blocks.len() * ablock, |scratch| {
            // The panel goes first: scratch starts on a cache line and a
            // panel row is a whole number of lines (or divides one), so the
            // microkernel's vector loads of `B` never straddle two — worth
            // 10–19 % on a 128×512×512 call. `A` is read a scalar at a time.
            let (panel, apack) = scratch.split_at_mut(k * nr_max);
            pack_a_blocks(op, a, m, k, blocks.clone(), mr_max, apack);
            for jc in (0..n).step_by(nr_max) {
                pack_b_panel(op, b, k, n, jc, nr_max, panel);
                let tile = bias.map_or(Tile::Store, |bias| Tile::Bias(bias[jc..].as_ptr()));
                for (i, blk) in blocks.clone().enumerate() {
                    let ir = blk * mr_max;
                    // SAFETY: this chunk owns output rows [ir, ir + mr) and
                    // `out` has capacity m · n; the packers initialised the
                    // k × MR block at `i · ablock` and the k × NR panel; the
                    // walk stores exactly the mr × min(NR, n − jc) tile at
                    // row `ir`, column `jc`, leading dimension `n`, reading
                    // as many bias values from column `jc` on (asserted
                    // length `n`).
                    unsafe {
                        walk_panels(
                            isa,
                            apack.as_ptr().add(i * ablock).cast(),
                            panel.as_ptr().cast(),
                            k,
                            nr_max.min(n - jc),
                            out_ptr.get().add(ir * n + jc),
                            n,
                            mr_max.min(m - ir),
                            tile,
                        );
                    }
                }
            }
        });
    };
    let flops = m.saturating_mul(k.max(1)).saturating_mul(n);
    if flops >= PARALLEL_MIN_FLOPS {
        pool::parallel_rows(nblocks, work);
    } else {
        pool::run_serial(nblocks, work);
    }
    // SAFETY: the job (or the serial fallback) has returned, its chunks tile
    // row blocks 0..nblocks, and each chunk stored every panel-wide tile of
    // every one of its blocks — with `k == 0` the microkernel stores its
    // zeroed accumulators — so all m · n elements are initialised.
    unsafe { out.set_len(m * n) };
    out
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `a (m×k) · b (k×n) → (m×n)`, parallel over output-row blocks.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    gemm(Op::Nn, a, b, None, m, k, n)
}

/// `a (m×k) · b (k×n) + bias (n)` on every row: each element is its FMA
/// chain plus one rounded add of its column's bias, made in the tile's
/// store instead of in a second pass over the output.
///
/// # Panics
///
/// Panics if `bias.len() != n` and the output is not empty.
pub(crate) fn linear(a: &[f32], b: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    gemm(Op::Nn, a, b, Some(bias), m, k, n)
}

/// `a (m×k) · bᵀ → (m×n)` with `b` stored `(n×k)` — the `dA = dC·Bᵀ`
/// backward shape, computed without materializing the transpose.
pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    gemm(Op::Nt, a, b, None, m, k, n)
}

/// `aᵀ · b → (m×n)` with `a` stored `(k×m)`, `b` stored `(k×n)` — the
/// `dB = Aᵀ·dC` backward shape, computed without materializing the transpose.
pub fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    gemm(Op::Tn, a, b, None, m, k, n)
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
        let mut bpack = vec![0.0f32; n.div_ceil(isa.nr()) * k * isa.nr()];
        pack_b_into(Op::Nt, b, k, n, isa.nr(), &mut bpack);
        let mut apack = vec![0.0f32; m.div_ceil(isa.mr()) * k * isa.mr()];
        pack_a(Op::Nt, a, m, k, isa.mr(), &mut apack);
        for (blk, block) in apack.chunks_exact(k * isa.mr()).enumerate() {
            let ir = blk * isa.mr();
            let mr = isa.mr().min(m - ir);
            // SAFETY: `out` is m × n and exclusively borrowed; the packs are
            // sized by the same tile geometry the walk reads them with.
            unsafe {
                let dst = out.as_mut_ptr().add(ir * n);
                walk_panels(
                    isa,
                    block.as_ptr(),
                    bpack.as_ptr(),
                    k,
                    n,
                    dst,
                    n,
                    mr,
                    Tile::Accumulate,
                );
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

    /// The three tile geometries a microkernel exists for: AVX-512, AVX2,
    /// scalar. The packers take the geometry as arguments, so one machine
    /// checks all of them.
    const GEOMETRIES: [(usize, usize); 3] = [(8, 32), (4, 16), (8, 8)];

    /// Logical element `(row, p)` of the broadcast operand.
    fn a_at(op: Op, a: &[f32], m: usize, k: usize, row: usize, p: usize) -> f32 {
        match op {
            Op::Nn | Op::Nt => a[row * k + p],
            Op::Tn => a[p * m + row],
        }
    }

    /// Logical element `(p, col)` of the vector operand.
    fn b_at(op: Op, b: &[f32], k: usize, n: usize, p: usize, col: usize) -> f32 {
        match op {
            Op::Nn | Op::Tn => b[p * n + col],
            Op::Nt => b[col * k + p],
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packs_equal_the_definitional_layout_with_zero_pads() {
        // Destinations start as NaN — what a stale scratch buffer could hold
        // — so an element the packer skipped, pad or live, shows up.
        for op in [Op::Nn, Op::Nt, Op::Tn] {
            for (mr_max, nr_max) in GEOMETRIES {
                for k in [0usize, 1, 7, 8, 9, 16, 33] {
                    for m in [1usize, 3, 4, 8, 9, 17] {
                        let a = fill(m as u64 + 3, m * k);
                        let blocks = m.div_ceil(mr_max);
                        let mut got = vec![f32::NAN; blocks * k * mr_max];
                        pack_a(op, &a, m, k, mr_max, &mut got);
                        let mut want = vec![0.0f32; got.len()];
                        for row in 0..m {
                            for p in 0..k {
                                want[(row / mr_max * k + p) * mr_max + row % mr_max] =
                                    a_at(op, &a, m, k, row, p);
                            }
                        }
                        assert_eq!(bits(&got), bits(&want), "A m={m} k={k} MR={mr_max}");
                    }
                    for n in [1usize, 7, 8, 16, 31, 32, 33, 70] {
                        let b = fill(n as u64 + 5, k * n);
                        let panels = n.div_ceil(nr_max);
                        let mut got = vec![f32::NAN; panels * k * nr_max];
                        pack_b_into(op, &b, k, n, nr_max, &mut got);
                        let mut want = vec![0.0f32; got.len()];
                        for col in 0..n {
                            for p in 0..k {
                                want[(col / nr_max * k + p) * nr_max + col % nr_max] =
                                    b_at(op, &b, k, n, p, col);
                            }
                        }
                        assert_eq!(bits(&got), bits(&want), "B k={k} n={n} NR={nr_max}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_chunk_packs_only_its_own_row_blocks() {
        // The driver hands each chunk a sub-range of blocks, packed from
        // offset 0 of the chunk's scratch.
        let (m, k, mr_max) = (29usize, 9usize, 8usize);
        for op in [Op::Nn, Op::Tn] {
            let a = fill(17, m * k);
            let mut all = vec![f32::NAN; m.div_ceil(mr_max) * k * mr_max];
            pack_a(op, &a, m, k, mr_max, &mut all);
            let mut part = vec![f32::NAN; 2 * k * mr_max];
            pack_a_blocks(op, &a, m, k, 2..4, mr_max, as_scratch(&mut part));
            assert_eq!(bits(&part), bits(&all[2 * k * mr_max..]));
        }
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
