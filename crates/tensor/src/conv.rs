//! 2-D convolution kernels (NCHW, stride 1, zero "same" padding).
//!
//! Convolutions are lowered onto the GEMM microkernels of [`crate::gemm`].
//! Unfolding an image gives a matrix whose rows enumerate kernel taps
//! `(c, dy, dx)` and whose columns enumerate output positions `(y, x)`, with
//! padding taps as explicit zeros: forward is `K_flat (oc × taps) · cols`,
//! the input gradient is `K_flatᵀ · dOut` folded back by scatter-add, and
//! the kernel gradient is `dOut · colsᵀ` accumulated over images in batch
//! order. That matrix is never built. Each kernel below packs its operands
//! itself and hands them to the one panel walk in `gemm`:
//!
//! * **What is packed when.** The 4-D kernel tensor is the broadcast operand
//!   of forward and grad-input: it is packed once per call (`gemm::pack_a`)
//!   and shared read-only by every chunk. The unfolded image is the vector
//!   operand: `Unfold::unfold` writes it from NCHW *directly in panel
//!   layout* — `taps × NR` per block of `NR` output positions for forward,
//!   `h·w × NR` per block of `NR` taps for grad-kernel (the transposed
//!   layout, so no transpose pass exists) — one panel at a time, and the
//!   walk consumes the panel while it is still in L1. Grad-input packs
//!   `dOut_b` into panels, multiplies one `MR`-tap block at a time into an
//!   `MR × h·w` strip, and `Unfold::fold` adds the strip onto the image.
//! * **Clip, don't branch.** Per tap, the output rows and columns whose
//!   input lies inside the image are two ranges computed once per call
//!   (`Tap::ys`, `Tap::xs`). Input and output rows share a pitch, so over a
//!   run of positions a tap reads one contiguous image range: `fill` zeros
//!   before it, one `copy_from_slice`, zeros after it, then zeros over the
//!   pad columns between rows. The fold back is a zipped `+=` per clipped
//!   row. No per-element bounds test anywhere.
//! * **Who owns scratch.** The chunk. One panel (plus, for the gradients,
//!   one packed `dOut_b` or one strip) is taken at the top of a chunk from
//!   its thread's recycled storage (`crate::storage`), zero-filled as the
//!   `vec!` it replaced was, reused for every image it visits and given
//!   back at the end, as is the packed kernel; nothing column-shaped is
//!   cached between forward and backward.
//! * **One pool job per call.** Forward and grad-input chunk over images.
//!   Grad-kernel chunks over *tap panels*: a chunk unfolds only its own taps
//!   of every image, in batch order, so no unfolding is repeated and no
//!   per-image job exists.
//!
//! # Determinism
//!
//! The [`reference`] module keeps naive per-element kernels whose FLOP order
//! — one `mul_add` chain per output element, padding taps included as
//! explicit zeros, taps visited `(c, dy, dx)` ascending — is exactly the
//! order the lowering produces: a panel row *is* a tap, pads are stored
//! zeros that go through the FMA like any other value, and the microkernel
//! walks a panel's rows in order. Grad-input folds taps in `(c, dy, dx)`
//! order, the order [`reference::conv2d_grad_input`] sums them; grad-kernel
//! continues each weight's chain across images by initializing the
//! accumulators from the running sum, bitwise one chain over `(b, y, x)`.
//! The fast paths are bit-identical to the references for every shape and
//! thread count (asserted by `tests/kernel_equivalence.rs`), so virtual-node
//! execution stays reproducible across hardware configurations.

use crate::gemm::{self, Op, Tile};
use crate::pool::{self, SendPtr};
use crate::storage;
use crate::tensor::Tensor;
use crate::TensorError;
use std::ops::Range;

/// Interprets a rank-4 shape as `(n, c, h, w)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the tensor is rank 4.
pub fn as_nchw(t: &Tensor) -> Result<(usize, usize, usize, usize), TensorError> {
    let d = t.shape().dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: d.len(),
            context: "conv::as_nchw",
        });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// Per-image work below this many multiply-adds is not worth pool traffic;
/// the call runs inline. Shape-only, so the decision is deterministic.
const PARALLEL_MIN_FLOPS: usize = 1 << 18;

/// Output coordinates `o` along an axis of length `len` whose input
/// coordinate `o + d − k/2` (kernel offset `d` of a `k`-wide kernel) lies
/// inside `[0, len)`. Empty when the kernel overhangs the whole axis.
fn clip(len: usize, k: usize, d: usize) -> Range<usize> {
    let lo = (k / 2).saturating_sub(d).min(len);
    let hi = (len + k / 2).saturating_sub(d).clamp(lo, len);
    lo..hi
}

/// One kernel tap `(c, dy, dx)`: a row of the unfolded matrix.
struct Tap {
    /// `c·h·w + dy·w + dx`. Output position `j = y·w + x` reads (forward) or
    /// feeds (grad-input) image element `base + j − Unfold::pad`.
    base: usize,
    /// Output rows whose input row lies inside the image.
    ys: Range<usize>,
    /// Output columns whose input column lies inside the image.
    xs: Range<usize>,
    /// From the first to one past the last output position whose input lies
    /// inside the image; empty when none does. Within it only the columns
    /// outside `xs` are padding.
    span: Range<usize>,
}

/// The unfolding of `ic × h × w` images under a `kh × kw` "same" kernel:
/// taps in `(c, dy, dx)` order with their clipped ranges, computed once per
/// call.
struct Unfold {
    w: usize,
    /// `(kh/2)·w + kw/2`: the offset of the padding origin.
    pad: usize,
    taps: Vec<Tap>,
}

impl Unfold {
    fn new(ic: usize, h: usize, w: usize, kh: usize, kw: usize) -> Self {
        let mut taps = Vec::with_capacity(ic * kh * kw);
        for c in 0..ic {
            for dy in 0..kh {
                for dx in 0..kw {
                    let (ys, xs) = (clip(h, kh, dy), clip(w, kw, dx));
                    let span = if ys.is_empty() || xs.is_empty() {
                        0..0
                    } else {
                        ys.start * w + xs.start..(ys.end - 1) * w + xs.end
                    };
                    taps.push(Tap {
                        base: c * h * w + dy * w + dx,
                        ys,
                        xs,
                        span,
                    });
                }
            }
        }
        Unfold {
            w,
            pad: (kh / 2) * w + kw / 2,
            taps,
        }
    }

    /// Writes `tap`'s unfolded values at the `len` consecutive output
    /// positions starting at `(y, x) = start` to `dst[..len]`: the image
    /// element inside the image, an explicit zero outside, so a padding tap
    /// enters the FMA chain exactly like the reference kernels' zero taps.
    ///
    /// Input and output rows have the same pitch, so inside `tap.span` the
    /// tap reads one contiguous image range: zeros before the span, one copy
    /// of the span (which carries image values into the pad columns between
    /// consecutive rows), zeros after it, then zeros over those pad columns.
    fn unfold(
        &self,
        tap: &Tap,
        img: &[f32],
        (y, x): (usize, usize),
        len: usize,
        dst: &mut [f32],
    ) {
        let j0 = y * self.w + x;
        let a = tap.span.start.clamp(j0, j0 + len);
        let b = tap.span.end.clamp(a, j0 + len);
        dst[..a - j0].fill(0.0);
        if a < b {
            let src = &img[tap.base + a - self.pad..tap.base + b - self.pad];
            dst[a - j0..b - j0].copy_from_slice(src);
        }
        dst[b - j0..len].fill(0.0);
        // The pad columns before valid row r — the right pad of row r − 1
        // and the left pad of row r — are one range ending at r·w + xs.start.
        let gap = self.w - tap.xs.len();
        if gap == 0 {
            return;
        }
        for r in y.max(tap.ys.start + 1)..tap.ys.end {
            let end = r * self.w + tap.xs.start;
            if end - gap >= b {
                break;
            }
            for j in (end - gap).max(a)..end.min(b) {
                dst[j - j0] = 0.0;
            }
        }
    }

    /// Adds `row` — `tap`'s gradient at every output position — onto the
    /// image gradient `img`, skipping positions whose input is padding.
    /// Called in tap order, each input element accumulates its taps in the
    /// order [`reference::conv2d_grad_input`] sums them.
    fn fold(&self, tap: &Tap, row: &[f32], img: &mut [f32]) {
        if tap.span.is_empty() {
            return;
        }
        // A tap that pads no column folds all its rows as one run.
        let (rows, run) = if tap.xs.len() == self.w {
            (tap.ys.start..tap.ys.start + 1, tap.ys.len() * self.w)
        } else {
            (tap.ys.clone(), tap.xs.len())
        };
        for y in rows {
            let j = y * self.w + tap.xs.start;
            let s = tap.base + j - self.pad;
            for (d, &v) in img[s..s + run].iter_mut().zip(&row[j..]) {
                *d += v;
            }
        }
    }
}

/// Runs `work` over `0..rows` as one pool job, or inline when the per-image
/// GEMM is too small (or there is nothing to split).
fn dispatch(rows: usize, flops: usize, work: impl Fn(Range<usize>) + Sync) {
    if rows > 1 && flops >= PARALLEL_MIN_FLOPS {
        pool::parallel_rows(rows, work);
    } else {
        pool::run_serial(rows, work);
    }
}

/// 2-D convolution of `input` `[n, ic, h, w]` with `kernel`
/// `[oc, ic, kh, kw]`, stride 1, zero padding `(kh/2, kw/2)` ("same" for
/// odd kernels): output `[n, oc, h, w]`.
///
/// # Errors
///
/// Returns rank/shape errors if the operands are not rank 4 or the channel
/// counts disagree.
pub fn conv2d(input: &Tensor, kernel: &Tensor) -> Result<Tensor, TensorError> {
    let (n, ic, h, w) = as_nchw(input)?;
    let (oc, kic, kh, kw) = as_nchw(kernel)?;
    if kic != ic {
        return Err(TensorError::ShapeMismatch {
            expected: ic,
            actual: kic,
            context: "conv::conv2d (input channels)",
        });
    }
    let hw = h * w;
    let taps = ic * kh * kw;
    let len = n * oc * hw;
    if len == 0 || taps == 0 {
        return Tensor::from_vec(storage::zeroed(len), [n, oc, h, w]);
    }
    // Taken, not zeroed: every tile below is stored, not accumulated.
    let mut out = storage::take(len);
    let isa = gemm::isa();
    let (mr, nr) = (isa.mr(), isa.nr());
    let unfold = Unfold::new(ic, h, w, kh, kw);
    // K_flat (oc × taps) is the broadcast operand of every image's GEMM.
    let mut kpack = storage::zeroed(oc.div_ceil(mr) * taps * mr);
    gemm::pack_a(Op::Nn, kernel.data(), oc, taps, mr, &mut kpack);
    let id = input.data();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let work = |images: Range<usize>| {
        // Race sanitizer (debug): this chunk owns the output rows of its
        // image range.
        pool::claim_region(out_ptr.get(), images.start * oc * hw..images.end * oc * hw);
        let mut panel = storage::zeroed(taps * nr);
        for b in images {
            let img = &id[b * ic * hw..(b + 1) * ic * hw];
            for jc in (0..hw).step_by(nr) {
                let cols = nr.min(hw - jc);
                let start = (jc / w, jc % w);
                for (tap, row) in unfold.taps.iter().zip(panel.chunks_exact_mut(nr)) {
                    unfold.unfold(tap, img, start, cols, row);
                }
                for (blk, kblock) in kpack.chunks_exact(taps * mr).enumerate() {
                    let ir = blk * mr;
                    // SAFETY: image b owns output rows [b·oc·hw, (b+1)·oc·hw);
                    // the tile is rows [ir, ir + rows) × columns
                    // [jc, jc + cols) of that image's oc × hw matrix. The
                    // packs are taps × MR and taps × NR.
                    unsafe {
                        let dst = out_ptr.get().add((b * oc + ir) * hw + jc);
                        let rows = mr.min(oc - ir);
                        gemm::walk_panels(
                            isa,
                            kblock.as_ptr(),
                            panel.as_ptr(),
                            taps,
                            cols,
                            dst,
                            hw,
                            rows,
                            Tile::Store,
                        );
                    }
                }
            }
        }
        storage::give(panel);
    };
    dispatch(n, oc * taps * hw, work);
    storage::give(kpack);
    // SAFETY: the job (or the serial fallback) has returned; its chunks
    // tile images 0..n, and for each image the `Tile::Store` walks above
    // cover row blocks 0..oc (MR rows at a time) × columns 0..hw (NR at a
    // time), storing every element of the tile, so all n · oc · hw elements
    // are initialised.
    unsafe { out.set_len(len) };
    Ok(Tensor::from_parts(out, [n, oc, h, w]))
}

/// Gradient of [`conv2d`] with respect to the input: `K_flatᵀ · dOut` per
/// image, folded back onto the image by scatter-add in tap order.
///
/// # Errors
///
/// Returns rank/shape errors on inconsistent operands.
pub fn conv2d_grad_input(grad_out: &Tensor, kernel: &Tensor) -> Result<Tensor, TensorError> {
    let (n, oc, h, w) = as_nchw(grad_out)?;
    let (koc, ic, kh, kw) = as_nchw(kernel)?;
    if koc != oc {
        return Err(TensorError::ShapeMismatch {
            expected: oc,
            actual: koc,
            context: "conv::conv2d_grad_input (output channels)",
        });
    }
    let hw = h * w;
    let taps = ic * kh * kw;
    let mut out = storage::zeroed(n * ic * hw);
    if out.is_empty() || oc == 0 || taps == 0 {
        return Tensor::from_vec(out, [n, ic, h, w]);
    }
    let isa = gemm::isa();
    let (mr, nr) = (isa.mr(), isa.nr());
    let unfold = Unfold::new(ic, h, w, kh, kw);
    // K_flatᵀ (taps × oc) is the broadcast operand; the kernel tensor is it
    // stored inner-dimension-major (oc × taps).
    let mut kpack = storage::zeroed(taps.div_ceil(mr) * oc * mr);
    gemm::pack_a(Op::Tn, kernel.data(), taps, oc, mr, &mut kpack);
    let gd = grad_out.data();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let work = |images: Range<usize>| {
        // Race sanitizer (debug): this chunk owns the input-gradient rows
        // of its image range.
        pool::claim_region(out_ptr.get(), images.start * ic * hw..images.end * ic * hw);
        let mut gpack = storage::zeroed(hw.div_ceil(nr) * oc * nr);
        let mut strip = storage::zeroed(mr * hw);
        for b in images {
            gemm::pack_b_into(
                Op::Nn,
                &gd[b * oc * hw..(b + 1) * oc * hw],
                oc,
                hw,
                nr,
                &mut gpack,
            );
            let first = out_ptr.get().wrapping_add(b * ic * hw);
            // SAFETY: image b owns input-gradient rows [b·ic·hw, (b+1)·ic·hw).
            let gimg = unsafe { std::slice::from_raw_parts_mut(first, ic * hw) };
            for (blk, kblock) in kpack.chunks_exact(oc * mr).enumerate() {
                let block_taps = &unfold.taps[blk * mr..taps.min((blk + 1) * mr)];
                // Rows of dCols for this block's taps: each element a fresh
                // FMA chain over output channels.
                // SAFETY: `strip` is this chunk's own MR × hw buffer; the
                // packs are oc × MR and hw.div_ceil(NR) × oc × NR.
                unsafe {
                    gemm::walk_panels(
                        isa,
                        kblock.as_ptr(),
                        gpack.as_ptr(),
                        oc,
                        hw,
                        strip.as_mut_ptr(),
                        hw,
                        block_taps.len(),
                        Tile::Store,
                    );
                }
                for (tap, row) in block_taps.iter().zip(strip.chunks_exact(hw)) {
                    unfold.fold(tap, row, gimg);
                }
            }
        }
        storage::give(gpack);
        storage::give(strip);
    };
    dispatch(n, oc * taps * hw, work);
    storage::give(kpack);
    Tensor::from_vec(out, [n, ic, h, w])
}

/// Gradient of [`conv2d`] with respect to the kernel: `dOut_b · cols_bᵀ`
/// accumulated over images in batch order.
///
/// # Errors
///
/// Returns rank/shape errors on inconsistent operands.
pub fn conv2d_grad_kernel(
    input: &Tensor,
    grad_out: &Tensor,
    kh: usize,
    kw: usize,
) -> Result<Tensor, TensorError> {
    let (n, ic, h, w) = as_nchw(input)?;
    let (gn, oc, gh, gw) = as_nchw(grad_out)?;
    if gn != n || gh != h || gw != w {
        return Err(TensorError::ShapeMismatch {
            expected: n * h * w,
            actual: gn * gh * gw,
            context: "conv::conv2d_grad_kernel (geometry)",
        });
    }
    let hw = h * w;
    let taps = ic * kh * kw;
    let mut out = storage::zeroed(oc * taps);
    if out.is_empty() || n * hw == 0 {
        return Tensor::from_vec(out, [oc, ic, kh, kw]);
    }
    let isa = gemm::isa();
    let (mr, nr) = (isa.mr(), isa.nr());
    let unfold = Unfold::new(ic, h, w, kh, kw);
    let id = input.data();
    let gd = grad_out.data();
    let out_ptr = SendPtr(out.as_mut_ptr());
    // A chunk owns the output columns of a range of NR-tap panels and walks
    // the whole batch for them. The image loop inside is sequential on
    // purpose: each image *continues* every weight's FMA chain (accumulate
    // initializes registers from the running sum), which is bitwise one
    // long chain over (b, y, x).
    let work = |panels: Range<usize>| {
        let owned = panels.start * nr..taps.min(panels.end * nr);
        // Race sanitizer (debug): columns `owned` of every output row.
        for o in 0..oc {
            pool::claim_region(out_ptr.get(), o * taps + owned.start..o * taps + owned.end);
        }
        let mut gpack = storage::zeroed(oc.div_ceil(mr) * hw * mr);
        // One allocation: the hw × NR panel, then up to NR unfolded taps as
        // contiguous hw-long rows.
        let mut scratch = storage::zeroed(2 * hw * nr);
        let (panel, rows) = scratch.split_at_mut(hw * nr);
        for b in 0..n {
            // dOut_b (oc × hw) is the broadcast operand.
            gemm::pack_a(
                Op::Nn,
                &gd[b * oc * hw..(b + 1) * oc * hw],
                oc,
                hw,
                mr,
                &mut gpack,
            );
            let img = &id[b * ic * hw..(b + 1) * ic * hw];
            for tc in owned.clone().step_by(nr) {
                // cols_bᵀ for taps [tc, tc + cols): each tap unfolds into a
                // stride-1 row, and the cols × hw rows transpose into the
                // position-major panel, one tap per lane.
                let cols = nr.min(taps - tc);
                for (tap, row) in unfold.taps[tc..tc + cols].iter().zip(rows.chunks_exact_mut(hw)) {
                    unfold.unfold(tap, img, (0, 0), hw, row);
                }
                gemm::pack_b_into(Op::Nt, &rows[..cols * hw], hw, cols, nr, panel);
                for (blk, gblock) in gpack.chunks_exact(hw * mr).enumerate() {
                    let ir = blk * mr;
                    // SAFETY: this chunk owns columns `owned` of `out`
                    // (oc × taps); the tile is rows [ir, ir + rows) ×
                    // columns [tc, tc + cols). The packs are hw × MR and
                    // hw × NR.
                    unsafe {
                        let dst = out_ptr.get().add(ir * taps + tc);
                        let rows = mr.min(oc - ir);
                        gemm::walk_panels(
                            isa,
                            gblock.as_ptr(),
                            panel.as_ptr(),
                            hw,
                            cols,
                            dst,
                            taps,
                            rows,
                            Tile::Accumulate,
                        );
                    }
                }
            }
        }
        storage::give(gpack);
        storage::give(scratch);
    };
    dispatch(taps.div_ceil(nr), oc * taps * hw, work);
    Tensor::from_vec(out, [oc, ic, kh, kw])
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 4, and
/// [`TensorError::Empty`] when `h·w == 0`: the mean over no positions is
/// undefined, not a NaN to hand downstream.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = as_nchw(input)?;
    if h * w == 0 {
        return Err(TensorError::Empty {
            context: "conv::global_avg_pool (h·w == 0)",
        });
    }
    let inv = 1.0 / (h * w) as f32;
    let id = input.data();
    let mut out = storage::zeroed(n * c);
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            out[b * c + ch] = id[base..base + h * w].iter().sum::<f32>() * inv;
        }
    }
    Tensor::from_vec(out, [n, c])
}

/// Gradient of [`global_avg_pool`]: spreads each pooled gradient uniformly
/// over its spatial positions.
///
/// # Errors
///
/// Returns shape errors if `grad_out` is not `[n, c]`, and
/// [`TensorError::Empty`] when `h·w == 0` (see [`global_avg_pool`]).
pub fn global_avg_pool_grad(
    grad_out: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
) -> Result<Tensor, TensorError> {
    if h * w == 0 {
        return Err(TensorError::Empty {
            context: "conv::global_avg_pool_grad (h·w == 0)",
        });
    }
    if grad_out.len() != n * c {
        return Err(TensorError::ShapeMismatch {
            expected: n * c,
            actual: grad_out.len(),
            context: "conv::global_avg_pool_grad",
        });
    }
    let inv = 1.0 / (h * w) as f32;
    let gd = grad_out.data();
    let mut out = storage::zeroed(n * c * h * w);
    for b in 0..n {
        for ch in 0..c {
            let g = gd[b * c + ch] * inv;
            let base = (b * c + ch) * h * w;
            out[base..base + h * w].iter_mut().for_each(|v| *v = g);
        }
    }
    Tensor::from_vec(out, [n, c, h, w])
}

/// Naive per-element convolution kernels defining the bit-level semantics of
/// the im2col/GEMM fast paths above.
///
/// Every output element is one `mul_add` chain; padding taps contribute an
/// explicit `fma(·, 0, acc)` term so the chain shape matches the zero-padded
/// column matrices exactly. `tests/kernel_equivalence.rs` asserts `==`
/// between these and the fast kernels across shapes and thread counts.
pub mod reference {
    use super::as_nchw;
    use crate::tensor::Tensor;
    use crate::TensorError;

    /// Reference forward convolution (see [`super::conv2d`]).
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors on inconsistent operands.
    pub fn conv2d(input: &Tensor, kernel: &Tensor) -> Result<Tensor, TensorError> {
        let (n, ic, h, w) = as_nchw(input)?;
        let (oc, kic, kh, kw) = as_nchw(kernel)?;
        if kic != ic {
            return Err(TensorError::ShapeMismatch {
                expected: ic,
                actual: kic,
                context: "conv::reference::conv2d (input channels)",
            });
        }
        let (ph, pw) = (kh / 2, kw / 2);
        let mut out = vec![0.0f32; n * oc * h * w];
        let id = input.data();
        let kd = kernel.data();
        for b in 0..n {
            for o in 0..oc {
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = 0.0f32;
                        for c in 0..ic {
                            for dy in 0..kh {
                                let iy = y as isize + dy as isize - ph as isize;
                                let row_ok = iy >= 0 && iy < h as isize;
                                for dx in 0..kw {
                                    let ix = x as isize + dx as isize - pw as isize;
                                    let iv = if row_ok && ix >= 0 && ix < w as isize {
                                        id[((b * ic + c) * h + iy as usize) * w + ix as usize]
                                    } else {
                                        0.0
                                    };
                                    let kv = kd[((o * ic + c) * kh + dy) * kw + dx];
                                    acc = kv.mul_add(iv, acc);
                                }
                            }
                        }
                        out[((b * oc + o) * h + y) * w + x] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(out, [n, oc, h, w])
    }

    /// Reference input gradient (see [`super::conv2d_grad_input`]): for each
    /// input position, taps are visited `(dy, dx)` ascending; each in-range
    /// tap contributes one FMA chain over output channels.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors on inconsistent operands.
    pub fn conv2d_grad_input(grad_out: &Tensor, kernel: &Tensor) -> Result<Tensor, TensorError> {
        let (n, oc, h, w) = as_nchw(grad_out)?;
        let (koc, ic, kh, kw) = as_nchw(kernel)?;
        if koc != oc {
            return Err(TensorError::ShapeMismatch {
                expected: oc,
                actual: koc,
                context: "conv::reference::conv2d_grad_input (output channels)",
            });
        }
        let (ph, pw) = (kh / 2, kw / 2);
        let mut out = vec![0.0f32; n * ic * h * w];
        let gd = grad_out.data();
        let kd = kernel.data();
        for b in 0..n {
            for c in 0..ic {
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = 0.0f32;
                        for dy in 0..kh {
                            // Output position that consumed input (y, x)
                            // with kernel offset (dy, dx): oy = y - dy + ph.
                            let oy = y as isize - dy as isize + ph as isize;
                            if oy < 0 || oy >= h as isize {
                                continue;
                            }
                            for dx in 0..kw {
                                let ox = x as isize - dx as isize + pw as isize;
                                if ox < 0 || ox >= w as isize {
                                    continue;
                                }
                                let mut t = 0.0f32;
                                for o in 0..oc {
                                    let kv = kd[((o * ic + c) * kh + dy) * kw + dx];
                                    let gv =
                                        gd[((b * oc + o) * h + oy as usize) * w + ox as usize];
                                    t = kv.mul_add(gv, t);
                                }
                                acc += t;
                            }
                        }
                        out[((b * ic + c) * h + y) * w + x] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(out, [n, ic, h, w])
    }

    /// Reference kernel gradient (see [`super::conv2d_grad_kernel`]): one
    /// FMA chain per kernel weight over `(b, y, x)` ascending, padding taps
    /// as explicit zeros.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors on inconsistent operands.
    pub fn conv2d_grad_kernel(
        input: &Tensor,
        grad_out: &Tensor,
        kh: usize,
        kw: usize,
    ) -> Result<Tensor, TensorError> {
        let (n, ic, h, w) = as_nchw(input)?;
        let (gn, oc, gh, gw) = as_nchw(grad_out)?;
        if gn != n || gh != h || gw != w {
            return Err(TensorError::ShapeMismatch {
                expected: n * h * w,
                actual: gn * gh * gw,
                context: "conv::reference::conv2d_grad_kernel (geometry)",
            });
        }
        let (ph, pw) = (kh / 2, kw / 2);
        let mut out = vec![0.0f32; oc * ic * kh * kw];
        let id = input.data();
        let gd = grad_out.data();
        for o in 0..oc {
            for c in 0..ic {
                for dy in 0..kh {
                    for dx in 0..kw {
                        let mut acc = 0.0f32;
                        for b in 0..n {
                            for y in 0..h {
                                let iy = y as isize + dy as isize - ph as isize;
                                let row_ok = iy >= 0 && iy < h as isize;
                                for x in 0..w {
                                    let ix = x as isize + dx as isize - pw as isize;
                                    let iv = if row_ok && ix >= 0 && ix < w as isize {
                                        id[((b * ic + c) * h + iy as usize) * w + ix as usize]
                                    } else {
                                        0.0
                                    };
                                    let gv = gd[((b * oc + o) * h + y) * w + x];
                                    acc = gv.mul_add(iv, acc);
                                }
                            }
                        }
                        out[((o * ic + c) * kh + dy) * kw + dx] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(out, [oc, ic, kh, kw])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn identity_kernel_is_a_noop() {
        // A 1x1 kernel with weight 1 copies the channel.
        let x = init::normal(&mut init::rng(0), [2, 1, 4, 4], 0.0, 1.0);
        let k = Tensor::ones([1, 1, 1, 1]);
        let y = conv2d(&x, &k).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn averaging_kernel_blurs() {
        // A 3x3 kernel of 1/9 over a constant image returns the constant in
        // the interior (edges see zero padding).
        let x = Tensor::full([1, 1, 5, 5], 9.0);
        let k = Tensor::full([1, 1, 3, 3], 1.0 / 9.0);
        let y = conv2d(&x, &k).unwrap();
        // Center pixel: full 3x3 support → 9.0.
        assert!((y.data()[2 * 5 + 2] - 9.0).abs() < 1e-5);
        // Corner pixel: only 4 taps inside → 4.0.
        assert!((y.data()[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn conv_shapes_are_same_padded() {
        let x = Tensor::zeros([2, 3, 6, 5]);
        let k = Tensor::zeros([4, 3, 3, 3]);
        let y = conv2d(&x, &k).unwrap();
        assert_eq!(y.shape().dims(), &[2, 4, 6, 5]);
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let x = Tensor::zeros([1, 2, 4, 4]);
        let k = Tensor::zeros([1, 3, 3, 3]);
        assert!(conv2d(&x, &k).is_err());
        assert!(conv2d(&Tensor::zeros([2, 4]), &k).is_err());
    }

    #[test]
    fn fast_conv_kernels_are_bitwise_equal_to_references() {
        for &(n, ic, oc, h, w, kh, kw) in &[
            (1usize, 1usize, 1usize, 4usize, 4usize, 3usize, 3usize),
            (2, 3, 4, 6, 5, 3, 3),
            (3, 2, 5, 7, 7, 5, 5),
            (2, 4, 2, 8, 8, 1, 1),
        ] {
            let mut rng = init::rng((n * ic * oc * h) as u64);
            let x = init::normal(&mut rng, [n, ic, h, w], 0.0, 1.0);
            let k = init::normal(&mut rng, [oc, ic, kh, kw], 0.0, 0.5);
            let g = init::normal(&mut rng, [n, oc, h, w], 0.0, 1.0);
            assert_eq!(
                conv2d(&x, &k).unwrap(),
                reference::conv2d(&x, &k).unwrap(),
                "forward {n}x{ic}x{oc}x{h}x{w} k{kh}x{kw}"
            );
            assert_eq!(
                conv2d_grad_input(&g, &k).unwrap(),
                reference::conv2d_grad_input(&g, &k).unwrap(),
                "grad-input {n}x{ic}x{oc}x{h}x{w} k{kh}x{kw}"
            );
            assert_eq!(
                conv2d_grad_kernel(&x, &g, kh, kw).unwrap(),
                reference::conv2d_grad_kernel(&x, &g, kh, kw).unwrap(),
                "grad-kernel {n}x{ic}x{oc}x{h}x{w} k{kh}x{kw}"
            );
        }
    }

    #[test]
    fn grad_input_matches_finite_difference() {
        let x = init::normal(&mut init::rng(1), [1, 2, 3, 3], 0.0, 1.0);
        let k = init::normal(&mut init::rng(2), [2, 2, 3, 3], 0.0, 0.5);
        // loss = sum(conv(x, k)); dL/dx via full-ones upstream gradient.
        let ones = Tensor::ones([1, 2, 3, 3]);
        let gi = conv2d_grad_input(&ones, &k).unwrap();
        let eps = 1e-2;
        let loss = |x: &Tensor| conv2d(x, &k).unwrap().sum();
        for i in [0usize, 5, 11, 17] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (fd - gi.data()[i]).abs() < 1e-2,
                "i={i}: fd {fd} vs analytic {}",
                gi.data()[i]
            );
        }
    }

    #[test]
    fn grad_kernel_matches_finite_difference() {
        let x = init::normal(&mut init::rng(3), [2, 2, 4, 4], 0.0, 1.0);
        let k = init::normal(&mut init::rng(4), [3, 2, 3, 3], 0.0, 0.5);
        let ones = Tensor::ones([2, 3, 4, 4]);
        let gk = conv2d_grad_kernel(&x, &ones, 3, 3).unwrap();
        let eps = 1e-2;
        let loss = |k: &Tensor| conv2d(&x, k).unwrap().sum();
        for i in [0usize, 7, 20, 40] {
            let mut kp = k.clone();
            kp.data_mut()[i] += eps;
            let mut km = k.clone();
            km.data_mut()[i] -= eps;
            let fd = (loss(&kp) - loss(&km)) / (2.0 * eps);
            assert!(
                (fd - gk.data()[i]).abs() < 2e-2,
                "i={i}: fd {fd} vs analytic {}",
                gk.data()[i]
            );
        }
    }

    #[test]
    fn global_avg_pool_averages_each_channel() {
        let mut x = Tensor::zeros([1, 2, 2, 2]);
        x.data_mut()[..4].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // ch 0
        x.data_mut()[4..].copy_from_slice(&[10.0, 10.0, 10.0, 10.0]); // ch 1
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avg_pool_of_an_empty_image_is_a_typed_error() {
        // 1/(h·w) with h·w == 0 used to come back as Ok(NaN) (forward: 0·∞).
        for dims in [[2, 3, 0, 4], [2, 3, 4, 0]] {
            let [n, c, h, w] = dims;
            let fwd = global_avg_pool(&Tensor::zeros(dims));
            assert!(
                matches!(fwd, Err(TensorError::Empty { .. })),
                "{dims:?}: {fwd:?}"
            );
            let bwd = global_avg_pool_grad(&Tensor::ones([n, c]), n, c, h, w);
            assert!(
                matches!(bwd, Err(TensorError::Empty { .. })),
                "{dims:?}: {bwd:?}"
            );
            let mut tape = crate::autograd::Tape::new();
            let x = tape.leaf(Tensor::zeros(dims));
            assert!(matches!(
                tape.global_avg_pool(x),
                Err(TensorError::Empty { .. })
            ));
        }
    }

    #[test]
    fn global_avg_pool_grad_spreads_uniformly() {
        let g = Tensor::from_vec(vec![4.0, 8.0], [1, 2]).unwrap();
        let gi = global_avg_pool_grad(&g, 1, 2, 2, 2).unwrap();
        assert_eq!(&gi.data()[..4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(&gi.data()[4..], &[2.0, 2.0, 2.0, 2.0]);
    }
}
