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
//! * **One bordered image.** Every pass reads from or folds into one layout
//!   (`Bordered`): each channel an `(h + kh − 1) × (w + kw − 1)` plane, the
//!   image in its interior, `kh/2` zero rows on top and `kw/2` zero columns
//!   on the left, so tap `(c, dy, dx)` at output `(y, x)` is
//!   `plane_c[y + dy][x + dx]`, border or not. No range is clipped and no
//!   element is tested.
//! * **What is packed when.** The 4-D kernel tensor, the broadcast operand
//!   of forward and grad-input, is packed once per call (`gemm::pack_a`)
//!   and shared by every chunk. The unfolded image is the vector operand,
//!   written one panel at a time and walked while it is in L1: forward's
//!   `taps × NR` panel is one run copy per tap and output row; grad-kernel's
//!   panel is position-major, `NR` taps over a few image rows, transposed
//!   from whole runs eight taps at a time. Grad-input packs `dOut_b` into
//!   panels, multiplies one `MR`-tap block at a time into an `MR × h·w`
//!   strip and folds each strip row into a bordered gradient image as one
//!   `+=` per output row; padding positions land on the border, which is
//!   never read back.
//! * **Who owns scratch.** The chunk. Its buffers are taken at the top of a
//!   chunk from its thread's recycled storage (`crate::storage`),
//!   zero-filled — which writes the borders once — reused for every image
//!   it visits and given back at the end, as is the packed kernel; nothing
//!   column-shaped is cached between forward and backward.
//! * **One pool job per call.** Forward and grad-input chunk over images.
//!   Grad-kernel chunks over *tap panels*: a chunk unfolds only its own taps
//!   of every image, in batch order.
//!
//! # Determinism
//!
//! The [`reference`] module keeps naive per-element kernels whose FLOP order
//! — one `mul_add` chain per output element, padding taps included as
//! explicit zeros, taps visited `(c, dy, dx)` ascending — is exactly the
//! order the lowering produces: a panel row *is* a tap, a border value is a
//! stored `+0.0` that goes through the FMA like any other value, and the
//! microkernel walks a panel's rows in order. Grad-input folds taps in
//! `(c, dy, dx)` order, the order [`reference::conv2d_grad_input`] sums them;
//! grad-kernel continues each weight's chain across row blocks and images by
//! initializing the accumulators from the running sum, bitwise one chain
//! over `(b, y, x)`. The fast paths are bit-identical to the references for
//! every shape and thread count (asserted by `tests/kernel_equivalence.rs`),
//! so virtual-node execution stays reproducible across hardware
//! configurations.

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

/// Output positions per grad-kernel panel, in whole image rows: the panel
/// and the packed `dOut_b` rows that walk it stay in L1.
const PANEL_POSITIONS: usize = 32;

/// The zero-bordered layout of `h × w` images under a `kh × kw` kernel (see
/// the module docs). `kh, kw ≥ 1`.
struct Bordered {
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    /// Row pitch of a plane: `w + kw − 1`.
    pitch: usize,
    /// Elements of a plane: `(h + kh − 1) · pitch`.
    plane: usize,
}

impl Bordered {
    fn new(h: usize, w: usize, kh: usize, kw: usize) -> Self {
        let pitch = w + kw - 1;
        Bordered {
            h,
            w,
            kh,
            kw,
            pitch,
            plane: (h + kh - 1) * pitch,
        }
    }

    /// Offsets of the taps `(c, dy, dx)` of `channels` planes, in that
    /// order: tap `(c, dy, dx)` at output `(y, x)` is element
    /// `offset + y·pitch + x`.
    fn taps(&self, channels: usize) -> impl Iterator<Item = usize> + '_ {
        (0..channels).flat_map(move |c| {
            (0..self.kh).flat_map(move |dy| {
                (0..self.kw).map(move |dx| c * self.plane + dy * self.pitch + dx)
            })
        })
    }

    /// The image rows in the interiors of `padded`'s planes, in NCHW order;
    /// zipped with an image's rows, they copy it in or out.
    fn interior<'a>(&self, padded: &'a mut [f32]) -> impl Iterator<Item = &'a mut [f32]> {
        let (h, w, pitch) = (self.h, self.w, self.pitch);
        let top = (self.kh / 2) * pitch + self.kw / 2;
        padded.chunks_exact_mut(self.plane).flat_map(move |plane| {
            plane[top..]
                .chunks_mut(pitch)
                .take(h)
                .map(move |row| &mut row[..w])
        })
    }

    /// Copies the NCHW channels of `img` into `padded`'s interiors; the
    /// borders keep what they hold.
    fn pad(&self, img: &[f32], padded: &mut [f32]) {
        for (row, src) in self.interior(padded).zip(img.chunks_exact(self.w)) {
            row.copy_from_slice(src);
        }
    }

    /// Writes the forward panel of the `cols` output positions from `j0`
    /// on: row `t` of `panel` (pitch `nr`) is tap `t` of `src`'s planes,
    /// one run copy per output row the positions touch.
    fn panel(&self, src: &[f32], j0: usize, cols: usize, panel: &mut [f32], nr: usize) {
        let (mut j, mut y, mut x) = (0, j0 / self.w, j0 % self.w);
        while j < cols {
            let run = (self.w - x).min(cols - j);
            let mut rows = panel.chunks_exact_mut(nr);
            for plane in src.chunks_exact(self.plane) {
                for dy in 0..self.kh {
                    let line = &plane[(y + dy) * self.pitch + x..];
                    for (dx, row) in (0..self.kw).zip(&mut rows) {
                        row[j..j + run].copy_from_slice(&line[dx..dx + run]);
                    }
                }
            }
            (j, y, x) = (j + run, y + 1, 0);
        }
    }

    /// Writes the grad-kernel panel of the taps at `lanes` over output rows
    /// `ys`, position-major: `panel[p·nr + l]` is tap `l` at the `p`-th
    /// position from `(ys.start, 0)`. Eight taps at a time go through
    /// [`gemm::transpose_rows`], a ragged last few one element at a time.
    fn lanes(&self, src: &[f32], lanes: &[usize], ys: Range<usize>, panel: &mut [f32], nr: usize) {
        let tiled = lanes.len() - lanes.len() % 8;
        for (y, out) in ys.zip(panel.chunks_exact_mut(self.w * nr)) {
            let row = y * self.pitch;
            for l0 in (0..tiled).step_by(8) {
                let runs = std::array::from_fn(|i| &src[lanes[l0 + i] + row..][..self.w]);
                gemm::transpose_rows(runs, &mut out[l0..], nr);
            }
            for (l, &tap) in lanes.iter().enumerate().skip(tiled) {
                for (x, &v) in src[tap + row..][..self.w].iter().enumerate() {
                    out[x * nr + l] = v;
                }
            }
        }
    }

    /// Adds `row`, the tap at `tap`'s gradient at every output position,
    /// onto `dst`: one contiguous `+=` per output row.
    fn fold(&self, row: &[f32], tap: usize, dst: &mut [f32]) {
        for (y, run) in row.chunks_exact(self.w).enumerate() {
            let at = tap + y * self.pitch;
            for (d, &v) in dst[at..at + self.w].iter_mut().zip(run) {
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
    let border = Bordered::new(h, w, kh, kw);
    // K_flat (oc × taps) is the broadcast operand of every image's GEMM.
    let mut kpack = storage::zeroed(oc.div_ceil(mr) * taps * mr);
    gemm::pack_a(Op::Nn, kernel.data(), oc, taps, mr, &mut kpack);
    let id = input.data();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let work = |images: Range<usize>| {
        // Race sanitizer (debug): this chunk owns the output rows of its
        // image range.
        pool::claim_region(out_ptr.get(), images.start * oc * hw..images.end * oc * hw);
        let mut padded = storage::zeroed(ic * border.plane);
        let mut panel = storage::zeroed(taps * nr);
        for b in images {
            border.pad(&id[b * ic * hw..(b + 1) * ic * hw], &mut padded);
            for jc in (0..hw).step_by(nr) {
                let cols = nr.min(hw - jc);
                border.panel(&padded, jc, cols, &mut panel, nr);
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
        storage::give(padded);
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
    let len = n * ic * hw;
    if len == 0 || oc == 0 || taps == 0 {
        return Tensor::from_vec(storage::zeroed(len), [n, ic, h, w]);
    }
    // Taken, not zeroed: every image's interior copy below writes all of
    // its rows.
    let mut out = storage::take(len);
    let isa = gemm::isa();
    let (mr, nr) = (isa.mr(), isa.nr());
    let border = Bordered::new(h, w, kh, kw);
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
        let mut padded = storage::zeroed(ic * border.plane);
        for b in images {
            let grad_b = &gd[b * oc * hw..(b + 1) * oc * hw];
            gemm::pack_b_into(Op::Nn, grad_b, oc, hw, nr, &mut gpack);
            padded.fill(0.0);
            let mut tap_at = border.taps(ic);
            for (blk, kblock) in kpack.chunks_exact(oc * mr).enumerate() {
                let block_taps = mr.min(taps - blk * mr);
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
                        block_taps,
                        Tile::Store,
                    );
                }
                for (row, tap) in strip.chunks_exact(hw).take(block_taps).zip(&mut tap_at) {
                    border.fold(row, tap, &mut padded);
                }
            }
            let first = out_ptr.get().wrapping_add(b * ic * hw);
            for (src, at) in border.interior(&mut padded).zip((0..ic * hw).step_by(w)) {
                // SAFETY: image b owns input-gradient rows [b·ic·hw,
                // (b+1)·ic·hw), inside the taken capacity; `src` is one
                // interior row of w, in this chunk's own `padded`. Written
                // through the pointer: the output is not initialised yet.
                unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), first.add(at), w) };
            }
        }
        storage::give(gpack);
        storage::give(strip);
        storage::give(padded);
    };
    dispatch(n, oc * taps * hw, work);
    storage::give(kpack);
    // SAFETY: the job (or the serial fallback) has returned; its chunks
    // tile images 0..n, and each image's interior copy writes its ic · h
    // rows of w, so all n · ic · h · w elements are initialised.
    unsafe { out.set_len(len) };
    Ok(Tensor::from_parts(out, [n, ic, h, w]))
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
    let border = Bordered::new(h, w, kh, kw);
    let id = input.data();
    let gd = grad_out.data();
    let out_ptr = SendPtr(out.as_mut_ptr());
    // A chunk owns the output columns of a range of NR-tap panels and walks
    // the whole batch for them. The image loop inside is sequential on
    // purpose: each image, and each block of rows within it, *continues*
    // every weight's FMA chain (accumulate initializes registers from the
    // running sum), which is bitwise one long chain over (b, y, x).
    let work = |panels: Range<usize>| {
        let owned = panels.start * nr..taps.min(panels.end * nr);
        // Race sanitizer (debug): columns `owned` of every output row.
        for o in 0..oc {
            pool::claim_region(out_ptr.get(), o * taps + owned.start..o * taps + owned.end);
        }
        let mut padded = storage::zeroed(ic * border.plane);
        let mut gpack = storage::zeroed(oc.div_ceil(mr) * hw * mr);
        let block_rows = (PANEL_POSITIONS / w).clamp(1, h);
        let mut panel = storage::zeroed(block_rows * w * nr);
        for b in 0..n {
            // dOut_b (oc × hw) is the broadcast operand.
            let grad_b = &gd[b * oc * hw..(b + 1) * oc * hw];
            gemm::pack_a(Op::Nn, grad_b, oc, hw, mr, &mut gpack);
            border.pad(&id[b * ic * hw..(b + 1) * ic * hw], &mut padded);
            for tc in owned.clone().step_by(nr) {
                // cols_bᵀ for taps [tc, tc + cols), position-major, one tap
                // per lane, `block_rows` image rows at a time.
                let cols = nr.min(taps - tc);
                let mut tap_at = border.taps(ic).skip(tc);
                // No ISA's NR exceeds 32.
                let lanes: [usize; 32] = std::array::from_fn(|_| tap_at.next().unwrap_or(0));
                for y0 in (0..h).step_by(block_rows) {
                    let ys = y0..h.min(y0 + block_rows);
                    let k = ys.len() * w;
                    border.lanes(&padded, &lanes[..cols], ys, &mut panel, nr);
                    for (blk, gblock) in gpack.chunks_exact(hw * mr).enumerate() {
                        let ir = blk * mr;
                        // SAFETY: this chunk owns columns `owned` of `out`
                        // (oc × taps); the tile is rows [ir, ir + rows) ×
                        // columns [tc, tc + cols). The A pack is hw × MR, of
                        // which positions [y0·w, y0·w + k) are read, and the
                        // panel k × NR.
                        unsafe {
                            let dst = out_ptr.get().add(ir * taps + tc);
                            let rows = mr.min(oc - ir);
                            gemm::walk_panels(
                                isa,
                                gblock[y0 * w * mr..].as_ptr(),
                                panel.as_ptr(),
                                k,
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
        }
        storage::give(padded);
        storage::give(gpack);
        storage::give(panel);
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
                                    let gv = gd[((b * oc + o) * h + oy as usize) * w + ox as usize];
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
