//! Numerical kernels on [`Tensor`]s.
//!
//! These are the kernels behind the autograd tape in [`crate::autograd`]:
//! forward passes and, for batch norm, the backward one too. Everything here
//! is deterministic: loops iterate in a fixed order, and reductions are
//! sequential or use the explicitly deterministic tree reduction from
//! [`crate::reduce`].

use crate::shape::Shape;
use crate::storage;
use crate::tensor::Tensor;
use crate::TensorError;

/// Matrix multiplication `a (m×k) · b (k×n) → (m×n)`.
///
/// Rank-1 operands are promoted to a single row.
///
/// # Errors
///
/// Returns [`TensorError::MatmulDims`] if the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use vf_tensor::{ops, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
/// assert_eq!(ops::matmul(&a, &i)?, a);
/// # Ok::<(), vf_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k1) = a.shape().as_rows_cols();
    let (k2, n) = b.shape().as_rows_cols();
    if k1 != k2 {
        return Err(TensorError::MatmulDims {
            left: (m, k1),
            right: (k2, n),
        });
    }
    // The blocked/SIMD kernel deliberately has no zero-skip shortcut: a zero
    // operand times NaN or ±∞ must propagate, and every element is one FMA
    // chain over the inner dimension regardless of sparsity or thread count.
    Tensor::from_vec(crate::gemm::matmul(a.data(), b.data(), m, k1, n), [m, n])
}

/// `a · bᵀ` without materializing the transpose: `a (m×k)`, `b (n×k)`,
/// result `(m×n)` — the `dA = dC·Bᵀ` shape of the matmul backward pass.
///
/// # Errors
///
/// Returns [`TensorError::MatmulDims`] if the inner dimensions disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k1) = a.shape().as_rows_cols();
    let (n, k2) = b.shape().as_rows_cols();
    if k1 != k2 {
        return Err(TensorError::MatmulDims {
            left: (m, k1),
            right: (k2, n),
        });
    }
    Tensor::from_vec(crate::gemm::matmul_nt(a.data(), b.data(), m, k1, n), [m, n])
}

/// `aᵀ · b` without materializing the transpose: `a (k×m)`, `b (k×n)`,
/// result `(m×n)` — the `dB = Aᵀ·dC` shape of the matmul backward pass.
///
/// # Errors
///
/// Returns [`TensorError::MatmulDims`] if the leading dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (k1, m) = a.shape().as_rows_cols();
    let (k2, n) = b.shape().as_rows_cols();
    if k1 != k2 {
        return Err(TensorError::MatmulDims {
            left: (m, k1),
            right: (k2, n),
        });
    }
    Tensor::from_vec(crate::gemm::matmul_tn(a.data(), b.data(), m, k1, n), [m, n])
}

/// Transpose of a rank-≤2 tensor.
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = a.shape().as_rows_cols();
    let ad = a.data();
    let mut out = storage::zeroed(m * n);
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = ad[i * n + j];
        }
    }
    Tensor::from_parts(out, [n, m])
}

/// A dense layer: `a (m×k) · w (k×n)` plus the bias row-vector `bias (n)`
/// on every row.
///
/// The bias is added inside the GEMM, to each output tile just after its
/// FMA chains complete: every element is its chain plus one rounded add of
/// its column's bias — bitwise what `matmul` followed by a separate bias
/// pass computes, without the pass or a second buffer. Rank-1 `a` is
/// promoted to a single row, as in [`matmul`].
///
/// # Errors
///
/// Returns [`TensorError::MatmulDims`] if the inner dimensions disagree and
/// [`TensorError::ShapeMismatch`] if `bias` length differs from `n`.
///
/// # Examples
///
/// ```
/// use vf_tensor::{ops, Tensor};
///
/// let x = Tensor::from_vec(vec![1.0, 2.0], [1, 2])?;
/// let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
/// let b = Tensor::from_vec(vec![0.5, -0.5], [2])?;
/// assert_eq!(ops::linear(&x, &w, &b)?.data(), &[1.5, 1.5]);
/// # Ok::<(), vf_tensor::TensorError>(())
/// ```
pub fn linear(a: &Tensor, w: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k1) = a.shape().as_rows_cols();
    let (k2, n) = w.shape().as_rows_cols();
    if k1 != k2 {
        return Err(TensorError::MatmulDims {
            left: (m, k1),
            right: (k2, n),
        });
    }
    if bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            expected: n,
            actual: bias.len(),
            context: "ops::linear",
        });
    }
    let out = crate::gemm::linear(a.data(), w.data(), bias.data(), m, k1, n);
    Ok(Tensor::from_parts(out, [m, n]))
}

/// The rows of a row-major buffer `n` wide (none when `n == 0`).
fn rows(data: &[f32], n: usize) -> std::slice::ChunksExact<'_, f32> {
    data.chunks_exact(n.max(1))
}

/// Sums a matrix over rows, producing a row-vector of column sums (each
/// column summed in row order from `0.0`).
pub fn sum_rows(a: &Tensor) -> Tensor {
    let (_, n) = a.shape().as_rows_cols();
    let mut out = storage::zeroed(n);
    for row in rows(a.data(), n) {
        for (s, &v) in out.iter_mut().zip(row) {
            *s += v;
        }
    }
    Tensor::from_parts(out, [n])
}

/// Rectified linear unit, elementwise.
pub fn relu(a: &Tensor) -> Tensor {
    a.map(rectify)
}

/// `x` if it is positive, else `+0.0` (NaN and −0.0 included): one element
/// of [`relu`].
pub(crate) fn rectify(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Hyperbolic tangent, elementwise.
pub fn tanh(a: &Tensor) -> Tensor {
    a.map(f32::tanh)
}

/// Logistic sigmoid, elementwise.
pub fn sigmoid(a: &Tensor) -> Tensor {
    a.map(|x| 1.0 / (1.0 + (-x).exp()))
}

/// Gaussian error linear unit (tanh approximation), elementwise.
pub fn gelu(a: &Tensor) -> Tensor {
    a.map(gelu_scalar)
}

fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of the tanh-approximated GELU, elementwise.
pub fn gelu_grad(a: &Tensor) -> Tensor {
    a.map(|x| {
        const C: f32 = 0.797_884_6;
        let u = C * (x + 0.044715 * x * x * x);
        let t = u.tanh();
        let du = C * (1.0 + 3.0 * 0.044715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    })
}

/// Row-wise numerically stable softmax of a matrix.
pub fn softmax_rows(a: &Tensor) -> Tensor {
    let (m, n) = a.shape().as_rows_cols();
    let ad = a.data();
    let mut out = storage::zeroed(m * n);
    for i in 0..m {
        let row = &ad[i * n..(i + 1) * n];
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for j in 0..n {
            let e = (row[j] - mx).exp();
            out[i * n + j] = e;
            denom += e;
        }
        for j in 0..n {
            out[i * n + j] /= denom;
        }
    }
    Tensor::from_parts(out, a.shape().clone())
}

/// Mean softmax cross-entropy loss of `logits` (m×n) against integer
/// `labels` (len m), plus the softmax probabilities for reuse in backward.
///
/// The loss is averaged over the `m` rows.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `labels.len() != m`, or
/// [`TensorError::OutOfBounds`] if any label `>= n`.
pub fn softmax_cross_entropy(
    logits: &Tensor,
    labels: &[usize],
) -> Result<(f32, Tensor), TensorError> {
    let (m, n) = logits.shape().as_rows_cols();
    if labels.len() != m {
        return Err(TensorError::ShapeMismatch {
            expected: m,
            actual: labels.len(),
            context: "ops::softmax_cross_entropy",
        });
    }
    let probs = softmax_rows(logits);
    let pd = probs.data();
    let mut loss = 0.0f32;
    for (i, &y) in labels.iter().enumerate() {
        if y >= n {
            return Err(TensorError::OutOfBounds {
                index: y,
                len: n,
                context: "ops::softmax_cross_entropy",
            });
        }
        // Clamp to avoid -inf on (numerically) zero probabilities.
        loss -= pd[i * n + y].max(1e-12).ln();
    }
    Ok((loss / m as f32, probs))
}

/// Gradient of the mean softmax cross-entropy with respect to the logits:
/// `(probs - onehot(labels)) / m`, written over the probabilities.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `labels.len()` differs from the
/// number of probability rows, and [`TensorError::OutOfBounds`] if a label
/// is not a column.
pub fn softmax_cross_entropy_grad(
    mut probs: Tensor,
    labels: &[usize],
) -> Result<Tensor, TensorError> {
    let (m, n) = probs.shape().as_rows_cols();
    if labels.len() != m {
        return Err(TensorError::ShapeMismatch {
            expected: m,
            actual: labels.len(),
            context: "ops::softmax_cross_entropy_grad",
        });
    }
    let inv_m = 1.0 / m as f32;
    for (row, &y) in probs.data_mut().chunks_exact_mut(n.max(1)).zip(labels) {
        let p = row.get_mut(y).ok_or(TensorError::OutOfBounds {
            index: y,
            len: n,
            context: "ops::softmax_cross_entropy_grad",
        })?;
        *p -= 1.0;
    }
    probs.scale_assign(inv_m);
    Ok(probs)
}

/// Mean squared error `mean((a - b)^2)` and its gradient wrt `a`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn mse(a: &Tensor, b: &Tensor) -> Result<(f32, Tensor), TensorError> {
    let diff = a.sub(b)?;
    let n = diff.len() as f32;
    let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    Ok((loss, grad))
}

/// Fraction of rows whose argmax equals the label.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `labels.len()` differs from the
/// number of logit rows.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32, TensorError> {
    let (m, n) = logits.shape().as_rows_cols();
    if labels.len() != m {
        return Err(TensorError::ShapeMismatch {
            expected: m,
            actual: labels.len(),
            context: "ops::accuracy",
        });
    }
    if m == 0 {
        return Ok(0.0);
    }
    let ld = logits.data();
    let mut correct = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &ld[i * n..(i + 1) * n];
        let mut best = 0usize;
        for j in 1..n {
            if row[j] > row[best] {
                best = j;
            }
        }
        if best == y {
            correct += 1;
        }
    }
    Ok(correct as f32 / m as f32)
}

/// Batch statistics of a matrix over its rows: per-column `(mean, variance)`.
///
/// Variance is the biased (population) estimator, matching batch
/// normalization semantics.
pub fn batch_stats(a: &Tensor) -> (Tensor, Tensor) {
    let (m, n) = a.shape().as_rows_cols();
    let mut mean = storage::zeroed(n);
    for row in rows(a.data(), n) {
        for (s, &x) in mean.iter_mut().zip(row) {
            *s += x;
        }
    }
    let inv_m = if m == 0 { 0.0 } else { 1.0 / m as f32 };
    for v in &mut mean {
        *v *= inv_m;
    }
    let mut var = storage::zeroed(n);
    for row in rows(a.data(), n) {
        for ((s, &x), &mu) in var.iter_mut().zip(row).zip(&mean) {
            let d = x - mu;
            *s += d * d;
        }
    }
    for v in &mut var {
        *v *= inv_m;
    }
    (Tensor::from_parts(mean, [n]), Tensor::from_parts(var, [n]))
}

// Batch normalization, training and inference alike, is three row-slice
// passes: σⱼ = √(varⱼ + ε) once per column, x̂ = (x − μ)/σ, y = γ·x̂ + β.
// Computing σ once per column instead of once per element performs the same
// two operations on the same operands, so every element rounds exactly as
// the per-element form did; what is saved is `m − 1` square roots per
// column, and the loops — slices zipped, no `[i * n + j]` — vectorize.

/// Rejects an ε that is not finite and positive: at micro-batch 1 every
/// column's batch variance is exactly 0, as is the variance of a row of
/// equal entries, and ε = 0 makes x̂ = 0/0 = NaN.
fn check_eps(eps: f32, context: &'static str) -> Result<(), TensorError> {
    if eps.is_finite() && eps > 0.0 {
        Ok(())
    } else {
        Err(TensorError::InvalidEpsilon {
            bits: eps.to_bits(),
            context,
        })
    }
}

/// Checks that each per-column operand is `n` long.
fn check_columns<const N: usize>(
    n: usize,
    operands: [(&Tensor, &'static str); N],
) -> Result<(), TensorError> {
    match operands.into_iter().find(|(t, _)| t.len() != n) {
        Some((t, context)) => Err(TensorError::ShapeMismatch {
            expected: n,
            actual: t.len(),
            context,
        }),
        None => Ok(()),
    }
}

/// σⱼ = √(varⱼ + ε).
fn bn_sigma(var: &Tensor, eps: f32) -> Tensor {
    var.map(|v| (v + eps).sqrt())
}

/// x̂ = (x − μ)/σ, row by row.
fn bn_normalize(a: &[f32], mean: &[f32], sigma: &[f32]) -> Vec<f32> {
    let mut xhat = storage::take(a.len());
    for row in rows(a, mean.len()) {
        xhat.extend(
            row.iter()
                .zip(mean)
                .zip(sigma)
                .map(|((&x, &mu), &s)| (x - mu) / s),
        );
    }
    xhat
}

/// y ← γ·y + β, row by row.
fn bn_scale_shift(y: &mut [f32], gamma: &[f32], beta: &[f32]) {
    for row in y.chunks_exact_mut(gamma.len().max(1)) {
        for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
            *v = g * *v + b;
        }
    }
}

/// Normalizes each column of `a` by the given per-column `mean`/`var`, then
/// applies the affine transform `gamma * x̂ + beta` — batch normalization in
/// inference mode, on the kernel the training-mode tape op uses.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] naming the operand (`mean`,
/// `var`, `gamma` or `beta`) whose length is not the column count, and
/// [`TensorError::InvalidEpsilon`] unless `eps` is finite and positive.
pub fn batch_norm_apply(
    a: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<Tensor, TensorError> {
    let (_, n) = a.shape().as_rows_cols();
    check_columns(
        n,
        [
            (mean, "ops::batch_norm_apply: mean"),
            (var, "ops::batch_norm_apply: var"),
            (gamma, "ops::batch_norm_apply: gamma"),
            (beta, "ops::batch_norm_apply: beta"),
        ],
    )?;
    check_eps(eps, "ops::batch_norm_apply")?;
    let sigma = bn_sigma(var, eps);
    let mut y = bn_normalize(a.data(), mean.data(), sigma.data());
    bn_scale_shift(&mut y, gamma.data(), beta.data());
    Ok(Tensor::from_parts(y, a.shape().clone()))
}

/// What a training-mode batch norm computes, and keeps for its backward
/// pass so that nothing is recomputed there.
pub(crate) struct BatchNormed {
    /// γ·x̂ + β.
    pub(crate) out: Tensor,
    /// Per-column batch mean.
    pub(crate) mean: Tensor,
    /// Per-column biased batch variance.
    pub(crate) var: Tensor,
    /// The normalized input, shaped like it.
    pub(crate) xhat: Tensor,
    /// σⱼ = √(varⱼ + ε).
    pub(crate) sigma: Tensor,
}

/// Batch normalization over rows with the batch's own statistics.
///
/// # Errors
///
/// As [`batch_norm_apply`], for `gamma` and `beta`.
pub(crate) fn batch_norm_train(
    a: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<BatchNormed, TensorError> {
    let (_, n) = a.shape().as_rows_cols();
    check_columns(
        n,
        [
            (gamma, "Tape::batch_norm: gamma"),
            (beta, "Tape::batch_norm: beta"),
        ],
    )?;
    check_eps(eps, "Tape::batch_norm")?;
    let (mean, var) = batch_stats(a);
    let sigma = bn_sigma(&var, eps);
    let xhat = Tensor::from_parts(
        bn_normalize(a.data(), mean.data(), sigma.data()),
        a.shape().clone(),
    );
    let mut out = xhat.clone();
    bn_scale_shift(out.data_mut(), gamma.data(), beta.data());
    Ok(BatchNormed {
        out,
        mean,
        var,
        xhat,
        sigma,
    })
}

/// Σdy and Σdy·x̂ per column, each summed in row order from `0.0`: they are
/// `dβ` and `dγ` of a batch norm, and ×1/m the two means its input gradient
/// subtracts.
pub(crate) fn bn_column_sums(dy: &[f32], xhat: &[f32], n: usize) -> (Tensor, Tensor) {
    let mut sum_dy = storage::zeroed(n);
    let mut sum_dy_xhat = storage::zeroed(n);
    for (g_row, x_row) in rows(dy, n).zip(rows(xhat, n)) {
        for (((s, sx), &g), &x) in sum_dy
            .iter_mut()
            .zip(&mut sum_dy_xhat)
            .zip(g_row)
            .zip(x_row)
        {
            *s += g;
            *sx += g * x;
        }
    }
    (
        Tensor::from_parts(sum_dy, [n]),
        Tensor::from_parts(sum_dy_xhat, [n]),
    )
}

/// The input gradient of a batch norm over `m` rows,
/// `dx = (γ/σ)·(dy − Σdy/m − x̂·Σdy·x̂/m)`, written over `xhat`; `sigma`
/// becomes `γ/σ` on the way (once per column).
pub(crate) fn bn_input_grad(
    dy: &[f32],
    xhat: &mut [f32],
    sigma: &mut [f32],
    gamma: &[f32],
    (sum_dy, sum_dy_xhat): (&[f32], &[f32]),
) {
    let n = sigma.len();
    let inv_m = 1.0 / (xhat.len() / n.max(1)) as f32;
    for (s, &g) in sigma.iter_mut().zip(gamma) {
        *s = g / *s;
    }
    for (x_row, g_row) in xhat.chunks_exact_mut(n.max(1)).zip(rows(dy, n)) {
        for ((((x, &g), &s), &sdy), &sdyx) in x_row
            .iter_mut()
            .zip(g_row)
            .zip(&*sigma)
            .zip(sum_dy)
            .zip(sum_dy_xhat)
        {
            *x = s * (g - sdy * inv_m - *x * (sdyx * inv_m));
        }
    }
}

/// Per-row statistics of a matrix: `(mean, variance)` per row (biased
/// variance), as used by layer normalization.
fn row_stats(a: &Tensor) -> (Tensor, Tensor) {
    let (m, n) = a.shape().as_rows_cols();
    let ad = a.data();
    let inv_n = if n == 0 { 0.0 } else { 1.0 / n as f32 };
    let mut mean = storage::zeroed(m);
    let mut var = storage::zeroed(m);
    for i in 0..m {
        let row = &ad[i * n..(i + 1) * n];
        let mu: f32 = row.iter().sum::<f32>() * inv_n;
        mean[i] = mu;
        var[i] = row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f32>() * inv_n;
    }
    (Tensor::from_parts(mean, [m]), Tensor::from_parts(var, [m]))
}

/// Layer normalization over each row, with per-column affine parameters:
/// `y_ij = gamma_j · (x_ij − μ_i)/√(σ²_i + eps) + beta_j`. Returns
/// `(y, μ, σ²)`: the per-row statistics are computed once, for the output
/// and for the backward pass that keeps them.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `gamma`/`beta` do not match
/// the column count, and [`TensorError::InvalidEpsilon`] unless `eps` is
/// finite and positive.
pub fn layer_norm_rows(
    a: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    let (m, n) = a.shape().as_rows_cols();
    if gamma.len() != n || beta.len() != n {
        return Err(TensorError::ShapeMismatch {
            expected: n,
            actual: gamma.len().max(beta.len()),
            context: "ops::layer_norm_rows",
        });
    }
    check_eps(eps, "ops::layer_norm_rows")?;
    let (mean, var) = row_stats(a);
    let (ad, md, vd, gd, bd) = (a.data(), mean.data(), var.data(), gamma.data(), beta.data());
    let mut out = storage::zeroed(m * n);
    for i in 0..m {
        let inv_sigma = 1.0 / (vd[i] + eps).sqrt();
        for j in 0..n {
            let xhat = (ad[i * n + j] - md[i]) * inv_sigma;
            out[i * n + j] = gd[j] * xhat + bd[j];
        }
    }
    Ok((Tensor::from_parts(out, a.shape().clone()), mean, var))
}

/// A deterministic inverted-dropout mask: entries are `1/(1−rate)` with
/// probability `1−rate` and `0` otherwise, drawn from `seed`.
///
/// Multiplying activations by the mask implements dropout whose expected
/// output equals the input.
///
/// # Errors
///
/// Returns [`TensorError::InvalidRate`] if `rate` is outside `[0, 1)`: at 1
/// every unit is dropped and the kept ones would be scaled by `1/0`.
pub fn dropout_mask(shape: impl Into<Shape>, rate: f32, seed: u64) -> Result<Tensor, TensorError> {
    if !(0.0..1.0).contains(&rate) {
        return Err(TensorError::InvalidRate {
            bits: rate.to_bits(),
            context: "ops::dropout_mask",
        });
    }
    let shape = shape.into();
    if rate == 0.0 {
        return Ok(Tensor::ones(shape));
    }
    use rand::Rng;
    let mut rng = crate::init::rng(seed ^ 0xD509_7AB6_1EDB_90E5);
    let keep = 1.0 - rate;
    let scale = 1.0 / keep;
    let mut data = storage::take(shape.num_elements());
    data.extend(
        (0..shape.num_elements()).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }),
    );
    Ok(Tensor::from_parts(data, shape))
}

/// Clips the global L2 norm of a set of gradients to `max_norm`, scaling all
/// tensors by the same factor (in place). Returns the pre-clip global norm.
pub fn clip_global_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let total_sq: f32 = grads
        .iter()
        .map(|g| g.data().iter().map(|v| v * v).sum::<f32>())
        .sum();
    let norm = total_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for g in grads.iter_mut() {
            g.scale_assign(s);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, shape: [usize; 2]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn matmul_small_known_values() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matches!(
            matmul(&a, &b).unwrap_err(),
            TensorError::MatmulDims { .. }
        ));
    }

    #[test]
    fn matmul_promotes_vectors_to_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = t(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[1, 2]);
        assert_eq!(c.data(), &[1.0, 2.0]);
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_entries() {
        // Regression: the seed kernel skipped a-entries equal to 0.0, so a
        // NaN/∞ in the matching b-row was silently dropped instead of
        // poisoning the output. IEEE semantics: 0·NaN = NaN, 0·∞ = NaN.
        let a = t(vec![0.0, 1.0], [1, 2]);
        let b = t(vec![f32::NAN, f32::INFINITY, 5.0, 7.0], [2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN must poison the output");
        assert!(c.data()[1].is_nan(), "0·∞ must poison the output");
    }

    #[test]
    fn matmul_nt_and_tn_match_explicit_transposes() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = t(vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5], [2, 3]);
        // a (2×3) · bᵀ (3×2) via NT == a · transpose(b).
        let nt = matmul_nt(&a, &b).unwrap();
        let via_t = matmul(&a, &transpose(&b)).unwrap();
        assert!(nt.approx_eq(&via_t, 1e-6));
        // aᵀ (3×2) · b (2×3) via TN == transpose(a) · b.
        let tn = matmul_tn(&a, &b).unwrap();
        let via_t2 = matmul(&transpose(&a), &b).unwrap();
        assert!(tn.approx_eq(&via_t2, 1e-6));
        assert!(matmul_nt(&a, &t(vec![0.0; 4], [2, 2])).is_err());
        assert!(matmul_tn(&a, &t(vec![0.0; 9], [3, 3])).is_err());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn linear_broadcasts_the_bias_over_rows() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let w = t(vec![0.0; 6], [2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, -0.0], [3]).unwrap();
        let y = linear(&a, &w, &b).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        // 0.0 + −0.0 = +0.0: the bias is added to the chain, not stored.
        let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [1.0f32, 2.0, 0.0, 1.0, 2.0, 0.0].map(f32::to_bits));
    }

    #[test]
    fn linear_rejects_bad_shapes() {
        let a = Tensor::zeros([2, 3]);
        assert!(matches!(
            linear(&a, &Tensor::zeros([2, 2]), &Tensor::zeros([2])).unwrap_err(),
            TensorError::MatmulDims { .. }
        ));
        assert!(matches!(
            linear(&a, &Tensor::zeros([3, 2]), &Tensor::zeros([3])).unwrap_err(),
            TensorError::ShapeMismatch {
                context: "ops::linear",
                ..
            }
        ));
    }

    #[test]
    fn sum_rows_produces_column_sums() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(sum_rows(&a).data(), &[4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]);
        let p = softmax_rows(&a);
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = t(vec![1.0, 2.0, 3.0], [1, 3]);
        let b = t(vec![1001.0, 1002.0, 1003.0], [1, 3]);
        assert!(softmax_rows(&a).approx_eq(&softmax_rows(&b), 1e-6));
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = t(vec![10.0, -10.0, -10.0, 10.0], [2, 2]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let logits = t(vec![0.3, -0.7, 1.5, 0.1, 0.2, -0.4], [2, 3]);
        let (_, probs) = softmax_cross_entropy(&logits, &[1, 2]).unwrap();
        assert!(softmax_cross_entropy_grad(probs.clone(), &[1, 3]).is_err());
        let g = softmax_cross_entropy_grad(probs, &[1, 2]).unwrap();
        for i in 0..2 {
            let s: f32 = g.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let logits = Tensor::zeros([1, 3]);
        assert!(softmax_cross_entropy(&logits, &[3]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 1]).is_err());
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = t(vec![0.9, 0.1, 0.2, 0.8], [2, 2]);
        assert_eq!(accuracy(&logits, &[0, 1]).unwrap(), 1.0);
        assert_eq!(accuracy(&logits, &[1, 1]).unwrap(), 0.5);
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let a = Tensor::from_vec(vec![0.5, -0.3], [2]).unwrap();
        let b = Tensor::from_vec(vec![0.1, 0.4], [2]).unwrap();
        let (loss, grad) = mse(&a, &b).unwrap();
        let eps = 1e-3;
        for i in 0..2 {
            let mut ap = a.clone();
            ap.data_mut()[i] += eps;
            let (lp, _) = mse(&ap, &b).unwrap();
            let fd = (lp - loss) / eps;
            assert!(
                (fd - grad.data()[i]).abs() < 1e-2,
                "fd {fd} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn batch_stats_match_hand_computation() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let (mean, var) = batch_stats(&a);
        assert_eq!(mean.data(), &[2.0, 3.0]);
        assert_eq!(var.data(), &[1.0, 1.0]);
    }

    #[test]
    fn batch_norm_normalizes_to_zero_mean_unit_var() {
        let a = t(vec![1.0, 10.0, 3.0, 20.0, 5.0, 30.0], [3, 2]);
        let (mean, var) = batch_stats(&a);
        let gamma = Tensor::ones([2]);
        let beta = Tensor::zeros([2]);
        let y = batch_norm_apply(&a, &mean, &var, &gamma, &beta, 1e-5).unwrap();
        let (ym, yv) = batch_stats(&y);
        assert!(ym.data().iter().all(|v| v.abs() < 1e-5));
        assert!(yv.data().iter().all(|v| (v - 1.0).abs() < 1e-3));
    }

    #[test]
    fn batch_norm_apply_names_the_operand_that_mismatched() {
        let a = Tensor::zeros([3, 2]);
        let (ok, bad) = (Tensor::ones([2]), Tensor::ones([3]));
        let cases = [
            ([&bad, &ok, &ok, &ok], "ops::batch_norm_apply: mean"),
            ([&ok, &bad, &ok, &ok], "ops::batch_norm_apply: var"),
            ([&ok, &ok, &bad, &ok], "ops::batch_norm_apply: gamma"),
            ([&ok, &ok, &ok, &bad], "ops::batch_norm_apply: beta"),
        ];
        for ([mean, var, gamma, beta], want) in cases {
            let err = batch_norm_apply(&a, mean, var, gamma, beta, 1e-5).unwrap_err();
            assert_eq!(
                err,
                TensorError::ShapeMismatch {
                    expected: 2,
                    actual: 3,
                    context: want
                }
            );
        }
    }

    #[test]
    fn batch_norm_apply_rejects_an_epsilon_that_is_not_finite_and_positive() {
        // A zero-variance column: with ε = 0 every x̂ would be 0/0 = NaN.
        let a = t(vec![2.0, 2.0, 2.0, 2.0], [2, 2]);
        let (mean, var) = batch_stats(&a);
        let (g, b) = (Tensor::ones([2]), Tensor::zeros([2]));
        for eps in [0.0, -0.0, -1e-5, f32::NAN, f32::INFINITY] {
            let err = batch_norm_apply(&a, &mean, &var, &g, &b, eps).unwrap_err();
            assert!(
                matches!(err, TensorError::InvalidEpsilon { bits, context: "ops::batch_norm_apply" }
                    if bits == eps.to_bits()),
                "eps {eps}: {err}"
            );
        }
        let y = batch_norm_apply(&a, &mean, &var, &g, &b, f32::MIN_POSITIVE).unwrap();
        assert_eq!(y.data(), &[0.0; 4]);
    }

    #[test]
    fn clip_global_norm_caps_large_gradients() {
        let mut grads = vec![Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap()];
        let pre = clip_global_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((grads[0].l2_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_global_norm_leaves_small_gradients() {
        let mut grads = vec![Tensor::from_vec(vec![0.3, 0.4], [2]).unwrap()];
        clip_global_norm(&mut grads, 1.0);
        assert_eq!(grads[0].data(), &[0.3, 0.4]);
    }

    #[test]
    fn row_stats_match_hand_computation() {
        let a = t(vec![1.0, 3.0, 2.0, 4.0], [2, 2]);
        let (mean, var) = row_stats(&a);
        assert_eq!(mean.data(), &[2.0, 3.0]);
        assert_eq!(var.data(), &[1.0, 1.0]);
    }

    #[test]
    fn layer_norm_rows_normalize_each_row() {
        let a = t(vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0], [2, 3]);
        let (y, mu, sigma2) =
            layer_norm_rows(&a, &Tensor::ones([3]), &Tensor::zeros([3]), 1e-6).unwrap();
        assert_eq!((mu, sigma2), row_stats(&a), "the statistics of the input");
        let (mean, var) = row_stats(&y);
        assert!(mean.data().iter().all(|v| v.abs() < 1e-5));
        assert!(var.data().iter().all(|v| (v - 1.0).abs() < 1e-3));
        // Both rows normalize to the same pattern despite 10x scale.
        assert!(y
            .slice_rows(0, 1)
            .unwrap()
            .approx_eq(&y.slice_rows(1, 1).unwrap(), 1e-4));
    }

    #[test]
    fn layer_norm_rejects_bad_affine_shapes() {
        let a = Tensor::zeros([2, 3]);
        assert!(layer_norm_rows(&a, &Tensor::ones([2]), &Tensor::zeros([3]), 1e-6).is_err());
    }

    #[test]
    fn dropout_mask_preserves_expectation() {
        let mask = dropout_mask([10_000], 0.3, 7).unwrap();
        let mean = mask.mean();
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        let zeros = mask.data().iter().filter(|&&v| v == 0.0).count() as f32 / 10_000.0;
        assert!((zeros - 0.3).abs() < 0.02, "zero fraction {zeros}");
    }

    #[test]
    fn dropout_mask_is_deterministic_and_rate_zero_is_identity() {
        let mask = |len: usize, rate, seed| dropout_mask([len], rate, seed).unwrap();
        assert_eq!(mask(64, 0.5, 1), mask(64, 0.5, 1));
        assert_ne!(mask(64, 0.5, 1), mask(64, 0.5, 2));
        assert_eq!(mask(8, 0.0, 3), Tensor::ones([8]));
    }

    #[test]
    fn dropout_rate_outside_the_unit_interval_is_a_typed_error() {
        for rate in [1.0f32, 1.5, -0.1, f32::NAN, f32::INFINITY] {
            assert!(
                matches!(
                    dropout_mask([4], rate, 0),
                    Err(TensorError::InvalidRate { bits, .. }) if bits == rate.to_bits()
                ),
                "rate {rate}"
            );
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        // GELU(0) = 0, GELU(large) ≈ identity, GELU(-large) ≈ 0.
        let x = Tensor::from_vec(vec![0.0, 5.0, -5.0], [3]).unwrap();
        let y = gelu(&x);
        assert!(y.data()[0].abs() < 1e-6);
        assert!((y.data()[1] - 5.0).abs() < 1e-3);
        assert!(y.data()[2].abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let xs = [-2.0f32, -0.5, 0.0, 0.7, 2.3];
        let x = Tensor::from_vec(xs.to_vec(), [5]).unwrap();
        let g = gelu_grad(&x);
        for (i, &v) in xs.iter().enumerate() {
            let eps = 1e-3;
            let fd = (gelu_scalar(v + eps) - gelu_scalar(v - eps)) / (2.0 * eps);
            assert!((fd - g.data()[i]).abs() < 1e-3, "at x={v}");
        }
    }
}
