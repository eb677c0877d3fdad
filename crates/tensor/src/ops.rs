//! Numerical kernels on [`Tensor`]s.
//!
//! These are the forward kernels used by the autograd tape in
//! [`crate::autograd`]. Everything here is deterministic: loops iterate in a
//! fixed order, and reductions are sequential or use the explicitly
//! deterministic tree reduction from [`crate::reduce`].

use crate::shape::Shape;
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
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = ad[i * n + j];
        }
    }
    Tensor::from_parts(out, [n, m])
}

/// Adds a bias row-vector to every row of a matrix.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias` length differs from the
/// number of columns of `a`.
pub fn add_bias(a: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
    let (m, n) = a.shape().as_rows_cols();
    if bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            expected: n,
            actual: bias.len(),
            context: "ops::add_bias",
        });
    }
    let mut out = a.data().to_vec();
    let bd = bias.data();
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] += bd[j];
        }
    }
    Ok(Tensor::from_parts(out, a.shape().clone()))
}

/// Sums a matrix over rows, producing a row-vector of column sums.
pub fn sum_rows(a: &Tensor) -> Tensor {
    let (m, n) = a.shape().as_rows_cols();
    let ad = a.data();
    let mut out = vec![0.0f32; n];
    for i in 0..m {
        for j in 0..n {
            out[j] += ad[i * n + j];
        }
    }
    Tensor::from_parts(out, [n])
}

/// Rectified linear unit, elementwise.
pub fn relu(a: &Tensor) -> Tensor {
    a.map(|x| if x > 0.0 { x } else { 0.0 })
}

/// Derivative mask of ReLU (1 where input > 0).
pub fn relu_grad_mask(a: &Tensor) -> Tensor {
    a.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
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
    let mut out = vec![0.0f32; m * n];
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
/// `(probs - onehot(labels)) / m`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `labels.len()` differs from the
/// number of probability rows.
pub fn softmax_cross_entropy_grad(
    probs: &Tensor,
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
    let mut g = probs.data().to_vec();
    let inv_m = 1.0 / m as f32;
    for (i, &y) in labels.iter().enumerate() {
        g[i * n + y] -= 1.0;
    }
    for v in &mut g {
        *v *= inv_m;
    }
    Tensor::from_vec(g, probs.shape().clone())
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
    let ad = a.data();
    let mut mean = vec![0.0f32; n];
    for i in 0..m {
        for j in 0..n {
            mean[j] += ad[i * n + j];
        }
    }
    let inv_m = if m == 0 { 0.0 } else { 1.0 / m as f32 };
    for v in &mut mean {
        *v *= inv_m;
    }
    let mut var = vec![0.0f32; n];
    for i in 0..m {
        for j in 0..n {
            let d = ad[i * n + j] - mean[j];
            var[j] += d * d;
        }
    }
    for v in &mut var {
        *v *= inv_m;
    }
    (
        Tensor::from_parts(mean, [n]),
        Tensor::from_parts(var, [n]),
    )
}

/// Normalizes each column of `a` by the given per-column `mean`/`var`, then
/// applies the affine transform `gamma * x̂ + beta`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the per-column vectors do not
/// match the column count.
pub fn batch_norm_apply(
    a: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<Tensor, TensorError> {
    let (m, n) = a.shape().as_rows_cols();
    for (t, name) in [(mean, "mean"), (var, "var"), (gamma, "gamma"), (beta, "beta")] {
        if t.len() != n {
            let _ = name;
            return Err(TensorError::ShapeMismatch {
                expected: n,
                actual: t.len(),
                context: "ops::batch_norm_apply",
            });
        }
    }
    let ad = a.data();
    let (md, vd, gd, bd) = (mean.data(), var.data(), gamma.data(), beta.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let xhat = (ad[i * n + j] - md[j]) / (vd[j] + eps).sqrt();
            out[i * n + j] = gd[j] * xhat + bd[j];
        }
    }
    Ok(Tensor::from_parts(out, a.shape().clone()))
}

/// Per-row statistics of a matrix: `(mean, variance)` per row (biased
/// variance), as used by layer normalization.
pub fn row_stats(a: &Tensor) -> (Tensor, Tensor) {
    let (m, n) = a.shape().as_rows_cols();
    let ad = a.data();
    let inv_n = if n == 0 { 0.0 } else { 1.0 / n as f32 };
    let mut mean = vec![0.0f32; m];
    let mut var = vec![0.0f32; m];
    for i in 0..m {
        let row = &ad[i * n..(i + 1) * n];
        let mu: f32 = row.iter().sum::<f32>() * inv_n;
        mean[i] = mu;
        var[i] = row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f32>() * inv_n;
    }
    (
        Tensor::from_parts(mean, [m]),
        Tensor::from_parts(var, [m]),
    )
}

/// Layer normalization over each row, with per-column affine parameters:
/// `y_ij = gamma_j · (x_ij − μ_i)/√(σ²_i + eps) + beta_j`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `gamma`/`beta` do not match
/// the column count.
pub fn layer_norm_rows(
    a: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<Tensor, TensorError> {
    let (m, n) = a.shape().as_rows_cols();
    if gamma.len() != n || beta.len() != n {
        return Err(TensorError::ShapeMismatch {
            expected: n,
            actual: gamma.len().max(beta.len()),
            context: "ops::layer_norm_rows",
        });
    }
    let (mean, var) = row_stats(a);
    let (ad, md, vd, gd, bd) = (a.data(), mean.data(), var.data(), gamma.data(), beta.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let inv_sigma = 1.0 / (vd[i] + eps).sqrt();
        for j in 0..n {
            let xhat = (ad[i * n + j] - md[i]) * inv_sigma;
            out[i * n + j] = gd[j] * xhat + bd[j];
        }
    }
    Ok(Tensor::from_parts(out, a.shape().clone()))
}

/// A deterministic inverted-dropout mask: entries are `1/(1−rate)` with
/// probability `1−rate` and `0` otherwise, drawn from `seed`.
///
/// Multiplying activations by the mask implements dropout whose expected
/// output equals the input.
///
/// # Panics
///
/// Panics if `rate` is outside `[0, 1)`.
pub fn dropout_mask(shape: impl Into<Shape>, rate: f32, seed: u64) -> Tensor {
    assert!((0.0..1.0).contains(&rate), "dropout rate {rate} outside [0, 1)");
    let shape = shape.into();
    if rate == 0.0 {
        return Tensor::ones(shape);
    }
    use rand::Rng;
    let mut rng = crate::init::rng(seed ^ 0xD509_7AB6_1EDB_90E5);
    let keep = 1.0 - rate;
    let scale = 1.0 / keep;
    let data = (0..shape.num_elements())
        .map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 })
        .collect();
    Tensor::from_parts(data, shape)
}

/// Clips the global L2 norm of a set of gradients to `max_norm`, scaling all
/// tensors by the same factor (in place). Returns the pre-clip global norm.
pub fn clip_global_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let total_sq: f32 = grads.iter().map(|g| {
        g.data().iter().map(|v| v * v).sum::<f32>()
    }).sum();
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
    fn add_bias_broadcasts_over_rows() {
        let a = t(vec![0.0; 4], [2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        assert_eq!(add_bias(&a, &b).unwrap().data(), &[1.0, 2.0, 1.0, 2.0]);
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
        let g = softmax_cross_entropy_grad(&probs, &[1, 2]).unwrap();
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
        let y = layer_norm_rows(&a, &Tensor::ones([3]), &Tensor::zeros([3]), 1e-6).unwrap();
        let (mean, var) = row_stats(&y);
        assert!(mean.data().iter().all(|v| v.abs() < 1e-5));
        assert!(var.data().iter().all(|v| (v - 1.0).abs() < 1e-3));
        // Both rows normalize to the same pattern despite 10x scale.
        assert!(y.slice_rows(0, 1).unwrap().approx_eq(&y.slice_rows(1, 1).unwrap(), 1e-4));
    }

    #[test]
    fn layer_norm_rejects_bad_affine_shapes() {
        let a = Tensor::zeros([2, 3]);
        assert!(layer_norm_rows(&a, &Tensor::ones([2]), &Tensor::zeros([3]), 1e-6).is_err());
    }

    #[test]
    fn dropout_mask_preserves_expectation() {
        let mask = dropout_mask([10_000], 0.3, 7);
        let mean = mask.mean();
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        let zeros = mask.data().iter().filter(|&&v| v == 0.0).count() as f32 / 10_000.0;
        assert!((zeros - 0.3).abs() < 0.02, "zero fraction {zeros}");
    }

    #[test]
    fn dropout_mask_is_deterministic_and_rate_zero_is_identity() {
        assert_eq!(dropout_mask([64], 0.5, 1), dropout_mask([64], 0.5, 1));
        assert_ne!(dropout_mask([64], 0.5, 1), dropout_mask([64], 0.5, 2));
        assert_eq!(dropout_mask([8], 0.0, 3), Tensor::ones([8]));
    }

    #[test]
    #[should_panic]
    fn dropout_rate_one_panics() {
        dropout_mask([4], 1.0, 0);
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
