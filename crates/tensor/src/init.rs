//! Deterministic, seeded parameter initializers.
//!
//! Reproducibility across hardware configurations requires initialization to
//! be a pure function of a seed, never of the device layout. All initializers
//! here consume an explicit [`rand::rngs::StdRng`] so the caller controls the
//! seed, and sample in a fixed element order.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Creates a seeded RNG for parameter initialization.
///
/// # Examples
///
/// ```
/// use vf_tensor::init;
///
/// let mut a = init::rng(42);
/// let mut b = init::rng(42);
/// let ta = init::normal(&mut a, [2, 2], 0.0, 1.0);
/// let tb = init::normal(&mut b, [2, 2], 0.0, 1.0);
/// assert_eq!(ta, tb);
/// ```
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a tensor with i.i.d. normal entries (Box–Muller, deterministic).
pub fn normal(rng: &mut StdRng, shape: impl Into<crate::Shape>, mean: f32, std: f32) -> Tensor {
    let shape = shape.into();
    let mut data = vec![0.0; shape.num_elements()];
    normal_into(rng, &mut data, mean, std);
    Tensor::from_parts(data, shape)
}

/// Overwrites `out` with i.i.d. normal samples: the values, and the draws
/// from `rng`, of [`normal`] over `out.len()` elements. One Box–Muller pair
/// fills two elements; an odd length drops the last pair's second sample.
pub fn normal_into(rng: &mut StdRng, out: &mut [f32], mean: f32, std: f32) {
    for pair in out.chunks_mut(2) {
        // Box–Muller transform on uniform samples in (0, 1].
        let u1: f32 = 1.0 - rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        pair[0] = mean + std * r * theta.cos();
        if let Some(second) = pair.get_mut(1) {
            *second = mean + std * r * theta.sin();
        }
    }
}

/// Samples a tensor with i.i.d. uniform entries in `[lo, hi)`.
pub fn uniform(rng: &mut StdRng, shape: impl Into<crate::Shape>, lo: f32, hi: f32) -> Tensor {
    let shape = shape.into();
    let n = shape.num_elements();
    let data = (0..n).map(|_| lo + (hi - lo) * rng.gen::<f32>()).collect();
    Tensor::from_parts(data, shape)
}

/// Xavier/Glorot uniform initialization for a `fan_in × fan_out` weight.
pub fn xavier_uniform(rng: &mut StdRng, fan_in: usize, fan_out: usize) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, [fan_in, fan_out], -limit, limit)
}

/// He (Kaiming) normal initialization for a `fan_in × fan_out` weight, suited
/// to ReLU networks.
pub fn he_normal(rng: &mut StdRng, fan_in: usize, fan_out: usize) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    normal(rng, [fan_in, fan_out], 0.0, std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tensor() {
        let a = normal(&mut rng(7), [3, 4], 0.0, 1.0);
        let b = normal(&mut rng(7), [3, 4], 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = normal(&mut rng(7), [3, 4], 0.0, 1.0);
        let b = normal(&mut rng(8), [3, 4], 0.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_moments_are_roughly_right() {
        let t = normal(&mut rng(1), [10_000], 2.0, 0.5);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 0.25).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform(&mut rng(2), [1000], -1.5, 2.5);
        assert!(t.data().iter().all(|&v| (-1.5..2.5).contains(&v)));
    }

    #[test]
    fn xavier_limit_shrinks_with_fan() {
        let small = xavier_uniform(&mut rng(3), 4, 4);
        let large = xavier_uniform(&mut rng(3), 400, 400);
        assert!(small.max() > large.max());
    }

    #[test]
    fn he_normal_std_scales_with_fan_in() {
        let t = he_normal(&mut rng(4), 10_000, 2);
        // std should be sqrt(2/10000) ≈ 0.0141
        let std = (t.data().iter().map(|v| v * v).sum::<f32>() / t.len() as f32).sqrt();
        assert!((std - 0.0141).abs() < 0.005, "std {std}");
    }

    #[test]
    fn odd_element_counts_are_filled() {
        let t = normal(&mut rng(5), [7], 0.0, 1.0);
        assert_eq!(t.len(), 7);
        assert!(t.all_finite());
    }
}
