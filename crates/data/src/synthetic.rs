//! Synthetic dataset generators.
//!
//! The paper evaluates on ImageNet, GLUE (QNLI/SST-2/CoLA/RTE/MRPC), CIFAR-10
//! and WMT. None are available here, so each workload is replaced by a
//! synthetic classification task whose *convergence-relevant* properties are
//! controlled explicitly:
//!
//! * **separation** — how far apart class centroids are, controlling the
//!   achievable (Bayes) accuracy;
//! * **label noise** — a fraction of deliberately corrupted labels, capping
//!   the accuracy ceiling and injecting gradient noise so that batch size ×
//!   learning-rate interactions (the crux of Table 1 / Fig 10) emerge;
//! * **size/dimension** — scaled so the paper's literal batch sizes (up to
//!   8192) are usable.
//!
//! All generators are pure functions of their seed.

use crate::dataset::Dataset;
use crate::DataError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vf_tensor::{init, Tensor};

/// Configuration of a Gaussian-cluster classification task.
///
/// Examples of class `c` are drawn from `N(center_c, spread² I)` where the
/// centers themselves are drawn from `N(0, separation² I)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTask {
    /// Number of examples to generate.
    pub num_examples: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Standard deviation of class centers.
    pub separation: f32,
    /// Within-class standard deviation.
    pub spread: f32,
    /// Fraction of labels replaced by a uniformly random class.
    pub label_noise: f32,
    /// RNG seed; the task is a pure function of this seed.
    pub seed: u64,
}

impl ClusterTask {
    /// A small, well-separated default task (useful in tests).
    pub fn easy(seed: u64) -> Self {
        ClusterTask {
            num_examples: 512,
            dim: 16,
            num_classes: 4,
            separation: 3.0,
            spread: 1.0,
            label_noise: 0.0,
            seed,
        }
    }

    /// Generates the dataset.
    ///
    /// Host memory holds the features once: every example is drawn into
    /// its row, and the shuffle of example order then moves rows in place,
    /// one permutation cycle at a time, through one row of scratch.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyDataset`] if `num_examples == 0`, and
    /// [`DataError::BadTask`] if `num_classes == 0` or the features would
    /// not fit in memory.
    pub fn generate(&self) -> Result<Dataset, DataError> {
        let (n, dim) = (self.num_examples, self.dim);
        let len = feature_len(n, dim, self.num_classes)?;
        let mut rng = init::rng(self.seed);
        let centers = init::normal(&mut rng, [self.num_classes, dim], 0.0, self.separation);
        let mut features = vec![0.0f32; len];
        for i in 0..n {
            let class = i % self.num_classes;
            add_noise(
                &mut rng,
                &centers.data()[class * dim..(class + 1) * dim],
                &mut features[i * dim..(i + 1) * dim],
                self.spread,
            );
        }
        // Shuffle example order so class labels are not periodic: position
        // k takes example order[k], whose class is order[k] mod classes.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut labels: Vec<usize> = order.iter().map(|&i| i % self.num_classes).collect();
        gather_rows_in_place(&mut features, dim, &mut order);
        // Corrupt labels with an independent RNG so that the same seed with
        // and without noise yields the same examples in the same order.
        if self.label_noise > 0.0 {
            let mut noise_rng = init::rng(self.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
            for label in labels.iter_mut() {
                if noise_rng.gen::<f32>() < self.label_noise {
                    *label = noise_rng.gen_range(0..self.num_classes);
                }
            }
        }
        Dataset::new(Tensor::from_vec(features, [n, dim])?, labels)
    }
}

/// Feature values of `num_examples` examples of `per_example` values each,
/// for a task of `num_classes` classes.
///
/// # Errors
///
/// [`DataError::EmptyDataset`] for no examples, [`DataError::BadTask`] for
/// no classes or a count that overflows `usize`.
fn feature_len(num_examples: usize, per_example: usize, num_classes: usize) -> Result<usize, DataError> {
    if num_examples == 0 {
        return Err(DataError::EmptyDataset);
    }
    if num_classes == 0 {
        return Err(DataError::BadTask {
            reason: "num_classes is 0",
        });
    }
    num_examples
        .checked_mul(per_example)
        .ok_or(DataError::BadTask {
            reason: "num_examples × features per example overflows usize",
        })
}

/// Draws `row`'s noise, `N(0, std²)` per element in [`init::normal`]'s
/// order, and adds `mean` to it (IEEE addition commutes, so these are the
/// bits of `mean[j] + noise[j]`).
fn add_noise(rng: &mut StdRng, mean: &[f32], row: &mut [f32], std: f32) {
    init::normal_into(rng, row, 0.0, std);
    for (x, &m) in row.iter_mut().zip(mean) {
        *x += m;
    }
}

/// Replaces row `k` of the `dim`-wide `rows` by the row that was at
/// `order[k]`, for every `k`, without a second copy of `rows`: each cycle
/// of the permutation rotates through one row of scratch. `order` is spent
/// as the visited marks.
fn gather_rows_in_place(rows: &mut [f32], dim: usize, order: &mut [usize]) {
    const VISITED: usize = usize::MAX;
    let mut scratch = vec![0.0f32; dim];
    for start in 0..order.len() {
        if order[start] == VISITED {
            continue;
        }
        scratch.copy_from_slice(&rows[start * dim..(start + 1) * dim]);
        let mut k = start;
        loop {
            let from = std::mem::replace(&mut order[k], VISITED);
            if from == start {
                rows[k * dim..(k + 1) * dim].copy_from_slice(&scratch);
                break;
            }
            rows.copy_within(from * dim..(from + 1) * dim, k * dim);
            k = from;
        }
    }
}

/// Configuration of a teacher-network classification task.
///
/// Labels are the argmax of a fixed random two-layer MLP ("teacher") applied
/// to Gaussian inputs, optionally corrupted by label noise. Compared to
/// [`ClusterTask`] the decision boundary is non-linear, so a linear student
/// underfits and a small MLP student must actually train.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TeacherTask {
    /// Number of examples to generate.
    pub num_examples: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Teacher hidden width.
    pub hidden: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Fraction of labels replaced by a uniformly random class.
    pub label_noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl TeacherTask {
    /// Generates the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyDataset`] if `num_examples == 0`, and
    /// [`DataError::BadTask`] if `num_classes == 0` or the inputs would not
    /// fit in memory.
    pub fn generate(&self) -> Result<Dataset, DataError> {
        feature_len(self.num_examples, self.dim, self.num_classes)?;
        let mut rng = init::rng(self.seed);
        let w1 = init::normal(&mut rng, [self.dim, self.hidden], 0.0, 1.0 / (self.dim as f32).sqrt());
        let w2 = init::normal(
            &mut rng,
            [self.hidden, self.num_classes],
            0.0,
            1.0 / (self.hidden as f32).sqrt(),
        );
        let x = init::normal(&mut rng, [self.num_examples, self.dim], 0.0, 1.0);
        let h = vf_tensor::ops::relu(&vf_tensor::ops::matmul(&x, &w1)?);
        let logits = vf_tensor::ops::matmul(&h, &w2)?;
        let (n, c) = logits.shape().as_rows_cols();
        // Z-score each logit column before taking the argmax: a raw random
        // teacher is often biased toward one class, which would collapse the
        // task; standardizing keeps classes roughly balanced.
        let (mean, var) = vf_tensor::ops::batch_stats(&logits);
        let (md, vd) = (mean.data(), var.data());
        let ld = logits.data();
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let mut best = 0usize;
            let mut best_z = f32::NEG_INFINITY;
            for j in 0..c {
                let z = (ld[i * c + j] - md[j]) / (vd[j].sqrt() + 1e-6);
                if z > best_z {
                    best_z = z;
                    best = j;
                }
            }
            labels.push(best);
        }
        if self.label_noise > 0.0 {
            for label in labels.iter_mut() {
                if rng.gen::<f32>() < self.label_noise {
                    *label = rng.gen_range(0..self.num_classes);
                }
            }
        }
        Dataset::new(x, labels)
    }
}

/// Configuration of a synthetic image-classification task (the CIFAR/
/// ImageNet stand-in for convolutional models).
///
/// Each class has a seeded prototype image; examples are the prototype at
/// `signal` strength plus unit Gaussian pixel noise, with optional label
/// noise. Features are the flattened `[c·h·w]` pixels; convolutional
/// architectures reshape them back to NCHW.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageTask {
    /// Number of examples.
    pub num_examples: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Prototype amplitude relative to unit pixel noise.
    pub signal: f32,
    /// Fraction of labels replaced by a uniformly random class.
    pub label_noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl ImageTask {
    /// A small, learnable default (8×8 single-channel images, 4 classes).
    pub fn small(seed: u64) -> Self {
        ImageTask {
            num_examples: 512,
            channels: 1,
            height: 8,
            width: 8,
            num_classes: 4,
            signal: 0.8,
            label_noise: 0.0,
            seed,
        }
    }

    /// Generates the dataset (flattened pixels), each example's noise drawn
    /// straight into its row.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyDataset`] if `num_examples == 0`, and
    /// [`DataError::BadTask`] if `num_classes == 0` or the pixels would not
    /// fit in memory.
    pub fn generate(&self) -> Result<Dataset, DataError> {
        let d = self
            .channels
            .checked_mul(self.height)
            .and_then(|p| p.checked_mul(self.width))
            .ok_or(DataError::BadTask {
                reason: "channels × height × width overflows usize",
            })?;
        let len = feature_len(self.num_examples, d, self.num_classes)?;
        let mut rng = init::rng(self.seed);
        let prototypes = init::normal(&mut rng, [self.num_classes, d], 0.0, self.signal);
        let mut features = vec![0.0f32; len];
        let mut labels = Vec::with_capacity(self.num_examples);
        for i in 0..self.num_examples {
            let class = (i * 7 + i / self.num_classes) % self.num_classes;
            add_noise(
                &mut rng,
                &prototypes.data()[class * d..(class + 1) * d],
                &mut features[i * d..(i + 1) * d],
                1.0,
            );
            labels.push(class);
        }
        if self.label_noise > 0.0 {
            let mut noise_rng = init::rng(self.seed ^ 0x1234_5678_9ABC_DEF0);
            for label in labels.iter_mut() {
                if noise_rng.gen::<f32>() < self.label_noise {
                    *label = noise_rng.gen_range(0..self.num_classes);
                }
            }
        }
        Dataset::new(
            Tensor::from_vec(features, [self.num_examples, d])?,
            labels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_task_is_deterministic_and_shaped() {
        let t = ImageTask::small(3);
        let a = t.generate().unwrap();
        let b = t.generate().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.feature_dim(), 64);
        assert_eq!(a.num_classes(), 4);
        for c in 0..4 {
            assert!(a.labels().contains(&c));
        }
    }

    #[test]
    fn image_task_rejects_empty() {
        let t = ImageTask {
            num_examples: 0,
            ..ImageTask::small(0)
        };
        assert!(t.generate().is_err());
    }

    #[test]
    fn cluster_task_is_deterministic() {
        let a = ClusterTask::easy(1).generate().unwrap();
        let b = ClusterTask::easy(1).generate().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = ClusterTask::easy(1).generate().unwrap();
        let b = ClusterTask::easy(2).generate().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn cluster_task_has_all_classes() {
        let d = ClusterTask::easy(3).generate().unwrap();
        assert_eq!(d.num_classes(), 4);
        for c in 0..4 {
            assert!(d.labels().contains(&c), "class {c} missing");
        }
    }

    #[test]
    fn label_noise_corrupts_roughly_the_requested_fraction() {
        let clean = ClusterTask {
            label_noise: 0.0,
            num_examples: 4000,
            ..ClusterTask::easy(5)
        }
        .generate()
        .unwrap();
        let noisy = ClusterTask {
            label_noise: 0.3,
            num_examples: 4000,
            ..ClusterTask::easy(5)
        }
        .generate()
        .unwrap();
        let changed = clean
            .labels()
            .iter()
            .zip(noisy.labels().iter())
            .filter(|(a, b)| a != b)
            .count() as f32
            / 4000.0;
        // 30% corrupted, of which ~1/4 land on the original label.
        assert!(
            (changed - 0.3 * 0.75).abs() < 0.05,
            "changed fraction {changed}"
        );
    }

    #[test]
    fn teacher_task_is_deterministic_and_multi_class() {
        let t = TeacherTask {
            num_examples: 1000,
            dim: 8,
            hidden: 16,
            num_classes: 3,
            label_noise: 0.0,
            seed: 9,
        };
        let a = t.generate().unwrap();
        let b = t.generate().unwrap();
        assert_eq!(a, b);
        // The teacher should not collapse to a single class.
        let mut counts = vec![0usize; 3];
        for &l in a.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c > 50), "class counts {counts:?}");
    }

    #[test]
    fn cluster_task_rejects_no_classes_and_overflowing_sizes() {
        let no_classes = ClusterTask {
            num_classes: 0,
            ..ClusterTask::easy(0)
        };
        assert!(matches!(no_classes.generate(), Err(DataError::BadTask { .. })));
        let too_big = ClusterTask {
            num_examples: usize::MAX / 2,
            dim: 4,
            ..ClusterTask::easy(0)
        };
        assert!(matches!(too_big.generate(), Err(DataError::BadTask { .. })));
    }

    #[test]
    fn image_task_rejects_no_classes_and_overflowing_sizes() {
        let no_classes = ImageTask {
            num_classes: 0,
            ..ImageTask::small(0)
        };
        assert!(matches!(no_classes.generate(), Err(DataError::BadTask { .. })));
        let too_big = ImageTask {
            height: usize::MAX / 2,
            ..ImageTask::small(0)
        };
        assert!(matches!(too_big.generate(), Err(DataError::BadTask { .. })));
    }

    #[test]
    fn teacher_task_rejects_no_classes_with_or_without_label_noise() {
        for label_noise in [0.0, 0.2] {
            let t = TeacherTask {
                num_examples: 100,
                dim: 4,
                hidden: 8,
                num_classes: 0,
                label_noise,
                seed: 1,
            };
            assert!(
                matches!(t.generate(), Err(DataError::BadTask { .. })),
                "label noise {label_noise}"
            );
        }
    }

    #[test]
    fn in_place_row_gather_applies_the_order() {
        let order = [2, 0, 3, 1, 4];
        let mut rows: Vec<f32> = (0..10).map(|v| v as f32).collect();
        let mut spent = order;
        gather_rows_in_place(&mut rows, 2, &mut spent);
        let want: Vec<f32> = order
            .iter()
            .flat_map(|&i| [2.0 * i as f32, 2.0 * i as f32 + 1.0])
            .collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn zero_examples_is_an_error() {
        let t = ClusterTask {
            num_examples: 0,
            ..ClusterTask::easy(0)
        };
        assert!(matches!(t.generate().unwrap_err(), DataError::EmptyDataset));
    }
}
