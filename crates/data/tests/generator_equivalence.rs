//! The in-place generators produce, bit for bit, the datasets of the
//! two-buffer generators they replaced, and the batch plans fill a reused
//! buffer with exactly the order a fresh one gets.
//!
//! The references below are the generators as they were before, with the
//! sampler `init::normal` had then: each example's noise came from its own
//! normal tensor, and `ClusterTask` gathered the shuffled examples into a
//! second feature buffer. Box–Muller draws a pair per two elements and
//! drops the second sample of an odd-length draw, so odd widths (1
//! included) are where a row-at-a-time sampler would first diverge.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use vf_data::batching::BatchPlan;
use vf_data::partitioned::PartitionedPlan;
use vf_data::synthetic::{ClusterTask, ImageTask};
use vf_data::Dataset;
use vf_tensor::{init, Tensor};

/// `init::normal` as it was: Box–Muller pairs pushed until `n` samples.
fn reference_normal(rng: &mut StdRng, n: usize, mean: f32, std: f32) -> Vec<f32> {
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = 1.0 - rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(mean + std * r * theta.cos());
        if data.len() < n {
            data.push(mean + std * r * theta.sin());
        }
    }
    data
}

/// `ClusterTask::generate` as it was: unshuffled features, then a shuffled
/// copy of features and labels, then label noise.
fn reference_cluster(t: &ClusterTask) -> Dataset {
    let mut rng = init::rng(t.seed);
    let cd = reference_normal(&mut rng, t.num_classes * t.dim, 0.0, t.separation);
    let mut features = Vec::with_capacity(t.num_examples * t.dim);
    let mut labels = Vec::with_capacity(t.num_examples);
    for i in 0..t.num_examples {
        let class = i % t.num_classes;
        let noise = reference_normal(&mut rng, t.dim, 0.0, t.spread);
        for j in 0..t.dim {
            features.push(cd[class * t.dim + j] + noise[j]);
        }
        labels.push(class);
    }
    let mut order: Vec<usize> = (0..t.num_examples).collect();
    order.shuffle(&mut rng);
    let f = Tensor::from_vec(features, [t.num_examples, t.dim]).unwrap();
    let mut shuffled = Vec::with_capacity(t.num_examples * t.dim);
    let mut shuffled_labels = Vec::with_capacity(t.num_examples);
    for &i in &order {
        shuffled.extend_from_slice(&f.data()[i * t.dim..(i + 1) * t.dim]);
        shuffled_labels.push(labels[i]);
    }
    if t.label_noise > 0.0 {
        let mut noise_rng = init::rng(t.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        for label in shuffled_labels.iter_mut() {
            if noise_rng.gen::<f32>() < t.label_noise {
                *label = noise_rng.gen_range(0..t.num_classes);
            }
        }
    }
    Dataset::new(
        Tensor::from_vec(shuffled, [t.num_examples, t.dim]).unwrap(),
        shuffled_labels,
    )
    .unwrap()
}

/// `ImageTask::generate` as it was: a fresh noise tensor per example.
fn reference_image(t: &ImageTask) -> Dataset {
    let d = t.channels * t.height * t.width;
    let mut rng = init::rng(t.seed);
    let pd = reference_normal(&mut rng, t.num_classes * d, 0.0, t.signal);
    let mut features = Vec::with_capacity(t.num_examples * d);
    let mut labels = Vec::with_capacity(t.num_examples);
    for i in 0..t.num_examples {
        let class = (i * 7 + i / t.num_classes) % t.num_classes;
        let noise = reference_normal(&mut rng, d, 0.0, 1.0);
        for j in 0..d {
            features.push(pd[class * d + j] + noise[j]);
        }
        labels.push(class);
    }
    if t.label_noise > 0.0 {
        let mut noise_rng = init::rng(t.seed ^ 0x1234_5678_9ABC_DEF0);
        for label in labels.iter_mut() {
            if noise_rng.gen::<f32>() < t.label_noise {
                *label = noise_rng.gen_range(0..t.num_classes);
            }
        }
    }
    Dataset::new(
        Tensor::from_vec(features, [t.num_examples, d]).unwrap(),
        labels,
    )
    .unwrap()
}

fn bits(d: &Dataset) -> Vec<u32> {
    d.features().data().iter().map(|v| v.to_bits()).collect()
}

/// Feature widths to draw from: odd and even, 1 included.
const DIMS: [usize; 8] = [1, 2, 3, 4, 7, 16, 31, 32];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cluster_task_is_bitwise_the_two_buffer_generator(
        n in 1usize..3_000,
        dim_pick in 0usize..8,
        num_classes in 1usize..12,
        noisy in proptest::bool::ANY,
        seed in any::<u64>(),
    ) {
        let task = ClusterTask {
            num_examples: n,
            dim: DIMS[dim_pick],
            num_classes,
            separation: 2.5,
            spread: 0.7,
            label_noise: if noisy { 0.3 } else { 0.0 },
            seed,
        };
        let got = task.generate().unwrap();
        let want = reference_cluster(&task);
        prop_assert_eq!(got.features().shape(), want.features().shape());
        prop_assert!(bits(&got) == bits(&want), "features differ for {:?}", task);
        prop_assert_eq!(got.labels(), want.labels(), "labels differ for {:?}", task);
    }

    #[test]
    fn image_task_is_bitwise_the_per_example_sampler(
        n in 1usize..2_000,
        channels in 1usize..4,
        height in 1usize..6,
        width in 1usize..6,
        num_classes in 1usize..12,
        noisy in proptest::bool::ANY,
        seed in any::<u64>(),
    ) {
        let task = ImageTask {
            num_examples: n,
            channels,
            height,
            width,
            num_classes,
            signal: 0.8,
            label_noise: if noisy { 0.2 } else { 0.0 },
            seed,
        };
        let got = task.generate().unwrap();
        let want = reference_image(&task);
        prop_assert_eq!(got.features().shape(), want.features().shape());
        prop_assert!(bits(&got) == bits(&want), "features differ for {:?}", task);
        prop_assert_eq!(got.labels(), want.labels(), "labels differ for {:?}", task);
    }

    #[test]
    fn normal_is_bitwise_the_pushing_sampler(
        n in 0usize..300,
        mean in -2.0f32..2.0,
        std in 0.01f32..3.0,
        seed in any::<u64>(),
    ) {
        let got = init::normal(&mut init::rng(seed), [n], mean, std);
        let want = reference_normal(&mut init::rng(seed), n, mean, std);
        let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn a_reused_order_buffer_gets_the_fresh_permutation(
        len in 1usize..500,
        dirty_len in 0usize..1_000,
        epoch in 0usize..10,
        seed in any::<u64>(),
    ) {
        let plan = BatchPlan::new(len, 1, seed).unwrap();
        let mut fresh = Vec::new();
        plan.epoch_permutation(epoch, &mut fresh);
        let mut reused = vec![usize::MAX; dirty_len];
        plan.epoch_permutation(epoch, &mut reused);
        prop_assert_eq!(&reused, &fresh);
        // And again over the previous epoch's order, as the trainer does.
        plan.epoch_permutation(epoch + 1, &mut reused);
        plan.epoch_permutation(epoch, &mut reused);
        prop_assert_eq!(&reused, &fresh);

        let parts = PartitionedPlan::new(len.max(4), 4, 4, seed).unwrap();
        let mut part = vec![0; parts.partition_len()];
        parts.partition_permutation(3, epoch, &mut part);
        let mut dirty = vec![usize::MAX; parts.partition_len()];
        parts.partition_permutation(3, epoch, &mut dirty);
        prop_assert_eq!(&dirty, &part);
    }
}
