//! Property-based tests for the device substrate: memory accounting never
//! lies, costs are monotone, failures are reproducible.

use proptest::prelude::*;
use vf_device::memory::{MemoryCategory, MemoryTracker};
use vf_device::{cost, DeviceId, DeviceProfile, DeviceType, FailureModel};

fn any_category() -> impl Strategy<Value = MemoryCategory> {
    (0usize..6).prop_map(|i| MemoryCategory::ALL[i])
}

proptest! {
    /// Under any sequence of alloc/free operations, the tracker's totals
    /// stay consistent: in_use == Σ per-category, peak ≥ in_use, never over
    /// capacity.
    #[test]
    fn tracker_invariants_hold_under_random_ops(
        ops in proptest::collection::vec((any_category(), 0u64..2000, any::<bool>()), 1..60),
    ) {
        let capacity = 4096u64;
        let mut t = MemoryTracker::new(capacity);
        let mut time = 0.0;
        for (cat, bytes, is_alloc) in ops {
            time += 1.0;
            if is_alloc {
                // An allocation may legitimately OOM: exactly when it would
                // overrun the capacity.
                let fits = t.in_use() + bytes <= capacity;
                prop_assert_eq!(t.alloc(cat, bytes, time).is_ok(), fits);
            } else {
                t.free(cat, bytes, time);
            }
            let sum: u64 = MemoryCategory::ALL.iter().map(|&c| t.in_use_for(c)).sum();
            prop_assert_eq!(t.in_use(), sum);
            prop_assert!(t.in_use() <= capacity);
            prop_assert!(t.peak_total() >= t.in_use());
            for &c in &MemoryCategory::ALL {
                prop_assert!(t.peak_for(c) >= t.in_use_for(c));
            }
        }
    }

    /// A rejected allocation leaves all observable state unchanged.
    #[test]
    fn failed_alloc_is_a_noop(preload in 1u64..100, huge in 101u64..10_000) {
        let mut t = MemoryTracker::new(100);
        t.alloc(MemoryCategory::Parameters, preload, 0.0).unwrap();
        let before_use = t.in_use();
        let before_peak = t.peak_total();
        prop_assert!(t.alloc(MemoryCategory::Activations, huge, 1.0).is_err());
        prop_assert_eq!(t.in_use(), before_use);
        prop_assert_eq!(t.peak_total(), before_peak);
    }

    /// Compute and memory times are monotone in their inputs for every
    /// device type.
    #[test]
    fn cost_model_is_monotone(flops in 1.0e6..1.0e13, factor in 1.01f64..10.0) {
        for dt in [DeviceType::V100, DeviceType::Rtx2080Ti, DeviceType::K80,
                   DeviceType::A100, DeviceType::T4] {
            let p = DeviceProfile::of(dt);
            prop_assert!(p.compute_time_s(flops * factor) > p.compute_time_s(flops));
            prop_assert!(cost::forward_time_s(&p, flops * factor) > cost::forward_time_s(&p, flops));
            prop_assert!(cost::backward_time_s(&p, flops) > cost::forward_time_s(&p, flops));
        }
    }

    /// Failure draws are pure functions of (seed, device) with the right
    /// support.
    #[test]
    fn failure_model_is_pure_and_positive(seed in any::<u64>(), dev in 0u32..1000, mtbf in 1.0f64..1e6) {
        let m = FailureModel::new(mtbf, seed).expect("positive finite mtbf");
        let a = m.first_failure_s(DeviceId(dev));
        let b = m.first_failure_s(DeviceId(dev));
        prop_assert_eq!(a, b);
        prop_assert!(a > 0.0);
        prop_assert!(a.is_finite());
    }

    /// Survival probability is a proper decreasing function of time.
    #[test]
    fn survival_is_monotone_decreasing(t1 in 0.0f64..1e5, dt in 1.0f64..1e5) {
        let m = FailureModel::new(1000.0, 0).expect("positive finite mtbf");
        prop_assert!(m.survival_probability(t1 + dt) < m.survival_probability(t1));
        prop_assert!(m.survival_probability(t1) <= 1.0);
        prop_assert!(m.survival_probability(t1 + dt) > 0.0);
    }
}
