//! Composable, seeded fault plans.
//!
//! [`crate::FailureModel`] draws independent crash times; real fleets see
//! richer trouble. A [`FaultPlan`] composes three seeded processes into one
//! sorted event stream a chaos harness can inject from:
//!
//! * **crashes** — recurring, independent, exponentially distributed device
//!   failures (the [`crate::FailureModel`] stream);
//! * **spot preemptions** — the cloud provider reclaims a device but gives
//!   *advance notice* (e.g. AWS's 2-minute warning), so a supervisor can
//!   drain the device gracefully inside the notice window;
//! * **rack failures** — correlated faults: every device in a rack dies at
//!   the same instant (power or switch loss), the case that defeats
//!   replication schemes which assumed independence.
//!
//! All draws are pure functions of `(seed, device-or-rack, occurrence)`, so
//! a fault plan is exactly reproducible — the property the bit-identical
//! trajectory tests rely on.

use crate::failure::{unit_open, FailureModel, FailureModelError};
use crate::profile::DeviceId;
use serde::{Deserialize, Serialize};

/// What kind of fault a [`PlannedFault`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// An abrupt device crash: no warning, device memory is lost.
    Crash,
    /// A spot preemption: the device is reclaimed at `at_s` but the owner
    /// learns at `notice_at_s`, leaving a drain window.
    Preemption,
    /// A correlated failure taking out every device of one rack at once.
    Rack {
        /// Index of the failing rack.
        rack: u32,
    },
}

/// One fault drawn from a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// The devices that die (one for crashes/preemptions, a whole rack for
    /// rack failures), sorted.
    pub devices: Vec<DeviceId>,
    /// When the devices die.
    pub at_s: f64,
    /// When the fault becomes known. Equal to `at_s` except for spot
    /// preemptions, where it precedes it by the notice window.
    pub notice_at_s: f64,
    /// The fault's kind.
    pub kind: FaultKind,
}

/// A recurring spot-preemption process with advance notice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpotModel {
    /// Mean time between preemptions per device, in seconds.
    mean_between_s: f64,
    /// Advance notice the provider gives before reclaiming, in seconds.
    notice_s: f64,
}

impl SpotModel {
    /// A spot model preempting each device on average every
    /// `mean_between_s` seconds, with `notice_s` of warning.
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError::InvalidMtbf`] unless `mean_between_s`
    /// is positive and finite; a negative or non-finite notice is treated
    /// the same way.
    pub fn new(mean_between_s: f64, notice_s: f64) -> Result<Self, FailureModelError> {
        if !mean_between_s.is_finite() || mean_between_s <= 0.0 {
            return Err(FailureModelError::InvalidMtbf { mtbf_s: mean_between_s });
        }
        if !notice_s.is_finite() || notice_s < 0.0 {
            return Err(FailureModelError::InvalidMtbf { mtbf_s: notice_s });
        }
        Ok(SpotModel { mean_between_s, notice_s })
    }

    /// The advance-notice window in seconds.
    pub fn notice_s(&self) -> f64 {
        self.notice_s
    }
}

/// A recurring correlated rack-failure process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackModel {
    /// Devices per rack: device `d` belongs to rack `d / rack_size`.
    rack_size: u32,
    /// Mean time between failures per rack, in seconds.
    mtbf_s: f64,
}

impl RackModel {
    /// A rack model with `rack_size` devices per rack failing together on
    /// average every `mtbf_s` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError::InvalidMtbf`] unless `mtbf_s` is
    /// positive and finite or if `rack_size` is zero.
    pub fn new(rack_size: u32, mtbf_s: f64) -> Result<Self, FailureModelError> {
        if !mtbf_s.is_finite() || mtbf_s <= 0.0 || rack_size == 0 {
            return Err(FailureModelError::InvalidMtbf { mtbf_s });
        }
        Ok(RackModel { rack_size, mtbf_s })
    }

    /// The rack a device belongs to.
    pub fn rack_of(&self, device: DeviceId) -> u32 {
        device.0 / self.rack_size
    }
}

/// A composable, seeded fault plan over a device fleet.
///
/// # Examples
///
/// ```
/// use vf_device::{DeviceId, FailureModel, FaultPlan, SpotModel};
///
/// let plan = FaultPlan::new(7)
///     .with_crashes(FailureModel::new(500.0, 7)?)
///     .with_preemptions(SpotModel::new(800.0, 120.0)?);
/// let fleet: Vec<DeviceId> = (0..8).map(DeviceId).collect();
/// let events = plan.events(&fleet, 2_000.0);
/// assert!(!events.is_empty());
/// // Sorted by the time the fault becomes known.
/// assert!(events.windows(2).all(|w| w[0].notice_at_s <= w[1].notice_at_s));
/// # Ok::<(), vf_device::FailureModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Base seed; each sub-process derives its own stream from it.
    pub seed: u64,
    /// Independent recurring crashes, if enabled.
    pub crashes: Option<FailureModel>,
    /// Spot preemptions with notice, if enabled.
    pub preemptions: Option<SpotModel>,
    /// Correlated rack failures, if enabled.
    pub racks: Option<RackModel>,
}

impl FaultPlan {
    /// An empty (fault-free) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            crashes: None,
            preemptions: None,
            racks: None,
        }
    }

    /// Adds recurring independent crashes.
    #[must_use]
    pub fn with_crashes(mut self, model: FailureModel) -> Self {
        self.crashes = Some(model);
        self
    }

    /// Adds recurring spot preemptions.
    #[must_use]
    pub fn with_preemptions(mut self, model: SpotModel) -> Self {
        self.preemptions = Some(model);
        self
    }

    /// Adds recurring correlated rack failures.
    #[must_use]
    pub fn with_racks(mut self, model: RackModel) -> Self {
        self.racks = Some(model);
        self
    }

    /// Every fault the plan schedules against `devices` strictly before
    /// `horizon_s`, sorted by `notice_at_s` (the order a supervisor
    /// observes them), ties broken by death time then lowest device.
    pub fn events(&self, devices: &[DeviceId], horizon_s: f64) -> Vec<PlannedFault> {
        let mut out: Vec<PlannedFault> = Vec::new();

        if let Some(crashes) = &self.crashes {
            for e in crashes.all_failures_before(devices, horizon_s) {
                out.push(PlannedFault {
                    devices: vec![e.device],
                    at_s: e.at_s,
                    notice_at_s: e.at_s,
                    kind: FaultKind::Crash,
                });
            }
        }

        if let Some(spot) = &self.preemptions {
            // Derive an independent stream so enabling crashes does not
            // reshuffle preemption times.
            let stream = FailureModel::new(spot.mean_between_s, self.seed ^ 0x5157_BEEF_0173_AB01)
                // vf-lint: allow(panic-ratchet) — SpotModel's constructor already validated mean_between_s > 0
                .expect("SpotModel validated mean_between_s");
            for e in stream.all_failures_before(devices, horizon_s) {
                out.push(PlannedFault {
                    devices: vec![e.device],
                    at_s: e.at_s,
                    notice_at_s: (e.at_s - spot.notice_s).max(0.0),
                    kind: FaultKind::Preemption,
                });
            }
        }

        if let Some(racks) = &self.racks {
            let mut rack_ids: Vec<u32> = devices.iter().map(|&d| racks.rack_of(d)).collect();
            rack_ids.sort_unstable();
            rack_ids.dedup();
            let stream = FailureModel::new(racks.mtbf_s, self.seed ^ 0x7AC6_F001_D00D_CAFE)
                // vf-lint: allow(panic-ratchet) — RackModel's constructor already validated mtbf_s > 0
                .expect("RackModel validated mtbf_s");
            for &rack in &rack_ids {
                for at_s in stream.failure_times_before(DeviceId(rack), horizon_s) {
                    let mut victims: Vec<DeviceId> = devices
                        .iter()
                        .copied()
                        .filter(|&d| racks.rack_of(d) == rack)
                        .collect();
                    victims.sort_unstable();
                    out.push(PlannedFault {
                        devices: victims,
                        at_s,
                        notice_at_s: at_s,
                        kind: FaultKind::Rack { rack },
                    });
                }
            }
        }

        out.sort_by(|a, b| {
            a.notice_at_s
                .partial_cmp(&b.notice_at_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.at_s
                        .partial_cmp(&b.at_s)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.devices.first().cmp(&b.devices.first()))
        });
        out
    }

    /// A deterministic per-plan uniform draw in `(0, 1]`, for auxiliary
    /// decisions (e.g. whether a recovery attempt fails) that must be
    /// reproducible under the plan's seed.
    pub fn unit_draw(&self, stream: u64, occurrence: u64) -> f64 {
        unit_open(
            self.seed
                .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
                .wrapping_add(occurrence.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: u32) -> Vec<DeviceId> {
        (0..n).map(DeviceId).collect()
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let plan = FaultPlan::new(0);
        assert!(plan.events(&fleet(8), 1e6).is_empty());
    }

    #[test]
    fn crash_events_match_the_failure_model() {
        let model = FailureModel::new(100.0, 5).unwrap();
        let plan = FaultPlan::new(5).with_crashes(model);
        let events = plan.events(&fleet(4), 1_000.0);
        let direct = model.all_failures_before(&fleet(4), 1_000.0);
        assert_eq!(events.len(), direct.len());
        assert!(events.iter().all(|e| e.kind == FaultKind::Crash
            && e.notice_at_s == e.at_s
            && e.devices.len() == 1));
    }

    #[test]
    fn preemptions_carry_advance_notice() {
        let plan = FaultPlan::new(1).with_preemptions(SpotModel::new(300.0, 120.0).unwrap());
        let events = plan.events(&fleet(8), 5_000.0);
        assert!(!events.is_empty());
        for e in &events {
            assert_eq!(e.kind, FaultKind::Preemption);
            assert!(e.notice_at_s <= e.at_s);
            // Full window unless the draw landed within the first 120 s.
            let window_s = e.at_s - e.notice_at_s;
            assert!(window_s <= 120.0 + 1e-9);
            if e.at_s > 120.0 {
                assert!((window_s - 120.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rack_failures_kill_whole_racks_together() {
        let plan = FaultPlan::new(2).with_racks(RackModel::new(4, 400.0).unwrap());
        let events = plan.events(&fleet(8), 10_000.0);
        assert!(!events.is_empty());
        for e in &events {
            let FaultKind::Rack { rack } = e.kind else {
                panic!("only rack events expected");
            };
            assert_eq!(e.devices.len(), 4, "whole rack dies");
            assert!(e.devices.iter().all(|d| d.0 / 4 == rack));
        }
    }

    #[test]
    fn composed_plans_are_sorted_and_deterministic() {
        let plan = FaultPlan::new(9)
            .with_crashes(FailureModel::new(200.0, 9).unwrap())
            .with_preemptions(SpotModel::new(350.0, 60.0).unwrap())
            .with_racks(RackModel::new(4, 2_000.0).unwrap());
        let a = plan.events(&fleet(8), 3_000.0);
        let b = plan.events(&fleet(8), 3_000.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].notice_at_s <= w[1].notice_at_s));
        let kinds: std::collections::BTreeSet<&str> = a
            .iter()
            .map(|e| match e.kind {
                FaultKind::Crash => "crash",
                FaultKind::Preemption => "preemption",
                FaultKind::Rack { .. } => "rack",
            })
            .collect();
        assert_eq!(kinds.len(), 3, "all three processes contribute");
    }

    #[test]
    fn sub_streams_are_independent() {
        let spot = SpotModel::new(300.0, 60.0).unwrap();
        let alone = FaultPlan::new(4).with_preemptions(spot);
        let with_crashes = FaultPlan::new(4)
            .with_preemptions(spot)
            .with_crashes(FailureModel::new(100.0, 4).unwrap());
        let p1: Vec<f64> = alone.events(&fleet(4), 2_000.0).iter().map(|e| e.at_s).collect();
        let p2: Vec<f64> = with_crashes
            .events(&fleet(4), 2_000.0)
            .iter()
            .filter(|e| e.kind == FaultKind::Preemption)
            .map(|e| e.at_s)
            .collect();
        assert_eq!(p1, p2, "crash stream must not perturb preemption draws");
    }

    #[test]
    fn invalid_sub_models_are_rejected() {
        assert!(SpotModel::new(0.0, 60.0).is_err());
        assert!(SpotModel::new(100.0, -1.0).is_err());
        assert!(SpotModel::new(100.0, f64::NAN).is_err());
        assert!(RackModel::new(0, 100.0).is_err());
        assert!(RackModel::new(4, f64::INFINITY).is_err());
    }

    #[test]
    fn unit_draw_is_deterministic_and_in_range() {
        let plan = FaultPlan::new(11);
        for s in 0..4u64 {
            for k in 0..100u64 {
                let u = plan.unit_draw(s, k);
                assert!(u > 0.0 && u <= 1.0);
                assert_eq!(u, plan.unit_draw(s, k));
            }
        }
        assert_ne!(plan.unit_draw(0, 1), plan.unit_draw(1, 0));
    }
}
