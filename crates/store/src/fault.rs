//! Seeded storage-fault plans.
//!
//! A [`StorageFaultPlan`] is the storage counterpart of
//! `vf_device::FaultPlan`: a serializable description of every way the
//! simulated medium misbehaves, with all randomness derived from one seed
//! through independent sub-streams. Each write the store performs consumes
//! one *occurrence index*; every fault decision for that write is a pure
//! function of `(seed, stream, occurrence)`, so a storage-chaos run is
//! exactly replayable — the property the bit-identical recovery drills
//! rely on.
//!
//! The taxonomy mirrors what real durable-storage postmortems report:
//!
//! * **torn writes** — the write returns success but only a prefix reached
//!   the medium (lost track of in the page cache, cut by power loss);
//! * **bit flips** — silent medium corruption; the write "succeeds" with
//!   one bit inverted;
//! * **crash-during-write** — the writer itself dies mid-write, leaving a
//!   partial, unsynced object *and* surfacing an error;
//! * **latency stalls** — the device hiccups (GC pause, degraded RAID
//!   member) and the operation takes `stall_s` extra seconds;
//! * **disk-full** — modeled by the store's capacity, not a probability:
//!   writes that exceed capacity always fail.
//!
//! Torn writes and bit flips are *silent*: the store reports success and
//! only the checksum layer above can catch them. That asymmetry is the
//! point — it is what the manifest CRCs exist to defend against.

use serde::{Deserialize, Serialize};

/// SplitMix64 (same mixer as `vf-device`'s failure draws).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `(0, 1]` from a mixed 64-bit state.
fn unit_open(z: u64) -> f64 {
    ((mix64(z) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Sub-stream tags: enabling one fault class must not reshuffle another's
/// draws, so each decision reads its own stream.
pub(crate) const STREAM_TORN: u64 = 1;
pub(crate) const STREAM_FLIP: u64 = 2;
pub(crate) const STREAM_CRASH: u64 = 3;
pub(crate) const STREAM_STALL: u64 = 4;
/// Where a torn/crashed write cuts off (fraction of the payload).
pub(crate) const STREAM_CUT: u64 = 5;
/// Which bit a bit-flip inverts.
pub(crate) const STREAM_BIT: u64 = 6;

/// A seeded, serializable plan of storage faults and performance
/// characteristics for a [`crate::SimStore`].
///
/// # Examples
///
/// ```
/// use vf_store::StorageFaultPlan;
///
/// let plan = StorageFaultPlan::quiet(7)
///     .with_torn_writes(0.05)
///     .with_bit_flips(0.01)
///     .with_stalls(0.1, 2.0);
/// // Pure function of (seed, stream, occurrence): replayable.
/// assert_eq!(plan.unit_draw(1, 42), plan.unit_draw(1, 42));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageFaultPlan {
    /// Base seed; every sub-stream derives from it.
    pub seed: u64,
    /// Probability a write silently persists only a prefix.
    pub torn_write_prob: f64,
    /// Probability a write silently inverts one stored bit.
    pub bit_flip_prob: f64,
    /// Probability the writer crashes mid-write (partial object + error).
    pub crash_write_prob: f64,
    /// Probability an operation stalls for [`Self::stall_s`] extra seconds.
    pub stall_prob: f64,
    /// Extra latency a stall adds, in seconds.
    pub stall_s: f64,
    /// Sequential write bandwidth, MB/s (simulated time accounting).
    pub write_mbps: f64,
    /// Sequential read bandwidth, MB/s.
    pub read_mbps: f64,
    /// Fixed per-operation latency in seconds (metadata round trip).
    pub op_latency_s: f64,
}

impl StorageFaultPlan {
    /// A fault-free plan with NVMe-ish performance defaults.
    pub fn quiet(seed: u64) -> Self {
        StorageFaultPlan {
            seed,
            torn_write_prob: 0.0,
            bit_flip_prob: 0.0,
            crash_write_prob: 0.0,
            stall_prob: 0.0,
            stall_s: 0.0,
            write_mbps: 2_000.0,
            read_mbps: 3_500.0,
            op_latency_s: 0.000_5,
        }
    }

    /// Enables silent torn writes with probability `p` per write.
    #[must_use]
    pub fn with_torn_writes(mut self, p: f64) -> Self {
        self.torn_write_prob = p;
        self
    }

    /// Enables silent single-bit flips with probability `p` per write.
    #[must_use]
    pub fn with_bit_flips(mut self, p: f64) -> Self {
        self.bit_flip_prob = p;
        self
    }

    /// Enables crash-during-write with probability `p` per write.
    #[must_use]
    pub fn with_crash_writes(mut self, p: f64) -> Self {
        self.crash_write_prob = p;
        self
    }

    /// Enables latency stalls: probability `p` per operation, `stall_s`
    /// extra seconds each.
    #[must_use]
    pub fn with_stalls(mut self, p: f64, stall_s: f64) -> Self {
        self.stall_prob = p;
        self.stall_s = stall_s;
        self
    }

    /// Validates the plan. Probabilities must lie in `[0, 1]`, bandwidths
    /// must be positive and finite, latencies non-negative and finite.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::InvalidConfig`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), crate::StoreError> {
        let probs = [
            ("torn_write_prob", self.torn_write_prob),
            ("bit_flip_prob", self.bit_flip_prob),
            ("crash_write_prob", self.crash_write_prob),
            ("stall_prob", self.stall_prob),
        ];
        for (name, p) in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(crate::StoreError::InvalidConfig {
                    reason: format!("{name} must be in [0, 1], got {p}"),
                });
            }
        }
        for (name, v) in [("write_mbps", self.write_mbps), ("read_mbps", self.read_mbps)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(crate::StoreError::InvalidConfig {
                    reason: format!("{name} must be positive and finite, got {v}"),
                });
            }
        }
        for (name, v) in [("stall_s", self.stall_s), ("op_latency_s", self.op_latency_s)] {
            if !v.is_finite() || v < 0.0 {
                return Err(crate::StoreError::InvalidConfig {
                    reason: format!("{name} must be non-negative and finite, got {v}"),
                });
            }
        }
        Ok(())
    }

    /// A deterministic uniform draw in `(0, 1]` — a pure function of
    /// `(seed, stream, occurrence)`, the same scheme as
    /// `vf_device::FaultPlan::unit_draw`.
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

    #[test]
    fn quiet_plan_is_valid() {
        StorageFaultPlan::quiet(3).validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let plan = StorageFaultPlan::quiet(3)
            .with_torn_writes(0.1)
            .with_bit_flips(0.2)
            .with_crash_writes(0.3)
            .with_stalls(0.4, 5.0);
        assert_eq!(plan.torn_write_prob, 0.1);
        assert_eq!(plan.stall_s, 5.0);
        plan.validate().unwrap();
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(StorageFaultPlan::quiet(0).with_torn_writes(1.5).validate().is_err());
        assert!(StorageFaultPlan::quiet(0).with_bit_flips(-0.1).validate().is_err());
        assert!(StorageFaultPlan::quiet(0).with_stalls(0.5, -1.0).validate().is_err());
        assert!(StorageFaultPlan::quiet(0).with_stalls(f64::NAN, 1.0).validate().is_err());
        assert!(StorageFaultPlan { write_mbps: 0.0, ..StorageFaultPlan::quiet(0) }
            .validate()
            .is_err());
    }

    #[test]
    fn draws_are_deterministic_in_range_and_stream_independent() {
        let plan = StorageFaultPlan::quiet(11);
        for s in 0..6u64 {
            for k in 0..200u64 {
                let u = plan.unit_draw(s, k);
                assert!(u > 0.0 && u <= 1.0);
                assert_eq!(u, plan.unit_draw(s, k));
            }
        }
        assert_ne!(plan.unit_draw(0, 1), plan.unit_draw(1, 0));
        // Different seeds give different streams.
        assert_ne!(
            StorageFaultPlan::quiet(1).unit_draw(0, 0),
            StorageFaultPlan::quiet(2).unit_draw(0, 0)
        );
    }

    #[test]
    fn serde_round_trip() {
        let plan = StorageFaultPlan::quiet(9).with_torn_writes(0.25).with_stalls(0.5, 3.0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: StorageFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
