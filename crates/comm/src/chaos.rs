//! Faulty collectives: timeouts, mid-collective aborts, stragglers, and
//! the retry-with-reformed-ring recovery path.
//!
//! A real ring all-reduce can fail three ways VirtualFlow's §7 fault story
//! has to survive:
//!
//! * **timeout** — a participant stops responding (network partition,
//!   frozen process); the collective is abandoned after a deadline;
//! * **abort** — a participant *died* mid-collective; survivors detect it,
//!   reform the ring without the corpse, and retry;
//! * **straggler** — a degraded link slows one ring segment down, gating
//!   the whole collective (rings run at the speed of the slowest hop).
//!
//! This module draws those events from a seed, so every experiment is
//! reproducible, and prices the recovery: every failed attempt's wasted
//! wall-clock plus the ring-reform barrier is charged to the caller's
//! clock. The *numeric* result of a retried all-reduce is unchanged — the
//! reduction re-runs over the same per-worker tensors in the same order —
//! which is why faulty communication costs time but never perturbs the
//! parameter trajectory.

use crate::allreduce::{ring_allreduce_time_s, LinkProfile};
use serde::{Deserialize, Serialize};
use vf_obs::{Event, Recorder};
use std::error::Error;
use std::fmt;

/// SplitMix64, kept private so vf-comm stays dependency-free.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_open(z: u64) -> f64 {
    ((mix64(z) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// The fault stream of bucket `bucket` of the gradient collective at
/// training step `step`.
///
/// Bucketed overlap runs one collective per gradient bucket per step, so
/// each needs its own independent draw stream. Bucket 0 maps to `step`
/// itself — a single-bucket run draws exactly the fault sequence the
/// historical one-collective-per-step path drew, keeping committed chaos
/// trajectories stable.
pub fn collective_stream(step: u64, bucket: u32) -> u64 {
    if bucket == 0 {
        step
    } else {
        mix64(step.wrapping_mul(0x0000_0100_0000_01B3).wrapping_add(u64::from(bucket)))
    }
}

/// A seeded model of communication faults per collective attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommFaultModel {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Probability an attempt times out (participant unresponsive).
    pub timeout_prob: f64,
    /// Probability an attempt aborts because a participant died
    /// mid-collective; the ring reforms without it before the retry.
    pub abort_prob: f64,
    /// Probability an attempt is slowed by a degraded link.
    pub straggler_prob: f64,
    /// Bandwidth divisor on straggler attempts (≥ 1; 10 ⇒ 10× slower).
    pub straggler_slowdown: f64,
    /// Deadline after which an unresponsive collective is abandoned.
    pub timeout_s: f64,
}

impl CommFaultModel {
    /// A fault-free model (all probabilities zero).
    pub fn quiet(seed: u64) -> Self {
        CommFaultModel {
            seed,
            timeout_prob: 0.0,
            abort_prob: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            timeout_s: 30.0,
        }
    }

    /// A model with the given per-attempt fault probabilities. Probabilities
    /// are clamped to `[0, 1)` per event so a retry loop always terminates
    /// almost surely; the slowdown is clamped to at least 1.
    pub fn new(seed: u64, timeout_prob: f64, abort_prob: f64, straggler_prob: f64) -> Self {
        let clamp = |p: f64| if p.is_finite() { p.clamp(0.0, 0.99) } else { 0.0 };
        CommFaultModel {
            seed,
            timeout_prob: clamp(timeout_prob),
            abort_prob: clamp(abort_prob),
            straggler_prob: clamp(straggler_prob),
            straggler_slowdown: 10.0,
            timeout_s: 30.0,
        }
    }

    /// The model rescaled for a collective carrying a `share` of the full
    /// gradient's bytes: fault probabilities are per *attempt*, so a step
    /// split into K bucket collectives would otherwise see ~K× the fault
    /// exposure of the single-sync step over the same wire time. Scaling
    /// each bucket's probabilities by its byte share keeps the expected
    /// faults per step invariant to bucketing. `share = 1` is the
    /// identity, so a single bucket draws exactly the legacy model.
    pub fn scaled(&self, share: f64) -> Self {
        let share = if share.is_finite() { share.clamp(0.0, 1.0) } else { 1.0 };
        CommFaultModel {
            timeout_prob: self.timeout_prob * share,
            abort_prob: self.abort_prob * share,
            straggler_prob: self.straggler_prob * share,
            ..*self
        }
    }

    /// The fault (if any) striking attempt `attempt` of collective
    /// `stream`, a pure function of `(seed, stream, attempt)`.
    pub fn draw(&self, stream: u64, attempt: u32) -> AttemptFault {
        let u = unit_open(
            self.seed
                .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
                .wrapping_add(u64::from(attempt).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7)),
        );
        if u < self.abort_prob {
            AttemptFault::Abort
        } else if u < self.abort_prob + self.timeout_prob {
            AttemptFault::Timeout
        } else if u < self.abort_prob + self.timeout_prob + self.straggler_prob {
            AttemptFault::Straggler
        } else {
            AttemptFault::None
        }
    }
}

/// What happened to one collective attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttemptFault {
    /// Clean success.
    None,
    /// Success at degraded-link speed.
    Straggler,
    /// Abandoned at the deadline; ring membership unchanged.
    Timeout,
    /// A participant died mid-collective; the ring reforms without it.
    Abort,
}

/// The priced outcome of an all-reduce driven through retries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveOutcome {
    /// Total wall-clock charged: wasted attempts, reform barriers, and the
    /// final successful pass.
    pub time_s: f64,
    /// Attempts made, including the successful one.
    pub attempts: u32,
    /// Attempts that timed out.
    pub timeouts: u32,
    /// Attempts aborted by a participant death.
    pub aborts: u32,
    /// Successful attempts that ran at straggler speed (0 or 1).
    pub stragglers: u32,
    /// Ring size the successful attempt ran with (shrinks after aborts).
    pub final_workers: usize,
}

/// A collective that exhausted its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveExhausted {
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl fmt::Display for CollectiveExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "all-reduce failed {} consecutive attempts; treating the group as partitioned",
            self.attempts
        )
    }
}

impl Error for CollectiveExhausted {}

/// Time for the survivors to tear down and rebuild the ring after an abort
/// (membership barrier + connection setup), priced as two latency rounds.
pub fn ring_reform_time_s(workers: usize, link: &LinkProfile) -> f64 {
    2.0 * workers as f64 * link.latency_s
}

/// Drives one logical all-reduce through the fault model until an attempt
/// succeeds, charging every failure to the returned outcome.
///
/// `stream` identifies the collective (e.g. the training step), keeping
/// draws independent across steps. Aborts shrink the ring — the dead
/// participant's share is reassigned — but never below one worker.
///
/// With an enabled recorder it emits one `comm` event per failed attempt
/// (timeout/abort, with the attempt index and ring size), an
/// `allreduce/attempt` child span tiling each attempt's charged interval
/// (so profilers attribute retry time to the attempt and its fault kind),
/// and a final `allreduce` span covering the whole priced duration.
/// Timestamps are offsets from the recorder's simulated clock plus the
/// simulated time already charged to this collective — no wall clock is
/// read, so the event stream is a pure function of
/// `(model, stream, bytes, workers, link)`. The recorder's clock itself is
/// *not* advanced; the caller owns clock progression.
///
/// # Errors
///
/// Returns [`CollectiveExhausted`] if `max_attempts` attempts all fail,
/// which callers should treat as a network partition (fall back to
/// checkpoint recovery).
#[allow(clippy::too_many_arguments)]
pub fn allreduce_with_recovery(
    model: &CommFaultModel,
    stream: u64,
    bytes: u64,
    workers: usize,
    link: &LinkProfile,
    max_attempts: u32,
    obs: &Recorder,
) -> Result<CollectiveOutcome, CollectiveExhausted> {
    let base_us = obs.now_us();
    let charged_us = |t_s: f64| (t_s * 1e6).round() as u64;
    let mut outcome = CollectiveOutcome {
        time_s: 0.0,
        attempts: 0,
        timeouts: 0,
        aborts: 0,
        stragglers: 0,
        final_workers: workers.max(1),
    };
    // The successful collective renders as one `comm` span over the whole
    // priced duration (retries included); each failed attempt leaves an
    // instant marker inside it.
    let finish = |outcome: &CollectiveOutcome| {
        obs.record_with(|| {
            Event::complete("allreduce", "comm", base_us, charged_us(outcome.time_s).max(1))
                .with_arg("bytes", bytes)
                .with_arg("ring", outcome.final_workers)
                .with_arg("attempts", outcome.attempts)
        });
    };
    // Each attempt also renders as a child span tiling the charged
    // interval it occupied, so the profiler attributes retry time to the
    // attempt (and its fault kind) rather than to the collective as a
    // whole. Zero-width attempts (sub-microsecond charges) are skipped.
    let attempt_span = |t0: f64, t1: f64, attempt: u32, ring: usize, kind: &'static str| {
        let (s, e) = (charged_us(t0), charged_us(t1));
        if e > s {
            obs.record_with(|| {
                Event::complete("allreduce/attempt", "comm", base_us + s, e - s)
                    .with_arg("attempt", attempt)
                    .with_arg("ring", ring)
                    .with_arg("kind", kind)
            });
        }
    };
    let mut ring = workers.max(1);
    while outcome.attempts < max_attempts {
        let attempt = outcome.attempts;
        let t_before = outcome.time_s;
        outcome.attempts += 1;
        // A single worker has nothing to synchronize and nothing to lose.
        if ring <= 1 {
            outcome.final_workers = ring;
            finish(&outcome);
            return Ok(outcome);
        }
        match model.draw(stream, attempt) {
            AttemptFault::None => {
                outcome.time_s += ring_allreduce_time_s(bytes, ring, link);
                outcome.final_workers = ring;
                // Parent before child: when a lone attempt tiles the whole
                // collective the two spans share boundaries, and the span
                // tree breaks ties by emission order.
                finish(&outcome);
                attempt_span(t_before, outcome.time_s, attempt, ring, "ok");
                return Ok(outcome);
            }
            AttemptFault::Straggler => {
                let slow = LinkProfile {
                    latency_s: link.latency_s,
                    bandwidth: link.bandwidth / model.straggler_slowdown.max(1.0),
                };
                outcome.time_s += ring_allreduce_time_s(bytes, ring, &slow);
                outcome.stragglers += 1;
                outcome.final_workers = ring;
                obs.record_with(|| {
                    Event::instant("allreduce/straggler", "comm", base_us + charged_us(outcome.time_s))
                        .with_arg("attempt", attempt)
                        .with_arg("ring", ring)
                });
                finish(&outcome);
                attempt_span(t_before, outcome.time_s, attempt, ring, "straggler");
                return Ok(outcome);
            }
            AttemptFault::Timeout => {
                outcome.time_s += model.timeout_s;
                outcome.timeouts += 1;
                obs.record_with(|| {
                    Event::instant("allreduce/timeout", "comm", base_us + charged_us(outcome.time_s))
                        .with_arg("attempt", attempt)
                        .with_arg("ring", ring)
                });
                attempt_span(t_before, outcome.time_s, attempt, ring, "timeout");
            }
            AttemptFault::Abort => {
                // Half a pass elapses before the death is detected, then
                // the survivors pay the reform barrier.
                outcome.time_s += 0.5 * ring_allreduce_time_s(bytes, ring, link);
                ring -= 1;
                outcome.time_s += ring_reform_time_s(ring, link);
                outcome.aborts += 1;
                obs.record_with(|| {
                    Event::instant("allreduce/abort", "comm", base_us + charged_us(outcome.time_s))
                        .with_arg("attempt", attempt)
                        .with_arg("ring", ring)
                });
                attempt_span(t_before, outcome.time_s, attempt, ring, "abort");
            }
        }
    }
    obs.record_with(|| {
        Event::instant("allreduce/exhausted", "comm", base_us + charged_us(outcome.time_s))
            .with_arg("attempts", outcome.attempts)
    });
    Err(CollectiveExhausted { attempts: outcome.attempts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkProfile {
        LinkProfile::paper_testbed()
    }

    #[test]
    fn quiet_model_succeeds_first_try_at_ring_cost() {
        let m = CommFaultModel::quiet(0);
        let o = allreduce_with_recovery(&m, 0, 1 << 20, 8, &link(), 4, &Recorder::disabled()).unwrap();
        assert_eq!(o.attempts, 1);
        assert_eq!(o.timeouts + o.aborts + o.stragglers, 0);
        assert_eq!(o.time_s, ring_allreduce_time_s(1 << 20, 8, &link()));
        assert_eq!(o.final_workers, 8);
    }

    #[test]
    fn scaled_model_keeps_expected_faults_invariant_to_bucketing() {
        let m = CommFaultModel::new(5, 0.2, 0.1, 0.1);
        // Full share is the identity: a single bucket draws the legacy model.
        assert_eq!(m.scaled(1.0), m);
        // K equal buckets each carry 1/K the probability mass.
        let b = m.scaled(0.25);
        assert_eq!(b.timeout_prob, 0.05);
        assert_eq!(b.abort_prob, 0.025);
        assert_eq!(b.straggler_prob, 0.025);
        assert_eq!(b.timeout_s, m.timeout_s);
        assert_eq!(b.straggler_slowdown, m.straggler_slowdown);
        // Degenerate shares stay safe.
        assert_eq!(m.scaled(0.0).timeout_prob, 0.0);
        assert_eq!(m.scaled(f64::NAN), m);
        assert_eq!(m.scaled(7.0), m);
    }

    #[test]
    fn draws_are_deterministic_and_stream_independent() {
        let m = CommFaultModel::new(5, 0.2, 0.1, 0.1);
        for stream in 0..8 {
            for attempt in 0..8 {
                assert_eq!(m.draw(stream, attempt), m.draw(stream, attempt));
            }
        }
        let firsts: Vec<AttemptFault> = (0..64).map(|s| m.draw(s, 0)).collect();
        assert!(
            firsts.iter().any(|f| *f != firsts[0]),
            "different streams draw different faults"
        );
    }

    #[test]
    fn timeouts_charge_the_deadline_and_retry() {
        // Probabilities force a deterministic mix; find a stream whose first
        // draw is a timeout and check the accounting.
        let m = CommFaultModel::new(1, 0.9, 0.0, 0.0);
        let stream = (0..)
            .find(|&s| m.draw(s, 0) == AttemptFault::Timeout && m.draw(s, 1) != AttemptFault::Timeout)
            .unwrap();
        let o = allreduce_with_recovery(&m, stream, 1 << 20, 4, &link(), 64, &Recorder::disabled()).unwrap();
        assert!(o.timeouts >= 1);
        assert!(o.time_s > m.timeout_s * o.timeouts as f64);
        assert_eq!(o.final_workers, 4, "timeouts do not shrink the ring");
    }

    #[test]
    fn aborts_reform_a_smaller_ring() {
        let m = CommFaultModel::new(2, 0.0, 0.9, 0.0);
        let stream = (0..)
            .find(|&s| m.draw(s, 0) == AttemptFault::Abort && m.draw(s, 1) == AttemptFault::None)
            .unwrap();
        let o = allreduce_with_recovery(&m, stream, 1 << 20, 4, &link(), 64, &Recorder::disabled()).unwrap();
        assert_eq!(o.aborts, 1);
        assert_eq!(o.final_workers, 3, "the dead participant leaves the ring");
        let clean = ring_allreduce_time_s(1 << 20, 3, &link());
        assert!(o.time_s > clean, "wasted work and the reform barrier are charged");
    }

    #[test]
    fn stragglers_cost_more_than_clean_passes() {
        let m = CommFaultModel::new(3, 0.0, 0.0, 0.9);
        let stream = (0..).find(|&s| m.draw(s, 0) == AttemptFault::Straggler).unwrap();
        let o = allreduce_with_recovery(&m, stream, 100 << 20, 8, &link(), 8, &Recorder::disabled()).unwrap();
        assert_eq!(o.stragglers, 1);
        assert!(o.time_s > ring_allreduce_time_s(100 << 20, 8, &link()));
    }

    #[test]
    fn exhaustion_is_reported() {
        // timeout_prob is clamped to 0.99 so exhaustion needs a stream that
        // draws failures max_attempts times in a row; with p=0.99 and 2
        // attempts most streams qualify.
        let m = CommFaultModel::new(4, 1.0, 0.0, 0.0);
        let stream = (0..)
            .find(|&s| m.draw(s, 0) == AttemptFault::Timeout && m.draw(s, 1) == AttemptFault::Timeout)
            .unwrap();
        let err = allreduce_with_recovery(&m, stream, 1 << 20, 4, &link(), 2, &Recorder::disabled()).unwrap_err();
        assert_eq!(err.attempts, 2);
        assert!(err.to_string().contains("partitioned"));
    }

    #[test]
    fn single_worker_never_fails() {
        let m = CommFaultModel::new(6, 0.9, 0.05, 0.04);
        let o = allreduce_with_recovery(&m, 0, 1 << 30, 1, &link(), 1, &Recorder::disabled()).unwrap();
        assert_eq!(o.time_s, 0.0);
        assert_eq!(o.attempts, 1);
    }

    #[test]
    fn ring_cannot_shrink_below_one() {
        let m = CommFaultModel::new(7, 0.0, 0.9, 0.0);
        // Enough attempts that aborts would drive a 3-ring to zero if
        // unclamped; success at ring=1 short-circuits instead.
        let o = allreduce_with_recovery(&m, 0, 1 << 20, 3, &link(), 64, &Recorder::disabled()).unwrap();
        assert!(o.final_workers >= 1);
    }

    #[test]
    fn traced_collective_emits_a_span_and_attempt_markers() {
        use std::sync::Arc;
        use vf_obs::RingSink;

        let trace_of = |seed: u64| {
            let m = CommFaultModel::new(seed, 0.3, 0.2, 0.1);
            let ring = Arc::new(RingSink::unbounded());
            let obs = Recorder::with_sink(ring.clone());
            for stream in 0..16 {
                let _ = allreduce_with_recovery(&m, stream, 1 << 20, 8, &link(), 16, &obs);
            }
            vf_obs::chrome::render_jsonl(&ring.events())
        };
        let t = trace_of(9);
        assert!(t.contains("\"allreduce\""), "success spans are recorded");
        assert_eq!(t, trace_of(9), "the comm trace is a pure function of its inputs");

        // Recording never changes the priced outcome.
        let m = CommFaultModel::new(9, 0.3, 0.2, 0.1);
        let traced = Recorder::with_sink(Arc::new(RingSink::unbounded()));
        let a = allreduce_with_recovery(&m, 3, 1 << 20, 8, &link(), 16, &traced);
        let b = allreduce_with_recovery(&m, 3, 1 << 20, 8, &link(), 16, &Recorder::disabled());
        assert_eq!(a, b);
    }

    #[test]
    fn bucket_streams_are_deterministic_and_legacy_compatible() {
        // Bucket 0 is the legacy per-step stream; other buckets get their
        // own streams, distinct across both bucket and step.
        for step in 0..64 {
            assert_eq!(collective_stream(step, 0), step);
        }
        let mut seen = std::collections::BTreeSet::new();
        for step in 0..32u64 {
            for bucket in 0..16u32 {
                assert!(
                    seen.insert(collective_stream(step, bucket)),
                    "stream collision at step {step} bucket {bucket}"
                );
                assert_eq!(
                    collective_stream(step, bucket),
                    collective_stream(step, bucket)
                );
            }
        }
    }

    #[test]
    fn probabilities_are_clamped() {
        let m = CommFaultModel::new(0, 7.0, f64::NAN, -3.0);
        assert!(m.timeout_prob <= 0.99);
        assert_eq!(m.abort_prob, 0.0);
        assert_eq!(m.straggler_prob, 0.0);
    }
}
